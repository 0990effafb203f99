"""Fused BPTT LSTM kernel vs the stepwise reference and finite differences.

The fused kernel (one autograd node, hand-derived backward) must agree with
the per-timestep ``StackedLSTM`` graph *exactly* — same forward values, same
gradients for the input and every weight — including masked/padded
sequences, and its gradients must match central differences.
"""

import numpy as np
import pytest

from repro.nn import layers as kernel
from repro.nn.gradcheck import check_gradients
from repro.nn.layers import LSTM, StackedLSTM, _sigmoid, fused_stacked_lstm
from repro.nn.tensor import Tensor


def _random_case(seed, batch, steps, dim, hidden, layers, masked, dtype=np.float64):
    """``masked`` is ``False`` (no mask), ``True`` (ragged lengths) or
    ``"full"`` (every step valid, as in a training batch of full walks)."""
    rng = np.random.default_rng(seed)
    lstm = StackedLSTM(dim, hidden, layers, rng=rng, dtype=dtype)
    x = rng.normal(size=(batch, steps, dim)).astype(dtype)
    mask = None
    if masked == "full":
        mask = np.ones((batch, steps))
    elif masked:
        lengths = rng.integers(1, steps + 1, size=batch)
        mask = (np.arange(steps) < lengths[:, None]).astype(np.float64)
    upstream = rng.normal(size=(batch, hidden)).astype(dtype)
    return lstm, x, mask, upstream


def _run_stepwise(lstm, x_data, mask, upstream):
    x = Tensor(x_data, requires_grad=True)
    steps = [x[:, t, :] for t in range(x_data.shape[1])]
    _, h = lstm(steps, mask=mask.T if mask is not None else None)
    (h * Tensor(upstream)).sum().backward()
    grads = [x.grad.copy()] + [p.grad.copy() for p in lstm.parameters()]
    for p in lstm.parameters():
        p.zero_grad()
    return h.data, grads


def _run_fused(lstm, x_data, mask, upstream):
    x = Tensor(x_data, requires_grad=True)
    h = fused_stacked_lstm(x, lstm.layers, mask=mask)
    (h * Tensor(upstream)).sum().backward()
    grads = [x.grad.copy()] + [p.grad.copy() for p in lstm.parameters()]
    for p in lstm.parameters():
        p.zero_grad()
    return h.data, grads


CASES = [
    # (batch, steps, dim, hidden, layers, masked)
    (6, 7, 4, 4, 2, True),
    (6, 7, 4, 4, 2, False),
    (3, 5, 6, 6, 3, True),
    (1, 6, 4, 4, 2, True),  # single row: the encode(one node) shape
    (4, 1, 3, 3, 1, True),  # single step
    (5, 4, 2, 8, 2, False),  # input size != hidden size
    (64, 7, 32, 32, 2, "full"),  # all-valid mask at a training-like shape
]


class TestFusedMatchesStepwise:
    @pytest.mark.parametrize("case", CASES)
    def test_forward_bitwise(self, case):
        lstm, x, mask, up = _random_case(0, *case)
        h_ref, _ = _run_stepwise(lstm, x, mask, up)
        h_fus, _ = _run_fused(lstm, x, mask, up)
        np.testing.assert_array_equal(h_ref, h_fus)

    @pytest.mark.parametrize("case", CASES)
    def test_backward_agreement(self, case):
        """Input and weight gradients agree far below 1e-10 (in practice
        they are value-equal: the fused backward replays the reference's
        per-step accumulation order)."""
        lstm, x, mask, up = _random_case(1, *case)
        _, g_ref = _run_stepwise(lstm, x, mask, up)
        _, g_fus = _run_fused(lstm, x, mask, up)
        for a, b in zip(g_ref, g_fus):
            np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-10)

    def test_fully_padded_tail_is_identity(self):
        """Steps masked for every row must not change the final state."""
        lstm, x, _, up = _random_case(2, 4, 6, 4, 4, 2, False)
        mask = np.ones((4, 6))
        mask[:, 4:] = 0.0  # common padded tail
        h_full, _ = _run_fused(lstm, x, mask, up)
        h_trim, _ = _run_fused(lstm, x[:, :4, :], mask[:, :4], up)
        np.testing.assert_array_equal(h_full, h_trim)

    def test_stacked_fused_method(self):
        """StackedLSTM.fused is the documented front door to the kernel."""
        lstm, x, mask, _ = _random_case(3, 5, 6, 4, 4, 2, True)
        out_fn = lstm.fused(Tensor(x), mask=mask)
        out_free = fused_stacked_lstm(Tensor(x), lstm.layers, mask=mask)
        np.testing.assert_array_equal(out_fn.data, out_free.data)


class TestSigmoid:
    SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, -1e-300, 1.0,
               -1.0, 30.0, -30.0, 745.0, -745.0, 1e300, -1e300]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_special_values_bitwise(self, dtype):
        """The select-free ``_sigmoid`` equals the ``np.where`` formula it
        replaced and ``Tensor.sigmoid`` bit for bit: signed zeros, infs,
        NaN, subnormal-range and overflowing inputs, in both precisions."""
        with np.errstate(over="ignore", under="ignore"):
            x = np.array(self.SPECIAL, dtype=dtype)
            x = np.concatenate(
                [x, np.random.default_rng(0).normal(scale=8, size=64).astype(dtype)]
            )
            e = np.exp(-np.abs(x))
            old = np.where(x >= 0, 1.0, e) / (e + 1.0)
            work = (np.empty_like(x), np.empty(x.shape, bool))
            got = _sigmoid(x, np.empty_like(x), work)
            via_tensor = Tensor(x).sigmoid().data
            in_place = x.copy()  # the kernel's call: in place
            _sigmoid(in_place, in_place, work)
        assert got.dtype == old.dtype == via_tensor.dtype == dtype
        nan = np.isnan(got)
        assert nan.sum() == 1  # NaN in, NaN out; its sign bit is unspecified
        for ref in (old, via_tensor, in_place):
            np.testing.assert_array_equal(np.isnan(ref), nan)
            np.testing.assert_array_equal(
                got[~nan].view(np.uint8), ref[~nan].view(np.uint8)
            )


class TestFusedGradcheck:
    def test_numerical_gradients_masked(self):
        rng = np.random.default_rng(7)
        lstm = StackedLSTM(3, 3, 2, rng=rng)
        x = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
        mask = np.array([[1, 1, 0, 0], [1, 1, 1, 1]], dtype=np.float64)
        worst = check_gradients(
            lambda: fused_stacked_lstm(x, lstm.layers, mask=mask).sum(),
            [x] + lstm.parameters(),
        )
        assert worst < 1e-5

    def test_numerical_gradients_unmasked_single_layer(self):
        rng = np.random.default_rng(8)
        lstm = StackedLSTM(2, 4, 1, rng=rng)
        x = Tensor(rng.normal(size=(3, 3, 2)), requires_grad=True)
        worst = check_gradients(
            lambda: fused_stacked_lstm(x, lstm.layers).sum(),
            [x] + lstm.parameters(),
        )
        assert worst < 1e-5

    def test_constant_input_gets_no_input_grad(self):
        """A non-differentiable input still trains the weights."""
        rng = np.random.default_rng(9)
        lstm = StackedLSTM(3, 3, 1, rng=rng)
        x = Tensor(rng.normal(size=(2, 3, 3)))  # requires_grad=False
        out = fused_stacked_lstm(x, lstm.layers)
        out.sum().backward()
        assert x.grad is None
        assert all(p.grad is not None for p in lstm.parameters())


class TestFusedValidation:
    def test_rejects_non_3d_input(self):
        lstm = LSTM(3, 3, rng=0)
        with pytest.raises(ValueError, match="B, T, D"):
            fused_stacked_lstm(Tensor(np.zeros((2, 3))), [lstm])

    def test_rejects_wrong_mask_shape(self):
        lstm = LSTM(3, 3, rng=0)
        with pytest.raises(ValueError, match="mask shape"):
            fused_stacked_lstm(
                Tensor(np.zeros((2, 4, 3))), [lstm], mask=np.ones((4, 2))
            )


def _bytes(arrays):
    return [np.ascontiguousarray(a).view(np.uint8) for a in arrays]


class TestRowSplit:
    """A call run as row pieces is byte-equal to the one-piece call.

    Every piece runs its rows' recurrence and BPTT sweep; the weight
    gradients sum over the whole batch after each layer's sweep, in step
    order, whatever the piece count.
    """

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("masked", [False, True, "full"])
    @pytest.mark.parametrize("batch", [256, 257, 511, 752, 1024])
    def test_split_is_bitwise(self, monkeypatch, batch, masked, dtype):
        """Forced counts 1-3 (as the floor allows) and the default pieces
        each run as that many pieces and give the one-piece bytes."""
        default = kernel._PIECE_ROWS
        counts = range(1, min(3, batch // kernel._MIN_PIECE_ROWS) + 1)
        sizes = [-(-batch // count) for count in counts] + [default]
        for steps in (1, 3, 7):
            lstm, x, mask, up = _random_case(batch + steps, batch, steps, 32, 32, 2, masked, dtype)
            results = []
            for size in sizes:
                monkeypatch.setattr(kernel, "_PIECE_ROWS", size)
                assert len(kernel._row_pieces(batch, 32)) == -(-batch // size)
                h, grads = _run_fused(lstm, x, mask, up)
                results.append(_bytes([h] + grads))
            for got in results[1:]:
                for ref, piece in zip(results[0], got):
                    np.testing.assert_array_equal(ref, piece)

    def test_no_piece_under_the_floor(self, monkeypatch):
        floor = kernel._MIN_PIECE_ROWS
        for size in (1, 50, floor, 240, 500, 10**6):
            monkeypatch.setattr(kernel, "_PIECE_ROWS", size)
            for batch in range(1, 2100, 7):
                pieces = kernel._row_pieces(batch, 32)
                assert pieces[0].start == 0 and pieces[-1].stop == batch
                assert all(a.stop == b.start for a, b in zip(pieces, pieces[1:]))
                assert max(p.stop - p.start for p in pieces) <= max(size, 2 * floor - 1)
                if len(pieces) > 1:
                    assert min(p.stop - p.start for p in pieces) >= floor

    @pytest.mark.parametrize("batch", [1, 32, 127, 128, 255])
    def test_encode_sized_calls_do_not_split(self, monkeypatch, batch):
        """Rows under two floors' worth run as one piece, however small the
        pieces are asked to be."""
        monkeypatch.setattr(kernel, "_PIECE_ROWS", 1)
        assert len(kernel._row_pieces(batch, 32)) == 1

    @pytest.mark.parametrize("width", [4, 8, 9])
    def test_narrow_calls_do_not_split(self, monkeypatch, width):
        """A row block of ``dz @ W.T`` with this many output columns rounds
        differently from the whole batch's, so such calls run as one piece."""
        monkeypatch.setattr(kernel, "_PIECE_ROWS", kernel._MIN_PIECE_ROWS)
        assert len(kernel._row_pieces(1024, 32)) == 8
        assert len(kernel._row_pieces(1024, width)) == 1
