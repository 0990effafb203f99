"""Neural-network layers on top of the autograd engine.

Implements exactly the components Algorithm 1 of the paper requires:
``Embedding`` (the node-embedding table ``e_v``), ``Linear`` (the readout
``W·[H||e_x]``), ``LSTM``/``StackedLSTM`` (the two aggregators) and
``BatchNorm1d`` (the BN of lines 4 and 6).
"""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.tensor import Tensor, apply_op, concat
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive


class Module:
    """Base class: parameter discovery, grad clearing, train/eval mode."""

    def __init__(self) -> None:
        self.training = True

    def parameters(self) -> list[Tensor]:
        """All trainable tensors of this module and its submodules."""
        params: list[Tensor] = []
        seen: set[int] = set()
        for value in self.__dict__.values():
            for p in _collect(value):
                if id(p) not in seen:
                    seen.add(id(p))
                    params.append(p)
        return params

    def modules(self) -> list["Module"]:
        """This module and all nested submodules."""
        found: list[Module] = [self]
        for value in self.__dict__.values():
            found.extend(_collect_modules(value))
        return found

    def zero_grad(self) -> None:
        """Clear gradients of every parameter."""
        for p in self.parameters():
            p.zero_grad()

    def train(self) -> "Module":
        """Switch to training mode (affects BatchNorm)."""
        for m in self.modules():
            m.training = True
        return self

    def eval(self) -> "Module":
        """Switch to inference mode."""
        for m in self.modules():
            m.training = False
        return self

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return sum(p.data.size for p in self.parameters())


def _collect(value) -> list[Tensor]:
    if isinstance(value, Tensor) and value.requires_grad:
        return [value]
    if isinstance(value, Module):
        return value.parameters()
    if isinstance(value, (list, tuple)):
        out: list[Tensor] = []
        for item in value:
            out.extend(_collect(item))
        return out
    return []


def _collect_modules(value) -> list["Module"]:
    if isinstance(value, Module):
        return value.modules()
    if isinstance(value, (list, tuple)):
        out: list[Module] = []
        for item in value:
            out.extend(_collect_modules(item))
        return out
    return []


class Linear(Module):
    """Affine map ``y = x W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng=None,
        dtype=np.float64,
    ):
        super().__init__()
        check_positive("in_features", in_features)
        check_positive("out_features", out_features)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = init.xavier_uniform((in_features, out_features), rng, dtype=dtype)
        self.bias = init.zeros((out_features,), dtype=dtype) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Embedding(Module):
    """Lookup table of node embeddings ``e_v``.

    The default initialization bound ``1/sqrt(dim)`` gives roughly unit-norm
    rows, so Euclidean distances between fresh embeddings are O(1) — the
    regime the attention (Eq. 3/4) and margin loss (Eq. 5-7) operate in.
    (word2vec-style models instead want the tiny ``0.5/dim`` bound; pass it
    via ``bound``.)
    """

    def __init__(
        self,
        num_embeddings: int,
        dim: int,
        rng=None,
        bound: float | None = None,
        dtype=np.float64,
    ):
        super().__init__()
        check_positive("num_embeddings", num_embeddings)
        check_positive("dim", dim)
        self.num_embeddings = num_embeddings
        self.dim = dim
        if bound is None:
            bound = 1.0 / np.sqrt(dim)
        self.weight = init.uniform((num_embeddings, dim), -bound, bound, rng, dtype=dtype)

    def __call__(self, indices) -> Tensor:
        # Narrowed (int32) walk-batch ids index directly; anything else is
        # normalized to int64 first.
        indices = np.asarray(indices)
        if indices.dtype.kind != "i":
            indices = indices.astype(np.int64)
        return self.weight[indices]


class LSTM(Module):
    """Single-layer LSTM over a list of per-step batches.

    ``forward(steps, mask)`` takes ``steps`` as a list of ``(B, D)`` tensors
    and an optional ``(T, B)`` 0/1 mask; masked steps carry the previous
    state through unchanged, which is how variable-length temporal walks are
    batched.  Gate order is input, forget, cell, output; the forget-gate bias
    starts at 1 (standard remedy for vanishing memory).
    """

    def __init__(self, input_size: int, hidden_size: int, rng=None, dtype=np.float64):
        super().__init__()
        check_positive("input_size", input_size)
        check_positive("hidden_size", hidden_size)
        rng = ensure_rng(rng)
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.dtype = np.dtype(dtype)
        self.w_ih = init.xavier_uniform((input_size, 4 * hidden_size), rng, dtype=dtype)
        self.w_hh = init.xavier_uniform((hidden_size, 4 * hidden_size), rng, dtype=dtype)
        bias = np.zeros(4 * hidden_size, dtype=dtype)
        bias[hidden_size : 2 * hidden_size] = 1.0  # forget gate
        self.bias = Tensor(bias, requires_grad=True)

    def step(self, x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
        """One LSTM step for inputs ``x`` (B, D) and state ``(h, c)``."""
        hs = self.hidden_size
        z = x @ self.w_ih + h @ self.w_hh + self.bias
        i = z[:, 0:hs].sigmoid()
        f = z[:, hs : 2 * hs].sigmoid()
        g = z[:, 2 * hs : 3 * hs].tanh()
        o = z[:, 3 * hs : 4 * hs].sigmoid()
        c_new = f * c + i * g
        h_new = o * c_new.tanh()
        return h_new, c_new

    def __call__(self, steps, mask=None) -> tuple[list[Tensor], Tensor]:
        """Run the full sequence; returns (per-step outputs, final hidden)."""
        if not steps:
            raise ValueError("LSTM needs at least one input step")
        batch = steps[0].shape[0]
        h = Tensor(np.zeros((batch, self.hidden_size), dtype=self.dtype))
        c = Tensor(np.zeros((batch, self.hidden_size), dtype=self.dtype))
        outputs: list[Tensor] = []
        for t, x in enumerate(steps):
            h_new, c_new = self.step(x, h, c)
            if mask is not None:
                m = Tensor(np.asarray(mask[t], dtype=self.dtype).reshape(batch, 1))
                h = m * h_new + (1.0 - m) * h
                c = m * c_new + (1.0 - m) * c
            else:
                h, c = h_new, c_new
            outputs.append(h)
        return outputs, h


class StackedLSTM(Module):
    """Multi-layer LSTM — the paper's aggregator (2 layers by default).

    :meth:`fused` is the model's path: it runs the recurrence through
    :func:`fused_stacked_lstm` — a single autograd node with a hand-derived
    BPTT backward.  ``__call__`` is the stepwise test oracle (one autograd
    node per op per timestep per layer) that ``tests/nn/test_fused_lstm.py``
    checks the kernel against, gradchecks included.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        num_layers: int = 2,
        rng=None,
        dtype=np.float64,
    ):
        super().__init__()
        check_positive("num_layers", num_layers)
        rng = ensure_rng(rng)
        self.layers = [
            LSTM(input_size if i == 0 else hidden_size, hidden_size, rng, dtype=dtype)
            for i in range(num_layers)
        ]

    def __call__(self, steps, mask=None) -> tuple[list[Tensor], Tensor]:
        """Feed the sequence through every layer; final hidden is the summary."""
        outputs = steps
        final = None
        for layer in self.layers:
            outputs, final = layer(outputs, mask=mask)
        return outputs, final

    def fused(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        """Final hidden state via the single-node fused BPTT kernel.

        ``x`` is the whole sequence as one ``(B, T, D)`` tensor and ``mask``
        an optional ``(B, T)`` 0/1 validity array; equivalent to
        ``self([x[:, t] for t in range(T)], mask.T)[1]`` step for step.
        """
        return fused_stacked_lstm(x, self.layers, mask=mask)


#: Fewest rows one piece of a row-split :func:`fused_stacked_lstm` call may
#: hold.  A GEMM over a block of at least this many rows rounds each row
#: exactly as the whole-batch GEMM does, while small blocks take other BLAS
#: paths (a 1-row piece, or B = 64 and 100 cut into 32-50-row pieces, round
#: differently).
_MIN_PIECE_ROWS = 128

#: Narrowest input and hidden size whose calls split.  A row block of the
#: backward ``dz @ W.T`` GEMM with 9 or fewer output columns (4, 8 and 9
#: measured) rounds differently from the whole-batch GEMM; 10-48 agree.
_MIN_SPLIT_WIDTH = 16

#: Most rows a piece holds.  At D = H = 32 an up-to-240-row step GEMM takes
#: OpenBLAS's small-matrix path, about twice as fast per row as the 790-row
#: GEMM of a whole training batch, and the piece's tapes and scratch stay in
#: L2 cache through a step.
_PIECE_ROWS = 240


def _row_pieces(batch: int, width: int) -> list[slice]:
    """Contiguous row slices of at most ``_PIECE_ROWS`` rows where the floor
    allows, none under ``_MIN_PIECE_ROWS``; one slice when ``width`` (the
    narrower of input and hidden size) is under ``_MIN_SPLIT_WIDTH``."""
    count = 1 if width < _MIN_SPLIT_WIDTH else -(-batch // _PIECE_ROWS)
    count = max(1, min(count, batch // _MIN_PIECE_ROWS))
    bounds = [batch * k // count for k in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def fused_stacked_lstm(x: Tensor, layers: list[LSTM], mask: np.ndarray | None = None) -> Tensor:
    """Masked multi-layer LSTM as **one** autograd node.

    Forward runs the full recurrence in a plain numpy loop (per-step matmuls
    in the same order as :meth:`LSTM.step`, so outputs match the stepwise
    reference bit for bit) while recording the gate activations and carried
    states; backward is a hand-derived backpropagation-through-time sweep —
    layers top-down, timesteps in reverse — that accumulates gradients for
    the input and every weight in a handful of array ops per step instead of
    a long chain of per-op closures.

    Rows (walks) are independent in both sweeps.  A call with at least
    ``2 * _MIN_PIECE_ROWS`` rows, and input and hidden sizes of at least
    ``_MIN_SPLIT_WIDTH``, runs them as contiguous pieces of at most
    ``_PIECE_ROWS`` rows, one after another, so each step GEMM stays on the
    small-matrix BLAS path.  The weight gradients, which sum over every row,
    run after each layer's sweep over the whole batch, accumulating in the
    sweep's step order through one ``dz`` tape.  Every value therefore comes
    from the same operations in the same order whatever the piece count, and
    the two floors keep each piece's GEMMs rounding as the whole batch's do.

    Gates are computed with weight columns permuted to ``[i, f, o | g]`` and
    taped gate-major, so one in-place sigmoid covers three gates and every
    per-step operation reads and writes contiguous blocks.

    Parameters
    ----------
    x:
        ``(B, T, D)`` input sequence (``D`` = input size of ``layers[0]``).
    layers:
        The :class:`LSTM` layers, applied bottom to top; layer ``l``'s
        per-step *carried* outputs feed layer ``l + 1``.
    mask:
        Optional ``(B, T)`` 0/1 array; masked steps carry ``(h, c)`` through
        unchanged in every layer, exactly like the stepwise path.  An
        all-ones mask runs as no mask.

    Returns the final carried hidden state of the top layer, ``(B, H)``.
    """
    if x.ndim != 3:
        raise ValueError(f"fused LSTM expects (B, T, D) input, got {x.shape}")
    batch, steps, _ = x.shape
    real = x.data.dtype  # the policy dtype threads through every buffer
    if mask is not None:
        mask = np.asarray(mask, dtype=real)
        if mask.shape != (batch, steps):
            raise ValueError(
                f"mask shape {mask.shape} must be (B, T) = {(batch, steps)}"
            )
        if mask.all():
            mask = None  # all steps valid: the blend would be the identity

    hs = layers[0].hidden_size
    n_layers = len(layers)
    pieces = _row_pieces(batch, min(x.shape[2], hs))
    if mask is None:
        m_col = m_inv = None
    else:
        m_col = np.ascontiguousarray(mask.T).reshape(steps, batch, 1)
        m_inv = 1.0 - m_col

    # Forward weights with the gate columns in [i, f, o | g] order, so one
    # sigmoid covers three gates.  The copies must be C-contiguous: a
    # column-permuted view is F-ordered, which BLAS rounds differently.
    perm = np.r_[0 : 2 * hs, 3 * hs : 4 * hs, 2 * hs : 3 * hs]
    fwd_weights = [
        (
            np.array(layer.w_ih.data[:, perm], order="C"),
            np.array(layer.w_hh.data[:, perm], order="C"),
            layer.bias.data[perm],
        )
        for layer in layers
    ]
    # Per-layer forward tapes for the backward sweep.
    tape_x: list[np.ndarray] = []  # (T, B, D_l) inputs of each layer
    tape_gates: list[np.ndarray] = []  # (T, 4, B, H) gates, gate-major [i, f, o, g]
    tape_tc: list[np.ndarray] = []  # (T, B, H) tanh of pre-mask cell states
    tape_carry_h: list[np.ndarray] = []  # (T, B, H) carried hidden states
    tape_carry_c: list[np.ndarray] = []  # (T, B, H) carried cell states
    inp = np.ascontiguousarray(np.swapaxes(x.data, 0, 1))  # (T, B, D)
    for _ in layers:
        tape_x.append(inp)
        tape_gates.append(np.empty((steps, 4, batch, hs), dtype=real))
        tape_tc.append(np.empty((steps, batch, hs), dtype=real))
        tape_carry_c.append(np.empty((steps, batch, hs), dtype=real))
        inp = np.empty((steps, batch, hs), dtype=real)
        tape_carry_h.append(inp)  # carried outputs feed the next layer

    def forward_piece(rows: slice) -> None:
        n = rows.stop - rows.start
        z = np.empty((n, 4 * hs), dtype=real)
        zh = np.empty_like(z)
        work = (np.empty((3, n, hs), dtype=real), np.empty((3, n, hs), dtype=bool))
        buf = np.empty((n, hs), dtype=real)
        c_new = np.empty((n, hs), dtype=real)
        zero = np.zeros((n, hs), dtype=real)
        for li in range(n_layers):
            w_ih, w_hh, bias = fwd_weights[li]
            xs, gates, tc_seq = tape_x[li], tape_gates[li], tape_tc[li]
            h_seq, c_seq = tape_carry_h[li], tape_carry_c[li]
            h = c = zero
            for t in range(steps):
                # Same association order as LSTM.step: (x@Wih + h@Whh) + bias.
                np.matmul(xs[t, rows], w_ih, out=z)
                np.matmul(h, w_hh, out=zh)
                z += zh
                z += bias
                gz = gates[t, :, rows]
                np.copyto(gz, z.reshape(n, 4, hs).transpose(1, 0, 2))
                _sigmoid(gz[:3], gz[:3], work)  # i, f, o
                np.tanh(gz[3], out=gz[3])
                i, f, o, g = gz
                h_t, c_t, tc = h_seq[t, rows], c_seq[t, rows], tc_seq[t, rows]
                if m_col is None:
                    np.multiply(f, c, out=c_t)  # (f*c) + (i*g)
                    np.multiply(i, g, out=buf)
                    c_t += buf
                    np.tanh(c_t, out=tc)
                    np.multiply(o, tc, out=h_t)
                else:
                    m, m_skip = m_col[t, rows], m_inv[t, rows]
                    np.multiply(f, c, out=c_new)
                    np.multiply(i, g, out=buf)
                    c_new += buf
                    np.tanh(c_new, out=tc)
                    np.multiply(o, tc, out=buf)  # pre-mask h
                    np.multiply(m, buf, out=h_t)
                    np.multiply(m_skip, h, out=buf)
                    h_t += buf
                    np.multiply(m, c_new, out=c_t)
                    np.multiply(m_skip, c, out=buf)
                    c_t += buf
                h, c = h_t, c_t

    for rows in pieces:
        forward_piece(rows)
    final = tape_carry_h[-1][steps - 1]

    def backward(g_final: np.ndarray) -> None:
        # One dz tape, (T, B, 4H) in the weights' [i, f, g, o] order, reused
        # by every layer: the sweep fills it, the weight gradients read it.
        dz = np.empty((steps, batch, 4 * hs), dtype=real)

        def sweep_piece(li: int, d_out, d_in: np.ndarray, rows: slice) -> None:
            # d_out[t]: gradient on layer li's carried output h_t from the
            # layer above; None for the top layer, whose only downstream
            # gradient is g_final on the final carried state.
            layer = layers[li]
            w_ih, w_hh = layer.w_ih.data, layer.w_hh.data
            gates, tc_seq, c_seq = tape_gates[li], tape_tc[li], tape_carry_c[li]
            n = rows.stop - rows.start
            dh = np.zeros((n, hs), dtype=real)  # recurrent grad on carried h_t
            dc = np.zeros((n, hs), dtype=real)  # recurrent grad on carried c_t
            # Scratch reused across steps; every slot is fully rewritten
            # before it is read, and every in-place chain keeps the stepwise
            # reference's left-to-right association.
            prod = np.empty((4, n, hs), dtype=real)  # gate-major dz, [i, f, g, o]
            om = np.empty((4, n, hs), dtype=real)  # its derivative factors
            buf = np.empty((n, hs), dtype=real)
            om_tc2 = np.empty((n, hs), dtype=real)
            if m_col is not None:
                dh_new = np.empty((n, hs), dtype=real)
                dc_new = np.empty((n, hs), dtype=real)
                dh_skip = np.empty((n, hs), dtype=real)
                dc_skip = np.empty((n, hs), dtype=real)
            for t in range(steps - 1, -1, -1):
                if d_out is not None:
                    dh += d_out[t, rows]
                    dh_total = dh
                elif t == steps - 1:
                    dh_total = g_final[rows]
                else:
                    dh_total = dh
                if m_col is not None:
                    m, m_skip = m_col[t, rows], m_inv[t, rows]
                    np.multiply(m, dh_total, out=dh_new)
                    np.multiply(m_skip, dh_total, out=dh_skip)
                    np.multiply(m, dc, out=dc_new)
                    np.multiply(m_skip, dc, out=dc_skip)
                else:
                    dh_new, dc_new = dh_total, dc
                gz = gates[t, :, rows]
                i, f, o, g = gz
                tc = tc_seq[t, rows]
                np.multiply(dh_new, tc, out=prod[3])  # do
                # dc_new += ((dh_new * o) * (1 - tc*tc)), left to right
                np.multiply(dh_new, o, out=buf)
                np.multiply(tc, tc, out=om_tc2)
                np.subtract(1.0, om_tc2, out=om_tc2)
                buf *= om_tc2
                dc_new += buf
                # dz per gate: ((dc*g)*i)*(1-i), ((dc*c_prev)*f)*(1-f),
                # (dc*i)*(1-g*g) and (do*o)*(1-o).
                np.multiply(dc_new, g, out=prod[0])
                np.multiply(dc_new, c_seq[t - 1, rows] if t > 0 else 0.0, out=prod[1])
                np.multiply(dc_new, i, out=prod[2])
                prod[:2] *= gz[:2]
                prod[3] *= o
                np.subtract(1.0, gz[:2], out=om[:2])
                np.multiply(g, g, out=om[2])
                np.subtract(1.0, om[2], out=om[2])
                np.subtract(1.0, o, out=om[3])
                prod *= om
                dz_t = dz[t, rows]
                np.copyto(dz_t.reshape(n, 4, hs), prod.transpose(1, 0, 2))
                np.matmul(dz_t, w_ih.T, out=d_in[t, rows])
                np.matmul(dz_t, w_hh.T, out=dh)
                np.multiply(dc_new, f, out=dc)
                if m_col is not None:
                    dh += dh_skip
                    dc += dc_skip

        d_out = None
        for li in range(n_layers - 1, -1, -1):
            layer = layers[li]
            d_in = np.empty_like(tape_x[li])
            for rows in pieces:
                sweep_piece(li, d_out, d_in, rows)
            xs, h_seq = tape_x[li], tape_carry_h[li]
            params = [layer.w_ih, layer.w_hh, layer.bias]
            grads = [np.zeros_like(p.data) if p.requires_grad else None for p in params]
            d_w_ih, d_w_hh, d_bias = grads
            for t in range(steps - 1, -1, -1):  # the sweep's step order
                if d_w_ih is not None:
                    d_w_ih += xs[t].T @ dz[t]
                if d_w_hh is not None and t > 0:
                    d_w_hh += h_seq[t - 1].T @ dz[t]
                if d_bias is not None:
                    d_bias += dz[t].sum(axis=0)
            for param, grad in zip(params, grads):
                if grad is not None:
                    param._accumulate(grad)
            d_out = d_in  # becomes the layer below's per-step output grad
        if x.requires_grad:
            x._accumulate(np.swapaxes(d_out, 0, 1))

    parents = [x]
    for layer in layers:
        parents.extend([layer.w_ih, layer.w_hh, layer.bias])
    return apply_op(final, parents, backward)


def _sigmoid(x: np.ndarray, out: np.ndarray, work) -> np.ndarray:
    """Numerically stable logistic into ``out``, branchless; ``out`` may be
    ``x`` itself.

    Bitwise-identical to :meth:`Tensor.sigmoid` (which splits on sign with
    boolean indexing): with ``e = exp(-|x|)``, the positive branch
    ``1 / (1 + exp(-x))`` and the negative branch ``exp(x) / (1 + exp(x))``
    are both exactly ``select(x >= 0, 1/(1+e), e/(1+e))`` — same exponent
    argument, same division — but evaluated without gather/scatter copies.
    ``work`` is a ``(real, bool)`` pair of ``x``-shaped scratch arrays, so a
    caller in a loop allocates nothing.
    """
    e, sign = work
    np.abs(x, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.greater_equal(x, 0, out=sign)  # x is fully read before out is written
    # select(x >= 0, 1, e) without a broadcast select: e <= 1, so the max of
    # the 0/1 sign indicator and e is 1 where x >= 0 and e elsewhere (NaN
    # propagates through np.maximum like it does through the select).
    np.maximum(sign, e, out=out)
    e += 1.0  # e becomes the shared denominator
    np.divide(out, e, out=out)
    return out


class BatchNorm1d(Module):
    """Batch normalization over feature vectors (B, D).

    Uses batch statistics and updates running averages in training mode;
    uses the running averages at inference, as in Ioffe & Szegedy [33].
    """

    def __init__(
        self,
        num_features: int,
        momentum: float = 0.1,
        eps: float = 1e-5,
        dtype=np.float64,
    ):
        super().__init__()
        check_positive("num_features", num_features)
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = init.ones((num_features,), dtype=dtype)
        self.beta = init.zeros((num_features,), dtype=dtype)
        self.running_mean = np.zeros(num_features, dtype=dtype)
        self.running_var = np.ones(num_features, dtype=dtype)
        #: When set to a list, every training forward appends its batch
        #: ``(mean, var)`` here.  The data-parallel trainer uses this to
        #: replay a shard's running-average updates on the leader — a log
        #: (not a single capture) because one training step may run this
        #: layer more than once (temporal and static aggregation parts).
        self.stats_log: list | None = None

    def __call__(self, x: Tensor) -> Tensor:
        if x.ndim != 2 or x.shape[1] != self.num_features:
            raise ValueError(
                f"expected input of shape (B, {self.num_features}), got {x.shape}"
            )
        if self.training:
            mean = x.mean(axis=0, keepdims=True)
            centered = x - mean
            var = (centered * centered).mean(axis=0, keepdims=True)
            if self.stats_log is not None:
                self.stats_log.append((mean.data.ravel(), var.data.ravel()))
            self.running_mean = (
                (1 - self.momentum) * self.running_mean
                + self.momentum * mean.data.ravel()
            )
            self.running_var = (
                (1 - self.momentum) * self.running_var
                + self.momentum * var.data.ravel()
            )
            inv = (var + self.eps) ** -0.5
            normalized = centered * inv
        else:
            mean = Tensor(self.running_mean.reshape(1, -1))
            inv = Tensor(1.0 / np.sqrt(self.running_var + self.eps).reshape(1, -1))
            normalized = (x - mean) * inv
        return normalized * self.gamma + self.beta


class Sequential(Module):
    """Feed-forward composition of layers/callables."""

    def __init__(self, *layers):
        super().__init__()
        self.layers = list(layers)

    def __call__(self, x):
        for layer in self.layers:
            x = layer(x)
        return x


__all__ = [
    "Module",
    "Linear",
    "Embedding",
    "LSTM",
    "StackedLSTM",
    "BatchNorm1d",
    "Sequential",
    "concat",
]
