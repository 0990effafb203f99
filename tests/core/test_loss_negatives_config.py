"""Tests for the margin loss (Eq. 5-7), negative sampler, and config."""

import numpy as np
import pytest

from repro.core import EHNAConfig, NegativeSampler, margin_hinge_loss
from repro.graph import TemporalGraph
from repro.nn import Tensor, check_gradients


def unit_rows(data):
    arr = np.asarray(data, dtype=np.float64)
    return arr / np.linalg.norm(arr, axis=-1, keepdims=True)


class TestMarginLoss:
    def test_zero_when_negatives_far_and_margin_zero(self):
        z = Tensor(unit_rows([[1.0, 0.0]]))
        zy = Tensor(unit_rows([[1.0, 0.0]]))  # d_pos = 0
        zn = Tensor(unit_rows([[-1.0, 0.0]]).reshape(1, 1, 2))  # d_neg = 4
        loss = margin_hinge_loss(z, zy, zn, margin=0.0)
        assert loss.item() == 0.0

    def test_hinge_active_when_violated(self):
        z = Tensor(unit_rows([[1.0, 0.0]]))
        zy = Tensor(unit_rows([[-1.0, 0.0]]))  # d_pos = 4
        zn = Tensor(unit_rows([[1.0, 0.0]]).reshape(1, 1, 2))  # d_neg = 0
        loss = margin_hinge_loss(z, zy, zn, margin=1.0)
        assert loss.item() == pytest.approx(5.0)

    def test_bidirectional_adds_second_term(self):
        rng = np.random.default_rng(0)
        z_x = Tensor(unit_rows(rng.normal(size=(3, 4))))
        z_y = Tensor(unit_rows(rng.normal(size=(3, 4))))
        zn = Tensor(unit_rows(rng.normal(size=(3, 2, 4))))
        uni = margin_hinge_loss(z_x, z_y, zn, margin=5.0).item()
        bi = margin_hinge_loss(z_x, z_y, zn, margin=5.0, neg_y=zn).item()
        assert bi > uni

    def test_loss_non_negative(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            z_x = Tensor(unit_rows(rng.normal(size=(4, 8))))
            z_y = Tensor(unit_rows(rng.normal(size=(4, 8))))
            zn = Tensor(unit_rows(rng.normal(size=(4, 3, 8))))
            assert margin_hinge_loss(z_x, z_y, zn, margin=2.0).item() >= 0.0

    def test_mean_per_edge_scaling(self):
        """Duplicating the batch must keep the mean loss unchanged."""
        rng = np.random.default_rng(2)
        zx = unit_rows(rng.normal(size=(2, 4)))
        zy = unit_rows(rng.normal(size=(2, 4)))
        zn = unit_rows(rng.normal(size=(2, 2, 4)))
        single = margin_hinge_loss(Tensor(zx), Tensor(zy), Tensor(zn), 5.0).item()
        double = margin_hinge_loss(
            Tensor(np.tile(zx, (2, 1))),
            Tensor(np.tile(zy, (2, 1))),
            Tensor(np.tile(zn, (2, 1, 1))),
            5.0,
        ).item()
        assert double == pytest.approx(single)

    def test_shape_validation(self):
        z = Tensor(np.ones((2, 3)))
        with pytest.raises(ValueError):
            margin_hinge_loss(z, Tensor(np.ones((3, 3))), Tensor(np.ones((2, 1, 3))), 1.0)
        with pytest.raises(ValueError):
            margin_hinge_loss(z, z, Tensor(np.ones((2, 3))), 1.0)

    def test_gradcheck(self):
        rng = np.random.default_rng(3)
        z_x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        z_y = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        zn = Tensor(rng.normal(size=(2, 2, 3)), requires_grad=True)
        worst = check_gradients(
            lambda: margin_hinge_loss(z_x, z_y, zn, margin=5.0, neg_y=zn),
            [z_x, z_y, zn],
        )
        assert worst < 1e-5


class TestNegativeSampler:
    def graph(self):
        # node 3 has very high degree
        src = np.array([0, 1, 2, 3, 3, 3, 3, 3])
        dst = np.array([1, 2, 0, 0, 1, 2, 4, 4])
        t = np.arange(8, dtype=float)
        return TemporalGraph.from_edges(src, dst, t)

    def test_degree_bias(self):
        g = self.graph()
        sampler = NegativeSampler(g)
        draws = sampler.sample((4000, 1), rng=np.random.default_rng(0)).ravel()
        freq = np.bincount(draws, minlength=g.num_nodes) / draws.size
        expected = g.degrees() ** 0.75
        expected = expected / expected.sum()
        np.testing.assert_allclose(freq, expected, atol=0.03)

    def test_excludes_endpoints(self):
        g = self.graph()
        sampler = NegativeSampler(g)
        xs = np.array([3] * 50)
        ys = np.array([0] * 50)
        out = sampler.sample((50, 4), rng=np.random.default_rng(1),
                             exclude_x=xs, exclude_y=ys)
        assert not np.any(out == 3)
        assert not np.any(out == 0)

    def test_power_zero_is_uniform_over_connected(self):
        g = self.graph()
        sampler = NegativeSampler(g, power=0.0)
        draws = sampler.sample((6000, 1), rng=np.random.default_rng(3)).ravel()
        freq = np.bincount(draws, minlength=g.num_nodes) / draws.size
        np.testing.assert_allclose(freq, 1.0 / g.num_nodes, atol=0.02)


class TestConfig:
    def test_defaults_valid(self):
        EHNAConfig().validate()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("dim", 0),
            ("num_walks", -1),
            ("walk_length", 0),
            ("p", 0.0),
            ("q", -2.0),
            ("decay", -1.0),
            ("margin", -0.1),
            ("num_negatives", 0),
            ("batch_size", 0),
            ("epochs", 0),
            ("lr", 0.0),
            ("time_eps", 0.0),
            ("network_lr", 0.0),
            ("network_lr", -1e-4),
            ("grad_clip", -1.0),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        cfg = EHNAConfig(**{field: value})
        with pytest.raises(ValueError):
            cfg.validate()

    def test_network_lr_none_is_valid(self):
        EHNAConfig(network_lr=None).validate()  # resolved to lr/20 at fit time

    def test_positive_network_lr_and_grad_clip_valid(self):
        EHNAConfig(network_lr=1e-5, grad_clip=0.5).validate()

    def test_single_level_requires_single_layer(self):
        with pytest.raises(ValueError, match="EHNA-SL"):
            EHNAConfig(two_level=False, lstm_layers=2).validate()

    def test_single_level_with_one_layer_ok(self):
        EHNAConfig(two_level=False, lstm_layers=1).validate()
