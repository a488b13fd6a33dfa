import math

import numpy as np
import pytest

import ksenergy.ks
from ksenergy import EnergyConfig, build_grid, ks_energy, make_map, make_space
from ksenergy.errors import ConfigError, NonFiniteResultError, UnsupportedDimensionError
from ksenergy.ks import _oscillates, approx_density_field
from ksenergy.quadrature import energy_normalization

MAXNORM_DENSITY = (2.0 + math.pi) / (2.0 * math.pi)


def _density(metric_map, x, h, cfg):
    """e_h at the single interior point x."""
    return float(approx_density_field(metric_map, x[None], h, cfg)[0])


class TestApproxDensity:
    def test_constant_map_is_zero(self, cfg_small):
        space = make_space("euclidean:2")
        m = make_map("constant", space, 2)
        assert _density(m, np.array([0.5, 0.5]), 0.01, cfg_small) == 0.0

    def test_identity_density_is_one(self, cfg_small):
        # c_{2,2} * integral over the ball of |v|^2 = 1 exactly; the radial
        # rule is exact on r^3 and the angle rule on degree-2 trig
        m = make_map("identity", make_space("euclidean:2"), 2)
        val = _density(m, np.array([0.5, 0.5]), 0.025, cfg_small)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_max_norm_density_and_h_independence(self, cfg_small):
        m = make_map("identity", make_space("max_norm_plane"), 2)
        vals = [
            _density(m, np.array([0.5, 0.5]), h, cfg_small)
            for h in (0.05, 0.025, 0.0125)
        ]
        assert vals[0] == pytest.approx(MAXNORM_DENSITY, abs=5e-4)
        # increments scale exactly linearly in h, so e_h is h-independent
        assert max(vals) - min(vals) < 1e-13

    def test_winding_density(self, cfg_small):
        m = make_map("winding:2", make_space("circle"), 2)
        val = _density(m, np.array([0.5, 0.5]), 0.02, cfg_small)
        assert val == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_identity_density_one_for_every_p(self, p):
        # the (n + p) / (n omega_n) normalization makes the identity density 1
        cfg = EnergyConfig(p=p, h_count=3)
        m = make_map("identity", make_space("euclidean:2"), 2)
        val = _density(m, np.array([0.375, 0.625]), 0.02, cfg)
        assert val == pytest.approx(1.0, abs=1e-8)


def _untiled_density(metric_map, points, h, cfg):
    """e_h with every row in one block: broadcast ball points, one node batch after another."""
    rule = cfg.ball_rule(points.shape[1])
    base = metric_map.eval(points)[:, None, :]
    acc = np.zeros(points.shape[0])
    step = ksenergy.ks.node_chunk
    for b0 in range(0, rule.nodes.shape[0], step):
        x = points[:, None, :] + h * rule.nodes[None, b0 : b0 + step]
        acc += metric_map.target.distance(metric_map.eval(x), base, cfg.p) @ rule.weights[b0 : b0 + step]
    return energy_normalization(points.shape[1], cfg.p) * acc / h**cfg.p


@pytest.mark.parametrize(
    "map_spec,space_spec,box,p,ball_order",
    [
        # 841 eroded nodes: chunks of 512 and 329 rows; 200 ball nodes: a 72-node last batch
        ("swirl:0.3", "euclidean:2", 33, 1.5, (5, 40)),
        ("qsplit", "q:2:1", 33, 3.0, None),
        ("identity", "max_norm_plane", 33, 2.5, (5, 40)),
        ("linear:1,0.5,0;0.25,2,0.1;0,0.3,1", "euclidean:3", 8, 3.0, None),
    ],
)
def test_tiles_never_change_bits(monkeypatch, map_spec, space_spec, box, p, ball_order):
    """row_block 128, 256 and 512, at workers 1 and 2, give the one-block sum bit for bit.

    The masks are no multiple of 128, so chunks end in partial tiles. The
    equality is an assumption about the BLAS, not a guarantee: each tile
    ends in a dgemv, and a row's dot product must round the same wherever
    the row sits in its matrix. OpenBLAS's Haswell kernels sum rows in
    groups of 4, and the last (rows mod 4) with another kernel, so tiles
    that start at multiples of 128 keep every row's sum there. At 37 rows
    only the last bits may differ.
    """
    n = 3 if space_spec == "euclidean:3" else 2
    grid = build_grid([0.0] * n, [1.0] * n, [box] * n)
    m = make_map(map_spec, make_space(space_spec), n)
    points = grid.nodes[grid.inner_mask(0.05)]
    want = _untiled_density(m, points, 0.025, EnergyConfig(p=p, ball_order=ball_order))
    for row_block in (128, 256, 512, 37):
        monkeypatch.setattr(ksenergy.ks, "row_block", row_block)
        for workers in (1, 2):
            cfg = EnergyConfig(p=p, ball_order=ball_order, workers=workers)
            got = approx_density_field(m, points, 0.025, cfg)
            if row_block % 128:
                np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
            else:
                assert np.array_equal(got, want), (row_block, workers)


@pytest.mark.parametrize("space_spec", ["euclidean:2", "max_norm_plane"])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_distance_overflow_is_non_finite_error(space_spec, p):
    m = make_map("linear:1e300,0;0,1", make_space(space_spec), 2)
    with pytest.raises(NonFiniteResultError):
        approx_density_field(m, np.array([[0.5, 0.5]]), 0.025, EnergyConfig(p=p, ball_order=(4, 16)))


class TestKsEnergy:
    def test_constant_map_zero_energy(self, unit_grid_16, cfg_small):
        m = make_map("constant", make_space("euclidean:2"), 2)
        rep = ks_energy(m, unit_grid_16, cfg_small)
        assert rep.ks_energy == 0.0
        assert rep.localization_deficit == 0.0

    def test_identity_energy_matches_mask_measure(self, unit_grid_32, cfg_small):
        m = make_map("identity", make_space("euclidean:2"), 2)
        rep = ks_energy(m, unit_grid_32, cfg_small)
        assert rep.ks_energy == pytest.approx(rep.mask_measure, rel=1e-10)
        # grid mask measure tracks the exact eroded box up to one cell ring
        assert abs(rep.mask_measure - rep.inner_measure_exact) < 4 * 4 * np.min(unit_grid_32.spacing)
        assert rep.localization_deficit <= (rep.domain_measure - rep.mask_measure) * 1.0 + 1e-12
        assert rep.ks_order == 0.0  # exactly h-independent

    def test_winding_energy(self, unit_grid_32, cfg_small):
        m = make_map("winding:2", make_space("circle"), 2)
        rep = ks_energy(m, unit_grid_32, cfg_small)
        assert rep.ks_energy == pytest.approx(2.0 * rep.mask_measure, rel=1e-12)

    def test_h_integral_column_constant_for_linear(self, unit_grid_16, cfg_small):
        m = make_map("linear:1,0;0,2", make_space("euclidean:2"), 2)
        rep = ks_energy(m, unit_grid_16, cfg_small)
        assert max(rep.h_integrals) - min(rep.h_integrals) < 1e-12 * max(rep.h_integrals)

    def test_monotone_localization(self, unit_grid_32):
        """Growing h0 shrinks the integration region, never raising energy."""
        m = make_map("identity", make_space("euclidean:2"), 2)
        cfg = EnergyConfig(h0=0.08, h_count=3, ball_order=(8, 64))  # h = 0.04, 0.02, 0.01
        energies = []
        for h0 in (0.05, 0.1, 0.2):
            energies.append(ks_energy(m, unit_grid_32, cfg, mask=unit_grid_32.inner_mask(h0)).ks_energy)
        assert energies[0] >= energies[1] >= energies[2]

    def test_ball_rule_exactness_linear_p2(self, cfg_small):
        a = np.array([[1.0, 0.5], [0.25, 2.0]])
        m = make_map("linear:1,0.5;0.25,2", make_space("euclidean:2"), 2)
        val = _density(m, np.array([0.5, 0.5]), 0.02, cfg_small)
        assert val == pytest.approx(np.sum(a * a) / 2.0, abs=1e-12)

    def test_empty_mask_flagged(self):
        g = build_grid([0, 0], [1, 1], [8, 8])
        m = make_map("identity", make_space("euclidean:2"), 2)
        cfg = EnergyConfig(h0=0.49, h_count=3, ball_order=(4, 16))
        with pytest.warns(Warning):
            rep = ks_energy(m, g, cfg)
        assert "empty_mask" in rep.warnings
        assert rep.ks_energy == 0.0


class TestDensityLimit:
    def test_identity_field_is_one(self, unit_grid_16, cfg_small):
        m = make_map("identity", make_space("euclidean:2"), 2)
        rep = ks_energy(m, unit_grid_16, cfg_small)
        idx, dens = rep.mask_indices, rep.ks_density
        assert len(idx) > 0
        assert np.max(np.abs(dens - 1.0)) < 1e-9

    def test_max_norm_field(self, unit_grid_16, cfg_small):
        m = make_map("identity", make_space("max_norm_plane"), 2)
        dens = ks_energy(m, unit_grid_16, cfg_small).ks_density
        assert np.max(np.abs(dens - MAXNORM_DENSITY)) < 5e-4

    def test_constant_field_zero(self, unit_grid_16, cfg_small):
        m = make_map("constant", make_space("q:2:1"), 2)
        dens = ks_energy(m, unit_grid_16, cfg_small).ks_density
        assert np.all(dens == 0.0)

    def test_nonnegative_everywhere(self, unit_grid_16, cfg_small):
        m = make_map("swirl:0.4", make_space("euclidean:2"), 2)
        dens = ks_energy(m, unit_grid_16, cfg_small).ks_density
        assert np.all(dens >= 0.0)


def test_oscillation_detector():
    assert _oscillates(np.array([1.0, 1.2, 1.1, 1.3]))
    assert not _oscillates(np.array([1.3, 1.2, 1.1, 1.05]))
    assert not _oscillates(np.array([2.0, 2.0, 2.0]))


def test_config_validation():
    with pytest.raises(ConfigError):
        EnergyConfig(p=0.5)
    with pytest.raises(ConfigError):
        EnergyConfig(h0=-0.1)
    with pytest.raises(ConfigError):
        EnergyConfig(dense_count=0)


@pytest.mark.parametrize("order", [(8,), 8, (8, 16, 4), (0, 16), (8, 0), (8, (4,)), (8, (4, 0)), (8, (4, 8, 2)),
                                   (8.0, 16), (True, 16), (np.int64(8), 16), "8,16", (8, None)])
def test_ball_order_rejects_anything_but_a_radial_angular_pair(order):
    with pytest.raises(ConfigError):
        EnergyConfig(ball_order=order)


@pytest.mark.parametrize("settings, error", [
    (dict(sphere_order=(16,)), ConfigError),
    (dict(sphere_order="abc"), ConfigError),
    (dict(sphere_order=16.5), ConfigError),
    (dict(sphere_order=True), ConfigError),
    (dict(sphere_order=(16, 32)), UnsupportedDimensionError),
    (dict(ball_order=(8, (4, 8))), UnsupportedDimensionError),
])
def test_malformed_angular_orders_raise_structured_errors(settings, error):
    """A malformed sphere_order is a ConfigError; an (azimuth, polar) pair on a 2-d rule an UnsupportedDimensionError."""
    with pytest.raises(error):
        cfg = EnergyConfig(**settings)
        cfg.sphere_rule(2)
        cfg.ball_rule(2)


def test_ball_order_takes_a_3d_angular_pair():
    cfg = EnergyConfig(ball_order=(8, (4, 8)))
    assert cfg.ball_rule(3).nodes.shape == (8 * 4 * 8, 3)
    assert cfg.to_dict()["ball_order"] == [8, (4, 8)]
    assert EnergyConfig(ball_order=[8, 16]).ball_rule(2).nodes.shape == (8 * 16, 2)


def test_boundary_knob_values_are_accepted():
    assert EnergyConfig(refine=False).to_dict()["refine"] is False


@pytest.mark.parametrize("map_spec, space_spec, n", [
    ("linear:1,0;0,2", "euclidean:2", 2),
    ("linear:1,0.5;0.25,2", "max_norm_plane", 2),
    ("linear:1,0.5,0;0,2,0.25;0.3,0,1", "euclidean:3", 3),
])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_affine_energy_is_the_angular_rule_sum(map_spec, space_spec, n, p):
    """On an affine map the KS energy per unit mask measure is the ball's angular sum, sum_w s_w |A w|^p, within 1e-13.

    The Gauss-Jacobi radii carry r^(n-1+p) in their weights, so the radial
    integral of (h r |A w|)^p is exact with any number of radii
    (Gauss-Legendre radii for r^(n-1) read 1.7e-9 high at p = 1.5).
    """
    grid = build_grid([0.0] * n, [1.0] * n, [16 if n == 2 else 8] * n)
    m = make_map(map_spec, make_space(space_spec), n)
    cfg = EnergyConfig(p=p, h_count=3)
    ks = ks_energy(m, grid, cfg)
    rule = cfg.ball_angular_rule(n)
    want = rule.weights @ m.target.distance(m.eval(rule.nodes), m.eval(np.zeros_like(rule.nodes)), p)
    assert ks.mask_measure > 0
    assert ks.ks_energy / ks.mask_measure == pytest.approx(want, rel=1e-13, abs=0)
