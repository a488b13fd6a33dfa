import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ksenergy import (
    EnergyConfig,
    Problem,
    check_increment_bound,
    directional_derivative,
    directional_field,
    directional_vector,
    make_map,
    make_space,
    rep_energies,
    run_convergence,
)
import ksenergy.directional
import ksenergy.parallel
from ksenergy import build_grid
from ksenergy.config import ANCHOR_EXCLUSION
from ksenergy.directional import _gradient_norms, _reduce_directions
from ksenergy.errors import ConfigError, InvalidDirectionError, StencilRangeError
from ksenergy.maps import MetricMap, _parse_matrix, eval_stencil
from ksenergy.quadrature import sphere_nodes
from ksenergy.spaces import EuclideanSpace, MetricSpace, _power

MAXNORM_DENSITY = (2.0 + math.pi) / (2.0 * math.pi)
X0 = np.array([0.40625, 0.53125])  # generic interior node of the 16^2 grid
LINEAR_3D = "linear:1,0.5,0;0,2,0.25;0.3,0,1"


class TestDirectionalDerivative:
    @pytest.mark.parametrize("theta", [0.2, 0.7, 1.2, 2.5])
    def test_max_norm_identity(self, unit_grid_16, cfg_small, theta):
        m = make_map("identity", make_space("max_norm_plane"), 2)
        nu = np.array([math.cos(theta), math.sin(theta)])
        val = directional_derivative(m, X0, nu, cfg_small, unit_grid_16)
        assert val == pytest.approx(max(abs(nu[0]), abs(nu[1])), abs=1e-9)

    def test_constant_map_zero(self, unit_grid_16, cfg_small):
        m = make_map("constant", make_space("euclidean:2"), 2)
        assert directional_derivative(m, X0, np.array([1.0, 0.0]), cfg_small, unit_grid_16) == 0.0

    @pytest.mark.parametrize("theta", [0.0, 0.9, 2.2])
    def test_linear_operator_action(self, unit_grid_16, cfg_small, theta):
        a = np.array([[1.0, 0.0], [0.0, 2.0]])
        m = make_map("linear:1,0;0,2", make_space("euclidean:2"), 2)
        nu = np.array([math.cos(theta), math.sin(theta)])
        val = directional_derivative(m, X0, nu, cfg_small, unit_grid_16)
        assert val == pytest.approx(np.linalg.norm(a @ nu), abs=5e-7)

    @pytest.mark.parametrize("map_spec, space_spec", [("swirl:0.3", "euclidean:2"), ("winding:2", "circle")])
    def test_equals_the_k_column_of_a_probed_field(self, unit_grid_16, cfg_small, map_spec, space_spec):
        """Scanning only the K prefix gives the K column of a field that also scans 2K, bit for bit."""
        m = make_map(map_spec, make_space(space_spec), 2)
        nu = np.array([0.6, 0.8])
        probed = directional_field(m, X0[None, :], nu[None, :], cfg_small, unit_grid_16)
        assert 2 * cfg_small.dense_count in probed.reduced
        assert directional_derivative(m, X0, nu, cfg_small, unit_grid_16) == probed.values[0, 0]

    def test_rejects_non_unit_direction(self, unit_grid_16, cfg_small):
        m = make_map("identity", make_space("euclidean:2"), 2)
        with pytest.raises(InvalidDirectionError):
            directional_derivative(m, X0, np.array([1.0, 1.0]), cfg_small, unit_grid_16)

    def test_rejects_nan_direction(self, unit_grid_16, cfg_small):
        m = make_map("identity", make_space("euclidean:2"), 2)
        with pytest.raises(InvalidDirectionError):
            directional_derivative(m, X0, np.array([math.nan, 1.0]), cfg_small, unit_grid_16)

    def test_field_rejects_nan_direction(self, unit_grid_16, cfg_small):
        m = make_map("identity", make_space("euclidean:2"), 2)
        with pytest.raises(InvalidDirectionError):
            directional_field(m, X0[None], np.array([[1.0, 0.0], [math.nan, 1.0]]), cfg_small, unit_grid_16)

    def test_stencil_bound_respected(self, unit_grid_16):
        space = make_space("euclidean:2")
        bounded = MetricMap(space, lambda x: np.array(x, copy=True), "bounded", margin=0.0)
        cfg = EnergyConfig(fd_step=0.25)
        with pytest.raises(StencilRangeError):
            directional_derivative(bounded, np.array([0.1, 0.5]), np.array([1.0, 0.0]), cfg, unit_grid_16)
        with pytest.raises(StencilRangeError):
            directional_derivative(bounded, np.array([math.nan, 0.5]), np.array([1.0, 0.0]), cfg, unit_grid_16)


class TestHomogeneity:
    def test_scaling_identity_exact(self, unit_grid_16, cfg_small):
        m = make_map("linear:1,0;0,2", make_space("euclidean:2"), 2)
        nu = np.array([0.6, 0.8])
        for scale in (2.0, 0.5, 0.125):
            lhs = directional_vector(m, X0, scale * nu, cfg_small, unit_grid_16)
            rhs = scale * directional_derivative(m, X0, nu, cfg_small, unit_grid_16)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_max_norm_axis_vector(self, unit_grid_16, cfg_small):
        m = make_map("identity", make_space("max_norm_plane"), 2)
        val = directional_vector(m, X0, np.array([2.0, 0.0]), cfg_small, unit_grid_16)
        assert val == pytest.approx(2.0, abs=1e-9)

    def test_sign_symmetry(self, unit_grid_16, cfg_small):
        m = make_map("qsplit", make_space("q:2:1"), 2)
        nu = np.array([math.cos(0.4), math.sin(0.4)])
        a = directional_vector(m, X0, nu, cfg_small, unit_grid_16)
        b = directional_vector(m, X0, -nu, cfg_small, unit_grid_16)
        assert a == b

    def test_zero_vector_rejected(self, unit_grid_16, cfg_small):
        m = make_map("identity", make_space("euclidean:2"), 2)
        with pytest.raises(InvalidDirectionError):
            directional_vector(m, X0, np.zeros(2), cfg_small, unit_grid_16)


class TestMinimalGradient:
    """gmin: sup over the anchors of |grad d(u(x), xi)| (Euclidean norm), read at X0."""

    @staticmethod
    def gmin(metric_map, cfg, grid):
        return directional_field(metric_map, X0[None], np.array([[1.0, 0.0]]), cfg, grid).gmin[0]

    def test_max_norm_component_rule(self, unit_grid_16, cfg_small):
        # for u = (f1, f2) into the max-norm plane the minimal gradient is
        # max(|grad f1|, |grad f2|)
        m = make_map("linear:1,0.5;0.25,2", make_space("max_norm_plane"), 2)
        expected = max(math.hypot(1, 0.5), math.hypot(0.25, 2))
        assert self.gmin(m, cfg_small, unit_grid_16) == pytest.approx(expected, abs=2e-6)

    def test_identity_euclidean(self, unit_grid_16, cfg_small):
        m = make_map("identity", make_space("euclidean:2"), 2)
        assert self.gmin(m, cfg_small, unit_grid_16) == pytest.approx(1.0, abs=1e-6)

    def test_constant(self, unit_grid_16, cfg_small):
        m = make_map("constant", make_space("euclidean:2"), 2)
        assert self.gmin(m, cfg_small, unit_grid_16) == 0.0


class TestRepEnergies:
    def test_max_norm_sphere_density(self, unit_grid_32):
        cfg = EnergyConfig(sphere_order=256)
        m = make_map("identity", make_space("max_norm_plane"), 2)
        frag = rep_energies(m, unit_grid_32, cfg, forms=("sphere", "frame"))
        assert frag.energy_sphere / frag.mask_measure == pytest.approx(MAXNORM_DENSITY, abs=1e-4)
        assert frag.frame_sum / frag.mask_measure == pytest.approx(2.0, abs=1e-6)

    def test_euclidean_identity_density(self, unit_grid_16, cfg_small):
        m = make_map("identity", make_space("euclidean:2"), 2)
        frag = rep_energies(m, unit_grid_16, cfg_small)
        assert frag.energy_sphere / frag.mask_measure == pytest.approx(1.0, abs=1e-6)
        assert frag.frame_sum / frag.mask_measure == pytest.approx(2.0, abs=1e-6)

    def test_diagonal_linear_density(self, unit_grid_16, cfg_small):
        m = make_map("linear:1,0;0,2", make_space("euclidean:2"), 2)
        frag = rep_energies(m, unit_grid_16, cfg_small, forms=("sphere", "ball"))
        assert frag.energy_sphere / frag.mask_measure == pytest.approx(2.5, abs=2.5e-6)
        assert frag.energy_ball / frag.mask_measure == pytest.approx(2.5, abs=2.5e-6)

    def test_constant_all_zero(self, unit_grid_16, cfg_small):
        m = make_map("constant", make_space("max_norm_plane"), 2)
        frag = rep_energies(m, unit_grid_16, cfg_small)
        assert frag.energy_sphere == 0.0
        assert frag.energy_ball == 0.0
        assert frag.frame_sum == 0.0

    def test_sphere_ball_agreement_catalog(self, unit_grid_16, cfg_small):
        from conftest import catalog

        for map_spec, space_spec, m in catalog():
            frag = rep_energies(m, unit_grid_16, cfg_small, forms=("sphere", "ball"))
            ref = max(abs(frag.energy_sphere), 1e-12)
            assert abs(frag.energy_sphere - frag.energy_ball) / ref < 5e-4, (map_spec, space_spec)

    def test_euclidean_density_pointwise_smooth_map(self, unit_grid_16, cfg_small):
        """Density equals |Du(x)|_F^2 / n pointwise for a curved map."""
        a = 0.3
        m = make_map(f"swirl:{a}", make_space("euclidean:2"), 2)
        frag = rep_energies(m, unit_grid_16, cfg_small, forms=("sphere",))
        pts = unit_grid_16.nodes[frag.mask_indices]
        frob = 2.0 + a**2 * (np.cos(pts[:, 1]) ** 2 + np.sin(pts[:, 0]) ** 2)
        assert np.max(np.abs(frag.density_sphere - frob / 2.0)) < 1e-5

    def test_under_truncation_flag_fires_without_refinement(self, unit_grid_16):
        cfg = EnergyConfig(dense_count=8, refine=False, sphere_order=64, ball_order=(8, 64))
        m = make_map("linear:1,0;0,2", make_space("euclidean:2"), 2)
        frag = rep_energies(m, unit_grid_16, cfg, forms=("sphere",))
        assert frag.under_truncation
        cfg_ok = EnergyConfig(dense_count=256, sphere_order=64, ball_order=(8, 64))
        frag_ok = rep_energies(m, unit_grid_16, cfg_ok, forms=("sphere",))
        assert not frag_ok.under_truncation

    def test_chunked_densities_equal_full_expansion(self):
        """Sphere at K and 2K, ball and frame densities equal their full-table formulas bit for bit, at workers 1 and 2.

        The 33^2 grid has 841 eroded nodes: chunks of 512 and 329 rows.
        Every row is seeded, so the field's 2K table is its K table and the
        2K probe reports nothing.
        """
        grid = build_grid([0.0, 0.0], [1.0, 1.0], [33, 33])
        m = make_map("swirl:0.3", make_space("euclidean:2"), 2)
        for p in (1.5, 3.0):
            for workers in (1, 2):
                cfg = EnergyConfig(p=p, dense_count=64, sphere_order=128, ball_order=(12, 96), workers=workers)
                frag = rep_energies(m, grid, cfg)
                f = frag.field
                assert f.gmin.shape == (841,)
                sphere = cfg.sphere_rule(2)
                ball = cfg.ball_angular_rule(2)
                # each row's terms contiguous, as in a chunk, raised to p by the kernels' power
                table = lambda dirs, k=None: _power(np.ascontiguousarray(f.columns(dirs, k)), p)
                full = {
                    "sphere": np.sum(table(sphere.nodes) * sphere.weights, axis=1),
                    "sphere_2k": np.sum(table(sphere.nodes, 2 * cfg.dense_count) * sphere.weights, axis=1),
                    "ball": np.sum(table(ball.nodes) * ball.weights, axis=1),
                    "frame": np.sum(table(np.eye(2)), axis=1),
                }
                chunked = {
                    "sphere": frag.density_sphere,
                    "sphere_2k": f.density(sphere.nodes, p, sphere.weights, k=2 * cfg.dense_count),
                    "ball": f.density(ball.nodes, p, ball.weights),
                    "frame": frag.density_frame,
                }
                for form, density in full.items():
                    assert np.array_equal(chunked[form], density), (form, p, workers)
                assert f.reduced[2 * cfg.dense_count] is f.reduced[cfg.dense_count]
                assert frag.energy_sphere_doubled is None and frag.under_truncation is None
                energies = {"sphere": frag.energy_sphere, "ball": frag.energy_ball, "frame": frag.frame_sum}
                for form, energy in energies.items():
                    assert energy == grid.node_weight * ksenergy.directional.pairwise_sum(full[form]), (form, p, workers)

    @pytest.mark.parametrize("map_spec, space_spec, res", [
        ("swirl:0.3", "euclidean:2", 33),
        ("identity", "max_norm_plane", 33),
        ("qsplit", "q:2:1", 33),
        ("winding:2,1.3", "circle", 33),
        (LINEAR_3D, "euclidean:3", 12),
    ])
    def test_folded_ball_equals_node_expansion(self, map_spec, space_spec, res):
        """The ball form, the default ball rule folded onto its directions, equals the node-by-node expansion.

        Its Gauss-Jacobi radial weights W_k satisfy c_{n,p} n omega_n
        sum_k W_k = 1, so the fold is the ball's angular rule. The ball form
        equals c_{n,p} sum_j w_j (|v_j| g_j)^p over the 768 (2-d) or 2,048
        (3-d) nodes within 2e-15 relative on every row (measured: at most
        1.05e-15, the rounding of that sum's weights), and the sphere form on
        the same angular rule within 1e-15 relative, at workers 1 and 2.
        The 33^2 grids have 841 eroded nodes and 12^3 has 1,000: two chunks
        each.
        """
        n = 3 if space_spec == "euclidean:3" else 2
        grid = build_grid([0.0] * n, [1.0] * n, [res] * n)
        m = make_map(map_spec, make_space(space_spec), n)
        angular = EnergyConfig().ball_angular_rule(n)
        for p in (1.5, 2.0, 3.0):
            rule = EnergyConfig(p=p).ball_rule(n)
            radii = np.linalg.norm(rule.nodes, axis=1)
            c_np = ksenergy.energy_normalization(n, p)
            for workers in (1, 2):
                cfg = EnergyConfig(p=p, dense_count=64, workers=workers)
                frag = rep_energies(m, grid, cfg, forms=("ball",))
                f = frag.field
                ball = f.density(angular.nodes, p, angular.weights)
                # each row's terms contiguous, so the row sum is pairwise
                g = np.ascontiguousarray(f.columns(rule.nodes / radii[:, None]))
                nodes = np.sum(c_np * _power(g * radii, p) * rule.weights, axis=1)
                assert np.all(np.abs(ball - nodes) <= 2e-15 * nodes), (p, workers)
                on_angular = replace(cfg, sphere_order=ksenergy.quadrature.ball_order(n)[1])
                sphere = rep_energies(m, grid, on_angular, forms=("sphere",))
                assert abs(frag.energy_ball - sphere.energy_sphere) <= 1e-15 * sphere.energy_sphere, (p, workers)

    def test_ball_on_a_3d_domain(self):
        """The 3-d ball has 2,048 nodes on 256 direction classes; on a linear map it equals the sphere on the same (16, 32) rule."""
        grid = build_grid([0.0] * 3, [1.0] * 3, [10] * 3)
        m = make_map(LINEAR_3D, make_space("euclidean:3"), 3)
        cfg = EnergyConfig(dense_count=64)
        assert cfg.ball_rule(3).nodes.shape == (2048, 3)
        assert np.array_equal(cfg.sphere_rule(3).nodes, ksenergy.sphere_nodes(3, (16, 32)).nodes)
        assert np.array_equal(cfg.ball_angular_rule(3).nodes, cfg.sphere_rule(3).nodes)
        assert _reduce_directions(cfg.ball_angular_rule(3).nodes)[0].shape == (256, 3)
        for p in (2.0, 3.0):
            frag = rep_energies(m, grid, replace(cfg, p=p), forms=("sphere", "ball"))
            assert frag.energy_ball == pytest.approx(frag.energy_sphere, rel=1e-13, abs=0), p

    def test_forms_are_checked(self, unit_grid_16, cfg_small):
        m = make_map("identity", make_space("euclidean:2"), 2)
        for forms in (("sphere", "cube"), (), "sphere"):
            with pytest.raises(ConfigError):
                rep_energies(m, unit_grid_16, cfg_small, forms=forms)


@pytest.fixture(scope="module")
def fields(unit_grid_16, cfg_small):
    from conftest import catalog

    return {
        map_spec: rep_energies(m, unit_grid_16, cfg_small).field
        for map_spec, _, m in catalog()
    }


class TestFieldInvariants:

    def test_nonnegative(self, fields):
        for f in fields.values():
            assert np.all(f.values >= 0.0)

    def test_gmin_dominates_every_direction(self, fields):
        for name, f in fields.items():
            gap = np.max(f.reduced[f.dense_count] - f.gmin[:, None])
            assert gap <= 1e-9, name
            # every reduced column is some direction's own column, so this is the max over the expanded table
            assert gap == np.max(f.values - f.gmin[:, None]), name

    def test_evenness_exact(self, fields):
        # antipodal directions share a representative, so equality is exact
        for f in fields.values():
            values = f.values
            dirs = np.round(f.dirs, 12)
            index = {tuple(d): j for j, d in enumerate(dirs)}
            found = 0
            for j, d in enumerate(dirs):
                k = index.get(tuple(-d))
                if k is not None:
                    found += 1
                    assert np.array_equal(values[:, j], values[:, k])
            assert found > 0

    def test_doubled_prefix_never_smaller(self, fields):
        for f in fields.values():
            assert 2 * f.dense_count in f.reduced
            assert np.all(f.columns(f.dirs, 2 * f.dense_count) >= f.values - 1e-15)

    def test_monotone_in_prefix_length(self, unit_grid_16):
        m = make_map("linear:1,0.5;0.25,2", make_space("euclidean:2"), 2)
        pts = unit_grid_16.nodes[[50, 100, 150]]
        theta = np.linspace(0, np.pi, 9)[:-1]
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        prev = None
        for k in (32, 64, 128, 256):
            cfg = EnergyConfig(dense_count=k, check_truncation=False, refine=False)
            f = directional_field(m, pts, dirs, cfg, unit_grid_16)
            if prev is not None:
                assert np.all(f.values >= prev - 1e-15)
            prev = f.values

    def test_seeds_reach_the_analytic_swirl_modulus(self):
        """Every seeded entry of swirl:0.3 at 32^2 is within 1e-6 relative of |J(x) nu|; the scan alone reads high.

        J = [[1, 0.3 cos x_2], [-0.3 sin x_1, 1]]. Measured: the seeds within
        +-3.6e-7 at 32^2 (+-9.3e-8 at 64^2), and the refine-off field above
        them on 1,618 of the 200,704 entries (the scan's overshoot), so
        seeding is not monotone in the field's values.
        """
        grid = build_grid([0.0, 0.0], [1.0, 1.0], [32, 32])
        m = make_map("swirl:0.3", make_space("euclidean:2"), 2)
        pts = grid.nodes[grid.inner_mask(0.05)]
        dirs = sphere_nodes(2, 256).nodes
        cfg = EnergyConfig(check_truncation=False)
        f = directional_field(m, pts, dirs, cfg, grid)
        assert f.seeded_rows == len(pts)
        jac = np.empty((len(pts), 2, 2))
        jac[:, 0, 0] = jac[:, 1, 1] = 1.0
        jac[:, 0, 1] = 0.3 * np.cos(pts[:, 1])
        jac[:, 1, 0] = -0.3 * np.sin(pts[:, 0])
        exact = np.linalg.norm(jac @ dirs.T, axis=1)
        assert np.max(np.abs(f.values / exact - 1.0)) <= 1e-6
        scanned = directional_field(m, pts, dirs, replace(cfg, refine=False), grid).values
        assert np.count_nonzero(scanned > f.values) > 0


class TestNestedScan:
    """Every reported prefix length is a snapshot of one running max."""

    CFG = EnergyConfig(p=3.0, dense_count=64, sphere_order=32, h_count=3)

    @staticmethod
    def _problem(map_spec, space_spec):
        return Problem(space_spec, map_spec, (0.0, 0.0), (1.0, 1.0), (32, 32))

    @pytest.mark.parametrize(
        "map_spec, space_spec",
        [("linear:1,0.5;0.25,2", "euclidean:2"), ("identity", "max_norm_plane"), ("qsplit", "q:2:1")],
    )
    def test_k_sweep_equals_separate_prefix_scans(self, map_spec, space_spec):
        problem = self._problem(map_spec, space_spec)
        _, tables, _ = run_convergence(problem, self.CFG, sweeps=("K",))
        _, metric_map, grid = problem.build()
        expected = []
        for k in (16, 32, 64):
            cfg_k = replace(self.CFG, dense_count=k, check_truncation=False, refine=False)
            expected.append((k, rep_energies(metric_map, grid, cfg_k, forms=("sphere",)).energy_sphere))
        assert tables["K_sweep"][1:] == expected

    def test_k_sweep_independent_of_workers(self):
        problem = self._problem("swirl:0.3", "euclidean:2")
        tables = [
            run_convergence(problem, replace(self.CFG, workers=w), sweeps=("K",))[1]["K_sweep"]
            for w in (1, 2)
        ]
        assert tables[0] == tables[1]

    @pytest.mark.parametrize("map_spec, space_spec", [("swirl:0.3", "euclidean:2"), ("winding:2", "circle")])
    def test_probe_equals_doubled_prefix_without_refinement(self, unit_grid_16, map_spec, space_spec):
        m = make_map(map_spec, make_space(space_spec), 2)
        pts = unit_grid_16.nodes[unit_grid_16.inner_mask(0.05)]
        theta = np.linspace(0, np.pi, 17)[:-1]
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        probe = EnergyConfig(dense_count=64, refine=False)
        doubled = replace(probe, dense_count=128, check_truncation=False)
        f = directional_field(m, pts, dirs, probe, unit_grid_16)
        assert np.array_equal(f.columns(dirs, 2 * f.dense_count),
                              directional_field(m, pts, dirs, doubled, unit_grid_16).values)

    def test_every_prefix_length_is_a_separate_scan(self, unit_grid_16):
        m = make_map("linear:1,0.5;0.25,2", make_space("euclidean:2"), 2)
        pts = unit_grid_16.nodes[[50, 100, 150]]
        theta = np.linspace(0, np.pi, 9)[:-1]
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        cfg = EnergyConfig(dense_count=64, check_truncation=False, refine=False)
        f = directional_field(m, pts, dirs, cfg, unit_grid_16, prefixes=range(1, 65))
        for k in range(1, 65):
            single = directional_field(m, pts, dirs, replace(cfg, dense_count=k), unit_grid_16)
            assert np.array_equal(f.columns(f.dirs, k), single.values), k

    def test_prefixes_must_include_dense_count(self, unit_grid_16, cfg_small):
        m = make_map("identity", make_space("euclidean:2"), 2)
        with pytest.raises(ConfigError):
            directional_field(m, X0[None, :], np.array([[1.0, 0.0]]), cfg_small, unit_grid_16, prefixes=(16, 32))


def _plain_field_chunk(metric_map, pts, reps, anchors, prefixes, delta, cfg, grid):
    """Reference scan with refine off: one update per anchor, one copy per prefix length."""
    space = metric_map.target
    N, n = pts.shape
    R = reps.shape[0]
    stencil = eval_stencil(metric_map, pts, delta, grid)
    M = np.zeros((N, R))
    gmin = np.zeros(N)
    snaps = []
    for k, xi in enumerate(anchors):
        grad = np.empty((N, n))
        for i in range(n):
            grad[:, i] = (space.distance(stencil.plus[i], xi) - space.distance(stencil.minus[i], xi)) / (2.0 * delta)
        grad[space.distance(stencil.u0, xi) < ANCHOR_EXCLUSION * delta] = 0.0
        # same (N, n) @ (n, R) product as the scan, row for row
        M = np.maximum(M, np.abs(grad @ reps.T))
        if k < cfg.dense_count:
            gmin = np.maximum(gmin, np.linalg.norm(grad, axis=1))
        if k + 1 in prefixes:
            snaps.append(M.copy())
    for s in snaps:
        gmin = np.maximum(gmin, s.max(axis=1))
    return snaps, gmin, 0  # no row seeded


class TestDistinctScan:
    """Scanning each batch's distinct gradients gives exactly the per-anchor scan."""

    # lengths inside the first batch, a K that is not a multiple of the batch
    # (128), and a 2K probe that straddles two batches
    PREFIXES = (1, 2, 3, 5, 16, 32, 63, 64, 100, 129, 200)
    CFG = EnergyConfig(dense_count=100, refine=False, h_count=3)

    @staticmethod
    def _scan(monkeypatch, m, pts, dirs, cfg, grid, plain=False):
        """(field, compressed): the field, and whether any batch was scanned over fewer slots than anchors."""
        compressed = []
        slots = ksenergy.directional._distinct_slots

        def counting(grads, norms):
            out = slots(grads, norms)
            compressed.append(out[0].shape[0] < grads.shape[1])
            return out

        with monkeypatch.context() as patch:
            patch.setattr(ksenergy.directional, "_distinct_slots", counting)
            if plain:
                patch.setattr(ksenergy.directional, "_field_chunk", _plain_field_chunk)
            field = directional_field(m, pts, dirs, cfg, grid, prefixes=TestDistinctScan.PREFIXES)
        return field, any(compressed)

    def _assert_plain(self, monkeypatch, m, pts, dirs, cfg, grid):
        """Assert the scan equals the reference; return whether it compressed a batch."""
        got, compressed = self._scan(monkeypatch, m, pts, dirs, cfg, grid)
        want, _ = self._scan(monkeypatch, m, pts, dirs, cfg, grid, plain=True)
        assert got.reduced.keys() == want.reduced.keys() == set(self.PREFIXES)
        for k in self.PREFIXES:
            assert np.array_equal(got.reduced[k], want.reduced[k]), (cfg.workers, k)
        assert np.array_equal(got.gmin, want.gmin), cfg.workers
        return got, compressed

    @pytest.mark.parametrize(
        "map_spec, space_spec, dim",
        [
            ("linear:1,0.5;0.25,2", "euclidean:2", 2),
            ("identity", "max_norm_plane", 2),
            ("winding:2", "circle", 2),
            ("qsplit", "q:2:1", 2),
            ("linear:1,0.5,0.25;0.3,2,0.1", "max_norm_plane", 3),
        ],
    )
    def test_equals_per_anchor_scan(self, monkeypatch, map_spec, space_spec, dim):
        # more nodes than one chunk, so workers=2 runs two chunks at once
        grid = build_grid([0.0] * dim, [1.0] * dim, [32, 32] if dim == 2 else [9, 9, 9])
        m = make_map(map_spec, make_space(space_spec), dim)
        pts = grid.nodes[grid.inner_mask(0.05)]
        assert len(pts) > 512
        dirs = np.random.default_rng(0).normal(size=(10, dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        for workers in (1, 2):
            _, compressed = self._assert_plain(monkeypatch, m, pts, dirs, replace(self.CFG, workers=workers), grid)
            # euclidean gradients hardly repeat, so those batches keep every anchor
            assert compressed == (space_spec != "euclidean:2")

    def test_constant_hash_still_exact(self, monkeypatch):
        # one sort bucket: only sort neighbours (anchor order) can drop a repeat
        monkeypatch.setattr(
            ksenergy.directional, "_bucket_keys", lambda bits: np.zeros(bits.shape[:2], dtype=np.uint64)
        )
        grid = build_grid([0.0, 0.0], [1.0, 1.0], [16, 16])
        for map_spec, space_spec in (("identity", "max_norm_plane"), ("qsplit", "q:2:1")):
            m = make_map(map_spec, make_space(space_spec), 2)
            pts = grid.nodes[grid.inner_mask(0.05)]
            dirs = np.array([[1.0, 0.0], [0.6, 0.8]])
            assert self._assert_plain(monkeypatch, m, pts, dirs, self.CFG, grid)[1]

    def test_node_with_every_anchor_excluded(self, monkeypatch):
        # every anchor lies within 20 of u = 0, none within 20 of u = (100, 100);
        # the exclusion radius is ANCHOR_EXCLUSION fd steps, 64 * 20/64 = 20
        m = make_map("identity", make_space("max_norm_plane"), 2)
        pts = np.array([[0.0, 0.0], [100.0, 100.0], [0.25, -0.5]])
        grid = build_grid([-1.0, -1.0], [101.0, 101.0], [2, 2])
        cfg = replace(self.CFG, fd_step=20 / 64)
        f, compressed = self._assert_plain(monkeypatch, m, pts, np.array([[1.0, 0.0], [0.6, 0.8]]), cfg, grid)
        assert compressed
        assert f.gmin[0] == f.gmin[2] == 0.0 and f.gmin[1] > 0.0


# linear maps into Euclidean targets: a 2-d and a 3-d grid of two node chunks, and an 8-d target
SEEDED_LINEAR = [
    ("linear:1,0;0,2", "euclidean:2", 2, 32),
    ("linear:1,0.5,0;0,2,0.25;0.3,0,1", "euclidean:3", 3, 12),
    ("linear:1,0.5;-0.3,2;0.7,0.2;0,-1;0.25,0.25;-1.5,0.5;0.4,-0.6;0.1,1.1", "euclidean:8", 2, 16),
]
# affine maps into the other targets, where the prefix scan reads high (README "Numerical notes")
SEEDED_OTHER = [
    ("identity", "max_norm_plane", 2, 32),
    ("linear:1,0.3;0.2,1.1", "max_norm_plane", 2, 32),
    ("winding:2", "circle", 2, 32),
    ("qsplit", "q:2:1", 2, 32),
]


def _seeded_case(map_spec, space_spec, dim, res):
    """(map, eroded nodes, the frame plus 12 seeded random unit directions, grid)."""
    grid = build_grid([0.0] * dim, [1.0] * dim, [res] * dim)
    m = make_map(map_spec, make_space(space_spec), dim)
    pts = grid.nodes[grid.inner_mask(0.05)]
    dirs = np.random.default_rng(0).normal(size=(12, dim))
    dirs = np.concatenate([np.eye(dim), dirs / np.linalg.norm(dirs, axis=1, keepdims=True)])
    return m, pts, dirs, grid


def _jacobian(map_spec):
    """The constant Jacobian J of an affine catalog map on a 2-d domain, or of a linear map."""
    name, _, arg = map_spec.partition(":")
    if name == "identity":
        return np.eye(2)
    if name == "qsplit":
        return np.array([[0.25, 0.5], [-0.25, -0.5]])  # the sheets +-(1 + x1/4 + x2/2)
    if name == "winding":
        slopes = [float(v) for v in arg.split(",")]
        return np.array([slopes + [0.0] * (2 - len(slopes))])
    return _parse_matrix(arg)


def _exact_moduli(map_spec, space_spec, dirs):
    """(|J nu| in the target's norm for each direction, sup of |grad d(u, xi)|) of an affine map."""
    a = _jacobian(map_spec)
    if space_spec == "max_norm_plane":
        return np.max(np.abs(dirs @ a.T), axis=1), np.max(np.linalg.norm(a, axis=1))
    return np.linalg.norm(dirs @ a.T, axis=1), np.linalg.norm(a, 2)


@pytest.mark.parametrize("map_spec, space_spec, dim, res", SEEDED_LINEAR + SEEDED_OTHER)
def test_seeded_ray_reaches_exact_moduli(map_spec, space_spec, dim, res):
    """Every row is seeded, and its seeds give |J nu| in the target's norm, and gmin its sup over nu.

    On Euclidean targets within 10^-6 relative (the stencil's curvature
    error at the seeded ray's radii). On the max-norm plane, the circle and
    `q:2:1` no entry is more than 10^-12 |J| from exact; there the prefix
    scan alone reads high on some maps (README "Numerical notes"). Fields
    are the same bit for bit at workers 1 and 2 (the 2-d and 3-d grids have
    two node chunks).
    """
    m, pts, dirs, grid = _seeded_case(map_spec, space_spec, dim, res)
    cfg = EnergyConfig(check_truncation=False)
    f, f2 = (directional_field(m, pts, dirs, replace(cfg, workers=w), grid) for w in (1, 2))
    assert np.array_equal(f.values, f2.values) and np.array_equal(f.gmin, f2.gmin)
    assert f.seeded_rows == len(pts)
    exact, top = _exact_moduli(map_spec, space_spec, dirs)
    if space_spec.startswith("euclidean"):
        assert np.max(np.abs(f.values / exact - 1.0)) <= 1e-6
        assert np.max(np.abs(f.gmin - top)) <= 1e-6
    else:
        bound = 1e-12 * np.linalg.norm(_jacobian(map_spec), 2)
        assert np.max(np.abs(f.values - exact)) <= bound
        assert np.max(np.abs(f.gmin - top)) <= bound


@pytest.mark.parametrize("slopes", ["2,1.3", "0.75,0.5"])
def test_two_slope_winding_seeds_are_exact(slopes):
    """On theta = k1 x1 + k2 x2 at 32^2 every seeded entry is within 10^-12 |grad theta| of |nu . grad theta|.

    The prefix scan alone (refine off) still reads high there, by up to
    0.15 |grad theta| on the order-128 sphere rule (0.36 on `winding:2,1.3`):
    each coordinate's central difference takes its slope from another side
    of an anchor's kink.
    """
    grid = build_grid([0.0, 0.0], [1.0, 1.0], [32, 32])
    m = make_map(f"winding:{slopes}", make_space("circle"), 2)
    pts = grid.nodes[grid.inner_mask(0.05)]
    dirs = sphere_nodes(2, 128).nodes
    grad = np.array([float(k) for k in slopes.split(",")])
    exact, slope = np.abs(dirs @ grad), np.linalg.norm(grad)
    cfg = EnergyConfig(check_truncation=False)
    f = directional_field(m, pts, dirs, cfg, grid)
    assert f.seeded_rows == len(pts)
    assert np.max(np.abs(f.values - exact)) <= 1e-12 * slope
    assert np.max(np.abs(f.gmin - slope)) <= 1e-12 * slope
    scan = directional_field(m, pts, dirs, replace(cfg, refine=False), grid)
    assert np.max(scan.values - exact) > 0.1 * slope


def _crossing_map():
    """The two-valued map [[f]] + [[-f]] into q:2:1, f = x1 + x2/2 - 0.6: its sheets cross on f = 0."""
    space = make_space("q:2:1")

    def crossing(x):
        f = x[..., :1] + 0.5 * x[..., 1:2] - 0.6
        return np.concatenate([f, -f], axis=-1)

    return MetricMap(space, crossing, "crossing")


def _steep_circle_map():
    """theta = 100 x1^2 into the circle: at 8^2 (fd step 1/64) the stencil spans pi/2 or more from x1 = 0.5 on."""
    return MetricMap(make_space("circle"), lambda x: np.remainder(100.0 * x[..., :1] ** 2, 2.0 * math.pi), "steep")


# K-sweep energies (K = 16, 32, 64, 128; sphere order 64; p = 2) as the scan gave them before any row was seeded
PARENT_K_SWEEP = {
    "crossing": ["0x1.e37d70accc8a2p-1", "0x1.e37d70accc8c8p-1", "0x1.e37d70c7a9d5ep-1", "0x1.e37d70c7a9d66p-1"],
    "steep": ["0x1.a0dd217f3082ep+10", "0x1.a0dd217f3082fp+10", "0x1.a0dd217f3082fp+10", "0x1.a0dd217f30830p+10"],
}


@pytest.mark.parametrize("make, res, untrusted", [(_crossing_map, 32, 126), (_steep_circle_map, 8, 32)])
def test_rows_without_a_trusted_seed_keep_the_scan(monkeypatch, make, res, untrusted):
    """Untrusted rows equal a refine-off field bit for bit, trusted rows hold their seeds, and the K sweep is unchanged.

    The crossing map's rows with sep <= 32 delta |grad f| (126 of 784 at
    32^2, two node chunks) and the steep circle map's rows whose stencil
    spans pi/2 or more are not trusted. Also on three points with one
    untrusted row, which is scanned beside a companion row.
    """
    m = make()
    grid = build_grid([0.0, 0.0], [1.0, 1.0], [res, res])
    pts = grid.nodes[grid.inner_mask(0.05)]
    dirs = sphere_nodes(2, 64).nodes
    cfg = EnergyConfig(dense_count=128, sphere_order=64, ball_order=(8, 64), h_count=3)
    refine = ksenergy.directional._refine_chunk

    def field(points, workers):
        seeded = []

        def record(space, stencil, reps, cfg):
            out = refine(space, stencil, reps, cfg)
            seeded.append(out)
            return out

        with monkeypatch.context() as patch:
            patch.setattr(ksenergy.directional, "_refine_chunk", record)
            f = directional_field(m, points, dirs, replace(cfg, workers=workers), grid)
        # chunks run in order at workers 1; at workers 2 only the fields are compared
        return f, seeded

    f, seeded = field(pts, 1)
    g = np.concatenate([s[0] for s in seeded])
    trusted = np.concatenate([s[2] for s in seeded])
    assert np.count_nonzero(~trusted) == untrusted and f.seeded_rows == len(pts) - untrusted
    scan = directional_field(m, pts, dirs, replace(cfg, refine=False), grid)
    for k in (cfg.dense_count, 2 * cfg.dense_count):
        assert np.array_equal(f.reduced[k][~trusted], scan.reduced[k][~trusted]), k
        assert np.array_equal(f.reduced[k][trusted], g[trusted]), k
    assert np.array_equal(f.gmin[~trusted], scan.gmin[~trusted])
    f2, _ = field(pts, 2)
    assert all(np.array_equal(f2.reduced[k], f.reduced[k]) for k in f.reduced) and np.array_equal(f2.gmin, f.gmin)

    # one untrusted row among three
    few = np.concatenate([pts[~trusted][:1], pts[trusted][:2]])
    f3, _ = field(few, 1)
    scan3 = directional_field(m, few, dirs, replace(cfg, refine=False), grid)
    assert f3.seeded_rows == 2
    assert np.array_equal(f3.values[0], scan3.values[0]) and f3.gmin[0] == scan3.gmin[0]

    ladder = (16, 32, 64, 128)
    cfg_k = replace(cfg, check_truncation=False, refine=False)
    k_field = rep_energies(m, grid, cfg_k, forms=("sphere",), prefixes=ladder).field
    sweep = [k_field.energy(cfg_k.sphere_rule(2), cfg.p, grid.node_weight, k)[1] for k in ladder]
    assert [v.hex() for v in sweep] == PARENT_K_SWEEP[m.label]


class _SeedlessPlane(MetricSpace):
    """The Euclidean plane without seeds: a target that can only be scanned."""

    rep_dim = 2
    spec = "seedless"

    def __init__(self):
        self._base = EuclideanSpace(2)

    def distance(self, a, b, p=1):
        return self._base.distance(a, b, p)

    def dense_points(self, count):
        return self._base.dense_points(count)


def test_a_target_without_seeds_runs_only_with_refine_off(unit_grid_16, cfg_small):
    """Seeds are part of the target contract: refine on raises NotImplementedError, refine off scans as before."""
    m = MetricMap(_SeedlessPlane(), lambda x: np.array(x, dtype=np.float64, copy=True), "identity")
    pts = unit_grid_16.nodes[[50, 100, 150]]
    dirs = sphere_nodes(2, 16).nodes
    with pytest.raises(NotImplementedError):
        directional_field(m, pts, dirs, cfg_small, unit_grid_16)
    off = replace(cfg_small, refine=False)
    f = directional_field(m, pts, dirs, off, unit_grid_16)
    plane = directional_field(make_map("identity", make_space("euclidean:2"), 2), pts, dirs, off, unit_grid_16)
    assert f.seeded_rows == 0
    assert all(np.array_equal(f.reduced[k], plane.reduced[k]) for k in plane.reduced)


@pytest.mark.parametrize(
    "map_spec, space_spec, dim, res",
    SEEDED_LINEAR + [("swirl:0.3", "euclidean:2", 2, 32), ("identity", "max_norm_plane", 2, 32),
                     ("winding:2,1.3", "circle", 2, 32), ("qsplit", "q:2:1", 2, 32)],
)
def test_seeded_ray_blocks_never_change_bits(monkeypatch, map_spec, space_spec, dim, res):
    """`_refine_chunk` gives the one-block result bit for bit at any REFINE_ROWS, at workers 1 and 2."""
    m, pts, dirs, grid = _seeded_case(map_spec, space_spec, dim, res)
    cfg = EnergyConfig(dense_count=16, check_truncation=False)
    refine = ksenergy.directional._refine_chunk

    def run(rows, workers):
        seeded = {}  # chunk's first stencil row -> (g, gmin, trusted)

        def record(space, stencil, reps, cfg):
            seeded[stencil.u0[0].tobytes()] = out = refine(space, stencil, reps, cfg)
            return out

        with monkeypatch.context() as patch:
            patch.setattr(ksenergy.directional, "REFINE_ROWS", rows)
            patch.setattr(ksenergy.directional, "_refine_chunk", record)
            f = directional_field(m, pts, dirs, replace(cfg, workers=workers), grid)
        return f, seeded

    want, want_seeded = run(ksenergy.parallel.CHUNK, 1)
    assert len(want_seeded) == -(-len(pts) // ksenergy.parallel.CHUNK)
    for rows in (1, 37, 128, ksenergy.parallel.CHUNK):
        for workers in (1, 2):
            got, got_seeded = run(rows, workers)
            assert got_seeded.keys() == want_seeded.keys()
            for key, seeds in want_seeded.items():
                assert all(np.array_equal(a, b) for a, b in zip(got_seeded[key], seeds)), (rows, workers)
            assert np.array_equal(got.reduced[16], want.reduced[16]) and np.array_equal(got.gmin, want.gmin)


def test_seeded_rays_of_a_chunk_stay_small():
    """One 512-row Euclidean chunk with compare's 192 direction classes peaks at <= 5 MiB under tracemalloc.

    Evaluated as one block, it peaked at 12.2 MiB: each (rows, 192, 2) temporary takes 1.5 MiB.
    """
    cfg = EnergyConfig()
    grid = build_grid([0.0, 0.0], [1.0, 1.0], [32, 32])
    m = make_map("swirl:0.3", make_space("euclidean:2"), 2)
    # the sphere, ball and frame directions of `rep_energies`
    dirs = np.concatenate([cfg.sphere_rule(2).nodes, cfg.ball_angular_rule(2).nodes, np.eye(2)])
    reps, _ = _reduce_directions(dirs)
    assert reps.shape == (192, 2)
    stencil = eval_stencil(m, grid.nodes[:512], cfg.resolved_fd_step(grid), grid)
    tracemalloc.start()
    try:
        ksenergy.directional._refine_chunk(m.target, stencil, reps, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 2**20


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_gradient_norms_equal_linalg_norm(n):
    """`_gradient_norms` is np.linalg.norm(axis=-1) bit for bit, on magnitudes 1e-6..1e6 and exact zeros."""
    rng = np.random.default_rng(n)
    grads = rng.normal(size=(64, 40, n)) * 10.0 ** rng.uniform(-6, 6, size=(64, 40, n))
    grads[rng.random(grads.shape) < 0.2] = 0.0
    grads[:, :3] = 0.0  # whole vectors zero, as for excluded anchors
    assert np.array_equal(_gradient_norms(grads), np.linalg.norm(grads, axis=-1))


def _dict_reduce_directions(dirs):
    """Reference reduction: a dict keyed by the smaller of the rounded +d and -d."""
    reps = []
    inv = np.empty(len(dirs), dtype=np.intp)
    seen = {}
    for j, d in enumerate(dirs):
        key = min(tuple(np.round(d, 12)), tuple(np.round(-d, 12)))
        if key not in seen:
            seen[key] = len(reps)
            reps.append(d)
        inv[j] = seen[key]
    return np.array(reps), inv


class TestReduceDirections:
    """The vectorised reduction gives the dict loop's representatives and indices."""

    @staticmethod
    def _tables():
        for n in (2, 3, 4):
            cfg = EnergyConfig()
            ball = cfg.ball_rule(n).nodes
            radii = np.linalg.norm(ball, axis=1)
            yield f"default-{n}d", np.concatenate([cfg.sphere_rule(n).nodes, ball / radii[:, None], np.eye(n)])
        yield "ladder", np.concatenate([sphere_nodes(2, order).nodes for order in (256, 128, 64, 32, 16)])
        for order in (1, 3, 7, 33):
            yield f"odd-{order}", sphere_nodes(2, order).nodes
        # random rows of random vectors and of signed axes (zero entries, -0.0), with random signs
        rng = np.random.default_rng(0)
        base = rng.normal(size=(40, 3))
        base /= np.linalg.norm(base, axis=1, keepdims=True)
        base = np.concatenate([base, np.eye(3), -np.eye(3), [[-0.0, 0.6, -0.8], [0.0, -0.6, 0.8]]])
        rows = base[rng.integers(0, len(base), size=500)]
        yield "random-signs", rows * rng.choice([-1.0, 1.0], size=(500, 1))

    def test_equals_dict_loop(self):
        for name, dirs in self._tables():
            reps, inv = _reduce_directions(dirs)
            want_reps, want_inv = _dict_reduce_directions(dirs)
            assert np.array_equal(reps, want_reps), name
            assert np.array_equal(inv, want_inv), name
            assert inv.dtype == np.intp, name


class TestSphereLadder:
    """The sphere sweep reads each rule's columns off one order-256 field."""

    CFG = EnergyConfig(p=3.0, dense_count=64, h_count=3)

    @pytest.mark.parametrize(
        "map_spec, space_spec",
        [("swirl:0.3", "euclidean:2"), ("identity", "max_norm_plane"), ("winding:2", "circle"), ("qsplit", "q:2:1")],
    )
    def test_equals_per_order_fields(self, map_spec, space_spec):
        problem = Problem(space_spec, map_spec, (0.0, 0.0), (1.0, 1.0), (32, 32))
        _, metric_map, grid = problem.build()
        # more nodes than one chunk, so workers=2 runs two chunks at once
        assert np.count_nonzero(grid.inner_mask(self.CFG.h0)) > 512
        for workers in (1, 2):
            cfg = replace(self.CFG, workers=workers)
            _, tables, _ = run_convergence(problem, cfg, sweeps=("sphere",))
            expected = []
            for order in (16, 32, 64, 128, 256):
                cfg_o = replace(cfg, sphere_order=order, check_truncation=False)
                expected.append((order, rep_energies(metric_map, grid, cfg_o, forms=("sphere",)).energy_sphere))
            assert tables["sphere_sweep"][1:] == expected, workers

    def test_columns_read_by_direction(self, unit_grid_16, cfg_small):
        """A shuffled, sign-flipped subset of the field's directions reads exactly their columns, at K and 2K."""
        m = make_map("swirl:0.3", make_space("euclidean:2"), 2)
        f = directional_field(m, unit_grid_16.nodes[[50, 100, 150]], sphere_nodes(2, 16).nodes, cfg_small,
                              unit_grid_16)
        pick = np.random.default_rng(0).permutation(len(f.dirs))[:11]
        subset = f.dirs[pick] * np.where(np.arange(11) % 2, -1.0, 1.0)[:, None]
        assert np.array_equal(f.columns(subset), f.values[:, pick])
        assert np.array_equal(f.columns(subset, 2 * f.dense_count), f.columns(f.dirs, 2 * f.dense_count)[:, pick])

    def test_rule_the_field_lacks_raises(self, unit_grid_16, cfg_small):
        m = make_map("identity", make_space("max_norm_plane"), 2)
        f = directional_field(m, X0[None, :], sphere_nodes(2, 16).nodes, cfg_small, unit_grid_16)
        f.energy(sphere_nodes(2, 8), 2.0, 1.0)
        with pytest.raises(IndexError):
            f.energy(sphere_nodes(2, 32), 2.0, 1.0)
        for k in (f.dense_count, 2 * f.dense_count):
            f.columns(f.dirs[:3], k)
            with pytest.raises(IndexError):
                f.columns(np.array([[math.cos(0.1), math.sin(0.1)]]), k)


class TestIncrementBound:
    def test_constant_map_trivial(self, unit_grid_16, cfg_small):
        m = make_map("constant", make_space("euclidean:2"), 2)
        rec = check_increment_bound(m, unit_grid_16, np.array([1.0, 0.0]), 0.05, cfg_small)
        assert rec.lhs == 0.0 and rec.rhs == 0.0 and rec.holds

    def test_identity_slack_is_mask_complement(self, unit_grid_16, cfg_small):
        m = make_map("identity", make_space("euclidean:2"), 2)
        h = 0.1
        rec = check_increment_bound(m, unit_grid_16, np.array([1.0, 0.0]), h, cfg_small)
        inner = unit_grid_16.inner_mask(h).sum() * unit_grid_16.node_weight
        assert rec.lhs == pytest.approx(h**2 * inner, rel=1e-10)
        assert rec.rhs == pytest.approx(h**2 * unit_grid_16.measure, rel=1e-6)
        assert rec.holds

    def test_max_norm_diagonal_direction(self, unit_grid_16, cfg_small):
        m = make_map("identity", make_space("max_norm_plane"), 2)
        v = np.array([1.0, 1.0]) / math.sqrt(2)
        rec = check_increment_bound(m, unit_grid_16, v, 0.05, cfg_small)
        assert rec.holds
        inner = unit_grid_16.inner_mask(0.05).sum() * unit_grid_16.node_weight
        assert rec.lhs / rec.rhs == pytest.approx(inner / unit_grid_16.measure, rel=1e-6)

    def test_short_vector(self, unit_grid_16, cfg_small):
        m = make_map("identity", make_space("euclidean:2"), 2)
        rec = check_increment_bound(m, unit_grid_16, np.array([0.3, 0.0]), 0.05, cfg_small)
        assert rec.holds
        assert rec.lhs > 0

    def test_overlong_vector_rejected(self, unit_grid_16, cfg_small):
        m = make_map("identity", make_space("euclidean:2"), 2)
        with pytest.raises(InvalidDirectionError):
            check_increment_bound(m, unit_grid_16, np.array([1.0, 1.0]), 0.05, cfg_small)

    def test_nan_vector_rejected(self, unit_grid_16, cfg_small):
        m = make_map("identity", make_space("euclidean:2"), 2)
        with pytest.raises(InvalidDirectionError):
            check_increment_bound(m, unit_grid_16, np.array([math.nan, 0.0]), 0.05, cfg_small)

    def test_nan_h_rejected(self, unit_grid_16, cfg_small):
        m = make_map("identity", make_space("euclidean:2"), 2)
        with pytest.raises(ConfigError):
            check_increment_bound(m, unit_grid_16, np.array([1.0, 0.0]), math.nan, cfg_small)


def test_one_d_ball_rule_is_the_s0_tensor_rule():
    """In 1-d the ball rule tensors the Gauss-Jacobi radii with S^0 = {+1, -1}: no node at the origin."""
    grid = build_grid([0.0], [1.0], [16])
    m = make_map("linear:2", make_space("euclidean:1"), 1)
    for radial in (3, 4):
        rule = ksenergy.ball_nodes(1, (radial, 2), p=1.5)
        r, w = ksenergy.quadrature.radial_nodes(radial, 1.5)
        assert np.array_equal(rule.nodes[:, 0], np.repeat(r, 2) * np.tile([1.0, -1.0], radial))
        assert np.allclose(rule.weights, np.repeat(w / r**1.5, 2), rtol=1e-15, atol=0)
        frag = rep_energies(m, grid, EnergyConfig(dense_count=32, ball_order=(radial, 4)), forms=("ball",))
        assert frag.energy_ball == pytest.approx(4.0 * frag.mask_measure, rel=1e-12), radial


def test_frame_sum_energy(unit_grid_16, cfg_small):
    m = make_map("identity", make_space("max_norm_plane"), 2)
    frag = rep_energies(m, unit_grid_16, cfg_small, forms=("frame",))
    assert frag.frame_sum / frag.mask_measure == pytest.approx(2.0, abs=1e-6)
