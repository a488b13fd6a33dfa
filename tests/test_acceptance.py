"""Acceptance suite: the binding numerical checks, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines. These use the shipping default configuration (64^2 grid,
h0 = 0.05, six-term h ladder, 512 dense anchors, 256-angle sphere rule)
wherever a criterion pins them.
"""

import json
import math
import time

import numpy as np
import pytest

from ksenergy import (
    EnergyConfig,
    Problem,
    build_grid,
    check_increment_bound,
    directional_derivative,
    directional_vector,
    ks_energy,
    make_map,
    make_space,
    rep_energies,
    run_counterexample,
    sphere_nodes,
    ball_nodes,
    verify_metric_axioms,
)
from ksenergy.cli import main
from ksenergy.quadrature import extrapolate_fields

MAXNORM_DENSITY = (2.0 + math.pi) / (2.0 * math.pi)

CATALOG = [
    ("identity", "euclidean:2"),
    ("linear:1,0;0,2", "euclidean:2"),
    ("identity", "max_norm_plane"),
    ("winding:2", "circle"),
    ("qsplit", "q:2:1"),
]


def _announce(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance {criterion}: {detail}")
    assert ok, f"acceptance {criterion}: {detail}"


@pytest.fixture(scope="module")
def grid64():
    return build_grid([0.0, 0.0], [1.0, 1.0], [64, 64])


def test_criterion_1_counterexample_constants(grid64):
    """Frame sum 2 vs sphere average (2+pi)/(2pi), strictly larger, < 10 s."""
    t0 = time.perf_counter()
    problem = Problem("max_norm_plane", "identity", (0.0, 0.0), (1.0, 1.0), (64, 64))
    report, _, _ = run_counterexample(problem, EnergyConfig())
    elapsed = time.perf_counter() - t0
    sphere_err = abs(report["sphere_density"] - MAXNORM_DENSITY)
    frame_err = abs(report["frame_density"] - 2.0)
    ok = (
        sphere_err <= 1e-4
        and frame_err <= 1e-6
        and report["strict_inequality"]
        and elapsed < 10.0
    )
    _announce(
        "1 (counterexample constants)",
        ok,
        f"sphere err {sphere_err:.2e} (tol 1e-4), frame err {frame_err:.2e} (tol 1e-6), "
        f"strict={report['strict_inequality']}, {elapsed:.1f}s (limit 10s)",
    )


def test_criterion_2_representation_equality(grid64):
    """|E^p - rep^p| / rep^p <= 2% across the catalog, p in {1.5, 2, 3}, < 5 min."""
    t0 = time.perf_counter()
    worst = (0.0, "")
    for p in (1.5, 2.0, 3.0):
        cfg = EnergyConfig(p=p)  # h0=0.05, 6-term ladder, K=512 defaults
        for map_spec, space_spec in CATALOG:
            metric_map = make_map(map_spec, make_space(space_spec), 2)
            ks = ks_energy(metric_map, grid64, cfg)
            frag = rep_energies(metric_map, grid64, cfg, forms=("sphere",))
            gap = abs(ks.ks_energy - frag.energy_sphere) / max(abs(frag.energy_sphere), 1e-300)
            if gap > worst[0]:
                worst = (gap, f"{map_spec}/{space_spec}@p={p}")
            assert not frag.under_truncation, (map_spec, p)
    elapsed = time.perf_counter() - t0
    ok = worst[0] <= 0.02 and elapsed < 300.0
    _announce(
        "2 (two-route equality)",
        ok,
        f"worst gap {worst[0]:.2e} at {worst[1]} (tol 2e-2), {elapsed:.0f}s (limit 300s)",
    )


def test_criterion_3_dirichlet_consistency():
    """Linear maps: rep density = |A|_F^2 / n to 1e-6; KS limit to 1e-3."""
    grid = build_grid([0.0, 0.0], [1.0, 1.0], [32, 32])
    cfg = EnergyConfig(p=2.0)
    cases = [
        ("linear:1,0;0,1", np.eye(2)),
        ("linear:1,0;0,2", np.diag([1.0, 2.0])),
        ("linear:1,0.5;0.25,2", np.array([[1.0, 0.5], [0.25, 2.0]])),
        ("linear:1,0;0,2;0.5,0.5", np.array([[1.0, 0.0], [0.0, 2.0], [0.5, 0.5]])),
    ]
    worst_rep = worst_ks = 0.0
    for spec, a in cases:
        target = float(np.sum(a * a)) / 2.0
        space = make_space(f"euclidean:{a.shape[0]}")
        metric_map = make_map(spec, space, 2)
        frag = rep_energies(metric_map, grid, cfg, forms=("sphere",))
        rep_density = frag.energy_sphere / frag.mask_measure
        worst_rep = max(worst_rep, abs(rep_density - target))
        dens = ks_energy(metric_map, grid, cfg).ks_density
        worst_ks = max(worst_ks, float(np.max(np.abs(dens - target))))
    ok = worst_rep <= 1e-6 and worst_ks <= 1e-3
    _announce(
        "3 (Dirichlet consistency)",
        ok,
        f"rep density err {worst_rep:.2e} (tol 1e-6), ks density err {worst_ks:.2e} (tol 1e-3)",
    )


def test_criterion_4_increment_bound():
    """Shifted-increment mass <= 1.001 x directional bound over the lattice."""
    grid = build_grid([0.0, 0.0], [1.0, 1.0], [32, 32])
    cfg = EnergyConfig(ball_order=(8, 64))
    vs = [
        np.array([1.0, 0.0]),
        np.array([0.0, 1.0]),
        np.array([1.0, 1.0]) / math.sqrt(2.0),
        np.array([0.3, 0.0]),
    ]
    hs = (0.1, 0.05, 0.025)
    checked = 0
    worst = 0.0
    for map_spec, space_spec in CATALOG:
        metric_map = make_map(map_spec, make_space(space_spec), 2)
        for v in vs:
            for h in hs:
                rec = check_increment_bound(metric_map, grid, v, h, cfg)
                checked += 1
                assert rec.holds, (map_spec, v, h, rec.lhs, rec.rhs)
                if rec.rhs > 0:
                    worst = max(worst, rec.lhs / rec.rhs)
    ok = checked == len(CATALOG) * len(vs) * len(hs) and worst <= 1.001
    _announce(
        "4 (increment bound)",
        ok,
        f"{checked} (map, v, h) combinations hold; worst lhs/rhs {worst:.4f} (tol 1.001)",
    )


def test_criterion_5_property_suites(unit_grid_16, cfg_small):
    """The invariant battery, all headless."""
    failures = []

    reports = {
        spec: verify_metric_axioms(make_space(spec), 1000, seed=2024)
        for spec in ("euclidean:2", "euclidean:3", "max_norm_plane", "circle", "q:2:1", "q:2:2")
    }
    if any(r.total_violations for r in reports.values()):
        failures.append("metric axioms")

    fields = {}
    for map_spec, space_spec in CATALOG:
        metric_map = make_map(map_spec, make_space(space_spec), 2)
        frag = rep_energies(metric_map, unit_grid_16, cfg_small, forms=("sphere", "ball"))
        fields[map_spec] = frag
        f = frag.field
        if np.max(f.reduced[f.dense_count] - f.gmin[:, None]) > 1e-9:
            failures.append(f"domination {map_spec}")
        values = frag.field.values  # each read looks the columns up by direction
        dirs = np.round(frag.field.dirs, 12)
        index = {tuple(d): j for j, d in enumerate(dirs)}
        for j, d in enumerate(dirs):
            k = index.get(tuple(-d))
            if k is not None and not np.array_equal(values[:, j], values[:, k]):
                failures.append(f"evenness {map_spec}")
                break
        ref = max(abs(frag.energy_sphere), 1e-12)
        if abs(frag.energy_sphere - frag.energy_ball) / ref > 5e-4:
            failures.append(f"sphere/ball {map_spec}")
        doubled = 2 * frag.field.dense_count
        if doubled in frag.field.reduced and np.any(
            frag.field.columns(frag.field.dirs, doubled) < values - 1e-15
        ):
            failures.append(f"K-monotonicity {map_spec}")

    x0 = np.array([0.40625, 0.53125])
    m = make_map("linear:1,0.5;0.25,2", make_space("euclidean:2"), 2)
    nu = np.array([0.6, 0.8])
    for s in (2.0, 0.25):
        lhs = directional_vector(m, x0, s * nu, cfg_small, unit_grid_16)
        rhs = s * directional_derivative(m, x0, nu, cfg_small, unit_grid_16)
        if abs(lhs - rhs) > 1e-12:
            failures.append("homogeneity")

    rule = sphere_nodes(2, 256)
    if abs(rule.weights.sum() - 1.0) > 1e-12 or abs(rule.weights @ rule.nodes[:, 0] ** 2 - 0.5) > 1e-13:
        failures.append("sphere rule")
    ball = ball_nodes(2)
    if abs(ball.weights.sum() - math.pi) > 1e-12:
        failures.append("ball rule")
    for q in (0.5, 1.0, 2.0):
        hs = np.array([0.4, 0.2, 0.1])
        limit, order, _, _ = extrapolate_fields(hs, (3.0 + 0.7 * hs**q)[:, None])
        if abs(limit[0] - 3.0) > 1e-9 or abs(order[0] - q) > 1e-7:
            failures.append(f"extrapolation q={q}")

    _announce("5 (property suites)", not failures, "all suites clean" if not failures else f"failed: {failures}")


def test_criterion_6_determinism(tmp_path):
    """compare: worker count never changes the report (timing aside)."""
    texts = []
    for workers in ("1", "4"):
        out = tmp_path / f"det{workers}.json"
        code = main([
            "compare", "--space", "euclidean:2", "--map", "identity",
            "--resolution", "32", "--h-count", "4", "--K", "256",
            "--sphere-order", "128", "--ball-order", "8,64",
            "--seed", "7", "--workers", workers, "--json", str(out),
        ])
        assert code == 0
        body = json.loads(out.read_text())
        body.pop("timing")
        texts.append(json.dumps(body, sort_keys=True))
    ok = texts[0] == texts[1]
    _announce("6 (determinism)", ok, "byte-identical JSON across worker counts (timing excluded)")
