"""Run orchestration shared by the CLI and the test-suite.

Each runner returns a JSON-ready dict (reports) plus optional CSV tables;
the echoed configuration block is sufficient to reproduce the run.
"""

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .directional import rep_energies
from .errors import ConfigError, InvalidDomainError, NonFiniteResultError
from .grid import build_grid
from .ks import ks_energy
from .maps import _parse_matrix, make_map
from .oracles import linear_euclidean_density, maxnorm_counterexample_constants
from .spaces import make_space


@dataclass(frozen=True)
class Problem:
    space_spec: str
    map_spec: str
    lower: tuple
    upper: tuple
    resolution: tuple

    def build(self):
        """(space, map, grid); a bad box or resolution is a ConfigError, raised before any numerics."""
        try:
            grid = build_grid(np.array(self.lower), np.array(self.upper), self.resolution)
        except InvalidDomainError as exc:
            raise ConfigError(str(exc)) from exc
        space = make_space(self.space_spec)
        metric_map = make_map(self.map_spec, space, grid.dim)
        return space, metric_map, grid

    def echo(self):
        return {
            "space": self.space_spec,
            "map": self.map_spec,
            "lower": list(self.lower),
            "upper": list(self.upper),
            "resolution": list(self.resolution),
        }


def _require_sphere(problem):
    """The directional route averages over S^(n-1): reject a 1-d domain before any numerics."""
    if len(problem.lower) < 2:
        raise ConfigError(
            f"the directional route needs a domain of dimension >= 2, got {len(problem.lower)}-d "
            "(ks-energy works in 1-d)"
        )


# the KS route's report block; run_ks alone adds inner_measure_exact
_KS_KEYS = (
    "h_values",
    "h_integrals",
    "ks_energy",
    "ks_order",
    "ks_error_estimate",
    "mask_measure",
    "domain_measure",
    "localization_deficit",
)


def _report(problem, cfg, subcommand, t0, values, ks=None, ks_keys=_KS_KEYS, rep=None, empty_mask=False,
            warnings=(), field=None):
    """The one report schema every runner fills in.

    The header echoes the run and its config. `ks` contributes `ks_keys` of
    its result and leads the coded warnings with its own (which include
    `empty_mask`); without it, `empty_mask` leads when set. `rep` (a
    RepEnergies) contributes the directional block. A true `under_truncation`
    (the 2K probe moved the energy), from `rep` or the runner's `values`,
    adds its coded entry (it is null when every row was seeded); the
    runner's own `warnings` come last, and
    `timing.total_s` is measured from `t0`. `field`, the run's directional
    field, adds `timing.seeded_rows` and `timing.scanned_rows`: how many of
    its nodes took their values from seeds and how many from the prefix
    scan. A non-finite report number (say g**p overflowing at a large p) is
    a NonFiniteResultError: JSON has no such numbers.
    """
    report = {
        "schema_version": 1,
        "subcommand": subcommand,
        "run": problem.echo(),
        "config": cfg.to_dict(),
    }
    if ks is not None:
        report.update({key: getattr(ks, key) for key in ks_keys})
    if rep is not None:
        report.update(
            {
                "rep_energy_sphere": rep.energy_sphere,
                "rep_energy_ball": rep.energy_ball,
                "dense_count": cfg.dense_count,
                "rep_energy_sphere_doubled": rep.energy_sphere_doubled,
                "under_truncation": rep.under_truncation,
            }
        )
    report.update(values)
    _require_finite(report, f"map {problem.map_spec!r} into {problem.space_spec}", cfg.p)
    coded = list(ks.warnings) if ks is not None else (["empty_mask"] if empty_mask else [])
    if report.get("under_truncation"):
        coded.append("under_truncation")
    report["warnings"] = coded + list(warnings)
    report["timing"] = {"total_s": time.perf_counter() - t0}
    if field is not None:
        report["timing"].update(seeded_rows=field.seeded_rows, scanned_rows=len(field.gmin) - field.seeded_rows)
    return report


def _require_finite(report, source, p):
    """A non-finite report number is a NonFiniteResultError: JSON has no such numbers."""
    for key, value in report.items():
        numbers = value if isinstance(value, list) else [value]
        if any(isinstance(v, float) and not math.isfinite(v) for v in numbers):
            raise NonFiniteResultError(f"{source} gives a non-finite {key} at p={p!r}")


def _gap(value, ref, mask_measure):
    """|value - ref| / max(|ref|, 1e-300), or None on an empty mask (both energies 0: no meaningful gap)."""
    if not mask_measure:
        return None
    return abs(value - ref) / max(abs(ref), 1e-300)


def _node_table(grid, idx, **columns):
    """A per-node CSV table: the coordinates of grid.nodes[idx], then one column per keyword."""
    header = [f"x{i}" for i in range(grid.dim)] + list(columns)
    rows = zip(grid.nodes[idx], *columns.values())
    return [header] + [tuple(float(v) for v in (*node, *vals)) for node, *vals in rows]


def run_ks(problem, cfg):
    """ks-energy: per-h integrals and the extrapolated limit."""
    space, metric_map, grid = problem.build()
    t0 = time.perf_counter()
    ks = ks_energy(metric_map, grid, cfg)
    report = _report(problem, cfg, "ks-energy", t0, {}, ks=ks, ks_keys=_KS_KEYS + ("inner_measure_exact",))
    table = [("h", "integral")] + list(zip(ks.h_values, ks.h_integrals))
    return report, {"h_table": table}, ks


def run_rep(problem, cfg, form="both"):
    """rep-energy: sphere and/or ball forms of the directional energy."""
    if form not in ("sphere", "ball", "both"):
        raise ConfigError(f"unknown form {form!r}")
    forms = ("sphere", "ball") if form == "both" else (form,)
    _require_sphere(problem)
    space, metric_map, grid = problem.build()
    t0 = time.perf_counter()
    frag = rep_energies(metric_map, grid, cfg, forms=forms)
    values = {"mask_measure": frag.mask_measure}
    if form == "both":
        values["sphere_ball_gap"] = _gap(frag.energy_ball, frag.energy_sphere, frag.mask_measure)
    report = _report(problem, cfg, "rep-energy", t0, values, rep=frag, empty_mask=not frag.mask_measure,
                     field=frag.field)
    return report, {}, frag


def run_compare(problem, cfg):
    """compare: both routes on the same map, with the per-node density gap."""
    _require_sphere(problem)
    space, metric_map, grid = problem.build()
    t0 = time.perf_counter()
    mask = grid.inner_mask(cfg.h0)
    ks = ks_energy(metric_map, grid, cfg, mask=mask)
    frag = rep_energies(metric_map, grid, cfg, forms=("sphere", "ball"), mask=mask)
    gap = _gap(ks.ks_energy, frag.energy_sphere, ks.mask_measure)
    report = _report(problem, cfg, "compare", t0, {"relative_gap": gap}, ks=ks, rep=frag, field=frag.field)
    table = _node_table(
        grid,
        ks.mask_indices,
        ks_density=ks.ks_density,
        rep_density=frag.density_sphere,
        gap=ks.ks_density - frag.density_sphere,
    )
    return report, {"density_gap": table}, (ks, frag)


def run_counterexample(problem, cfg):
    """counterexample: frame sum vs sphere average for the max-norm identity."""
    if problem.space_spec != "max_norm_plane":
        raise ConfigError("counterexample requires the max_norm_plane target")
    if problem.map_spec != "identity":
        raise ConfigError("counterexample requires the identity map")
    if len(problem.lower) != 2:
        raise ConfigError("counterexample requires a 2-d domain")
    space, metric_map, grid = problem.build()
    t0 = time.perf_counter()
    frag = rep_energies(metric_map, grid, cfg, forms=("sphere", "frame"))
    oracle_frame, oracle_sphere = maxnorm_counterexample_constants(cfg.p)
    if frag.mask_measure:
        sphere_density = frag.energy_sphere / frag.mask_measure
        frame_density = frag.frame_sum / frag.mask_measure
        sphere_gap = abs(sphere_density - oracle_sphere)
        frame_gap = abs(frame_density - oracle_frame)
        strict = bool(frame_density > sphere_density)
    else:
        # an empty h0 mask makes the densities 0/0, and every quantity derived from them
        sphere_density = frame_density = sphere_gap = frame_gap = strict = None
    values = {
        "mask_measure": frag.mask_measure,
        "sphere_density": sphere_density,
        "frame_density": frame_density,
        "oracle_sphere_density": oracle_sphere,
        "oracle_frame_density": oracle_frame,
        "sphere_oracle_gap": sphere_gap,
        "frame_oracle_gap": frame_gap,
        "strict_inequality": strict,
        "under_truncation": frag.under_truncation,
    }
    report = _report(problem, cfg, "counterexample", t0, values, empty_mask=not frag.mask_measure,
                     warnings=["frame_sum_not_larger"] if strict is False else [], field=frag.field)
    table = _node_table(
        grid, frag.mask_indices, sphere_density=frag.density_sphere, frame_density=frag.density_frame
    )
    return report, {"densities": table}, frag


_SWEEPS = ("h", "K", "sphere", "delta")


def run_convergence(problem, cfg, sweeps=_SWEEPS):
    """convergence: parameter-sweep tables for plotting."""
    unknown = sorted(set(sweeps) - set(_SWEEPS))
    if unknown:
        raise ConfigError(f"unknown sweep(s) {unknown}; choose from {', '.join(_SWEEPS)}")
    if set(sweeps) & {"K", "sphere", "delta"}:
        _require_sphere(problem)
    if "sphere" in sweeps and len(problem.lower) != 2:
        # the ladder's orders are circle orders; on S^2 order 256 is 131,072 directions per node
        raise ConfigError(f"the sphere sweep needs a 2-d domain, got {len(problem.lower)}-d")
    space, metric_map, grid = problem.build()
    t0 = time.perf_counter()
    mask = grid.inner_mask(cfg.h0)
    tables = {}

    ks = None
    if "h" in sweeps:
        ks = ks_energy(metric_map, grid, cfg, mask=mask)
        tables["h_sweep"] = [("h", "integral")] + list(zip(ks.h_values, ks.h_integrals))

    if "K" in sweeps:
        ladder = []
        k = 16
        while k < cfg.dense_count:
            ladder.append(k)
            k *= 2
        ladder.append(cfg.dense_count)
        # the K-prefix values are snapshots of one running max over the
        # anchor enumeration, so one scan to the largest K gives every row
        cfg_k = replace(cfg, refine=False)
        field = rep_energies(metric_map, grid, cfg_k, forms=("sphere",), prefixes=ladder, mask=mask).field
        rule = cfg_k.sphere_rule(grid.dim)
        rows = [(k, field.energy(rule, cfg.p, grid.node_weight, k)[1]) for k in ladder]
        tables["K_sweep"] = [("K", "rep_energy_sphere_prefix_only")] + rows

    if "sphere" in sweeps:
        # on S^1 each smaller rule's nodes are bit for bit nodes of the
        # order-256 rule, so one field gives every row. A row equals a separate
        # run at its order only as far as each direction keeps its own
        # representative: `_reduce_directions` keeps a class's first
        # occurrence, which can sit 1 ulp from another member. Checked on the
        # catalog, not guaranteed.
        cfg_s = replace(cfg, sphere_order=256, check_truncation=False)
        field = rep_energies(metric_map, grid, cfg_s, forms=("sphere",), mask=mask).field
        rows = []
        for order in (16, 32, 64, 128, 256):
            rule = replace(cfg_s, sphere_order=order).sphere_rule(2)
            rows.append((order, field.energy(rule, cfg.p, grid.node_weight)[1]))
        tables["sphere_sweep"] = [("sphere_order", "rep_energy_sphere")] + rows

    if "delta" in sweeps:
        rows = []
        spacing = float(np.min(grid.spacing))
        for j in (1, 2, 4, 8, 16):
            cfg_d = replace(cfg, fd_step=spacing / j, check_truncation=False)
            frag = rep_energies(metric_map, grid, cfg_d, forms=("sphere",), mask=mask)
            rows.append((spacing / j, frag.energy_sphere))
        tables["delta_sweep"] = [("delta", "rep_energy_sphere")] + rows

    report = _report(problem, cfg, "convergence", t0, {"tables": sorted(tables)}, ks=ks, ks_keys=("ks_energy",),
                     empty_mask=not mask.any())
    return report, tables, None


def run_oracle(which, p, matrix=None):
    """oracle: reference constants as JSON; a non-finite constant is a NonFiniteResultError."""
    if not (math.isfinite(p) and p >= 1):
        raise ConfigError(f"p must be finite and >= 1, got {p}")
    report = {"schema_version": 1, "subcommand": "oracle", "which": which, "p": p}
    if which == "maxnorm":
        frame, sphere = maxnorm_counterexample_constants(p)
        report.update(frame_sum=frame, sphere_average=sphere)
        source = "the maxnorm oracle"
    elif which == "linear":
        if matrix is None:
            raise ConfigError("oracle linear needs --matrix")
        a = _parse_matrix(matrix)
        if a.shape[1] not in (2, 3):
            raise ConfigError(f"the linear oracle needs a 2-d or 3-d domain, got {a.shape[1]}-d")
        report.update(matrix=matrix, density=linear_euclidean_density(a, p))
        if p == 2:
            report["trace_formula"] = float(np.sum(a * a) / a.shape[1])
        source = f"the linear oracle on {matrix!r}"
    else:
        raise ConfigError(f"unknown oracle {which!r}")
    _require_finite(report, source, p)
    return report
