"""Run orchestration shared by the CLI and the test-suite.

Each runner returns a JSON-ready dict (reports) plus optional CSV tables;
the echoed configuration block is sufficient to reproduce the run.
"""

import time
from dataclasses import dataclass, replace

import numpy as np

from .directional import rep_energies
from .errors import ConfigError
from .grid import build_grid
from .ks import ks_energy
from .maps import make_map
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
        grid = build_grid(np.array(self.lower), np.array(self.upper), self.resolution)
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


def _base_report(problem, cfg, subcommand):
    return {
        "schema_version": 1,
        "subcommand": subcommand,
        "run": problem.echo(),
        "config": cfg.to_dict(),
        "warnings": [],
        "timing": {},
    }


def run_ks(problem, cfg):
    """ks-energy: per-h integrals and the extrapolated limit."""
    space, metric_map, grid = problem.build()
    report = _base_report(problem, cfg, "ks-energy")
    t0 = time.perf_counter()
    ks = ks_energy(metric_map, grid, cfg)
    report.update(
        {
            "h_values": ks.h_values,
            "h_integrals": ks.h_integrals,
            "ks_energy": ks.ks_energy,
            "ks_order": ks.ks_order,
            "ks_error_estimate": ks.ks_error_estimate,
            "mask_measure": ks.mask_measure,
            "domain_measure": ks.domain_measure,
            "inner_measure_exact": ks.inner_measure_exact,
            "localization_deficit": ks.localization_deficit,
        }
    )
    report["warnings"] = list(ks.warnings)
    report["timing"]["total_s"] = time.perf_counter() - t0
    table = [("h", "integral")] + list(zip(ks.h_values, ks.h_integrals))
    return report, {"h_table": table}, ks


def run_rep(problem, cfg, form="both"):
    """rep-energy: sphere and/or ball forms of the directional energy."""
    if form not in ("sphere", "ball", "both"):
        raise ConfigError(f"unknown form {form!r}")
    forms = ("sphere", "ball") if form == "both" else (form,)
    _require_sphere(problem)
    space, metric_map, grid = problem.build()
    report = _base_report(problem, cfg, "rep-energy")
    t0 = time.perf_counter()
    frag = rep_energies(metric_map, grid, cfg, forms=forms)
    report.update(
        {
            "rep_energy_sphere": frag.energy_sphere,
            "rep_energy_ball": frag.energy_ball,
            "mask_measure": frag.mask_measure,
            "dense_count": cfg.dense_count,
            "rep_energy_sphere_doubled": frag.energy_sphere_doubled,
            "under_truncation": frag.under_truncation,
        }
    )
    if not frag.mask_measure:
        report["warnings"].append("empty_mask")
    if frag.energy_sphere is not None and frag.energy_ball is not None:
        ref = max(abs(frag.energy_sphere), 1e-300)
        # an empty h0 mask makes both energies 0 and their gap meaningless
        report["sphere_ball_gap"] = abs(frag.energy_sphere - frag.energy_ball) / ref if frag.mask_measure else None
    if frag.under_truncation:
        report["warnings"].append("under_truncation")
    report["timing"]["total_s"] = time.perf_counter() - t0
    return report, {}, frag


def run_compare(problem, cfg):
    """compare: both routes on the same map, with the per-node density gap."""
    _require_sphere(problem)
    space, metric_map, grid = problem.build()
    report = _base_report(problem, cfg, "compare")
    t0 = time.perf_counter()
    mask = grid.inner_mask(cfg.h0)
    ks = ks_energy(metric_map, grid, cfg, mask=mask)
    frag = rep_energies(metric_map, grid, cfg, forms=("sphere", "ball"), mask=mask)
    ks.rep_energy_sphere = frag.energy_sphere
    ks.rep_energy_ball = frag.energy_ball
    ks.rep_density = frag.density_sphere
    ks.truncation_energy_doubled = frag.energy_sphere_doubled
    ks.under_truncation = frag.under_truncation
    gap = ks.relative_gap()
    report.update(
        {
            "h_values": ks.h_values,
            "h_integrals": ks.h_integrals,
            "ks_energy": ks.ks_energy,
            "ks_order": ks.ks_order,
            "ks_error_estimate": ks.ks_error_estimate,
            "rep_energy_sphere": frag.energy_sphere,
            "rep_energy_ball": frag.energy_ball,
            "relative_gap": gap,
            "mask_measure": ks.mask_measure,
            "domain_measure": ks.domain_measure,
            "localization_deficit": ks.localization_deficit,
            "dense_count": cfg.dense_count,
            "rep_energy_sphere_doubled": frag.energy_sphere_doubled,
            "under_truncation": frag.under_truncation,
        }
    )
    report["warnings"] = list(ks.warnings) + (["under_truncation"] if frag.under_truncation else [])
    report["timing"]["total_s"] = time.perf_counter() - t0

    header = [f"x{i}" for i in range(grid.dim)] + ["ks_density", "rep_density", "gap"]
    nodes = grid.nodes[ks.mask_indices]
    table = [header]
    for node, kd, rd in zip(nodes, ks.ks_density, frag.density_sphere):
        table.append(tuple(float(c) for c in node) + (float(kd), float(rd), float(kd - rd)))
    return report, {"density_gap": table}, (ks, frag)


def run_counterexample(problem, cfg, oracle_nodes=10_000_000):
    """counterexample: frame sum vs sphere average for the max-norm identity."""
    if problem.space_spec != "max_norm_plane":
        raise ConfigError("counterexample requires the max_norm_plane target")
    if problem.map_spec != "identity":
        raise ConfigError("counterexample requires the identity map")
    if len(problem.lower) != 2:
        raise ConfigError("counterexample requires a 2-d domain")
    space, metric_map, grid = problem.build()
    report = _base_report(problem, cfg, "counterexample")
    t0 = time.perf_counter()
    frag = rep_energies(metric_map, grid, cfg, forms=("sphere", "frame"))
    oracle_frame, oracle_sphere = maxnorm_counterexample_constants(cfg.p, nodes=oracle_nodes)
    if frag.mask_measure:
        sphere_density = frag.energy_sphere / frag.mask_measure
        frame_density = frag.frame_sum / frag.mask_measure
        sphere_gap = abs(sphere_density - oracle_sphere)
        frame_gap = abs(frame_density - oracle_frame)
        strict = bool(frame_density > sphere_density)
    else:
        # an empty h0 mask makes the densities 0/0, and every quantity derived from them
        sphere_density = frame_density = sphere_gap = frame_gap = strict = None
        report["warnings"].append("empty_mask")
    report.update(
        {
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
    )
    if strict is False:
        report["warnings"].append("frame_sum_not_larger")
    report["timing"]["total_s"] = time.perf_counter() - t0
    header = [f"x{i}" for i in range(grid.dim)] + ["sphere_density", "frame_density"]
    table = [header]
    for node, sd, fd in zip(grid.nodes[frag.mask_indices], frag.density_sphere, frag.density_frame):
        table.append(tuple(float(c) for c in node) + (float(sd), float(fd)))
    return report, {"densities": table}, frag


def run_convergence(problem, cfg, sweeps=("h", "K", "sphere", "delta")):
    """convergence: parameter-sweep tables for plotting."""
    if set(sweeps) & {"K", "sphere", "delta"}:
        _require_sphere(problem)
    space, metric_map, grid = problem.build()
    report = _base_report(problem, cfg, "convergence")
    t0 = time.perf_counter()
    mask = grid.inner_mask(cfg.h0)
    tables = {}

    if "h" in sweeps:
        ks = ks_energy(metric_map, grid, cfg, keep_fields=False, mask=mask)
        tables["h_sweep"] = [("h", "integral")] + list(zip(ks.h_values, ks.h_integrals))
        report["ks_energy"] = ks.ks_energy
        report["warnings"] = list(ks.warnings)
    elif not mask.any():
        report["warnings"].append("empty_mask")

    if "K" in sweeps:
        ladder = []
        k = 16
        while k < cfg.dense_count:
            ladder.append(k)
            k *= 2
        ladder.append(cfg.dense_count)
        # the K-prefix values are snapshots of one running max over the
        # anchor enumeration, so one scan to the largest K gives every row
        cfg_k = replace(cfg, check_truncation=False, refine_stages=0)
        frag = rep_energies(metric_map, grid, cfg_k, forms=("sphere",), prefixes=ladder, mask=mask)
        rows = [(k, frag.energy_sphere_prefix[k]) for k in ladder]
        tables["K_sweep"] = [("K", "rep_energy_sphere_prefix_only")] + rows

    if "sphere" in sweeps:
        rows = []
        for order in (16, 32, 64, 128, 256):
            cfg_o = replace(cfg, sphere_order=order, check_truncation=False)
            frag = rep_energies(metric_map, grid, cfg_o, forms=("sphere",), mask=mask)
            rows.append((order, frag.energy_sphere))
        tables["sphere_sweep"] = [("sphere_order", "rep_energy_sphere")] + rows

    if "delta" in sweeps:
        rows = []
        spacing = float(np.min(grid.spacing))
        for j in (1, 2, 4, 8, 16):
            cfg_d = replace(cfg, fd_step=spacing / j, check_truncation=False)
            frag = rep_energies(metric_map, grid, cfg_d, forms=("sphere",), mask=mask)
            rows.append((spacing / j, frag.energy_sphere))
        tables["delta_sweep"] = [("delta", "rep_energy_sphere")] + rows

    report["timing"]["total_s"] = time.perf_counter() - t0
    report["tables"] = sorted(tables)
    return report, tables, None


def run_oracle(which, p, matrix=None, nodes=None):
    """oracle: reference constants as JSON."""
    if which == "maxnorm":
        frame, sphere = maxnorm_counterexample_constants(p, nodes=nodes or 10_000_000)
        return {
            "schema_version": 1,
            "subcommand": "oracle",
            "which": which,
            "p": p,
            "frame_sum": frame,
            "sphere_average": sphere,
        }
    if which == "linear":
        if matrix is None:
            raise ConfigError("oracle linear needs --matrix")
        from .maps import _parse_matrix

        a = _parse_matrix(matrix)
        out = {
            "schema_version": 1,
            "subcommand": "oracle",
            "which": which,
            "p": p,
            "matrix": matrix,
            "density": linear_euclidean_density(a, p, nodes=nodes or 1_000_000),
        }
        if p == 2:
            out["trace_formula"] = float(np.sum(a * a) / a.shape[1])
        return out
    raise ConfigError(f"unknown oracle {which!r}")
