"""The three benchmark workloads: seeded inputs, references, passes and checks.

Each workload is a closed loop over its cases: a case starts only after the
previous one has returned. References come from closed forms or from dense
midpoint sums written here, so they share no code with the package.
"""

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

import ksenergy
import ksenergy.cli
import ksenergy.pipeline

# acceptance tolerances (tests/test_acceptance.py)
GAP_TOL = 2e-2  # criterion 2: two-route relative gap
EUCLIDEAN_REP_TOL = 1e-6  # criterion 3: rep density of linear maps
SPHERE_TOL = 1e-4  # criterion 1: max-norm sphere density
FRAME_TOL = 1e-6  # criterion 1: frame density
KS_TOL = 1e-3  # criterion 3: KS limit density

FRAME_DENSITY = 2.0  # identity into the max-norm plane: g_e1^p + g_e2^p = 1 + 1
H0 = 0.05  # EnergyConfig default erosion depth
QSPLIT_GRADIENT = (0.25, 0.5)  # grad of the qsplit sheet 1 + x1/4 + x2/2
DENSE_ANGLES = 1 << 18


@dataclass(frozen=True)
class Case:
    kind: str  # compare | rep | counterexample | convergence
    map_spec: str
    space: str
    p: float
    resolution: int
    ref: Optional[float]  # reference density on the eroded box, None if unknown
    rep_tol: float

    @property
    def label(self):
        return f"{self.map_spec} -> {self.space} p={self.p:g}"


def draw_params(seed):
    """Map parameters for one seed; seed 0 is the acceptance catalog."""
    if seed == 0:
        return {"linear": (1.0, 0.0, 0.0, 2.0), "winding": 2, "swirl": 0.3}
    # The prefix-only K sweep of a linear map has a relative gap that grows
    # with |A| and with how rotation-like A is (4.2e-5 at diag(0.5, 1.5),
    # 1.05e-4 at [[1.89, 0.24], [-0.25, 1.92]]). These ranges keep it below the
    # seed-independent max-norm case (7.0e-5), so max_rel_gap compares across seeds.
    rng = random.Random(seed)
    a11, a22 = round(rng.uniform(0.5, 1.0), 2), round(rng.uniform(1.5, 2.2), 2)
    a12, a21 = (round(rng.uniform(-0.1, 0.1), 2) + 0.0 for _ in range(2))  # + 0.0: no "-0"
    return {
        "linear": (a11, a12, a21, a22),
        "winding": rng.choice((1, 2, 3)),
        "swirl": round(rng.uniform(0.1, 0.5), 2),
    }


def _sphere_mean(fn):
    """Midpoint average over the unit circle; cell edges sit on multiples of pi/4."""
    theta = (np.arange(DENSE_ANGLES) + 0.5) * (2.0 * math.pi / DENSE_ANGLES)
    return float(np.mean(fn(np.cos(theta), np.sin(theta))))


def reference_density(map_spec, space, p):
    """Limit density of a catalog map (constant over the box), or None."""
    name, _, arg = map_spec.partition(":")
    if name == "identity" and space == "euclidean:2":
        return 1.0
    if name == "identity" and space == "max_norm_plane":
        if p == 2:
            return (2.0 + math.pi) / (2.0 * math.pi)
        return _sphere_mean(lambda c, s: np.maximum(np.abs(c), np.abs(s)) ** p)
    if name == "linear":
        a = np.array([[float(v) for v in row.split(",")] for row in arg.split(";")])
        if p == 2:
            return float(np.sum(a * a)) / 2.0
        return _sphere_mean(lambda c, s: np.hypot(a[0, 0] * c + a[0, 1] * s, a[1, 0] * c + a[1, 1] * s) ** p)
    if name == "winding":
        k = float(arg)
        if p == 2:
            return k * k / 2.0
        return k**p * _sphere_mean(lambda c, s: np.abs(c) ** p)
    if name == "qsplit":
        # the matching distance pairs like sheets: d = sqrt(2) |sigma - sigma'|
        g1, g2 = QSPLIT_GRADIENT
        if p == 2:
            return g1 * g1 + g2 * g2
        return 2.0 ** (p / 2.0) * _sphere_mean(lambda c, s: np.abs(g1 * c + g2 * s) ** p)
    return None  # swirl: checked by the two-route gap alone


def _catalog(params):
    a11, a12, a21, a22 = params["linear"]
    return [
        ("identity", "euclidean:2"),
        (f"linear:{a11:g},{a12:g};{a21:g},{a22:g}", "euclidean:2"),
        ("identity", "max_norm_plane"),
        (f"winding:{params['winding']}", "circle"),
        ("qsplit", "q:2:1"),
        (f"swirl:{params['swirl']:g}", "euclidean:2"),
    ]


def _case(kind, map_spec, space, p, resolution):
    rep_tol = EUCLIDEAN_REP_TOL if space == "euclidean:2" else SPHERE_TOL
    return Case(kind, map_spec, space, p, resolution, reference_density(map_spec, space, p), rep_tol)


def eroded_node_count(resolution, h0=H0):
    """Nodes of the cell-centred unit-square grid farther than h0 from the edge."""
    x = (np.arange(resolution) + 0.5) / resolution
    per_axis = int(np.count_nonzero(np.minimum(x, 1.0 - x) > h0))
    return per_axis * per_axis


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int  # 0 means nproc
    refines: bool  # False: the refinement climb must do no work
    build_cases: object  # seed -> list of Case

    def cases(self, seed):
        return self.build_cases(draw_params(seed))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "compare-cat-32",
            1,
            True,
            lambda prm: [_case("compare", m, s, 2.0, 32) for m, s in _catalog(prm)],
        ),
        # this workload's cases have no free parameters, so the seed changes nothing
        Workload(
            "directional-64-par",
            0,
            True,
            lambda prm: [
                _case("rep", "identity", "max_norm_plane", 3.0, 64),
                _case("rep", "qsplit", "q:2:1", 1.5, 64),
                _case("counterexample", "identity", "max_norm_plane", 2.0, 64),
            ],
        ),
        Workload(
            "sweep-hK-32",
            1,
            False,
            lambda prm: [_case("convergence", m, s, 3.0, 32) for m, s in _catalog(prm)],
        ),
    )
}


# ---------------------------------------------------------------------------
# running one case
# ---------------------------------------------------------------------------


def _problem(case):
    r = case.resolution
    return ksenergy.Problem(case.space, case.map_spec, (0.0, 0.0), (1.0, 1.0), (r, r))


def run_case(case, workers, out_dir, index):
    """Run one case through the package's public entry points; return raw output."""
    if case.kind == "compare":
        json_path = os.path.join(out_dir, f"case{index}.json")
        csv_prefix = os.path.join(out_dir, f"case{index}")
        argv = [
            "compare", "--space", case.space, "--map", case.map_spec,
            "--resolution", str(case.resolution), "--p", repr(case.p),
            "--workers", str(workers), "--json", json_path, "--csv", csv_prefix,
        ]
        return {"exit_code": ksenergy.cli.main(argv), "json": json_path, "csv": csv_prefix + "_density_gap.csv"}
    cfg = ksenergy.EnergyConfig(p=case.p, workers=workers)
    if case.kind == "rep":
        report, _, _ = ksenergy.pipeline.run_rep(_problem(case), cfg)
        return {"report": report}
    if case.kind == "counterexample":
        report, _, _ = ksenergy.pipeline.run_counterexample(_problem(case), cfg)
        return {"report": report}
    report, tables, _ = ksenergy.pipeline.run_convergence(_problem(case), cfg, sweeps=("h", "K"))
    return {"report": report, "tables": tables}


# ---------------------------------------------------------------------------
# checking one case
# ---------------------------------------------------------------------------


@dataclass
class Verdict:
    problems: list
    gap: Optional[float] = None
    oracle_err: Optional[float] = None

    def note_err(self, what, value, reference, tol):
        err = abs(value - reference)
        self.oracle_err = err if self.oracle_err is None else max(self.oracle_err, err)
        if not err <= tol:
            self.problems.append(f"{what} error {err:.3e} > {tol:g}")

    def note_gap(self, what, gap):
        self.gap = gap if self.gap is None else max(self.gap, gap)
        if not gap <= GAP_TOL:
            self.problems.append(f"{what} gap {gap:.3e} > {GAP_TOL:g}")


def check_case(case, out):
    """Compare one case's output with its references and the acceptance tolerances."""
    v = Verdict(problems=[])
    if case.kind == "compare":
        if out["exit_code"] != 0:
            v.problems.append(f"exit code {out['exit_code']}")
            return v
        with open(out["json"]) as fh:
            report = json.load(fh)
        with open(out["csv"]) as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != eroded_node_count(case.resolution):
            v.problems.append(f"density_gap.csv has {rows} rows")
        v.note_gap("ks/rep", report["relative_gap"])
        mask = report["mask_measure"]
        if case.ref is not None:
            v.note_err("ks density", report["ks_energy"] / mask, case.ref, KS_TOL)
            v.note_err("rep density", report["rep_energy_sphere"] / mask, case.ref, case.rep_tol)
    elif case.kind == "rep":
        report = out["report"]
        v.note_gap("sphere/ball", report["sphere_ball_gap"])
        if case.ref is not None:
            v.note_err("rep density", report["rep_energy_sphere"] / report["mask_measure"], case.ref, case.rep_tol)
    elif case.kind == "counterexample":
        report = out["report"]
        v.note_err("sphere density", report["sphere_density"], case.ref, SPHERE_TOL)
        v.note_err("frame density", report["frame_density"], FRAME_DENSITY, FRAME_TOL)
        if not report["strict_inequality"]:
            v.problems.append("frame sum not larger than sphere average")
    else:
        report, k_rows = out["report"], out["tables"]["K_sweep"][1:]
        k_values = [e for _, e in k_rows]
        if any(b < a for a, b in zip(k_values, k_values[1:])):
            v.problems.append("K column decreases")
        v.note_gap("ks/prefix", abs(report["ks_energy"] - k_values[-1]) / abs(k_values[-1]))
        if case.ref is not None:
            mask = eroded_node_count(case.resolution) / case.resolution**2
            v.note_err("ks density", report["ks_energy"] / mask, case.ref, KS_TOL)
    if report.get("under_truncation"):
        v.problems.append("under_truncation")
    return v
