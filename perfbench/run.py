"""ksenergy benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`. Workloads (see workloads.py):

* compare-cat-32      `ksenergy compare` in-process on the six-case catalog,
                      32^2 grid, p = 2, workers = 1: every layer, single-threaded.
* directional-64-par  `run_rep` (sphere + ball) and `run_counterexample` at
                      the default 64^2 grid with workers = nproc: the only
                      multi-threaded workload, and p != 2 on the directional route.
* sweep-hK-32         `run_convergence(sweeps=("h", "K"))` on the catalog at
                      32^2, p = 3, workers = 1: refinement does no work.

--trace 0 repeats whole passes until S seconds have gone by (at least one)
and reports the end-to-end metrics: median pass time, set-up time, peak
RSS, worst two-route gap and worst reference error. --trace 1 runs one
untraced pass, then two traced passes (at the workload's worker count and at
the other of 1 / nproc), checks that every count repeats, and reports the
per-layer metrics. Spans and the environment record go to .perfbench_out/.
The last line of stdout is the JSON result.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
NPROC = len(os.sched_getaffinity(0))
SETUP_REPEATS = 3
BLAS_THREADS = 1  # with workers <= nproc this keeps total threads <= nproc

IMPORT_PROBE = "import time; t = time.perf_counter(); import ksenergy; print(time.perf_counter() - t)"

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "max_rel_gap": "1", "max_oracle_err": "1"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def timed_import():
    t0 = time.perf_counter()
    import ksenergy  # noqa: F401

    return time.perf_counter() - t0


def child_import_seconds(env):
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True
    )
    return float(out.stdout.strip().splitlines()[-1])


def environment_record():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    pkg = os.path.join(SRC, "ksenergy")
    lines = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                lines += sum(1 for _ in fh)
    return {
        "nproc": NPROC,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "src_lines": lines,
    }


def run_pass(wl_module, cases, workers, out_dir):
    """One closed-loop pass; returns (seconds, per-case outputs or exceptions)."""
    outputs, case_s = [], []
    t0 = time.perf_counter()
    for i, case in enumerate(cases):
        try:
            outputs.append(wl_module.run_case(case, workers, out_dir, i))
        except Exception as exc:  # noqa: BLE001 - a failing case is counted, the pass goes on
            traceback.print_exc(file=sys.stderr)
            outputs.append(exc)
        case_s.append(time.perf_counter() - t0 - sum(case_s))
    seconds = time.perf_counter() - t0
    print(json.dumps({"workers": workers, "pass_s": round(seconds, 4), "case_s": [round(t, 4) for t in case_s]}))
    return seconds, outputs


def check_pass(wl_module, cases, outputs):
    """Returns (failed count, worst gap, worst reference error)."""
    failed, gaps, errs = 0, [], []
    for case, out in zip(cases, outputs):
        if isinstance(out, Exception):
            problems = [f"{type(out).__name__}: {out}"]
        else:
            try:
                verdict = wl_module.check_case(case, out)
            except (OSError, KeyError, TypeError, ValueError) as exc:
                problems = [f"unreadable output: {exc!r}"]
            else:
                problems = verdict.problems
                print(json.dumps({"case": case.label, "gap": verdict.gap, "oracle_err": verdict.oracle_err}))
                gaps += [verdict.gap] if verdict.gap is not None else []
                errs += [verdict.oracle_err] if verdict.oracle_err is not None else []
        if problems:
            failed += 1
            print(f"FAIL {case.label}: {'; '.join(problems)}", file=sys.stderr)
    # a pass with no readable case is already incorrect; 0.0 keeps the line valid JSON
    return failed, max(gaps, default=0.0), max(errs, default=0.0)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ksenergy", "__init__.py")):
        print(f"no ksenergy sources under {SRC}", file=sys.stderr)
        return 2
    env_threads = {k: str(BLAS_THREADS) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    os.environ.update(env_threads)
    sys.path.insert(0, SRC)
    child_env = dict(os.environ, PYTHONPATH=SRC)

    import_samples = [timed_import()]
    import workloads as wl
    from tracing import COUNT_METRICS, Tracer, layer_metrics, unit_of

    if args.workload not in wl.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    import_samples += [child_import_seconds(child_env) for _ in range(SETUP_REPEATS - 1)]
    build_samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cases = workload.cases(args.seed)
        build_samples.append(time.perf_counter() - t0)
    setup_s = statistics.median(import_samples) + statistics.median(build_samples)

    workers = workload.workers or NPROC
    out_dir = os.path.join(OUT, args.workload)
    os.makedirs(out_dir, exist_ok=True)
    env = environment_record()
    print(json.dumps({"env": env, "workload": args.workload, "seed": args.seed,
                      "cases": [c.label for c in cases]}))

    attempted = failed = 0
    self_checks = []
    if args.trace == 0:
        pass_times, gaps, errs = [], [], []
        started = time.perf_counter()
        while not pass_times or time.perf_counter() - started < args.seconds:
            seconds, outputs = run_pass(wl, cases, workers, out_dir)
            pass_times.append(seconds)
            n_failed, gap, err = check_pass(wl, cases, outputs)
            gaps.append(gap)
            errs.append(err)
            attempted += len(cases)
            failed += n_failed
        values = {
            "wall_s": statistics.median(pass_times),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "max_rel_gap": max(gaps),
            "max_oracle_err": max(errs),
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    else:
        untraced_s, outputs = run_pass(wl, cases, workers, out_dir)
        n_failed, _, _ = check_pass(wl, cases, outputs)
        attempted, failed = len(cases), n_failed
        tracer = Tracer()
        tracer.install()
        traced = []
        try:
            for w in (workers, NPROC if workers == 1 else 1):
                seconds, outputs = run_pass(wl, cases, w, out_dir)
                traced.append((w, seconds, tracer.take_spans()))
                n_failed, _, _ = check_pass(wl, cases, outputs)
                attempted += len(cases)
                failed += n_failed
        finally:
            tracer.uninstall()
        layers = [layer_metrics(spans) for _, _, spans in traced]
        values = dict(layers[0])
        values["setup.import_s"] = statistics.median(import_samples)
        values["trace.overhead_ratio"] = traced[0][1] / untraced_s
        for name in COUNT_METRICS:
            if layers[0][name] != layers[1][name]:
                self_checks.append(f"{name} differs: {layers[0][name]} at workers {traced[0][0]}, "
                                   f"{layers[1][name]} at workers {traced[1][0]}")
        if not workload.refines:
            for name in ("spaces.distance.climb_pairs", "spaces.snap.rows"):
                if values[name] != 0:
                    self_checks.append(f"{name} is {values[name]}, expected 0 without refinement")
        with open(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"), "w") as fh:
            json.dump({"env": env, "workload": args.workload, "seed": args.seed,
                       "span_fields": ["id", "parent", "name", "thread", "start", "end", "work", "tag"],
                       "passes": [{"workers": w, "seconds": s, "spans": spans} for w, s, spans in traced]}, fh)
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
    for problem in self_checks:
        print(f"SELF-CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0 and not self_checks, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
