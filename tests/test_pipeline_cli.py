import contextlib
import io
import json
import math
import os
import tempfile
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import run_python
from ksenergy import EnergyConfig, Problem, run_compare, run_convergence, run_counterexample, run_ks, run_oracle, run_rep
from ksenergy.cli import main
from ksenergy.errors import ConfigError, EmptyMaskWarning, KSEnergyWarning, NonFiniteResultError

SMALL = dict(lower=(0.0, 0.0), upper=(1.0, 1.0), resolution=(24, 24))
FAST_CFG = dict(h_count=4, sphere_order=128, ball_order=(8, 64), dense_count=256)


def small_problem(map_spec="identity", space_spec="euclidean:2"):
    return Problem(space_spec=space_spec, map_spec=map_spec, **SMALL)


def run_cli(args):
    """Run `python -m ksenergy.cli` on this checkout's package; returns the CompletedProcess."""
    return run_python(["-m", "ksenergy.cli", *args])


def test_import_leaves_scipy_stats_out():
    """Only the n > 3 sphere rule needs scipy.stats (Sobol) and scipy.special (ndtri).

    Importing scipy.stats is most of an import's time, and scipy.special
    alone adds about 25 MB of resident memory.
    """
    code = ("import sys, ksenergy; "
            "print(sorted(m for m in sys.modules if m.startswith(('scipy.stats', 'scipy.special'))))")
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestRunners:
    def test_compare_identity(self):
        report, tables, _ = run_compare(small_problem(), EnergyConfig(**FAST_CFG))
        assert report["relative_gap"] <= 0.02
        assert report["rep_energy_sphere"] == pytest.approx(report["mask_measure"], rel=1e-6)
        rows = tables["density_gap"]
        assert rows[0][-1] == "gap"
        assert len(rows) - 1 == int(round(report["mask_measure"] / (1 / 24**2)))

    def test_compare_constant_both_zero(self):
        report, _, _ = run_compare(small_problem("constant"), EnergyConfig(**FAST_CFG))
        assert report["ks_energy"] == 0.0
        assert report["rep_energy_sphere"] == 0.0

    def test_counterexample_values(self):
        problem = small_problem("identity", "max_norm_plane")
        report, _, _ = run_counterexample(problem, EnergyConfig(sphere_order=256, **{k: v for k, v in FAST_CFG.items() if k != "sphere_order"}))
        assert report["strict_inequality"]
        assert report["sphere_oracle_gap"] <= 1e-4
        assert report["frame_oracle_gap"] <= 1e-6
        assert report["oracle_frame_density"] == 2.0

    def test_counterexample_density_table(self, tmp_path):
        code = main([
            "frame-vs-sphere", "--space", "max_norm_plane", "--map", "identity",
            "--resolution", "12", "--K", "128", "--sphere-order", "64",
            "--json", str(tmp_path / "fs.json"), "--csv", str(tmp_path / "fs"),
        ])
        assert code == 0
        lines = (tmp_path / "fs_densities.csv").read_text().strip().splitlines()
        assert lines[0] == "x0,x1,sphere_density,frame_density"
        body = json.loads((tmp_path / "fs.json").read_text())
        assert len(lines) - 1 == int(round(body["mask_measure"] * 12**2))

    def test_counterexample_under_truncation_is_coded(self):
        """The 2K probe flag of counterexample gets its coded warning, so --strict sees it."""
        problem = Problem("max_norm_plane", "identity", (0.0, 0.0), (1.0, 1.0), (8, 8))
        cfg = EnergyConfig(dense_count=1, refine=False, sphere_order=16, h_count=3)
        report, _, _ = run_counterexample(problem, cfg)
        assert report["under_truncation"] is True
        assert report["warnings"] == ["under_truncation", "frame_sum_not_larger"]

    def test_probe_of_seeded_rows_is_null(self):
        """With every row seeded, the 2K table is the K table: the probe's energy and flag are null, not a copy."""
        problem = small_problem("swirl:0.3")
        cfg = EnergyConfig(**FAST_CFG)
        for report in (run_compare(problem, cfg)[0], run_rep(problem, cfg)[0]):
            assert report["timing"]["scanned_rows"] == 0
            assert report["rep_energy_sphere_doubled"] is None and report["under_truncation"] is None
            assert "under_truncation" not in report["warnings"]
        report = run_counterexample(small_problem("identity", "max_norm_plane"), cfg)[0]
        assert report["timing"]["scanned_rows"] == 0 and report["under_truncation"] is None
        # scanned rows keep the probe
        report = run_rep(problem, replace(cfg, refine=False))[0]
        assert report["timing"]["seeded_rows"] == 0
        assert report["rep_energy_sphere_doubled"] > 0 and report["under_truncation"] is False

    def test_counterexample_rejects_wrong_map(self):
        with pytest.raises(ConfigError):
            run_counterexample(small_problem("constant", "max_norm_plane"), EnergyConfig(**FAST_CFG))
        with pytest.raises(ConfigError):
            run_counterexample(small_problem("identity", "euclidean:2"), EnergyConfig(**FAST_CFG))

    def test_ks_runner_table(self):
        report, tables, _ = run_ks(small_problem("winding:2", "circle"), EnergyConfig(**FAST_CFG))
        assert report["ks_energy"] == pytest.approx(2.0 * report["mask_measure"], rel=1e-9)
        table = tables["h_table"]
        assert table[0] == ("h", "integral")
        assert len(table) == 5

    def test_rep_runner_forms(self):
        report, _, _ = run_rep(small_problem(), EnergyConfig(**FAST_CFG), form="sphere")
        assert report["rep_energy_ball"] is None
        report, _, _ = run_rep(small_problem(), EnergyConfig(**FAST_CFG), form="both")
        assert report["sphere_ball_gap"] < 5e-4
        with pytest.raises(ConfigError):
            run_rep(small_problem(), EnergyConfig(**FAST_CFG), form="cube")

    def test_convergence_tables(self):
        cfg = EnergyConfig(h_count=4, sphere_order=64, ball_order=(6, 48), dense_count=128)
        report, tables, _ = run_convergence(
            small_problem("identity", "max_norm_plane"), cfg, sweeps=("K", "delta")
        )
        ks = [row[1] for row in tables["K_sweep"][1:]]
        assert all(b >= a - 1e-15 for a, b in zip(ks, ks[1:]))  # monotone sup
        assert len(tables["delta_sweep"]) == 6

    def test_delta_sweep_second_order_on_smooth_map(self):
        cfg = EnergyConfig(h_count=3, sphere_order=64, ball_order=(6, 48), dense_count=128)
        _, tables, _ = run_convergence(small_problem("swirl:0.3"), cfg, sweeps=("delta",))
        rows = tables["delta_sweep"][1:]
        deltas = np.array([r[0] for r in rows[:-1]])
        errs = np.array([abs(r[1] - rows[-1][1]) for r in rows[:-1]])
        keep = errs > 1e-12
        slope = np.polyfit(np.log(deltas[keep]), np.log(errs[keep]), 1)[0]
        assert 1.5 <= slope <= 2.6

    def test_oracle_runner(self):
        out = run_oracle("maxnorm", 2.0)
        assert out["sphere_average"] == pytest.approx((2 + math.pi) / (2 * math.pi), abs=1e-15)
        out = run_oracle("linear", 2.0, matrix="1,0;0,2")
        assert out["density"] == pytest.approx(out["trace_formula"], abs=1e-8)
        with pytest.raises(ConfigError):
            run_oracle("linear", 2.0)
        with pytest.raises(ConfigError):
            run_oracle("cubic", 2.0)


class TestConfigEcho:
    def test_default_echo_is_pinned(self):
        """The fixed ladder and search constants are still echoed, with the values reports always carried."""
        assert EnergyConfig().to_dict() == {
            "p": 2.0, "h0": 0.05, "h_count": 6,
            "h_sequence": [0.025, 0.0125, 0.00625, 0.003125, 0.0015625, 0.00078125],
            "sphere_order": None, "ball_order": None, "dense_count": 512, "fd_step": None,
            "anchor_exclusion": 64.0, "refine_radius": 4.0, "polish_radius": 32.0, "refine": True,
            "check_truncation": True, "truncation_rtol": 0.001, "seed": 0,
        }

    def test_round_trip_reproduces_numbers(self):
        cfg = EnergyConfig(**FAST_CFG)
        report, _, _ = run_compare(small_problem("qsplit", "q:2:1"), cfg)
        echo = report["config"]
        cfg2 = EnergyConfig(
            p=echo["p"],
            h0=echo["h0"],
            h_count=echo["h_count"],
            sphere_order=echo["sphere_order"],
            ball_order=tuple(echo["ball_order"]),
            dense_count=echo["dense_count"],
            fd_step=echo["fd_step"],
            refine=echo["refine"],
            check_truncation=echo["check_truncation"],
            seed=echo["seed"],
        )
        run = report["run"]
        problem = Problem(
            space_spec=run["space"],
            map_spec=run["map"],
            lower=tuple(run["lower"]),
            upper=tuple(run["upper"]),
            resolution=tuple(run["resolution"]),
        )
        report2, _, _ = run_compare(problem, cfg2)
        for key in ("ks_energy", "rep_energy_sphere", "rep_energy_ball", "relative_gap", "h_integrals"):
            assert report2[key] == report[key], key


class TestCli:
    def test_compare_json_and_csv(self, tmp_path):
        out = tmp_path / "r.json"
        code = main([
            "compare", "--space", "euclidean:2", "--map", "identity",
            "--resolution", "16", "--h-count", "3", "--K", "128",
            "--sphere-order", "64", "--ball-order", "6,48",
            "--json", str(out), "--csv", str(tmp_path / "r"),
        ])
        assert code == 0
        body = json.loads(out.read_text())
        assert body["schema_version"] == 1
        assert body["relative_gap"] < 0.02
        assert (tmp_path / "r_density_gap.csv").exists()

    def test_worker_count_never_changes_bytes(self, tmp_path):
        texts = []
        for workers in ("1", "3"):
            out = tmp_path / f"w{workers}.json"
            assert main([
                "compare", "--space", "max_norm_plane", "--map", "identity",
                "--resolution", "24", "--h-count", "3", "--K", "128",
                "--sphere-order", "64", "--ball-order", "6,48",
                "--workers", workers, "--json", str(out),
            ]) == 0
            body = json.loads(out.read_text())
            body.pop("timing")
            texts.append(json.dumps(body, sort_keys=True))
        assert texts[0] == texts[1]

    def test_blas_thread_count_never_changes_bytes(self):
        """64^2 reports under one and two BLAS threads; the max-norm rep_energy_ball once read ...204 and ...203."""
        for args in (["rep-energy", "--space", "max_norm_plane", "--map", "identity", "--p", "2"],
                     ["ks-energy", "--map", "swirl:0.3", "--p", "3"]):
            texts = []
            for threads in ("1", "2"):
                proc = run_python(["-m", "ksenergy.cli", *args], OPENBLAS_NUM_THREADS=threads,
                                  OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
                assert proc.returncode == 0, proc.stderr
                body = json.loads(proc.stdout)
                body.pop("timing")
                texts.append(json.dumps(body, sort_keys=True))
            assert texts[0] == texts[1], args

    @pytest.mark.parametrize(
        "args",
        [
            pytest.param(["compare", "--space", "torus"], id="unknown-space"),
            pytest.param(["ks-energy", "--resolution", "abc"], id="resolution-text"),
            pytest.param(["ks-energy", "--lower", "a,b"], id="lower-text"),
            pytest.param(["ks-energy", "--ball-order", "3"], id="ball-order-one-entry"),
            pytest.param(["ks-energy", "--ball-order", "0,16"], id="ball-order-zero"),
            pytest.param(["ks-energy", "--config", "/nonexistent/ksenergy.json"], id="config-missing"),
            pytest.param(["ks-energy", "--config", "FILE:{bad"], id="config-malformed"),
            pytest.param(["ks-energy", "--config", 'FILE:{"K": "abc"}'], id="config-int-text"),
            pytest.param(["ks-energy", "--config", 'FILE:{"dense_count": 64}'], id="config-dest-spelling"),
            pytest.param(["ks-energy", "--config", 'FILE:{"config": "x.json"}'], id="config-nested"),
            pytest.param(["ks-energy", "--config", 'FILE:{"strict": "yes"}'], id="config-flag-text"),
            pytest.param(["ks-energy", "--config", "FILE:[1, 2]"], id="config-not-object"),
            pytest.param(["ks-energy", "--K", "abc"], id="K-text"),
            pytest.param(["ks-energy", "--p", "abc"], id="p-text"),
            pytest.param(["ks-energy", "--workers", "x"], id="workers-text"),
            pytest.param(["ks-energy", "--no-such-flag", "1"], id="unknown-flag"),
            pytest.param(["no-such-subcommand"], id="unknown-subcommand"),
            pytest.param(["ks-energy", "--resolution", "1"], id="resolution-one"),
            pytest.param(["ks-energy", "--lower", "1,1", "--upper", "0,0"], id="box-inverted"),
            pytest.param(["ks-energy", "--lower", "0,0,0", "--upper", "1,1"], id="box-dimension-mismatch"),
            pytest.param(["ks-energy", "--resolution", "8,8,8"], id="resolution-dimension-mismatch"),
            pytest.param(["ks-energy", "--space", "circle", "--map", "winding:abc"], id="winding-text"),
            pytest.param(["ks-energy", "--map", "swirl:x"], id="swirl-text"),
            pytest.param(["ks-energy", "--map", "constant:a,b"], id="constant-text"),
            pytest.param(["ks-energy", "--space", "circle", "--map", "winding:nan"], id="winding-nan"),
            pytest.param(["ks-energy", "--space", "circle", "--map", "winding:inf"], id="winding-inf"),
            pytest.param(["ks-energy", "--map", "swirl:nan"], id="swirl-nan"),
            pytest.param(["ks-energy", "--map", "constant:nan,0"], id="constant-nan"),
            pytest.param(["ks-energy", "--map", "constant:1,2,3"], id="constant-wrong-length"),
            pytest.param(["ks-energy", "--map", "identity:5"], id="identity-argument"),
            pytest.param(["ks-energy", "--space", "q:2:1", "--map", "qsplit:junk"], id="qsplit-argument"),
            pytest.param(["ks-energy", "--p", "nan"], id="p-nan"),
            pytest.param(["ks-energy", "--p", "inf"], id="p-inf"),
            pytest.param(["ks-energy", "--h0", "nan"], id="h0-nan"),
            pytest.param(["oracle", "--which", "maxnorm", "--p", "nan"], id="oracle-p-nan"),
            pytest.param(["oracle", "--which", "linear", "--matrix", "1,0;0,2", "--p", "0.5"], id="oracle-p-below-one"),
            pytest.param(["oracle", "--which", "linear", "--matrix", "1;2"], id="oracle-matrix-1d"),
            pytest.param(["oracle", "--which", "linear", "--matrix", "nan,0;0,1"], id="oracle-matrix-nan"),
            pytest.param(["rep-energy", "--delta=-0.01"], id="delta-negative"),
            pytest.param(["rep-energy", "--delta", "0"], id="delta-zero"),
            pytest.param(["rep-energy", "--delta", "inf"], id="delta-inf"),
            pytest.param(["rep-energy", "--sphere-order", "0"], id="sphere-order-zero"),
            # 600 halvings of h0 take h**2 to 0; 1100 take h itself to 0 (and 2.0**1100 overflows)
            pytest.param(["ks-energy", "--resolution", "8", "--ball-order", "4,16", "--h-count", "600"],
                         id="h-count-600"),
            pytest.param(["ks-energy", "--resolution", "8", "--ball-order", "4,16", "--h-count", "1100"],
                         id="h-count-1100"),
            pytest.param(["convergence", "--resolution", "8", "--sweep", "foo"], id="sweep-unknown"),
            pytest.param(["convergence", "--resolution", "8", "--sweep", "h,"], id="sweep-empty-name"),
            pytest.param(["convergence", "--map", "linear:1,0,0;0,1,0", "--lower", "0,0,0", "--upper", "1,1,1",
                          "--resolution", "4", "--sweep", "sphere"], id="sphere-sweep-3d"),
            pytest.param(["ks-energy", "--resolution", "8", "--json", "/nonexistent/x.json"], id="json-unwritable"),
            pytest.param(["ks-energy", "--resolution", "8", "--csv", "/nonexistent/p"], id="csv-unwritable"),
            pytest.param(["ks-energy", "--resolution", "8", "--json", "DIR"], id="json-directory"),
        ],
    )
    def test_config_error_exit_code(self, capsys, tmp_path, args):
        """Malformed input exits 2 with one JSON ConfigError on stderr, before any numerics.

        An argument `FILE:text` stands for the path of a config file holding `text`,
        and `DIR` for an existing directory.
        """
        cfg_file = tmp_path / "cfg.json"
        for arg in args:
            if arg.startswith("FILE:"):
                cfg_file.write_text(arg[len("FILE:"):])
        args = [str(cfg_file) if a.startswith("FILE:") else str(tmp_path) if a == "DIR" else a for a in args]
        if "--json" not in args:
            args += ["--json", "/dev/null"]
        assert main(args) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err)["error"]["type"] == "ConfigError"

    def test_output_writability_is_read_from_the_target(self, capsys, tmp_path, monkeypatch):
        """An existing --json file is judged by its own permission, not its directory's."""
        target = tmp_path / "out.json"
        target.write_text("")
        access = os.access
        # as for a user who may write the file (or /dev/null) but not its directory
        monkeypatch.setattr(os, "access", lambda path, mode: not os.path.isdir(path) and access(path, mode))
        args = ["ks-energy", "--resolution", "8", "--h-count", "3", "--ball-order", "4,16"]
        assert main([*args, "--json", str(target)]) == 0
        assert json.loads(target.read_text())["ks_energy"] is not None
        assert main([*args, "--json", "/dev/null"]) == 0
        capsys.readouterr()
        # a new file needs a writable directory, an existing one its own permission
        for path in (tmp_path / "new.json", target):
            assert main([*args, "--json", str(path)]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert json.loads(err)["error"]["type"] == "ConfigError"
            monkeypatch.setattr(os, "access", lambda path, mode: False)

    def test_h_count_below_three_is_config_error(self, capsys):
        assert main(["ks-energy", "--h-count", "2", "--resolution", "8", "--json", "/dev/null"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ConfigError"

    @pytest.mark.parametrize("subcommand", ["ks-energy", "rep-energy", "convergence", "oracle"])
    def test_non_finite_result_is_structured_error(self, subcommand):
        """An overflowing map exits 1 with one JSON error on stderr: no traceback, no numpy warnings."""
        if subcommand == "oracle":
            args = ["oracle", "--which", "linear", "--matrix", "1e200,0;0,1", "--p", "2"]
        else:
            # the K sweep scans prefixes only: no truncation probe, no refinement
            extra = ["--sweep", "K"] if subcommand == "convergence" else []
            args = ([subcommand, "--map", "linear:1e200,0;0,1", "--resolution", "8", "--h-count", "3",
                     "--ball-order", "4,16", "--K", "32", "--sphere-order", "16"] + extra)
        proc = run_cli(args)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        err = json.loads(proc.stderr)
        assert err["error"]["type"] == "NonFiniteResultError"
        assert ("1e200,0;0,1" if subcommand == "oracle" else "linear:1e200,0;0,1") in err["error"]["message"]

    def test_non_finite_report_number_is_structured_error(self, capsys):
        """Finite moduli g whose g**p overflows: exit 1 with one JSON error, no report."""
        args = ["rep-energy", "--map", "linear:1,0;0,2", "--p", "2000", "--resolution", "8", "--h-count", "3",
                "--K", "32", "--sphere-order", "16", "--ball-order", "4,16"]
        assert main(args) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err)["error"]["type"] == "NonFiniteResultError"

    def test_non_finite_scan_without_probe_or_refinement(self):
        cfg = EnergyConfig(check_truncation=False, refine=False, dense_count=32, sphere_order=16)
        with pytest.raises(NonFiniteResultError):
            run_rep(small_problem("linear:1e200,0;0,1"), cfg, form="sphere")

    def test_empty_mask_reports_null_gap_and_deficit(self, tmp_path):
        out = tmp_path / "e.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["compare", "--resolution", "8", "--h0", "0.49", "--h-count", "3", "--json", str(out)])
        assert code == 0
        assert [type(w.message) for w in caught] == [EmptyMaskWarning]
        body = json.loads(out.read_text())
        assert body["relative_gap"] is None
        assert body["localization_deficit"] is None
        assert body["warnings"] == ["empty_mask"]

    def test_empty_mask_counterexample_reports_null_densities(self, tmp_path):
        out = tmp_path / "e.json"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EmptyMaskWarning)
            code = main(["counterexample", "--space", "max_norm_plane", "--map", "identity",
                         "--resolution", "8", "--h0", "0.49", "--h-count", "3", "--K", "64",
                         "--sphere-order", "16", "--json", str(out)])
        assert code == 0
        body = json.loads(out.read_text())
        for key in ("sphere_density", "frame_density", "sphere_oracle_gap", "frame_oracle_gap", "strict_inequality"):
            assert body[key] is None, key
        assert body["oracle_frame_density"] == 2.0
        assert body["warnings"] == ["empty_mask"]

    def test_empty_mask_rep_energy_reports_null_gap(self, tmp_path):
        out = tmp_path / "e.json"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EmptyMaskWarning)
            code = main(["rep-energy", "--space", "max_norm_plane", "--map", "identity",
                         "--resolution", "8", "--h0", "0.49", "--h-count", "3", "--K", "64",
                         "--sphere-order", "16", "--ball-order", "4,16", "--json", str(out)])
        assert code == 0
        body = json.loads(out.read_text())
        assert body["sphere_ball_gap"] is None
        assert body["warnings"] == ["empty_mask"]

    def test_empty_mask_convergence_is_coded(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EmptyMaskWarning)
            report, _, _ = run_convergence(
                Problem("euclidean:2", "identity", (0.0, 0.0), (1.0, 1.0), (8, 8)),
                EnergyConfig(h0=0.49, h_count=3, dense_count=32, sphere_order=16),
                sweeps=("K",),
            )
        assert report["warnings"] == ["empty_mask"]

    def test_successful_run_keeps_python_warnings_off_stderr(self):
        """The coded `warnings` entry is the only trace of an empty mask on the command line."""
        proc = run_cli(["compare", "--resolution", "8", "--h0", "0.49", "--h-count", "3"])
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["warnings"] == ["empty_mask"]

    @pytest.mark.parametrize("subcommand", ["rep-energy", "compare", "convergence"])
    def test_one_d_domain_rejected_on_directional_route(self, capsys, subcommand):
        args = ["--space", "euclidean:1", "--map", "identity", "--lower", "0", "--upper", "1", "--resolution", "16"]
        assert main([subcommand, *args, "--json", "/dev/null"]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "ConfigError"
        # the KS route has no sphere directions and works in 1-d
        assert main(["ks-energy", *args, "--h-count", "3", "--json", "/dev/null"]) == 0

    def test_counterexample_requires_setup(self):
        assert main(["counterexample", "--space", "euclidean:2", "--json", "/dev/null"]) == 2

    def test_strict_promotes_warnings(self, tmp_path):
        args = [
            "ks-energy", "--space", "euclidean:2", "--map", "identity",
            "--resolution", "8", "--h0", "0.49", "--h-count", "3",
            "--ball-order", "4,16", "--json", str(tmp_path / "w.json"),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(args) == 0
            assert main(args + ["--strict"]) == 3

    def test_oracle_cli(self, capsys):
        assert main(["oracle", "--which", "maxnorm", "--p", "2"]) == 0
        body = json.loads(capsys.readouterr().out)
        assert body["frame_sum"] == 2.0

    def test_config_file_defaults(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"resolution": "12", "h-count": 3, "K": 64,
                                        "sphere-order": 32, "ball-order": "4,16"}))
        out = tmp_path / "out.json"
        assert main(["ks-energy", "--config", str(cfg_file), "--json", str(out)]) == 0
        body = json.loads(out.read_text())
        assert body["run"]["resolution"] == [12, 12]
        assert body["config"]["dense_count"] == 64

    def test_config_file_values_parse_like_flags(self, tmp_path, capsys):
        """{"p": "2"} in a file, 2 as a JSON number, and --p 2 give one report; a typed flag beats the file."""
        args = ["ks-energy", "--resolution", "8", "--h-count", "3", "--ball-order", "4,16"]
        reports = []
        for entries, extra in [({}, ["--p", "2"]), ({"p": "2"}, []), ({"p": 2}, []), ({"p": 3, "strict": False}, ["--p", "2"])]:
            cfg_file = tmp_path / "cfg.json"
            cfg_file.write_text(json.dumps(entries))
            assert main([*args, "--config", str(cfg_file), *extra]) == 0
            body = json.loads(capsys.readouterr().out)
            body.pop("timing")
            reports.append(body)
        assert reports[0]["config"]["p"] == 2.0
        assert all(r == reports[0] for r in reports)

    def test_config_file_true_is_a_bare_flag(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"strict": True, "no-truncation-check": True, "h0": 0.49}))
        args = ["ks-energy", "--resolution", "8", "--h-count", "3", "--ball-order", "4,16", "--config", str(cfg_file)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EmptyMaskWarning)
            assert main(args) == 3
        body = json.loads(capsys.readouterr().out)
        assert body["config"]["check_truncation"] is False
        assert body["warnings"] == ["empty_mask"]


# Free text has no digits, so it never sizes a run: every number a fuzzed run
# sees comes from the small ranges below.
FREE_TEXT = st.text(st.characters(blacklist_categories=("Cs", "Nd")), max_size=12)
# (space, map, lower, upper); no 3-d box: there the sphere sweep's fixed
# orders (up to 256 x 512 directions) make one run cost seconds and 100s of MB
SCENARIOS = [
    (space, map_spec, lower, upper)
    for space, map_spec in [
        ("euclidean:2", "identity"), ("euclidean:2", "linear:1,0;0,2"), ("euclidean:2", "swirl:0.3"),
        ("euclidean:2", "constant"), ("euclidean:2", "linear:1e200,0;0,1"), ("max_norm_plane", "identity"),
        ("circle", "winding:2"), ("q:2:1", "qsplit"), ("q:2:2", "constant"),
    ]
    for lower, upper in [("0,0", "1,1"), ("-1,0.5", "0,1")]
] + [("euclidean:1", "identity", "0", "1"), ("circle", "winding:2", "0", "1")]


# text that int() or float() rejects, as flag values (free text below adds more)
NOT_INT = st.sampled_from(["abc", "1.5", "1e3", "0x10", "", "2,3"])
NOT_FLOAT = st.sampled_from(["abc", "1,5", "", "1..2", "--1"])
# --config entries that are no flag, or values no flag takes: each is a ConfigError
WILD_ENTRIES = st.one_of(
    st.sampled_from([("torus", 1), ("dense_count", 64), ("h_count", 3), ("map_spec", "identity"),
                     ("strict", "yes"), ("config", "x.json")]),
    st.tuples(st.sampled_from(["p", "K", "space", "lower", "ball-order"]), st.sampled_from([[4, 16], {"p": 2}, True])),
)


@st.composite
def cli_args(draw):
    """(argv, entries, full_argv): a mostly valid flag set, part of it moved into --config entries.

    Each flag is wild one time in twenty: a listed bad value, or free text
    for a string flag, or any float or number-free text for a float flag. A
    random subset of the flags moves from `full_argv` into `entries` (None
    when none moves), each as its string or, for a number, as either; one
    entry in twenty is replaced by a wild one.
    """

    def pick(usual, *wild, text=True):
        if draw(st.integers(0, 19)):
            return draw(usual)
        return draw(st.one_of(*wild, FREE_TEXT) if text else st.one_of(*wild))

    subcommand = draw(st.sampled_from(["ks-energy", "rep-energy", "compare", "counterexample", "convergence"]))
    usual = SCENARIOS
    if subcommand == "counterexample":
        usual = [s for s in SCENARIOS if s[:2] == ("max_norm_plane", "identity")]
    space, map_spec, lower, upper = pick(st.sampled_from(usual), st.sampled_from(SCENARIOS), text=False)
    flags = {
        "--space": pick(st.just(space), st.sampled_from(["euclidean:0", "q:2", "torus"])),
        "--map": pick(st.just(map_spec), st.sampled_from(["winding:x", "swirl:", "constant:a,b", "linear:1,0"])),
        "--resolution": pick(st.sampled_from(["2", "5", "8", "6,4"]), st.sampled_from(["1", "0", "8,8,8", "4,-4"])),
        "--lower": pick(st.just(lower), st.sampled_from(["nan,0", "1,1", "0"])),
        "--upper": pick(st.just(upper), st.sampled_from(["1,inf", "0,0"])),
        "--ball-order": pick(st.just("4,16"), st.sampled_from(["4", "4,16,4", "0,16", "4,0", "-1,16"])),
        "--p": pick(st.floats(1.0, 4.0), st.floats(), NOT_FLOAT),
        "--h0": pick(st.floats(0.01, 0.3), st.floats(), NOT_FLOAT),
        "--h-count": pick(st.just(3), NOT_INT),
        "--K": pick(st.integers(1, 32), st.integers(-2, 0), NOT_INT),
        "--sphere-order": pick(st.integers(1, 16), st.integers(-2, 0), NOT_INT),
        "--delta": pick(st.none(), st.floats(1e-4, 0.1), st.floats(), NOT_FLOAT, text=False),
        "--strict": draw(st.booleans()) or None,
    }
    if subcommand == "convergence":
        flags["--sweep"] = pick(st.sampled_from(["h", "K", "h,K", "sphere", "delta", "h,K,sphere,delta"]),
                                st.sampled_from(["", "h,,K", "foo"]))
    flags = {k: v for k, v in flags.items() if v is not None}

    def argv(names):
        return [subcommand] + [k if v is True else f"{k}={v}" for k, v in flags.items() if k in names]

    moved = draw(st.sets(st.sampled_from(sorted(flags))))
    entries = {}
    for name in sorted(moved):
        value = flags[name]
        if not draw(st.integers(0, 19)):
            key, value = draw(WILD_ENTRIES)
        elif isinstance(value, str) or (value is not True and draw(st.booleans())):
            key, value = name[2:], str(value)
        else:
            key = name[2:]
        entries[key] = value
    return argv(set(flags) - moved), entries if moved else None, argv(flags)


def _run_main(argv):
    """main(argv) as on the command line: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        # each package warning is also a coded `warnings` entry
        warnings.simplefilter("ignore", KSEnergyWarning)
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(cli_args())
def test_cli_fuzz_exits_with_one_json_object(case):
    """Any flag set, on the command line or in a --config file, exits 0-3 with exactly one JSON
    object on each non-empty stream; a run that reads a file and succeeds gives the report of the
    same flags typed on the command line."""
    argv, entries, full_argv = case
    with tempfile.TemporaryDirectory() as tmp:
        if entries is not None:
            path = os.path.join(tmp, "cfg.json")
            with open(path, "w") as fh:
                json.dump(entries, fh)
            argv = argv + [f"--config={path}"]
        code, stdout, stderr = _run_main(argv)
    assert code in (0, 1, 2, 3), (argv, entries)
    streams = {"stdout": stdout, "stderr": stderr}
    for name, text in streams.items():
        if text:
            assert isinstance(json.loads(text), dict), (argv, entries, name, text)
    # stdout holds the report (exit 0, or 3 under --strict); stderr the error
    assert bool(stdout) == (code in (0, 3)), (argv, entries, streams)
    assert bool(stderr) == (code != 0), (argv, entries, streams)
    if code == 0 and entries is not None:
        code_cli, stdout_cli, _ = _run_main(full_argv)
        assert code_cli == 0, (full_argv, entries)
        reports = [json.loads(text) for text in (stdout, stdout_cli)]
        for report in reports:
            report.pop("timing")
        assert reports[0] == reports[1], (full_argv, entries)
