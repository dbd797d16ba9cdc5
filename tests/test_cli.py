import csv
import dataclasses
import hashlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import breakcoag.cli as cli
import breakcoag.diagnostics as diagnostics
from breakcoag import DaughterSpec, InitialCondition, KernelSpec, ProbSpec
from breakcoag.errors import ConfigError


MINIMAL = {
    "grid": {"x_min": 1e-3, "x_max": 1e2, "cells": 80},
    "kernel": {"family": "constant", "c": 1.0},
    "daughter": {"family": "uniform"},
    "prob": {"form": "constant", "value": 1.0},
    "initial": {"family": "exponential", "rate": 1.0, "mass": 1.0},
    "control": {"t_end": 1.0, "outputs": 6},
    "experiments": ["run"],
}


def _write(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _run_in_subprocess(tmp_path, cfg, probe):
    """``breakcoag run`` of ``cfg`` in a fresh interpreter: its exit code
    and the value of the expression ``probe`` afterwards, as words."""
    script = ("import sys\nfrom breakcoag.cli import main\n"
              "code = main(sys.argv[1:])\n"
              f"print(code, {probe})")
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run(
        [sys.executable, "-c", script, "run", _write(tmp_path, cfg),
         "--out", str(tmp_path / "results")],
        env=env, capture_output=True, text=True, check=True)
    return out.stdout.split()[-2:]


class TestParseConfig:
    def test_minimal_valid(self, tmp_path):
        cfg = cli.parse_config(_write(tmp_path, MINIMAL))
        assert cfg.kernel.family == "constant"
        assert cfg.control.t_end == 1.0
        assert len(cfg.config_hash) == 16

    def test_out_of_range_probability(self, tmp_path):
        bad = json.loads(json.dumps(MINIMAL))
        bad["prob"]["value"] = 1.5
        with pytest.raises(ConfigError):
            cli.parse_config(_write(tmp_path, bad))

    def test_per_parent_with_singular_kernel(self, tmp_path):
        bad = json.loads(json.dumps(MINIMAL))
        bad["kernel"] = {"family": "sum_product", "zeta": -0.25, "eta": 0.5}
        bad["daughter"] = {"family": "power_each", "nu": 0.0}
        with pytest.raises(ConfigError):
            cli.parse_config(_write(tmp_path, bad))

    def test_unknown_keys_rejected(self, tmp_path):
        bad = json.loads(json.dumps(MINIMAL))
        bad["grid"]["spacing"] = "log"
        with pytest.raises(ConfigError, match="spacing"):
            cli.parse_config(_write(tmp_path, bad))

    @pytest.mark.parametrize("section", [
        "grid", "kernel", "daughter", "prob", "initial", "control",
        "options"])
    def test_unknown_key_named(self, tmp_path, section):
        cfg = json.loads(json.dumps(MINIMAL))
        cfg.setdefault(section, {})["bogus"] = 1
        with pytest.raises(ConfigError, match="unknown keys in "
                           f"{section}: \\['bogus'\\]"):
            cli.parse_config(_write(tmp_path, cfg))

    @pytest.mark.parametrize("section,value,key", [
        ("grid", {"x_min": 1e-3, "cells": 80}, "x_max"),
        ("kernel", {"c": 1.0}, "family"),
        ("kernel", {"family": "sum_product", "zeta": 0.0}, "eta"),
        ("kernel", {"family": "table"}, "path"),
        ("daughter", {"family": "power_total"}, "nu"),
        ("prob", {"value": 0.5}, "form"),
        ("prob", {"form": "small_volume_floor", "E_small": 0.5}, "E_large"),
        ("initial", {"family": "power_cutoff", "p": 0.0}, "x_c"),
        ("initial", {"family": "tabulated"}, "path"),
        ("control", {"outputs": 6}, "t_end"),
        ("config", None, "grid")])
    def test_missing_key_named(self, tmp_path, section, value, key):
        cfg = json.loads(json.dumps(MINIMAL))
        if value is None:
            del cfg[key]
        else:
            cfg[section] = value
        with pytest.raises(ConfigError, match="missing required key "
                           f"'{key}' in {section}"):
            cli.parse_config(_write(tmp_path, cfg))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            cli.parse_config("/nonexistent/config.json")

    def test_override_changes_hash(self, tmp_path):
        path = _write(tmp_path, MINIMAL)
        base = cli.parse_config(path)
        mod = cli.parse_config(path, overrides=("control.t_end=2.0",))
        assert mod.control.t_end == 2.0
        assert mod.config_hash != base.config_hash

    @pytest.mark.parametrize("case", ["plain", "override", "non-ascii"])
    def test_config_hash_is_sha256_of_sorted_compact_json(self, tmp_path,
                                                           case):
        raw = json.loads(json.dumps(MINIMAL))
        overrides = ()
        if case == "override":
            overrides = ("control.t_end=2.0", "grid.cells=90")
        elif case == "non-ascii":
            data = tmp_path / "données_φ.csv"
            data.write_text("x,f\n0.01,1.0\n1.0,0.5\n10.0,0.1\n",
                            encoding="utf-8")
            raw["initial"] = {"family": "tabulated", "path": str(data)}
        cfg = cli.parse_config(_write(tmp_path, raw), overrides=overrides)
        if case == "override":
            raw["control"]["t_end"], raw["grid"]["cells"] = 2.0, 90
        text = json.dumps(raw, sort_keys=True, separators=(",", ":"))
        assert cfg.config_hash == hashlib.sha256(
            text.encode()).hexdigest()[:16]


class TestMain:
    def test_run_exit_zero_and_artifacts(self, tmp_path):
        path = _write(tmp_path, MINIMAL)
        out = tmp_path / "results"
        assert cli.main(["run", path, "--out", str(out)]) == 0
        assert (out / "hypothesis_report.json").is_file()
        assert (out / "moments.csv").is_file()
        assert (out / "experiments.json").is_file()
        report = json.loads((out / "hypothesis_report.json").read_text())
        assert "checks" in report and "config_hash" in report

    def test_outputs_are_deterministic(self, tmp_path):
        path = _write(tmp_path, MINIMAL)
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli.main(["run", path, "--out", str(out)]) == 0
            blobs.append((out / "moments.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_config_hash_header_on_outputs(self, tmp_path):
        path = _write(tmp_path, MINIMAL)
        out = tmp_path / "results"
        cli.main(["run", path, "--out", str(out)])
        cfg = cli.parse_config(path)
        first = (out / "moments.csv").read_text().splitlines()[0]
        assert first == f"# config_hash={cfg.config_hash}"

    @pytest.mark.skipif(cli.sha256.__module__ == "_hashlib",
                        reason="interpreter built without its own SHA-256")
    def test_run_loads_no_openssl(self, tmp_path):
        # the config hash uses CPython's own SHA-256: hashlib's OpenSSL
        # backend would add megabytes to every run's resident memory
        probe = "'_hashlib' in sys.modules"
        assert _run_in_subprocess(tmp_path, MINIMAL, probe) == ["0", "False"]

    def test_point_mass_run_imports_no_scipy(self, tmp_path):
        # scipy is a test dependency: point_mass data integrate the
        # Gaussian with math.erf
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["initial"] = {"family": "point_mass", "x0": 1.0, "w": 0.1}
        probe = "any(m.split('.')[0] == 'scipy' for m in sys.modules)"
        assert _run_in_subprocess(tmp_path, cfg, probe) == ["0", "False"]

    def test_config_error_exit_two(self, tmp_path):
        bad = json.loads(json.dumps(MINIMAL))
        bad["prob"]["value"] = 2.0
        assert cli.main(["run", _write(tmp_path, bad)]) == 2

    def test_verify_exit_zero(self, tmp_path, capsys, monkeypatch):
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        report = tmp_path / "report"
        assert cli.main(["verify", _write(tmp_path, MINIMAL),
                         "--out", str(report)]) == 0
        out = capsys.readouterr().out
        assert "checks" in out
        assert (report / "hypothesis_report.json").is_file()
        assert not (cwd / "results").exists()

    def test_output_time_outside_horizon_exit_two(self, tmp_path):
        for bad in ([0.0, 0.5, 1.5], [-0.1, 0.5, 1.0]):
            cfg = json.loads(json.dumps(MINIMAL))
            cfg["control"] = {"t_end": 1.0, "output_times": bad}
            out = tmp_path / "results"
            code = cli.main(["run", _write(tmp_path, cfg), "--out", str(out)])
            assert code == 2
            assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("override", [
        "control.outputs=-1", "control.outputs=abc", "control.t_end=x",
        "control.output_times=5", "grid.cells=10.5", "initial.rate=a",
        "control.rtol=NaN", "control.atol=NaN", "control.t_end=1e400",
        "control.method=euler", "control.dt=0.1",
        "control.outputs=3.7", "control.outputs=1", "control.outputs=true",
        "options.n_trunc=0", "options.n_trunc=-5", "options.n_trunc=abc",
        "options.mass_tol=x", "options.moment_orders=5", "options.sweep_E=3",
        "options.offgrid_loss=maybe", "options.theta=abc",
        "options.perturbation=x", "options.gel_threshold=x",
        "options.mass_tol=-1", "options.mass_tol=0", "options.mass_tol=NaN",
        "options.mass_tol=Infinity", "options.gel_threshold=-1",
        "options.gel_threshold=0", "options.gel_threshold=1",
        "options.gel_threshold=NaN", "options.moment_orders=[NaN]",
        "options.moment_orders=[1,Infinity]", "control.rtol=1e999",
        "control.rtol=Infinity", "control.atol=1e999", "options.theta=0",
        "options.theta=1", "options.theta=NaN", "options.perturbation=0",
        "options.perturbation=-1", "options.perturbation=Infinity",
        "options.sweep_E=[2]", "options.sweep_E=[0.5,-0.1]",
        "options.sweep_E=[NaN]", "control.t_end=true", "control.rtol=true",
        "control.atol=true", "initial.rate=true", "kernel.c=true",
        "prob.value=true", "grid.x_max=true", "options.n_trunc=true",
        "options.mass_tol=true", "options.sweep_E=[0.5,true]",
        "options.moment_orders=[true]"])
    def test_malformed_value_exit_two(self, tmp_path, override):
        out = tmp_path / "results"
        code = cli.main(["run", _write(tmp_path, MINIMAL), "--out", str(out),
                         "--override", override])
        assert code == 2
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("override", [
        "options.theta=2", "options.perturbation=-1", "options.sweep_E=[2]"])
    def test_options_checked_before_any_work(self, tmp_path, monkeypatch,
                                             override):
        def build_tables(*args, **kwargs):
            raise AssertionError("tables built before the options were checked")

        monkeypatch.setattr(cli, "build_tables", build_tables)
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["experiments"] = ["run", "contraction", "sweep", "dlvp"]
        out = tmp_path / "results"
        code = cli.main(["run", _write(tmp_path, cfg), "--out", str(out),
                         "--override", override])
        assert code == 2
        assert not out.exists()

    def test_dlvp_on_a_two_decade_grid(self, tmp_path):
        # the grid ends far above 1 / j_last: the weighted limit at 0 is
        # read there, at the lower end of Phi's range, not at the grid's
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["grid"] = {"x_min": 1e-1, "x_max": 1e1, "cells": 40}
        cfg["experiments"] = ["dlvp"]
        out = tmp_path / "results"
        assert cli.main(["run", _write(tmp_path, cfg), "--out", str(out)]) == 0
        assert json.loads((out / "experiments.json").read_text())["dlvp"][
            "ok"]

    def test_contraction_gate_failure(self, tmp_path):
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["kernel"] = {"family": "product"}
        cfg["control"]["t_end"] = 0.2
        cfg["experiments"] = ["contraction"]
        out = tmp_path / "results"
        code = cli.main(["run", _write(tmp_path, cfg), "--out", str(out)])
        assert code == 2
        assert not out.exists() or not any(out.iterdir())

    def test_experiments_reuse_the_main_run(self, tmp_path, monkeypatch):
        # contraction integrates only the perturbed data against the main
        # trajectory; the sweep builds one operator per E from the main one
        counts = {"integrate": 0, "build_tables": 0}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        for module in (cli, diagnostics):
            counted(module, "integrate")
            counted(module, "build_tables")
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["prob"]["value"] = 0.5
        cfg["experiments"] = ["run", "contraction", "sweep"]
        cfg["options"] = {"sweep_E": [0.0, 0.5, 1.0]}
        out = tmp_path / "results"
        assert cli.main(["run", _write(tmp_path, cfg), "--out", str(out)]) == 0
        assert counts == {"integrate": 5, "build_tables": 4}
        exp = json.loads((out / "experiments.json").read_text())
        assert exp["contraction"]["ok"] and len(exp["e_sweep"]) == 3

    def test_table_kernel_on_its_own_box_runs(self, tmp_path):
        # the growth check samples (1e-4, 1e4)^2 by default; a table that
        # covers only the grid's range must be sampled inside its box
        axis = np.geomspace(1e-3, 1e2, 6)
        rows = [f"{x!r},{y!r},{x + y!r}" for x in axis.tolist()
                for y in axis.tolist()]
        (tmp_path / "kernel.csv").write_text("x,y,K\n" + "\n".join(rows))
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["grid"] = {"x_min": 1e-3, "x_max": 1e2, "cells": 30}
        cfg["kernel"] = {"family": "table",
                         "path": str(tmp_path / "kernel.csv")}
        out = tmp_path / "results"
        assert cli.main(["run", _write(tmp_path, cfg), "--out", str(out)]) == 0
        assert (out / "moments.csv").is_file()
        assert (out / "trajectory_0005.csv").is_file()

    @pytest.mark.filterwarnings("error")
    def test_table_kernel_run_asserts_mass(self, tmp_path):
        # a table kernel leaves p2 and p400 n/a, but the capped system
        # conserves mass whatever the kernel; its k1 = 200 overflows the
        # M0 envelope, which is then n/a
        axis = np.geomspace(1e-3, 1e2, 6).tolist()
        rows = [f"{x!r},{y!r},{x + y!r}" for x in axis for y in axis]
        (tmp_path / "kernel.csv").write_text("x,y,K\n" + "\n".join(rows))
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["grid"] = {"x_min": 1e-3, "x_max": 1e2, "cells": 30}
        cfg["kernel"] = {"family": "table",
                         "path": str(tmp_path / "kernel.csv")}
        cfg["daughter"] = {"family": "power_total", "nu": 0.0}
        cfg["prob"]["value"] = 0.5
        cfg["control"] = {"t_end": 2.0, "outputs": 6}
        out = tmp_path / "results"
        assert cli.main(["run", _write(tmp_path, cfg), "--out", str(out)]) == 0
        exp = json.loads((out / "experiments.json").read_text())
        assert exp["mass_conservation"]["asserted"]
        assert exp["mass_conservation"]["ok"]
        assert exp["apriori_bounds"]["M0"]["status"] == "n/a"

    @pytest.mark.filterwarnings("error")
    def test_zero_initial_mass_runs(self, tmp_path):
        # no particles: M0 stays 0 under the envelope rho + M0(0) = 0
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["grid"] = {"x_min": 1e-4, "x_max": 1e3, "cells": 40}
        cfg["kernel"] = {"family": "sum_product", "zeta": 0.0, "eta": 1.0}
        cfg["daughter"] = {"family": "power_total", "nu": 0.0}
        cfg["prob"]["value"] = 0.5
        cfg["initial"]["mass"] = 0.0
        cfg["control"] = {"t_end": 0.1, "outputs": 6}
        out = tmp_path / "results"
        assert cli.main(["run", _write(tmp_path, cfg), "--out", str(out)]) == 0
        exp = json.loads((out / "experiments.json").read_text())
        assert exp["apriori_bounds"]["M0"] == {"status": "pass",
                                               "max_ratio": 0.0}
        assert exp["failures"] == []

    @pytest.mark.filterwarnings("error")
    def test_zero_initial_mass_sweep_runs(self, tmp_path):
        # M0(0) = 0: the sweep's M0 ratio is 0, like its M_{-2 alpha} ratio
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["initial"]["mass"] = 0.0
        cfg["experiments"] = ["sweep"]
        cfg["options"] = {"sweep_E": [0.0, 1.0]}
        out = tmp_path / "results"
        assert cli.main(["run", _write(tmp_path, cfg), "--out", str(out)]) == 0
        rows = json.loads((out / "experiments.json").read_text())["e_sweep"]
        assert [(r["M0_ratio"], r["Mneg_ratio"]) for r in rows] == [
            (0.0, 0.0), (0.0, 0.0)]

    def test_linear_run_on_a_grid_of_cell_ratio_4_to_the_fifth(self, tmp_path):
        # 2 c_i falls on a cell edge up to rounding on this grid
        cfg = {"grid": {"x_min": 1e-3, "x_max": 4e-3, "cells": 5},
               "initial": {"family": "exponential", "rate": 0.995701,
                           "mass": 1.0},
               "control": {"rtol": 1e-06, "t_end": 0.1, "outputs": 6},
               "kernel": {"family": "sum_product", "zeta": 0.0, "eta": 1.0},
               "daughter": {"family": "power_total", "nu": 0.0},
               "prob": {"form": "constant", "value": 0.496148},
               "experiments": ["run"]}
        out = tmp_path / "results"
        assert cli.main(["run", _write(tmp_path, cfg), "--out", str(out)]) == 0
        assert len(list(out.glob("trajectory_*.csv"))) == 6
        assert (out / "moments.csv").is_file()
        exp = json.loads((out / "experiments.json").read_text())
        assert exp["mass_conservation"]["ok"] and exp["failures"] == []

    def test_outputs_and_output_times_exit_two(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["control"]["output_times"] = [0.0, 0.5, 1.0]
        out = tmp_path / "results"
        assert cli.main(["run", _write(tmp_path, cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "outputs" in err and "output_times" in err
        assert not out.exists()
        # either key alone is read, and a malformed one still exits 2
        for control in ({"output_times": [0.0, 0.5, 1.0]},
                        {"outputs": 3}):
            cfg["control"] = {"t_end": 1.0, **control}
            assert cli.parse_config(
                _write(tmp_path, cfg)).control.output_times == (0.0, 0.5, 1.0)
        cfg["control"] = {"t_end": 1.0, "output_times": 5}
        assert cli.main(["run", _write(tmp_path, cfg), "--out", str(out)]) == 2

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_initial_table_exit_two(self, tmp_path, capsys, bad):
        rows = [f"{x!r},1.0" for x in np.geomspace(1e-3, 1e2, 8).tolist()]
        rows[3] = rows[3].replace("1.0", bad)
        (tmp_path / "initial.csv").write_text("x,f\n" + "\n".join(rows))
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["initial"] = {"family": "tabulated",
                          "path": str(tmp_path / "initial.csv")}
        out = tmp_path / "results"
        assert cli.main(["run", _write(tmp_path, cfg), "--out", str(out)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section, family", [("initial", "tabulated"),
                                                 ("kernel", "table")])
    def test_missing_table_file_exit_two(self, tmp_path, capsys, section,
                                         family):
        cfg = json.loads(json.dumps(MINIMAL))
        cfg[section] = {"family": family,
                        "path": str(tmp_path / "missing.csv")}
        out = tmp_path / "results"
        assert cli.main(["run", _write(tmp_path, cfg), "--out", str(out)]) == 2
        assert "cannot read" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("experiments", [["run"], ["sweep"]],
                             ids=["run", "sweep"])
    def test_table_kernel_off_the_grid_exit_two(self, tmp_path, capsys,
                                                monkeypatch, experiments):
        # the table covers (1e-3, 1e2), the grid (1e-4, 1e3)
        axis = np.geomspace(1e-3, 1e2, 6).tolist()
        rows = [f"{x!r},{y!r},{x + y!r}" for x in axis for y in axis]
        (tmp_path / "kernel.csv").write_text("x,y,K\n" + "\n".join(rows))
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["grid"] = {"x_min": 1e-4, "x_max": 1e3, "cells": 30}
        cfg["kernel"] = {"family": "table",
                         "path": str(tmp_path / "kernel.csv")}
        cfg["experiments"] = experiments
        path = _write(tmp_path, cfg)

        def fail(*args, **kwargs):
            raise AssertionError("tables built on a grid the kernel misses")

        monkeypatch.setattr(cli, "build_tables", fail)
        monkeypatch.setattr(cli, "e_sweep", fail)
        out = tmp_path / "results"
        assert cli.main(["run", path, "--out", str(out)]) == 2
        assert "kernel not defined on the grid" in capsys.readouterr().err
        assert not out.exists()
        # verify does not use the grid
        assert cli.main(["verify", path, "--out", str(tmp_path / "v")]) == 0

    def test_asymmetric_kernel_table_exit_two(self, tmp_path, capsys):
        # K(x_a, y_b) = a + 1 on axes that differ in their last point: the
        # gains would read one half of K and the loss the other, leaking mass
        x = np.geomspace(1e-3, 1e2, 5).tolist()
        y = np.geomspace(1e-3, 1.0001e2, 5).tolist()
        rows = [f"{u!r},{v!r},{a + 1.0!r}" for a, u in enumerate(x) for v in y]
        (tmp_path / "kernel.csv").write_text("x,y,K\n" + "\n".join(rows))
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["grid"] = {"x_min": 1e-3, "x_max": 1e2, "cells": 60}
        cfg["kernel"] = {"family": "table",
                         "path": str(tmp_path / "kernel.csv")}
        cfg["daughter"] = {"family": "power_total", "nu": 0.0}
        cfg["prob"]["value"] = 0.5
        cfg["control"] = {"t_end": 2.0, "outputs": 6}
        out = tmp_path / "results"
        assert cli.main(["run", _write(tmp_path, cfg), "--out", str(out)]) == 2
        assert "symmetric" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_kernel_table_exit_two(self, tmp_path, capsys):
        axis = np.geomspace(1e-3, 1e2, 6).tolist()
        rows = [f"{x!r},{y!r},{x + y!r}" for x in axis for y in axis]
        rows[7] = rows[7].rsplit(",", 1)[0] + ",nan"
        (tmp_path / "kernel.csv").write_text("x,y,K\n" + "\n".join(rows))
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["grid"] = {"x_min": 1e-3, "x_max": 1e2, "cells": 30}
        cfg["kernel"] = {"family": "table",
                         "path": str(tmp_path / "kernel.csv")}
        assert cli.main(["run", _write(tmp_path, cfg), "--out",
                         str(tmp_path / "results")]) == 2
        assert "kernel table values must be finite" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("daughter", ["power_total", "power_each"])
    def test_table_prob_run_asserts_mass(self, tmp_path, daughter):
        # a tabulated E: the operator stores its own coalescence rates
        # and, per parent, its own breakage block
        axis = np.geomspace(1e-3, 1e2, 5).tolist()
        rows = [f"{u!r},{v!r},{0.2 + 0.6 * math.exp(-u - v)!r}"
                for u in axis for v in axis]
        (tmp_path / "prob.csv").write_text("x,y,E\n" + "\n".join(rows))
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["grid"] = {"x_min": 1e-3, "x_max": 1e2, "cells": 30}
        cfg["kernel"] = {"family": "additive"}
        cfg["daughter"] = {"family": daughter, "nu": 0.0}
        cfg["prob"] = {"form": "table", "path": str(tmp_path / "prob.csv")}
        out = tmp_path / "results"
        assert cli.main(["run", _write(tmp_path, cfg), "--out", str(out)]) == 0
        exp = json.loads((out / "experiments.json").read_text())
        assert exp["mass_conservation"]["asserted"]
        assert exp["mass_conservation"]["ok"]

    def test_asymmetric_prob_table_on_distinct_axes_conserves_mass(
            self, tmp_path):
        # a 5-point x axis and a 4-point y axis: the interpolated E is not
        # symmetric, E(x, y) != E(y, x), but every pair's coalescence and
        # both parents' breakage read the one value E(smaller, larger)
        xs = np.geomspace(1e-3, 1e2, 5).tolist()
        ys = np.geomspace(1e-3, 1.0001e2, 4).tolist()
        rows = [f"{u!r},{v!r},{0.2 + 0.6 * math.exp(-u - v)!r}"
                for u in xs for v in ys]
        (tmp_path / "prob.csv").write_text("x,y,E\n" + "\n".join(rows))
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["grid"] = {"x_min": 1e-3, "x_max": 1e2, "cells": 30}
        cfg["kernel"] = {"family": "additive"}
        cfg["daughter"] = {"family": "power_each", "nu": 0.0}
        cfg["prob"] = {"form": "table", "path": str(tmp_path / "prob.csv")}
        out = tmp_path / "results"
        assert cli.main(["run", _write(tmp_path, cfg), "--out", str(out)]) == 0
        mass = json.loads((out / "experiments.json").read_text())[
            "mass_conservation"]
        assert mass["asserted"] and mass["ok"]
        assert mass["max_drift"] <= 1e-12

    def test_asymmetric_prob_table_exit_two(self, tmp_path, capsys):
        # E(x_a, y_b) = 0.1 (a + 1) on one shared axis
        axis = np.geomspace(1e-3, 1e2, 5).tolist()
        rows = [f"{u!r},{v!r},{0.1 * (a + 1)!r}"
                for a, u in enumerate(axis) for v in axis]
        (tmp_path / "prob.csv").write_text("x,y,E\n" + "\n".join(rows))
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["prob"] = {"form": "table", "path": str(tmp_path / "prob.csv")}
        out = tmp_path / "results"
        assert cli.main(["run", _write(tmp_path, cfg), "--out", str(out)]) == 2
        assert "symmetric" in capsys.readouterr().err
        assert not out.exists()

    def test_method_names_one_integrator(self, tmp_path):
        # "heun" is the legacy name of the one integrator, "dopri5"
        outs = []
        for method in ("dopri5", "heun"):
            out = tmp_path / method
            assert cli.main(["run", _write(tmp_path, MINIMAL), "--out",
                             str(out), "--override",
                             f"control.method={method}"]) == 0
            outs.append((out / "moments.csv").read_text().splitlines()[1:])
        assert outs[0] == outs[1]

    def test_gel_experiment_reports_loss(self, tmp_path):
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["grid"] = {"x_min": 1e-2, "x_max": 1e3, "cells": 100}
        cfg["kernel"] = {"family": "product"}
        cfg["control"] = {"t_end": 1.0, "outputs": 21}
        cfg["experiments"] = ["gel"]
        cfg["options"] = {"offgrid_loss": True}
        out = tmp_path / "results"
        assert cli.main(["run", _write(tmp_path, cfg), "--out", str(out)]) == 0
        exp = json.loads((out / "experiments.json").read_text())
        assert exp["gelation"]["onset"] is not None

    def test_assertion_failure_exit_four(self, tmp_path):
        # mass-conserving class asserted, but the gelation setup leaks mass
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["grid"] = {"x_min": 1e-3, "x_max": 50.0, "cells": 80}
        cfg["kernel"] = {"family": "additive"}
        cfg["control"] = {"t_end": 2.0, "outputs": 11}
        cfg["experiments"] = ["run"]
        cfg["options"] = {"offgrid_loss": True, "mass_tol": 1e-10}
        code = cli.main(["run", _write(tmp_path, cfg),
                         "--out", str(tmp_path / "results")])
        assert code == 4


def _strict_loads(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


class TestOutputs:
    def test_json_outputs_are_strict(self, tmp_path, capsys):
        # K = x + y leaves the sub-quadratic and singular checks n/a
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["kernel"] = {"family": "additive"}
        cfg["experiments"] = ["run", "verify", "gel", "sweep"]
        cfg["options"] = {"sweep_E": [0.5, 1.0]}
        path = _write(tmp_path, cfg)
        out = tmp_path / "results"
        assert cli.main(["run", path, "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli.main(["verify", path, "--out", str(tmp_path / "v")]) == 0
        printed = capsys.readouterr().out.removesuffix("ok\n")
        texts = [p.read_text() for p in sorted(out.glob("*.json"))]
        texts += [(tmp_path / "v" / "hypothesis_report.json").read_text(),
                  printed]
        assert len(texts) == 4
        experiments, report, _, _ = [_strict_loads(t) for t in texts]
        assert experiments["e_sweep"]
        assert None in [c["residual"] for c in report["checks"].values()]

    def test_sweep_keeps_offgrid_loss(self, tmp_path):
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["grid"] = {"x_min": 1e-2, "x_max": 1e3, "cells": 100}
        cfg["kernel"] = {"family": "product"}
        cfg["control"] = {"t_end": 1.0, "outputs": 21}
        cfg["experiments"] = ["gel", "sweep"]
        cfg["options"] = {"offgrid_loss": True, "sweep_E": [0.9]}
        out = tmp_path / "results"
        assert cli.main(["run", _write(tmp_path, cfg), "--out", str(out)]) == 0
        exp = json.loads((out / "experiments.json").read_text())
        assert exp["gelation"]["onset"] is not None
        mass = [float(row.split(",")[2]) for row in
                (out / "moments.csv").read_text().splitlines()[2:]]
        main_loss = 1.0 - mass[-1] / mass[0]
        sweep_loss = exp["e_sweep"][0]["mass_drift"]
        assert main_loss > 0.1
        assert 0.5 * main_loss < sweep_loss < 2.0 * main_loss


def _oracle_csv(path, header, rows, config_hash):
    """The csv-module rendering the writer must reproduce byte for byte."""
    with path.open("w", newline="") as fh:
        fh.write(f"# config_hash={config_hash}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])
    return path.read_bytes()


class TestCsvWriter:
    def _random_table(self, rng, rows, cols):
        mantissa = rng.standard_normal((rows, cols))
        return mantissa * 10.0 ** rng.integers(-300, 300, (rows, cols))

    def _check(self, tmp_path, header, table, prefix_columns=()):
        new = tmp_path / "new.csv"
        prefix = None
        if prefix_columns:
            x, dx = (c.tolist() for c in prefix_columns)
            prefix = [f"{a!r},{b!r}," for a, b in zip(x, dx)]
        cli._write_csv(new, header, table, "0123abcd", prefix)
        rows = np.column_stack([*prefix_columns, table])
        assert new.read_bytes() == _oracle_csv(tmp_path / "oracle.csv",
                                               header, rows, "0123abcd")

    def test_matches_csv_module_without_prefix(self, tmp_path):
        rng = np.random.default_rng(11)
        for cols in (1, 2, 6):
            header = [f"M_{m}" for m in range(cols)]
            self._check(tmp_path, header, self._random_table(rng, 37, cols))

    def test_matches_csv_module_with_prefix(self, tmp_path):
        rng = np.random.default_rng(12)
        x = np.geomspace(1e-4, 1e3, 50)
        dx = rng.random(50) * x
        f = self._random_table(rng, 50, 1)
        self._check(tmp_path, ["x_center", "dx", "f"], f, (x, dx))

    def test_edge_values(self, tmp_path):
        edge = np.array([0.0, -0.0, 5e-324, 1e-310, 1e300, -1e300,
                         np.inf, -np.inf, np.nan])
        table = np.column_stack([edge, edge[::-1], np.roll(edge, 3)])
        self._check(tmp_path, ["a", "b", "c"], table)
        self._check(tmp_path, ["x_center", "dx", "f"], edge[:, None],
                    (edge[::-1], np.roll(edge, 4)))

    def test_run_outputs_match_csv_module(self, tmp_path):
        out = tmp_path / "results"
        assert cli.main(["run", _write(tmp_path, MINIMAL),
                         "--out", str(out)]) == 0
        for name in ("moments.csv", "trajectory_0000.csv",
                     "trajectory_0005.csv"):
            lines = (out / name).read_text().splitlines()
            rows = [[float(v) for v in line.split(",")] for line in lines[2:]]
            assert (out / name).read_bytes() == _oracle_csv(
                tmp_path / "oracle.csv", lines[1].split(","), rows,
                lines[0].removeprefix("# config_hash="))


def _random_config(rng, folder, span=None):
    """A small scenario drawn over every kernel, daughter, prob and initial
    family, on a grid of at most 24 cells, of cell ratio 4^(1/q) or random,
    or on the grid span (x_min, x_max) if given; table files are written
    to ``folder``."""
    x_min = float(rng.choice([1e-3, 0.2555, 7.0]))
    if span is not None:
        x_min, x_max = span
        cells = int(rng.integers(2, 25))
    elif rng.random() < 0.5:
        # for odd q, twice a cell centre falls on an edge up to rounding
        q = int(rng.choice([1, 3, 5]))
        cells = int(rng.integers(2, min(8 * q, 24) + 1))
        x_max = x_min * 4.0 ** (cells / q)
    else:
        cells = int(rng.integers(2, 25))
        x_max = x_min * 10.0 ** rng.uniform(0.3, 5.0)
    mid = float(np.sqrt(x_min * x_max))
    axis = np.geomspace(x_min, x_max, 4).tolist()
    kernel = [
        {"family": "smoluchowski"},
        {"family": "sum_product", "zeta": -0.25, "eta": 0.5},
        {"family": "sum_product", "zeta": 0.0, "eta": 1.0},
        {"family": "bg_ratio", "sigma": float(rng.uniform(0.0, 0.9)),
         "eta": float(rng.uniform())},
        {"family": "product"}, {"family": "additive"},
        {"family": "constant", "c": float(rng.uniform(0.5, 2.0))},
        {"family": "table", "path": str(folder / "kernel.csv")},
    ][rng.integers(8)]
    rows = [f"{x!r},{y!r},{x + y!r}" for x in axis for y in axis]
    (folder / "kernel.csv").write_text("x,y,K\n" + "\n".join(rows))
    nu = float(rng.uniform(-0.9, 2.0))
    daughter = [{"family": "uniform"}, {"family": "power_total", "nu": nu},
                {"family": "power_each", "nu": nu}][rng.integers(3)]
    prob = [{"form": "constant", "value": float(rng.uniform())},
            {"form": "small_volume_floor", "E_small": float(rng.uniform()),
             "E_large": float(rng.uniform()), "cut": mid},
            {"form": "table", "path": str(folder / "prob.csv")},
            ][rng.integers(3 if span is not None else 2)]
    rows = [f"{x!r},{y!r},{0.5 + 0.4 * math.tanh(math.log(x * y))!r}"
            for x in axis for y in axis]
    (folder / "prob.csv").write_text("x,y,E\n" + "\n".join(rows))
    initial = [
        {"family": "exponential", "rate": 1.0 / mid},
        {"family": "power_cutoff", "p": float(rng.uniform(-1.0, 1.9)),
         "x_c": mid},
        {"family": "point_mass", "x0": mid, "w": 0.3 * mid},
        {"family": "tabulated", "path": str(folder / "initial.csv")},
    ][rng.integers(4)]
    initial["mass"] = 0.0 if rng.random() < 0.25 else 1.0
    rows = [f"{x!r},{math.exp(-x / mid)!r}" for x in axis]
    (folder / "initial.csv").write_text("x,f\n" + "\n".join(rows))
    return {"grid": {"x_min": x_min, "x_max": x_max, "cells": cells},
            "kernel": kernel, "daughter": daughter, "prob": prob,
            "initial": initial,
            "control": {"t_end": float(rng.uniform(0.05, 0.5)),
                        "outputs": int(rng.integers(3, 6))},
            "experiments": [e for e in cli._EXPERIMENTS
                            if rng.random() < 0.4] or ["run"],
            "options": {"offgrid_loss": bool(rng.random() < 0.3),
                        "sweep_E": [0.0, float(rng.uniform()), 1.0]}}


def _exit_code(folder, cfg):
    """The exit code of ``breakcoag run`` on ``cfg``, which must end in
    0, 2, 3 or 4 with no exception and no warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["run", _write(folder, cfg),
                         "--out", str(folder / "results")])
    assert code in (0, 2, 3, 4), cfg
    assert not caught, (cfg, [str(w.message) for w in caught])
    return code


class TestExitCodes:
    def test_random_configs_exit_by_the_contract(self, tmp_path):
        # grids of at most 4^8 or 10^5 keep the runs short: a run that
        # spends the integrator's whole work bound takes about 3 s
        rng = np.random.default_rng(19)
        for k in range(40):
            folder = tmp_path / f"case{k}"
            folder.mkdir()
            _exit_code(folder, _random_config(rng, folder))

    def test_configs_on_a_span_of_ten_to_the_fourteen(self, tmp_path):
        # the span (1e-3, 2.8e11): explicit steps on K = x + y are bound
        # by the top cells' death rate, and such a run ends in exit 3
        rng = np.random.default_rng(23)
        codes = []
        for k in range(6):
            folder = tmp_path / f"case{k}"
            folder.mkdir()
            cfg = _random_config(rng, folder, span=(1e-3, 2.8e11))
            cfg["experiments"] = ["run", "verify"]
            codes.append(_exit_code(folder, cfg))
        assert 0 in codes

    def test_out_of_reach_work_exits_three(self, tmp_path, capsys):
        # K = x + y on (1e-3, 2.8e11): the top cell's death rate bounds
        # the explicit step near 1e-10 over a horizon of 0.24
        cfg = {"grid": {"x_min": 1e-3, "x_max": 2.8e11, "cells": 24},
               "kernel": {"family": "additive"},
               "daughter": {"family": "power_each", "nu": -0.243},
               "prob": {"form": "constant", "value": 0.222},
               "initial": {"family": "exponential"},
               "control": {"t_end": 0.24, "outputs": 6},
               "experiments": ["run"]}
        assert _exit_code(tmp_path, cfg) == 3
        err = capsys.readouterr().err
        assert "work out of reach" in err and "'binding_cell': 23" in err
        assert not (tmp_path / "results").exists()


def _readme_block(language):
    """The first fenced block of the given language in the README."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    return re.search(rf"```{language}\n(.*?)```", readme, re.S).group(1)


class TestReadme:
    def test_readme_example_runs(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(_readme_block("json"))
        out = tmp_path / "out"
        code = cli.main(["run", str(path), "--out", str(out),
                         "--override", "control.t_end=0.5"])
        assert code == 0
        # the kernel's alpha is 0, so the orders -2 alpha and -alpha are
        # -0.0: they must head the number moment as M_0
        lines = (out / "moments.csv").read_text().splitlines()[1:]
        header = lines[0].split(",")
        assert "M_-0" not in header
        m0 = float(lines[1].split(",")[header.index("M_0")])
        first = np.loadtxt(out / "trajectory_0000.csv", delimiter=",",
                           skiprows=2)
        assert m0 == pytest.approx(first[:, 1] @ first[:, 2], rel=1e-12)

    def test_readme_example_integration_failure_exit_three(self, tmp_path,
                                                            capsys):
        path = tmp_path / "config.json"
        path.write_text(_readme_block("json"))
        out = tmp_path / "out"
        code = cli.main(["run", str(path), "--out", str(out),
                         "--override", "control.rtol=1e-300",
                         "--override", "control.atol=1e-300"])
        assert code == 3
        assert "step size underflow" in capsys.readouterr().err
        assert not out.exists()

    def test_readme_library_example_runs(self):
        namespace = {}
        exec(_readme_block("python"), namespace)
        series = namespace["series"]
        assert series.times[-1] == 2.0 and len(series.times) == 21


def _assert_same_spec(a, b):
    """Field-by-field equality of two spec records, arrays included."""
    assert type(a) is type(b)
    for f in dataclasses.fields(a):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if isinstance(va, dict):
            assert va.keys() == vb.keys()
            for key in va:
                np.testing.assert_array_equal(va[key], vb[key])
        else:
            assert va == vb, f.name


# Each family from only its required keys, and the library call that
# must give the same spec. The file-backed families read tmp_path.
_FAMILIES = [
    ("kernel", {"family": "smoluchowski"}, lambda: KernelSpec.smoluchowski()),
    ("kernel", {"family": "sum_product", "zeta": 0.0, "eta": 1.0},
     lambda: KernelSpec.sum_product(0.0, 1.0)),
    ("kernel", {"family": "bg_ratio", "sigma": 0.5, "eta": 0.25},
     lambda: KernelSpec.bg_ratio(0.5, 0.25)),
    ("kernel", {"family": "product"}, lambda: KernelSpec.product()),
    ("kernel", {"family": "additive"}, lambda: KernelSpec.additive()),
    ("kernel", {"family": "constant"}, lambda: KernelSpec.constant()),
    ("kernel", {"family": "table", "path": "kernel.csv"},
     lambda: KernelSpec.table(_AXIS, _AXIS, _KERNEL_TABLE)),
    ("daughter", {"family": "uniform"}, lambda: DaughterSpec.uniform()),
    ("daughter", {"family": "power_total", "nu": 0.5},
     lambda: DaughterSpec.power_total(0.5)),
    ("daughter", {"family": "power_each", "nu": 0.5},
     lambda: DaughterSpec.power_each(0.5)),
    ("prob", {"form": "constant", "value": 0.5},
     lambda: ProbSpec.constant(0.5)),
    ("prob", {"form": "small_volume_floor", "E_small": 0.6, "E_large": 0.2},
     lambda: ProbSpec.small_volume_floor(0.6, 0.2)),
    ("prob", {"form": "table", "path": "prob.csv"},
     lambda: ProbSpec.table(_AXIS, _AXIS, _PROB_TABLE)),
    ("initial", {"family": "exponential"},
     lambda: InitialCondition.exponential()),
    ("initial", {"family": "power_cutoff", "p": 0.5, "x_c": 2.0},
     lambda: InitialCondition.power_cutoff(0.5, 2.0)),
    ("initial", {"family": "point_mass", "x0": 1.0, "w": 0.1},
     lambda: InitialCondition.point_mass(1.0, 0.1)),
    # the one default the config adds: a tabulated profile gets mass 1
    ("initial", {"family": "tabulated", "path": "initial.csv"},
     lambda: InitialCondition.tabulated(_AXIS, [1.0, 0.5, 0.1], mass=1.0)),
]
_AXIS = [0.1, 1.0, 10.0]
_KERNEL_TABLE = np.add.outer(_AXIS, _AXIS).tolist()
_PROB_TABLE = (0.1 * np.add.outer(_AXIS, _AXIS) ** 0.5).tolist()


class TestSchema:
    @pytest.mark.parametrize("section,spec,expected", _FAMILIES,
                             ids=[f"{s}-{c.get('family', c.get('form'))}"
                                  for s, c, _ in _FAMILIES])
    def test_required_keys_give_library_defaults(self, tmp_path, monkeypatch,
                                                  section, spec, expected):
        monkeypatch.chdir(tmp_path)
        rows = [f"{_AXIS[i]!r},{_AXIS[j]!r},{_KERNEL_TABLE[i][j]!r}"
                for i, j in np.ndindex(3, 3)]
        (tmp_path / "kernel.csv").write_text("x,y,K\n" + "\n".join(rows))
        rows = [f"{_AXIS[i]!r},{_AXIS[j]!r},{_PROB_TABLE[i][j]!r}"
                for i, j in np.ndindex(3, 3)]
        (tmp_path / "prob.csv").write_text("x,y,E\n" + "\n".join(rows))
        (tmp_path / "initial.csv").write_text("x,f\n0.1,1.0\n1.0,0.5\n10.0,0.1\n")
        cfg = json.loads(json.dumps(MINIMAL))
        cfg[section] = spec
        built = cli.parse_config(_write(tmp_path, cfg))
        _assert_same_spec(getattr(built, section), expected())

    def test_families_covered(self):
        tables = {"kernel": cli._KERNELS, "daughter": cli._DAUGHTERS,
                  "prob": cli._PROBS, "initial": cli._INITIALS}
        covered = {(s, c.get("family", c.get("form"))) for s, c, _ in _FAMILIES}
        assert covered == {(s, name) for s, table in tables.items()
                           for name in table}

    def test_readme_names_every_family_key_and_option(self):
        readme = (Path(__file__).resolve().parent.parent
                  / "README.md").read_text()
        names = set(inspect.signature(cli._options).parameters)
        for table in (cli._KERNELS, cli._DAUGHTERS, cli._PROBS,
                      cli._INITIALS):
            for name, build in table.items():
                names |= {name, *inspect.signature(build).parameters}
        missing = sorted(n for n in names if f"`{n}`" not in readme)
        assert not missing

    def test_options_converted_at_parse(self, tmp_path):
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["options"] = {"mass_tol": 1, "moment_orders": [3], "sweep_E": [1]}
        opts = cli.parse_config(_write(tmp_path, cfg)).options
        assert opts["mass_tol"] == 1.0 and type(opts["mass_tol"]) is float
        assert opts["moment_orders"] == [3.0] and opts["sweep_E"] == [1.0]
        assert opts["n_trunc"] is None and opts["offgrid_loss"] is False
        assert opts["theta"] == 0.5
