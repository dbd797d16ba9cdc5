import json
import re
from pathlib import Path

import pytest

import breakcoag.cli as cli
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

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            cli.parse_config("/nonexistent/config.json")

    def test_override_changes_hash(self, tmp_path):
        path = _write(tmp_path, MINIMAL)
        base = cli.parse_config(path)
        mod = cli.parse_config(path, overrides=("control.t_end=2.0",))
        assert mod.control.t_end == 2.0
        assert mod.config_hash != base.config_hash


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

    def test_config_error_exit_two(self, tmp_path):
        bad = json.loads(json.dumps(MINIMAL))
        bad["prob"]["value"] = 2.0
        assert cli.main(["run", _write(tmp_path, bad)]) == 2

    def test_verify_exit_zero(self, tmp_path, capsys):
        assert cli.main(["verify", _write(tmp_path, MINIMAL)]) == 0
        out = capsys.readouterr().out
        assert "checks" in out

    def test_contraction_gate_failure(self, tmp_path):
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["kernel"] = {"family": "product"}
        cfg["control"]["t_end"] = 0.2
        cfg["experiments"] = ["contraction"]
        out = tmp_path / "results"
        code = cli.main(["run", _write(tmp_path, cfg), "--out", str(out)])
        assert code == 2

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


class TestReadme:
    def test_readme_example_runs(self, tmp_path):
        readme = (Path(__file__).resolve().parent.parent
                  / "README.md").read_text()
        block = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
        path = tmp_path / "config.json"
        path.write_text(block)
        code = cli.main(["run", str(path), "--out", str(tmp_path / "out"),
                         "--override", "control.t_end=0.5"])
        assert code == 0
