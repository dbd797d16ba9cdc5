"""Benchmark of ``breakcoag run`` on generated scenario configs.

    python3 bench/run.py --workload linear --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --quick

Each operation is one ``breakcoag run`` in a fresh process, followed by
checks of its outputs. Operations run one at a time for ``--seconds``
seconds. With ``--trace 0`` the last line printed is a JSON object with
the end-to-end metrics (medians over the run's operations); with
``--trace 1`` traced and untraced operations alternate and the per-layer
metrics are reported. The JSON line is printed in every case; the exit
code is 1 when no operation completed. ``--quick`` runs every workload
once, traced and untraced, at its smallest size, and exits 0 when every
check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import EXACT, PER_LAYER, layer_metrics
from workloads import WORKLOADS, check_outputs, make_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "_runs"
OP_TIMEOUT = 150.0        # seconds for one process
RUN_LIMIT = 160.0         # no round may end past this, judged by the longest one

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _warm_up():
    """Import the package once in a throwaway process, so that the first
    operation does not pay for byte-compilation or a cold file cache."""
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
            "import breakcoag.cli")
    subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                   capture_output=True, timeout=OP_TIMEOUT)


def _spawn(mode: str, config: Path, out: Path, trace: Path | None = None):
    """Run one worker process; returns its report, with the command's exit
    code and times made relative to the moment it was started, or None when
    the process timed out or printed no report."""
    cmd = [sys.executable, str(HERE / "worker.py"), mode, str(config),
           str(out), str(trace or "")]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=OP_TIMEOUT)
    except subprocess.TimeoutExpired:
        print(f"{mode} timed out after {OP_TIMEOUT} s", file=sys.stderr)
        return None
    wall = time.monotonic() - start
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"{mode} worker exited {proc.returncode}: {proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    if report["code"] != 0:
        print(f"breakcoag {mode} exited {report['code']}: "
              f"{proc.stderr[-2000:]}", file=sys.stderr)
    return {"code": report["code"], "wall": wall,
            "setup": report["setup_at"] - start if report["setup_at"] else None,
            "main": report["done_at"] - start,
            "rss_mb": report["rss_mb"]}


def _digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Run:
    """The operations of one benchmark run on one workload and seed."""

    def __init__(self, workload: str, seed: int, quick: bool):
        self.workload = workload
        self.cfg = make_config(workload, seed, quick)
        self.work = RUNS / f"{workload}-s{seed}-p{os.getpid()}"
        self.trace_file = RUNS / f"trace-{workload}-s{seed}.json"
        self.work.mkdir(parents=True, exist_ok=True)
        self.config = self.work / "config.json"
        self.config.write_text(json.dumps(self.cfg, indent=2))
        self.attempted = self.failed = 0
        self.correct = True
        self.digests: set[str] = set()

    def operation(self, traced: bool):
        """One checked ``breakcoag run``; returns the worker's report and,
        when traced, the per-layer metrics, or None when it failed."""
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        self.attempted += 1
        report = _spawn("trace" if traced else "run", self.config, out,
                        self.trace_file if traced else None)
        # exit 2 or 3 (bad config, integration failure) leaves no outputs
        # to check; exit 4 (the program's own experiment checks failed) does
        if report is None or report["code"] not in (0, 4):
            self.failed += 1
            return None
        problems = check_outputs(self.workload, self.cfg, out)
        if report["code"]:
            problems.insert(0, f"breakcoag exited {report['code']}")
        self.digests.add(_digest(out))
        if len(self.digests) > 1:
            problems.append("outputs differ between repeated runs")
        if problems:
            print(f"{self.workload}: {problems}", file=sys.stderr)
            self.failed += 1
            self.correct = False
            return None
        if traced:
            report["layers"] = layer_metrics(
                json.loads(self.trace_file.read_text()))
        return report

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def measure(workload: str, seed: int, seconds: float, traced: bool,
            quick: bool = False) -> dict:
    run = Run(workload, seed, quick)
    try:
        _warm_up()
        # a round is one operation, or an untraced and a traced one
        modes = (False, True) if traced else (False,)
        begin = time.monotonic()
        plain, traces = [], []
        rounds, longest = [], 0.0
        # a round starts only if one of typical length ends within --seconds
        while not rounds or (
                time.monotonic() - begin + statistics.median(rounds) <= seconds
                and time.monotonic() - begin + longest < RUN_LIMIT):
            started = time.monotonic()
            for mode in modes:
                report = run.operation(mode)
                if report is None:
                    continue
                longest = max(longest, report["wall"])
                if mode:
                    traces.append(report)
                else:
                    plain.append(report)
            rounds.append(time.monotonic() - started)
    finally:
        run.close()
    result = {"correct": run.correct, "attempted": run.attempted,
              "failed": run.failed, "metrics": None}
    if not plain or (traced and not traces):
        return result
    if traced:
        layers = [r["layers"] for r in traces]
        for name in EXACT:
            if len({r[name] for r in layers}) > 1:
                print(f"{name} differs between traced runs", file=sys.stderr)
                result["correct"] = False
        values = {k: statistics.median(r[k] for r in layers) for k in layers[0]}
        # traced minus untraced time from process start to the command's return
        values["trace.overhead_s"] = (
            statistics.median(r["main"] for r in traces)
            - statistics.median(r["main"] for r in plain))
        units = {k: unit for k, (unit, _) in PER_LAYER.items()}
    else:
        values = {
            "run_s": statistics.median(r["wall"] for r in plain),
            "setup_s": statistics.median(r["setup"] for r in plain),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
        }
        units = END_TO_END
    result["metrics"] = {k: {"value": values[k], "unit": u}
                         for k, u in units.items()}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="every workload once at its smallest size")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "breakcoag" / "cli.py").is_file():
        print(f"no breakcoag sources under {ROOT / 'src'}", file=sys.stderr)
        return 3
    if args.quick:
        ok = True
        for workload in WORKLOADS:
            result = measure(workload, args.seed, 0.0, True, quick=True)
            ok &= result["correct"] and not result["failed"] \
                and result["metrics"] is not None
            print(workload, json.dumps(result))
        return 0 if ok else 1
    if args.workload is None:
        parser.error("--workload is required without --quick")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["metrics"] is not None else 1


if __name__ == "__main__":
    sys.exit(main())
