"""One ``breakcoag run`` in its own process, as the benchmark measures it.

    python3 bench/worker.py MODE CONFIG OUT_DIR [TRACE_FILE]

MODE is ``run`` (the plain command) or ``trace`` (wrap the calls between
modules and write the spans to TRACE_FILE at the end). The last line
printed is a JSON object with the command's exit code, the monotonic-clock
times at which the first time step began and the command returned, and the
process's peak resident memory.
"""

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
APPLY_RHS_CALLS = 101


def _array_bytes(tables) -> int:
    import numpy as np
    arrays = {id(v): v for v in vars(tables).values()
              if isinstance(v, np.ndarray)}
    return sum(a.nbytes for a in arrays.values())


def _apply_rhs_us(bc, tables, trajectory) -> float:
    """Median wall time of ``apply_rhs`` over the recorded states."""
    times = []
    for k in range(APPLY_RHS_CALLS):
        state = trajectory.state(k % len(trajectory))
        t0 = time.perf_counter()
        bc.apply_rhs(tables, state)
        times.append(time.perf_counter() - t0)
    times.sort()
    return 1e6 * times[len(times) // 2]


def main(mode: str, config: str, out_dir: str, trace_file: str = "") -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import breakcoag as bc
    import breakcoag.cli as cli
    import breakcoag.diagnostics as diagnostics
    import breakcoag.solver as solver
    if not Path(bc.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"breakcoag imported from {bc.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    tracer = None
    if mode == "trace":
        from tracing import Tracer
        tracer = Tracer()
        tracer.install({"cli": cli, "diagnostics": diagnostics,
                        "solver": solver})

    setup_at = []
    integrate = cli.integrate

    def first_step(*args, **kwargs):
        if not setup_at:
            setup_at.append(time.monotonic())
        return integrate(*args, **kwargs)

    cli.integrate = first_step
    code = cli.main(["run", config, "--out", out_dir])
    done_at = time.monotonic()

    if tracer is not None and code == 0:
        trajectories = tracer.results["solver.integrate"]
        tables = tracer.results["solver.build_tables"]
        trace = {
            "spans": [vars(s) for s in tracer.spans],
            "steps": sum(t.n_steps for t in trajectories),
            "rejected": sum(t.n_rejected for t in trajectories),
            "tables_bytes": max(_array_bytes(t) for t in tables),
            "output_bytes": sum(p.stat().st_size
                                for p in Path(out_dir).iterdir()),
            # the first tables and trajectory are those of the main run
            "apply_rhs_us": _apply_rhs_us(bc, tables[0], trajectories[0]),
        }
        Path(trace_file).write_text(json.dumps(trace))

    print(json.dumps({
        "code": code,
        "setup_at": setup_at[0] if setup_at else None,
        "done_at": done_at,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
