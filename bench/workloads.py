"""The benchmark's workloads: seeded scenario configs for ``breakcoag run``
and the checks of its outputs.

Every expected value here is computed by the benchmark itself, from the
config it generated: closed-form moment dynamics, the closed-form
coalescence threshold, the config hash and the discrete initial data.
Nothing is compared against a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from pathlib import Path

import numpy as np

GRID = {"x_min": 1e-4, "x_max": 1e3}

# Sizes per workload: (cells, t_end, outputs) for the measured and the quick
# configuration.
SIZES = {
    "linear": {"full": (300, 0.1, 6), "quick": (40, 0.02, 3)},
    "fine-grid": {"full": (800, 0.005, 201), "quick": (60, 0.0005, 11)},
    "singular-suite": {"full": (120, 0.12, 11), "quick": (30, 0.02, 5)},
}
WORKLOADS = tuple(SIZES)


def _jitter(rng: random.Random, centre: float, half_width: float) -> float:
    return round(centre + rng.uniform(-half_width, half_width), 6)


def make_config(workload: str, seed: int, quick: bool = False) -> dict:
    """Scenario config for one workload; the same seed gives the same config.

    The seed moves the initial-data rate and the coalescence probability
    inside narrow bands (+-0.5% and +-0.005): the step count, and so the
    work of a run, moves by about 1% at most, and ``singular-suite`` stays
    above its threshold E_min = 0.3905.
    """
    if workload not in SIZES:
        raise ValueError(f"unknown workload {workload!r}")
    cells, t_end, outputs = SIZES[workload]["quick" if quick else "full"]
    rng = random.Random(f"{workload}:{seed}")
    rate = _jitter(rng, 1.0, 0.005)
    cfg = {
        "grid": {**GRID, "cells": cells},
        "initial": {"family": "exponential", "rate": rate, "mass": 1.0},
        "control": {"method": "heun", "rtol": 1e-6, "t_end": t_end,
                    "outputs": outputs},
    }
    if workload == "singular-suite":
        cfg.update(
            kernel={"family": "sum_product", "zeta": -0.25, "eta": 0.5},
            daughter={"family": "power_total", "nu": 0.0},
            prob={"form": "small_volume_floor",
                  "E_small": _jitter(rng, 0.6, 0.005),
                  "E_large": _jitter(rng, 0.2, 0.005)},
            experiments=["run", "verify", "gel", "contraction", "sweep",
                         "dlvp"])
    else:
        family = "power_total" if workload == "linear" else "power_each"
        cfg.update(
            kernel={"family": "sum_product", "zeta": 0.0, "eta": 1.0},
            daughter={"family": family, "nu": 0.0},
            prob={"form": "constant", "value": _jitter(rng, 0.5, 0.005)},
            experiments=["run"] if workload == "linear" else ["run", "verify"])
    return cfg


def config_hash(cfg: dict) -> str:
    """The hash ``breakcoag`` stamps on its outputs, per its documentation:
    the first 16 hex digits of the SHA-256 of the sorted, compact JSON."""
    text = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# independent computations
# ---------------------------------------------------------------------------

def initial_moments(cfg: dict) -> tuple[float, float]:
    """Discrete M0 and M1 of the exponential initial data: exact cell
    integrals of exp(-rate x) on the geometric grid, represented at the
    geometric cell centres and scaled to the configured mass."""
    g = cfg["grid"]
    edges = np.geomspace(g["x_min"], g["x_max"], g["cells"] + 1)
    edges[0], edges[-1] = g["x_min"], g["x_max"]
    centres = np.sqrt(edges[:-1] * edges[1:])
    rate = cfg["initial"]["rate"]
    number = (np.exp(-rate * edges[:-1]) - np.exp(-rate * edges[1:])) / rate
    scale = cfg["initial"]["mass"] / float(np.sum(centres * number))
    return float(np.sum(number)) * scale, cfg["initial"]["mass"]


def fragment_count(daughter: dict) -> float:
    """Number of fragments per breakage event of the power daughter laws:
    (nu + 2)/(nu + 1) from the pair's total, twice that for per-parent."""
    n = (daughter["nu"] + 2.0) / (daughter["nu"] + 1.0)
    return 2.0 * n if daughter["family"] == "power_each" else n


def m0_closed_form(cfg: dict, t: np.ndarray, m0: float, m1: float):
    """M0(t) for K = x + y with constant E: dM0/dt = M0 M1 (-E + (1-E)(n_f-2))
    and M1 constant, so M0 grows or decays exponentially."""
    E = cfg["prob"]["value"]
    rate = -E + (1.0 - E) * (fragment_count(cfg["daughter"]) - 2.0)
    return m0 * np.exp(rate * m1 * t)


def singular_threshold(nu: float, zeta: float) -> float:
    """(nu + 2 - (nu + 1 + 2 zeta) 2^(1 - 2 zeta)) / (1 - 2 zeta)."""
    return ((nu + 2.0 - (nu + 1.0 + 2.0 * zeta) * 2.0 ** (1.0 - 2.0 * zeta))
            / (1.0 - 2.0 * zeta))


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _read_stamped_csv(path: Path):
    """Hash stamp, header and float rows of one ``breakcoag`` CSV file."""
    with path.open(newline="") as fh:
        stamp = fh.readline().strip()
        rows = list(csv.reader(fh))
    return stamp, rows[0], np.array(rows[1:], dtype=float)


def _check_moment_run(cfg: dict, out: Path, problems: list):
    stamp_ok = f"# config_hash={config_hash(cfg)}"
    stamp, header, rows = _read_stamped_csv(out / "moments.csv")
    if stamp != stamp_ok:
        problems.append(f"moments.csv stamp {stamp!r}")
    t_end, outputs = cfg["control"]["t_end"], cfg["control"]["outputs"]
    t = rows[:, header.index("t")]
    if t.size != outputs or not np.allclose(t, np.linspace(0, t_end, outputs),
                                            rtol=1e-12, atol=0.0):
        problems.append(f"moments.csv has times {t.tolist()[:4]}...")
        return
    m0, m1 = rows[:, header.index("M_0")], rows[:, header.index("M_1")]

    m0_init, m1_init = initial_moments(cfg)
    if abs(m0[0] / m0_init - 1.0) > 1e-10 or abs(m1[0] / m1_init - 1.0) > 1e-10:
        problems.append(f"initial moments {m0[0]}, {m1[0]} != "
                        f"{m0_init}, {m1_init}")
    drift = float(np.max(np.abs(m1 / m1[0] - 1.0)))
    if drift > 1e-8:
        problems.append(f"mass drift {drift:.3e} > 1e-8")
    # the discrete M0 must follow the closed form to 1% of its change and
    # 1e-4 relative; truncation at the grid ends accounts for ~1e-3 of it
    expected = m0_closed_form(cfg, t, m0_init, m1_init)
    dev = np.abs(m0 - expected)
    if np.any(dev[1:] > 0.01 * np.abs(expected[1:] - m0_init) + 1e-12 * m0_init) \
            or np.any(dev > 1e-4 * expected):
        problems.append(f"M0 off its closed form by {float(np.max(dev / expected)):.3e}")

    snapshots = sorted(out.glob("trajectory_*.csv"))
    names = [f"trajectory_{k:04d}.csv" for k in range(outputs)]
    if [p.name for p in snapshots] != names:
        problems.append(f"{len(snapshots)} snapshot files for {outputs} outputs")
    for path in snapshots:
        stamp, header, rows = _read_stamped_csv(path)
        if stamp != stamp_ok:
            problems.append(f"{path.name} stamp {stamp!r}")
            break
        if rows.shape != (cfg["grid"]["cells"], 3) or np.any(
                rows[:, header.index("f")] < 0.0):
            problems.append(f"{path.name}: bad shape or negative density")
            break


def _check_singular_suite(cfg: dict, out: Path, problems: list):
    # hypothesis_report.json carries bare Infinity for n/a residuals, which
    # Python's json module reads; strict parsers would not
    report = json.loads((out / "hypothesis_report.json").read_text())
    expected = singular_threshold(cfg["daughter"]["nu"], cfg["kernel"]["zeta"])
    if not math.isclose(report["E_min"], expected, rel_tol=1e-12):
        problems.append(f"E_min {report['E_min']} != {expected}")

    exp = json.loads((out / "experiments.json").read_text())
    if exp["failures"]:
        problems.append(f"experiment failures {exp['failures']}")
    mass = exp["mass_conservation"]
    if not (mass["asserted"] and mass["ok"] and mass["max_drift"] <= 1e-8):
        problems.append(f"mass conservation {mass}")
    for name in ("M0", "Mneg"):
        if exp["apriori_bounds"][name]["status"] != "pass":
            problems.append(f"a priori bound {name}: "
                            f"{exp['apriori_bounds'][name]}")
    if not exp["contraction"]["ok"]:
        problems.append("contraction envelope violated")
    if not exp["dlvp"]["ok"]:
        problems.append("dlvp checks failed")
    if exp["gelation"]["onset"] is not None:
        problems.append(f"gelation onset {exp['gelation']['onset']} in a "
                        "mass-conserving scenario")

    rows = sorted(exp["e_sweep"], key=lambda r: r["E"])
    if any(r["mass_drift"] > 1e-8 for r in rows):
        problems.append("sweep mass drift above 1e-8")
    ratios = [r["M0_ratio"] for r in rows]
    if any(b > a * (1.0 + 1e-12) for a, b in zip(ratios, ratios[1:])):
        problems.append(f"sweep M0 ratios increase with E: {ratios}")
    # E = 0 is pure binary breakage into two fragments, which keeps number
    if rows[0]["E"] != 0.0 or abs(rows[0]["M0_ratio"] - 1.0) > 1e-3:
        problems.append(f"E = 0 sweep row {rows[0]}")


def check_outputs(workload: str, cfg: dict, out: Path) -> list[str]:
    """Problems found in one run's output directory; empty when it passes."""
    problems: list[str] = []
    try:
        if workload == "singular-suite":
            _check_singular_suite(cfg, out, problems)
        else:
            _check_moment_run(cfg, out, problems)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return problems
