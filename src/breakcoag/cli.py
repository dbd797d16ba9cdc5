"""Scenario-driven command line: validate a JSON config, certify the
hypotheses, run the solver, and write series/reports.

Exit codes: 0 success, 2 configuration error, 3 integration failure,
4 assertion (experiment) failure.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from .daughter import DaughterSpec, ProbSpec
from .diagnostics import (check_apriori_bounds, check_mass_conservation,
                          contraction_experiment, detect_gelation, e_sweep,
                          moment_series)
from .dlvp import build_phi, verify_dlvp
from .errors import ConfigError, DataError, DomainError, IntegrationError
from .grid import Grid, InitialCondition, make_grid, moment, \
    read_tabulated_csv, sample_initial
from .hypotheses import check_scenario
from .kernels import KernelSpec, eval_kernel
from .solver import StepControl, build_tables, integrate

try:  # CPython's own SHA-256: hashlib would load all of OpenSSL's libcrypto
    from _sha2 import sha256                     # Python 3.12 on
except ImportError:
    try:
        from _sha256 import sha256               # Python 3.10, 3.11
    except ImportError:                          # built without either
        from hashlib import sha256

_EXPERIMENTS = ("run", "verify", "contraction", "gel", "sweep", "dlvp")


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario: the constructed specs and converted options."""

    grid: Grid
    kernel: KernelSpec
    daughter: DaughterSpec
    prob: ProbSpec
    initial: InitialCondition
    control: StepControl
    experiments: tuple
    options: dict
    config_hash: str


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"missing required key {key!r} in {context}")
    return mapping[key]


def _check_keys(mapping: dict, allowed, context: str):
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {context}: {sorted(unknown)}")


def _reject_bools(cfg: dict, section: str, flags=()):
    """Reject a JSON true or false, alone or in a list, as the value of any
    key but the boolean ``flags``: Python would take it for 1 or 0."""
    for key, value in cfg.items():
        values = value if isinstance(value, list) else [value]
        if key not in flags and any(isinstance(v, bool) for v in values):
            raise ConfigError(f"{key} in {section} must not be a boolean, "
                              f"got {value!r}")


def _call(build, cfg: dict, section: str):
    """Call ``build`` with the keys of one config section.

    The signature of ``build`` is the section's schema: its parameters are
    the allowed keys, those without a default are required, and each
    default is stated only there. A boolean default makes a boolean key.
    """
    params = inspect.signature(build).parameters
    _check_keys(cfg, params, section)
    _reject_bools(cfg, section, [key for key, param in params.items()
                                 if isinstance(param.default, bool)])
    for key, param in params.items():
        if param.default is param.empty:
            _require(cfg, key, section)
    return build(**cfg)


def _build(section: str, cfg: dict, builders: dict, tag: str = "family"):
    """Build a section whose ``tag`` key names its constructor in
    ``builders``; the other keys are the constructor's arguments."""
    name = _require(cfg, tag, section)
    if name not in builders:
        raise ConfigError(f"unknown {section} {tag} {name!r}")
    args = {key: value for key, value in cfg.items() if key != tag}
    return _call(builders[name], args, section)


def _from_file(read, build):
    """``build`` configured by a ``path`` key: ``read(path)`` supplies the
    parameters of ``build`` that have no default, the config the others.
    A file that cannot be read is a configuration error."""
    def from_file(path, **kwargs):
        try:
            arrays = read(path)
        except OSError as exc:
            raise ConfigError(f"cannot read {path}: {exc}")
        return build(*arrays, **kwargs)
    params = inspect.signature(build).parameters.values()
    from_file.__signature__ = inspect.Signature(
        [inspect.Parameter("path", inspect.Parameter.POSITIONAL_OR_KEYWORD)]
        + [p for p in params if p.default is not p.empty])
    return from_file


def _read_kernel_csv(path):
    """CSV columns x,y,K over a rectangular grid of (x, y) pairs."""
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if rows.shape[1] != 3:
        raise DataError("kernel table needs columns x,y,K")
    if not np.all(np.isfinite(rows)):
        raise DataError("kernel table values must be finite")
    x = np.unique(rows[:, 0])
    y = np.unique(rows[:, 1])
    if rows.shape[0] != x.size * y.size:
        raise DataError("kernel table must cover a full rectangular grid")
    K = np.full((x.size, y.size), np.nan)
    ix = np.searchsorted(x, rows[:, 0])
    iy = np.searchsorted(y, rows[:, 1])
    K[ix, iy] = rows[:, 2]
    if np.any(np.isnan(K)):
        raise DataError("kernel table has duplicate or missing grid entries")
    return x, y, K


# each family's name is the name of its constructor; the two families
# that read a file take a ``path`` in place of the arrays
_KERNELS = {name: getattr(KernelSpec, name) for name in (
    "smoluchowski", "sum_product", "bg_ratio", "product", "additive",
    "constant")} | {"table": _from_file(_read_kernel_csv, KernelSpec.table)}
_DAUGHTERS = {name: getattr(DaughterSpec, name)
              for name in ("uniform", "power_total", "power_each")}
_PROBS = {name: getattr(ProbSpec, name)
          for name in ("constant", "small_volume_floor")}
_INITIALS = {name: getattr(InitialCondition, name)
             for name in ("exponential", "power_cutoff", "point_mass")} | {
    # unlike the library, the config rescales a tabulated profile to mass 1
    "tabulated": _from_file(read_tabulated_csv,
                            partial(InitialCondition.tabulated, mass=1.0))}


def _options(n_trunc=None, offgrid_loss=False, mass_tol=1e-8,
             moment_orders=None, gel_threshold=0.01, theta=0.5,
             perturbation=1.01, sweep_E=(0.0, 0.25, 0.5, 0.75, 1.0)) -> dict:
    """The top-level ``options``, converted to the types they are used as.

    ``n_trunc`` None stands for ``x_max``, and ``moment_orders`` None for
    the orders -2 alpha, -alpha, 0, 1, 2 of the kernel's exponent alpha.
    """
    if not isinstance(offgrid_loss, bool):
        raise ConfigError("offgrid_loss in options must be true or false, "
                          f"got {offgrid_loss!r}")
    opts = {"n_trunc": None if n_trunc is None else float(n_trunc),
            "moment_orders": None if moment_orders is None
            else [float(m) for m in moment_orders],
            "offgrid_loss": offgrid_loss, "mass_tol": float(mass_tol),
            "gel_threshold": float(gel_threshold), "theta": float(theta),
            "perturbation": float(perturbation),
            "sweep_E": [float(v) for v in sweep_E]}
    for name, ok, needs in (
            ("mass_tol", 0 < opts["mass_tol"] < np.inf, "positive and finite"),
            ("gel_threshold", 0 < opts["gel_threshold"] < 1, "in (0, 1)"),
            ("moment_orders", np.isfinite(opts["moment_orders"] or 0.0).all(),
             "finite"),
            ("theta", 0 < opts["theta"] < 1, "in (0, 1)"),
            ("perturbation", 0 < opts["perturbation"] < np.inf,
             "positive and finite"),
            ("sweep_E", all(0 <= E <= 1 for E in opts["sweep_E"]),
             "in [0, 1]")):
        if not ok:
            raise ConfigError(f"{name} in options must be {needs}, "
                              f"got {opts[name]!r}")
    return opts


def _build_control(cfg: dict) -> StepControl:
    _check_keys(cfg, {"method", "rtol", "atol", "t_end", "output_times",
                      "outputs"}, "control")
    _reject_bools(cfg, "control")
    # "heun", the name of the integrator dopri5 replaced, stays accepted
    # as a legacy name: existing configs send it
    if cfg.get("method", "dopri5") not in ("dopri5", "heun"):
        raise ConfigError(f"unknown method {cfg['method']!r}: the only "
                          "integrator is 'dopri5'")
    if "outputs" in cfg and "output_times" in cfg:
        raise ConfigError("control takes outputs or output_times, not both")
    tolerances = {key: cfg[key] for key in ("rtol", "atol") if key in cfg}
    control = StepControl(t_end=float(_require(cfg, "t_end", "control")),
                          **tolerances)
    if "output_times" in cfg:
        out = tuple(float(s) for s in cfg["output_times"])
    else:
        n = cfg.get("outputs", 51)
        if not isinstance(n, int) or n < 2:
            raise ConfigError("outputs in control must be an integer >= 2, "
                              f"got {n!r}")
        out = tuple(np.linspace(0.0, control.t_end, n))
    return replace(control, output_times=out)


def _apply_override(raw: dict, spec: str):
    if "=" not in spec:
        raise ConfigError(f"override must look like key=value, got {spec!r}")
    dotted, value = spec.split("=", 1)
    try:
        parsed = json.loads(value)
    except json.JSONDecodeError:
        parsed = value
    node = raw
    keys = dotted.split(".")
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"cannot override through non-object {key!r}")
    node[keys[-1]] = parsed


def _build_specs(raw: dict) -> dict:
    """Validate a raw scenario and build its specs, as ScenarioConfig fields."""
    _check_keys(raw, {"grid", "kernel", "daughter", "prob", "initial",
                      "control", "experiments", "options"}, "config")
    grid = _call(make_grid, _require(raw, "grid", "config"), "grid")
    kernel = _build("kernel", _require(raw, "kernel", "config"), _KERNELS)
    daughter = _build("daughter", _require(raw, "daughter", "config"),
                      _DAUGHTERS)
    prob = _build("prob", _require(raw, "prob", "config"), _PROBS, tag="form")
    initial = _build("initial", _require(raw, "initial", "config"), _INITIALS)
    control = _build_control(_require(raw, "control", "config"))

    experiments = tuple(raw.get("experiments", ["run", "verify"]))
    for e in experiments:
        if e not in _EXPERIMENTS:
            raise ConfigError(f"unknown experiment {e!r}")
    options = _call(_options, raw.get("options", {}), "options")
    if daughter.per_parent and kernel.declared_alpha > 0.0:
        raise ConfigError("per-parent daughter distributions require a "
                          "non-singular kernel (alpha = 0)")
    return {"grid": grid, "kernel": kernel, "daughter": daughter,
            "prob": prob, "initial": initial, "control": control,
            "experiments": experiments, "options": options}


def parse_config(path, overrides=()) -> ScenarioConfig:
    """Load, validate, and freeze a scenario configuration."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    for spec in overrides:
        _apply_override(raw, spec)

    try:
        specs = _build_specs(raw)
    except (ConfigError, DataError):
        raise
    except (TypeError, ValueError) as exc:
        # a value of the wrong type or form, such as "abc" for a number
        raise ConfigError(f"malformed config value: {exc}") from exc
    digest = sha256(
        json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:16]
    return ScenarioConfig(**specs, config_hash=digest)


# ---------------------------------------------------------------------------
# output writers (deterministic, hash-stamped)
# ---------------------------------------------------------------------------

def _write_csv(path: Path, header: list, table, config_hash: str,
               prefix=None):
    """Write a float table as CSV, in one ``write`` call.

    Byte layout: ``# config_hash=<hash>\n``, then the header and one line per
    row of ``table``, each terminated by ``\r\n`` (the csv module's default
    dialect). Cells are separated by commas and every value is written as
    ``repr`` of a Python float, the shortest string that reads back to the
    same double. ``prefix``, when given, holds one pre-rendered string per
    row (its leading cells and their trailing comma), so that columns shared
    by many files are formatted once.
    """
    table = np.asarray(table, dtype=float)
    cells = map(repr, table.ravel().tolist())
    rows = map(",".join, zip(*[cells] * table.shape[1]))
    if prefix is not None:
        rows = map(str.__add__, prefix, rows)
    text = "\r\n".join([",".join(header), *rows])
    with path.open("w", newline="") as fh:
        fh.write(f"# config_hash={config_hash}\n{text}\r\n")


def _dumps(payload) -> str:
    """Strict JSON: non-finite floats (n/a residuals) are written as null."""
    return json.dumps(_jsonable(payload), indent=2, sort_keys=True,
                      allow_nan=False)


def _write_json(path: Path, payload, config_hash: str):
    path.write_text(_dumps({"config_hash": config_hash, **payload}) + "\n")


def _jsonable(obj):
    """``obj`` as plain JSON data: dicts, lists, tuples and arrays walked,
    numpy scalars as Python ones, a non-finite float as None."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def run_scenario(config: ScenarioConfig, out_dir) -> int:
    """Execute the requested experiments; returns the process exit code.

    Every file is written after the last experiment has finished, so a run
    that stops with a configuration or integration error writes nothing.
    """
    failures = []
    report = check_scenario(config.kernel, config.daughter, config.prob,
                            config.initial)

    needs_traj = any(e in config.experiments
                     for e in ("run", "gel", "contraction"))
    opts = config.options
    if needs_traj or "sweep" in config.experiments:
        # the operator reads the kernel at every pair of cell centres,
        # which the two outermost centres bound
        ends = config.grid.centers[[0, -1]]
        try:
            eval_kernel(config.kernel, ends, ends)
        except DomainError as exc:
            raise ConfigError(f"kernel not defined on the grid: {exc}")
        n_trunc = config.grid.x_max if opts["n_trunc"] is None \
            else opts["n_trunc"]
        tables = build_tables(config.grid, config.kernel, n_trunc,
                              config.daughter, config.prob,
                              offgrid_loss=opts["offgrid_loss"])
    if needs_traj:
        state0 = sample_initial(config.initial, config.grid)
        trajectory = integrate(tables, state0, config.control)

        alpha = config.kernel.declared_alpha
        orders = opts["moment_orders"]
        if orders is None:
            orders = [-2.0 * alpha, -alpha, 0.0, 1.0, 2.0]
        # + 0.0 turns an order -0.0 (of -alpha at alpha = 0) into 0.0
        orders = sorted({m + 0.0 for m in orders} | {0.0, 1.0})
        series = moment_series(trajectory, orders)

    results = {}
    if "run" in config.experiments:
        tol = opts["mass_tol"]
        mass = check_mass_conservation(trajectory, tol)
        # the capped system conserves mass to rounding whatever the kernel;
        # with offgrid_loss only a kernel that cannot gel (p2 or p400) does
        conserving = (not opts["offgrid_loss"]
                      or report.checks["p2"].status == "pass"
                      or report.checks["p400"].status == "pass")
        results["mass_conservation"] = {
            "max_drift": mass["max_drift"], "tol": tol,
            "asserted": bool(conserving), "ok": mass["ok"]}
        if conserving and not mass["ok"]:
            failures.append(f"mass drift {mass['max_drift']:.3e} > {tol:g}")
        apriori = check_apriori_bounds(series, report, moment(state0, 1.0),
                                       config.kernel.declared_k1)
        results["apriori_bounds"] = apriori
        for name, row in apriori.items():
            if row.get("status") == "fail":
                failures.append(f"a priori bound {name} violated")

    if "gel" in config.experiments:
        threshold = opts["gel_threshold"]
        onset = detect_gelation(series, threshold)
        results["gelation"] = {"threshold": threshold, "onset": onset}

    if "contraction" in config.experiments:
        try:
            ic_g = _scaled_initial(config.initial, opts["perturbation"])
            res = contraction_experiment(tables, config.control,
                                         trajectory, ic_g, report)
        except ConfigError as exc:
            raise ConfigError(f"contraction experiment rejected: {exc}")
        results["contraction"] = {
            "rate": res.rate, "mass_bound": res.mass_bound, "ok": res.ok,
            "distance": res.distance}
        if not res.ok:
            failures.append("contraction envelope violated")

    if "sweep" in config.experiments:
        results["e_sweep"] = e_sweep(tables, config.initial, config.control,
                                     opts["sweep_E"])

    if "dlvp" in config.experiments:
        fine = make_grid(config.grid.x_min, config.grid.x_max, 3999)
        hs = sample_initial(config.initial, fine).density
        pc = build_phi(fine.centers, hs, opts["theta"])
        rep = verify_dlvp(pc, fine.centers, hs)
        results["dlvp"] = {"j_seq": pc.j_seq, "ok": rep["ok"]}
        if not rep["ok"]:
            failures.append("dlvp construction checks failed")

    results["failures"] = failures
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    h = config.config_hash
    _write_json(out / "hypothesis_report.json", report.to_dict(), h)
    if needs_traj:
        _write_csv(out / "moments.csv",
                   ["t"] + [f"M_{m:g}" for m in series.orders],
                   np.column_stack([series.times, series.values]), h)
        cell_prefix = [f"{x!r},{dx!r}," for x, dx in
                       zip(config.grid.centers.tolist(),
                           config.grid.widths.tolist())]
        for k in range(len(trajectory)):
            _write_csv(out / f"trajectory_{k:04d}.csv", ["x_center", "dx", "f"],
                       trajectory.densities[k][:, None], h, cell_prefix)
    _write_json(out / "experiments.json", results, h)
    return 4 if failures else 0


def _scaled_initial(ic: InitialCondition, factor: float) -> InitialCondition:
    if ic.mass is None:
        raise ConfigError("contraction perturbation needs a configured mass")
    return InitialCondition(ic.family, dict(ic.params), ic.mass * factor)


def verify_only(config: ScenarioConfig, out_dir=None) -> int:
    report = check_scenario(config.kernel, config.daughter, config.prob,
                            config.initial)
    payload = report.to_dict()
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "hypothesis_report.json", payload,
                    config.config_hash)
    print(_dumps(payload))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="breakcoag",
        description="Simulator and verification suite for coagulation with "
                    "collision-induced breakage.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "verify"):
        sp = sub.add_parser(name)
        sp.add_argument("config")
        sp.add_argument("--out", default="results")
        sp.add_argument("--override", action="append", default=[],
                        metavar="KEY=VALUE")
    args = parser.parse_args(argv)

    try:
        config = parse_config(args.config, args.override)
        if args.command == "verify":
            code = verify_only(config, args.out)
        else:
            code = run_scenario(config, args.out)
    except (ConfigError, DataError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except IntegrationError as exc:
        print(f"integration failure: {exc} {exc.diagnostics}", file=sys.stderr)
        return 3
    if code == 0:
        print("ok")
    else:
        print("experiment assertions failed", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
