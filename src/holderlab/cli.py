"""Command-line front end: config ingestion, dispatch, caching, export.

A single JSON config names the system, the weights, one command, and its
parameters.  Outputs are CSV/JSON files written atomically into the output
directory together with a manifest listing every artifact.  Each run is
memoised as one content-addressed cache entry that holds all of its
artifacts, keyed by the full request and a digest of the package's source,
so a repeated run writes byte-identical files without recomputation and
changed code never reads old results.  The manifest is written fresh.
Every command's parameters are declared once, in `PARAMS`.

Exit codes: 0 success, 1 configuration error, 2 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .cache import _write_atomic, cache_key, cached_bytes
from .conjugacy import conjugacy_residual, rigidity_report
from .exponents import spectrum_experiment
from .ifs import ConfigurationError, IFSystem, ProbVector, attractor_hull, \
    system_from_json, system_to_json
from .takagi import eval_derivative_point
from .thermo import PressureCurve, alpha_endpoints, spectrum
from .transition import cdf_values, eval_cdf, gap_probe, uniform_grid


class CliError(Exception):
    """Configuration-level problem; maps to exit code 1."""


_REQUIRED = object()     # default of a parameter the config must give
_SEED = ("int", 0, ">= 0")
_MARGIN = ("num", 0.25, "> -0.5")   # keeps the grid nodes increasing

# Every command's parameters as {name: (kind, default, range)}; any other
# key, or a value of another kind or outside its range, is a configuration
# error.  Kinds: "int" (a JSON integer, an integral number or an integer
# string, never a boolean), "num" (a finite JSON number or numeric string),
# "bool" (JSON true or false), "int[]" and "num[]" (non-empty lists, the
# range applying to each entry), and a table of its own for a grid layout:
# an object with those keys, or an explicit "num[]" list.  A range is a
# comma-separated list of "op bound" conditions; a bound such as "2**128"
# stands for that power, and Python compares an integer with a float bound
# exactly.  A None default leaves the choice to the library.  The filled-in
# parameters go into the manifest and the cache key as they are.
PARAMS = {
    "eval-t": {"grid_size": ("int", 4097, ">= 2"), "margin": _MARGIN,
               "tol": ("num", 1e-12, "> 0")},
    "eval-c": {"order": ("int[]", _REQUIRED, ">= 0"),
               "grid_size": ("int", 1025, ">= 2"), "margin": _MARGIN,
               "depth": ("int", 80, ">= 1")},
    "spectrum": {"alpha_grid": ({"count": ("int", 201, ">= 1")}, {}, ""),
                 "rigidity_tol": ("num", 1e-9, "> 0")},
    "pressure": {"beta_grid": ({"lo": ("num", -10.0, ""),
                                "hi": ("num", 10.0, ""),
                                "count": ("int", 81, ">= 1")}, {}, ""),
                 "rigidity_tol": ("num", 1e-9, "> 0")},
    "gap": {"alpha": ("num", _REQUIRED, "> 0, <= 1"),
            "n_max": ("int", 60, ">= 3"), "grid_size": ("int", 8193, ">= 2"),
            "margin": _MARGIN, "probe_words": ("int", 64, ">= 0"),
            "seed": ("int", 0, ">= 0, < 2**128")},     # a Philox key
    "exponent": {"betas": ("num[]", [float(b) for b in range(-4, 5)], ""),
                 "word_len": ("int", 60, ">= 1"),
                 "count": ("int", 32, ">= 1"), "seed": _SEED,
                 "with_empirical": ("bool", False, ""),
                 "scales": ("num[]", None, "> 0")},
    "conjugacy": {"sample_count": ("int", 1000, ">= 1"),
                  "tol": ("num", 1e-10, "> 0"),
                  "exclusion": ("num", 1e-6, "> 0"), "seed": _SEED},
    "report": {"tol": ("num", 1e-9, "> 0"),
               "sample_count": ("int", 256, ">= 1"), "seed": _SEED,
               "grid_sizes": ("int[]", [1025, 2049, 4097], ">= 2")},
}
_FLAGS = {"seed": _SEED, "threads": ("int", 1, ">= 1")}
_OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt,
        "<=": operator.le}
_NOUNS = {"int": "an integer", "num": "a finite number",
          "bool": "true or false"}


@dataclass
class RunConfig:
    system: IFSystem
    p: ProbVector
    mode: str
    command: str
    params: dict
    out: Path
    seed: int


def load_config(path: str, out: Optional[str] = None, seed: Optional[int] = None,
                mode: Optional[str] = None, threads: int = 1) -> RunConfig:
    """Parse and validate the JSON config, applying CLI overrides.

    `threads` is checked but has no effect: every command runs on one
    thread.
    """
    cfg_path = Path(path)
    if not cfg_path.is_file():
        raise CliError(f"config file not found: {path}")
    try:
        doc = json.loads(cfg_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CliError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CliError("config root must be a JSON object")
    extra = set(doc) - {"system", "command", "params", "out"}
    if extra:
        raise CliError(f"unknown config keys {sorted(extra)}")
    if "system" not in doc or "command" not in doc:
        raise CliError("config needs 'system' and 'command'")

    if not isinstance(doc["system"], dict):
        raise CliError("'system' must be an object")
    sysdoc = dict(doc["system"])
    if mode is not None:
        sysdoc["mode"] = mode
    try:
        system, p, eff_mode = system_from_json(sysdoc)
    except ConfigurationError as exc:
        raise CliError(str(exc)) from exc

    command = doc["command"]
    if command not in PARAMS:
        raise CliError(f"unknown command {command!r}; expected one of "
                       f"{', '.join(PARAMS)}")
    table = PARAMS[command]
    params = _resolve(table, doc.get("params", {}))
    given = {"threads": threads} if seed is None else \
        {"threads": threads, "seed": seed}
    # --seed meets the command's own seed range
    flags = _resolve(dict(_FLAGS, seed=table.get("seed", _SEED)), given, "--")
    if seed is not None and "seed" in params:
        params["seed"] = flags["seed"]

    out_dir = out if out is not None else doc.get("out")
    if not isinstance(out_dir, str):
        raise CliError("output directory missing: set 'out' to a path string "
                       "or pass --out")
    out_dir = Path(out_dir)
    # the nearest existing path must be a directory to make `out` under it
    near = next(d for d in (out_dir, *out_dir.parents) if d.exists())
    if not near.is_dir():
        raise CliError(f"output directory {out_dir} cannot be made: "
                       f"{near} is not a directory")
    return RunConfig(system=system, p=p, mode=eff_mode, command=command,
                     params=params, out=out_dir,
                     seed=params.get("seed", flags["seed"]))


def _resolve(table: dict, given, prefix: str = "") -> dict:
    """`given` checked against `table` and filled in with its defaults."""
    if not isinstance(given, dict):
        raise CliError("'params' must be an object")
    extra = set(given) - set(table)
    if extra:
        raise CliError("unknown parameters "
                       f"{[prefix + k for k in sorted(extra)]}")
    out = {}
    for name, (kind, default, rng) in table.items():
        value = given.get(name, default)
        if value is _REQUIRED:
            raise CliError(f"parameter {prefix}{name} is required")
        out[name] = None if value is default is None else \
            _value(kind, value, rng, prefix + name)
    return out


def _value(kind, value, rng: str, name: str):
    """value read as `kind` and checked against `rng`; else a CliError."""
    if isinstance(kind, dict):          # a grid layout, or an explicit list
        if isinstance(value, dict):
            return _resolve(kind, value, name + ".")
        kind = "num[]"
    if kind.endswith("[]"):
        if not isinstance(value, list) or not value:
            raise CliError(f"parameter {name} must be a non-empty list, "
                           f"got {value!r}")
        return [_value(kind[:-2], v, rng, name) for v in value]
    try:
        if isinstance(value, bool) != (kind == "bool") or \
                not isinstance(value, (int, float, str)):
            raise ValueError
        if kind == "int" and (not isinstance(value, float)
                              or value.is_integer()):
            value = int(value)
        elif kind == "num" and math.isfinite(float(value)):
            value = float(value)
        elif kind != "bool":
            raise ValueError
    except (ValueError, OverflowError):
        raise CliError(f"parameter {name} must be {_NOUNS[kind]}, "
                       f"got {value!r}") from None
    for op, bound in (cond.split() for cond in rng.split(",") if cond):
        base, _, power = bound.partition("**")
        if not _OPS[op](value, float(base) ** int(power or 1)):
            raise CliError(f"parameter {name} must be {rng}, got {value!r}")
    return value


def _grid(cfg: RunConfig):
    size, margin = cfg.params["grid_size"], cfg.params["margin"]
    if cfg.mode != "rational":
        return uniform_grid(cfg.system, size, margin)
    a, b = (Fraction(v) for v in attractor_hull(cfg.system))
    pad = Fraction(margin).limit_denominator(10**6) * (b - a)
    lo, span = a - pad, (b - a) + 2 * pad
    return [lo + span * Fraction(i, size - 1) for i in range(size)]


def _cell(v) -> str:
    if v is None:                       # a missing value
        return ""
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _csv(header: str, rows) -> bytes:
    lines = [header]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    return ("\n".join(lines) + "\n").encode("utf-8")


def _json_bytes(obj) -> bytes:
    text = json.dumps(obj, indent=2, sort_keys=True)
    return (text + "\n").encode("utf-8")


@functools.cache
def _code_digest() -> str:
    """sha256 over the names and bytes of the package's modules, read once
    per process on the first cached command, not at import."""
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _thermo_summary(cfg: RunConfig, ep):
    rigidity_tol = cfg.params["rigidity_tol"]
    return ("summary.json", _json_bytes({
        "alpha_minus": ep.alpha_minus,
        "alpha_plus": ep.alpha_plus,
        "alpha_zero": ep.alpha_zero,
        "delta": ep.delta,
        "rigidity": bool(ep.alpha_plus - ep.alpha_minus <= rigidity_tol),
    }), {"rigidity_tol": rigidity_tol})


def _cmd_eval_t(cfg: RunConfig):
    params = dict(cfg.params, mode=cfg.mode)
    tol, nodes = params["tol"], _grid(cfg)
    if cfg.mode == "rational":
        rows = [(x, eval_cdf(cfg.system, cfg.p, x, tol=tol)[0]) for x in nodes]
    else:
        rows = zip(nodes, cdf_values(cfg.system, cfg.p, nodes, tol=tol))
    return [("T.csv", _csv("x,value", rows), params)]


def _cmd_eval_c(cfg: RunConfig):
    params = dict(cfg.params, mode=cfg.mode)
    order, free = tuple(params["order"]), cfg.system.branch_count - 1
    if len(order) != free or sum(order) < 1:
        raise CliError(f"parameter order needs {free} entries with positive "
                       f"total, got {list(order)}")
    # every node walks its own coding, exact or float as the inputs are
    rows = [(x, *eval_derivative_point(cfg.system, cfg.p, order, x,
                                       depth=params["depth"]))
            for x in _grid(cfg)]
    return [("C.csv", _csv("x,C_value,err_bound", rows), params)]


def _cmd_spectrum(cfg: RunConfig):
    ep = alpha_endpoints(cfg.system, cfg.p)
    alphas = cfg.params["alpha_grid"]
    if isinstance(alphas, dict):
        alphas = list(np.linspace(ep.alpha_minus, ep.alpha_plus,
                                  alphas["count"]))
    params = dict(cfg.params, alpha_grid=alphas)
    # an empty level set has no g and no argmin: empty cells
    rows = [(pt.alpha, *((None, None) if pt.empty
                         else (pt.g, pt.beta_argmin)))
            for pt in spectrum(cfg.system, cfg.p, alphas)]
    return [("spectrum.csv", _csv("alpha,g,beta_argmin", rows), params),
            _thermo_summary(cfg, ep)]


def _cmd_pressure(cfg: RunConfig):
    betas = cfg.params["beta_grid"]
    if isinstance(betas, dict):
        if not math.isfinite(betas["hi"] - betas["lo"]):
            raise CliError("parameter beta_grid spans more than a double "
                           f"holds: {betas['lo']!r} to {betas['hi']!r}")
        betas = list(np.linspace(betas["lo"], betas["hi"], betas["count"]))
    params = dict(cfg.params, beta_grid=betas)
    curve = PressureCurve(cfg.system, cfg.p)
    return [("pressure.csv", _csv("beta,t,t_prime", curve.samples(betas)),
             params), _thermo_summary(cfg, curve.endpoints)]


def _cmd_gap(cfg: RunConfig):
    report = gap_probe(cfg.system, cfg.p, **cfg.params)
    rows = [(n, s, v) for n, (s, v) in
            enumerate(zip(report.sup_norms, report.norms))]
    body = _csv("n,sup_residual,holder_seminorm", rows)
    verdict = _json_bytes({k: getattr(report, k) for k in
                           ("alpha", "verdict", "slope", "slope_stderr")})
    return [("gap.csv", body, cfg.params), ("gap.json", verdict, cfg.params)]


def _cmd_exponent(cfg: RunConfig):
    params = cfg.params
    evaluate = None
    if params["with_empirical"]:
        evaluate = lambda xs: cdf_values(cfg.system, cfg.p, xs, tol=1e-14)
    # beta number i draws with seed + i
    rows = spectrum_experiment(cfg.system, cfg.p, params["betas"],
                               word_len=params["word_len"],
                               count=params["count"], seed=params["seed"],
                               evaluate=evaluate, scales=params["scales"])
    header = "beta,alpha_pred,g,dyn_mean,dyn_sigma,emp_mean,emp_sigma,count,seed"
    # without the empirical estimate its columns are empty cells
    blank = {"emp_mean", "emp_sigma"} if evaluate is None else set()
    return [("exponent.csv", _csv(header, [
        tuple(None if k in blank else r[k] for k in header.split(","))
        for r in rows]), params)]


def _cmd_conjugacy(cfg: RunConfig):
    worst = conjugacy_residual(cfg.system, cfg.p, **cfg.params)
    return [("conjugacy.json", _json_bytes({
        "max_conjugacy_residual": worst,
        **{k: cfg.params[k] for k in ("sample_count", "tol", "seed")}}),
        cfg.params)]


def _cmd_report(cfg: RunConfig):
    report = rigidity_report(cfg.system, cfg.p, **cfg.params)
    return [("rigidity.json", _json_bytes(report.to_json()), cfg.params)]


_DISPATCH = {
    "eval-t": _cmd_eval_t,
    "eval-c": _cmd_eval_c,
    "spectrum": _cmd_spectrum,
    "pressure": _cmd_pressure,
    "gap": _cmd_gap,
    "exponent": _cmd_exponent,
    "conjugacy": _cmd_conjugacy,
    "report": _cmd_report,
}


def run(cfg: RunConfig) -> int:
    """Execute one command, or serve it from the cache, and write its
    artifacts plus the manifest."""
    system = system_to_json(cfg.system, cfg.p, cfg.mode)
    key = cache_key({"version": __version__, "code": _code_digest(),
                     "op": cfg.command, "system": system,
                     "params": cfg.params})

    def produce():                      # every body is UTF-8 text
        return _json_bytes([(name, body.decode("utf-8"), params) for
                            name, body, params in _DISPATCH[cfg.command](cfg)])

    outputs = json.loads(cached_bytes(key, produce))
    for name, body, _ in outputs:
        _write_atomic(cfg.out / name, body.encode("utf-8"))
    manifest = {
        "version": __version__,
        "command": cfg.command,
        "mode": cfg.mode,
        "seed": cfg.seed,
        "system": system,
        "outputs": [{"file": name, "params": params}
                    for name, _, params in outputs],
    }
    _write_atomic(cfg.out / "manifest.json", _json_bytes(manifest))
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def main(argv=None) -> int:
    parser = _Parser(prog="holderlab",
                     description="Random interval dynamics toolkit")
    parser.add_argument("--config", required=True, help="JSON run config")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, help="RNG seed override")
    parser.add_argument("--mode", choices=("float", "rational"),
                        help="arithmetic mode override")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility (>= 1); no effect")
    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config, out=args.out, seed=args.seed,
                          mode=args.mode, threads=args.threads)
    except CliError as exc:
        print(f"holderlab: config error: {exc}", file=sys.stderr)
        return 1
    try:
        return run(cfg)
    except CliError as exc:
        print(f"holderlab: config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # numeric/runtime failure from the modules
        print(f"holderlab: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
