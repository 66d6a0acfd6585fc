"""Structured-text run configuration: strict parsing, validation, builders.

Configs are YAML with fixed blocks (grid, params, a0/a1/a2, initial,
stepper, experiment, output).  Unknown keys are errors so typos cannot
silently change a run.  Parsing normalizes every block (defaults filled,
numbers coerced), which makes serialize(parse(text)) re-parse to an equal
config and gives a stable content hash for output provenance.
"""

from __future__ import annotations

import copy
import hashlib
import math
from dataclasses import dataclass

import numpy as np
import yaml

from .coefficients import (
    CoefficientSet,
    ConstantCoefficient,
    SeparableCoefficient,
    TabulatedCoefficient,
    TimeFactor,
    spatial_profile,
)
from .errors import ConfigError
from .grid import Field, Grid
from .model import ModelParams
from .stability import KnownConstants
from .stepper import StepperConfig

__all__ = [
    "RunConfig",
    "parse_config",
    "serialize_config",
    "config_hash",
    "build_grid",
    "build_params",
    "build_coefficients",
    "build_initial",
    "build_stepper",
    "build_constants",
    "apply_override",
]

_TOP_KEYS = {"grid", "params", "a0", "a1", "a2", "initial", "stepper", "experiment", "output"}

_EXPERIMENT_KEYS = {
    "t_end", "sample_dt", "window", "n_samples", "constants", "cq1_pairs",
    "measure", "burn_ins", "seeds", "fit_window", "eps", "t_back", "t_span",
    "gap_tolerance", "sweep",
}

_PROFILE_KEYS = {
    "constant": {"value"},
    "bump": {"baseline", "amplitude", "center", "width"},
    "cosine": {"baseline", "amplitude", "mode", "axis"},
    "random-positive": {"low", "high", "seed"},
    "file": {"path"},
}

_SPACE_PROFILE_KEYS = {
    "constant": {"value"},
    "linear-ramp": {"start", "stop", "axis"},
    "sine": {"offset", "amplitude", "mode", "axis", "phase"},
    "gaussian-bump": {"baseline", "amplitude", "center", "width"},
}

_TIME_KEYS = {
    "constant": {"value"},
    "sinusoid": {"offset", "amplitude", "frequency", "phase"},
    "expdecay": {"limit", "amplitude", "rate"},
}


@dataclass(frozen=True)
class RunConfig:
    """Normalized configuration; block contents are plain dicts."""

    grid: dict
    params: dict
    a0: dict
    a1: dict
    a2: dict
    initial: dict
    stepper: dict
    experiment: dict
    output: dict

    def to_dict(self) -> dict:
        return {
            "grid": copy.deepcopy(self.grid),
            "params": copy.deepcopy(self.params),
            "a0": copy.deepcopy(self.a0),
            "a1": copy.deepcopy(self.a1),
            "a2": copy.deepcopy(self.a2),
            "initial": copy.deepcopy(self.initial),
            "stepper": copy.deepcopy(self.stepper),
            "experiment": copy.deepcopy(self.experiment),
            "output": copy.deepcopy(self.output),
        }


def _fail(key: str, message: str):
    raise ConfigError(key, message)


def _check_keys(block: dict, allowed: set[str], path: str):
    if not isinstance(block, dict):
        _fail(path, f"expected a mapping, got {type(block).__name__}")
    for key in block:
        if key not in allowed:
            _fail(f"{path}.{key}", "unknown key")


def _as_float(block: dict, key: str, path: str, default=None, required=False):
    if key not in block or block[key] is None:
        if required:
            _fail(f"{path}.{key}", "required")
        return default
    try:
        return float(block[key])
    except (TypeError, ValueError):
        _fail(f"{path}.{key}", f"not a number: {block[key]!r}")


def _as_int(block: dict, key: str, path: str, default=None, required=False):
    val = _as_float(block, key, path, default=default, required=required)
    if val is None:
        return None
    return _integral(val, f"{path}.{key}")


def _integral(val: float, key: str) -> int:
    if not float(val).is_integer():
        _fail(key, f"expected an integer, got {val}")
    return int(val)


def _as_positive(block: dict, key: str, path: str, default=None, required=False,
                 allow_zero=False):
    """A finite number above zero (or at least zero with ``allow_zero``)."""
    val = _as_float(block, key, path, default=default, required=required)
    if val is not None and not (0.0 <= val < math.inf and (allow_zero or val > 0.0)):
        _fail(f"{path}.{key}", f"must be finite and {'nonnegative' if allow_zero else 'positive'}")
    return val


def _as_bool(block: dict, key: str, path: str, default=False):
    val = block.get(key, default)
    if not isinstance(val, bool):
        _fail(f"{path}.{key}", f"expected true/false, got {val!r}")
    return val


def _float_list(raw, path: str) -> list[float]:
    if not isinstance(raw, (list, tuple)):
        _fail(path, "expected a list of numbers")
    try:
        return [float(v) for v in raw]
    except (TypeError, ValueError):
        _fail(path, f"expected numbers, got {raw!r}")


def _norm_grid(raw: dict) -> dict:
    _check_keys(raw, {"dim", "extents", "counts"}, "grid")
    extents = _float_list(raw.get("extents", [1.0]), "grid.extents")
    counts_raw = raw.get("counts")
    if counts_raw is None:
        _fail("grid.counts", "required")
    counts = [_integral(c, "grid.counts") for c in _float_list(counts_raw, "grid.counts")]
    dim = _as_int(raw, "dim", "grid", default=len(extents))
    if dim != len(extents):
        _fail("grid.dim", f"dim={dim} but {len(extents)} extents given")
    if len(counts) != len(extents):
        _fail("grid.counts", "must match extents in length")
    if dim not in (1, 2):
        _fail("grid.dim", "must be 1 or 2")
    for k, e in enumerate(extents):
        if e <= 0:
            _fail("grid.extents", f"axis {k}: must be positive")
    for k, c in enumerate(counts):
        if c < 3:
            _fail("grid.counts", f"axis {k}: need at least 3 nodes")
    return {"dim": dim, "extents": extents, "counts": counts}


def _norm_params(raw: dict) -> dict:
    _check_keys(raw, {"chi", "tau", "lambda", "mu"}, "params")
    chi = _as_float(raw, "chi", "params", default=0.0)
    if not math.isfinite(chi):
        _fail("params.chi", "must be finite")
    tau = _as_positive(raw, "tau", "params", required=True)
    lam = _as_positive(raw, "lambda", "params", required=True)
    mu = _as_positive(raw, "mu", "params", required=True)
    return {"chi": chi, "tau": tau, "lambda": lam, "mu": mu}


def _norm_space(raw, path: str) -> dict:
    if not isinstance(raw, dict) or "profile" not in raw:
        _fail(path, "expected a mapping with a 'profile' key")
    profile = raw["profile"]
    if profile not in _SPACE_PROFILE_KEYS:
        _fail(f"{path}.profile", f"unknown spatial profile {profile!r}")
    _check_keys(raw, _SPACE_PROFILE_KEYS[profile] | {"profile"}, path)
    out = {"profile": profile}
    for key, val in raw.items():
        if key == "profile":
            continue
        if key in ("axis", "mode"):
            out[key] = _as_int(raw, key, path)
        elif key == "center" and isinstance(val, (list, tuple)):
            out[key] = _float_list(val, f"{path}.center")
        else:
            out[key] = _as_float(raw, key, path)
    return out


def _norm_coefficient(raw: dict, name: str) -> dict:
    if not isinstance(raw, dict) or "kind" not in raw:
        _fail(name, "expected a mapping with a 'kind' key")
    kind = raw["kind"]
    if kind == "constant":
        _check_keys(raw, {"kind", "value"}, name)
        return {"kind": "constant", "value": _as_float(raw, "value", name, required=True)}
    if kind == "separable":
        _check_keys(raw, {"kind", "time", "space"}, name)
        time_raw = raw.get("time", {"form": "constant", "value": 1.0})
        if not isinstance(time_raw, dict) or "form" not in time_raw:
            _fail(f"{name}.time", "expected a mapping with a 'form' key")
        form = time_raw["form"]
        if form not in _TIME_KEYS:
            _fail(f"{name}.time.form", f"unknown time form {form!r}")
        _check_keys(time_raw, _TIME_KEYS[form] | {"form"}, f"{name}.time")
        time = {"form": form}
        for key in time_raw:
            if key != "form":
                time[key] = _as_float(time_raw, key, f"{name}.time")
        space = _norm_space(raw.get("space", {"profile": "constant", "value": 1.0}), f"{name}.space")
        return {"kind": "separable", "time": time, "space": space}
    if kind == "tabulated":
        _check_keys(raw, {"kind", "table_file", "clamp"}, name)
        path = raw.get("table_file")
        if not isinstance(path, str) or not path:
            _fail(f"{name}.table_file", "required path")
        return {
            "kind": "tabulated",
            "table_file": path,
            "clamp": _as_bool(raw, "clamp", name, default=True),
        }
    _fail(f"{name}.kind", f"unknown coefficient kind {kind!r}")


def _norm_initial_profile(raw, path: str) -> dict:
    if not isinstance(raw, dict) or "profile" not in raw:
        _fail(path, "expected a mapping with a 'profile' key")
    profile = raw["profile"]
    if profile not in _PROFILE_KEYS:
        _fail(f"{path}.profile", f"unknown initial profile {profile!r}")
    _check_keys(raw, _PROFILE_KEYS[profile] | {"profile"}, path)
    out = {"profile": profile}
    for key, val in raw.items():
        if key == "profile":
            continue
        if key == "path":
            out[key] = str(val)
        elif key in ("seed", "mode", "axis"):
            out[key] = _as_int(raw, key, path)
        elif key == "center" and isinstance(val, (list, tuple)):
            out[key] = _float_list(val, f"{path}.center")
        else:
            out[key] = _as_float(raw, key, path)
    return out


def _norm_initial(raw: dict) -> dict:
    _check_keys(raw, {"u", "v"}, "initial")
    u = _norm_initial_profile(raw.get("u", {"profile": "constant", "value": 1.0}), "initial.u")
    v = _norm_initial_profile(raw.get("v", {"profile": "constant", "value": 0.0}), "initial.v")
    return {"u": u, "v": v}


def _norm_stepper(raw: dict) -> dict:
    defaults = StepperConfig()
    _check_keys(
        raw,
        {"dt_init", "dt_min", "dt_max", "safety", "positivity_floor", "theta_scheme", "error_tol"},
        "stepper",
    )
    out = {
        "dt_init": _as_float(raw, "dt_init", "stepper", default=defaults.dt_init),
        "dt_min": _as_float(raw, "dt_min", "stepper", default=defaults.dt_min),
        "dt_max": _as_float(raw, "dt_max", "stepper", default=defaults.dt_max),
        "safety": _as_float(raw, "safety", "stepper", default=defaults.safety),
        "positivity_floor": _as_float(raw, "positivity_floor", "stepper", default=defaults.positivity_floor),
        "theta_scheme": _as_float(raw, "theta_scheme", "stepper", default=defaults.theta_scheme),
        "error_tol": _as_float(raw, "error_tol", "stepper", default=defaults.error_tol),
    }
    try:
        StepperConfig(**out)
    except ValueError as exc:
        _fail("stepper", str(exc))
    return out


def _norm_experiment(raw: dict) -> dict:
    _check_keys(raw, _EXPERIMENT_KEYS, "experiment")
    out: dict = {}
    out["t_end"] = _as_positive(raw, "t_end", "experiment", default=10.0, allow_zero=True)
    out["sample_dt"] = _as_positive(raw, "sample_dt", "experiment", default=None)
    if "window" in raw and raw["window"] is not None:
        window = _float_list(raw["window"], "experiment.window")
        if len(window) != 2 or not 0.0 < window[1] - window[0] < math.inf:
            _fail("experiment.window", "expected finite [start, end] with end > start")
        out["window"] = window
    out["n_samples"] = _as_int(raw, "n_samples", "experiment", default=2001)
    if out["n_samples"] < 3:
        _fail("experiment.n_samples", f"need at least 3 samples, got {out['n_samples']}")
    if "constants" in raw and raw["constants"] is not None:
        cblock = raw["constants"]
        _check_keys(cblock, {"M1", "M2", "eta", "C3_tilde"}, "experiment.constants")
        out["constants"] = {
            k: _as_float(cblock, k, "experiment.constants")
            for k in ("M1", "M2", "eta", "C3_tilde")
            if cblock.get(k) is not None
        }
    if "cq1_pairs" in raw and raw["cq1_pairs"] is not None:
        pairs = raw["cq1_pairs"]
        if not isinstance(pairs, (list, tuple)):
            _fail("experiment.cq1_pairs", "expected a list of [q, C] pairs")
        out["cq1_pairs"] = [
            _float_list(p, "experiment.cq1_pairs") for p in pairs
        ]
        for p in out["cq1_pairs"]:
            if len(p) != 2:
                _fail("experiment.cq1_pairs", "each entry must be [q, C]")
    out["measure"] = _as_bool(raw, "measure", "experiment", default=False)
    if "burn_ins" in raw and raw["burn_ins"] is not None:
        burn = _float_list(raw["burn_ins"], "experiment.burn_ins")
        if len(burn) != 3 or not all(0.0 <= b <= out["t_end"] for b in burn):
            _fail("experiment.burn_ins", "expected [mass, amplitude, chemical], each in "
                  f"[0, experiment.t_end] = [0, {out['t_end']}], got {burn}")
        out["burn_ins"] = burn
    if "seeds" in raw and raw["seeds"] is not None:
        if not isinstance(raw["seeds"], list):
            _fail("experiment.seeds", "expected a list of {u, v} blocks")
        seeds = []
        for i, blk in enumerate(raw["seeds"]):
            if not isinstance(blk, dict):
                _fail(f"experiment.seeds[{i}]", "expected a mapping")
            _check_keys(blk, {"u", "v"}, f"experiment.seeds[{i}]")
            seeds.append({
                "u": _norm_initial_profile(blk.get("u", {"profile": "constant", "value": 1.0}), f"experiment.seeds[{i}].u"),
                "v": _norm_initial_profile(blk.get("v", {"profile": "constant", "value": 0.0}), f"experiment.seeds[{i}].v"),
            })
        out["seeds"] = seeds
    if "fit_window" in raw and raw["fit_window"] is not None:
        fw = _float_list(raw["fit_window"], "experiment.fit_window")
        if len(fw) != 2 or not 0.0 < fw[1] - fw[0] < math.inf:
            _fail("experiment.fit_window", "expected finite [start, end] with end > start")
        out["fit_window"] = fw
    out["eps"] = _as_positive(raw, "eps", "experiment", default=None, allow_zero=True)
    out["t_back"] = _as_positive(raw, "t_back", "experiment", default=None, allow_zero=True)
    if "t_span" in raw and raw["t_span"] is not None:
        span = _float_list(raw["t_span"], "experiment.t_span")
        if len(span) != 2 or not 0.0 < span[1] - span[0] < math.inf:
            _fail("experiment.t_span", "expected finite [start, end] with end > start")
        out["t_span"] = span
    out["gap_tolerance"] = _as_positive(raw, "gap_tolerance", "experiment", default=1.0e-6)
    if "sweep" in raw and raw["sweep"] is not None:
        sw = raw["sweep"]
        _check_keys(sw, {"axes"}, "experiment.sweep")
        axes = sw.get("axes")
        if not isinstance(axes, dict) or not axes:
            _fail("experiment.sweep.axes", "expected a mapping of path -> values")
        out["sweep"] = {"axes": {
            str(path): _float_list(vals, f"experiment.sweep.axes.{path}")
            for path, vals in axes.items()
        }}
    return out


def _norm_output(raw: dict) -> dict:
    _check_keys(raw, {"dir", "name"}, "output")
    return {
        "dir": str(raw.get("dir", "out")),
        "name": str(raw.get("name", "run")),
    }


def parse_config(text: str) -> RunConfig:
    """Parse and validate a YAML config; unknown keys are errors."""
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError("<document>", f"not valid YAML: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        _fail("<document>", "top level must be a mapping")
    for key in raw:
        if key not in _TOP_KEYS:
            _fail(key, "unknown top-level block")
    for required in ("grid", "params"):
        if required not in raw:
            _fail(required, "required block missing")
    return RunConfig(
        grid=_norm_grid(raw["grid"]),
        params=_norm_params(raw["params"]),
        a0=_norm_coefficient(raw.get("a0", {"kind": "constant", "value": 1.0}), "a0"),
        a1=_norm_coefficient(raw.get("a1", {"kind": "constant", "value": 1.0}), "a1"),
        a2=_norm_coefficient(raw.get("a2", {"kind": "constant", "value": 0.0}), "a2"),
        initial=_norm_initial(raw.get("initial", {})),
        stepper=_norm_stepper(raw.get("stepper", {})),
        experiment=_norm_experiment(raw.get("experiment", {})),
        output=_norm_output(raw.get("output", {})),
    )


def serialize_config(cfg: RunConfig) -> str:
    """Canonical YAML text; parse(serialize(parse(x))) == parse(x)."""
    return yaml.safe_dump(cfg.to_dict(), sort_keys=True, default_flow_style=False)


def config_hash(cfg: RunConfig) -> str:
    """Stable content hash of the normalized config (first 12 hex chars)."""
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()[:12]


def apply_override(cfg: RunConfig, path: str, value: float) -> RunConfig:
    """Return a new config with one dotted-path scalar replaced (sweeps)."""
    data = cfg.to_dict()
    parts = path.split(".")
    node = data
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            _fail(path, "no such config entry")
        node = node[part]
    leaf = parts[-1]
    if not isinstance(node, dict) or leaf not in node:
        _fail(path, "no such config entry")
    node[leaf] = float(value)
    return parse_config(yaml.safe_dump(data))


# --- builders -------------------------------------------------------------

def build_grid(cfg: RunConfig) -> Grid:
    return Grid(tuple(cfg.grid["extents"]), tuple(cfg.grid["counts"]))


def build_params(cfg: RunConfig) -> ModelParams:
    p = cfg.params
    return ModelParams(chi=p["chi"], tau=p["tau"], lam=p["lambda"], mu=p["mu"])


def _space_field(grid: Grid, block: dict) -> Field:
    kwargs = {k: v for k, v in block.items() if k != "profile"}
    if "center" in kwargs and isinstance(kwargs["center"], list):
        kwargs["center"] = tuple(kwargs["center"])
    return spatial_profile(grid, block["profile"], **kwargs)


def _build_coefficient(block: dict, grid: Grid, role: int, name: str):
    if block["kind"] == "constant":
        return ConstantCoefficient(grid, role, block["value"])
    if block["kind"] == "separable":
        time = TimeFactor(**block["time"])
        space = _space_field(grid, block["space"])
        return SeparableCoefficient(grid, role, time, space)
    if block["kind"] == "tabulated":
        knots, tables = _read_table(block["table_file"], grid, name)
        return TabulatedCoefficient(grid, role, knots, tables, clamp=block["clamp"])
    raise ConfigError(name, f"unknown kind {block['kind']!r}")


def _read_table(path: str, grid: Grid, name: str):
    try:
        raw = np.loadtxt(path, delimiter=",", ndmin=2)
    except OSError as exc:
        raise ConfigError(f"{name}.table_file", f"cannot read {path}: {exc}") from exc
    if raw.shape[1] != 1 + grid.node_count:
        raise ConfigError(
            f"{name}.table_file",
            f"expected 1 + {grid.node_count} columns, got {raw.shape[1]}",
        )
    return raw[:, 0], [row for row in raw[:, 1:]]


def build_coefficients(cfg: RunConfig, grid: Grid) -> CoefficientSet:
    return CoefficientSet(
        a0=_build_coefficient(cfg.a0, grid, 0, "a0"),
        a1=_build_coefficient(cfg.a1, grid, 1, "a1"),
        a2=_build_coefficient(cfg.a2, grid, 2, "a2"),
    )


def build_profile_field(grid: Grid, block: dict, seed_override: int | None = None) -> Field:
    """Initial-data field from a named profile block."""
    profile = block["profile"]
    if profile == "constant":
        return Field.constant(grid, block.get("value", 0.0))
    if profile == "bump":
        kwargs = {k: v for k, v in block.items() if k != "profile"}
        if "center" in kwargs and isinstance(kwargs["center"], list):
            kwargs["center"] = tuple(kwargs["center"])
        return spatial_profile(grid, "gaussian-bump", **kwargs)
    if profile == "cosine":
        baseline = block.get("baseline", 1.0)
        amplitude = block.get("amplitude", 0.5)
        mode = block.get("mode", 1)
        axis = block.get("axis", 0)
        coords = grid.coords()
        x = coords[axis]
        return Field(grid, baseline + amplitude * np.cos(mode * np.pi * x / grid.extents[axis]))
    if profile == "random-positive":
        low = block.get("low", 0.1)
        high = block.get("high", 1.0)
        seed = block.get("seed", 0)
        if not 0.0 <= low < high:
            raise ConfigError("initial", f"need 0 <= low < high, got {low}, {high}")
        # an override is mixed with the declared seed, so distinct declared
        # seeds stay distinct streams
        rng = np.random.default_rng(seed if seed_override is None else [seed_override, seed])
        return Field(grid, rng.uniform(low, high, size=grid.counts))
    if profile == "file":
        try:
            vals = np.loadtxt(block["path"], delimiter=",")
        except OSError as exc:
            raise ConfigError("initial.path", f"cannot read {block['path']}: {exc}") from exc
        return Field(grid, np.asarray(vals, dtype=float).reshape(grid.counts))
    raise ConfigError("initial.profile", f"unknown profile {profile!r}")


def build_initial(cfg: RunConfig, grid: Grid, seed_override: int | None = None):
    u0 = build_profile_field(grid, cfg.initial["u"], seed_override)
    v0 = build_profile_field(grid, cfg.initial["v"], seed_override)
    if u0.min() < 0.0:
        raise ConfigError("initial.u", "must be nonnegative")
    if v0.min() < 0.0:
        raise ConfigError("initial.v", "must be nonnegative")
    return u0, v0


def build_stepper(cfg: RunConfig) -> StepperConfig:
    return StepperConfig(**cfg.stepper)


def build_constants(cfg: RunConfig) -> KnownConstants:
    exp = cfg.experiment
    values = dict(exp.get("constants", {}))
    pairs = tuple((q, c) for q, c in exp.get("cq1_pairs", []))
    provenance = {k: "config" for k in values}
    try:
        return KnownConstants(cq1_pairs=pairs, provenance=provenance, **values)
    except ValueError as exc:
        raise ConfigError("experiment.constants", str(exc)) from exc
