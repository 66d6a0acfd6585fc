"""Structured-text run configuration: strict parsing, validation, builders.

Configs are YAML with fixed blocks (grid, params, a0/a1/a2, initial,
stepper, experiment, output); unknown keys are errors, so typos cannot
silently change a run.  Parsing coerces numbers and fills block defaults, so
serialize(parse(text)) re-parses to an equal config with a stable content
hash.  Named profiles (``initial.u``, ``aN.space``, seed states) are declared
once, in ``coefficients.INITIAL_PROFILES`` and ``SPATIAL_PROFILES``; their
defaults are filled when built.  A sweep point and the CLI ``--seed`` are each
one edit, normalized once.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from pathlib import PurePath

import numpy as np
import yaml

from .coefficients import (
    INITIAL_PROFILES,
    SPATIAL_PROFILES,
    CoefficientSet,
    ConstantCoefficient,
    SeparableCoefficient,
    TabulatedCoefficient,
    TimeFactor,
    build_profile_field,
)
from .errors import ConfigError
from .grid import Grid
from .model import ModelParams
from .stability import KnownConstants
from .stepper import StepperConfig

# hashlib loads OpenSSL, about 3 MB of memory in every command; the
# interpreter's own SHA-256 gives the same digest
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10, 3.11
    except ImportError:  # a build without the built-in module
        from hashlib import sha256

__all__ = [
    "RunConfig",
    "parse_config",
    "serialize_config",
    "build_grid",
    "build_params",
    "build_coefficients",
    "build_initial",
    "build_initial_field",
    "build_stepper",
    "build_constants",
    "apply_override",
    "with_seed",
]

_TOP_KEYS = {"grid", "params", "a0", "a1", "a2", "initial", "stepper", "experiment", "output"}

_EXPERIMENT_KEYS = {
    "t_end", "sample_dt", "window", "n_samples", "constants", "cq1_pairs",
    "measure", "burn_ins", "seeds", "fit_window", "eps", "t_back",
    "gap_tolerance", "sweep",
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

    @cached_property
    def content_hash(self) -> str:
        """Stable content hash of the normalized config (first 12 hex chars).

        Serializing takes milliseconds and every output path carries the
        hash, so it is computed once; the blocks are not edited after
        parsing (a sweep point is a new config).
        """
        return sha256(serialize_config(self).encode()).hexdigest()[:12]


def _fail(key: str, message: str):
    raise ConfigError(key, message)


def _build(key: str, cls, **values):
    """``cls(**values)``; a ConfigError the type raises is re-keyed under ``key``."""
    try:
        return cls(**values)
    except ConfigError as exc:
        _fail(f"{key}.{exc.key}", exc.message)


def _check_keys(block: dict, allowed: set[str], path: str):
    if not isinstance(block, dict):
        _fail(path, f"expected a mapping, got {type(block).__name__}")
    for key in block:
        if key not in allowed:
            _fail(f"{path}.{key}", "unknown key")


def _as_float(block: dict, key: str, path: str, default=None, required=False, finite=False):
    if key not in block or block[key] is None:
        if required:
            _fail(f"{path}.{key}", "required")
        return default
    try:
        val = float(block[key])
    except OverflowError:  # an integer beyond the float range
        _fail(f"{path}.{key}", "too large for a float")
    except (TypeError, ValueError):
        _fail(f"{path}.{key}", f"not a number: {block[key]!r}")
    if finite and not math.isfinite(val):
        _fail(f"{path}.{key}", "must be finite")
    return val


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
    except OverflowError:
        _fail(path, "expected numbers, got an integer too large for a float")
    except (TypeError, ValueError):
        _fail(path, f"expected numbers, got {raw!r}")


def _interval(raw, key: str) -> list[float]:
    span = _float_list(raw, key)
    if len(span) != 2 or not 0.0 < span[1] - span[0] < math.inf:
        _fail(key, "expected finite [start, end] with end > start")
    return span


def _norm_grid(raw: dict) -> dict:
    _check_keys(raw, {"dim", "extents", "counts"}, "grid")
    extents = _float_list(raw.get("extents", [1.0]), "grid.extents")
    if raw.get("counts") is None:
        _fail("grid.counts", "required")
    counts = [_integral(c, "grid.counts") for c in _float_list(raw["counts"], "grid.counts")]
    dim = _as_int(raw, "dim", "grid", default=len(extents))
    if dim != len(extents):
        _fail("grid.dim", f"dim={dim} but {len(extents)} extents given")
    _build("grid", Grid, extents=extents, counts=counts)
    return {"dim": dim, "extents": extents, "counts": counts}


def _norm_params(raw: dict) -> dict:
    _check_keys(raw, {"chi", "tau", "lambda", "mu"}, "params")
    out = {"chi": _as_float(raw, "chi", "params", default=0.0)}
    out.update((key, _as_float(raw, key, "params", required=True)) for key in ("tau", "lambda", "mu"))
    _build("params", ModelParams, chi=out["chi"], tau=out["tau"], lam=out["lambda"], mu=out["mu"])
    return out


def _norm_profile(raw, path: str, table: dict, what: str) -> dict:
    """A ``{profile: name, ...}`` block of a profile table; ``what`` names the
    table in errors.  Defaults are left out, so they do not enter the hash."""
    if not isinstance(raw, dict) or "profile" not in raw:
        _fail(path, "expected a mapping with a 'profile' key")
    profile = raw["profile"]
    if not isinstance(profile, str) or profile not in table:
        _fail(f"{path}.profile", f"unknown {what} profile {profile!r}")
    _check_keys(raw, table[profile].defaults.keys() | {"profile"}, path)
    out = {"profile": profile}
    for key, val in raw.items():
        if key == "path":
            out[key] = str(val)
        elif key == "seed":
            out[key] = _as_seed(val, path)
        elif key in ("mode", "axis"):
            out[key] = _as_int(raw, key, path, required=True)
        elif key == "center" and isinstance(val, (list, tuple)):
            out[key] = _float_list(val, f"{path}.center")
        elif key != "profile":
            out[key] = _as_float(raw, key, path, required=True)
    return out


def _as_seed(val, path: str):
    """``seed``: an integer, or a non-empty list of integers (entropy for ``default_rng``)."""
    items = val if isinstance(val, list) else [val]
    if not items:
        _fail(f"{path}.seed", "expected an integer or a non-empty list of integers")
    # an int is kept exact: through a float, a seed beyond 2**53 would round
    out = [v if type(v) is int else _as_int({"seed": v}, "seed", path, required=True)
           for v in items]
    return out if isinstance(val, list) else out[0]


_DEFAULT_UV = {
    "u": {"profile": "constant", "value": 1.0},
    "v": {"profile": "constant", "value": 0.0},
}


def _norm_uv(raw, path: str) -> dict:
    """An initial state ``{u, v}`` (the ``initial`` block or one seed)."""
    _check_keys(raw, set(_DEFAULT_UV), path)
    return {k: _norm_profile(raw.get(k, default), f"{path}.{k}", INITIAL_PROFILES, "initial")
            for k, default in _DEFAULT_UV.items()}


def _norm_coefficient(raw: dict, name: str) -> dict:
    if not isinstance(raw, dict) or "kind" not in raw:
        _fail(name, "expected a mapping with a 'kind' key")
    kind = raw["kind"]
    if kind == "constant":
        _check_keys(raw, {"kind", "value"}, name)
        return {"kind": "constant", "value": _as_float(raw, "value", name, required=True, finite=True)}
    if kind == "separable":
        _check_keys(raw, {"kind", "time", "space"}, name)
        time_raw = raw.get("time", {"form": "constant", "value": 1.0})
        if not isinstance(time_raw, dict) or "form" not in time_raw:
            _fail(f"{name}.time", "expected a mapping with a 'form' key")
        form = _build(f"{name}.time", TimeFactor, form=time_raw["form"]).form  # picks the keys
        _check_keys(time_raw, {"form", *TimeFactor.PARAMS[form]}, f"{name}.time")
        time = {key: _as_float(time_raw, key, f"{name}.time", required=True)
                for key in time_raw if key != "form"}
        _build(f"{name}.time", TimeFactor, form=form, **time)
        space = _norm_profile(raw.get("space", {"profile": "constant", "value": 1.0}),
                              f"{name}.space", SPATIAL_PROFILES, "spatial")
        return {"kind": "separable", "time": {"form": form, **time}, "space": space}
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


def _norm_stepper(raw: dict) -> dict:
    defaults = StepperConfig()
    names = [f.name for f in fields(StepperConfig)]
    _check_keys(raw, set(names), "stepper")
    out = {name: _as_float(raw, name, "stepper", default=getattr(defaults, name)) for name in names}
    _build("stepper", StepperConfig, **out)
    return out


def _norm_experiment(raw: dict) -> dict:
    _check_keys(raw, _EXPERIMENT_KEYS, "experiment")
    out: dict = {}
    out["t_end"] = _as_positive(raw, "t_end", "experiment", default=10.0, allow_zero=True)
    out["sample_dt"] = _as_positive(raw, "sample_dt", "experiment", default=None)
    for key in ("window", "fit_window"):
        if raw.get(key) is not None:
            out[key] = _interval(raw[key], f"experiment.{key}")
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
        _build("experiment.constants", KnownConstants, **out["constants"])
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
            seeds.append(_norm_uv(blk, f"experiment.seeds[{i}]"))
        out["seeds"] = seeds
    out["eps"] = _as_positive(raw, "eps", "experiment", default=None, allow_zero=True)
    out["t_back"] = _as_positive(raw, "t_back", "experiment", default=None, allow_zero=True)
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
    name = str(raw.get("name", "run"))
    if name in ("", ".", "..") or PurePath(name).name != name:
        _fail("output.name", f"expected a plain file stem without a path separator, got {name!r}")
    return {"dir": str(raw.get("dir", "out")), "name": name}


def parse_config(text: str) -> RunConfig:
    """Parse and validate a YAML config; unknown keys are errors."""
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:  # one line: PyYAML's own text spans several
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        problem = getattr(exc, "problem", None) or " ".join(str(exc).split())
        raise ConfigError("<document>", f"not valid YAML: {problem}{where}") from exc
    return _normalize({} if raw is None else raw)


def _normalize(raw) -> RunConfig:
    """Validate a loaded document and fill every default."""
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
        initial=_norm_uv(raw.get("initial", {}), "initial"),
        stepper=_norm_stepper(raw.get("stepper", {})),
        experiment=_norm_experiment(raw.get("experiment", {})),
        output=_norm_output(raw.get("output", {})),
    )


def serialize_config(cfg: RunConfig) -> str:
    """Canonical YAML text; parse(serialize(parse(x))) == parse(x)."""
    return yaml.safe_dump(asdict(cfg), sort_keys=True, default_flow_style=False)


def apply_override(cfg: RunConfig, point: dict[str, float]) -> RunConfig:
    """Return a new config with each ``{dotted path: scalar}`` of ``point`` set (a sweep point).

    A path names a key of the normalized config, so a default can be set.  The
    edit is normalized, and so judged, once as a whole: path order does not matter.
    """
    data = asdict(cfg)
    for path, value in point.items():
        keys = path.split(".")
        node = data
        for key in keys:
            if not isinstance(node, dict) or key not in node:
                _fail(path, "no such config entry")
            parent, node = node, node[key]
        parent[keys[-1]] = float(value)
    return _normalize(data)


def with_seed(cfg: RunConfig, seed: int) -> RunConfig:
    """Return ``cfg`` with the CLI ``--seed`` set on every ``random-positive`` block.

    The blocks of ``initial`` and of ``experiment.seeds`` get ``seed: [seed,
    declared]``, where ``declared`` is the block's own seed (default 0), so
    distinct declared seeds stay distinct and the content hash covers ``seed``.
    """
    if type(seed) is not int or seed < 0:
        _fail("--seed", f"expected a non-negative integer, got {seed!r}")
    data = asdict(cfg)
    declared_default = INITIAL_PROFILES["random-positive"].defaults["seed"]
    for state in [data["initial"], *data["experiment"].get("seeds", [])]:
        for block in state.values():
            if block["profile"] == "random-positive":
                declared = block.get("seed", declared_default)
                block["seed"] = [seed, *declared] if isinstance(declared, list) else [seed, declared]
    return _normalize(data)


# --- builders -------------------------------------------------------------

def build_grid(cfg: RunConfig) -> Grid:
    return Grid(tuple(cfg.grid["extents"]), tuple(cfg.grid["counts"]))


def build_params(cfg: RunConfig) -> ModelParams:
    p = cfg.params
    return ModelParams(chi=p["chi"], tau=p["tau"], lam=p["lambda"], mu=p["mu"])


def _build_coefficient(block: dict, grid: Grid, name: str):
    if block["kind"] == "constant":
        return ConstantCoefficient(grid, block["value"])
    if block["kind"] == "separable":
        time = TimeFactor(**block["time"])
        space = build_profile_field(grid, block["space"], f"{name}.space", table=SPATIAL_PROFILES)
        return SeparableCoefficient(grid, time, space)
    path = block["table_file"]  # tabulated: a time column, then one column per node
    try:
        raw = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{name}.table_file", f"cannot read {path}: {exc}") from exc
    try:
        return TabulatedCoefficient(grid, raw[:, 0], raw[:, 1:], clamp=block["clamp"])
    except ValueError as exc:
        raise ConfigError(f"{name}.table_file", f"{path}: {exc}") from exc


def build_coefficients(cfg: RunConfig, grid: Grid) -> CoefficientSet:
    return CoefficientSet(
        a0=_build_coefficient(cfg.a0, grid, "a0"),
        a1=_build_coefficient(cfg.a1, grid, "a1"),
        a2=_build_coefficient(cfg.a2, grid, "a2"),
    )


def build_initial_field(grid: Grid, block: dict, key: str):
    """One block of initial data as read-only nodal values; negative values fail under ``key``."""
    values = build_profile_field(grid, block, key).values
    if values.min() < 0.0:
        raise ConfigError(key, "must be nonnegative")
    return values


def build_initial(cfg: RunConfig, grid: Grid):
    """The configured ``(u0, v0)`` as read-only nodal arrays."""
    return tuple(build_initial_field(grid, cfg.initial[k], f"initial.{k}") for k in ("u", "v"))


def build_stepper(cfg: RunConfig) -> StepperConfig:
    return StepperConfig(**cfg.stepper)


def build_constants(cfg: RunConfig) -> KnownConstants:
    exp = cfg.experiment
    values = dict(exp.get("constants", {}))
    pairs = tuple((q, c) for q, c in exp.get("cq1_pairs", []))
    return KnownConstants(cq1_pairs=pairs, provenance=dict.fromkeys(values, "config"), **values)
