"""Workload inputs and their correctness oracles.

Each workload turns a seed into a CLI config plus ``file``-profile initial
fields, and checks one invocation's output against an oracle that does not
depend on the seed.  The CLI ``--seed`` flag is never passed: it overrides
every ``random-positive`` profile, which would make declared-distinct initial
states identical.

Initial fields are a fixed mean times one plus a few Neumann cosine modes
whose signs come from the seed.  The mode magnitudes are fixed, so every
field is positive and smooth, and the step count (and with it the cost)
varies little from seed to seed while the states themselves differ.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

REFERENCE = json.loads((Path(__file__).resolve().parent / "reference.json").read_text())

MODES_1D = [(1,), (2,), (3,)]
MODES_2D = [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1), (1, 2)]
MODE_SHARE = 0.1  # sum of the mode amplitudes, relative to the mean


@dataclass(frozen=True)
class Spec:
    """One CLI invocation: the command and the config file it reads."""

    command: str
    config: Path


def smooth_positive(rng: np.random.Generator, counts: tuple[int, ...], mean: float) -> np.ndarray:
    """mean * (1 + sum of +-cosine modes); positive because MODE_SHARE < 1."""
    modes = MODES_1D if len(counts) == 1 else MODES_2D
    axes = np.meshgrid(*(np.linspace(0.0, 1.0, n) for n in counts), indexing="ij")
    signs = rng.choice([-1.0, 1.0], size=len(modes))
    field = np.ones(counts)
    for sign, ks in zip(signs, modes):
        term = np.full(counts, sign * MODE_SHARE / len(modes))
        for x, k in zip(axes, ks):
            term = term * np.cos(k * math.pi * x)
        field += term
    return mean * field


def _write(work: Path, name: str, cfg: dict) -> Path:
    path = work / f"{name}.yaml"
    path.write_text(yaml.safe_dump(cfg, sort_keys=True))
    return path


def _save_field(work: Path, name: str, values: np.ndarray) -> dict:
    path = work / f"{name}.csv"
    np.savetxt(path, values, delimiter=",", fmt="%.17g")
    return {"profile": "file", "path": str(path)}


# --- sim2d -------------------------------------------------------------------

SIM2D_T_END = 6.0
SIM2D_ERROR_TOL = 1.0e-4


def sim2d_inputs(seed: int, work: Path) -> Spec:
    rng = np.random.default_rng([seed, 2])
    u0 = smooth_positive(rng, (129, 129), 1.0)
    cfg = {
        "grid": {"extents": [1.0, 1.0], "counts": [129, 129]},
        "params": {"chi": 0.05, "tau": 1.0, "lambda": 1.0, "mu": 1.0},
        "a0": {
            "kind": "separable",
            "time": {"form": "constant", "value": 1.0},
            "space": {"profile": "gaussian-bump", "baseline": 0.5, "amplitude": 1.0, "width": 0.2},
        },
        "a1": {"kind": "constant", "value": 1.0},
        "a2": {"kind": "constant", "value": 0.0},
        "initial": {"u": _save_field(work, "u0", u0), "v": {"profile": "constant", "value": 0.0}},
        "stepper": {"error_tol": SIM2D_ERROR_TOL, "dt_max": 0.25},
        "experiment": {"t_end": SIM2D_T_END, "sample_dt": 1.0},
        "output": {"dir": "out", "name": "sim2d"},
    }
    return Spec("simulate", _write(work, "sim2d", cfg))


def sim2d_final(out_dir: Path) -> dict[str, float]:
    """Last row of the diagnostics series CSV."""
    (path,) = out_dir.glob("sim2d_*_series.csv")
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return dict(zip(header, map(float, lines[-1].split(","))))


def sim2d_check(stdout: str, out_dir: Path) -> list[str]:
    # Every positive state is attracted to one entire solution, so the final
    # diagnostics match one reference for all seeds.  The step-doubling
    # tolerance bounds the error per unit step; ten times it leaves room for
    # a correct change of solver or step control.
    tol = 10.0 * SIM2D_ERROR_TOL
    final = sim2d_final(out_dir)
    problems = []
    if final["t"] != SIM2D_T_END:
        problems.append(f"final t={final['t']!r}, expected {SIM2D_T_END!r}")
    for key, ref in REFERENCE["sim2d"].items():
        if not math.isclose(final[key], ref, rel_tol=tol):
            problems.append(f"{key}={final[key]!r} differs from reference {ref!r} by more than {tol:g}")
    return problems


# --- experiment1d --------------------------------------------------------------

EXPERIMENT_MEANS = (0.4, 1.0, 2.5)  # low, middle and high mass


def experiment1d_inputs(seed: int, work: Path) -> Spec:
    rng = np.random.default_rng([seed, 1])
    fields = [smooth_positive(rng, (101,), mean) for mean in EXPERIMENT_MEANS]
    for i in range(len(fields)):
        for j in range(i + 1, len(fields)):
            gap = float(np.abs(fields[i] - fields[j]).max())
            if not gap > 1.0e-3:
                raise ValueError(f"initial states {i} and {j} differ by only {gap}")
    seeds = [
        {"u": _save_field(work, f"u0_{i}", f), "v": {"profile": "constant", "value": 0.0}}
        for i, f in enumerate(fields)
    ]
    cfg = {
        "grid": {"extents": [1.0], "counts": [101]},
        "params": {"chi": 0.05, "tau": 1.0, "lambda": 1.0, "mu": 1.0},
        "a0": {
            "kind": "separable",
            "time": {"form": "sinusoid", "offset": 1.0, "amplitude": 0.1, "frequency": 1.0},
            "space": {"profile": "sine", "offset": 1.0, "amplitude": 0.5, "mode": 1},
        },
        "a1": {"kind": "constant", "value": 1.0},
        "a2": {"kind": "constant", "value": 0.1},
        "stepper": {"error_tol": 1.0e-4, "dt_max": 0.25},
        "experiment": {
            "t_end": 12.0, "sample_dt": 0.1, "t_back": 16.0, "gap_tolerance": 1.0e-5,
            "seeds": seeds,
        },
        "output": {"dir": "out", "name": "experiment1d"},
    }
    return Spec("stability-experiment", _write(work, "experiment1d", cfg))


def _key_values(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        for token in line.split():
            key, sep, value = token.partition("=")
            if sep:
                out[key] = value
    return out


def experiment1d_check(stdout: str, out_dir: Path) -> list[str]:
    kv = _key_values(stdout)
    expected = {
        "conclusion": "criterion_holds",
        "gap_ok": "true",
        "rate_le_theta_plus_eps": "true",
        "gronwall_fraction": "1.0",
    }
    problems = [
        f"{key}={kv.get(key)!r}, expected {want!r}"
        for key, want in expected.items() if kv.get(key) != want
    ]
    try:
        gap = float(kv["entire_solution_gap"])
        tolerance = float(kv["tolerance"])
    except (KeyError, ValueError):
        problems.append("no entire_solution_gap/tolerance line")
    else:
        if not gap < tolerance:
            problems.append(f"entire_solution_gap={gap!r} not below tolerance={tolerance!r}")
    return problems


# --- sweep ---------------------------------------------------------------------

SWEEP_WINDOW = 4.0 * math.pi  # two periods of the a0 time factor


def sweep_inputs(seed: int, work: Path) -> Spec:
    # The inputs are the axis grid; the seed does not enter.
    cfg = {
        "grid": {"extents": [1.0], "counts": [101]},
        "params": {"chi": 0.05, "tau": 1.0, "lambda": 1.0, "mu": 1.0},
        "a0": {
            "kind": "separable",
            "time": {"form": "sinusoid", "offset": 1.0, "amplitude": 0.2, "frequency": 1.0},
            "space": {"profile": "sine", "offset": 1.0, "amplitude": 0.3, "mode": 1},
        },
        "a1": {"kind": "constant", "value": 1.0},
        "a2": {
            "kind": "separable",
            "time": {"form": "expdecay", "limit": 0.05, "amplitude": 0.1, "rate": 0.5},
            "space": {"profile": "linear-ramp", "start": 0.5, "stop": 1.5},
        },
        "experiment": {
            "t_end": SWEEP_WINDOW,
            "window": [0.0, SWEEP_WINDOW],
            "n_samples": 2001,
            "constants": {"M2": 1.2, "eta": 1.2, "C3_tilde": 2.0},
            "cq1_pairs": [[2.0, 8.0]],
            "measure": False,
            "sweep": {"axes": {
                "params.chi": [0.05, 0.35, 0.65, 1.05],
                "a0.time.amplitude": [0.0, 0.3, 0.6, 0.9],
            }},
        },
        "output": {"dir": "out", "name": "sweep"},
    }
    return Spec("sweep", _write(work, "sweep", cfg))


def sweep_check(stdout: str, out_dir: Path) -> list[str]:
    # One stdout row per point: the axis values, h1, h2, h3, theta,
    # conclusion and an error column, in the reference's order.
    rows = [line.split(",") for line in stdout.splitlines() if line.strip()]
    ref_rows = REFERENCE["sweep"]["rows"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} sweep rows, expected {len(ref_rows)}"]
    problems = []
    for row, (x, y, h1, h2, h3, theta, conclusion) in zip(rows, ref_rows):
        point = f"point ({x}, {y})"
        if len(row) != 8 or row[7]:
            problems.append(f"{point}: malformed or error row {row!r}")
            continue
        if (float(row[0]), float(row[1])) != (x, y):
            problems.append(f"{point}: got axis values {row[0]},{row[1]}")
        if [row[2], row[3], row[4], row[6]] != [h1, h2, h3, conclusion]:
            problems.append(f"{point}: verdicts {row[2:5] + row[6:7]} != {[h1, h2, h3, conclusion]}")
        if not math.isclose(float(row[5]), theta, rel_tol=1.0e-9):
            problems.append(f"{point}: theta={row[5]} differs from reference {theta!r}")
    return problems


WORKLOADS = {
    "sim2d": (sim2d_inputs, sim2d_check),
    "experiment1d": (experiment1d_inputs, experiment1d_check),
    "sweep": (sweep_inputs, sweep_check),
}
