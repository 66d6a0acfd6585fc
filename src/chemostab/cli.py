"""Command-line front end.

Subcommands: simulate | stability | stability-experiment | sweep | converge.
Every output CSV starts with '#' metadata lines (including the config content
hash) so reruns are attributable; data sections are byte-identical across
reruns of the same config.  Exit codes: 0 = completed with a verdict (even a
failing one), 1 = configuration error, 2 = runtime/solver error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    RunConfig,
    apply_override,
    build_coefficients,
    build_constants,
    build_grid,
    build_initial,
    build_params,
    build_profile_field,
    build_stepper,
    config_hash,
    parse_config,
)
from .coefficients import CoefficientSet, ConstantCoefficient, validate_roles
from .errors import ChemostabError, ConfigError
from .experiments import (
    approximate_entire_solution,
    estimate_persistence,
    fit_decay_rate,
    gronwall_check,
    measure_constants,
    trajectory_gap,
)
from .grid import Field, Grid, laplacian_values
from .model import ModelParams, ModelState
from .stability import (
    KnownConstants,
    check_H2,
    compute_M2_convex,
    estimate_theta,
    report_to_csv,
)
from .stepper import fixed_step_run, run

FINAL_GAP_TOL = 1.0e-3
RATE_SLACK = 0.05


def _metadata_lines(cfg: RunConfig, extra: dict | None = None) -> list[str]:
    lines = [f"# chemostab {__version__}", f"# config_hash: {config_hash(cfg)}"]
    for key, val in (extra or {}).items():
        lines.append(f"# {key}: {val}")
    return lines


def _cell(v) -> str:
    # shortest round-trip repr for reals; numpy scalars normalized first
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_csv(path: Path, meta: list[str], header: str, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for line in meta:
            fh.write(line + "\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")


def _out_path(cfg: RunConfig, out_dir: str | None, kind: str) -> Path:
    base = Path(out_dir) if out_dir else Path(cfg.output["dir"])
    return base / f"{cfg.output['name']}_{config_hash(cfg)}_{kind}.csv"


def _series_rows(traj):
    for k in range(len(traj)):
        yield (
            float(traj.times[k]), float(traj.mass_u[k]), float(traj.mass_v[k]),
            float(traj.min_u[k]), float(traj.sup_u[k]), float(traj.w2inf_v[k]),
        )


def _final_rows(grid: Grid, state: ModelState):
    coords = grid.coords()
    if grid.dim == 1:
        for i, x in enumerate(coords[0]):
            yield (float(x), float(state.u.values[i]), float(state.v.values[i]))
    else:
        for i in range(grid.counts[0]):
            for j in range(grid.counts[1]):
                yield (
                    float(coords[0][i, j]), float(coords[1][i, j]),
                    float(state.u.values[i, j]), float(state.v.values[i, j]),
                )


def cmd_simulate(cfg: RunConfig, out_dir: str | None, seed: int | None, threads: int) -> int:
    grid = build_grid(cfg)
    params = build_params(cfg)
    coeffs = build_coefficients(cfg, grid)
    u0, v0 = build_initial(cfg, grid, seed)
    stepper_cfg = build_stepper(cfg)
    t_end = cfg.experiment["t_end"]
    traj = run(
        ModelState(0.0, u0, v0), t_end, coeffs, params, stepper_cfg,
        sample_dt=cfg.experiment.get("sample_dt"),
    )
    meta = _metadata_lines(cfg, {"t_end": t_end})
    _write_csv(_out_path(cfg, out_dir, "series"), meta, "t,mass_u,mass_v,min_u,sup_u,w2inf_v",
               _series_rows(traj))
    header = "x,u,v" if grid.dim == 1 else "x,y,u,v"
    _write_csv(_out_path(cfg, out_dir, "final"), meta, header, _final_rows(grid, traj.final))
    clamped = traj.stats.clamped_mass_u + traj.stats.clamped_mass_v
    print(f"simulate complete t={traj.final.t!r} mass_u={float(traj.mass_u[-1])!r} "
          f"accepted={traj.stats.accepted} rejected={traj.stats.rejected_error} "
          f"clamped_mass={clamped!r}")
    return 0


def _burn_ins(cfg: RunConfig) -> tuple[float, float, float]:
    return tuple(cfg.experiment.get("burn_ins", [cfg.experiment["t_end"] / 6.0] * 3))


def _resolve_constants(cfg: RunConfig, grid, coeffs, params, window,
                       trajectories) -> KnownConstants:
    """config > convex-formula (M2 under the convex hypothesis) > measured.

    ``trajectories()`` supplies the runs to measure from; it is called only
    when a constant is still missing.
    """
    constants = build_constants(cfg)
    h2 = check_H2(coeffs, params, grid.dim, True, window)
    if constants.M2 is None and h2.ok:
        bound = compute_M2_convex(coeffs, params, grid.dim, window)
        constants = constants.with_values("convex-formula", M2=bound.M2)
    if constants.missing("M1", "M2", "eta", "C3_tilde"):
        trajs = trajectories()
        if trajs:
            constants = measure_constants(trajs, _burn_ins(cfg), base=constants)
    return constants


def _stability_report(cfg: RunConfig, out_dir: str | None, seed: int | None):
    grid = build_grid(cfg)
    params = build_params(cfg)
    coeffs = build_coefficients(cfg, grid)
    stepper_cfg = build_stepper(cfg)
    window = tuple(cfg.experiment.get("window", [0.0, cfg.experiment["t_end"]]))
    validate_roles(coeffs, window)

    def trajectories():
        if not cfg.experiment.get("measure"):
            return []
        u0, v0 = build_initial(cfg, grid, seed)
        return [run(ModelState(0.0, u0, v0), cfg.experiment["t_end"], coeffs, params,
                    stepper_cfg, sample_dt=cfg.experiment.get("sample_dt"))]

    constants = _resolve_constants(cfg, grid, coeffs, params, window, trajectories)
    report = estimate_theta(coeffs, params, constants, window,
                            n_samples=cfg.experiment["n_samples"])
    return report


def cmd_stability(cfg: RunConfig, out_dir: str | None, seed: int | None, threads: int) -> int:
    report = _stability_report(cfg, out_dir, seed)
    path = _out_path(cfg, out_dir, "stability")
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for line in _metadata_lines(cfg):
            fh.write(line + "\n")
        fh.write(report_to_csv(report))
    theta_txt = "nan" if math.isnan(report.theta) else f"{report.theta:.6g}"
    print(f"{report.conclusion} theta={theta_txt}")
    for verdict in (report.h1_ok, report.h2_ok, report.h3_ok):
        print(verdict.describe())
    for name in ("M1", "M2", "eta", "C3_tilde"):
        val = getattr(report.constants, name)
        if val is not None:
            prov = report.constants.provenance.get(name, "config")
            print(f"{name}={val:.6g} ({prov})")
    return 0


def cmd_stability_experiment(cfg: RunConfig, out_dir: str | None, seed: int | None,
                             threads: int) -> int:
    grid = build_grid(cfg)
    params = build_params(cfg)
    coeffs = build_coefficients(cfg, grid)
    stepper_cfg = build_stepper(cfg)
    exp = cfg.experiment
    seeds = exp.get("seeds")
    if not seeds or len(seeds) < 2:
        raise ConfigError("experiment.seeds", "need at least 2 seeds")
    t_end = exp["t_end"]
    if not t_end > 0.0:
        raise ConfigError("experiment.t_end", "must be positive for stability-experiment")
    sample_dt = exp.get("sample_dt") or t_end / 200.0
    window = tuple(exp.get("window", [0.0, t_end]))
    validate_roles(coeffs, window, require_positive_growth=True)

    states = [tuple(build_profile_field(grid, blk[k], seed) for k in ("u", "v")) for blk in seeds]
    if not all(u0.max() > 0.0 for u0, _ in states):
        raise ConfigError("experiment.seeds", "population seed must not vanish identically")
    # identical states would make the seed-independence checks pass vacuously
    for (i, a), (j, b) in itertools.combinations(enumerate(states), 2):
        if all(np.array_equal(x.values, y.values) for x, y in zip(a, b)):
            raise ConfigError("experiment.seeds", f"seeds {i} and {j} give identical states")

    def run_seed(state):
        return run(ModelState(0.0, *state), t_end, coeffs, params, stepper_cfg,
                   sample_dt=sample_dt)

    with ThreadPoolExecutor(max_workers=max(1, threads)) as pool:
        trajs = list(pool.map(run_seed, states))

    burn = _burn_ins(cfg)
    constants = _resolve_constants(cfg, grid, coeffs, params, window, lambda: trajs)
    report = estimate_theta(coeffs, params, constants, window, n_samples=exp["n_samples"])

    # the pullback gate runs before any output, so a failing gate writes nothing
    entire_gap = math.nan
    t_back = exp.get("t_back")
    if t_back is None:
        t_back = t_end / 2.0
    if t_back > 0.0:
        span = tuple(exp.get("t_span", [0.0, max(1.0, t_end / 8.0)]))
        entire = approximate_entire_solution(
            coeffs, params, stepper_cfg, t_back, span,
            seeds=states[:2], sample_dt=sample_dt, tolerance=exp["gap_tolerance"])
        entire_gap = entire.seed_gap

    meta = _metadata_lines(cfg)
    for idx, traj in enumerate(trajs):
        _write_csv(_out_path(cfg, out_dir, f"bounds_{idx}"), meta,
                   "t,mass_u,sup_u,w2inf_v",
                   ((float(traj.times[k]), float(traj.mass_u[k]), float(traj.sup_u[k]),
                     float(traj.w2inf_v[k])) for k in range(len(traj))))
    persistence_rows = []
    for idx, traj in enumerate(trajs):
        est = estimate_persistence(traj, burn[1])
        persistence_rows.append(
            (idx, est.eta_hat, est.xi_hat if est.xi_hat is not None else math.nan,
             est.burn_in, str(est.persisted).lower()))
    _write_csv(_out_path(cfg, out_dir, "persistence"), meta,
               "seed,eta_hat,xi_hat,burn_in,persisted", persistence_rows)

    gap_final = 0.0
    first_gap = None
    for i, j in itertools.combinations(range(len(trajs)), 2):
        gap = trajectory_gap(trajs[i], trajs[j])
        if first_gap is None:
            first_gap = gap
        gap_final = max(gap_final, float(gap.w_Linf[-1]), float(gap.phi_Linf[-1]))
        _write_csv(_out_path(cfg, out_dir, f"gap_{i}_{j}"), meta,
                   "t,E,w_L2,phi_L2,w_Linf,phi_Linf",
                   zip(map(float, gap.t), map(float, gap.E), map(float, gap.w_L2),
                       map(float, gap.phi_L2), map(float, gap.w_Linf), map(float, gap.phi_Linf)))

    eps = exp.get("eps")
    if eps is None:
        eps = report.eps_suggested or 0.0
    fit_window = tuple(exp.get("fit_window", [t_end / 6.0, 2.0 * t_end / 3.0]))
    fit = fit_decay_rate(first_gap, fit_window)

    if report.theta < 0.0 and not math.isnan(report.theta):
        rate_ok = "true" if (fit.floored or fit.rate <= report.theta + eps + RATE_SLACK) else "false"
    else:
        rate_ok = "not-applicable"

    grw = gronwall_check((trajs[0], trajs[1]), report, eps) if eps > 0.0 else None
    if grw is not None:
        grw_path = _out_path(cfg, out_dir, "gronwall")
        grw_path.parent.mkdir(parents=True, exist_ok=True)
        with open(grw_path, "w") as fh:
            for line in meta:
                fh.write(line + "\n")
            fh.write("# gronwall verdict block\n")
            fh.write(f"# eps: {eps!r}\n")
            fh.write(f"# band: {grw.band[0]!r} {grw.band[1]!r}\n")
            fh.write(f"# conclusive: {str(grw.conclusive).lower()}\n")
            for note in grw.notes:
                fh.write(f"# note: {note}\n")
            fh.write("fraction,worst_margin,n_intervals,t_entry,max_slack\n")
            t_entry = grw.t_entry if grw.t_entry is not None else math.nan
            fh.write(",".join(_cell(v) for v in
                              (grw.fraction, grw.worst_margin, grw.n_intervals,
                               t_entry, grw.max_slack)) + "\n")

    path = _out_path(cfg, out_dir, "stability")
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for line in meta:
            fh.write(line + "\n")
        fh.write(report_to_csv(report))

    print(f"pairwise_gap_final={gap_final!r} gap_ok={str(gap_final < FINAL_GAP_TOL).lower()}")
    print(f"theta={report.theta!r} eps={eps!r} fitted_rate={fit.rate!r} r2={fit.r2!r} "
          f"rate_le_theta_plus_eps={rate_ok}")
    if grw is not None and grw.conclusive:
        print(f"gronwall_fraction={grw.fraction!r} worst_margin={grw.worst_margin!r} "
              f"max_slack={grw.max_slack!r}")
    elif grw is not None:
        print("gronwall=inconclusive " + "; ".join(grw.notes))
    if not math.isnan(entire_gap):
        print(f"entire_solution_gap={entire_gap!r} tolerance={exp['gap_tolerance']!r}")
    print(f"conclusion={report.conclusion}")
    return 0


def cmd_sweep(cfg: RunConfig, out_dir: str | None, seed: int | None, threads: int) -> int:
    exp = cfg.experiment
    sweep = exp.get("sweep")
    if not sweep:
        raise ConfigError("experiment.sweep", "sweep axes required")
    axes = sweep["axes"]
    paths = list(axes.keys())
    points = list(itertools.product(*(axes[p] for p in paths)))

    def one_point(values):
        point_cfg = cfg
        try:
            for path, value in zip(paths, values):
                point_cfg = apply_override(point_cfg, path, value)
            report = _stability_report(point_cfg, out_dir, seed)
            theta = report.theta
            return (*values, report.h1_ok.status, report.h2_ok.status,
                    report.h3_ok.status, theta, report.conclusion, "")
        except ChemostabError as exc:
            return (*values, "", "", "", math.nan, "error", str(exc).replace(",", ";"))

    with ThreadPoolExecutor(max_workers=max(1, threads)) as pool:
        rows = list(pool.map(one_point, points))

    header = ",".join(paths) + ",h1,h2,h3,theta,conclusion,error"
    _write_csv(_out_path(cfg, out_dir, "sweep"), _metadata_lines(cfg), header, rows)
    for row in rows:
        print(",".join(_cell(v) for v in row))
    return 0


def _flat_logistic_setup(grid: Grid, params: ModelParams):
    coeffs = CoefficientSet(
        ConstantCoefficient(grid, 0, 1.0),
        ConstantCoefficient(grid, 1, 1.0),
        ConstantCoefficient(grid, 2, 0.0),
    )
    flat_params = ModelParams(chi=0.0, tau=params.tau, lam=params.lam, mu=params.mu)
    return coeffs, flat_params


def cmd_converge(cfg: RunConfig, out_dir: str | None, seed: int | None, threads: int) -> int:
    grid = build_grid(cfg)
    params = build_params(cfg)
    rows = []

    # spatial study: second-difference error on a Neumann-compatible cosine
    errors = []
    counts = grid.counts
    for level in range(3):
        g = Grid(grid.extents, tuple((c - 1) * 2**level + 1 for c in counts))
        if g.dim == 1:
            f = Field.from_function(g, lambda x: np.cos(np.pi * x / g.extents[0]))
            exact = -((np.pi / g.extents[0]) ** 2) * f.values
        else:
            f = Field.from_function(
                g, lambda x, y: np.cos(np.pi * x / g.extents[0]) * np.cos(np.pi * y / g.extents[1]))
            exact = -((np.pi / g.extents[0]) ** 2 + (np.pi / g.extents[1]) ** 2) * f.values
        err = float(np.abs(laplacian_values(g, f.values) - exact).max())
        errors.append(err)
        rows.append(("spatial", level, max(g.spacing), err))
    spatial_orders = [math.log2(errors[k] / errors[k + 1]) for k in range(len(errors) - 1)]

    # temporal study: flat logistic reduction, fixed-step Richardson triplet
    coeffs, flat_params = _flat_logistic_setup(grid, params)
    stepper_cfg = build_stepper(cfg)
    state0 = ModelState(0.0, Field.constant(grid, 0.1), Field.constant(grid, 0.0))
    t_end = 2.0
    finals = []
    for n_steps in (20, 40, 80):
        state = fixed_step_run(state0, t_end, n_steps, coeffs, flat_params, stepper_cfg)
        finals.append(float(state.u.values.flat[0]))
        rows.append(("temporal", n_steps, t_end / n_steps, finals[-1]))
    temporal_order = math.log2(abs(finals[0] - finals[1]) / abs(finals[1] - finals[2]))

    _write_csv(_out_path(cfg, out_dir, "converge"), _metadata_lines(cfg),
               "study,level,h_or_dt,value", rows)
    print(f"spatial_orders={[round(o, 3) for o in spatial_orders]}")
    print(f"temporal_order={temporal_order:.3f} theta_scheme={stepper_cfg.theta_scheme!r}")
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "stability": cmd_stability,
    "stability-experiment": cmd_stability_experiment,
    "sweep": cmd_sweep,
    "converge": cmd_converge,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="chemostab",
        description="Simulate the chemotaxis-growth system and evaluate its stability criterion.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the YAML run config")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--threads", type=int, default=1,
                        help="parallel workers for sweeps and multi-seed runs")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed override for random initial data")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"config error: cannot read {args.config}: {exc}", file=sys.stderr)
        return 1

    try:
        cfg = parse_config(text)
        return _COMMANDS[args.command](cfg, args.out, args.seed, args.threads)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ChemostabError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
