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
    build_initial_field,
    build_params,
    build_stepper,
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
from .grid import Grid, laplacian_values
from .model import ModelParams, ModelState
from .stability import (
    HypothesisVerdict,
    KnownConstants,
    StabilityReport,
    check_H2,
    compute_M2_convex,
    estimate_theta,
)
from .stepper import fixed_step_run, run

FINAL_GAP_TOL = 1.0e-3
RATE_SLACK = 0.05


def _metadata_lines(cfg: RunConfig, extra: dict | None = None) -> list[str]:
    lines = [f"# chemostab {__version__}", f"# config_hash: {cfg.content_hash}"]
    for key, val in (extra or {}).items():
        lines.append(f"# {key}: {val}")
    return lines


def _cell(v) -> str:
    # shortest round-trip repr for reals; numpy scalars normalized first
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _column_lines(columns):
    """CSV lines of equal-length arrays, one per column.

    A numeric column is formatted 256 values at a time, to the same text
    ``_cell`` gives each value; the blocks bound the Python floats alive at
    once.  An object column holds its text already (see ``_coord_texts``).
    """
    flat = [np.ravel(c) for c in columns]
    fmt = ",".join(["%s"] * len(flat)) + "\n"
    for start in range(0, flat[0].size, 256):
        blocks = (c[start:start + 256].tolist() for c in flat)
        cells = (b if c.dtype == object else map(repr, b) for c, b in zip(flat, blocks))
        yield from (fmt % row for row in zip(*cells))


def _coord_texts(grid) -> tuple[np.ndarray, ...]:
    """``grid.coords()`` as text, each distinct axis coordinate formatted once."""
    axes = [np.array(list(map(repr, a.tolist())), dtype=object) for a in grid.axis_coords]
    return np.meshgrid(*axes, indexing="ij")


def _write_csv(path: Path, meta: list[str], header: str, rows=(), columns=None) -> list[str]:
    """Write the metadata, the header and the body, from ``rows`` or ``columns``.

    Every output file is written here.  ``rows`` are tuples of cells
    formatted by ``_cell``; ``columns`` are equal-length arrays, one per CSV
    column (see ``_column_lines``).  Returns the body lines made from
    ``rows``; columns are streamed and not kept.
    """
    body = [",".join(map(_cell, row)) + "\n" for row in rows]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.writelines(line + "\n" for line in [*meta, header])
        fh.writelines(body if columns is None else _column_lines(columns))
    return body


def _constants(c: KnownConstants) -> list[tuple[str, float, str]]:
    """(name, value, provenance) of each constant the report has."""
    return [(name, getattr(c, name), c.provenance.get(name, "config"))
            for name in ("M1", "M2", "eta", "C3_tilde") if getattr(c, name) is not None]


def _describe(verdict: HypothesisVerdict) -> str:
    """One verdict line: name, status, margins to 6 digits, then the notes."""
    margin_txt = " ".join(f"{k}={v:.6g}" for k, v in verdict.margins.items())
    note_txt = ("; " + "; ".join(verdict.notes)) if verdict.notes else ""
    return f"{verdict.name}: {verdict.status} {margin_txt}{note_txt}"


def _write_report(path: Path, meta: list[str], report: StabilityReport) -> None:
    """The stability CSV: a '#' block of the report's verdict, then one row per sampled time."""
    c = report.constants
    block = [
        "# stability report",
        f"# window: {report.window[0]!r} {report.window[1]!r}",
        f"# theta: {report.theta!r}",
        f"# quad_error: {report.quad_error!r}",
        f"# conclusion: {report.conclusion}",
    ]
    if report.eps_suggested is not None:
        block.append(f"# eps_suggested: {report.eps_suggested!r}")
    block += [f"# {name}: {val!r} ({prov})" for name, val, prov in _constants(c)]
    if c.cq1_pairs:
        block.append("# cq1_pairs: " + " ".join(f"({q!r},{cq!r})" for q, cq in c.cq1_pairs))
    block += [f"# {_describe(v)}" for v in (report.h1_ok, report.h2_ok, report.h3_ok)]
    block += [f"# note: {note}" for note in report.notes]
    _write_csv(path, [*meta, *block], "t,L1,L2,h",
               columns=(report.ts, report.L1_series, report.L2_series, report.h_series))


def _out_path(cfg: RunConfig, out_dir: str | None, kind: str) -> Path:
    base = Path(out_dir) if out_dir else Path(cfg.output["dir"])
    return base / f"{cfg.output['name']}_{cfg.content_hash}_{kind}.csv"


def cmd_simulate(cfg: RunConfig, out_dir: str | None, seed: int | None) -> int:
    grid = build_grid(cfg)
    params = build_params(cfg)
    coeffs = build_coefficients(cfg, grid)
    state0 = ModelState(0.0, *build_initial(cfg, grid, seed))  # holds the only copy of u0, v0
    stepper_cfg = build_stepper(cfg)
    t_end = cfg.experiment["t_end"]
    traj = run(state0, t_end, coeffs, params, stepper_cfg,
               sample_dt=cfg.experiment.get("sample_dt"))
    meta = _metadata_lines(cfg, {"t_end": t_end})
    _write_csv(_out_path(cfg, out_dir, "series"), meta, "t,mass_u,mass_v,min_u,sup_u,w2inf_v",
               columns=(traj.times, traj.mass_u, traj.mass_v, traj.min_u, traj.sup_u,
                        traj.w2inf_v))
    # one row per node in C order: its coordinates, then u and v
    header = "x,u,v" if grid.dim == 1 else "x,y,u,v"
    _write_csv(_out_path(cfg, out_dir, "final"), meta, header,
               columns=(*_coord_texts(grid), traj.final.u, traj.final.v))
    clamped = float(traj.stats.clamped_mass_u + traj.stats.clamped_mass_v)
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


def _stability_report(cfg: RunConfig, seed: int | None):
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


def cmd_stability(cfg: RunConfig, out_dir: str | None, seed: int | None) -> int:
    report = _stability_report(cfg, seed)
    _write_report(_out_path(cfg, out_dir, "stability"), _metadata_lines(cfg), report)
    theta_txt = "nan" if math.isnan(report.theta) else f"{report.theta:.6g}"
    print(f"{report.conclusion} theta={theta_txt}")
    for verdict in (report.h1_ok, report.h2_ok, report.h3_ok):
        print(_describe(verdict))
    for name, val, prov in _constants(report.constants):
        print(f"{name}={val:.6g} ({prov})")
    return 0


def cmd_stability_experiment(cfg: RunConfig, out_dir: str | None, seed: int | None) -> int:
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

    states = [tuple(build_initial_field(grid, blk[k], f"experiment.seeds[{i}].{k}", seed)
                    for k in ("u", "v")) for i, blk in enumerate(seeds)]
    if not all(u0.max() > 0.0 for u0, _ in states):
        raise ConfigError("experiment.seeds", "population seed must not vanish identically")
    # identical states would make the seed-independence checks pass vacuously
    for (i, a), (j, b) in itertools.combinations(enumerate(states), 2):
        if all(np.array_equal(x, y) for x, y in zip(a, b)):
            raise ConfigError("experiment.seeds", f"seeds {i} and {j} give identical states")

    # the seeds share coefficients, grid and samples: one batched run steps them all
    u0, v0 = (np.stack(fields) for fields in zip(*states))
    trajs = run(ModelState(0.0, u0, v0), t_end, coeffs, params, stepper_cfg,
                sample_dt=sample_dt).members()

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
                   columns=(traj.times, traj.mass_u, traj.sup_u, traj.w2inf_v))
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
                   columns=(gap.t, gap.E, gap.w_L2, gap.phi_L2, gap.w_Linf, gap.phi_Linf))

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
        grw_meta = [*meta, "# gronwall verdict block", f"# eps: {eps!r}",
                    f"# band: {grw.band[0]!r} {grw.band[1]!r}",
                    f"# conclusive: {str(grw.conclusive).lower()}",
                    *(f"# note: {note}" for note in grw.notes)]
        t_entry = grw.t_entry if grw.t_entry is not None else math.nan
        _write_csv(_out_path(cfg, out_dir, "gronwall"), grw_meta,
                   "fraction,worst_margin,n_intervals,t_entry,max_slack",
                   [(grw.fraction, grw.worst_margin, grw.n_intervals, t_entry, grw.max_slack)])

    _write_report(_out_path(cfg, out_dir, "stability"), meta, report)

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


def cmd_sweep(cfg: RunConfig, out_dir: str | None, seed: int | None) -> int:
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
            report = _stability_report(point_cfg, seed)
            theta = report.theta
            return (*values, report.h1_ok.status, report.h2_ok.status,
                    report.h3_ok.status, theta, report.conclusion, "")
        except ChemostabError as exc:
            return (*values, "", "", "", math.nan, "error", str(exc).replace(",", ";"))

    rows = [one_point(values) for values in points]

    header = ",".join(paths) + ",h1,h2,h3,theta,conclusion,error"
    body = _write_csv(_out_path(cfg, out_dir, "sweep"), _metadata_lines(cfg), header, rows)
    sys.stdout.writelines(body)
    return 0


def _flat_logistic_setup(grid: Grid, params: ModelParams):
    coeffs = CoefficientSet(
        ConstantCoefficient(grid, 0, 1.0),
        ConstantCoefficient(grid, 1, 1.0),
        ConstantCoefficient(grid, 2, 0.0),
    )
    flat_params = ModelParams(chi=0.0, tau=params.tau, lam=params.lam, mu=params.mu)
    return coeffs, flat_params


def cmd_converge(cfg: RunConfig, out_dir: str | None, seed: int | None) -> int:
    grid = build_grid(cfg)
    params = build_params(cfg)
    rows = []

    # spatial study: second-difference error on a Neumann-compatible cosine
    errors = []
    counts = grid.counts
    for level in range(3):
        g = Grid(grid.extents, tuple((c - 1) * 2**level + 1 for c in counts))
        f = math.prod(np.cos(np.pi * x / e) for x, e in zip(g.coords(), g.extents))
        exact = -sum((np.pi / e) ** 2 for e in g.extents) * f
        err = float(np.abs(laplacian_values(g, f) - exact).max())
        errors.append(err)
        rows.append(("spatial", level, max(g.spacing), err))
    spatial_orders = [math.log2(errors[k] / errors[k + 1]) for k in range(len(errors) - 1)]

    # temporal study: flat logistic reduction, fixed-step Richardson triplet
    coeffs, flat_params = _flat_logistic_setup(grid, params)
    stepper_cfg = build_stepper(cfg)
    state0 = ModelState(0.0, np.full(grid.counts, 0.1), np.zeros(grid.counts))
    t_end = 2.0
    finals = []
    for n_steps in (20, 40, 80):
        state = fixed_step_run(state0, t_end, n_steps, coeffs, flat_params, stepper_cfg)
        finals.append(float(state.u.flat[0]))
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
    # kept so existing invocations still parse; every command runs in one thread
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted and ignored: has no effect")
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
        return _COMMANDS[args.command](cfg, args.out, args.seed)
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
