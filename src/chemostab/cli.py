"""Command-line front end.

Subcommands: simulate | stability | stability-experiment | sweep | converge.
Each command is a compute function that returns its result and neither
writes nor prints (``simulate``, ``stability_report``,
``stability_experiment``, ``sweep``, ``converge``), and a ``cmd_*`` that
calls it once, then writes and prints.  Both stability commands get their
report from ``_criterion``, the one place constants are resolved.
``_write_csv`` names and writes every output file: '#' metadata lines
(including the config content hash, so reruns are attributable), the
header, then a data section that is byte-identical across reruns of the
same config.  Exit codes: 0 = completed with a verdict (even a failing
one), 1 = configuration error, 2 = runtime/solver error or an array that
does not fit in memory.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass
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
    with_seed,
)
from .coefficients import CoefficientSet, ConstantCoefficient, validate_roles
from .errors import ChemostabError, ConfigError
from .experiments import (
    EntireSolution,
    FitResult,
    GapSeries,
    GronwallResult,
    PersistenceEstimate,
    approximate_entire_solution,
    band_entry_time,
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
    estimate_theta,
    hypotheses,
)
from .stepper import Trajectory, fixed_step_run, run

FINAL_GAP_TOL = 1.0e-3
RATE_SLACK = 0.05


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


def _write_csv(cfg: RunConfig, out_dir: str | None, kind: str, header: str, rows=(),
               columns=None, block=()) -> list[str]:
    """Write ``<output.name>_<hash>_<kind>.csv`` under ``out_dir``, by default ``output.dir``.

    Every output file is named and written here: the version and config-hash
    lines, the ``block`` lines, the header, then the body from ``rows`` (tuples
    of cells formatted by ``_cell``) or ``columns`` (equal-length arrays, one
    per CSV column, streamed by ``_column_lines``).  Returns the body lines
    made from ``rows``.
    """
    body = [",".join(map(_cell, row)) + "\n" for row in rows]
    name = f"{cfg.output['name']}_{cfg.content_hash}_{kind}.csv"
    path = Path(out_dir or cfg.output["dir"]) / name
    meta = [f"# chemostab {__version__}", f"# config_hash: {cfg.content_hash}", *block]
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(path, "w")
    except OSError as exc:  # the location is bad, not the run
        raise ConfigError("--out" if out_dir else "output.dir",
                          f"cannot write {path}: {exc.strerror}") from exc
    with fh:
        fh.writelines(line + "\n" for line in [*meta, header])
        fh.writelines(body if columns is None else _column_lines(columns))
    return body


def _check_out_dir(cfg: RunConfig, out_dir: str | None) -> None:
    """Fail before any compute if ``_write_csv`` could not make and write the output directory.

    The nearest existing ancestor of the directory must be a directory that
    takes a new entry: one uniquely named probe file is created there and
    removed, so the file system itself decides.  Nothing else is created.
    """
    path = Path(out_dir or cfg.output["dir"])
    ancestor = path
    while not os.path.lexists(ancestor) and ancestor != ancestor.parent:
        ancestor = ancestor.parent
    if not ancestor.is_dir():
        reason = f"{ancestor} is not a directory"
    else:
        probe = ancestor / f".chemostab-probe-{os.getpid()}"
        try:
            os.close(os.open(probe, os.O_WRONLY | os.O_CREAT | os.O_EXCL))
            os.unlink(probe)
            return
        except OSError as exc:
            reason = f"{ancestor} takes no new entry: {exc.strerror}"
    raise ConfigError("--out" if out_dir else "output.dir", f"cannot write {path}: {reason}")


def _constants(c: KnownConstants) -> list[tuple[str, float, str]]:
    """(name, value, provenance) of each constant the report has."""
    return [(name, getattr(c, name), c.provenance.get(name, "config"))
            for name in ("M1", "M2", "eta", "C3_tilde") if getattr(c, name) is not None]


def _describe(verdict: HypothesisVerdict) -> str:
    """One verdict line: name, status, margins to 6 digits, then the notes."""
    margin_txt = "".join(f" {k}={v:.6g}" for k, v in verdict.margins.items())
    note_txt = "".join(f"; {note}" for note in verdict.notes)
    return f"{verdict.name}: {verdict.status}{margin_txt}{note_txt}"


def _write_report(cfg: RunConfig, out_dir: str | None, report: StabilityReport) -> None:
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
    _write_csv(cfg, out_dir, "stability", "t,L1,L2,h", block=block,
               columns=(report.ts, report.L1_series, report.L2_series, report.h_series))


def simulate(cfg: RunConfig) -> Trajectory:
    """One run from the configured initial state to ``experiment.t_end``."""
    grid = build_grid(cfg)
    params = build_params(cfg)
    coeffs = build_coefficients(cfg, grid)
    state0 = ModelState(0.0, *build_initial(cfg, grid))  # holds the only copy of u0, v0
    stepper_cfg = build_stepper(cfg)
    return run(state0, cfg.experiment["t_end"], coeffs, params, stepper_cfg,
               sample_dt=cfg.experiment.get("sample_dt"))


def cmd_simulate(cfg: RunConfig, out_dir: str | None) -> int:
    traj = simulate(cfg)
    block = [f"# t_end: {cfg.experiment['t_end']}"]
    _write_csv(cfg, out_dir, "series", "t,mass_u,mass_v,min_u,sup_u,w2inf_v", block=block,
               columns=(traj.times, traj.mass_u, traj.mass_v, traj.min_u, traj.sup_u,
                        traj.w2inf_v))
    # one row per node in C order: its coordinates, then u and v
    header = "x,u,v" if traj.grid.dim == 1 else "x,y,u,v"
    _write_csv(cfg, out_dir, "final", header, block=block,
               columns=(*_coord_texts(traj.grid), traj.final.u, traj.final.v))
    clamped = float(traj.stats.clamped_mass_u + traj.stats.clamped_mass_v)
    print(f"simulate complete t={traj.final.t!r} mass_u={float(traj.mass_u[-1])!r} "
          f"accepted={traj.stats.accepted} rejected={traj.stats.rejected_error} "
          f"clamped_mass={clamped!r}")
    return 0


def _burn_ins(cfg: RunConfig) -> tuple[float, float, float]:
    return tuple(cfg.experiment.get("burn_ins", [cfg.experiment["t_end"] / 6.0] * 3))


def _criterion(cfg: RunConfig, coeffs, params, window, trajectories) -> StabilityReport:
    """H1-H3 and theta over the window, each constant resolved config > convex-formula > measured.

    H1 and H2 are read once, before any measurement; the convex-formula M2
    comes with them.  ``trajectories()`` supplies the runs to measure from;
    it is called only when a constant is still missing.
    """
    constants = build_constants(cfg)
    h1, h2, bound = hypotheses(coeffs, params, constants, window)
    convex = {"M2": bound.M2} if constants.M2 is None and bound is not None else {}
    needed = set(constants.missing("M1", "M2", "eta", "C3_tilde")) - convex.keys()
    trajs = trajectories() if needed else []
    try:  # a resolved constant that contradicts a configured one names the configured key
        constants = constants.with_values("convex-formula", **convex)
        if trajs:
            measured = measure_constants(trajs, _burn_ins(cfg))
            constants = constants.with_values("measured", **{
                k: getattr(measured, k) for k in measured.provenance if k in needed})
    except ConfigError as exc:  # keyed by a constant, or by the burn-ins measured after
        block = "experiment" if exc.key == "burn_ins" else "experiment.constants"
        raise ConfigError(f"{block}.{exc.key}", exc.message) from exc
    return estimate_theta(coeffs, params, constants, window, (h1, h2),
                          n_samples=cfg.experiment["n_samples"])


def _window(cfg: RunConfig) -> tuple[float, float]:
    """The stability window: ``experiment.window``, by default [0, t_end]."""
    t0, t1 = cfg.experiment.get("window", [0.0, cfg.experiment["t_end"]])
    if not t1 > t0:  # a configured window is checked when parsed; the default is not
        raise ConfigError("experiment.window", f"the default [0, t_end] = [{t0}, {t1}] is empty")
    return t0, t1


def stability_report(cfg: RunConfig) -> StabilityReport:
    """``_criterion`` on the configured coefficients, measuring from one run when asked."""
    grid = build_grid(cfg)
    params = build_params(cfg)
    coeffs = build_coefficients(cfg, grid)
    window = _window(cfg)
    validate_roles(coeffs, window)

    def trajectories():
        if not cfg.experiment.get("measure"):
            return []
        u0, v0 = build_initial(cfg, grid)
        if not u0.max() > 0.0:
            raise ConfigError("initial.u", "population must not vanish identically when measuring")
        return [run(ModelState(0.0, u0, v0), cfg.experiment["t_end"], coeffs, params,
                    build_stepper(cfg), sample_dt=cfg.experiment.get("sample_dt"))]

    return _criterion(cfg, coeffs, params, window, trajectories)


def cmd_stability(cfg: RunConfig, out_dir: str | None) -> int:
    report = stability_report(cfg)
    _write_report(cfg, out_dir, report)
    theta_txt = "nan" if math.isnan(report.theta) else f"{report.theta:.6g}"
    print(f"{report.conclusion} theta={theta_txt}")
    for verdict in (report.h1_ok, report.h2_ok, report.h3_ok):
        print(_describe(verdict))
    for name, val, prov in _constants(report.constants):
        print(f"{name}={val:.6g} ({prov})")
    return 0


@dataclass(frozen=True)
class StabilityExperiment:
    """What ``stability-experiment`` computes, before anything is written.

    ``gaps`` is keyed by seed pair (i, j).  ``rate_ok`` is None unless theta < 0,
    ``gronwall`` None unless eps > 0, and ``entire`` None when ``t_back`` is 0.
    """

    trajectories: tuple[Trajectory, ...]
    gaps: dict[tuple[int, int], GapSeries]
    persistence: tuple[PersistenceEstimate, ...]
    report: StabilityReport
    fit: FitResult
    eps: float
    rate_ok: bool | None
    gronwall: GronwallResult | None
    entire: EntireSolution | None

    @property
    def gap_final(self) -> float:
        """The largest sup-norm gap of any pair at the last sample."""
        return max(0.0, *(float(x[-1]) for g in self.gaps.values() for x in (g.w_Linf, g.phi_Linf)))


def stability_experiment(cfg: RunConfig) -> StabilityExperiment:
    """Run the seeds as one batch, fit the rate, run the pullback gate and the Gronwall check."""
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
    window = _window(cfg)
    validate_roles(coeffs, window, require_positive_growth=True)

    states = [tuple(build_initial_field(grid, blk[k], f"experiment.seeds[{i}].{k}")
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

    report = _criterion(cfg, coeffs, params, window, lambda: trajs)

    gaps = {pair: trajectory_gap(trajs[pair[0]], trajs[pair[1]])
            for pair in itertools.combinations(range(len(trajs)), 2)}
    fit_window = tuple(exp.get("fit_window", [t_end / 6.0, 2.0 * t_end / 3.0]))
    try:
        fit = fit_decay_rate(gaps[0, 1], fit_window)
    except ValueError as exc:
        raise ConfigError("experiment.fit_window", str(exc)) from exc

    entire = None
    t_back = t_end / 2.0 if exp.get("t_back") is None else exp["t_back"]
    if t_back > 0.0:
        span = tuple(exp.get("t_span", [0.0, max(1.0, t_end / 8.0)]))
        entire = approximate_entire_solution(
            coeffs, params, stepper_cfg, t_back, span,
            seeds=states[:2], sample_dt=sample_dt, tolerance=exp["gap_tolerance"])

    persistence = tuple(estimate_persistence(traj, _burn_ins(cfg)[1]) for traj in trajs)
    eps = (report.eps_suggested or 0.0) if exp.get("eps") is None else exp["eps"]
    rate_ok = ((fit.floored or fit.rate <= report.theta + eps + RATE_SLACK)
               if report.theta < 0.0 else None)
    grw = (gronwall_check(gaps[0, 1], report, eps, band_entry_time(trajs[:2], report, eps))
           if eps > 0.0 else None)
    return StabilityExperiment(tuple(trajs), gaps, persistence, report, fit, eps, rate_ok,
                               grw, entire)


def cmd_stability_experiment(cfg: RunConfig, out_dir: str | None) -> int:
    res = stability_experiment(cfg)
    for idx, traj in enumerate(res.trajectories):
        _write_csv(cfg, out_dir, f"bounds_{idx}", "t,mass_u,sup_u,w2inf_v",
                   columns=(traj.times, traj.mass_u, traj.sup_u, traj.w2inf_v))
    _write_csv(cfg, out_dir, "persistence", "seed,eta_hat,xi_hat,burn_in,persisted",
               [(i, p.eta_hat, math.nan if p.xi_hat is None else p.xi_hat, p.burn_in,
                 str(p.persisted).lower()) for i, p in enumerate(res.persistence)])
    for (i, j), gap in res.gaps.items():
        _write_csv(cfg, out_dir, f"gap_{i}_{j}", "t,E,w_L2,phi_L2,w_Linf,phi_Linf",
                   columns=(gap.t, gap.E, gap.w_L2, gap.phi_L2, gap.w_Linf, gap.phi_Linf))
    grw = res.gronwall
    if grw is not None:
        block = ["# gronwall verdict block", f"# eps: {res.eps!r}",
                 f"# band: {grw.band[0]!r} {grw.band[1]!r}",
                 f"# conclusive: {str(grw.conclusive).lower()}",
                 *(f"# note: {note}" for note in grw.notes)]
        t_entry = grw.t_entry if grw.t_entry is not None else math.nan
        _write_csv(cfg, out_dir, "gronwall", "fraction,worst_margin,n_intervals,t_entry,max_slack",
                   [(grw.fraction, grw.worst_margin, grw.n_intervals, t_entry, grw.max_slack)],
                   block=block)
    _write_report(cfg, out_dir, res.report)

    rate_ok = "not-applicable" if res.rate_ok is None else str(res.rate_ok).lower()
    print(f"pairwise_gap_final={res.gap_final!r} "
          f"gap_ok={str(res.gap_final < FINAL_GAP_TOL).lower()}")
    print(f"theta={res.report.theta!r} eps={res.eps!r} fitted_rate={res.fit.rate!r} "
          f"r2={res.fit.r2!r} rate_le_theta_plus_eps={rate_ok}")
    if grw is not None and grw.conclusive:
        print(f"gronwall_fraction={grw.fraction!r} worst_margin={grw.worst_margin!r} "
              f"max_slack={grw.max_slack!r}")
    elif grw is not None:
        print("gronwall=inconclusive " + "; ".join(grw.notes))
    if res.entire is not None:
        print(f"entire_solution_gap={res.entire.seed_gap!r} tolerance={res.entire.tolerance!r}")
    print(f"conclusion={res.report.conclusion}")
    return 0


def sweep(cfg: RunConfig) -> list[tuple]:
    """One row per point of the cartesian sweep: its values, then the verdict of its config
    (one edit of ``cfg``, so axis order does not matter) or the error ``stability`` would give."""
    if not cfg.experiment.get("sweep"):
        raise ConfigError("experiment.sweep", "sweep axes required")
    axes = cfg.experiment["sweep"]["axes"]

    def one_point(values):
        try:
            report = stability_report(apply_override(cfg, dict(zip(axes, values))))
            return (*values, report.h1_ok.status, report.h2_ok.status,
                    report.h3_ok.status, report.theta, report.conclusion, "")
        except (ChemostabError, ValueError, MemoryError) as exc:  # main's exit 1 or 2
            return (*values, "", "", "", math.nan, "error", str(exc).replace(",", ";"))

    return [one_point(values) for values in itertools.product(*axes.values())]


def cmd_sweep(cfg: RunConfig, out_dir: str | None) -> int:
    rows = sweep(cfg)
    header = ",".join(cfg.experiment["sweep"]["axes"]) + ",h1,h2,h3,theta,conclusion,error"
    sys.stdout.writelines(_write_csv(cfg, out_dir, "sweep", header, rows))
    return 0


def converge(cfg: RunConfig) -> list[tuple]:
    """Refinement rows: ("spatial", level, h, Laplacian error on a Neumann cosine),
    then ("temporal", steps, dt, u at t=2) of a fixed-step flat logistic run."""
    grid = build_grid(cfg)
    params = build_params(cfg)
    rows = []
    for level in range(3):
        g = Grid(grid.extents, tuple((c - 1) * 2**level + 1 for c in grid.counts))
        f = math.prod(np.cos(np.pi * x / e) for x, e in zip(g.coords(), g.extents))
        exact = -sum((np.pi / e) ** 2 for e in g.extents) * f
        rows.append(("spatial", level, max(g.spacing),
                     float(np.abs(laplacian_values(g, f) - exact).max())))

    # fixed-step Richardson triplet on constant coefficients without drift
    coeffs = CoefficientSet(*(ConstantCoefficient(grid, a) for a in (1.0, 1.0, 0.0)))
    flat_params = ModelParams(chi=0.0, tau=params.tau, lam=params.lam, mu=params.mu)
    stepper_cfg = build_stepper(cfg)
    state0 = ModelState(0.0, np.full(grid.counts, 0.1), np.zeros(grid.counts))
    t_end = 2.0
    for n_steps in (20, 40, 80):
        state = fixed_step_run(state0, t_end, n_steps, coeffs, flat_params, stepper_cfg)
        rows.append(("temporal", n_steps, t_end / n_steps, float(state.u.flat[0])))
    return rows


def cmd_converge(cfg: RunConfig, out_dir: str | None) -> int:
    rows = converge(cfg)
    _write_csv(cfg, out_dir, "converge", "study,level,h_or_dt,value", rows)
    errors = [value for study, _, _, value in rows if study == "spatial"]
    finals = [value for study, _, _, value in rows if study == "temporal"]
    spatial_orders = [math.log2(errors[k] / errors[k + 1]) for k in range(len(errors) - 1)]
    temporal_order = math.log2(abs(finals[0] - finals[1]) / abs(finals[1] - finals[2]))
    print(f"spatial_orders={[round(o, 3) for o in spatial_orders]}")
    print(f"temporal_order={temporal_order:.3f} theta_scheme={cfg.stepper['theta_scheme']!r}")
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
                        help="mixed into the seed of every random-positive block of the config")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"config error: cannot read {args.config}: {exc}", file=sys.stderr)
        return 1

    try:
        cfg = parse_config(text)
        if args.seed is not None:
            cfg = with_seed(cfg, args.seed)
        _check_out_dir(cfg, args.out)
        return _COMMANDS[args.command](cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ChemostabError, MemoryError) as exc:  # numpy raises a private MemoryError subclass
        error = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        print(json.dumps({"error": error, "message": str(exc)}), file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
