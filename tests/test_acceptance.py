"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the shared benchmark (three runs of the homogeneous configuration)
is computed once per session.
"""

import itertools
import math
import time

import numpy as np
import pytest

import chemostab as cs
from chemostab.cli import main as cli_main

from oracles import periodic_logistic_oracle


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def const_set(grid, a0=1.0, a1=1.0, a2=0.0):
    return cs.CoefficientSet(
        cs.ConstantCoefficient(grid, a0),
        cs.ConstantCoefficient(grid, a1),
        cs.ConstantCoefficient(grid, a2),
    )


# --- shared benchmark: homogeneous stabilization configuration -------------

BENCH_T_END = 60.0
BENCH_BURN = (10.0, 10.0, 10.0)


@pytest.fixture(scope="module")
def bench():
    grid = cs.Grid((1.0,), (101,))
    coeffs = const_set(grid)
    params = cs.ModelParams(chi=0.05, tau=1.0, lam=1.0, mu=1.0)
    cfg = cs.StepperConfig(error_tol=1e-6, dt_max=0.25)
    x = grid.coords()[0]
    seeds = [
        np.full(grid.counts, 0.1),
        np.full(grid.counts, 5.0),
        1.0 + 0.5 * np.cos(np.pi * x),
    ]
    times = np.linspace(0.0, BENCH_T_END, 601)
    start = time.perf_counter()
    runs = [
        cs.run(cs.ModelState(0.0, u0, np.full(grid.counts, 0.0)),
               BENCH_T_END, coeffs, params, cfg, sample_times=times)
        for u0 in seeds
    ]
    elapsed = time.perf_counter() - start
    constants = cs.measure_constants(runs, BENCH_BURN)
    report = cs.estimate_theta(coeffs, params, constants, (0.0, BENCH_T_END), 601)
    return {
        "grid": grid, "coeffs": coeffs, "params": params, "cfg": cfg,
        "runs": runs, "elapsed": elapsed, "constants": constants, "report": report,
    }


def test_criterion_1_homogeneous_stabilization(bench):
    worst_gap = 0.0
    for i, j in itertools.combinations(range(3), 2):
        gap = cs.trajectory_gap(bench["runs"][i], bench["runs"][j])
        worst_gap = max(worst_gap, float(gap.w_Linf[-1]), float(gap.phi_Linf[-1]))
    worst_dev = 0.0
    for traj in bench["runs"]:
        worst_dev = max(
            worst_dev,
            float(np.abs(traj.final.u - 1.0).max()),
            float(np.abs(traj.final.v - 1.0).max()),
        )
    ok = worst_gap < 1e-3 and worst_dev < 2e-3 and bench["elapsed"] < 30.0
    _verdict(1, ok,
             f"pairwise gap {worst_gap:.2e} < 1e-3, deviation from (1,1) "
             f"{worst_dev:.2e} < 2e-3, runtime {bench['elapsed']:.1f}s < 30s")


def test_criterion_2_decay_rate_vs_theta(bench):
    report = bench["report"]
    eps = report.eps_suggested
    gap = cs.trajectory_gap(bench["runs"][0], bench["runs"][1])
    fit = cs.fit_decay_rate(gap, (10.0, 40.0))
    bound = report.theta + eps + 0.05
    ok = report.theta < 0.0 and fit.rate <= bound and fit.r2 >= 0.95
    _verdict(2, ok,
             f"theta {report.theta:.4f} < 0, fitted rate {fit.rate:.3f} <= "
             f"{bound:.3f}, r2 {fit.r2:.4f} >= 0.95")


def test_criterion_3_convex_amplitude_constants():
    grid = cs.Grid((1.0,), (11,))
    out = cs.compute_M2_convex(
        const_set(grid), cs.ModelParams(chi=1.0, tau=1.0, lam=1.0, mu=1.0), (0.0, 10.0),
    )
    ok = (abs(out.M0 - 1.5) <= 1e-12 and abs(out.M0_ai - 3.0) <= 1e-12
          and abs(out.M2 - 3.0) <= 1e-12)
    _verdict(3, ok, f"M0={out.M0!r}, M0_ai={out.M0_ai!r}, M2={out.M2!r} "
                    "(expected 1.5, 3, 3 at 1e-12)")


def test_criterion_4_constant_coefficient_identity():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        vol = rng.uniform(0.25, 4.0)
        grid = cs.Grid((vol,), (5,))
        a0 = rng.uniform(0.05, 5.0)
        a1 = rng.uniform(0.05, 5.0)
        a2 = rng.uniform(-3.0, 3.0)
        params = cs.ModelParams(
            chi=rng.uniform(-3, 3), tau=rng.uniform(0.05, 1.0),
            lam=rng.uniform(0.1, 4.0), mu=rng.uniform(0.1, 4.0),
        )
        eta = rng.uniform(0.01, 2.0)
        constants = cs.KnownConstants(
            M2=eta + rng.uniform(0.0, 3.0), eta=eta, C3_tilde=rng.uniform(0.05, 4.0))
        coeffs = const_set(grid, a0, a1, a2)
        got = (cs.compute_L2(1.3, coeffs, params, constants)
               - cs.compute_L1(1.3, coeffs, constants))
        pos_a2, neg_a2 = max(a2, 0.0), max(-a2, 0.0)
        expected = (
            a0 + params.mu**2 / (2 * params.lam * params.tau)
            + abs(params.chi) * constants.C3_tilde / 2
            + vol * constants.M2 * (pos_a2 + 2 * neg_a2)
            - eta * (2 * a1 + vol * (abs(a2) + pos_a2))
        )
        worst = max(worst, abs(got - expected) / max(abs(expected), 1e-30))
    ok = worst <= 1e-12
    _verdict(4, ok, f"1000 draws, worst relative deviation {worst:.2e} <= 1e-12")


def test_criterion_5_mass_identity():
    rng = np.random.default_rng(7)
    worst = 0.0
    for k in range(50):
        if k % 2:
            grid = cs.Grid((rng.uniform(0.5, 2.0),), (int(rng.integers(5, 60)),))
        else:
            grid = cs.Grid(
                (rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)),
                (int(rng.integers(4, 12)), int(rng.integers(4, 12))),
            )
        u = rng.uniform(0.0, 3.0, grid.counts)
        v = rng.uniform(0.0, 2.0, grid.counts)
        params = cs.ModelParams(
            chi=rng.uniform(-1.5, 1.5), tau=rng.uniform(0.1, 1.0),
            lam=rng.uniform(0.2, 2.0), mu=rng.uniform(0.2, 2.0),
        )
        coeffs = const_set(grid, rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0),
                           rng.uniform(-1.0, 1.0))
        state = cs.ModelState(0.0, u, v)
        du, _ = cs.mass_rate(state, coeffs, params)
        imp, exp = cs.split_terms(state, coeffs, params)
        total = cs.integrate_values(grid, (imp + exp)[0])
        lap = cs.laplacian_values(grid, u)
        chem = cs.chemotaxis_values(grid, u, v, params.chi)
        scale = (1.0 + cs.integrate_values(grid, np.abs(lap))
                 + cs.integrate_values(grid, np.abs(chem)))
        worst = max(worst, abs(total - du) / scale)
    ok = worst <= 1e-12
    _verdict(5, ok, f"50 random states, worst |mass defect|/scale {worst:.2e} <= 1e-12")


def test_criterion_6_discretization_orders():
    # spatial: second-difference error on cos(pi x) under mesh halving
    errors = []
    for n in (33, 65, 129):
        grid = cs.Grid((1.0,), (n,))
        f = cs.Field.from_function(grid, lambda x: np.cos(np.pi * x))
        lap = cs.laplacian_values(grid, f.values)
        errors.append(float(np.abs(lap + np.pi**2 * f.values).max()))
    spatial_orders = [math.log2(errors[k] / errors[k + 1]) for k in range(2)]
    spatial_ok = all(1.9 <= o <= 2.1 for o in spatial_orders)

    # temporal: Richardson on the flat reduction, both scheme variants
    grid = cs.Grid((1.0,), (3,))
    coeffs = const_set(grid)
    params = cs.ModelParams(chi=0.0, tau=1.0, lam=1.0, mu=1.0)
    temporal = {}
    for theta, design in ((1.0, 1.0), (0.5, 2.0)):
        cfg = cs.StepperConfig(theta_scheme=theta)
        state0 = cs.ModelState(0.0, np.full(grid.counts, 0.1),
                               np.full(grid.counts, 0.0))
        finals = [
            cs.fixed_step_run(state0, 2.0, n, coeffs, params, cfg).u[0]
            for n in (20, 40, 80)
        ]
        order = math.log2(abs(finals[0] - finals[1]) / abs(finals[1] - finals[2]))
        temporal[theta] = (order, abs(order - design) <= 0.15)
    ok = spatial_ok and all(flag for _, flag in temporal.values())
    _verdict(6, ok,
             f"spatial orders {[round(o, 3) for o in spatial_orders]} in [1.9, 2.1]; "
             f"temporal theta=1: {temporal[1.0][0]:.3f} (design 1), "
             f"theta=0.5: {temporal[0.5][0]:.3f} (design 2), both +-0.15")


def test_criterion_7_persistence_and_bounds(bench):
    constants = bench["constants"]
    vol = bench["grid"].volume
    entire = cs.approximate_entire_solution(
        bench["coeffs"], bench["params"], bench["cfg"],
        t_back=30.0, t_span=(0.0, 10.0), sample_dt=0.25, tolerance=1e-6,
    )
    u_min = entire.trajectory.u.min()
    u_max = entire.trajectory.u.max()
    in_band = constants.eta <= u_min and u_max <= constants.M2
    ok = (0.95 <= constants.eta <= 1.0
          and 1.0 <= constants.M2 <= 1.3
          and constants.M1 <= constants.M2 * vol * (1 + 1e-12)
          and in_band)
    _verdict(7, ok,
             f"eta_hat {constants.eta:.5f} in [0.95, 1], M2_hat {constants.M2:.5f} "
             f"in [1, 1.3], M1_hat {constants.M1:.5f} <= M2_hat*vol, entire segment "
             f"u in [{u_min:.8f}, {u_max:.8f}] inside [eta_hat, M2_hat]: {in_band}")


def test_criterion_8_entire_solution_seed_independence():
    grid = cs.Grid((1.0,), (5,))
    tf = cs.TimeFactor("sinusoid", offset=1.0, amplitude=0.2, frequency=1.0)
    a0 = cs.SeparableCoefficient(grid, tf, cs.spatial_profile(grid, "constant", value=1.0))
    coeffs = cs.CoefficientSet(a0, cs.ConstantCoefficient(grid, 1.0),
                               cs.ConstantCoefficient(grid, 0.0))
    params = cs.ModelParams(chi=0.0, tau=1.0, lam=1.0, mu=1.0)
    cfg = cs.StepperConfig(error_tol=1e-6, dt_max=0.25)
    entire = cs.approximate_entire_solution(
        coeffs, params, cfg, t_back=40.0, t_span=(0.0, 2 * math.pi),
        seeds=((0.1, 0.0), (5.0, 0.0)), sample_dt=0.05, tolerance=1e-5,
    )
    oracle = periodic_logistic_oracle()
    oracle_gap = max(
        float(np.abs(u - oracle(t)).max())
        for t, u in zip(entire.trajectory.times, entire.trajectory.u)
    )
    ok = entire.seed_gap < 1e-5 and oracle_gap < 1e-3
    _verdict(8, ok,
             f"seed gap {entire.seed_gap:.2e} < 1e-5 at t_back=40, "
             f"periodic-oracle gap {oracle_gap:.2e} < 1e-3")


def test_criterion_9_gronwall_checker(bench):
    report = bench["report"]
    eps = report.eps_suggested
    result = cs.gronwall_check((bench["runs"][0], bench["runs"][1]), report, eps)
    real_ok = (result.conclusive and result.fraction == 1.0
               and result.worst_margin <= 0.0)

    # injected synthetic violation: growing E against a decaying bound
    t = np.linspace(0.0, 10.0, 101)
    e = np.exp(t)
    z = np.sqrt(e / 2.0)
    series = cs.GapSeries(t=t, E=e, w_L2=z, phi_L2=z, w_Linf=z, phi_Linf=z,
                          volume=1.0, state_scale=1.0)
    synthetic = cs.gronwall_check_series(series, report, eps, t_entry=0.0)
    detect_ok = synthetic.fraction == 0.0
    ok = real_ok and detect_ok
    _verdict(9, ok,
             f"real pair: fraction {result.fraction} = 1 with worst margin "
             f"{result.worst_margin:.2e} <= 0 (max slack {result.max_slack:.2e}); "
             f"synthetic violation detection {100 * (1 - synthetic.fraction):.0f}% = 100%")


SWEEP_CONFIG = """
grid:
  extents: [1.0]
  counts: [11]
params: {chi: 0.0, tau: 1.0, lambda: 1.0, mu: 1.0}
a0: {kind: constant, value: 1.0}
a1: {kind: constant, value: 1.0}
a2: {kind: constant, value: 0.0}
experiment:
  window: [0.0, 10.0]
  n_samples: 101
  constants: {M2: 3.0, eta: 0.9, C3_tilde: 1.0}
  sweep:
    axes:
      params.chi: [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
output:
  dir: OUT
  name: h3sweep
"""


def test_criterion_10_h3_sweep_threshold(tmp_path, capsys):
    cfg_path = tmp_path / "sweep.yaml"
    cfg_path.write_text(SWEEP_CONFIG.replace("OUT", str(tmp_path / "out")))
    code = cli_main(["sweep", "--config", str(cfg_path)])
    out = capsys.readouterr().out
    rows = [ln.split(",") for ln in out.strip().splitlines()]
    h3_by_chi = {float(r[0]): r[3] for r in rows}
    holding = [chi for chi, status in h3_by_chi.items() if status == "holds"]
    failing = [chi for chi, status in h3_by_chi.items() if status == "fails"]
    flip_lo, flip_hi = max(holding), min(failing)
    threshold = 1.0 / 3.0  # chi * M2 = 1 with M2 = 3
    step = 0.1
    ok = (code == 0
          and flip_lo < flip_hi
          and flip_lo <= threshold <= flip_hi
          and (flip_hi - flip_lo) <= step + 1e-12
          and all(chi < flip_hi for chi in holding)
          and all(chi > flip_lo for chi in failing))
    _verdict(10, ok,
             f"h3 flips between chi={flip_lo} and chi={flip_hi}, bracketing "
             f"1/M2={threshold:.4f} within one grid step ({step})")
