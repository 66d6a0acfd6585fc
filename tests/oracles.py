"""Independent oracles for the test suite.

Everything here is deliberately built on a different path than the package:
closed forms, scipy's general-purpose integrator, dense matrices,
brute-force sampling, and earlier field-by-field forms of stacked code.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad, solve_ivp


def logistic_exact(t, u0: float, a0: float = 1.0, a1: float = 1.0):
    """Closed form for u' = u*(a0 - a1*u), u(0) = u0 >= 0."""
    t = np.asarray(t, dtype=float)
    if u0 == 0.0:
        return np.zeros_like(t)
    return a0 / (a1 + (a0 / u0 - a1) * np.exp(-a0 * t))


def chemical_exact_flat(t, v0: float, u_of_t, lam: float, mu: float, tau: float, rtol=1e-12):
    """v' = (-lam*v + mu*u(t))/tau by high-accuracy quadrature of the variation
    of constants formula: v(t) = e^{-lam t/tau} v0 + (mu/tau) int e^{-lam(t-s)/tau} u(s) ds."""
    t = float(t)
    decay = np.exp(-lam * t / tau)
    integral, _ = quad(lambda s: np.exp(-lam * (t - s) / tau) * u_of_t(s), 0.0, t,
                       epsabs=1e-14, epsrel=rtol, limit=500)
    return decay * v0 + (mu / tau) * integral


def periodic_logistic_oracle(omega_offset: float = 1.0, amp: float = 0.2):
    """Unique positive periodic solution of u' = u*(a(t) - u), a(t) = offset + amp*sin(t).

    Uses the reciprocal substitution z = 1/u, which turns the equation into
    the affine ODE z' = -a(t)*z + 1. The period map of an affine ODE is
    affine, so its fixed point follows from two high-accuracy integrations.
    Returns a callable p(t) valid for t in [0, 2*pi] (extendable by
    periodicity).
    """
    two_pi = 2.0 * np.pi

    def a(t):
        return omega_offset + amp * np.sin(t)

    def zdot(t, z):
        return -a(t) * z + 1.0

    # z(T) = alpha*z0 + beta with alpha = e^{-A(T)}, beta from a zero start
    sol0 = solve_ivp(zdot, (0.0, two_pi), [0.0], rtol=1e-12, atol=1e-14, dense_output=True)
    beta = float(sol0.y[0, -1])
    sol1 = solve_ivp(zdot, (0.0, two_pi), [1.0], rtol=1e-12, atol=1e-14, dense_output=True)
    alpha = float(sol1.y[0, -1]) - beta
    z_star = beta / (1.0 - alpha)
    sol = solve_ivp(zdot, (0.0, two_pi), [z_star], rtol=1e-12, atol=1e-14, dense_output=True)

    def p(t):
        tt = np.mod(np.asarray(t, dtype=float), two_pi)
        return 1.0 / sol.sol(tt)[0]

    return p


def scalar_imex_step(u, v, t, dt, a0, a1, a2_vol, params, theta):
    """The package's IMEX update specialized to spatially flat states.

    Diffusion acts as zero on flat fields; the chemical decay stays inside
    the implicit solve. Mirrors the predictor/corrector structure exactly.
    """
    tau, lam, mu = params.tau, params.lam, params.mu

    def explicit_u(uu, tt):
        return uu * (a0 - a1 * uu - a2_vol * uu)

    def solve_pair(exp_u, exp_v):
        u_new = u + dt * exp_u
        v_new = (v + dt * (1.0 - theta) * (-lam * v / tau) + dt * exp_v) / (
            1.0 + theta * dt * lam / tau
        )
        return u_new, v_new

    eu_n = explicit_u(u, t)
    ev_n = mu * u / tau
    u_new, v_new = solve_pair(eu_n, ev_n)
    if theta < 1.0:
        u_star = max(u_new, 0.0)
        eu_s = explicit_u(u_star, t + dt)
        ev_s = mu * u_star / tau
        u_new, v_new = solve_pair(
            (1.0 - theta) * eu_n + theta * eu_s,
            (1.0 - theta) * ev_n + theta * ev_s,
        )
    return u_new, v_new


def dense_envelope(fn, lo: float, hi: float, n: int = 100_000):
    """Brute-force (min, max) of a scalar function by dense sampling."""
    xs = np.linspace(lo, hi, n)
    vals = fn(xs)
    return float(np.min(vals)), float(np.max(vals))


def trapezoid_sum(values, weights):
    """Reference quadrature: plain weighted sum written independently."""
    total = 0.0
    for v, w in zip(np.ravel(values), np.ravel(weights)):
        total += v * w
    return total


def axis_laplacian_matrix(grid, axis: int) -> np.ndarray:
    """Dense 1D Neumann Laplacian along one axis (reflected ghosts)."""
    n = grid.counts[axis]
    h = grid.spacing[axis]
    a = np.zeros((n, n))
    inv = 1.0 / (h * h)
    for i in range(1, n - 1):
        a[i, i - 1] = inv
        a[i, i] = -2.0 * inv
        a[i, i + 1] = inv
    a[0, 0] = -2.0 * inv
    a[0, 1] = 2.0 * inv
    a[n - 1, n - 1] = -2.0 * inv
    a[n - 1, n - 2] = 2.0 * inv
    return a


def laplacian_matrix(grid) -> np.ndarray:
    """Dense Neumann Laplacian on the flattened grid: the Kronecker sum of the
    axis matrices, acting on C-ordered field values."""
    mats = [axis_laplacian_matrix(grid, k) for k in range(grid.dim)]
    if grid.dim == 1:
        return mats[0]
    n0, n1 = grid.counts
    return np.kron(mats[0], np.eye(n1)) + np.kron(np.eye(n0), mats[1])


def shifted_solve(grid, a: float, b: float, rhs) -> np.ndarray:
    """Dense reference for (a*I - b*Lap) x = rhs.

    Plain LU loses about cond * eps when b/h^2 is large, so the LU solution
    is refined with residuals of the operator formed and applied in extended
    precision (``np.longdouble``, 80-bit on x86-64).
    """
    lap = laplacian_matrix(grid)
    eye = np.eye(grid.node_count)
    op = a * eye - b * lap
    op_ext = a * eye.astype(np.longdouble) - b * lap.astype(np.longdouble)
    f = np.ravel(np.asarray(rhs, dtype=float))
    x = np.linalg.solve(op, f)
    for _ in range(2):
        x = x + np.linalg.solve(op, (f - op_ext @ x).astype(float))
    return x.reshape(grid.counts)


def field_by_field_step(state, dt, coeffs, params, cfg, history=None):
    """Reference IMEX step that treats u and v as two separate fields.

    The stepper's update written once per field: two right-hand sides, two
    solves per stage (a matrix product per field, a vector product for a
    single 1D field), two finiteness checks, two extrapolations and two
    clamps.  ``history = (f_u, f_v, dt_prev)``.  Returns
    ``(u, v, err, clamped_mass_u, clamped_mass_v, clamped_nodes)``, the
    clamp counters per member; raises ``StepRejected`` where the stepper does.
    """
    from chemostab import StepRejected, chemotaxis_values, laplacian_values, reaction_values
    from chemostab.implicit import _dct1_matrix, _neg_symbol

    grid = coeffs.grid
    theta, t = cfg.theta_scheme, state.t
    u, v = state.u, state.v
    tau, lam, mu = params.tau, params.lam, params.mu
    axes = grid.axes

    def solve(a, b, rhs):
        mats = [_dct1_matrix(n) for n in grid.counts]

        def dct1(x):
            return x @ mats[0].T if grid.dim == 1 else mats[0] @ x @ mats[1].T

        spec = dct1(rhs)
        scale = math.prod(2 * (n - 1) for n in grid.counts)
        spec /= scale * a + (scale * b) * _neg_symbol(grid)
        return dct1(spec)

    def explicit(uu, vv, tt):
        eu = chemotaxis_values(grid, uu, vv, params.chi) + reaction_values(grid, uu, tt, coeffs)
        return eu, mu * uu / tau

    lap_u = laplacian_values(grid, u)
    lin_v = (laplacian_values(grid, v) - lam * v) / tau
    eu_n, ev_n = explicit(u, v, t)

    def solve_pair(exp_u, exp_v):
        u_new = solve(1.0, theta * dt, u + dt * (1.0 - theta) * lap_u + dt * exp_u)
        v_new = solve(1.0 + theta * dt * lam / tau, theta * dt / tau,
                      v + dt * (1.0 - theta) * lin_v + dt * exp_v)
        if not (np.isfinite(u_new).all() and np.isfinite(v_new).all()):
            raise StepRejected("step produced non-finite values")
        return u_new, v_new

    u_new, v_new = solve_pair(eu_n, ev_n)
    if theta < 1.0:
        eu_s, ev_s = explicit(np.maximum(u_new, 0.0), np.maximum(v_new, 0.0), t + dt)
        u_new, v_new = solve_pair((1.0 - theta) * eu_n + theta * eu_s,
                                  (1.0 - theta) * ev_n + theta * ev_s)

    f_u, f_v = lap_u + eu_n, lin_v + ev_n
    if history is None:
        fp_u, fp_v, w, c = f_u, f_v, 0.0, 1.0
    else:
        fp_u, fp_v, dt_prev = history
        w = dt / dt_prev
        c = w / (3.0 * (1.0 + w)) if theta == 0.5 else 1.0

    def deviation(y, f, f_prev, b):
        p = y + dt * ((1.0 + 0.5 * w) * f - 0.5 * w * f_prev)
        return np.abs(p - b).max(axis=axes) / (1.0 + np.abs(b).max(axis=axes))

    err = c * float(np.max(np.maximum(deviation(u, f_u, fp_u, u_new),
                                      deviation(v, f_v, fp_v, v_new))))
    if not math.isfinite(err):
        raise StepRejected("error estimate is non-finite")

    scale = np.maximum(1.0, np.maximum(np.abs(u).max(axis=axes), np.abs(v).max(axis=axes)))
    batch = u.shape[: u.ndim - grid.dim]

    def clamp(vals):
        rows = vals.reshape(-1, grid.node_count)
        band = -1.0e-12 * np.ravel(scale)
        worst = rows.min(axis=1)
        if np.any(worst < band):
            raise StepRejected("fell below the band")
        weights = grid.weights.ravel()
        mass = np.array([np.sum(weights[r < 0.0] * (-r[r < 0.0])) for r in rows])
        out = vals.copy()
        out[vals < 0.0] = 0.0
        return out, mass.reshape(batch), (rows < 0.0).sum(axis=1).reshape(batch)

    u_new, mass_u, nodes_u = clamp(u_new)
    v_new, mass_v, nodes_v = clamp(v_new)
    return u_new, v_new, err, mass_u, mass_v, nodes_u + nodes_v


def inline_control(err, dt_try, first: bool, cfg):
    """Reference for ``stepper.control``: the decision as the march loop once made it inline.

    One branch per verdict, each with its own ratio and clamp, and a separate
    4x shrink for an attempt that raised ``StepRejected`` (``err is None``).
    Returns ``(accepted, dt_next)``.
    """
    roundoff_floor = 100.0 * np.finfo(float).eps
    if err is None:
        return False, max(0.25 * dt_try, cfg.dt_min)
    second = cfg.design_order == 2
    order = 3 if second and not first else 2
    if second and first:
        tol, power = cfg.error_tol, order
    else:
        tol, power = cfg.error_tol * dt_try, order - 1
    if tol < roundoff_floor:
        tol, power = roundoff_floor, order
    if err <= tol:
        accepted = True
        ratio = tol / err if err > 0.0 else 1e6
        dt = dt_try * min(5.0, max(0.2, cfg.safety * ratio ** (1.0 / power)))
    else:
        accepted = False
        ratio = tol / err
        dt = dt_try * min(0.5, max(0.1, cfg.safety * ratio ** (1.0 / power)))
    return accepted, max(dt, cfg.dt_min)


def report_csv_reference(report) -> str:
    """The stability report as the ``stability`` module once serialized it itself.

    A '#' block (window, theta, quad_error, conclusion, eps_suggested, the
    constants with provenance, cq1_pairs, the H1-H3 verdicts with their
    margins, notes), the header, then one row per sampled time, each value
    through ``float`` and ``repr``.
    """

    def describe(verdict):
        margin_txt = "".join(f" {k}={v:.6g}" for k, v in verdict.margins.items())
        note_txt = ("; " + "; ".join(verdict.notes)) if verdict.notes else ""
        return f"{verdict.name}: {verdict.status}{margin_txt}{note_txt}"

    lines = ["# stability report"]
    lines.append(f"# window: {report.window[0]!r} {report.window[1]!r}")
    lines.append(f"# theta: {report.theta!r}")
    lines.append(f"# quad_error: {report.quad_error!r}")
    lines.append(f"# conclusion: {report.conclusion}")
    if report.eps_suggested is not None:
        lines.append(f"# eps_suggested: {report.eps_suggested!r}")
    c = report.constants
    for name in ("M1", "M2", "eta", "C3_tilde"):
        val = getattr(c, name)
        if val is not None:
            lines.append(f"# {name}: {val!r} ({c.provenance.get(name, 'config')})")
    if c.cq1_pairs:
        pairs = " ".join(f"({q!r},{cc!r})" for q, cc in c.cq1_pairs)
        lines.append(f"# cq1_pairs: {pairs}")
    for verdict in (report.h1_ok, report.h2_ok, report.h3_ok):
        lines.append(f"# {describe(verdict)}")
    for note in report.notes:
        lines.append(f"# note: {note}")
    lines.append("t,L1,L2,h")
    for t, l1, l2, h in zip(report.ts, report.L1_series, report.L2_series, report.h_series):
        lines.append(f"{float(t)!r},{float(l1)!r},{float(l2)!r},{float(h)!r}")
    return "\n".join(lines) + "\n"


def advective_dt_limit_gradient(grid, v, chi: float, safety: float) -> float:
    """The advective guard from the full central-difference gradient of ``v``.

    ``safety * min over axes of h / (|chi| * max|grad v|)``, with the
    gradient divided by 2h at every node.
    """
    from chemostab import gradient_neumann

    if chi == 0.0:
        return math.inf
    limit = math.inf
    for h, g in zip(grid.spacing, gradient_neumann(grid, v)):
        speed = abs(chi) * float(np.abs(g).max())
        if speed > 0.0:
            limit = min(limit, h / speed)
    return safety * limit


def gronwall_loop(series, report, eps: float, t_entry: float):
    """Interval-by-interval reference for ``gronwall_check_series``.

    Returns (fraction, worst_margin, max_slack), evaluating h and K at one
    interval midpoint at a time.
    """
    from chemostab import band_perturbation_gain, decay_integrand

    mask = series.t >= t_entry - 1e-12
    t = series.t[mask]
    e = series.E[mask]
    dts = np.diff(t)
    des = np.diff(e)
    rates = np.abs(des) / dts
    floor = series.noise_floor()
    satisfied = 0
    worst = -np.inf
    max_slack = 0.0
    for k in range(dts.size):
        lhs = 0.5 * des[k] / dts[k]
        t_mid = 0.5 * (t[k] + t[k + 1])
        e_mid = 0.5 * (e[k] + e[k + 1])
        gain = decay_integrand(float(t_mid), report.coeffs, report.params, report.constants)
        gain += band_perturbation_gain(float(t_mid), report.coeffs, eps)
        rhs = gain * e_mid
        lip = float(max(rates[max(0, k - 1): k + 2].max(), 0.0))
        slack = 2.0 * float(dts[k]) * lip + floor / float(dts[k])
        max_slack = max(max_slack, slack)
        margin = float(lhs - rhs) - slack
        if margin <= 0.0:
            satisfied += 1
        worst = max(worst, margin)
    return satisfied / dts.size, worst, max_slack


def trajectory_gap_loop(run_a, run_b):
    """Sample-by-sample reference for ``trajectory_gap``: one ``norms`` call per field.

    Returns ``(E, w_L2, phi_L2, w_Linf, phi_Linf, state_scale)``.
    """
    from chemostab import norms

    grid = run_a.grid
    rows = []
    scale = 0.0
    for ua, va, ub, vb in zip(run_a.u, run_a.v, run_b.u, run_b.v):
        w_l2, w_li = norms(grid, ua - ub)
        p_l2, p_li = norms(grid, va - vb)
        rows.append((w_l2 ** 2 + p_l2 ** 2, w_l2, p_l2, w_li, p_li))
        scale = max(scale, *(float(np.abs(a).max()) for a in (ua, va, ub, vb)))
    return (*(np.array(col) for col in zip(*rows)), scale)


def apply_override_via_yaml(cfg, path: str, value: float):
    """One dotted-path override made through YAML text, as sweeps once did.

    The normalized config is dumped with the scalar replaced and the text is
    parsed again, so every block goes through the YAML loader and the full
    document checks.
    """
    import dataclasses

    import yaml

    from chemostab.config import parse_config
    from chemostab.errors import ConfigError

    data = dataclasses.asdict(cfg)
    *parents, leaf = path.split(".")
    node = data
    for part in parents:
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(path, "no such config entry")
        node = node[part]
    if not isinstance(node, dict) or leaf not in node:
        raise ConfigError(path, "no such config entry")
    node[leaf] = float(value)
    return parse_config(yaml.safe_dump(data))


# --- named profiles as two if-chains, before the profile registry ----------

PROFILE_KEYS = {
    "constant": {"value"},
    "bump": {"baseline", "amplitude", "center", "width"},
    "cosine": {"baseline", "amplitude", "mode", "axis"},
    "random-positive": {"low", "high", "seed"},
    "file": {"path"},
}

SPACE_PROFILE_KEYS = {
    "constant": {"value"},
    "linear-ramp": {"start", "stop", "axis"},
    "sine": {"offset", "amplitude", "mode", "axis", "phase"},
    "gaussian-bump": {"baseline", "amplitude", "center", "width"},
}


def spatial_profile_chain(grid, profile: str, **params):
    """A named spatial profile as a ``Field``, one branch per name."""
    from chemostab import Field

    coords = grid.coords()
    if profile == "constant":
        return Field.constant(grid, params.get("value", 1.0))
    if profile == "linear-ramp":
        axis = int(params.get("axis", 0))
        start = float(params.get("start", 0.0))
        stop = float(params.get("stop", 1.0))
        x = coords[axis]
        return Field(grid, start + (stop - start) * x / grid.extents[axis])
    if profile == "sine":
        axis = int(params.get("axis", 0))
        offset = float(params.get("offset", 0.0))
        amplitude = float(params.get("amplitude", 1.0))
        mode = float(params.get("mode", 1.0))
        phase = float(params.get("phase", 0.0))
        x = coords[axis]
        return Field(
            grid, offset + amplitude * np.sin(mode * math.pi * x / grid.extents[axis] + phase)
        )
    if profile == "gaussian-bump":
        baseline = float(params.get("baseline", 0.0))
        amplitude = float(params.get("amplitude", 1.0))
        width = float(params.get("width", 0.1))
        center = params.get("center", tuple(e / 2 for e in grid.extents))
        if np.isscalar(center):
            center = (float(center),) * grid.dim
        r2 = np.zeros(grid.counts)
        for x, c in zip(coords, center):
            r2 = r2 + (x - float(c)) ** 2
        return Field(grid, baseline + amplitude * np.exp(-r2 / (2.0 * width * width)))
    raise ValueError(f"unknown spatial profile {profile!r}")


def initial_profile_chain(grid, block: dict, seed_override=None) -> np.ndarray:
    """A normalized initial profile block as a nodal array, one branch per name."""
    from chemostab import Field

    profile = block["profile"]
    if profile == "constant":
        return Field.constant(grid, block.get("value", 0.0)).values
    if profile == "bump":
        return spatial_profile_chain(grid, **{**block, "profile": "gaussian-bump"}).values
    if profile == "cosine":
        baseline = block.get("baseline", 1.0)
        amplitude = block.get("amplitude", 0.5)
        mode = block.get("mode", 1)
        axis = block.get("axis", 0)
        x = grid.coords()[axis]
        wave = baseline + amplitude * np.cos(mode * np.pi * x / grid.extents[axis])
        return Field(grid, wave).values
    if profile == "random-positive":
        low = block.get("low", 0.1)
        high = block.get("high", 1.0)
        seed = block.get("seed", 0)
        rng = np.random.default_rng(seed if seed_override is None else [seed_override, seed])
        return Field(grid, rng.uniform(low, high, size=grid.counts)).values
    if profile == "file":
        return Field(grid, np.loadtxt(block["path"], delimiter=",").reshape(grid.counts)).values
    raise ValueError(f"unknown profile {profile!r}")
