"""Independent oracles for the test suite.

Everything here is deliberately built on a different path than the package:
closed forms, scipy's general-purpose integrator, dense matrices, and
brute-force sampling.
"""

from __future__ import annotations

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
