"""Reference values computed apart from the program (no ``bbma`` import).

The model: Brownian motion with drift -c, absorbed at 0, branching at rate r
into k copies with probability pmf[k].  Write mu1, mu2 for the first two
moments of the offspring count and g = r (mu1 - 1).

- ``survival``: reflection principle,
  P_x(X_t > 0) = Phi((x - ct)/sqrt t) - e^{2cx} Phi(-(x + ct)/sqrt t).
- ``killed_cdf``: P_x(X_t in (0, y]) for the killed motion, from the same
  image-charge density.
- ``expected_count``: E N_t(B) = e^{gt} P_x(X_t in B), many-to-one formula.
- ``factorial_moment_pure``: E[N(N-1)] of the branching process without
  killing, (mu2 - mu1) r e^{gt} (e^{gt} - 1) / g.  Killing removes particles,
  so this bounds the killed E[N(N-1)] from above, and the two differ by less
  than e^{-x^2/2t} (the chance that any path reaches 0 by time t).
- ``extinction_probability``: the ever-extinction probability q(x), the
  solution of 1/2 q'' - c q' + r (sum_k pmf[k] q^k - q) = 0 with q(0) = 1 and
  q(inf) = 0 (Kesten 1978, "Branching Brownian motion with absorption").
"""
from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_bvp
from scipy.special import ndtr


def offspring_moments(pmf) -> tuple[float, float]:
    """(mu1, mu2) of a child-count pmf given as a list indexed by k."""
    k = np.arange(len(pmf), dtype=float)
    p = np.asarray(pmf, dtype=float)
    return float(np.dot(k, p)), float(np.dot(k * k, p))


def survival(x: float, t: float, c: float) -> float:
    """P_x(X_t > 0) for Brownian motion with drift -c killed at 0."""
    rt = math.sqrt(t)
    return float(ndtr((x - c * t) / rt) - math.exp(2.0 * c * x) * ndtr(-(x + c * t) / rt))


def killed_cdf(x: float, y: float, t: float, c: float) -> float:
    """P_x(X_t in (0, y] and not absorbed by t)."""
    rt = math.sqrt(t)
    direct = ndtr((y - x + c * t) / rt) - ndtr((c * t - x) / rt)
    image = ndtr((y + x + c * t) / rt) - ndtr((x + c * t) / rt)
    return float(direct - math.exp(2.0 * c * x) * image)


def expected_count(x: float, t: float, lo: float, c: float, r: float, pmf) -> float:
    """E N_t([lo, inf)) by the many-to-one formula."""
    mu1, _ = offspring_moments(pmf)
    mass = survival(x, t, c) - (killed_cdf(x, lo, t, c) if lo > 0 else 0.0)
    return math.exp(r * (mu1 - 1.0) * t) * mass


def factorial_moment_pure(t: float, r: float, pmf) -> float:
    """E[N_t (N_t - 1)] of the branching process with no killing."""
    mu1, mu2 = offspring_moments(pmf)
    g = r * (mu1 - 1.0)
    if g == 0.0:
        return (mu2 - mu1) * r * t
    return (mu2 - mu1) * r * math.exp(g * t) * math.expm1(g * t) / g


def regime(c: float, r: float, pmf) -> str:
    """Regime label from the sign of r(mu1-1) - c^2/2 (L2 when above c^2)."""
    mu1, _ = offspring_moments(pmf)
    drift_rate, lam = r * (mu1 - 1.0), 0.5 * c * c
    if drift_rate > 2.0 * lam:
        return "L2-supercritical"
    if drift_rate > lam:
        return "supercritical"
    if drift_rate < lam:
        return "subcritical"
    return "critical"


def extinction_probability(x0: float, c: float, r: float, pmf, length: float = 40.0) -> float:
    """q(x0): probability that the population started at x0 ever dies out.

    Solves the travelling-wave boundary value problem on [0, length] with
    q(length) = 0; q decays like e^{kappa x}, kappa = c - sqrt(c^2 + 2 r (1 - p1)),
    so the cut-off error is of order e^{kappa length}.
    """
    p = np.asarray(pmf, dtype=float)
    if p[0] > 0.0:
        raise ValueError("q(inf) = 0 holds only for p0 = 0")
    if regime(c, r, pmf) in ("subcritical", "critical"):
        return 1.0
    kappa = c - math.sqrt(c * c + 2.0 * r * (1.0 - (p[1] if p.size > 1 else 0.0)))

    def rhs(x, y):
        q, dq = y
        gen = np.polynomial.polynomial.polyval(q, p)
        return np.vstack([dq, 2.0 * (c * dq - r * (gen - q))])

    def bc(ya, yb):
        return np.array([ya[0] - 1.0, yb[0]])

    mesh = np.linspace(0.0, length, 801)
    guess = np.vstack([np.exp(kappa * mesh), kappa * np.exp(kappa * mesh)])
    sol = solve_bvp(rhs, bc, mesh, guess, tol=1e-10, max_nodes=100_000)
    if not sol.success:
        raise RuntimeError(f"extinction-probability BVP did not converge: {sol.message}")
    return float(sol.sol(x0)[0])
