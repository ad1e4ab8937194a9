"""First- and second-moment oracles for the branching dynamics.

Everything here is engine-free ground truth: closed forms and adaptive
Gauss-Legendre quadrature against the exact killed transition density, an
independent two-spine Monte Carlo estimator of second moments, and Kesten's
ever-extinction probability q(x) from its travelling-wave ODE.  The engine is
validated against these; they are validated against each other and against
closed forms.

Moment identities used throughout (m denotes one offspring count):
  E|N_t(B)|       = e^{r(mu1-1) t} * Integral_B p_t(x,y) dy
  E|N_t|^2        = e^{r(mu1-1) t} P_x(survive t)
                    + (mu2-mu1) r e^{2 r(mu1-1) t}
                      * Integral_0^t e^{-r(mu1-1) z}
                        E_x[ 1{X_z>0} P_{X_z}(survive t-z)^2 ] dz
  Var(m)+(mu1-1)^2 = mu2 - 2 mu1 + 1   (used by the two-spine weight)
"""
from __future__ import annotations

import functools
import math
import warnings
from typing import NamedTuple

import numpy as np

from .kernel import _killed_mass, killed_density, sample_killed_steps_batch, survival_probability
from .model import IntervalSet, ModelParams, Regime, classify_regime, ground_state_h, nu_measure

__all__ = [
    "expected_count",
    "expected_count_asymptotic",
    "extinction_probability",
    "second_moment_exact",
    "spine_second_moment_mc",
    "mean_one_check",
]

# Integration tail: in u, y = (x - c t) + sqrt(t) u, the killed density at
# duration t is a unit-width Gaussian bump, so _TAIL_SIGMAS units on either
# side of its centre capture the mass to well below quadrature tolerance.
_TAIL_SIGMAS = 14.0


# Inner rule of second_moment_exact: _GL_NODES-point Gauss-Legendre on each
# of _GL_PANELS equal panels, and on twice as many for the error estimate.
_GL_NODES = 16
_GL_PANELS = 8
_gauss_legendre = functools.cache(np.polynomial.legendre.leggauss)  # built on first use

# Adaptive rule (quad): _QUAD_NODES-point Gauss-Legendre panels, bisected at
# most _QUAD_DEPTH times to relative tolerance _QUAD_EPSREL.  Refining stops
# once more than _QUAD_MAX_OPEN panels are open: where no panel can close,
# as for an integral that cancels to roundoff, their number doubles per level.
_QUAD_NODES = 8
_QUAD_DEPTH = 40
_QUAD_EPSREL = 1e-10
_QUAD_MAX_OPEN = 256

# Kesten's q (extinction_probability): RK4 in x with steps _Q_STEP over the
# fastest linear rate at the saddle, from q - q_inf = _Q_START up to q = 1.
_Q_STEP = 0.04
_Q_START = 1e-15
_Q_LINEAR = 1e-14
_Q_MAX_STEPS = 1_000_000


def _check_error(val: float, err: float, lo: float, hi: float, epsrel: float) -> None:
    """RuntimeWarning when the achieved abs error exceeds epsrel * |val|."""
    if err > max(1e-250, abs(val) * epsrel):
        warnings.warn(f"quadrature achieved abs error {err:.3e} on [{lo:g},{hi:g}] "
                      f"(value {val:.6e}); tolerance {epsrel:g} not met", RuntimeWarning, stacklevel=4)


def _panel_sums(f, a: np.ndarray, b: np.ndarray, nodes: int) -> np.ndarray:
    """Gauss-Legendre estimate on each panel [a_i, b_i], from one call of f on all nodes."""
    xi, wi = _gauss_legendre(nodes)
    mid, half = (a + b) / 2.0, (b - a) / 2.0
    vals = np.asarray(f(mid[..., None] + half[..., None] * xi))
    return half * (vals @ wi)


def quad(f, lo: float, hi: float, breaks=()) -> float:
    """Integral over [lo, hi] of a vectorized f by adaptive Gauss-Legendre bisection.

    The panels start as [lo, hi] split at the interior breaks.  Each level
    halves every open panel and calls f once on all the halves' nodes; a
    panel closes once its halves' sum is within
    _QUAD_EPSREL |estimate| width / (hi - lo) of its whole-panel value.  This
    is the bisection of QUADPACK (Piessens et al., 1983) with a
    Gauss-Legendre pair in place of Kronrod.  Panels still open after
    _QUAD_DEPTH levels, or once more than _QUAD_MAX_OPEN are open, count
    with their halves' sum, and a missed tolerance is a RuntimeWarning.
    """
    if hi <= lo:
        return 0.0
    edges = np.unique(np.clip([lo, *breaks, hi], lo, hi))
    a, b = edges[:-1], edges[1:]
    whole = _panel_sums(f, a, b, _QUAD_NODES)
    done = 0.0
    for _ in range(_QUAD_DEPTH):
        m = (a + b) / 2.0
        halves = _panel_sums(f, np.concatenate([a, m]), np.concatenate([m, b]), _QUAD_NODES)
        left, right = halves[:a.size], halves[a.size:]
        pair = left + right
        moved = np.abs(pair - whole)
        keep = moved > _QUAD_EPSREL * abs(done + pair.sum()) * (b - a) / (hi - lo)  # nan closes
        done += float(pair[~keep].sum())
        if not keep.any():
            return done
        if keep.sum() > _QUAD_MAX_OPEN:
            break
        a, b = np.concatenate([a[keep], m[keep]]), np.concatenate([m[keep], b[keep]])
        whole = np.concatenate([left[keep], right[keep]])
    val = done + float(pair[keep].sum())
    _check_error(val, float(moved[keep].sum()), lo, hi, _QUAD_EPSREL)
    return val


def expected_count(x: float, t: float, B: IntervalSet, params: ModelParams) -> float:
    """E|N_t(B)| by the first-moment identity, in closed form (rel. tol 1e-8).

    Each interval's killed mass is a difference of Phi terms (_killed_mass),
    with no quadrature; B=(0,inf) is the survival probability.  Where the
    growth factor e^{mt} overflows, the product is exp(mt + log mass).
    """
    if not (0 < x < math.inf and 0 < t < math.inf):
        raise ValueError("expected_count requires x>0 and t>0")
    if not B.intervals:
        return 0.0
    mt = params.r * (params.offspring.mu1 - 1.0) * t
    if B.intervals == ((0.0, math.inf),):
        mass = float(survival_probability(x, t, params))
    else:
        mass = sum(float(_killed_mass(x, lo, hi, t, params)) for lo, hi in B.intervals)
    try:
        return math.exp(mt) * mass
    except OverflowError:
        if mass > 0:
            return math.exp(mt + math.log(mass))
        raise


def expected_count_asymptotic(x: float, t: float, B: IntervalSet, params: ModelParams) -> float:
    """Late-time first-moment approximation e^{gt} t^{-3/2} h(x) nu(B)."""
    if not (0 < x < math.inf and 0 < t < math.inf):
        raise ValueError("expected_count_asymptotic requires x>0 and t>0")
    if not B.intervals:
        return 0.0
    g = params.growth_exponent
    return math.exp(g * t) * t ** -1.5 * float(ground_state_h(x, params)) * nu_measure(B, params)


def second_moment_exact(x: float, t: float, params: ModelParams) -> float:
    """E|N_t|^2 by the exact two-term decomposition.

    The outer z integral is quad at relative tolerance 1e-10 over s in
    [0, 1], z = t (3 s^2 - 2 s^3), dz = 6 t s (1 - s) ds: sqrt(z) = s sqrt(t
    (3 - 2s)) and sqrt(t - z) = (1 - s) sqrt(t (1 + 2s)) are analytic in s,
    where in z they are not at either end, so the bisection closes in a few
    levels.  Each level evaluates the inner integral at all of its nodes at
    once.
    The inner y integral is taken in u, y = (x - c z) + sqrt(z) u, where the
    killed density is a unit-width bulk at every z, by composite
    Gauss-Legendre split where S(y, t-z)^2 rises (y = k sqrt(t-z), k = 1, 4,
    16); rules on K and 2K panels differ by the achieved error, held to 1e-8
    relative.  A missed tolerance is a RuntimeWarning rather than a failure.
    """
    if not (0 < x < math.inf and 0 < t < math.inf):
        raise ValueError("second_moment_exact requires x>0 and t>0")
    mu1, mu2 = params.offspring.mu1, params.offspring.mu2
    r = params.r
    growth = r * (mu1 - 1.0)
    term1 = math.exp(growth * t) * float(survival_probability(x, t, params))
    if mu2 == mu1:  # offspring count a.s. <= 1: no pairs ever coexist
        return term1

    def inner(s: np.ndarray) -> np.ndarray:
        # z = t s^2 (3 - 2s), so sqrt(z) and sqrt(t - z) are analytic in s.
        # y = (x - c z) + sqrt(z) u turns p_z(x,y) dy into phi(u) (1 - e^{-2xy/z}) du.
        z, rz = t * s * s * (3.0 - 2.0 * s), s * np.sqrt(t * (3.0 - 2.0 * s))
        rtail = (1.0 - s) * np.sqrt(t * (1.0 + 2.0 * s))
        tail, m = rtail * rtail, x - params.c * z
        lo = np.clip(-m / rz, -_TAIL_SIGMAS, _TAIL_SIGMAS)
        rises = np.clip((rtail[:, None] * [1.0, 4.0, 16.0] - m[:, None]) / rz[:, None],
                        lo[:, None], _TAIL_SIGMAS)
        zc, tc, mc, rc = (v[:, None, None] for v in (z, tail, m, rz))

        def f(u: np.ndarray) -> np.ndarray:
            y = np.maximum(mc + rc * u, 0.0)
            sq = survival_probability(y, tc, params) ** 2
            return np.exp(-0.5 * u * u) * -np.expm1(-2.0 * x * y / zc) * sq / math.sqrt(2.0 * math.pi)

        def rule(panels: int) -> np.ndarray:
            # Equal panels on [lo, _TAIL_SIGMAS] split at the rises; a rise
            # clipped onto an edge adds an empty panel, which sums to 0.
            edges = np.sort(np.hstack([np.linspace(lo, _TAIL_SIGMAS, panels + 1, axis=1), rises]), axis=1)
            return _panel_sums(f, edges[:, :-1], edges[:, 1:], _GL_NODES).sum(axis=1)

        coarse, fine = rule(_GL_PANELS), rule(2 * _GL_PANELS)
        err = np.abs(fine - coarse)
        worst = int(np.argmax(err - 1e-8 * np.abs(fine)))
        _check_error(fine[worst], err[worst], lo[worst], _TAIL_SIGMAS, 1e-8)
        return fine

    def integrand(s: np.ndarray) -> np.ndarray:
        z = t * s * s * (3.0 - 2.0 * s)
        return 6.0 * t * s * (1.0 - s) * np.exp(-growth * z) * inner(s.ravel()).reshape(s.shape)

    outer = quad(integrand, 0.0, 1.0)
    term2 = (mu2 - mu1) * r * math.exp(2.0 * growth * t) * outer
    return term1 + term2


def _pair_exponent(params: ModelParams) -> tuple[float, float]:
    """(split rate, weight rate); asserts the variance identity linking them."""
    law = params.offspring
    split_rate = (law.mu2 - law.mu1) * params.r
    weight_rate = (law.variance + (law.mu1 - 1.0) ** 2) * params.r
    expected = (law.mu2 - 2.0 * law.mu1 + 1.0) * params.r
    assert math.isclose(weight_rate, expected, rel_tol=1e-12, abs_tol=1e-12)
    return split_rate, weight_rate


def _sample_pairs_vectorized(
    x: float, t: float, params: ModelParams, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """n two-spine draws: a common killed path from x splits at an exponential
    time (rate (mu2-mu1) r, capped at t) into two independent killed paths to t.
    Returns (split_times, common_ends, end1, end2, weights >= 1); ends are 0
    when absorbed."""
    split_rate, weight_rate = _pair_exponent(params)
    if split_rate > 0:
        E = rng.exponential(scale=1.0 / split_rate, size=n)
    else:
        E = np.full(n, np.inf)
    tau = np.minimum(E, t)
    weights = np.exp(weight_rate * tau)

    common = np.zeros(n)
    end1 = np.zeros(n)
    end2 = np.zeros(n)
    survived, ypos = sample_killed_steps_batch(np.full(n, float(x)), tau, params, rng)
    common[survived] = ypos[survived]

    cont = survived & (E < t)  # split strictly before the horizon
    idx = np.flatnonzero(cont)
    if idx.size:
        dt = t - tau[idx]
        s1, p1 = sample_killed_steps_batch(ypos[idx], dt, params, rng)
        s2, p2 = sample_killed_steps_batch(ypos[idx], dt, params, rng)
        end1[idx[s1]] = p1[s1]
        end2[idx[s2]] = p2[s2]
    whole = survived & ~(E < t)  # never split: both spines coincide
    end1[whole] = ypos[whole]
    end2[whole] = ypos[whole]
    return tau, common, end1, end2, weights


def spine_second_moment_mc(
    x: float,
    t: float,
    f1_set: IntervalSet,
    f2_set: IntervalSet,
    params: ModelParams,
    n: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Monte Carlo estimate of E[N_t(f1) N_t(f2)] via the two-spine change
    of measure: mean of weight * 1{end1 in f1} * 1{end2 in f2}, scaled by
    e^{2 r (mu1 - 1) t}.  Returns (estimate, stderr)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (0 < x < math.inf and 0 < t < math.inf):
        raise ValueError("spine_second_moment_mc requires x>0 and t>0")
    scale = math.exp(2.0 * params.r * (params.offspring.mu1 - 1.0) * t)
    _, _, end1, end2, w = _sample_pairs_vectorized(x, t, params, int(n), rng)
    # end == 0 encodes absorption and is excluded by lo >= 0 half-open sets
    vals = w * (f1_set.indicator(end1) & (end1 > 0)) * (f2_set.indicator(end2) & (end2 > 0))
    vals = vals * scale
    est = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(n)) if n > 1 else math.inf
    return est, se


def mean_one_check(x: float, t: float, params: ModelParams) -> float:
    """e^{lambda t} Integral p_t(x,y) h(y) dy / h(x).

    Equals 1 for every (x, t) by the eigenrelation of the killed semigroup
    acting on h; deviations beyond ~1e-8 indicate a kernel defect.  The
    integral is quad at relative tolerance 1e-10 over u, y = (x - c t) +
    sqrt(t) u, within _TAIL_SIGMAS of the bump's centre.
    """
    if not (0 < x < math.inf and 0 < t < math.inf):
        raise ValueError("mean_one_check requires x>0 and t>0")
    # In u, y = (x - c t) + sqrt(t) u, p_t(x,y) h(y) dy is a unit-width bump
    # centred near u = c sqrt(t), because e^{c y} shifts the Gaussian there.
    rt, m = math.sqrt(t), x - params.c * t
    peak = params.c * rt

    def f(u: np.ndarray) -> np.ndarray:
        y = m + rt * u
        return rt * killed_density(x, y, t, params) * ground_state_h(y, params)

    val = quad(f, max(-m / rt, peak - _TAIL_SIGMAS), peak + _TAIL_SIGMAS, breaks=(peak,))
    return math.exp(params.lambda_ * t) * val / float(ground_state_h(x, params))


# -- Kesten's extinction probability -----------------------------------------


class _KestenWave(NamedTuple):
    """The q ODE solved on nodes spaced h apart in x, ascending; node 0 is the
    last one at or below x = 0 (q >= 1).  s = log(q - q_inf) and w = ds/dx at
    each node.

    upper_x and upper_log_q bound q from above: q(x) <= exp(upper_log_q[k])
    for the last k with upper_x[k] <= x, searchsorted(upper_x, x, "right") -
    1.  Each node is moved up by the bound on its position error, and its s
    by the bound on the error of s, so the value holds at the true node,
    which lies at or below x, and q decreases in x.  Past the last node the
    last value holds; upper_x[0] = -inf stands for every x (log q <= 0).
    """

    q_inf: float
    kappa: float
    h: float
    x: np.ndarray
    s: np.ndarray
    w: np.ndarray
    upper_x: np.ndarray
    upper_log_q: np.ndarray


def _smallest_fixed_point(pmf: np.ndarray) -> float:
    """Smallest root in [0, 1] of f(q) = q, f(q) = sum_k pmf[k] q^k, for a mean
    above 1.  f(q) - q is convex and decreasing up to that root, so Newton's
    method from 0 climbs to it monotonically."""
    if pmf[0] == 0.0:
        return 0.0
    f = np.polynomial.Polynomial(pmf)
    df = f.deriv()
    q = 0.0
    for _ in range(200):
        step = (f(q) - q) / (1.0 - df(q))
        if not step > 0.0:
            break
        q += step
    return float(q)


def _wave_rk4(c: float, low: list[float], high: list[float], s0: float, w0: float,
              s_end: float, h: float):
    """RK4 path of (s, w) from (s0, w0) in steps h of y = -x toward q = 1.

    ds/dy = -w and dw/dy = w (w - 2c) + 2 r (f(q) - q) / u, u = e^s.  The
    last term is a polynomial in u (coefficients low, highest first) for
    u below half its range, else v / u times one in v = 1 - q (high), so it
    keeps its relative accuracy at both ends, where f(q) - q vanishes.

    Returns s and w at the nodes, the y where q = 1 and whether that y is
    bounded by step doubling.  If a step crosses q = 1, y is the root of the
    cubic Hermite interpolant of s on that step.  If the path first comes
    within _Q_LINEAR of q = 1 (near criticality, where q'(0) can be below
    1e-20), the rest follows the ODE linearized at q = 1, v'' = 2c v' -
    (c^2 + beta^2) v, whose solution through v(0) = 0 is e^{cx} sin(beta x):
    the distance left is arccot((v'/v - c) / beta) / beta.
    """
    span = math.exp(s_end)

    def rates(s: float, w: float) -> tuple[float, float]:
        u, g = math.exp(s), 0.0
        if u < 0.5 * span:
            for coef in low:
                g = g * u + coef
        else:
            v = -span * math.expm1(s - s_end)
            for coef in high:
                g = g * v + coef
            g *= v / u
        return -w, w * (w - 2.0 * c) + g

    s, w = s0, w0
    S, W = [s], [w]
    while (v := -span * math.expm1(s - s_end)) > _Q_LINEAR * span:
        if len(S) > _Q_MAX_STEPS:
            raise RuntimeError("extinction-probability ODE did not reach q = 1")
        ds1, dw1 = rates(s, w)
        ds2, dw2 = rates(s + 0.5 * h * ds1, w + 0.5 * h * dw1)
        ds3, dw3 = rates(s + 0.5 * h * ds2, w + 0.5 * h * dw2)
        ds4, dw4 = rates(s + h * ds3, w + h * dw3)
        s += h / 6.0 * (ds1 + 2.0 * ds2 + 2.0 * ds3 + ds4)
        w += h / 6.0 * (dw1 + 2.0 * dw2 + 2.0 * dw3 + dw4)
        S.append(s)
        W.append(w)
    if v > 0.0:
        beta = math.sqrt(-high[-1] - c * c)  # high[-1] = 2 r (1 - mu1)
        left = math.atan2(beta, -w * math.exp(s) / v - c) / beta
        return np.array(S), np.array(W), (len(S) - 1) * h + left, False
    a, b, da, db = S[-2], S[-1], -W[-2] * h, -W[-1] * h
    lo, hi = 0.0, 1.0
    for _ in range(60):  # s rises on the step (ds/dy = -w > 0): bisect
        t = 0.5 * (lo + hi)
        if a + t * (da + t * (3.0 * (b - a) - 2.0 * da - db + t * (2.0 * (a - b) + da + db))) < s_end:
            lo = t
        else:
            hi = t
    return np.array(S), np.array(W), (len(S) - 2 + lo) * h, True


@functools.cache
def _kesten_wave(params: ModelParams) -> _KestenWave | None:
    """Solve for q once per model; None for sub/critical models, where q = 1.

    With p = q' as a function of q, 1/2 p dp/dq = c p - r (f(q) - q).  The
    solution leaves the saddle (q_inf, 0) on its stable manifold p ~ kappa
    (q - q_inf), kappa = c - sqrt(c^2 + 2 r (1 - f'(q_inf))), and x(q) is
    Integral_q^1 dq / |p|.  In s = log(q - q_inf) and w = p / (q - q_inf) =
    ds/dx this path is integrated with x itself as the variable, that is in
    steps of x(q) = Integral ds / |w|, from q - q_inf = _Q_START (1 - q_inf)
    with w = kappa (off the manifold by O(_Q_START)) until q = 1, which fixes
    x = 0.  Equal steps in s would be too coarse near q = 1, where |p| can be
    small and 1 / |p| peaks.  The step is _Q_STEP over the fastest linear
    rate at the saddle, c + sqrt(...).  Rerunning at twice the step bounds
    the error (about 15 times the error of the finer run, for RK4); the
    bounds add the rounding of the running sum s, one unit in the last place
    per step.  A path that ends on the linearized tail (see _wave_rk4) has
    no bound on its node positions, so its upper bound is q <= 1.
    """
    if classify_regime(params) in (Regime.SUBCRITICAL, Regime.CRITICAL):
        return None
    c, r = params.c, params.r
    pmf = np.zeros(int(params.offspring.support.max()) + 1)
    for k, p in params.offspring.pmf:
        pmf[k] = p
    q_inf = _smallest_fixed_point(pmf)
    # f(q_inf + u) = sum_j b_j u^j with b_0 = q_inf, so (f(q) - q) / u is
    # b_1 - 1 + b_2 u + ..., free of cancellation as u -> 0.
    # Likewise f(1 - v) - (1 - v) = v (1 - mu1 + e_2 v + ...).
    f = np.polynomial.Polynomial(pmf)
    low = f(np.polynomial.Polynomial([q_inf, 1.0])).coef[1:]
    low[0] -= 1.0
    high = f(np.polynomial.Polynomial([1.0, -1.0])).coef[1:]
    high[0] += 1.0
    root = math.sqrt(c * c - 2.0 * r * low[0])
    kappa = c - root
    h = _Q_STEP / (c + root)
    s0 = math.log(_Q_START) + math.log1p(-q_inf)
    args = (c, (2.0 * r * low[::-1]).tolist(), (2.0 * r * high[::-1]).tolist(), s0, kappa,
            math.log1p(-q_inf))
    s, w, y_end, crossed = _wave_rk4(*args, h)
    s_coarse, _, y_coarse, crossed_coarse = _wave_rk4(*args, 2.0 * h)
    m = min(s_coarse.size, (s.size + 1) // 2)
    # Rounding s by one ulp delays the path by ulp / |w| in y.
    ulps = np.spacing(np.abs(s))
    x_err = math.inf
    if crossed and crossed_coarse:
        x_err = abs(y_end - y_coarse) + float(np.sum(ulps / np.abs(w)))
    s_err = float(np.max(np.abs(s[:2 * m:2] - s_coarse[:m])) + np.sum(ulps))
    x = (y_end - h * np.arange(s.size))[::-1]
    s, w = s[::-1], w[::-1]
    upper_x, upper_log_q = x + x_err, np.minimum(np.log(q_inf + np.exp(s + s_err)), 0.0)
    upper_x[0], upper_log_q[0] = -np.inf, 0.0
    return _KestenWave(q_inf, kappa, h, x, s, w, upper_x, upper_log_q)


def extinction_probability(x, params: ModelParams):
    """Kesten's q(x): the probability that the population started from one
    particle at x >= 0 ever dies out (Kesten 1978, "Branching Brownian
    motion with absorption", SPA 7).

    q solves 1/2 q'' - c q' + r (f(q) - q) = 0 with q(0) = 1 and q(inf) =
    q_inf, the smallest fixed point in [0, 1] of the offspring generating
    function f (0 when p_0 = 0).  Sub/critical models die out surely: q = 1.
    Otherwise the solution of _kesten_wave (about 1e-9 relative error) is
    interpolated by cubic Hermite in x on log(q - q_inf), and beyond its last
    node extended as q_inf + C e^{kappa x}.  Given particles alive at x_i, the
    branching property makes prod_i q(x_i) the conditional probability of
    eventual extinction; run_replicate(certify_survival=True) stops on it.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.all(x >= 0):
        raise ValueError("extinction_probability requires x >= 0")
    wave = _kesten_wave(params)
    if wave is None:
        out = np.ones(x.shape)
    else:
        xin = np.minimum(x, wave.x[-1])
        j = np.clip(((xin - wave.x[0]) / wave.h).astype(np.int64), 0, wave.x.size - 2)
        t = np.clip((xin - wave.x[j]) / wave.h, 0.0, 1.0)
        a, b = wave.s[j], wave.s[j + 1]
        da, db = wave.w[j] * wave.h, wave.w[j + 1] * wave.h
        s = a + t * (da + t * (3.0 * (b - a) - 2.0 * da - db + t * (2.0 * (a - b) + da + db)))
        s = np.where(x > wave.x[-1], wave.s[-1] + wave.kappa * (x - wave.x[-1]), s)
        q = np.minimum(wave.q_inf + np.exp(s), 1.0)
        if wave.x[0] > 0:  # after a linearized tail: q > 1 - _Q_LINEAR, linear from q(0) = 1
            q = np.where(x < wave.x[0], 1.0 - (1.0 - q) * x / wave.x[0], q)
        out = np.where(x > 0, q, 1.0)
    return float(out) if out.ndim == 0 else out
