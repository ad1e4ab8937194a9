"""First- and second-moment oracles for the branching dynamics.

Everything here is engine-free ground truth: closed forms and adaptive
Gauss-Legendre quadrature against the exact killed transition density, plus
an independent two-spine Monte Carlo estimator of second moments.  The engine is validated against these;
they are validated against each other and against closed forms.

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
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtr

from .kernel import killed_density, sample_killed_steps_batch, survival_probability
from .model import IntervalSet, ModelParams, ground_state_h, nu_measure

__all__ = [
    "SpinePair",
    "expected_count",
    "expected_count_asymptotic",
    "second_moment_exact",
    "sample_spine_pair",
    "spine_second_moment_mc",
    "mean_one_check",
    "truncated_second_moment_bound",
    "TRUNC_BOUND_C",
    "TRUNC_BOUND_DELTA",
]

# Configuration constants for the truncated-second-moment envelope.
# C is calibrated once against engine brute force (see the regression data
# shipped with the experiments module); delta fixes the admissible window
# growth M <= delta * s^{1/4}.
TRUNC_BOUND_C = 16.0
TRUNC_BOUND_DELTA = 1.0

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


def _killed_mass(x: float, lo: float, hi: float, t: float, params: ModelParams) -> float:
    """P_x(X_t in (lo, hi), not absorbed) for 0 <= lo < hi <= inf, in closed Phi form.

    Both Gaussian differences go through complementary tails, Phi(b) - Phi(a)
    = Phi(-a) - Phi(-b), so an upper tail far out keeps its relative accuracy.
    """
    c, rt = params.c, math.sqrt(t)
    a = (np.array([lo, hi]) - x + c * t) / rt
    b = (np.array([lo, hi]) + x + c * t) / rt
    free = ndtr(-a[0]) - ndtr(-a[1])
    image = np.exp(2.0 * c * x + log_ndtr(-b))
    return max(float(free - (image[0] - image[1])), 0.0)


def expected_count(x: float, t: float, B: IntervalSet, params: ModelParams) -> float:
    """E|N_t(B)| by the first-moment identity, in closed form (rel. tol 1e-8).

    Each interval's killed mass is a difference of Phi terms (_killed_mass),
    with no quadrature; B=(0,inf) is the survival probability.
    """
    if not (x > 0 and t > 0):
        raise ValueError("expected_count requires x>0 and t>0")
    growth = math.exp(params.r * (params.offspring.mu1 - 1.0) * t)
    if B.intervals == ((0.0, math.inf),):
        return growth * float(survival_probability(x, t, params))
    return growth * sum(_killed_mass(x, lo, hi, t, params) for lo, hi in B.intervals)


def expected_count_asymptotic(x: float, t: float, B: IntervalSet, params: ModelParams) -> float:
    """Late-time first-moment approximation e^{gt} t^{-3/2} h(x) nu(B)."""
    if not (x > 0 and t > 0):
        raise ValueError("expected_count_asymptotic requires x>0 and t>0")
    g = params.growth_exponent
    return math.exp(g * t) * t ** -1.5 * float(ground_state_h(x, params)) * nu_measure(B, params)


def second_moment_exact(x: float, t: float, params: ModelParams) -> float:
    """E|N_t|^2 by the exact two-term decomposition.

    The outer z integral is quad at relative tolerance 1e-10, and each of
    its levels evaluates the inner integral at all of its nodes at once.
    The inner y integral is taken in u, y = (x - c z) + sqrt(z) u, where the
    killed density is a unit-width bulk at every z, by composite
    Gauss-Legendre split where S(y, t-z)^2 rises (y = k sqrt(t-z), k = 1, 4,
    16); rules on K and 2K panels differ by the achieved error, held to 1e-8
    relative.  A missed tolerance is a RuntimeWarning rather than a failure.
    """
    if not (x > 0 and t > 0):
        raise ValueError("second_moment_exact requires x>0 and t>0")
    mu1, mu2 = params.offspring.mu1, params.offspring.mu2
    r = params.r
    growth = r * (mu1 - 1.0)
    term1 = math.exp(growth * t) * float(survival_probability(x, t, params))
    if mu2 == mu1:  # offspring count a.s. <= 1: no pairs ever coexist
        return term1

    def inner(z: np.ndarray) -> np.ndarray:
        # y = (x - c z) + sqrt(z) u turns p_z(x,y) dy into phi(u) (1 - e^{-2xy/z}) du.
        tail, rz, m = np.maximum(t - z, 0.0), np.sqrt(z), x - params.c * z
        lo = np.clip(-m / rz, -_TAIL_SIGMAS, _TAIL_SIGMAS)
        rises = np.clip((np.sqrt(tail)[:, None] * [1.0, 4.0, 16.0] - m[:, None]) / rz[:, None],
                        lo[:, None], _TAIL_SIGMAS)
        zc, tc, mc, rc = (v[:, None, None] for v in (z, tail, m, rz))

        def f(u: np.ndarray) -> np.ndarray:
            y = np.maximum(mc + rc * u, 0.0)
            s = survival_probability(y, tc, params)
            return np.exp(-0.5 * u * u) * -np.expm1(-2.0 * x * y / zc) * s * s / math.sqrt(2.0 * math.pi)

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

    def integrand(z: np.ndarray) -> np.ndarray:
        return np.exp(-growth * z) * inner(z.ravel()).reshape(z.shape)

    outer = quad(integrand, 0.0, t)
    term2 = (mu2 - mu1) * r * math.exp(2.0 * growth * t) * outer
    return term1 + term2


@dataclass(frozen=True)
class SpinePair:
    """One two-spine draw: a common killed path that splits at an
    exponential time (rate (mu2-mu1) r) and continues as two independent
    killed paths to the horizon."""

    split_time: float
    common_path_end: float
    end1: float
    end2: float
    weight: float

    def __post_init__(self) -> None:
        if not self.split_time > 0:
            raise ValueError("split_time must be positive")
        if self.weight < 1.0 - 1e-12:
            raise ValueError("two-spine weight is >= 1 by construction")
        if self.common_path_end == 0.0 and (self.end1 != 0.0 or self.end2 != 0.0):
            raise ValueError("absorbed common path cannot have surviving ends")


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
    """(split_times, common_ends, end1, end2, weights); ends are 0 when absorbed."""
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


def sample_spine_pair(x: float, t: float, params: ModelParams, rng: np.random.Generator) -> SpinePair:
    """Draw a single SpinePair started at x with horizon t."""
    if not (x > 0 and t > 0):
        raise ValueError("sample_spine_pair requires x>0 and t>0")
    tau, common, e1, e2, w = _sample_pairs_vectorized(x, t, params, 1, rng)
    return SpinePair(float(tau[0]), float(common[0]), float(e1[0]), float(e2[0]), float(w[0]))


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
    if not (x > 0 and t > 0):
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
    if not (x > 0 and t > 0):
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


def truncated_second_moment_bound(
    x: float,
    t: float,
    s: float,
    M: float,
    params: ModelParams,
    C: float | None = None,
    delta: float | None = None,
) -> float:
    """Envelope C h(x) e^{g s/2} (t^{-3/2} e^{g t})^2 for the second moment
    of the (M, s)-window-truncated count.

    Admissible inputs: M >= 1 and M <= delta * s^{1/4}.  s = 0 is accepted
    as a special case (the window is then checked from its tightest start);
    for s > 0 the constraint couples window size to shift as in the
    envelope's derivation.
    """
    C = TRUNC_BOUND_C if C is None else float(C)
    delta = TRUNC_BOUND_DELTA if delta is None else float(delta)
    if not (x > 0 and t > 0 and s >= 0):
        raise ValueError("truncated_second_moment_bound requires x>0, t>0, s>=0")
    if M < 1.0:
        raise ValueError("window size M must be >= 1")
    if s > 0 and M > delta * s**0.25 * (1.0 + 1e-12):
        raise ValueError(f"M={M:g} exceeds delta*s^(1/4)={delta * s**0.25:g}")
    g = params.growth_exponent
    return C * float(ground_state_h(x, params)) * math.exp(g * s / 2.0) * (t**-1.5 * math.exp(g * t)) ** 2
