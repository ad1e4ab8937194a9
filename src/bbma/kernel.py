"""Exact distributional primitives for Brownian motion with drift -c killed at 0.

The single-particle motion is X_t = x - c t + W_t absorbed on first hitting 0.
Everything here is in closed form or exact-sampling form:

  survival        P_x(X_t > 0) = Phi((x-ct)/sqrt t) - e^{2cx} Phi(-(x+ct)/sqrt t)
  killed density  p_t(x,y) = phi_t(y-(x-ct)) - e^{2cx} phi_t(y+x+ct),  y > 0
  hitting law     H_0 ~ x/sqrt(2 pi s^3) exp(cx - lambda s - x^2/(2s)) ds,
                  an inverse Gaussian with mean x/c and shape x^2.

The killed-step sampler is exact for any step length: survival is decided by
the closed-form probability and the surviving position by rejection from the
free Gaussian proposal (the acceptance probability 1 - e^{-2xy/t} is the
probability that a Brownian bridge from x to y stays positive).  On arrays
of at least _SQUEEZE_MIN particles, survival is decided in blocks of _BLOCK
particles by a squeeze test: the image term e^{2cx} Phi(-w) = phi(z) R(w),
with R Mills' ratio, lies between Gordon's and Mills' bounds, so most
uniforms are compared with a bracket of the closed form and only the rest
with the closed form itself.  The array rejection rounds run in blocks of
_BLOCK particles too.  A call of at most _FEW particles, and the rejection
rounds once at most _FEW are pending, run on Python floats: the same draws
in the same order and the same float expressions, each ufunc called on one
float, where numpy and scipy return its array result bit for bit.
Unconditional hitting times are inverse-Gaussian draws via Generator.wald.
"""
from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.special import log_ndtr, ndtr

from .model import IntervalSet, ModelParams, ground_state_h

# Rejection sampling is abandoned (pathology) after this many proposals.
REJECTION_CAP = 10**6
# Killed steps, cohort phases and rejection rounds of at most this many
# particles run on Python floats: cheaper than one numpy dispatch per operation.
_FEW = 16
# Array killed steps run in blocks of this many particles, so that a block's
# temporaries stay in cache.
_BLOCK = 8192
# Array calls of fewer particles decide survival from the closed form alone:
# below about this size the bracket's fixed cost per call exceeds its saving.
_SQUEEZE_MIN = 1024
# Survival formula: warn if the Gaussian-difference cancellation exceeds this.
CANCELLATION_REL_TOL = 1e-9
# The image-term bracket is widened by these margins (relative, absolute),
# far beyond the float error of either side where it is trusted: w^2 <= 1e5
# (the error of e^{2cx + log Phi(-w)} grows with w^2), or |z| >= 40 and
# w^2 <= 1e15, where phi(z), and the image term, underflow to 0.
_REL_MARGIN, _ABS_MARGIN = 1e-9, 1e-15
_W2_TRUSTED, _Z2_UNDERFLOW, _W2_UNDERFLOW = 1e5, 1600.0, 1e15
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_CLAMPED = "survival_probability: cancellation beyond relative 1e-9; clamping at 0"
_BAD_STEP = "sample_killed_steps_batch: step lengths must be >= 0 (and not nan)"

__all__ = [
    "survival_probability",
    "killed_density",
    "killed_cdf",
    "first_passage_density",
    "sample_hitting_time",
    "sample_killed_steps_batch",
    "asymptotic_error_bounds",
    "survival_prefactor_error",
]


def survival_probability(x, t, params: ModelParams):
    """P_x(X_t > 0), vectorized; the e^{2cx} Phi term is kept in log space.

    t = 0 returns 1 for x > 0 (continuity), so oracles may evaluate the
    degenerate endpoint of time integrals; x = +inf returns 1 at every t.
    """
    c = params.c
    x = np.asarray(x, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    rt = np.sqrt(t)
    zero_t = np.count_nonzero(t) < t.size
    if zero_t:
        rt = np.where(t == 0.0, 1.0, rt)  # keeps the division finite; replaced below
    ct = c * t
    first = ndtr((x - ct) / rt)
    with np.errstate(invalid="ignore"):  # x = +inf: inf - inf, patched below
        val = first - np.exp(2.0 * c * x + log_ndtr(-(x + ct) / rt))
    if zero_t:
        val = np.where(t == 0.0, x > 0, val)
    ok = val >= 0.0
    if np.count_nonzero(ok) < ok.size:  # negative, or nan where x = +inf
        val = np.where(np.isposinf(x), 1.0, val)
        neg = val < 0.0
        if np.any(neg & (-val > CANCELLATION_REL_TOL * first)):
            warnings.warn(_CLAMPED, RuntimeWarning, stacklevel=2)
        val = np.where(neg, 0.0, val)
    return float(val) if val.ndim == 0 else val


def killed_density(x, y, t, params: ModelParams):
    """Transition density p_t(x, y) of the killed motion; 0 for y <= 0."""
    c = params.c
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    x, y, t = np.broadcast_arrays(x, y, t)
    norm = np.sqrt(2.0 * math.pi * t)
    a = y - x + c * t
    b = y + x + c * t
    out = (np.exp(-a * a / (2.0 * t)) - np.exp(2.0 * c * x - b * b / (2.0 * t))) / norm
    out = np.where(y > 0, np.maximum(out, 0.0), 0.0)
    return float(out) if out.ndim == 0 else out


def _killed_mass(x, lo, hi, t, params: ModelParams) -> np.ndarray:
    """P_x(X_t in (lo, hi], not absorbed) for 0 <= lo < hi <= inf, in closed
    Phi form, vectorized over broadcast arguments.

    Each Gaussian difference is evaluated through the complementary tail
    identity Phi(b) - Phi(a) = Phi(-a) - Phi(-b), which keeps the terms
    accurate when both arguments are large and positive.
    """
    c = params.c
    x, lo, hi, t = np.broadcast_arrays(*(np.asarray(v, dtype=np.float64) for v in (x, lo, hi, t)))
    rt = np.sqrt(t)
    first = ndtr(-((lo - x + c * t) / rt)) - ndtr(-((hi - x + c * t) / rt))
    image_lo = np.exp(2.0 * c * x + log_ndtr(-((lo + x + c * t) / rt)))
    image_hi = np.exp(2.0 * c * x + log_ndtr(-((hi + x + c * t) / rt)))
    return np.clip(first - (image_lo - image_hi), 0.0, None)


def killed_cdf(x, y, t, params: ModelParams):
    """P_x(X_t in (0, y], not absorbed), in closed Phi form (_killed_mass)."""
    y = np.asarray(y, dtype=np.float64)
    out = np.where(y > 0, _killed_mass(x, 0.0, y, t, params), 0.0)
    return float(out) if out.ndim == 0 else out


def first_passage_density(x, s, params: ModelParams):
    """Density of the hitting time H_0 at s > 0, started from x > 0."""
    c, lam = params.c, params.lambda_
    x = np.asarray(x, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    x, s = np.broadcast_arrays(x, s)
    out = x / np.sqrt(2.0 * math.pi * s**3) * np.exp(c * x - lam * s - x * x / (2.0 * s))
    return float(out) if out.ndim == 0 else out


def sample_killed_steps_batch(x, t, params: ModelParams, rng: np.random.Generator):
    """Vectorized exact killed steps for a cohort of particles.

    x and t are arrays (or sequences) of start positions and step lengths.
    Returns (survived, position) arrays; position is nan where the particle
    was absorbed.  One uniform decides survival against the closed-form
    probability, u < survival_probability(x, t): on arrays of at least
    _SQUEEZE_MIN particles, _survives takes that decision from a bracket of
    the closed form wherever the bracket settles it.  Surviving positions come from the Gaussian-proposal
    rejection loop, whose array rounds run in blocks of _BLOCK particles.
    A call of at most _FEW particles runs on Python floats throughout, with
    the draws and float expressions of the array path.  A negative or nan
    step length raises ValueError.
    """
    n, c, iters = len(x), params.c, 0
    if n <= _FEW:
        # survival_probability's float expressions on Python floats, each
        # ufunc called on one float (bit for bit its array result)
        survived, position, rest, clamped = [], [math.nan] * n, [], False
        for i, (xi, ti, u) in enumerate(zip(_tolist(x), _tolist(t), _draws(rng.random, n))):
            sp = float(xi > 0)
            if ti > 0.0:
                rt, ct = math.sqrt(ti), c * ti
                first = float(ndtr((xi - ct) / rt))
                sp = first - float(np.exp(2.0 * c * xi + float(log_ndtr(-(xi + ct) / rt))))
                if not sp >= 0.0:  # negative, or nan where x = +inf (max keeps any other nan)
                    clamped = clamped or -sp > CANCELLATION_REL_TOL * first
                    sp = 1.0 if xi == math.inf else max(sp, 0.0)
            elif ti != 0.0:  # negative or nan
                raise ValueError(_BAD_STEP)
            survived.append(u < sp)
            if u < sp:  # the proposal's mean and scale, and -2x and t of 1 - e^{-2xy/t}
                rest.append((i, xi - c * ti, math.sqrt(ti), -2.0 * xi, ti))
        if clamped:
            warnings.warn(_CLAMPED, RuntimeWarning)
        n_survived = len(rest)
    else:
        x = np.asarray(x, dtype=np.float64)
        t = np.asarray(t, dtype=np.float64)
        if not t.min(initial=math.inf) >= 0.0:  # nan fails too
            raise ValueError(_BAD_STEP)
        u = rng.random(n)
        if n >= _SQUEEZE_MIN:
            survived = _survives(x, t, u, params)
        else:
            survived = u < survival_probability(x, t, params)
        position = np.full(n, np.nan)
        pending = survived.nonzero()[0]
        n_survived = pending.size
        xs, ts = x[pending], t[pending]
        with np.errstate(divide="ignore"):  # t = 0: e^{-2xy/0} = 0, as on floats
            while pending.size > _FEW:
                iters += 1
                if iters > REJECTION_CAP:
                    raise RuntimeError("killed-step rejection sampler exceeded its proposal cap")
                y = rng.standard_normal(pending.size)
                accept = _propose(xs, ts, y, rng.random(pending.size), c)
                position[pending] = y  # a rejected row is rewritten once accepted
                rejected = (~accept).nonzero()[0]
                pending, xs, ts = pending[rejected], xs[rejected], ts[rejected]
        rest = [(i, xi - c * ti, math.sqrt(ti), -2.0 * xi, ti)
                for i, xi, ti in zip(pending.tolist(), xs.tolist(), ts.tolist())]

    # The last few pending particles: the same draws and float expressions
    # on Python floats, without a numpy dispatch per operation and round.
    # np.expm1, not math.expm1, whose last bit can differ from the array's.
    while rest:
        iters += 1
        if iters > REJECTION_CAP:
            raise RuntimeError("killed-step rejection sampler exceeded its proposal cap")
        z, u = _draws(rng.standard_normal, len(rest)), _draws(rng.random, len(rest))
        left = []
        for row, zj, uj in zip(rest, z, u):
            i, mean_i, scale_i, m2x_i, t_i = row
            y = mean_i + scale_i * zj
            # t = 0 is a step of length 0: e^{-2xy/t} = 0, as on arrays
            if y > 0 and uj < -np.expm1(m2x_i * y / t_i if t_i else -math.inf):
                position[i] = y
            else:
                left.append(row)
        rest = left

    if n_survived < n:
        # One discarded uniform per absorbed particle, drawn after the
        # rejection loop: it keeps every run_replicate stream bit-identical
        # (tests/test_engine.py pins them).  One is a call with size None.
        rng.random(n - n_survived if n - n_survived > 1 else None)
    return np.asarray(survived, dtype=bool), np.asarray(position)


def _image_bracket(x, t, c: float):
    """first = Phi((x-ct)/sqrt t) and bounds lo <= e^{2cx} Phi(-(x+ct)/sqrt t)
    <= hi, on arrays, with first bit for bit survival_probability's.

    With z = (x-ct)/sqrt t and w = (x+ct)/sqrt t the image term is
    phi(z) R(w), R(w) = Phi(-w)/phi(w) Mills' ratio, and for w > 0 Gordon's
    w/(1+w^2) <= R(w) <= 1/w (Ann. Math. Statist. 12, 1941).  The margins
    make the bracket hold the value survival_probability computes, not only
    the exact one.  Where no bound is trusted (x <= 0, t = 0, a nan or inf,
    or w^2 too large) lo = 0 and hi = inf, which decide nothing.
    """
    rt = np.sqrt(t)
    ct = c * t
    z = (x - ct) / rt
    first = ndtr(z)
    w = (x + ct) / rt
    z2, w2 = z * z, w * w
    phi = np.exp(-0.5 * z2) * _INV_SQRT_2PI
    lo = phi * w / (1.0 + w2) * (1.0 - _REL_MARGIN) - _ABS_MARGIN
    hi = phi / w * (1.0 + _REL_MARGIN) + _ABS_MARGIN
    trusted = (x > 0) & ((w2 <= _W2_TRUSTED) | ((z2 >= _Z2_UNDERFLOW) & (w2 <= _W2_UNDERFLOW)))
    return first, np.where(trusted, lo, 0.0), np.where(trusted, hi, math.inf)


def _survives(x, t, u, params: ModelParams) -> np.ndarray:
    """u < survival_probability(x, t, params) elementwise, decided in blocks
    of _BLOCK particles by a squeeze test (Marsaglia, Comput. Math. Appl.
    1977) on _image_bracket.  The float difference first - image only
    grows as the image term falls, so u < first - hi means survival, and
    u >= first - lo with lo > 0 absorption (lo > 0 also keeps out every
    value survival_probability would clamp, and warn about).  The particles
    the bracket leaves open take one survival_probability call, so its
    clamp warning is still raised at most once per call.
    """
    n, c = x.size, params.c
    survived = np.empty(n, dtype=bool)
    undecided = np.empty(n, dtype=bool)
    with np.errstate(all="ignore"):  # t = 0, inf and nan are left undecided
        for start in range(0, n, _BLOCK):
            b = slice(start, start + _BLOCK)
            first, lo, hi = _image_bracket(x[b], t[b], c)
            lives = u[b] < first - hi
            dies = (lo > 0.0) & (u[b] >= first - lo)
            survived[b] = lives
            undecided[b] = ~(lives | dies)
    rows = undecided.nonzero()[0]
    if rows.size:
        survived[rows] = u[rows] < survival_probability(x[rows], t[rows], params)
    return survived


def _propose(xs, ts, y, u, c: float) -> np.ndarray:
    """One array rejection round, in blocks of _BLOCK particles: y holds the
    standard normals and becomes the proposals (x - ct) + sqrt(t) z, accepted
    or not; returns the accept mask.  Each float expression is the one the
    round always used, so the bits are unchanged."""
    accept = np.empty(y.size, dtype=bool)
    for start in range(0, y.size, _BLOCK):
        b = slice(start, start + _BLOCK)
        xb, tb, yb, ok = xs[b], ts[b], y[b], accept[b]
        yb *= np.sqrt(tb)
        yb += xb - c * tb
        np.less(u[b], -np.expm1(-2.0 * xb * yb / tb), out=ok)
        ok &= yb > 0
    return accept


def _draws(method, k: int, *args) -> list:
    """k draws of the Generator method (args before its size) as Python
    floats.  One draw is a call with size None: the value of a one-element
    array draw at about a third of the cost."""
    return [method(*args, None)] if k == 1 else method(*args, k).tolist()


def _tolist(v) -> list:
    """An array's entries as Python scalars; any other sequence as it is."""
    return v.tolist() if isinstance(v, np.ndarray) else v


def sample_hitting_time(x, params: ModelParams, rng: np.random.Generator, size: int | None = None):
    """Exact draw of the absorption time from x > 0.

    The hitting time is inverse Gaussian with mean x/c and shape x^2;
    Generator.wald draws it by the transformation-with-rejection method of
    Michael, Schucany & Haas (1976).  Returns a float when size is None.
    """
    x = float(x)
    if not x > 0:
        raise ValueError("sample_hitting_time requires x > 0")
    return rng.wald(x / params.c, x * x, size)


def survival_prefactor_error(x, t, params: ModelParams):
    """Measured eps(x,t) = P_x(X_t>0) t^{3/2} e^{lambda t} / h(x) - 1."""
    sp = survival_probability(x, t, params)
    t = np.asarray(t, dtype=np.float64)
    out = sp * t**1.5 * np.exp(params.lambda_ * t) / ground_state_h(x, params) - 1.0
    return float(out) if np.ndim(out) == 0 else out


def asymptotic_error_bounds(
    x: float,
    t: float,
    B: IntervalSet,
    params: ModelParams,
    C_B: float = 1.0,
    lambda_scaled: bool = False,
) -> tuple[float, float, float]:
    """Envelope for the survival-prefactor error and the set-error bound.

    Returns (eps_lower, eps_upper, epsB_bound) with
        1 + eps in [e^{-x^2/2t} (1 - 3/(2t)), 1]       (default)
        |eps_B| <= min(C_B (x+1)^2 / t, 2).

    The default correction coefficient 3/2 is kept for contract parity, but
    it is NOT a valid lower bound when lambda < 1: integration by parts on
    Gamma_t = int_t^inf s^{-3/2} e^{-lambda s} ds gives the provable factor
    (1 - 3/(2 lambda t)), available with lambda_scaled=True.  Requesting the
    default coefficient with lambda < 1 raises a RuntimeWarning.  The bound
    is uniform over B; the argument is kept for signature symmetry.
    """
    if not (x > 0 and t > 1.5):
        raise ValueError("asymptotic_error_bounds requires x > 0 and t > 3/2")
    if not lambda_scaled and params.lambda_ < 1.0:
        warnings.warn(
            f"unscaled prefactor envelope 1 - 3/(2t) is not a valid lower bound "
            f"at lambda = {params.lambda_:g} < 1; pass lambda_scaled=True for "
            f"the provable 1 - 3/(2 lambda t)",
            RuntimeWarning,
            stacklevel=2,
        )
    coeff = 1.5 / params.lambda_ if lambda_scaled else 1.5
    eps_lower = math.exp(-x * x / (2.0 * t)) * (1.0 - coeff / t) - 1.0
    eps_upper = 0.0
    epsB_bound = min(C_B * (x + 1.0) ** 2 / t, 2.0)
    return eps_lower, eps_upper, epsB_bound
