import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import quad
from scipy.special import log_ndtr, ndtr

from bbma import kernel
from bbma.kernel import (
    asymptotic_error_bounds,
    first_passage_density,
    killed_cdf,
    killed_density,
    sample_hitting_time,
    sample_killed_steps_batch,
    survival_prefactor_error,
    survival_probability,
)
from bbma.model import IntervalSet, ModelParams, OffspringLaw, ground_state_h

# P_1(X_1 > 0) at c=1: reflection formula, cross-checked below by quadrature
# of the first-passage density and held to 1e-8 in test_survival_vs_quadrature.
SP_1_1 = 0.33189799877682939

QUAD_REL_TOL = 1e-8
CHAPMAN_TOL = 1e-6


def params(c=1.0, r=1.0):
    return ModelParams(c=c, r=r, offspring=OffspringLaw.dyadic())


# -- survival probability ----------------------------------------------------


def test_survival_frozen_value():
    assert survival_probability(1.0, 1.0, params()) == pytest.approx(SP_1_1, rel=1e-14)


def test_survival_continuity_at_zero_time():
    p = params()
    assert survival_probability(1.0, 1e-12, p) == pytest.approx(1.0, abs=1e-12)
    assert survival_probability(1.0, 0.0, p) == 1.0


@pytest.mark.parametrize("x", [0.3, 1.0, 2.0])
@pytest.mark.parametrize("t", [0.5, 1.0, 4.0])
def test_survival_vs_quadrature(x, t):
    """Reflection formula == integral of the first-passage density over (t, inf)."""
    p = params()
    tail, _ = quad(lambda s: first_passage_density(x, s, p), t, math.inf, limit=400)
    assert survival_probability(x, t, p) == pytest.approx(tail, rel=QUAD_REL_TOL)


def test_survival_monotone_and_bounded():
    p = params()
    ts = np.linspace(0.05, 30, 80)
    sp = survival_probability(1.0, ts, p)
    assert np.all(np.diff(sp) < 0)          # decreasing in t
    assert np.all((sp > 0) & (sp < 1))
    xs = np.linspace(0.05, 10, 80)
    spx = survival_probability(xs, 2.0, p)
    assert np.all(np.diff(spx) > 0)         # nondecreasing in x


def test_survival_dominated_by_ground_state():
    # P_x(X_t>0) <= h(x) t^{-3/2} e^{-lam t} everywhere.
    p = params()
    for x in (0.5, 1.0, 2.0, 5.0):
        for t in (0.5, 1.0, 2.0, 5.0, 10.0, 50.0):
            bound = ground_state_h(x, p) * t**-1.5 * math.exp(-p.lambda_ * t)
            assert survival_probability(x, t, p) <= bound * (1 + 1e-12), (x, t)


def test_survival_no_negative_at_extreme_t():
    p = params()
    sp = survival_probability(1.0, np.array([1e3, 1e5, 1e7]), p)
    assert np.all(sp >= 0.0)


@given(st.floats(0.05, 8.0), st.floats(0.05, 8.0), st.floats(0.05, 20.0))
@settings(max_examples=100, deadline=None)
def test_survival_monotone_in_x_property(x1, x2, t):
    p = params()
    lo, hi = sorted((x1, x2))
    assert survival_probability(lo, t, p) <= survival_probability(hi, t, p) + 1e-15


def _survival_reference(x, t, params):
    """survival_probability as first written, over boolean masks of the
    broadcast inputs; kept to pin the one-pass version bit for bit."""
    c = params.c
    x = np.asarray(x, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    x, t = np.broadcast_arrays(x, t)
    out = np.empty(x.shape, dtype=np.float64)
    zero_t = t == 0.0
    if np.any(zero_t):
        out[zero_t] = (x[zero_t] > 0).astype(np.float64)
    pos = ~zero_t
    if np.any(pos):
        xp, tp = x[pos], t[pos]
        rt = np.sqrt(tp)
        first = ndtr((xp - c * tp) / rt)
        second = np.exp(2.0 * c * xp + log_ndtr(-(xp + c * tp) / rt))
        val = first - second
        neg = val < 0.0
        if np.any(neg & (-val > 1e-9 * first)):
            warnings.warn(
                "survival_probability: cancellation beyond relative 1e-9; clamping at 0",
                RuntimeWarning,
                stacklevel=2,
            )
        out[pos] = np.where(neg, 0.0, val)
    return float(out) if out.ndim == 0 else out


SURVIVAL_X = np.geomspace(1e-3, 20.0, 37)
SURVIVAL_T = np.array([0.0, 1e-6, 1e-4, 1e-2, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0])


@pytest.mark.parametrize("c", [0.3, 1.0, 3.0])
def test_survival_equals_reference_formula(c):
    """Same values (==) and return types as the reference, for broadcast
    grids, scalars, 0-d and one-element arrays, t = 0 included."""
    p = params(c=c)
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # no clamp and no division warning on this grid
        for x, t in ((SURVIVAL_X[:, None], SURVIVAL_T), (SURVIVAL_X, 1.0), (0.5, SURVIVAL_T),
                     (np.repeat(SURVIVAL_X, SURVIVAL_T.size), np.tile(SURVIVAL_T, SURVIVAL_X.size))):
            got, want = survival_probability(x, t, p), _survival_reference(x, t, p)
            assert type(got) is np.ndarray and got.shape == want.shape
            assert np.array_equal(got, want)
        for x in SURVIVAL_X[::4]:
            for t in SURVIVAL_T:
                for args in ((x, t), (np.array(x), np.array(t)), (np.array([x]), np.array([t])),
                             (np.array([x]), t), (x, np.array([t, t]))):
                    got, want = survival_probability(*args, p), _survival_reference(*args, p)
                    assert type(got) is type(want)
                    assert np.array_equal(got, want), (args, got, want)


def test_survival_clamp_warning_still_fires():
    """x < 0 lies outside the domain: the formula goes negative, warns and
    clamps at 0, as the reference does; a t = 0 entry never warns."""
    p = params()
    for x, t in ((-0.5, 1.0), (np.array([-0.5, 1.0]), np.array([1.0, 0.0]))):
        with pytest.warns(RuntimeWarning, match="cancellation beyond relative 1e-9"):
            got = survival_probability(x, t, p)
        with pytest.warns(RuntimeWarning, match="cancellation beyond relative 1e-9"):
            want = _survival_reference(x, t, p)
        assert type(got) is type(want) and np.array_equal(got, want)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(survival_probability(np.array([-1.0, 0.0, 2.0]), 0.0, p), [0.0, 0.0, 1.0])
    # the killed step of one particle decides survival on Python floats: it
    # warns as well, once per call, and draws what the array path draws
    for n in (1, 3, kernel._FEW + 1):
        x, t = np.full(n, -0.5), np.full(n, 1.0)
        with pytest.warns(RuntimeWarning, match="cancellation beyond relative 1e-9") as caught:
            got = sample_killed_steps_batch(x, t, p, np.random.default_rng(3))
        assert len(caught) == 1
        with pytest.warns(RuntimeWarning, match="cancellation beyond relative 1e-9"):
            want = _killed_steps_reference(x, t, p, np.random.default_rng(3))
        assert all(np.array_equal(g, w, equal_nan=True) for g, w in zip(got, want))


@pytest.mark.parametrize("few", [0, 10**9])
def test_survival_of_infinite_start_is_one(monkeypatch, few):
    """x = +inf survives with probability 1 at every t >= 0, without a
    numpy warning (e^{2cx} Phi(-inf) is inf * 0), on both kernel paths."""
    monkeypatch.setattr(kernel, "_FEW", few)
    p = params()
    t = np.array([0.0, 1e-6, 1.0, 1e3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(survival_probability(math.inf, t, p), np.ones(4))
        assert survival_probability(math.inf, 0.0, p) == survival_probability(math.inf, 2.0, p) == 1.0
        mixed = survival_probability(np.array([math.inf, 1.0]), 1.0, p)
        assert mixed[0] == 1.0 and mixed[1] == survival_probability(1.0, 1.0, p)
        survived, pos = sample_killed_steps_batch(np.full(4, math.inf), t, p, np.random.default_rng(1))
    assert survived.all() and np.all(pos == math.inf)


@pytest.mark.parametrize("n", [1, 3, 40])
def test_zero_length_step_keeps_position(n):
    """A step of length 0 survives where x > 0 and stays at x, with the
    draws of any other step."""
    p = params()
    x = np.linspace(0.1, 3.0, n)
    with np.errstate(divide="ignore"):   # -2xy/t on arrays
        survived, pos = sample_killed_steps_batch(x, np.zeros(n), p, np.random.default_rng(4))
        want = _killed_steps_reference(x, np.zeros(n), p, np.random.default_rng(4))
    assert survived.all() and np.array_equal(pos, x)
    assert np.array_equal(pos, want[1])


# -- killed density / cdf ----------------------------------------------------


def test_killed_density_boundary():
    p = params()
    assert killed_density(1.0, -1.0, 1.0, p) == 0.0
    assert killed_density(1.0, 0.0, 1.0, p) == 0.0
    assert killed_density(1.0, 1e-12, 1.0, p) < 1e-11   # density -> 0 at wall


@pytest.mark.parametrize("x, t", [(0.5, 0.5), (1.0, 1.0), (2.0, 3.0)])
def test_killed_density_integrates_to_survival(x, t):
    p = params()
    mass, _ = quad(lambda y: killed_density(x, y, t, p), 0,
                   x + 14 * math.sqrt(t) + p.c * t, limit=200)
    assert mass == pytest.approx(survival_probability(x, t, p), rel=QUAD_REL_TOL)


def test_killed_cdf_consistency():
    p = params()
    x, t = 1.0, 1.0
    # cdf at +inf-ish equals survival; numerical derivative equals density.
    assert killed_cdf(x, 60.0, t, p) == pytest.approx(
        survival_probability(x, t, p), rel=1e-12)
    for y in (0.3, 1.0, 2.5):
        h = 1e-6
        deriv = (killed_cdf(x, y + h, t, p) - killed_cdf(x, y - h, t, p)) / (2 * h)
        assert deriv == pytest.approx(killed_density(x, y, t, p), rel=1e-8)


def test_rejection_identity_algebra():
    """killed_density == free-Gaussian proposal times bridge acceptance 1-e^{-2xy/t}.

    This identity is what makes the killed-step sampler exact; it must hold to
    machine precision, not just statistically.
    """
    p = params(c=1.3)
    x, t = 0.8, 1.7
    ys = np.linspace(0.01, 8, 200)
    proposal = np.exp(-((ys - (x - p.c * t)) ** 2) / (2 * t)) / math.sqrt(2 * math.pi * t)
    accept = -np.expm1(-2.0 * x * ys / t)
    np.testing.assert_allclose(killed_density(x, ys, t, p), proposal * accept, rtol=1e-12)


@pytest.mark.parametrize("y", [0.5, 1.0, 3.0])
def test_chapman_kolmogorov(y):
    p = params()
    x, s, t = 1.0, 0.6, 0.9
    val, _ = quad(lambda z: killed_density(x, z, s, p) * killed_density(z, y, t, p),
                  0, 30, limit=200)
    assert val == pytest.approx(killed_density(x, y, s + t, p), rel=CHAPMAN_TOL)


def test_kernel_mean_one_martingale():
    # e^{lam t} E_x[h(X_t); survives] / h(x) = 1.
    p = params()
    for x, t in ((1.0, 1.0), (0.5, 2.0)):
        val, _ = quad(lambda yy: killed_density(x, yy, t, p) * ground_state_h(yy, p),
                      0, x + 14 * math.sqrt(t) + p.c * t + 40, limit=300)
        assert math.exp(p.lambda_ * t) * val / ground_state_h(x, p) == pytest.approx(
            1.0, abs=1e-8)


@given(st.floats(0.05, 5.0), st.floats(-2.0, 8.0), st.floats(0.05, 5.0))
@settings(max_examples=100, deadline=None)
def test_killed_density_nonnegative(x, y, t):
    assert killed_density(x, y, t, params()) >= 0.0


# -- hitting-time sampler ----------------------------------------------------


def test_hitting_time_matches_inverse_gaussian():
    # The closed-form CDF 1 - survival equals scipy's invgauss CDF.
    p = params()
    x = 1.4
    ig = stats.invgauss(mu=1.0 / (p.c * x), scale=x * x)
    for s in (0.2, 1.0, 3.0, 10.0):
        assert 1.0 - survival_probability(x, s, p) == pytest.approx(
            ig.cdf(s), rel=1e-10)


def test_hitting_time_mean():
    # E[H_0] = x/c; n = 10^6 keeps the 3 sigma window at ~0.006.
    p = params()
    rng = np.random.default_rng(2026)
    s = sample_hitting_time(2.0, p, rng, size=10**6)
    assert np.all(s > 0)
    se = s.std(ddof=1) / math.sqrt(s.size)
    assert abs(s.mean() - 2.0) < 3 * se, (s.mean(), se)


def test_hitting_time_ks():
    p = params(c=0.7)
    rng = np.random.default_rng(7)
    s = sample_hitting_time(1.0, p, rng, size=20_000)
    ig = stats.invgauss(mu=1.0 / (p.c * 1.0), scale=1.0)
    res = stats.ks_1samp(s, ig.cdf)
    assert res.pvalue > 0.01, res


def test_hitting_time_deterministic():
    p = params()
    a = sample_hitting_time(1.0, p, np.random.default_rng(5), size=100)
    b = sample_hitting_time(1.0, p, np.random.default_rng(5), size=100)
    np.testing.assert_array_equal(a, b)


# Extreme starts and drifts: tiny x, tiny and large c, x/c = 400.
@pytest.mark.parametrize("x,c", [(0.01, 1.0), (0.01, 2.5e-5), (0.01, 50.0),
                                 (4.0, 0.01), (400.0, 1.0)])
def test_hitting_time_ks_extreme(x, c):
    p = params(c=c)
    s = sample_hitting_time(x, p, np.random.default_rng(101), size=20_000)
    assert np.all(np.isfinite(s) & (s > 0))
    ig = stats.invgauss(mu=1.0 / (c * x), scale=x * x)
    res = stats.ks_1samp(s, ig.cdf)
    # five cases at one seed: 0.001 keeps the family's false-alarm rate at 0.5 %
    assert res.pvalue > 0.001, res


# -- killed-step sampler -----------------------------------------------------


def test_killed_step_sample_structure():
    p = params()
    n = 2000
    survived, pos = sample_killed_steps_batch(
        np.full(n, 0.4), np.full(n, 0.8), p, np.random.default_rng(11))
    assert survived.dtype == bool and pos.shape == (n,)
    assert survived.any() and not survived.all()
    assert np.all(pos[survived] > 0)
    assert np.all(np.isnan(pos[~survived]))


def test_killed_step_survival_frequency():
    # Binomial check against the closed form at n = 10^6 (3 sigma).
    p = params()
    rng = np.random.default_rng(3)
    n = 10**6
    survived, _ = sample_killed_steps_batch(
        np.full(n, 1.0), np.full(n, 1.0), p, rng)
    freq = survived.mean()
    se = math.sqrt(SP_1_1 * (1 - SP_1_1) / n)
    assert abs(freq - SP_1_1) < 3 * se, (freq, SP_1_1)


def test_killed_step_position_ks():
    p = params()
    rng = np.random.default_rng(13)
    n = 10**5
    survived, pos = sample_killed_steps_batch(
        np.full(n, 1.0), np.ones(n), p, rng)
    xs = pos[survived]
    sp = survival_probability(1.0, 1.0, p)
    res = stats.ks_1samp(xs, lambda y: np.clip(killed_cdf(1.0, y, 1.0, p) / sp, 0, 1))
    assert res.pvalue > 0.01, res


def test_killed_step_tiny_t_continuity():
    p = params()
    n = 1000
    survived, pos = sample_killed_steps_batch(
        np.full(n, 1.0), np.full(n, 1e-6), p, np.random.default_rng(23))
    assert survived.all()
    assert np.all(np.abs(pos - 1.0) < 0.01)


def test_killed_step_stream_parity():
    """Each absorbed particle consumes exactly one uniform after the
    survival uniforms, so engine streams do not depend on how many
    particles are absorbed in a phase."""
    p = params()
    n = 5000
    r1 = np.random.default_rng(31)
    r2 = np.random.default_rng(31)
    # survival probability underflows to 0: every particle is absorbed
    survived, pos = sample_killed_steps_batch(np.full(n, 1e-3), np.full(n, 1e4), p, r1)
    assert not survived.any() and np.all(np.isnan(pos))
    r2.random(n)                           # survival uniforms
    r2.random(n)                           # one per absorbed particle
    assert r1.random() == r2.random()      # streams fully aligned afterwards


def _killed_steps_reference(x, t, params, rng):
    """sample_killed_steps_batch as first written, re-indexing every pending
    particle's inputs in each rejection round."""
    n = x.shape[0]
    survived = rng.random(n) < _survival_reference(x, t, params)
    position = np.full(n, np.nan)
    pending = np.flatnonzero(survived)
    while pending.size:
        xs, ts = x[pending], t[pending]
        y = xs - params.c * ts + np.sqrt(ts) * rng.standard_normal(pending.size)
        u = rng.random(pending.size)
        accept = (y > 0) & (u < -np.expm1(-2.0 * xs * y / ts))
        position[pending[accept]] = y[accept]
        pending = pending[~accept]
    rng.random(n - int(np.count_nonzero(survived)))
    return survived, position


@pytest.mark.parametrize("n", [1, 3, 200, 20_000])
@pytest.mark.parametrize("c", [0.3, 1.0, 3.0])
def test_killed_steps_equal_reference_sampler(n, c):
    """Same survivals, positions (==) and stream position afterwards as the
    reference, across long steps with many rejection rounds."""
    p = params(c=c)
    inputs = np.random.default_rng(n)
    x, t = inputs.uniform(1e-3, 4.0, n), inputs.uniform(1e-6, 6.0, n)
    r1, r2 = np.random.default_rng(7), np.random.default_rng(7)
    s1, pos1 = sample_killed_steps_batch(x, t, p, r1)
    s2, pos2 = _killed_steps_reference(x, t, p, r2)
    assert np.array_equal(s1, s2)
    assert np.array_equal(pos1, pos2, equal_nan=True)
    assert r1.random() == r2.random()


@pytest.mark.parametrize("few", [0, 10**9])
@pytest.mark.parametrize("n", [1, 3, 200, 20_000])
@pytest.mark.parametrize("c", [0.3, 1.0, 3.0])
def test_killed_steps_equal_reference_sampler_any_tail(monkeypatch, few, n, c):
    """The same comparison with every rejection round on arrays (few = 0)
    and every round on Python floats (few = 10^9)."""
    monkeypatch.setattr(kernel, "_FEW", few)
    test_killed_steps_equal_reference_sampler(n, c)


@pytest.mark.parametrize("few", [0, kernel._FEW, 10**9])
@pytest.mark.parametrize("n", [40, 400, 2000])
@pytest.mark.parametrize("c", [0.3, 1.0])
def test_killed_steps_equal_reference_sampler_low_survival(monkeypatch, few, n, c):
    """Near the origin over long steps a survivor is accepted with the small
    probability sp per proposal, so its rounds run into the hundreds, most
    of them with a single pending particle."""
    monkeypatch.setattr(kernel, "_FEW", few)
    p = params(c=c)
    inputs = np.random.default_rng(n + 1)
    x, t = inputs.uniform(1e-3, 0.1, n), inputs.uniform(2.0, 6.0, n)
    r1, r2 = np.random.default_rng(5), np.random.default_rng(5)
    s1, pos1 = sample_killed_steps_batch(x, t, p, r1)
    s2, pos2 = _killed_steps_reference(x, t, p, r2)
    assert np.array_equal(s1, s2)
    assert np.array_equal(pos1, pos2, equal_nan=True)
    assert r1.random() == r2.random()


class _CountingRng:
    """A Generator that counts its standard_normal calls: one per rejection round."""

    def __init__(self, seed):
        self.rng, self.rounds = np.random.default_rng(seed), 0

    def standard_normal(self, size):
        self.rounds += 1
        return self.rng.standard_normal(size)

    def random(self, size):
        return self.rng.random(size)


def test_rejection_cap_counts_every_round(monkeypatch):
    """The cap fires at the same proposal round whichever loop runs it."""
    inputs = np.random.default_rng(401)
    x, t = inputs.uniform(1e-3, 0.1, 400), inputs.uniform(2.0, 6.0, 400)
    probe = _CountingRng(5)
    survived, _ = sample_killed_steps_batch(x, t, params(), probe)
    rounds = probe.rounds
    assert survived.any() and rounds > 100
    for few in (0, kernel._FEW, 10**9):
        monkeypatch.setattr(kernel, "_FEW", few)
        monkeypatch.setattr(kernel, "REJECTION_CAP", rounds)
        sample_killed_steps_batch(x, t, params(), _CountingRng(5))
        monkeypatch.setattr(kernel, "REJECTION_CAP", rounds - 1)
        capped = _CountingRng(5)
        with pytest.raises(RuntimeError, match="proposal cap"):
            sample_killed_steps_batch(x, t, params(), capped)
        assert capped.rounds == rounds - 1


# Arguments in the range each ufunc sees on Python floats: expm1 in the
# rejection test, ndtr, log_ndtr and exp in the survival probability.
def _expm1_args(rng):
    return np.concatenate([rng.uniform(-50.0, 0.0, 60_000),
                           -np.exp(rng.uniform(math.log(1e-14), math.log(50.0), 60_000))])


def _wide_args(rng):
    return np.concatenate([rng.uniform(-40.0, 40.0, 50_000),
                           -np.exp(rng.uniform(math.log(1e-14), math.log(1e4), 50_000))])


def _exp_args(rng):
    return np.concatenate([rng.uniform(-750.0, 710.0, 50_000), rng.uniform(-2.0, 2.0, 50_000)])


@pytest.mark.parametrize("ufunc, args", [(np.expm1, _expm1_args), (ndtr, _wide_args),
                                         (log_ndtr, _wide_args), (np.exp, _exp_args)],
                         ids=["expm1", "ndtr", "log_ndtr", "exp"])
def test_ufunc_of_python_floats_equals_array_result(ufunc, args):
    """The killed step of at most _FEW particles calls these ufuncs on
    Python floats; each must agree bit for bit with the array result.
    math.expm1 is no substitute for np.expm1: where numpy's expm1 is
    vectorized (x86-64 with AVX-512) it differs from the C library's in the
    last bit, for 5,216 of 700,000 uniform arguments in (-50, 0) with numpy
    2.4."""
    x = args(np.random.default_rng(17))
    with np.errstate(over="ignore", under="ignore"):
        want = ufunc(x)
        got = np.array([ufunc(a) for a in x.tolist()])
    assert np.array_equal(got, want)


@pytest.mark.parametrize("method, args", [("random", ()), ("standard_normal", ()),
                                          ("exponential", (1.0 / 0.6,))])
def test_one_draw_equals_one_element_array_draw(method, args):
    """kernel._draws takes one draw with size None: the same value, and the
    same stream position afterwards, as a one-element array draw, on the
    engine's Philox streams and on numpy's default generator."""
    for r1, r2 in ((np.random.Generator(np.random.Philox(23)), np.random.Generator(np.random.Philox(23))),
                   (np.random.default_rng(23), np.random.default_rng(23))):
        for k in (1, 2, 1, 1, 5, 1):
            assert kernel._draws(getattr(r1, method), k, *args) == getattr(r2, method)(*args, size=k).tolist()
        assert r1.random() == r2.random()


# -- sharp-asymptotics error bounds ------------------------------------------


def test_prefactor_error_vanishes_at_large_t():
    p = params()
    eps = [abs(survival_prefactor_error(1.0, t, p)) for t in (5.0, 20.0, 80.0, 320.0)]
    assert eps == sorted(eps, reverse=True)
    assert eps[-1] < 0.02                  # decay is ~3.4/t at c=1



def test_error_bounds_envelope_lambda_scaled():
    """Containment of the measured prefactor error in the provable envelope.

    The envelope with the drift-scaled correction 3/(2 lambda t) contains the
    measured error on the whole grid; the unscaled textbook coefficient does
    not (see asymptotic_error_bounds docstring), which acceptance reports
    separately.
    """
    p = params()
    for x in (0.5, 1.0, 2.0, 5.0):
        for t in (2.0, 5.0, 10.0, 50.0):
            lo, hi, _ = asymptotic_error_bounds(x, t, IntervalSet.positive_axis(), p,
                                                lambda_scaled=True)
            eps = survival_prefactor_error(x, t, p)
            assert lo <= eps <= hi, (x, t, lo, eps)


def test_error_bounds_clamp_and_preconditions():
    p = params()
    B = IntervalSet.positive_axis()
    with pytest.warns(RuntimeWarning, match="lambda_scaled=True"):
        *_, bound = asymptotic_error_bounds(0.5, 2.0, B, p, C_B=10.0)
    assert bound == 2.0                     # min clamp: 10*(1.5)^2/2 > 2
    with pytest.warns(RuntimeWarning, match="lambda_scaled=True"):
        *_, small = asymptotic_error_bounds(0.5, 200.0, B, p, C_B=1.0)
    assert small == pytest.approx(1.5**2 / 200.0)
    with pytest.raises(ValueError):
        asymptotic_error_bounds(1.0, 1.0, B, p)   # t must exceed 3/2


def test_unscaled_error_bounds_warn_exactly_below_lambda_one():
    """The default 3/(2t) coefficient is not a valid bound for lambda < 1,
    so every request for it there warns, whatever (x, t); the provable
    variant and drifts with lambda >= 1 stay silent."""
    B = IntervalSet.positive_axis()
    for c in (0.3, 1.0, 1.4):              # lambda = 0.045, 0.5, 0.98
        for x, t in ((0.1, 1.6), (3.0, 1e4)):
            with pytest.warns(RuntimeWarning, match="not a valid lower bound"):
                asymptotic_error_bounds(x, t, B, params(c=c))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        asymptotic_error_bounds(1.0, 5.0, B, params(c=1.0), lambda_scaled=True)
        for c in (math.sqrt(2.0), 2.0):   # lambda = 1, 2
            asymptotic_error_bounds(1.0, 5.0, B, params(c=c))
