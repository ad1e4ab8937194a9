import importlib.util
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from bbma import oracles
from bbma.engine import run_replicate, spawn_rng_stream
from bbma.kernel import survival_probability
from bbma.model import IntervalSet, ModelParams, OffspringLaw, ground_state_h
from bbma.oracles import (
    expected_count,
    expected_count_asymptotic,
    extinction_probability,
    mean_one_check,
    second_moment_exact,
    spine_second_moment_mc,
)

DYADIC = OffspringLaw.dyadic()
DELTA1 = OffspringLaw.from_pmf({1: 1.0})
AXIS = IntervalSet.positive_axis()

# Frozen recomputed oracles at (x=1, c=1, r=0.6, dyadic, t=1).  The count is
# e^{0.6} * P_1(X_1 > 0) with the survival factor verified against the
# first-passage quadrature in test_kernel.  The second moment is an
# independent nested scipy quad of the identity in the oracles docstring at
# epsrel 1e-13, without bbma.
EXPECTED_COUNT_REF = 0.6047575833832470
SECOND_MOMENT_REF = 1.2306691306388908

MEAN_ONE_TOL = 1e-8


def params(r=0.6, c=1.0, offspring=DYADIC):
    return ModelParams(c=c, r=r, offspring=offspring)


# -- first moment ------------------------------------------------------------


def test_expected_count_frozen_value():
    val = expected_count(1.0, 1.0, AXIS, params())
    assert val == pytest.approx(EXPECTED_COUNT_REF, rel=1e-10)
    # Direct product form for the positive axis.
    direct = math.exp(0.6) * survival_probability(1.0, 1.0, params())
    assert val == pytest.approx(direct, rel=1e-14)


def test_expected_count_delta1_is_survival():
    p = params(offspring=DELTA1)
    for t in (0.5, 1.0, 3.0):
        assert expected_count(1.0, t, AXIS, p) == pytest.approx(
            survival_probability(1.0, t, p), rel=1e-12)


def test_expected_count_additive_in_B():
    p = params()
    pieces = ["0,0.5", "0.5,1.5", "1.5,3", "3,inf"]
    total = sum(expected_count(1.0, 1.0, IntervalSet.parse(s), p) for s in pieces)
    assert total == pytest.approx(expected_count(1.0, 1.0, AXIS, p), rel=1e-8)


# Values of the adaptive scipy quadrature (rel. tol 1e-8) that preceded the
# closed form: multi-interval sets, tiny x, short and long horizons, and far
# upper tails whose mass is below 1e-12.
EXPECTED_COUNTS_BY_QUADRATURE = [
    (1.0, 2.0, "0,0.5;1,2;3,inf", 0.22419148690011145),
    (1.0, 20.0, "0,5;10,30", 0.15091746398266181),
    (1.0, 20.0, "1,inf", 0.10807980017171527),
    (0.01, 1.0, "0,0.5;2,inf", 0.000871855076589058),
    (0.01, 3.0, "0.2,1", 0.00047887423452039357),
    (1.0, 1e-6, "0.999,1.001", 0.682689659780048),
    (1.0, 1e-6, "0,1", 0.5003992424533852),
    (1.0, 1e-6, "1,inf", 0.49960135754681345),
    (2.0, 0.5, "0,0.01", 3.189722243926566e-05),
    (1.0, 1.0, "7.5,inf", 5.814182294266443e-14),
    (1.0, 1.0, "8,inf", 1.1335328192951697e-15),
]


@pytest.mark.parametrize("x, t, spec, ref", EXPECTED_COUNTS_BY_QUADRATURE)
def test_expected_count_matches_quadrature(x, t, spec, ref):
    assert expected_count(x, t, IntervalSet.parse(spec), params()) == pytest.approx(ref, rel=1e-8)


def test_expected_count_overflowing_growth_factor():
    # e^{750} overflows, the count (about 3e213) does not; the split order
    # e^{375} (e^{375} S) is an independent route to the same product
    p = params(r=1.5)
    B = IntervalSet.parse("0,1;2,inf")
    for mass, got in ((float(survival_probability(1.0, 500.0, p)), expected_count(1.0, 500.0, AXIS, p)),
                      (sum(float(oracles._killed_mass(1.0, lo, hi, 500.0, p)) for lo, hi in B.intervals),
                       expected_count(1.0, 500.0, B, p))):
        assert got == pytest.approx(math.exp(375.0) * (math.exp(375.0) * mass), rel=1e-13, abs=0.0)
    # where e^{mt} is finite, the value keeps the bits of the plain product
    assert expected_count(1.0, 400.0, AXIS, p) == math.exp(600.0) * float(survival_probability(1.0, 400.0, p))


def test_expected_count_empty_set():
    # 0 even where the growth factor overflows (r = 1.5, t = 1000)
    for p in (params(), params(r=1.5)):
        for t in (1.0, 1000.0):
            assert expected_count(1.0, t, IntervalSet.empty(), p) == 0.0
            assert expected_count_asymptotic(1.0, t, IntervalSet.empty(), p) == 0.0


def test_asymptotic_closed_form():
    p = params(r=1.5)
    B = IntervalSet.parse("1,inf")
    val = expected_count_asymptotic(2.0, 10.0, B, p)
    g = p.growth_exponent
    nuB = 2.0 * math.exp(-1.0)          # (1+c a) e^{-c a} at a=1, c=1
    ref = math.exp(g * 10.0) * 10.0**-1.5 * ground_state_h(2.0, p) * nuB
    assert val == pytest.approx(ref, rel=1e-14)


def test_count_ratio_approaches_one_from_below():
    p = params()
    ratios = [expected_count(1.0, t, AXIS, p) / expected_count_asymptotic(1.0, t, AXIS, p)
              for t in (10.0, 20.0, 40.0)]
    assert ratios == sorted(ratios)
    assert all(0.0 < r_ < 1.0 for r_ in ratios)
    assert ratios[-1] > 0.9


def test_count_ratio_within_drift_scaled_envelope():
    # ratio = 1 + eps; the provable envelope uses the 3/(2 lambda t) factor.
    p = params()
    for x in (0.5, 1.0, 2.0):
        for t in (5.0, 10.0, 50.0):
            ratio = (expected_count(x, t, AXIS, p)
                     / expected_count_asymptotic(x, t, AXIS, p))
            lower = math.exp(-x * x / (2 * t)) * (1 - 1.5 / (p.lambda_ * t))
            assert lower <= ratio <= 1.0 + 1e-12, (x, t, ratio, lower)


def test_engine_first_moment_on_interval_sets():
    # Four disjoint sets, one batch of replicates, each within 3 sigma.
    p = params()
    sets = tuple(IntervalSet.parse(s) for s in ("0,0.5", "0.5,1.5", "1.5,3", "3,inf"))
    n = 4000
    counts = np.empty((n, 4))
    for i in range(n):
        res = run_replicate(p, 1.0, 2.0, [2.0], spawn_rng_stream(103, i))
        counts[i] = [B.indicator(res.censuses[-1].alive_positions).sum() for B in sets]
    for k, B in enumerate(sets):
        target = expected_count(1.0, 2.0, B, p)
        se = counts[:, k].std(ddof=1) / math.sqrt(n)
        assert abs(counts[:, k].mean() - target) < 3 * se, (k, counts[:, k].mean(), target)


# -- second moment -----------------------------------------------------------


def test_second_moment_frozen_value():
    assert second_moment_exact(1.0, 1.0, params()) == pytest.approx(
        SECOND_MOMENT_REF, rel=1e-10)


def test_second_moment_delta1_is_survival():
    p = params(offspring=DELTA1)
    assert second_moment_exact(1.0, 1.0, p) == pytest.approx(
        survival_probability(1.0, 1.0, p), rel=1e-12)


def test_second_moment_small_t_limit():
    assert second_moment_exact(1.0, 1e-6, params()) == pytest.approx(1.0, abs=1e-4)


@pytest.mark.parametrize("x, t", [(1.0, 1e-6), (1.0, 1e-5), (1.25, 1e-3)])
def test_second_moment_short_horizon_is_pure_branching(x, t):
    # With x^2/2t > 700 absorption before t has probability below e^{-700},
    # so E[N(N-1)] equals its pure-branching value to double precision.
    assert x * x / (2.0 * t) > 700.0
    p = params()
    g = p.r * (p.offspring.mu1 - 1.0)
    mean = math.exp(g * t) * survival_probability(x, t, p)
    pure = (p.offspring.mu2 - p.offspring.mu1) * p.r * math.exp(g * t) * math.expm1(g * t) / g
    assert second_moment_exact(x, t, p) - mean == pytest.approx(pure, rel=1e-6)


# Pinned values at extreme inputs: tiny x, long horizon, large c and r,
# small r, a pmf with p0 > 0 and one with p1 > 0.  All come from nested scipy
# quad at relative tolerance 1e-13 (epsabs 0), independent of this module:
# the outer z integral split at z = t 2^-j (j = 1..59) and z = t (1 - 2^-j)
# (j = 2..49), the inner one taken in u, y = (x - c z) + sqrt(z) u, over
# [max(-(x - c z)/sqrt(z), -15), 15] with break points at u = 0, +-3 and the
# rises y = k sqrt(t - z), k = 1/2, 1, 2, 4, 8, 16.
EXTREME_SECOND_MOMENTS = [
    (0.01, 3.0, dict(), 0.004535789341006695),
    (3.0, 20.0, dict(), 609.485402606258),
    (1.0, 2.0, dict(c=3.0, r=6.0), 3092.6974968308173),
    (1.0, 5.0, dict(r=0.05), 0.015121806083082265),
    (0.5, 4.0, dict(r=1.5, offspring=OffspringLaw.from_pmf({0: 0.2, 2: 0.5, 3: 0.3})),
     103.03979317813953),
    (0.5, 4.0, dict(r=1.5, offspring=OffspringLaw.from_pmf({0: 0.1, 1: 0.3, 2: 0.4, 3: 0.2})),
     11.57250312146685),
]


@pytest.mark.parametrize("x, t, kw, ref", EXTREME_SECOND_MOMENTS)
def test_second_moment_extreme_inputs_pinned(x, t, kw, ref):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert second_moment_exact(x, t, params(**kw)) == pytest.approx(ref, rel=1e-10)


def test_second_moment_outer_rule_node_count(monkeypatch):
    # In s, z = t (3 s^2 - 2 s^3), the outer integrand is analytic at both
    # ends, so the bisection closes early: 88 outer nodes at (1, 1).
    nodes = []
    panel_sums = oracles._panel_sums

    def count(f, a, b, n):
        if n == oracles._QUAD_NODES:
            nodes.append(a.size * n)
        return panel_sums(f, a, b, n)

    monkeypatch.setattr(oracles, "_panel_sums", count)
    second_moment_exact(1.0, 1.0, params())
    assert 0 < sum(nodes) <= 128


def test_second_moment_reports_missed_inner_tolerance(monkeypatch):
    # One Gauss-Legendre node on one panel cannot reach 1e-8: the promised
    # warning fires and the value is still returned.
    monkeypatch.setattr(oracles, "_GL_NODES", 1)
    monkeypatch.setattr(oracles, "_GL_PANELS", 1)
    with pytest.warns(RuntimeWarning, match="not met"):
        val = second_moment_exact(1.0, 1.0, params())
    assert math.isfinite(val)


def test_second_moment_reports_missed_outer_tolerance(monkeypatch):
    # One bisection of the outer z rule cannot reach 1e-10.
    monkeypatch.setattr(oracles, "_QUAD_DEPTH", 1)
    with pytest.warns(RuntimeWarning, match="not met"):
        val = second_moment_exact(1.0, 1.0, params())
    assert math.isfinite(val)


def test_quad_closed_forms():
    assert oracles.quad(np.exp, 0.0, 1.0) == pytest.approx(math.e - 1.0, rel=1e-14)
    # A kink at a break point and an empty interval.
    assert oracles.quad(np.abs, -1.0, 2.0, breaks=(0.0,)) == pytest.approx(2.5, rel=1e-14)
    assert oracles.quad(np.exp, 1.0, 1.0) == 0.0


def test_quad_stops_refining_an_integral_that_cancels():
    # sin over a full period is 0 up to roundoff, which no panel's tolerance
    # can meet: refining stops at the open-panel cap with a warning.
    with pytest.warns(RuntimeWarning, match="not met"):
        val = oracles.quad(np.sin, 0.0, 2.0 * math.pi)
    assert abs(val) < 1e-12


def test_second_moment_cauchy_schwarz():
    p = params()
    for x, t in ((0.5, 0.5), (1.0, 1.0), (2.0, 3.0)):
        m1 = expected_count(x, t, AXIS, p)
        m2 = second_moment_exact(x, t, p)
        assert m2 >= m1 * m1 - 1e-12, (x, t)


def test_second_moment_vs_engine():
    p = params()
    n = 20_000
    sq = np.empty(n)
    for i in range(n):
        res = run_replicate(p, 1.0, 1.0, [1.0], spawn_rng_stream(107, i))
        sq[i] = float(res.trace.n_alive[-1]) ** 2
    se = sq.std(ddof=1) / math.sqrt(n)
    assert abs(sq.mean() - SECOND_MOMENT_REF) < 3 * se, (sq.mean(), se)


# -- two-spine estimator -----------------------------------------------------


def test_spine_pair_structure():
    p = params(offspring=OffspringLaw.from_pmf({0: 0.2, 2: 0.8}))
    rng = np.random.default_rng(5)
    tau, common, end1, end2, w = oracles._sample_pairs_vectorized(1.0, 2.0, p, 500, rng)
    assert tau.shape == common.shape == end1.shape == end2.shape == w.shape == (500,)
    assert np.all((tau > 0) & (tau <= 2.0))
    assert np.all(w >= 1.0)
    absorbed = common == 0.0
    assert np.all(end1[absorbed] == 0.0) and np.all(end2[absorbed] == 0.0)
    assert absorbed.any() and (tau < 2.0).any()


def test_spine_weight_identity():
    # Var(m) + (mu1-1)^2 == mu2 - 2 mu1 + 1 for any finite law.
    for pmf in ({2: 1.0}, {0: 0.2, 2: 0.8}, {0: 0.1, 1: 0.3, 3: 0.6}):
        law = OffspringLaw.from_pmf(pmf)
        assert law.variance + (law.mu1 - 1) ** 2 == pytest.approx(
            law.mu2 - 2 * law.mu1 + 1, abs=1e-12)


def test_spine_mc_matches_quadrature():
    p = params()
    rng = np.random.default_rng(11)
    est, se = spine_second_moment_mc(1.0, 1.0, AXIS, AXIS, p, 200_000, rng)
    ref = second_moment_exact(1.0, 1.0, p)
    assert abs(est - ref) < 3 * se, (est, ref, se)


def test_spine_delta1_degenerates_to_survival():
    # Split rate 0: the pair never separates, weight stays 1, and the
    # estimate is the single-path survival frequency.
    p = params(offspring=DELTA1)
    rng = np.random.default_rng(13)
    n = 50_000
    est, se = spine_second_moment_mc(1.0, 1.0, AXIS, AXIS, p, n, rng)
    sp = survival_probability(1.0, 1.0, p)
    assert abs(est - sp) < 3 * se
    tau, common, end1, end2, w = oracles._sample_pairs_vectorized(
        1.0, 1.0, p, 1000, np.random.default_rng(17))
    assert np.all(tau == 1.0)
    assert np.all(w == 1.0)
    assert np.array_equal(end1, common) and np.array_equal(end2, common)


def test_spine_symmetric_in_sets():
    p = params(r=1.0)
    B1, B2 = IntervalSet.parse("0,1"), IntervalSet.parse("1,inf")
    e12, s12 = spine_second_moment_mc(1.0, 1.0, B1, B2, p, 100_000,
                                      np.random.default_rng(19))
    e21, s21 = spine_second_moment_mc(1.0, 1.0, B2, B1, p, 100_000,
                                      np.random.default_rng(23))
    assert abs(e12 - e21) < 3 * math.hypot(s12, s21)


# -- martingale normalization ------------------------------------------------


@pytest.mark.parametrize("x, c, t", [(1.0, 1.0, 1.0), (0.1, 2.0, 5.0), (5.0, 0.5, 0.1),
                                     # extreme inputs
                                     (0.01, 1.0, 1.0), (0.01, 3.0, 20.0), (10.0, 0.2, 50.0),
                                     (1.0, 5.0, 0.01), (3.0, 1.0, 1e-4), (1.0, 1.0, 1e-6)])
def test_mean_one_check(x, c, t):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert abs(mean_one_check(x, t, params(c=c)) - 1.0) < MEAN_ONE_TOL


# -- Kesten's extinction probability ------------------------------------------

# p0 > 0: q(inf) is the smallest root of f(q) = 0.2 + 0.1 q + 0.5 q^2 + 0.2 q^3 = q
PMF_P0 = OffspringLaw.from_pmf({0: 0.2, 1: 0.1, 2: 0.5, 3: 0.2})
P1_LAW = OffspringLaw.from_pmf({1: 0.3, 2: 0.7})
SUPER_MODELS = [params(r=1.5), params(r=0.6), params(r=1.5, offspring=P1_LAW),
                params(c=3.0, r=6.0), params(r=1.5, offspring=PMF_P0)]


def _q_inf(law: OffspringLaw) -> float:
    return oracles._kesten_wave(params(r=1.5, offspring=law)).q_inf


@pytest.fixture(scope="module")
def bvp_reference():
    """perfbench/reference.py (scipy solve_bvp on [0, 40]), loaded read-only."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _dense(law: OffspringLaw) -> list[float]:
    pmf = [0.0] * (int(law.support.max()) + 1)
    for k, p in law.pmf:
        pmf[k] = p
    return pmf


@pytest.mark.parametrize("p", SUPER_MODELS)
def test_extinction_probability_one_at_origin_decreasing_to_q_inf(p):
    xs = np.linspace(0.0, 60.0, 6001)
    q = extinction_probability(xs, p)
    assert extinction_probability(0.0, p) == 1.0 and q[0] == 1.0
    assert np.all(np.diff(q) <= 0.0) and q[1] < 1.0
    q_inf = oracles._kesten_wave(p).q_inf
    assert extinction_probability(200.0, p) == pytest.approx(q_inf, abs=1e-13)
    assert extinction_probability(math.inf, p) == q_inf


def test_extinction_probability_p0_limit_is_smallest_fixed_point():
    # f(q) = 0.1 + 0.9 q^2 has fixed points 1/9 and 1
    assert _q_inf(OffspringLaw.from_pmf({0: 0.1, 2: 0.9})) == pytest.approx(1.0 / 9.0, rel=1e-14)
    q_inf = _q_inf(PMF_P0)
    f = np.polynomial.Polynomial(_dense(PMF_P0))
    assert 0.0 < q_inf < 1.0 and f(q_inf) == pytest.approx(q_inf, abs=1e-15)
    below = np.linspace(0.0, q_inf * (1.0 - 1e-9), 1001)
    assert np.all(f(below) > below)  # no smaller fixed point
    p = params(r=1.5, offspring=PMF_P0)
    assert extinction_probability(60.0, p) == pytest.approx(q_inf, rel=1e-12)
    assert extinction_probability(1.0, p) > q_inf


@pytest.mark.parametrize("r", [0.3, 0.5, 0.4999])
def test_extinction_probability_is_one_when_not_supercritical(r):
    xs = np.array([0.0, 0.5, 5.0, 50.0])
    np.testing.assert_array_equal(extinction_probability(xs, params(r=r)), 1.0)


def test_extinction_probability_tends_to_one_at_criticality():
    # r (mu1 - 1) decreasing to c^2 / 2 = 0.5; the last three cross q = 1
    # on the linearized tail
    rates = [1.5, 0.6, 0.52, 0.502, 0.5002, 0.50002]
    q1 = [extinction_probability(1.0, params(r=r)) for r in rates]
    q3 = [extinction_probability(3.0, params(r=r)) for r in rates]
    assert np.all(np.diff(q1) >= 0) and np.all(np.diff(q3) >= 0)
    assert q1[0] < 0.8 and 1.0 - q1[-1] < 1e-15 and 1.0 - q3[-1] < 1e-15
    tail = oracles._kesten_wave(params(r=0.502))  # no bound there: q <= 1 for every x
    assert np.all(np.isinf(tail.upper_x[1:])) and tail.upper_log_q[0] == 0.0


def test_extinction_probability_validates_x():
    with pytest.raises(ValueError):
        extinction_probability(-0.1, params(r=1.5))
    with pytest.raises(ValueError):
        extinction_probability([1.0, math.nan], params(r=1.5))


@pytest.mark.parametrize("name, call", [
    ("expected_count", lambda x, t: expected_count(x, t, AXIS, params())),
    ("expected_count", lambda x, t: expected_count(x, t, IntervalSet([(1.0, math.inf)]), params())),
    ("expected_count_asymptotic", lambda x, t: expected_count_asymptotic(x, t, AXIS, params())),
    ("second_moment_exact", lambda x, t: second_moment_exact(x, t, params())),
    ("mean_one_check", lambda x, t: mean_one_check(x, t, params())),
    ("spine_second_moment_mc",
     lambda x, t: spine_second_moment_mc(x, t, AXIS, AXIS, params(), 10, np.random.default_rng(0))),
])
@pytest.mark.parametrize("x, t", [
    (math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0, math.nan), (0.0, 1.0), (1.0, -1.0),
])
def test_oracles_refuse_nonpositive_and_nonfinite_inputs(name, call, x, t):
    # each test is written so that NaN and infinity fail it
    with pytest.raises(ValueError, match=f"^{name} requires x>0 and t>0$"):
        call(x, t)


@pytest.mark.parametrize("c, r, law, xs", [
    (1.0, 1.5, DYADIC, (0.05, 0.3, 1.0, 2.0, 5.0)),
    (1.0, 0.6, DYADIC, (0.5, 2.0)),
    (1.0, 1.5, P1_LAW, (0.3, 1.0, 3.0)),
    (2.0, 5.0, OffspringLaw.from_pmf({1: 0.2, 2: 0.3, 3: 0.5}), (0.2, 1.0)),
    (3.0, 6.0, DYADIC, (0.5, 2.0)),
])
def test_extinction_probability_matches_bvp_reference(bvp_reference, c, r, law, xs):
    p = params(c=c, r=r, offspring=law)
    for x in xs:
        want = bvp_reference.extinction_probability(x, c, r, _dense(law))
        assert extinction_probability(x, p) == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("law", [DYADIC, P1_LAW])
def test_extinction_upper_table_dominates_bvp_reference(bvp_reference, monkeypatch, law):
    # The reference solves one BVP per call; keep its solution and evaluate
    # it at 10^4 random positions.
    solutions = []
    solve = bvp_reference.solve_bvp

    def keep(*args, **kwargs):
        solutions.append(solve(*args, **kwargs))
        return solutions[-1]

    monkeypatch.setattr(bvp_reference, "solve_bvp", keep)
    bvp_reference.extinction_probability(1.0, 1.0, 1.5, _dense(law))
    xs = np.random.default_rng(7).uniform(0.0, 40.0, 10_000)
    want = solutions[0].sol(xs)[0]
    wave = oracles._kesten_wave(params(r=1.5, offspring=law))
    upper = np.exp(wave.upper_log_q[np.searchsorted(wave.upper_x, xs, side="right") - 1])
    assert np.all(upper >= want)
    # tight to about one node spacing
    assert np.all(upper[xs > 0.1] < 1.0) and np.median(upper / want) < 1.01
