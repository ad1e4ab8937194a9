import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from bbma.kernel import killed_cdf, killed_density
from bbma.model import (
    IntervalSet,
    ModelParams,
    OffspringLaw,
    Regime,
    classify_regime,
    ground_state_h,
    nu_cdf,
    nu_measure,
    offspring_moments,
    parse_offspring,
)

# Direct high-precision evaluations of the closed forms, frozen here.
H_AT_1_C1 = 2.1688751028384554       # e / sqrt(2 pi * 0.25)
NU_01_C1 = 0.26424111765711533       # 1 - 2/e

QUAD_TOL = 1e-6
EIGEN_TOL = 1e-5


def dyadic_params(c=1.0, r=0.6):
    return ModelParams(c=c, r=r, offspring=OffspringLaw.dyadic())


# -- offspring law -----------------------------------------------------------


@pytest.mark.parametrize(
    "pmf, expected",
    [
        ({2: 1.0}, (2.0, 4.0, 0.0)),
        ({0: 0.2, 2: 0.8}, (1.6, 3.2, 0.64)),
        ({1: 1.0}, (1.0, 1.0, 0.0)),
    ],
)
def test_offspring_moments(pmf, expected):
    assert offspring_moments(pmf) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize(
    "pmf",
    [
        {2: 0.5},                 # mass 0.5
        {-1: 0.5, 2: 0.5},        # negative child count
        {0: -0.1, 2: 1.1},        # negative probability
        {},
    ],
)
def test_offspring_moments_rejects(pmf):
    with pytest.raises(ValueError):
        offspring_moments(pmf)


@given(
    st.lists(st.floats(0.01, 10.0), min_size=1, max_size=6).map(
        lambda ws: {k: w / math.fsum(ws) for k, w in enumerate(ws)}
    )
)
@settings(max_examples=100, deadline=None)
def test_offspring_moments_match_direct_sums(pmf):
    mu1, mu2, var = offspring_moments(pmf)
    assert mu1 == pytest.approx(sum(k * p for k, p in pmf.items()), rel=1e-12)
    assert mu2 == pytest.approx(sum(k * k * p for k, p in pmf.items()), rel=1e-12)
    assert var == pytest.approx(mu2 - mu1 * mu1, abs=1e-12)
    assert var >= -1e-15


def test_parse_offspring():
    assert parse_offspring("dyadic").as_dict() == {2: 1.0}
    law = parse_offspring("pmf:0.2,0,0.8")
    assert law.as_dict() == {0: 0.2, 2: 0.8}
    assert law.mu1 == pytest.approx(1.6)
    for bad in ("pmf:0.5,0.6", "pmf:abc", "binary", "pmf:"):
        with pytest.raises(ValueError):
            parse_offspring(bad)


# -- regimes -----------------------------------------------------------------


@pytest.mark.parametrize(
    "r, expected",
    [
        (0.6, Regime.SUPERCRITICAL),     # 0.6 > 0.5
        (0.5, Regime.CRITICAL),
        (1.5, Regime.L2_SUPERCRITICAL),  # 1.5 > 2*0.5
        (0.3, Regime.SUBCRITICAL),
        (1.0, Regime.SUPERCRITICAL),     # boundary 2*lambda is not strict L2
    ],
)
def test_classify_regime_dyadic(r, expected):
    assert classify_regime(dyadic_params(r=r)) is expected


def test_classify_regime_critical_tolerance():
    assert classify_regime(dyadic_params(r=0.5 + 1e-15)) is Regime.CRITICAL
    assert classify_regime(dyadic_params(r=0.5001)) is Regime.SUPERCRITICAL


def test_classify_regime_stable_under_renormalization_noise():
    # Probabilities perturbed below 1e-13 and renormalized: same label.
    base = ModelParams(c=1.0, r=1.0, offspring=OffspringLaw.from_pmf({0: 0.2, 2: 0.8}))
    noisy_pmf = {0: 0.2 * (1 + 4e-14), 2: 0.8 * (1 - 1e-14)}
    noisy = ModelParams(c=1.0, r=1.0, offspring=OffspringLaw.from_pmf(noisy_pmf))
    assert classify_regime(noisy) is classify_regime(base)


def test_model_params_derived_quantities():
    p = dyadic_params(c=1.0, r=0.6)
    assert p.lambda_ == 0.5
    assert p.growth_exponent == pytest.approx(0.6 - 0.5, abs=1e-16)
    with pytest.raises(ValueError):
        ModelParams(c=-1.0, r=1.0, offspring=OffspringLaw.dyadic())
    with pytest.raises(ValueError):
        ModelParams(c=1.0, r=0.0, offspring=OffspringLaw.dyadic())


# -- ground state and quasi-stationary law -----------------------------------


def test_ground_state_values():
    p = dyadic_params()
    assert ground_state_h(0.0, p) == 0.0
    assert ground_state_h(1.0, p) == pytest.approx(H_AT_1_C1, rel=1e-14)
    xs = np.linspace(0.1, 10, 50)
    assert np.all(np.diff(ground_state_h(xs, p)) > 0)


def test_nu_measure_closed_form():
    p = dyadic_params()
    assert nu_measure(IntervalSet.positive_axis(), p) == pytest.approx(1.0, abs=1e-15)
    assert nu_measure(IntervalSet.parse("0,1"), p) == pytest.approx(NU_01_C1, rel=1e-14)
    assert nu_measure(IntervalSet.empty(), p) == 0.0


def test_nu_measure_matches_density_quadrature():
    p = ModelParams(c=1.7, r=1.0, offspring=OffspringLaw.dyadic())
    dens = lambda y: p.c**2 * y * math.exp(-p.c * y)
    for spec in ("0,1", "1,3", "0.5,2;4,6"):
        B = IntervalSet.parse(spec)
        ref = sum(quad(dens, lo, hi)[0] for lo, hi in B.intervals)
        assert nu_measure(B, p) == pytest.approx(ref, rel=1e-9), spec


@given(
    st.lists(st.floats(0.0, 50.0), min_size=4, max_size=8, unique=True)
)
@settings(max_examples=100, deadline=None)
def test_nu_finitely_additive(points):
    # Split sorted points into consecutive disjoint intervals; measure adds.
    pts = sorted(points)
    intervals = list(zip(pts[:-1], pts[1:]))
    p = dyadic_params()
    total = nu_measure(IntervalSet(tuple(intervals)), p)
    parts = math.fsum(nu_measure(IntervalSet(((lo, hi),)), p) for lo, hi in intervals)
    assert total == pytest.approx(parts, abs=1e-12)


def test_nu_cdf_endpoints():
    p = dyadic_params()
    assert nu_cdf(0.0, p) == 0.0
    assert nu_cdf(math.inf, p) == 1.0


# -- interval sets -----------------------------------------------------------


def test_interval_set_parse_and_membership():
    B = IntervalSet.parse("0,1;2,inf")
    assert B.intervals == ((0.0, 1.0), (2.0, math.inf))
    # Half-open (lo, hi]: left endpoint out, right endpoint in.
    assert list(B.indicator(np.array([0.0, 1.0, 2.0, 2.5]))) == [False, True, False, True]
    assert list(B.indicator(np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]))) == [
        False, True, True, False, False, True]


@pytest.mark.parametrize("bad", ["3,2", "1,1", "-1,2", "0,1;0.5,2", "1", "a,b"])
def test_interval_set_rejects(bad):
    with pytest.raises(ValueError):
        IntervalSet.parse(bad)


def test_interval_set_spec_roundtrip():
    for spec in ("0,1", "0.5,2;3,inf", "1,inf"):
        B = IntervalSet.parse(spec)
        assert IntervalSet.parse(B.spec_string()) == B


# -- spectral identities (quadrature against the motion kernel) --------------


@pytest.mark.parametrize("x", [0.5, 1.0, 3.0])
def test_ground_state_eigenrelation(x):
    """e^{lam t} integral p_t(x,y) h(y) dy reproduces h(x)."""
    p = dyadic_params()
    t = 1.0
    val, _ = quad(lambda y: killed_density(x, y, t, p) * ground_state_h(y, p),
                  0, x + 14 * math.sqrt(t) + p.c * t + 30, limit=200)
    lhs = math.exp(p.lambda_ * t) * val
    assert lhs == pytest.approx(ground_state_h(x, p), rel=QUAD_TOL)


@pytest.mark.parametrize("spec", ["0,1", "1,3"])
def test_nu_left_eigenmeasure(spec):
    """integral P_y(X_t in B) dnu(y) = e^{-lam t} nu(B) within 1e-5."""
    p = dyadic_params()
    t = 1.0
    B = IntervalSet.parse(spec)

    def integrand(y):
        mass = sum(killed_cdf(y, hi, t, p) - killed_cdf(y, lo, t, p)
                   for lo, hi in B.intervals)
        return p.c**2 * y * math.exp(-p.c * y) * mass

    val, _ = quad(integrand, 0, 60, limit=300)
    assert val == pytest.approx(math.exp(-p.lambda_ * t) * nu_measure(B, p), abs=EIGEN_TOL)
