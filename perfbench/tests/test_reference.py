"""Self-checks of the reference values against independent routes."""
import math

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad, solve_ivp

import reference as ref

DYADIC = [0.0, 0.0, 1.0]


@pytest.mark.parametrize("x,t,c", [(1.0, 1.0, 1.0), (0.3, 5.0, 1.0), (2.0, 0.5, 0.7), (1.0, 1e-3, 1.0)])
def test_survival_is_inverse_gaussian_tail(x, t, c):
    # the hitting time of 0 is inverse Gaussian with mean x/c and shape x^2
    hit = stats.invgauss.cdf(t, mu=1.0 / (c * x), scale=x * x)
    assert ref.survival(x, t, c) == pytest.approx(1.0 - hit, rel=1e-9, abs=1e-15)


@pytest.mark.parametrize("x,y,t", [(1.0, 1.0, 1.0), (0.5, 2.0, 3.0), (1.0, 1.0, 1e-4)])
def test_killed_cdf_integrates_the_image_density(x, y, t):
    c = 1.0

    def density(z):
        norm = math.sqrt(2.0 * math.pi * t)
        return (math.exp(-(z - x + c * t) ** 2 / (2 * t))
                - math.exp(2 * c * x - (z + x + c * t) ** 2 / (2 * t))) / norm

    val, _ = quad(density, 0.0, y, points=[min(x, y)], epsabs=1e-14, epsrel=1e-12)
    assert ref.killed_cdf(x, y, t, c) == pytest.approx(val, rel=1e-8, abs=1e-14)
    assert ref.killed_cdf(x, 60.0, t, c) == pytest.approx(ref.survival(x, t, c), rel=1e-12)


def test_expected_count_on_the_whole_axis_is_growth_times_survival():
    assert ref.expected_count(1.0, 2.0, 0.0, 1.0, 0.6, DYADIC) == pytest.approx(
        math.exp(1.2) * ref.survival(1.0, 2.0, 1.0), rel=1e-14)


def test_pure_factorial_moment_matches_the_yule_geometric_law():
    # binary splitting at rate r: N_t is geometric with p = e^{-rt}
    r, t = 0.6, 2.0
    p = math.exp(-r * t)
    assert ref.factorial_moment_pure(t, r, DYADIC) == pytest.approx(2 * (1 - p) / p**2, rel=1e-12)


@pytest.mark.parametrize("pmf", [[0.2, 0.3, 0.5], [0.0, 0.5, 0.0, 0.5], [0.5, 0.0, 0.5]])
def test_pure_factorial_moment_solves_the_moment_odes(pmf):
    r, t = 0.8, 1.5
    mu1, mu2 = ref.offspring_moments(pmf)
    g = r * (mu1 - 1.0)
    sol = solve_ivp(lambda s, m: [g * m[0], g * m[1] + r * (mu2 - mu1) * m[0] ** 2],
                    (0.0, t), [1.0, 0.0], rtol=1e-12, atol=1e-14)
    assert ref.factorial_moment_pure(t, r, pmf) == pytest.approx(sol.y[1, -1], rel=1e-9)


def test_regime_follows_the_sign_of_the_growth_exponent():
    assert ref.regime(1.0, 0.3, DYADIC) == "subcritical"
    assert ref.regime(1.0, 0.75, DYADIC) == "supercritical"
    assert ref.regime(1.0, 1.5, DYADIC) == "L2-supercritical"
    assert ref.regime(1.0, 0.5, DYADIC) == "critical"


def _q_by_shooting(x0, c, r):
    """q(x0) from the stable manifold of q = 0, integrated toward q = 1.

    The equation is autonomous, so q(x) = Q(x - s1) where Q leaves 0 along
    e^{kappa s} and Q(s1) = 1.
    """
    kappa = c - math.sqrt(c * c + 2.0 * r)
    eps = 1e-10

    def rhs(s, y):
        return [y[1], 2.0 * (c * y[1] - r * (y[0] ** 2 - y[0]))]

    hit_one = lambda s, y: y[0] - 1.0  # noqa: E731
    hit_one.terminal = True
    sol = solve_ivp(rhs, (0.0, -60.0), [eps, kappa * eps], events=hit_one,
                    dense_output=True, rtol=1e-12, atol=1e-16)
    s1 = sol.t_events[0][0]
    return sol.sol(s1 + x0)[0]


@pytest.mark.parametrize("x0", [0.5, 1.0, 2.5])
def test_extinction_probability_matches_shooting(x0):
    assert ref.extinction_probability(x0, 1.0, 1.5, DYADIC) == pytest.approx(
        _q_by_shooting(x0, 1.0, 1.5), abs=1e-7)


def test_extinction_probability_values_and_domain():
    assert 1.0 - ref.extinction_probability(1.0, 1.0, 1.5, DYADIC) == pytest.approx(0.229, abs=5e-4)
    assert ref.extinction_probability(1.0, 1.0, 0.3, DYADIC) == 1.0
    with pytest.raises(ValueError):
        ref.extinction_probability(1.0, 1.0, 1.5, [0.1, 0.0, 0.9])
    qs = [ref.extinction_probability(x, 1.0, 1.5, DYADIC) for x in (0.25, 1.0, 4.0)]
    assert 1.0 > qs[0] > qs[1] > qs[2] > 0.0
    assert np.isfinite(qs).all()
