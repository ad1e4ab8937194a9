"""Model configuration for branching Brownian motion with drift -c and absorption at 0.

A configuration is (c, r, mu): drift magnitude c > 0 toward the origin,
branching rate r > 0, and a finitely supported offspring law mu on
{0, 1, 2, ...}.  The derived spectral quantities are

    lambda = c^2 / 2                     (decay rate of the killed motion)
    h(x)   = x e^{cx} / sqrt(2 pi lambda^2)   (ground state)
    nu(dy) = 2 lambda y e^{-cy} dy            (quasi-stationary law)

and the population growth exponent r(mu1 - 1) - lambda, whose sign separates
the subcritical/supercritical regimes.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum

import numpy as np

# Offspring pmfs must sum to 1 within this much before renormalization.
PMF_SUM_TOL = 1e-9
# Criticality is declared when |r(mu1-1) - lambda| falls below this.
CRITICAL_TOL = 1e-12

__all__ = [
    "OffspringLaw",
    "ModelParams",
    "IntervalSet",
    "Regime",
    "classify_regime",
    "ground_state_h",
    "nu_cdf",
    "nu_measure",
    "offspring_moments",
    "parse_offspring",
]


def offspring_moments(pmf: dict[int, float]) -> tuple[float, float, float]:
    """First moment, second moment, and variance of a child-count pmf.

    Rejects negative probabilities, non-integer or negative child counts,
    and pmfs whose mass differs from 1 by more than PMF_SUM_TOL.
    """
    if not pmf:
        raise ValueError("offspring pmf is empty")
    for k, p in pmf.items():
        if int(k) != k or k < 0:
            raise ValueError(f"offspring count must be a nonnegative integer, got {k!r}")
        if p < 0:
            raise ValueError(f"negative probability {p!r} for offspring count {k}")
    total = math.fsum(pmf.values())
    if abs(total - 1.0) > PMF_SUM_TOL:
        raise ValueError(f"offspring probabilities sum to {total!r}, not 1")
    mu1 = math.fsum(k * p for k, p in pmf.items()) / total
    mu2 = math.fsum(k * k * p for k, p in pmf.items()) / total
    return mu1, mu2, mu2 - mu1 * mu1


@dataclass(frozen=True)
class OffspringLaw:
    """Finitely supported child-count law with precomputed moments."""

    pmf: tuple[tuple[int, float], ...]
    mu1: float
    mu2: float

    @classmethod
    def from_pmf(cls, pmf: dict[int, float]) -> "OffspringLaw":
        mu1, mu2, _ = offspring_moments(pmf)
        total = math.fsum(pmf.values())
        # Drop zero-mass atoms and renormalize exactly so stored mass is 1.
        items = tuple(sorted((int(k), p / total) for k, p in pmf.items() if p > 0))
        return cls(pmf=items, mu1=mu1, mu2=mu2)

    @classmethod
    def dyadic(cls) -> "OffspringLaw":
        """Deterministic binary splitting, delta_2."""
        return cls.from_pmf({2: 1.0})

    @property
    def variance(self) -> float:
        return self.mu2 - self.mu1 * self.mu1

    @property
    def support(self) -> np.ndarray:
        return np.array([k for k, _ in self.pmf], dtype=np.int64)

    @property
    def probs(self) -> np.ndarray:
        return np.array([p for _, p in self.pmf], dtype=np.float64)

    def as_dict(self) -> dict[int, float]:
        return dict(self.pmf)

    def __post_init__(self) -> None:
        total = math.fsum(p for _, p in self.pmf)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"stored offspring pmf mass {total!r} differs from 1")
        if self.mu2 < self.mu1 * self.mu1 - 1e-15:
            raise ValueError("second moment below squared first moment")


_PMF_RE = re.compile(r"^pmf:(.+)$")


def parse_offspring(text: str) -> OffspringLaw:
    """Parse an offspring spec: 'dyadic' or 'pmf:p0,p1,p2,...'."""
    text = text.strip()
    if text == "dyadic":
        return OffspringLaw.dyadic()
    m = _PMF_RE.match(text)
    if m is None:
        raise ValueError(f"unrecognized offspring spec {text!r} (expected 'dyadic' or 'pmf:p0,p1,...')")
    try:
        probs = [float(tok) for tok in m.group(1).split(",")]
    except ValueError as exc:
        raise ValueError(f"malformed pmf in offspring spec {text!r}: {exc}") from None
    return OffspringLaw.from_pmf({k: p for k, p in enumerate(probs)})


@dataclass(frozen=True)
class ModelParams:
    """The (c, r, mu) configuration."""

    c: float
    r: float
    offspring: OffspringLaw

    def __post_init__(self) -> None:
        if not (self.c > 0 and math.isfinite(self.c)):
            raise ValueError(f"drift c must be positive and finite, got {self.c!r}")
        if not (self.r > 0 and math.isfinite(self.r)):
            raise ValueError(f"branch rate r must be positive and finite, got {self.r!r}")

    @property
    def lambda_(self) -> float:
        return self.c * self.c / 2.0

    @property
    def growth_exponent(self) -> float:
        return self.r * (self.offspring.mu1 - 1.0) - self.lambda_


class Regime(str, Enum):
    SUBCRITICAL = "subcritical"
    CRITICAL = "critical"
    SUPERCRITICAL = "supercritical"
    L2_SUPERCRITICAL = "L2-supercritical"


def classify_regime(params: ModelParams) -> Regime:
    """Criticality class of the dynamics.

    Supercritical iff r(mu1-1) > lambda, with the finer L2 label when
    r(mu1-1) > 2 lambda (the additive martingale is then L2-bounded).
    """
    drift_rate = params.r * (params.offspring.mu1 - 1.0)
    lam = params.lambda_
    if abs(drift_rate - lam) <= CRITICAL_TOL:
        return Regime.CRITICAL
    if drift_rate > 2.0 * lam:
        return Regime.L2_SUPERCRITICAL
    if drift_rate > lam:
        return Regime.SUPERCRITICAL
    return Regime.SUBCRITICAL


def ground_state_h(x, params: ModelParams):
    """Ground state h(x) = x e^{cx} / sqrt(2 pi lambda^2); h(0) = 0."""
    x = np.asarray(x, dtype=np.float64)
    lam = params.lambda_
    out = x * np.exp(params.c * x) / math.sqrt(2.0 * math.pi * lam * lam)
    return float(out) if out.ndim == 0 else out


def nu_cdf(a, params: ModelParams):
    """CDF of the quasi-stationary law: F(a) = 1 - (1 + ca) e^{-ca}."""
    a = np.asarray(a, dtype=np.float64)
    ca = params.c * a
    with np.errstate(invalid="ignore"):
        out = np.where(np.isposinf(a), 1.0, 1.0 - (1.0 + ca) * np.exp(-ca))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class IntervalSet:
    """Finite union of disjoint half-open intervals (lo, hi] in (0, +inf)."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        ordered = tuple(sorted((float(lo), float(hi)) for lo, hi in self.intervals))
        for lo, hi in ordered:
            if math.isnan(lo) or math.isnan(hi):
                raise ValueError("interval endpoint is NaN")
            if lo < 0:
                raise ValueError(f"interval ({lo}, {hi}] starts below 0")
            if not lo < hi:
                raise ValueError(f"empty or inverted interval ({lo}, {hi}]")
        for (_, hi1), (lo2, _) in zip(ordered, ordered[1:]):
            if hi1 > lo2:
                raise ValueError(f"overlapping intervals near ({lo2}, ...]")
        object.__setattr__(self, "intervals", ordered)

    @classmethod
    def parse(cls, text: str) -> "IntervalSet":
        """Parse 'a,b;c,d' with 'inf' allowed as an upper endpoint."""
        text = text.strip()
        if not text:
            return cls(())
        intervals = []
        for piece in text.split(";"):
            parts = piece.split(",")
            if len(parts) != 2:
                raise ValueError(f"malformed interval {piece!r} (expected 'lo,hi')")
            try:
                lo = float(parts[0])
                hi = math.inf if parts[1].strip() in ("inf", "+inf") else float(parts[1])
            except ValueError:
                raise ValueError(f"malformed interval endpoint in {piece!r}") from None
            intervals.append((lo, hi))
        return cls(tuple(intervals))

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls(())

    @classmethod
    def positive_axis(cls) -> "IntervalSet":
        return cls(((0.0, math.inf),))

    def indicator(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized membership for an array of positions."""
        xs = np.asarray(xs, dtype=np.float64)
        out = np.zeros(xs.shape, dtype=bool)
        for lo, hi in self.intervals:
            out |= (xs > lo) & (xs <= hi)
        return out

    def spec_string(self) -> str:
        return ";".join(
            f"{lo:.17g},{'inf' if math.isinf(hi) else format(hi, '.17g')}"
            for lo, hi in self.intervals
        )


def nu_measure(B: IntervalSet, params: ModelParams) -> float:
    """nu(B) for a finite union of disjoint intervals, in closed form."""
    return float(math.fsum(nu_cdf(hi, params) - nu_cdf(lo, params) for lo, hi in B.intervals))
