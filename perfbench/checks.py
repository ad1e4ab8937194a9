"""Checks of the files a ``bbma`` command writes, against ``reference``.

Each check returns a list of ``Check`` results.  Two-sided statistical
checks allow K_SE standard errors.  The survival floors run at a fixed master
seed, so their outcome does not move from run to run; they allow K_FLOOR.
The exact checks use the tolerances the oracles state.
None compares against a stored copy of earlier output.
"""
from __future__ import annotations

import csv
import math
import os
from typing import NamedTuple

import reference as ref

K_SE = 5.0
K_FLOOR = 3.0              # one-sided survival floors, at a fixed master seed
ORACLE_REL_TOL = 1e-8      # expected_count / survival quadrature tolerance
MEAN_ONE_TOL = 1e-8
OUTER_REL_TOL = 1e-6       # second_moment_exact outer quadrature tolerance
EXACT_EXPONENT = 700.0     # x0^2/2t above this: killing is below double precision


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str


def read_csv(path: str) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def _within_se(name: str, value: float, se: float, target: float, k: float = K_SE) -> Check:
    dev = abs(value - target)
    return Check(name, bool(dev <= k * se), f"{value:.6g} vs {target:.6g}: {dev / se if se else math.inf:.2f} se")


def _at_least(name: str, value: float, bound: float) -> Check:
    return Check(name, bool(value >= bound), f"{value:.6g} >= {bound:.6g}")


def _rel_close(name: str, value: float, target: float, tol: float) -> Check:
    err = abs(value - target) / abs(target) if target else abs(value)
    return Check(name, bool(err <= tol), f"{value!r} vs {target!r}: rel {err:.3g}")


def _survival_floor(freq: float, n: int, x0: float, c: float, r: float, pmf) -> Check:
    """Surviving to the horizon is at least as likely as surviving forever."""
    p = 1.0 - ref.extinction_probability(x0, c, r, pmf)
    return _at_least("survival_vs_q", freq, p - K_FLOOR * math.sqrt(p * (1.0 - p) / n))


def census_rows(out: str) -> list[dict[str, float]]:
    return [{k: float(v) for k, v in row.items()} for row in read_csv(os.path.join(out, "censuses.csv"))]


def check_small_pop(out: str, x0: float, t: float, c: float, r: float, pmf) -> list[Check]:
    """One census at t: mean count against the many-to-one formula, mean-one D,
    and D = 0 on every extinct replicate."""
    (row,) = read_csv(os.path.join(out, "summary.csv"))
    rows = census_rows(out)
    bad = sum(1 for c_row in rows if c_row["alive"] == 0 and c_row["D"] != 0.0)
    return [
        _within_se("mean_alive", float(row["mean_alive"]), float(row["se_alive"]),
                   ref.expected_count(x0, t, 0.0, c, r, pmf)),
        _within_se("mean_D", float(row["mean_D"]), float(row["se_D"]), 1.0),
        Check("extinct_D_zero", bad == 0, f"{bad} extinct rows with D != 0"),
    ]


def check_big_cohort(out: str, x0: float, c: float, r: float, pmf) -> list[Check]:
    """Mean-one D at every census, D_trunc <= D and count_B1 <= alive on every
    row, and survival at the horizon not below 1 - q(x0)."""
    summary = read_csv(os.path.join(out, "summary.csv"))
    checks = [_within_se(f"mean_D@t={row['time']}", float(row["mean_D"]), float(row["se_D"]), 1.0)
              for row in summary]
    rows = census_rows(out)
    trunc_bad = sum(1 for row in rows if row["D_trunc"] > row["D"] * (1.0 + 1e-12))
    count_bad = sum(1 for row in rows if row["count_B1"] > row["alive"])
    checks += [
        Check("D_trunc_le_D", trunc_bad == 0, f"{trunc_bad} rows with D_trunc > D"),
        Check("count_le_alive", count_bad == 0, f"{count_bad} rows with count_B1 > alive"),
        _survival_floor(float(summary[-1]["surviving_fraction"]), int(summary[-1]["n"]), x0, c, r, pmf),
    ]
    return checks


def check_phase(out: str, x0: float, pmf) -> list[Check]:
    """Regime labels from the sign of r(mu1-1) - c^2/2; no survivor in a
    subcritical cell; supercritical survival not below 1 - q(x0)."""
    checks = []
    for row in read_csv(os.path.join(out, "summary.csv")):
        c, r = float(row["c"]), float(row["r"])
        label = ref.regime(c, r, pmf)
        checks.append(Check(f"regime@r={r:g}", row["regime"] == label, f"{row['regime']} vs {label}"))
        if label in ("subcritical", "critical"):
            checks.append(Check(f"extinct@r={r:g}", int(row["survived"]) == 0,
                                f"{row['survived']} survivors"))
        else:
            checks.append(_survival_floor(float(row["frequency"]), int(row["n"]), x0, c, r, pmf))
    return checks


def check_moments(out: str, x0: float, t: float, lo: float, c: float, r: float, pmf) -> list[Check]:
    """Closed forms for survival and E N_t([lo, inf)), mean one, and
    E[N(N-1)] between (E N)^2 - E N and the pure-branching value, equal to the
    latter where x0^2/2t > EXACT_EXPONENT."""
    values = {row["quantity"]: row["value"] for row in read_csv(os.path.join(out, "summary.csv"))}
    mu1, _ = ref.offspring_moments(pmf)
    mean = math.exp(r * (mu1 - 1.0) * t) * ref.survival(x0, t, c)
    pure = ref.factorial_moment_pure(t, r, pmf)
    fact = float(values["second_moment_exact"]) - mean
    slack = OUTER_REL_TOL * pure
    checks = [
        _rel_close("survival", float(values["survival_probability"]), ref.survival(x0, t, c), ORACLE_REL_TOL),
        _rel_close("expected_count_set", float(values["expected_count"]),
                   ref.expected_count(x0, t, lo, c, r, pmf), ORACLE_REL_TOL),
        Check("mean_one", abs(float(values["mean_one_check"]) - 1.0) <= MEAN_ONE_TOL,
              f"mean_one_check {values['mean_one_check']}"),
        Check("factorial_moment_bounds", mean * mean - mean - slack <= fact <= pure + slack,
              f"{mean * mean - mean:.6g} <= {fact:.6g} <= {pure:.6g}"),
    ]
    if x0 * x0 / (2.0 * t) > EXACT_EXPONENT:
        checks.append(_rel_close("factorial_moment_exact", fact, pure, OUTER_REL_TOL))
    return checks
