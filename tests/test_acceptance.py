"""Whole-package acceptance contracts, one test per shipped guarantee.

Each test computes its verdict, prints exactly one summary line
(`acceptance NN PASS/FAIL: ...`, visible under `pytest -v -s` and in the
captured output of any failing test), and then asserts both the contract
and a wall-clock budget.  Statistical contracts run at pinned seeds; the
3-sigma margins refer to the Monte Carlo standard error of the tested
quantity, so a pass is a property of the sampler, not of the seed.

Tests are numbered to fix the execution order and keep `pytest -v`
output readable as a checklist.
"""

from __future__ import annotations

import hashlib
import math
import time

import numpy as np
import pytest
from scipy import integrate, stats

from bbma import (
    IntervalSet,
    ModelParams,
    OffspringLaw,
    expected_count,
    extinction_probability,
    second_moment_exact,
    spine_second_moment_mc,
    survival_probability,
)
from bbma.cli import main
from bbma.engine import CERTIFY_EPS, run_replicate, spawn_rng_stream
from bbma.experiments import (
    SIGNIFICANCE,
    experiment_empirical_qsd,
    experiment_kesten,
    experiment_phase_diagram,
    experiment_truncation,
    verify_samplers,
)
from bbma.kernel import asymptotic_error_bounds, first_passage_density, survival_prefactor_error

REF = ModelParams(c=1.0, r=1.5, offspring=OffspringLaw.dyadic())
# r(mu1 - 1) - c^2/2 = +0.1: supercritical, growing slowly enough that
# short horizons keep its populations small
MILD_SUPERCRIT = ModelParams(c=1.0, r=0.6, offspring=OffspringLaw.dyadic())
AXIS = IntervalSet.positive_axis()

X_GRID = (0.5, 1.0, 2.0, 5.0)


def _verdict(num: int, name: str, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"acceptance {num:02d} {status}: {name}; {detail} "
          f"({elapsed:.1f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"{name}: runtime {elapsed:.1f}s over budget {budget:.0f}s"
    assert ok, f"{name}: {detail}"


def test_01_survival_quadrature_matches_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    for x in X_GRID:
        for t in (0.5, 1.0, 3.0, 8.0):
            absorbed, _ = integrate.quad(
                lambda s: float(first_passage_density(x, s, REF)),
                0.0, t, epsabs=1e-14, epsrel=1e-12, limit=200,
            )
            closed = float(survival_probability(x, t, REF))
            worst = max(worst, abs((1.0 - absorbed) - closed) / closed)
    elapsed = time.perf_counter() - t0
    _verdict(1, "first-passage quadrature vs closed-form survival",
             worst <= 1e-8, f"max rel err {worst:.2e} on 16-point grid", elapsed, 1.0)


def test_02_sampler_ks_fidelity():
    t0 = time.perf_counter()
    rep = verify_samplers(REF, 10**5, 811)
    elapsed = time.perf_counter() - t0
    suites = rep.aggregates["suites"]
    ok = (rep.passed and suites["hitting_time_ks"] and suites["killed_position_ks"])
    detail = "n=1e5 suites " + " ".join(f"{k}={v}" for k, v in suites.items())
    _verdict(2, "sampler KS fidelity at significance 0.01", ok, detail, elapsed, 30.0)


def test_03_mean_count_matches_first_moment_oracle():
    t0 = time.perf_counter()
    grid = [1.0, 2.0, 5.0]
    n = 10**4
    alive = np.empty((n, len(grid)))
    for i in range(n):
        res = run_replicate(MILD_SUPERCRIT, 1.0, grid[-1], grid,
                            spawn_rng_stream(812, i), checkpoint_chains=False)
        alive[i] = res.trace.n_alive
    zmax = 0.0
    for j, t in enumerate(grid):
        exact = expected_count(1.0, t, AXIS, MILD_SUPERCRIT)
        se = alive[:, j].std(ddof=1) / math.sqrt(n)
        zmax = max(zmax, abs(alive[:, j].mean() - exact) / se)
    elapsed = time.perf_counter() - t0
    _verdict(3, "mean population vs first-moment oracle",
             zmax <= 3.0, f"n=1e4 t grid {grid} max |z| {zmax:.2f}", elapsed, 120.0)


def test_04_second_moment_engine_oracle_and_spine_agree():
    t0 = time.perf_counter()
    n = 10**5
    sq = np.empty(n)
    for i in range(n):
        res = run_replicate(MILD_SUPERCRIT, 1.0, 1.0, [1.0],
                            spawn_rng_stream(823, i), checkpoint_chains=False)
        sq[i] = float(res.trace.n_alive[-1]) ** 2
    exact = second_moment_exact(1.0, 1.0, MILD_SUPERCRIT)
    z_engine = abs(sq.mean() - exact) / (sq.std(ddof=1) / math.sqrt(n))

    est, se = spine_second_moment_mc(1.0, 1.0, AXIS, AXIS, MILD_SUPERCRIT, 10**6,
                                     spawn_rng_stream(814, 0))
    z_spine = abs(est - exact) / se
    elapsed = time.perf_counter() - t0
    ok = z_engine <= 3.0 and z_spine <= 3.0
    _verdict(4, "second moment: engine vs oracle vs two-spine MC", ok,
             f"exact {exact:.4f} |z_engine| {z_engine:.2f} |z_spine| {z_spine:.2f}",
             elapsed, 300.0)


def test_05_martingale_mean_one_and_extinct_zero():
    t0 = time.perf_counter()
    grid = [1.0, 3.0, 6.0]
    n = 10**4
    d = np.empty((n, len(grid)))
    final_alive = np.empty(n, dtype=np.int64)
    for i in range(n):
        res = run_replicate(REF, 1.0, grid[-1], grid,
                            spawn_rng_stream(815, i), checkpoint_chains=False)
        d[i] = res.trace.d
        final_alive[i] = res.trace.n_alive[-1]
    zmax = max(
        abs(d[:, j].mean() - 1.0) / (d[:, j].std(ddof=1) / math.sqrt(n))
        for j in range(len(grid))
    )
    extinct = final_alive == 0
    extinct_zero = bool(np.all(d[extinct, -1] == 0.0)) if extinct.any() else True
    elapsed = time.perf_counter() - t0
    ok = zmax <= 3.0 and extinct_zero
    _verdict(5, "additive martingale mean one, extinct mass exactly zero", ok,
             f"n=1e4 t grid {grid} max |z| {zmax:.2f} "
             f"extinct D==0 {extinct_zero} ({int(extinct.sum())} extinct)",
             elapsed, 180.0)


def test_06_survival_prefactor_within_stated_envelope():
    t0 = time.perf_counter()
    bad = []
    for x in X_GRID:
        for t in (2.0, 5.0, 10.0, 50.0):
            eps = survival_prefactor_error(x, t, REF)
            lo, hi, _ = asymptotic_error_bounds(x, t, AXIS, REF)
            if not (lo <= eps <= hi):
                bad.append((x, t, float(eps), lo))
    elapsed = time.perf_counter() - t0
    detail = (f"{len(bad)}/16 grid points violate "
              f"[e^(-x^2/2t)(1-3/(2t))-1, 0]; first {bad[0] if bad else None}")
    _verdict(6, "survival prefactor inside unscaled 3/(2t) envelope",
             not bad, detail, elapsed, 1.0)


def test_07_normalized_count_gap_shrinks_and_meets_pilot():
    t0 = time.perf_counter()
    rep = experiment_kesten(REF, 1.0, ["1,inf"], 10.0, 2000, 816)
    elapsed = time.perf_counter() - t0
    pc = rep.aggregates["per_census"]
    key = rep.aggregates["judged_set"]
    mean_mid = pc[1]["sets"][key]["mean_abs_gap"]["value"]
    mean_fin = pc[-1]["sets"][key]["mean_abs_gap"]["value"]
    med_fin = pc[-1]["sets"][key]["median_abs_gap"]["value"]
    cut = rep.thresholds["median_abs_gap_final_max"]
    _verdict(7, "normalized-count gap shrinks and final median under pilot value",
             rep.passed,
             f"mean gap t=5 {mean_mid:.3f} -> t=10 {mean_fin:.3f}, "
             f"median t=10 {med_fin:.3f} <= {cut}", elapsed, 600.0)


def test_08_empirical_law_ks_decreases_to_pilot():
    t0 = time.perf_counter()
    rep = experiment_empirical_qsd(REF, 1.0, 12.0, 500, 817)
    elapsed = time.perf_counter() - t0
    med = [row["median_ks"]["value"] for row in rep.aggregates["per_census"]]
    cut = rep.thresholds["median_ks_final_max"]
    _verdict(8, "surviving-population law: median KS decreasing to pilot value",
             rep.passed,
             f"last three medians {[round(v, 4) for v in med[-3:]]} final <= {cut}",
             elapsed, 600.0)


def test_09_truncation_gap_decay_envelope_fit():
    t0 = time.perf_counter()
    rep = experiment_truncation(REF, 1.0, 6.0, [1.0, 2.0, 3.0, 4.0], 2000, 819)
    elapsed = time.perf_counter() - t0
    means = [m["value"] for m in rep.aggregates["mean_gap_D"]]
    _verdict(9, "window-restriction gap nonincreasing with log-quadratic fit R2>0.9",
             rep.passed,
             f"mean gaps {[f'{v:.3g}' for v in means]} monotone "
             f"{rep.aggregates['pointwise_monotone']} "
             f"R2 {rep.aggregates['log_fit_r2']:.4f} "
             f"slope {rep.aggregates['log_fit_slope']:.3f}", elapsed, 300.0)


def test_10_phase_diagram_extinction_vs_survival():
    t0 = time.perf_counter()
    rep = experiment_phase_diagram([1.0], [0.3, 1.5], OffspringLaw.dyadic(),
                                   1.0, 100.0, 500, 818)
    elapsed = time.perf_counter() - t0
    cells = rep.aggregates["cells"]
    detail = " | ".join(
        f"{c['regime']} freq {c['frequency']:.3f} h_eff {c['horizon']:.3g}"
        + (f" p {c['binomial_p']:.2e}" if "binomial_p" in c else "")
        for c in cells
    )
    _verdict(10, "phase diagram: subcritical dies out, supercritical survives",
             rep.passed, detail, elapsed, 300.0)


@pytest.mark.parametrize("seed", [818, 2024, 31337, 4242])
def test_12_certified_survival_fraction_matches_kesten_q(seed):
    # Acceptance 10's grid; seed 818 is its run, the others are independent.
    # A certificate is wrong (the replicate dies out after all) with
    # probability below CERTIFY_EPS, so the n certificates carry n CERTIFY_EPS
    # of slack: the two-sided test keeps the larger p-value over the null's
    # ends 1 - q(x0) and 1 - q(x0) + CERTIFY_EPS.  Eventual survivors still
    # uncertified at the cell's horizon bias the count low; they are not in
    # the slack (1 of 131 survivors at seed 818).
    t0 = time.perf_counter()
    rep = experiment_phase_diagram([1.0], [0.3, 1.5], OffspringLaw.dyadic(),
                                   1.0, 100.0, 500, seed)
    elapsed = time.perf_counter() - t0
    cell = rep.aggregates["cells"][1]
    n, k = cell["n"], cell["certified"]
    p_survive = 1.0 - extinction_probability(1.0, REF)
    pval = max(stats.binomtest(k, n, p).pvalue for p in (p_survive, p_survive + CERTIFY_EPS))
    detail = (f"seed {seed}: certified {k}/{n} (survived {cell['survived']}) "
              f"vs 1 - q(1) = {p_survive:.4f}, two-sided p {pval:.3f}")
    _verdict(12, "certified survival fraction matches Kesten's 1 - q(x0)",
             pval >= SIGNIFICANCE, detail, elapsed, 60.0)


def _tree_digest(root) -> dict:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def test_11_cli_outputs_bit_reproducible(tmp_path, capsys):
    base = ["--c", "1", "--r", "1.5", "--offspring", "dyadic"]
    sub = ["--c", "1", "--r", "0.6", "--offspring", "dyadic"]
    cases = {
        "simulate": base + ["--x0", "1", "--horizon", "3", "--census-dt", "1",
                            "--replicates", "5", "--seed", "101"],
        "moments": sub + ["--x0", "1", "--horizon", "2", "--seed", "0"],
        "verify": base + ["--replicates", "2000", "--seed", "5"],
        "kesten": base + ["--x0", "1", "--horizon", "4", "--replicates", "20",
                          "--seed", "13", "--set", "0,1"],
        "phase": base + ["--c-grid", "1", "--r-grid", "0.3,1.5", "--x0", "1",
                         "--horizon", "30", "--replicates", "30", "--seed", "17"],
        "schedule": ["--c", "1", "--r", "1.5", "--offspring", "dyadic",
                     "--k-max", "10", "--seed", "0"],
    }
    t0 = time.perf_counter()
    stable = True
    detail_parts = []
    for cmd, flags in cases.items():
        out = tmp_path / cmd
        argv = [cmd, *flags, "--out", str(out)]
        rc1 = main(argv)
        text1 = capsys.readouterr()
        d1 = _tree_digest(out)
        rc2 = main(argv)  # rerun into the same directory
        text2 = capsys.readouterr()
        d2 = _tree_digest(out)
        same = rc1 == rc2 and d1 == d2 and text1 == text2 and len(d1) > 0
        stable = stable and same
        detail_parts.append(f"{cmd}:{'ok' if same else 'DIFFERS'}({len(d1)} files)")
    elapsed = time.perf_counter() - t0
    _verdict(11, "every command byte-identical on same-seed rerun",
             stable, " ".join(detail_parts), elapsed, 60.0)
