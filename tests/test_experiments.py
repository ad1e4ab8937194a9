"""Experiment-layer tests: frozen pilot thresholds, contract verdicts on
pinned seeds, degenerate-input paths, schedule diagnostics, and the sampler
verification suites (including the injected faults that prove they can
fail)."""

import functools
import hashlib
import json
import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbma import experiments
from bbma.experiments import (
    DESK_POP_CAP,
    experiment_empirical_qsd,
    experiment_kesten,
    experiment_martingale,
    experiment_phase_diagram,
    experiment_truncation,
    load_thresholds,
    tk_schedule,
    tk_schedule_report,
    verify_samplers,
    _ks_distance,
)
from bbma.engine import run_replicate, spawn_rng_stream, truncation_flags_for
from bbma.model import IntervalSet, ModelParams, OffspringLaw, ground_state_h, parse_offspring
from bbma.oracles import expected_count, expected_count_asymptotic

REF = ModelParams(c=1.0, r=1.5, offspring=OffspringLaw.dyadic())

# Deterministic t=0 value: a single particle at x0=1 against the stationary
# CDF F(a) = 1-(1+a)e^{-a}, so KS = max(F(1), 1-F(1)) = 1-2/e.
QSD_T0_KS = 0.7357588823428847

# Schedule row k=2: ((log 2)^10 + (log 2)^4, (log 2)^4, log 2).
TK_K2 = (0.25643596187264656, 0.23083509858308343, 0.6931471805599453)
TK_TURNOVER_10K = 8104
TK_PSUM_10K = 1.3047025723872534


# ---------------------------------------------------------------------------
# frozen pilot thresholds
# ---------------------------------------------------------------------------


def test_thresholds_frozen_values():
    th = load_thresholds()
    assert th["kesten"]["median_abs_gap_final"] == 0.32
    assert th["qsd"]["median_ks_final"] == 0.15
    assert th["martingale"]["small_d_fraction"] == 0.065
    assert th["truncation"]["log_fit_r2_min"] == 0.9
    assert th["pilot"]["seed"] == 20260819


# ---------------------------------------------------------------------------
# normalized-count convergence (Kesten-type trend)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def kesten_report():
    return experiment_kesten(REF, 1.0, ["1,inf"], 10.0, 500, 11)


def test_kesten_contract_at_pinned_seed(kesten_report):
    rep = kesten_report
    assert rep.passed
    assert rep.aggregates["judged_set"] == "1,inf"
    per = rep.aggregates["per_census"]
    final, mid = per[-1]["sets"]["1,inf"], per[1]["sets"]["1,inf"]
    assert final["median_abs_gap"]["value"] <= rep.thresholds["median_abs_gap_final_max"]
    assert final["mean_abs_gap"]["value"] < mid["mean_abs_gap"]["value"]
    assert rep.thresholds["median_abs_gap_final_max"] == load_thresholds()["kesten"]["median_abs_gap_final"]
    assert 0.0 < per[-1]["surviving_fraction"]["value"] < 1.0
    assert rep.n_events > 0


def test_kesten_counts_additive_over_disjoint_sets():
    # same paths feed every set, so counts must add exactly, not in law
    rep = experiment_kesten(REF, 1.0, ["0,1", "1,inf", "0,inf"], 6.0, 40, 13)
    cnt = np.array([rec["counts"] for rec in rep.replicate_records])
    assert np.array_equal(cnt[:, :, 0] + cnt[:, :, 1], cnt[:, :, 2])
    rep2 = experiment_kesten(REF, 1.0, ["0,1", "1,inf", "0,inf"], 6.0, 40, 13)
    assert json.dumps(rep.canonical_dict(), sort_keys=True) == json.dumps(
        rep2.canonical_dict(), sort_keys=True
    )


def test_kesten_axis_mean_matches_prefactor_bias():
    # On B=(0,inf) the predictor is D itself, and E[R - D] equals the
    # finite-t prefactor error EC/EC_asy - 1 exactly; test against that,
    # not against zero (the bias is ~-0.66 at t=1.5 and decays like 1/t).
    rep = experiment_kesten(REF, 1.0, ["0,inf"], 6.0, 400, 71)
    B = IntervalSet.positive_axis()
    for row in rep.aggregates["per_census"]:
        t = row["time"]
        eps = expected_count(1.0, t, B, REF) / expected_count_asymptotic(1.0, t, B, REF) - 1.0
        cell = row["sets"]["0,inf"]["mean_R_minus_pred_all"]
        assert abs(cell["value"] - eps) <= 3.0 * cell["stderr"]


def test_kesten_rejects_subcritical():
    sub = ModelParams(c=1.0, r=0.3, offspring=OffspringLaw.dyadic())
    with pytest.raises(ValueError, match="supercritical"):
        experiment_kesten(sub, 1.0, ["1,inf"], 10.0, 10, 0)


def test_kesten_desk_cap_refusal():
    rep = experiment_kesten(REF, 1.0, ["1,inf"], 20.0, 5, 3)
    assert not rep.passed
    assert "infeasible" in rep.aggregates["message"]
    assert rep.replicate_records == []
    assert expected_count_asymptotic(1.0, 20.0, IntervalSet.positive_axis(), REF) > DESK_POP_CAP


def test_kesten_overflowing_horizon_is_infeasible(monkeypatch):
    # e^{gt} overflows at t = 1000: far above the desk cap, not an error
    def no_run(*args, **kw):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr(experiments, "run_replicate", no_run)
    rep = experiment_kesten(REF, 1.0, ["1,inf"], 1000.0, 5, 3)
    assert not rep.passed
    assert "infeasible at desk scale" in rep.aggregates["message"]
    assert rep.replicate_records == []


def test_kesten_zero_survivors_message():
    rep = experiment_kesten(REF, 0.004, ["1,inf"], 10.0, 12, 7)
    assert not rep.passed
    assert "survived" in rep.aggregates["message"]


# ---------------------------------------------------------------------------
# empirical one-particle distribution vs the stationary profile
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def qsd_report():
    return experiment_empirical_qsd(REF, 1.0, 12.0, 200, 23)


def test_qsd_initial_census_is_deterministic(qsd_report):
    row = qsd_report.aggregates["per_census"][0]
    assert row["time"] == 0.0
    assert row["surviving_fraction"]["value"] == 1.0
    assert row["median_ks"]["value"] == QSD_T0_KS
    assert row["mean_ks"]["value"] == pytest.approx(QSD_T0_KS, rel=1e-15)
    assert row["mean_ks"]["stderr"] == 0.0
    assert _ks_distance(np.array([1.0]), REF) == QSD_T0_KS


def test_qsd_contract_at_pinned_seed(qsd_report):
    rep = qsd_report
    assert rep.passed
    med = [row["median_ks"]["value"] for row in rep.aggregates["per_census"]]
    assert med[-1] < med[-2] < med[-3]
    assert med[-1] <= rep.thresholds["median_ks_final_max"] == 0.15
    assert rep.aggregates["n_survivors_final"] > 0


def test_qsd_zero_survivors_message():
    rep = experiment_empirical_qsd(REF, 0.004, 12.0, 12, 7)
    assert not rep.passed
    assert "survived" in rep.aggregates["message"]


def test_qsd_rejects_critical():
    crit = ModelParams(c=1.0, r=0.5, offspring=OffspringLaw.dyadic())
    with pytest.raises(ValueError, match="supercritical"):
        experiment_empirical_qsd(crit, 1.0, 4.0, 10, 0)


# ---------------------------------------------------------------------------
# additive martingale diagnostics
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def martingale_report():
    return experiment_martingale(REF, 1.0, [1.0, 3.0, 6.0], [10.0, 100.0], 2000, 59)


def test_martingale_contract_at_pinned_seed(martingale_report):
    rep = martingale_report
    assert rep.passed
    assert set(rep.aggregates["mean_D"]) == {"1", "3", "6"}
    assert all(z <= 3.0 for z in rep.aggregates["mean_one_z"].values())
    assert rep.aggregates["extinct_d_exactly_zero"]
    small = rep.aggregates["small_d_fraction_survivors"]
    assert small["n"] > 0
    assert small["value"] <= rep.thresholds["small_d_fraction_max"] == 0.065


def test_martingale_tail_mass_decreases_in_cutoff(martingale_report):
    tail = martingale_report.aggregates["tail_mass_final"]
    assert tail["10"]["value"] >= tail["100"]["value"] >= 0.0


def test_martingale_zero_stderr_fails_instead_of_crashing():
    """From x0 = 0.001 all three replicates die out, so D = 0 at every census
    with a standard error of 0: the mean-one z is inf and the check fails."""
    rep = experiment_martingale(REF, 0.001, [1, 2], [1], 3, 1)
    assert rep.aggregates["mean_D"]["1"] == {"value": 0.0, "stderr": 0.0, "n": 3}
    assert rep.aggregates["mean_one_z"] == {"1": math.inf, "2": math.inf}
    assert not rep.passed


def test_martingale_rejects_subcritical():
    sub = ModelParams(c=1.0, r=0.2, offspring=OffspringLaw.dyadic())
    with pytest.raises(ValueError, match="supercritical"):
        experiment_martingale(sub, 1.0, [1.0], [10.0], 10, 0)


# ---------------------------------------------------------------------------
# truncation-window error decay
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def truncation_report():
    # x0=0.5 keeps every window size measurable at desk scale: escape
    # probabilities for M in [0.9, 1.8] span ~0.9 down to ~1e-3
    return experiment_truncation(REF, 0.5, 4.0, [0.9, 1.2, 1.5, 1.8], 800, 43)


def test_truncation_contract_in_measurable_regime(truncation_report):
    rep = truncation_report
    assert rep.passed
    assert rep.aggregates["pointwise_monotone"]
    assert rep.aggregates["log_fit_slope"] < 0.0
    assert rep.aggregates["log_fit_r2"] >= rep.thresholds["log_fit_r2_min"] == 0.9
    gaps = [row["value"] for row in rep.aggregates["mean_gap_D"]]
    assert gaps[0] > gaps[1] > gaps[2] >= gaps[3] >= 0.0


def test_truncation_gaps_nested_per_replicate(truncation_report):
    gd = np.array([rec["gap_D"] for rec in truncation_report.replicate_records])
    gn = np.array([rec["gap_N"] for rec in truncation_report.replicate_records])
    assert np.all(np.diff(gd, axis=1) <= 1e-12)
    assert np.all(np.diff(gn, axis=1) <= 1e-12)
    assert np.all(gd >= -1e-12) and np.all(gn >= -1e-12)


def test_truncation_bracket_dominates_checkpoint_only_gaps(truncation_report):
    """Rao-Blackwellized gaps never fall below the checkpoint-only gaps of
    the same paths: a particle flagged at a checkpoint escapes with
    conditional probability 1, every other one with probability >= 0."""
    rep = truncation_report
    M_list = rep.aggregates["M_list"]
    ec = expected_count(0.5, 4.0, IntervalSet.positive_axis(), REF)
    scale = math.exp(-REF.growth_exponent * 4.0) / ground_state_h(0.5, REF)
    for rec in rep.replicate_records:
        res = run_replicate(REF, 0.5, 4.0, [4.0], spawn_rng_stream(43, rec["replicate"]),
                            checkpoint_chains=True)
        hvals = ground_state_h(res.censuses[-1].alive_positions, REF)
        d = res.trace.d[-1]
        for j, M in enumerate(M_list):
            flags = truncation_flags_for(res.censuses, M)[-1]
            old_d = d - float(np.sum(hvals, where=flags)) * scale
            old_n = (flags.size - int(flags.sum())) / ec
            tol = 1e-12 * (1.0 + d)
            assert rec["gap_D_lower"][j] >= old_d - tol
            assert rec["gap_N_lower"][j] >= old_n - 1e-12
            assert rec["gap_D_lower"][j] <= rec["gap_D"][j] <= rec["gap_D_upper"][j]
            assert rec["gap_N_lower"][j] <= rec["gap_N"][j] <= rec["gap_N_upper"][j]
    for row in rep.aggregates["mean_gap_D"] + rep.aggregates["mean_gap_N"]:
        assert row["lower"] <= row["value"] <= row["upper"]
        assert row["width"] == pytest.approx(row["upper"] - row["lower"])
    for end in ("lower", "upper"):
        fit = rep.aggregates["log_fit"][end]
        assert fit["r2"] >= rep.aggregates["log_fit_r2"]
        assert fit["slope"] <= rep.aggregates["log_fit_slope"]


def test_truncation_vacuous_window_has_zero_gaps():
    rep = experiment_truncation(REF, 1.0, 2.0, [50.0, 60.0], 20, 3)
    gd = np.array([rec["gap_D"] for rec in rep.replicate_records])
    gn = np.array([rec["gap_N"] for rec in rep.replicate_records])
    assert np.all(gd == 0.0) and np.all(gn == 0.0)
    assert rep.aggregates["pointwise_monotone"]
    # no positive gap means no decay to fit: the experiment must refuse to
    # call that a pass rather than report a vacuous R^2
    assert math.isnan(rep.aggregates["log_fit_r2"])
    assert not rep.passed


# ---------------------------------------------------------------------------
# survival phase diagram
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def phase_report():
    return experiment_phase_diagram(
        [1.0], [0.3, 1.5], OffspringLaw.dyadic(), 1.0, 60.0, 60, 17
    )


def test_phase_diagram_cell_contracts(phase_report):
    rep = phase_report
    assert rep.passed
    sub, sup = rep.aggregates["cells"]
    assert sub["regime"] == "subcritical"
    assert sub["frequency"] <= rep.thresholds["extinction_freq_max"]
    assert sub["horizon"] == 60.0
    assert sup["regime"] == "L2-supercritical"
    assert sup["horizon"] < 60.0  # trimmed to desk scale
    assert sup["growth_factor"] >= rep.thresholds["min_growth_factor"]
    assert sup["binomial_p"] < rep.thresholds["binomial_significance"]


def test_phase_survival_nondecreasing_in_r(phase_report):
    sub, sup = phase_report.aggregates["cells"]
    se = 2.0 * math.sqrt(max(sup["frequency"] * (1 - sup["frequency"]) / sup["n"], 1e-12))
    assert sub["frequency"] <= sup["frequency"] + se


def test_phase_flags_uninformative_horizon():
    rep = experiment_phase_diagram([1.0], [1.5], OffspringLaw.dyadic(), 1.0, 1.0, 10, 5)
    cell = rep.aggregates["cells"][0]
    assert not cell["feasible"]
    assert not cell["ok"]
    assert "horizon too short" in cell["message"]
    assert not rep.passed


def _effective_horizon_200(params, x0, horizon):
    """_effective_horizon as first written: always 200 bisection steps."""
    t = float(horizon)
    if expected_count_asymptotic(x0, t, IntervalSet.positive_axis(), params) <= DESK_POP_CAP:
        return t
    lo, hi = 1e-3, t
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if expected_count_asymptotic(x0, mid, IntervalSet.positive_axis(), params) <= DESK_POP_CAP:
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("r", [1.5, 4.0, 40.0])
def test_effective_horizon_equals_full_bisection(c, r):
    """The bisection that stops once lo and hi are adjacent returns the
    200-step result bit for bit."""
    p = ModelParams(c=c, r=r, offspring=OffspringLaw.dyadic())
    for x0 in (0.01, 1.0, 7.0):
        for horizon in (0.5, 3.0, 15.0, 600.0 / r):
            got = experiments._effective_horizon(p, x0, horizon)
            assert float.hex(got) == float.hex(_effective_horizon_200(p, x0, horizon)), (x0, horizon)


def test_effective_horizon_stops_when_converged(monkeypatch):
    """On the phase workload's supercritical cell the bisection converges
    after 56 halvings; it no longer pays for the remaining 144."""
    calls = []

    def counted(*args):
        calls.append(args[1])
        return expected_count_asymptotic(*args)
    monkeypatch.setattr(experiments, "expected_count_asymptotic", counted)
    t = experiments._effective_horizon(REF, 1.0, 100.0)
    assert len(calls) <= 60, len(calls)
    assert t == _effective_horizon_200(REF, 1.0, 100.0)


def test_effective_horizon_treats_overflow_as_above_cap():
    """At r = 40 the growth factor e^{gt} overflows for t > 18: the bisection
    reads that as a population above the cap and ends at the desk horizon,
    the last float where the expected count is within it."""
    p = ModelParams(c=1.0, r=40.0, offspring=OffspringLaw.dyadic())
    axis = IntervalSet.positive_axis()
    with pytest.raises(OverflowError):
        expected_count_asymptotic(1.0, 1000.0, axis, p)
    t = experiments._effective_horizon(p, 1.0, 1000.0)
    assert expected_count_asymptotic(1.0, t, axis, p) <= DESK_POP_CAP
    assert expected_count_asymptotic(1.0, math.nextafter(t, math.inf), axis, p) > DESK_POP_CAP
    assert experiments._effective_horizon(p, 1.0, 1.0) == t


def test_phase_certifies_supercritical_survivors(phase_report):
    sub, sup = phase_report.aggregates["cells"]
    assert sub["certified"] == sub["undecided"] == sup["undecided"] == 0
    assert 0 < sup["certified"] <= sup["survived"]


def test_phase_cap_abort_is_undecided_not_survived(monkeypatch):
    # 20 particle-steps stop every survivor before it can be certified; a
    # cap abort used to count as survival and pass this cell.
    monkeypatch.setattr(experiments, "run_replicate",
                        functools.partial(run_replicate, population_cap=20))
    rep = experiment_phase_diagram([1.0], [1.5], OffspringLaw.dyadic(), 1.0, 100.0, 40, 5)
    cell = rep.aggregates["cells"][0]
    assert cell["undecided"] > 0
    assert cell["survived"] == cell["certified"] == 0
    assert cell["frequency"] == 0.0
    assert "population cap" in cell["message"]
    assert not cell["ok"] and not rep.passed


def test_phase_cells_reach_engine_through_module_name_on_shifted_streams(monkeypatch):
    # Cell k's replicate j must draw stream k n + j, and every replicate must
    # reach the engine through experiments.run_replicate, the name that
    # tracing and the cap test rebind.
    calls = []

    def recording(params, x0, horizon, grid, rng, **kw):
        key = rng.bit_generator.state["state"]["key"].copy()
        res = run_replicate(params, x0, horizon, grid, rng, **kw)
        calls.append((params, x0, horizon, grid, kw, key, res))
        return res

    monkeypatch.setattr(experiments, "run_replicate", recording)
    n, seed = 3, 29
    rep = experiment_phase_diagram([1.0, 1.2], [1.5], OffspringLaw.dyadic(), 1.0, 8.0, n, seed)
    assert [cell["n"] for cell in rep.aggregates["cells"]] == [n, n]
    assert len(calls) == 2 * n
    for m, (params, x0, horizon, grid, kw, key, res) in enumerate(calls):
        k, j = divmod(m, n)
        assert params.c == [1.0, 1.2][k]
        stream = spawn_rng_stream(seed, k * n + j)
        assert np.array_equal(key, stream.bit_generator.state["state"]["key"])
        direct = run_replicate(params, x0, horizon, grid, stream, **kw)
        assert (res.status, res.n_events) == (direct.status, direct.n_events)
        assert np.array_equal(res.trace.d, direct.trace.d)
        assert np.array_equal(res.trace.n_alive, direct.trace.n_alive)


@pytest.mark.parametrize("c_grid, r_grid", [([], [1.5]), ([1.0], []), ([], [])])
def test_phase_diagram_rejects_empty_grid(c_grid, r_grid):
    # zero cells would "pass" with nothing tested
    with pytest.raises(ValueError, match="non-empty"):
        experiment_phase_diagram(c_grid, r_grid, OffspringLaw.dyadic(), 1.0, 10.0, 10, 5)


# ---------------------------------------------------------------------------
# the replicate loop every experiment shares
# ---------------------------------------------------------------------------

# Each experiment on REF, n = 12, seed 3, with how many replicates each
# aggregate counts: a cap of 100 particle-steps stops some replicates and
# not others.
CAPPED = {
    "kesten": (lambda n: experiment_kesten(REF, 1.0, ["1,inf"], 4.0, n, 3),
               lambda rep: rep.aggregates["per_census"][0]["surviving_fraction"]["n"]),
    "qsd": (lambda n: experiment_empirical_qsd(REF, 1.0, 4.0, n, 3),
            lambda rep: rep.aggregates["per_census"][0]["surviving_fraction"]["n"]),
    "martingale": (lambda n: experiment_martingale(REF, 1.0, [1.0, 2.0, 4.0], [1.0, 2.0], n, 3),
                   lambda rep: rep.aggregates["mean_D"]["1"]["n"]),
    "truncation": (lambda n: experiment_truncation(REF, 1.0, 4.0, [1.5, 2.0, 3.0], n, 3),
                   lambda rep: rep.aggregates["mean_gap_D"][0]["n"]),
}


@pytest.mark.parametrize("name", sorted(CAPPED))
def test_cap_abort_is_undecided_and_left_out(monkeypatch, name):
    # A replicate stopped at the cap has fewer censuses; it used to crash the
    # per-census arrays (or, in the truncation sweep, have no census at all).
    monkeypatch.setattr(experiments, "run_replicate",
                        functools.partial(run_replicate, population_cap=100))
    run, decided = CAPPED[name]
    rep = run(12)
    capped = sum(rec["status"] == "population_cap_exceeded" for rec in rep.replicate_records)
    assert len(rep.replicate_records) == 12 and 0 < capped < 12
    assert rep.aggregates["undecided"] == capped and decided(rep) == 12 - capped
    assert f"{capped} replicates hit the population cap without a verdict" in rep.aggregates["message"]
    assert not rep.passed


RUNS = {  # each experiment at n replicates
    "kesten": lambda n: experiment_kesten(REF, 1.0, ["1,inf"], 4.0, n, 3),
    "qsd": lambda n: experiment_empirical_qsd(REF, 1.0, 4.0, n, 3),
    "martingale": lambda n: experiment_martingale(REF, 1.0, [1.0, 2.0], [1.0], n, 3),
    "truncation": lambda n: experiment_truncation(REF, 1.0, 4.0, [1.5, 2.0, 3.0], n, 3),
    "phase": lambda n: experiment_phase_diagram([1.0], [0.3, 1.5], OffspringLaw.dyadic(), 1.0, 4.0, n, 3),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_zero_replicates_refused_before_any_run(monkeypatch, name):
    def no_run(*args, **kw):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr(experiments, "run_replicate", no_run)
    with pytest.raises(ValueError, match="at least one replicate, got n = 0"):
        RUNS[name](0)


EMPTY_LISTS = {  # each experiment with the named list argument empty
    "B_list": lambda: experiment_kesten(REF, 1.0, [], 4.0, 3, 3),
    "horizons": lambda: experiment_martingale(REF, 1.0, [], [1.0], 3, 3),
    "M_list": lambda: experiment_truncation(REF, 1.0, 4.0, [], 3, 3),
}


@pytest.mark.parametrize("arg", sorted(EMPTY_LISTS))
def test_empty_argument_list_refused_before_any_run(monkeypatch, arg):
    def no_run(*args, **kw):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr(experiments, "run_replicate", no_run)
    with pytest.raises(ValueError, match=f"{arg} must not be empty"):
        EMPTY_LISTS[arg]()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_each_replicate_freed_before_the_next_runs(monkeypatch, name):
    # Nothing of a replicate's result, its censuses or their checkpoint trees,
    # may still be alive while the experiment runs the next replicate.
    refs, live = [], []

    def traced(*args, **kw):
        live.append(sum(ref() is not None for ref in refs))
        res = run_replicate(*args, **kw)
        refs.extend(weakref.ref(obj) for cen in res.censuses
                    for obj in (cen, cen.chk_pos) if obj is not None)
        return res

    monkeypatch.setattr(experiments, "run_replicate", traced)
    RUNS[name](4)
    assert len(live) >= 4 and refs
    assert live == [0] * len(live)


# The exact bits of each census experiment's report: sha256 of
# json.dumps(canonical_dict(), sort_keys=True) at 8 replicates, and once with
# a cap of 100 particle-steps that stops some replicates.  A regression pin,
# not a statistical test: any change to a stream or an aggregate moves it.
CENSUS_PINS = {
    "kesten": (lambda: experiment_kesten(REF, 1.0, ["0,1", "1,inf"], 4.0, 8, 101),
               "965adc8c3b905dde527dd5ed8d1a323f7fe721c6b24344ce009c4384be727f17"),
    "qsd": (lambda: experiment_empirical_qsd(REF, 1.0, 4.0, 8, 102),
            "8e941e8ade35f887d64badd237d37c60149c677c3b0205a9cc724b51ad6f4363"),
    "martingale": (lambda: experiment_martingale(REF, 1.0, [4.0, 2.0], [1.0, 3.0], 8, 103),
                   "498db36cf4f1132b90969777d72a0167dd80ee1896140f03dd4245b234ba98ed"),
    "truncation": (lambda: experiment_truncation(REF, 0.5, 3.0, [0.9, 1.2, 1.5], 8, 104),
                   "25c0ad447cfcbc9515338db12bdf88ed47cd590d3674d185e17b17a8d5c8c514"),
    "kesten_capped": (lambda: experiment_kesten(REF, 1.0, ["1,inf"], 4.0, 8, 3),
                      "5a1a46b1f083e7889c0ee87c311d20084c77eb7426d337ffdb26a948428ccf86"),
}


@pytest.mark.parametrize("name", sorted(CENSUS_PINS))
def test_census_experiment_bits_pinned(monkeypatch, name):
    if name.endswith("_capped"):
        monkeypatch.setattr(experiments, "run_replicate",
                            functools.partial(run_replicate, population_cap=100))
    run, digest = CENSUS_PINS[name]
    text = json.dumps(run().canonical_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# census-time schedule
# ---------------------------------------------------------------------------


def test_tk_schedule_first_row_frozen():
    sched = tk_schedule(10, 1.0)
    assert len(sched) == 9  # k = 2..10
    assert sched[0] == TK_K2


def test_tk_schedule_report_diagnostics():
    rep = tk_schedule_report(10000, 1.0, growth_exponent=1.0)
    assert rep["gap_turnover_k"] == TK_TURNOVER_10K
    assert rep["gaps_decreasing_tail"]
    psum = rep["t3_partial_sums"]
    assert all(b >= a for a, b in zip(psum, psum[1:]))
    assert psum[-1] == pytest.approx(TK_PSUM_10K, rel=1e-12)
    assert rep["t3_last_increment"] < 1e-12  # summable tail has converged


def test_tk_schedule_rejects_bad_arguments():
    with pytest.raises(ValueError):
        tk_schedule(1)
    with pytest.raises(ValueError):
        tk_schedule(10, 0.0)
    with pytest.raises(ValueError):
        tk_schedule(10, -1.0)


@given(
    k_max=st.integers(min_value=2, max_value=300),
    delta=st.floats(min_value=0.25, max_value=4.0),
)
@settings(max_examples=30, deadline=None)
def test_tk_schedule_shape_property(k_max, delta):
    sched = tk_schedule(k_max, delta)
    assert len(sched) == k_max - 1
    t = np.array([row[0] for row in sched])
    assert np.all(np.diff(t) > 0)
    for k, (tk, sk, Mk) in zip(range(2, k_max + 1), sched):
        lg = math.log(k)
        assert sk == pytest.approx(lg**4, rel=1e-12)
        assert Mk == pytest.approx(delta * lg, rel=1e-12)
        assert tk == pytest.approx(lg**10 + sk, rel=1e-12)


# ---------------------------------------------------------------------------
# sampler verification suites
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def verify_report():
    return verify_samplers(REF, 20000, 5)


def test_verify_samplers_pass(verify_report):
    rep = verify_report
    assert rep.passed
    assert rep.aggregates["suites"] == {
        "hitting_time_ks": True,
        "killed_position_ks": True,
        "branching_stats": True,
    }


def _faulty_killed_steps(monkeypatch, fault):
    """Route verify's killed steps through fault(survived, position)."""
    real = experiments.sample_killed_steps_batch
    monkeypatch.setattr(experiments, "sample_killed_steps_batch",
                        lambda x, t, params, rng: fault(*real(x, t, params, rng)))


def test_verify_detects_corrupted_positions(monkeypatch):
    # shift the survivors' positions by +0.1: only the position KS should
    # notice, and it must
    _faulty_killed_steps(monkeypatch, lambda survived, pos: (survived, pos + 0.1))
    rep = verify_samplers(REF, 20000, 5)
    assert not rep.passed
    suites = rep.aggregates["suites"]
    assert not suites["killed_position_ks"]
    assert suites["hitting_time_ks"] and suites["branching_stats"]
    killed = rep.replicate_records[1]
    assert killed["pvalue"] < 0.01 <= killed["survival_binomial_p"]


def test_verify_detects_lost_survivors(monkeypatch):
    # mark every 10th survivor absorbed: the killed step's binomial must
    # fail while the positions of the rest still pass their KS
    def drop(survived, pos):
        survived = survived.copy()
        survived[survived.nonzero()[0][::10]] = False
        return survived, np.where(survived, pos, np.nan)

    _faulty_killed_steps(monkeypatch, drop)
    rep = verify_samplers(REF, 20000, 5)
    assert not rep.passed
    suites = rep.aggregates["suites"]
    assert not suites["killed_position_ks"]
    assert suites["hitting_time_ks"] and suites["branching_stats"]
    killed = rep.replicate_records[1]
    assert killed["survival_binomial_p"] < 0.01 <= killed["pvalue"]


def test_verify_without_killed_step_survivor_fails_with_message():
    # at c = 8 a step of length 1 from x = 1 survives with probability 2.8e-13
    params = ModelParams(c=8.0, r=1.0, offspring=OffspringLaw.dyadic())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = verify_samplers(params, 1000, 1)
    killed = rep.replicate_records[1]
    assert killed["suite"] == "killed_position_ks" and killed["n_survivors"] == 0
    assert math.isnan(killed["pvalue"]) and math.isnan(killed["statistic"])
    assert not killed["ok"]
    assert "untested" in killed["message"]


def test_verify_samplers_pass_for_three_point_law():
    law = parse_offspring("pmf:0.2,0,0.8")
    rep = verify_samplers(ModelParams(c=1.0, r=1.2, offspring=law), 4000, 9)
    assert rep.passed


def test_verify_reports_are_reproducible(verify_report):
    rep2 = verify_samplers(REF, 20000, 5)
    a, b = verify_report.canonical_dict(), rep2.canonical_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert "wall" not in json.dumps(a)  # no timing in a report
