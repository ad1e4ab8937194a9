"""Statistical experiment harness.

Each experiment is a pure function of (parameters, seed): replicates get
counter-based streams keyed by replicate index, results are merged in index
order, and every aggregate carries its sample size and standard error.
Pass/fail thresholds are either first-principles (3-sigma oracle agreement)
or frozen regression values from a pre-registered pilot run stored in
data/pilot_thresholds.json — the harness never tunes thresholds at run time.
A replicate that hits the population cap is undecided: its record is kept,
it is left out of every aggregate, and it fails the contract with a message.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

# scipy.stats takes about a third of a second to import, so the functions that
# run its tests import it themselves and runs that never test do not pay.
from scipy.special import betainc

from .engine import (
    EventRecorder,
    run_replicate,
    set_counts,
    spawn_rng_stream,
    window_escape_bounds,
)
from .kernel import (
    first_passage_density,
    killed_cdf,
    killed_density,
    sample_hitting_time,
    sample_killed_steps_batch,
    survival_probability,
)
from .model import (
    IntervalSet,
    ModelParams,
    Regime,
    classify_regime,
    ground_state_h,
    nu_cdf,
    nu_measure,
)
from .oracles import expected_count, expected_count_asymptotic, quad

__all__ = [
    "ExperimentReport",
    "experiment_kesten",
    "experiment_empirical_qsd",
    "experiment_martingale",
    "experiment_truncation",
    "experiment_phase_diagram",
    "tk_schedule",
    "tk_schedule_report",
    "verify_samplers",
    "load_thresholds",
    "suite_hitting_time_ks",
    "suite_killed_position_ks",
    "suite_branching_stats",
]

SIGNIFICANCE = 0.01
# Desk-scale guard: horizons are trimmed so the expected final population
# stays below this; beyond it an experiment cell is declared infeasible.
DESK_POP_CAP = 1.0e5
# Minimum expected growth factor for a survival test to be informative.
MIN_GROWTH_FACTOR = 50.0
# Survival frequencies at/below this are "numerically extinct" in the phase
# diagram, and it doubles as the binomial null for supercritical cells.
EXTINCTION_FREQ = 0.002


def load_thresholds() -> dict:
    """Frozen pilot regression thresholds shipped with the package."""
    with resources.files("bbma").joinpath("data/pilot_thresholds.json").open("r") as f:
        return json.load(f)


@dataclass
class ExperimentReport:
    """Uniform result container: per-replicate records plus aggregates.

    passed reflects the experiment's declared contract; the thresholds it
    was judged against are recorded verbatim in `thresholds`.
    """

    name: str
    config: dict
    replicate_records: list = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)
    thresholds: dict = field(default_factory=dict)
    passed: bool = False
    n_events: int = 0

    def canonical_dict(self) -> dict:
        return {
            "name": self.name,
            "config": self.config,
            "replicates": self.replicate_records,
            "aggregates": self.aggregates,
            "thresholds": self.thresholds,
            "passed": self.passed,
            "n_events": self.n_events,
        }


def _mean_se(values: np.ndarray) -> dict:
    values = np.asarray(values, dtype=np.float64)
    n = int(values.size)
    if n == 0:
        return {"value": math.nan, "stderr": math.nan, "n": 0}
    se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else math.inf
    return {"value": float(values.mean()), "stderr": se, "n": n}


def _median(values: np.ndarray) -> dict:
    values = np.asarray(values, dtype=np.float64)
    n = int(values.size)
    return {"value": float(np.median(values)) if n else math.nan, "n": n}


def _ks_distance(positions: np.ndarray, params: ModelParams) -> float:
    """Exact sup-distance between the empirical CDF and the stationary
    profile F(a) = 1 - (1+ca) e^{-ca}."""
    n = positions.size
    xs = np.sort(positions)
    F = nu_cdf(xs, params)
    i = np.arange(1, n + 1)
    return float(np.max(np.maximum(i / n - F, F - (i - 1) / n)))


def _within_desk(params: ModelParams, x0: float, t: float) -> bool:
    """Whether the expected population at t is at most DESK_POP_CAP."""
    try:
        return expected_count_asymptotic(x0, t, IntervalSet.positive_axis(), params) <= DESK_POP_CAP
    except OverflowError:  # e^{gt} beyond the float range: far above the cap
        return False


def _effective_horizon(params: ModelParams, x0: float, horizon: float) -> float:
    """Largest t <= horizon with expected population within desk scale."""
    t = float(horizon)
    if _within_desk(params, x0, t):
        return t
    lo, hi = 1e-3, t
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # lo and hi are adjacent floats: nothing moves again
            break
        if _within_desk(params, x0, mid):
            lo = mid
        else:
            hi = mid
    return lo


def _require_supercritical(params: ModelParams, what: str) -> None:
    if classify_regime(params) not in (Regime.SUPERCRITICAL, Regime.L2_SUPERCRITICAL):
        raise ValueError(f"{what} requires a supercritical configuration")


def _require_replicates(n: int) -> None:
    if not n >= 1:
        raise ValueError(f"an experiment needs at least one replicate, got n = {n}")


def _replicates(params: ModelParams, x0: float, horizon: float, grid, n: int, seed: int,
                keep, first: int = 0, **kw):
    """An iterator over keep(run_replicate(...)) for replicates first ..
    first + n - 1, in order; n < 1 raises ValueError at once, before any
    replicate runs.  Only what keep returns reaches the caller, so a
    replicate's censuses and checkpoint trees are freed before the next runs.

    Replicate i draws spawn_rng_stream(seed, i), so an experiment's replicate
    j uses stream j, and phase cell k passes first = k n to use streams
    k n + j.  (verify_samplers keys its kernel suites to streams 0-1 of seed
    and its engine suite to seed + 3.)  run_replicate is looked up as this
    module's global at every call, so rebinding that name reaches the engine.
    """
    _require_replicates(n)
    return (keep(run_replicate(params, x0, horizon, grid, spawn_rng_stream(seed, i), **kw))
            for i in range(first, first + n))


def _note_undecided(out: dict, undecided: int, passed: bool) -> bool:
    """Record in out how many replicates hit the population cap; any such
    replicate fails the contract, with a message.  Returns the verdict."""
    out["undecided"] = undecided
    if undecided:
        note = f"{undecided} replicates hit the population cap without a verdict"
        out["message"] = f"{out['message']}; {note}" if "message" in out else note
    return passed and not undecided


def _census_experiment(name: str, config: dict, thresholds: dict, params: ModelParams, x0: float,
                       grid, n: int, seed: int, keep, judge, **kw) -> ExperimentReport:
    """Run replicates 0 .. n-1 to grid[-1], censused at grid, and judge them.

    Replicate i's record is {"replicate": i, "status": ..., **keep(result)}.
    judge(col) returns (aggregates, passed), where col(key, *shape) stacks
    record[key], of that shape, over the replicates that the population cap
    did not stop; those it did stop are kept as records and counted by
    _note_undecided.
    """
    records, n_events = [], 0
    kept = _replicates(params, x0, grid[-1], grid, n, seed,
                       lambda res: (res.n_events, {"status": res.status, **keep(res)}), **kw)
    for i, (n_ev, rec) in enumerate(kept):
        records.append({"replicate": i, **rec})
        n_events += n_ev
    decided = [rec for rec in records if rec["status"] != "population_cap_exceeded"]

    def col(key: str, *shape: int) -> np.ndarray:
        return np.array([rec[key] for rec in decided]).reshape(-1, *shape)

    aggregates, passed = judge(col)
    passed = _note_undecided(aggregates, len(records) - len(decided), passed)
    return ExperimentReport(name=name, config=config, replicate_records=records, aggregates=aggregates,
                            thresholds=thresholds, passed=passed, n_events=n_events)


def _census_rows(grid, alive: np.ndarray, row) -> dict:
    """{"per_census": rows, "n_survivors_final": count} for the census grid.
    Row j holds the time, the surviving fraction and row(j, m), with m the
    mask of the replicates alive at census j.  With no survivor at the last
    census, a message says so, and the contract must fail."""
    surv = alive > 0
    per_census = [{"time": t, "surviving_fraction": _mean_se(surv[:, j].astype(float)),
                   **row(j, surv[:, j])} for j, t in enumerate(grid)]
    out = {"per_census": per_census, "n_survivors_final": int(surv[:, -1].sum())}
    if not out["n_survivors_final"]:
        out["message"] = "no replicate survived to the horizon; raise r or x0"
    return out


# ---------------------------------------------------------------------------
# Kesten-type convergence: |N_t(B)| / (e^{gt} t^{-3/2} h(x0)) vs nu(B) D_t
# ---------------------------------------------------------------------------


def experiment_kesten(
    params: ModelParams,
    x0: float,
    B_list,
    horizon: float,
    n_replicates: int,
    seed: int,
) -> ExperimentReport:
    """Trend test of normalized-count convergence on surviving replicates.

    For each set B, R_t(B) = count / expected_count_asymptotic(x0, t, (0,inf))
    is compared with the predictor nu(B) D_t at quartile census times; the
    contract (judged on the first B) is that the L1 gap shrinks from mid to
    final horizon and the final median is below the frozen pilot value.
    """
    _require_supercritical(params, "Kesten experiment")
    B_list = [B if isinstance(B, IntervalSet) else IntervalSet.parse(B) for B in B_list]
    if not B_list:
        raise ValueError("B_list must not be empty")
    _require_replicates(n_replicates)  # before the feasibility verdict
    grid = [horizon * k / 4.0 for k in (1, 2, 3, 4)]
    thresholds = {
        "median_abs_gap_final_max": load_thresholds()["kesten"]["median_abs_gap_final"],
        "significance": SIGNIFICANCE,
    }
    config = _echo(params, x0=x0, horizon=horizon, n=n_replicates, seed=seed,
                   sets=[B.spec_string() for B in B_list])
    if not _within_desk(params, x0, horizon):
        return ExperimentReport(
            name="kesten", config=config,
            aggregates={"message": f"expected population exceeds {DESK_POP_CAP:g}; infeasible at desk scale"},
            thresholds=thresholds, passed=False,
        )
    denom = np.array([
        expected_count_asymptotic(x0, t, IntervalSet.positive_axis(), params) for t in grid
    ])
    nuB = np.array([nu_measure(B, params) for B in B_list])

    def keep(res) -> dict:
        return {
            "n_events": res.n_events,
            "alive": res.trace.n_alive.tolist(),
            "absorbed": [cen.absorbed_count for cen in res.censuses],
            "D": res.trace.d.tolist(),
            "counts": set_counts(res.censuses, B_list),
        }

    def judge(col) -> tuple[dict, bool]:
        R = col("counts", len(grid), len(B_list)) / denom[:, None]
        D = col("D", len(grid))
        gaps = np.abs(R - nuB[None, None, :] * D[:, :, None])

        def sets(j: int, m: np.ndarray) -> dict:
            return {"sets": {B.spec_string(): {
                "mean_abs_gap": _mean_se(gaps[m, j, k]),
                "median_abs_gap": _median(gaps[m, j, k]),
                "mean_R_minus_pred_all": _mean_se(R[:, j, k] - nuB[k] * D[:, j]),
            } for k, B in enumerate(B_list)}}

        aggregates = _census_rows(grid, col("alive", len(grid)), sets)
        if not aggregates["n_survivors_final"]:
            return aggregates, False
        key = B_list[0].spec_string()
        final = aggregates["per_census"][-1]["sets"][key]
        mid = aggregates["per_census"][1]["sets"][key]
        aggregates["judged_set"] = key
        return aggregates, (
            final["median_abs_gap"]["value"] <= thresholds["median_abs_gap_final_max"]
            and final["mean_abs_gap"]["value"] < mid["mean_abs_gap"]["value"]
        )

    return _census_experiment("kesten", config, thresholds, params, x0, grid, n_replicates, seed,
                              keep, judge, checkpoint_chains=False)


# ---------------------------------------------------------------------------
# Empirical one-particle distribution vs the stationary profile
# ---------------------------------------------------------------------------


def experiment_empirical_qsd(
    params: ModelParams,
    x0: float,
    horizon: float,
    n_replicates: int,
    seed: int,
) -> ExperimentReport:
    """KS distance between alive-position empirical CDFs and
    F(a) = 1 - (1+ca) e^{-ca}, tracked across census times on survivors."""
    _require_supercritical(params, "empirical-distribution experiment")
    grid = [0.0] + [horizon * k / 4.0 for k in (1, 2, 3, 4)]
    thresholds = {
        "median_ks_final_max": load_thresholds()["qsd"]["median_ks_final"],
    }

    def keep(res) -> dict:
        return {"alive": res.trace.n_alive.tolist(),
                "ks": [(_ks_distance(c.alive_positions, params) if c.alive_positions.size else math.nan)
                       for c in res.censuses]}

    def judge(col) -> tuple[dict, bool]:
        ks = col("ks", len(grid))  # NaN if extinct
        aggregates = _census_rows(grid, col("alive", len(grid)), lambda j, m: {
            "median_ks": _median(ks[m, j]),
            "mean_ks": _mean_se(ks[m, j]),
        })
        med = [row["median_ks"]["value"] for row in aggregates["per_census"]]
        return aggregates, (
            aggregates["n_survivors_final"] > 0
            and med[-1] <= thresholds["median_ks_final_max"]
            and med[-1] < med[-2] < med[-3]
        )

    config = _echo(params, x0=x0, horizon=horizon, n=n_replicates, seed=seed)
    return _census_experiment("qsd", config, thresholds, params, x0, grid, n_replicates, seed,
                              keep, judge, checkpoint_chains=False)


# ---------------------------------------------------------------------------
# Additive martingale: mean one, tail mass, small-limit frequency
# ---------------------------------------------------------------------------


def experiment_martingale(
    params: ModelParams,
    x0: float,
    horizons,
    K_list,
    n: int,
    seed: int,
) -> ExperimentReport:
    """Mean-one check of D_t at each horizon, uniform-integrability probe
    E[D 1{D>K}] in K at the last horizon, and the survivor frequency of
    near-zero D at the last horizon against a frozen pilot value."""
    _require_supercritical(params, "martingale experiment")
    grid = sorted(float(t) for t in horizons)
    if not grid:
        raise ValueError("horizons must not be empty")
    K_list = sorted(float(k) for k in K_list)
    thresholds = {
        "small_d_fraction_max": load_thresholds()["martingale"]["small_d_fraction"],
        "small_d_cut": 0.01,
        "mean_one_sigmas": 3.0,
    }

    def keep(res) -> dict:
        return {"D": res.trace.d.tolist(), "alive": res.trace.n_alive.tolist()}

    def judge(col) -> tuple[dict, bool]:
        D = col("D", len(grid))
        mean_d = {f"{t:g}": _mean_se(D[:, j]) for j, t in enumerate(grid)}
        # With se = 0 (every D equal), z is 0 at a mean of exactly 1 and inf otherwise.
        zsc = {t: abs(v["value"] - 1.0) / v["stderr"] if v["stderr"] else 0.0 if v["value"] == 1.0
               else math.inf for t, v in mean_d.items()}
        extinct_final = col("alive", len(grid))[:, -1] == 0
        # extinct => empty h-sum => D identically zero
        extinct_d_zero = bool(np.all(D[extinct_final, -1] == 0.0)) if extinct_final.any() else True
        tail = {f"{K:g}": _mean_se(D[:, -1] * (D[:, -1] > K)) for K in K_list}
        surv = ~extinct_final
        small_frac = _mean_se((D[surv, -1] < thresholds["small_d_cut"]).astype(float))
        aggregates = {
            "mean_D": mean_d,
            "mean_one_z": {t: float(z) for t, z in zsc.items()},
            "tail_mass_final": tail,
            "small_d_fraction_survivors": small_frac,
            "surviving_fraction_final": _mean_se(surv.astype(float)),
            "extinct_d_exactly_zero": extinct_d_zero,
        }
        tail_vals = [tail[f"{K:g}"]["value"] for K in K_list]
        return aggregates, (
            all(z <= thresholds["mean_one_sigmas"] for z in zsc.values())
            and extinct_d_zero
            and all(a >= b for a, b in zip(tail_vals, tail_vals[1:]))
            and (small_frac["n"] > 0 and small_frac["value"] <= thresholds["small_d_fraction_max"])
        )

    config = _echo(params, x0=x0, horizons=grid, K_list=K_list, n=n, seed=seed)
    return _census_experiment("martingale", config, thresholds, params, x0, grid, n, seed,
                              keep, judge, checkpoint_chains=False)


# ---------------------------------------------------------------------------
# Truncation-window error decay in the window size M
# ---------------------------------------------------------------------------


def _log_quadratic_fit(M_list: list[float], means: list[float]) -> tuple[float, float]:
    """(R^2, slope) of log mean-gap regressed on M^2 over the positive
    means; (nan, nan) with fewer than three."""
    vals = np.array(means)
    mask = vals > 0
    if mask.sum() < 3:
        return math.nan, math.nan
    from scipy import stats

    fit = stats.linregress(np.array(M_list)[mask] ** 2, np.log(vals[mask]))
    return float(fit.rvalue**2), float(fit.slope)


def experiment_truncation(
    params: ModelParams,
    x0: float,
    horizon: float,
    M_list,
    n: int,
    seed: int,
) -> ExperimentReport:
    """Decay of E[D - D^M] and of the relative count deficit in M.

    D^M keeps the particles whose whole ancestral path stayed inside
    J_M = [0, M(1 + s^{3/4})).  One run per replicate; the window sweep is
    evaluated after the fact from the stored checkpoint chains, so all M
    share identical randomness.  Each particle's 0/1 escape indicator is
    replaced by its conditional probability given the checkpoints
    (Rao-Blackwellization), bracketed by window_escape_bounds: the
    estimates of E[D - D^M] and E[N - N^M]/EC(horizon) come as a lower and
    an upper end, and `value` is the bracket midpoint, within half the
    bracket width of the exact conditional estimate.  Contract, at both
    bracket ends: per-replicate gaps nonincreasing in M, and log E[D - D^M]
    consistent with an exp(-C M^2) envelope (negative slope, R^2 of the
    regression on M^2 at or above the frozen threshold).  log_fit_r2 and
    log_fit_slope report the worse end.
    """
    M_list = sorted(float(M) for M in M_list)
    if not M_list:
        raise ValueError("M_list must not be empty")
    thresholds = {"log_fit_r2_min": load_thresholds()["truncation"]["log_fit_r2_min"]}
    B = IntervalSet.positive_axis()
    ec = expected_count(x0, horizon, B, params)
    scale = math.exp(-params.growth_exponent * horizon) / ground_state_h(x0, params)

    def keep(res) -> dict:
        if res.status == "population_cap_exceeded":
            return {}
        final = res.censuses[-1]
        hvals = ground_state_h(final.alive_positions, params)
        g = np.empty((4, len(M_list)))  # rows: D lower, D upper, N lower, N upper
        for j, M in enumerate(M_list):
            lo, hi = window_escape_bounds(res.censuses, M)[-1]
            g[:, j] = (np.dot(hvals, lo) * scale, np.dot(hvals, hi) * scale,
                       lo.sum() / ec, hi.sum() / ec)
        return dict(
            gap_D=(0.5 * (g[0] + g[1])).tolist(), gap_N=(0.5 * (g[2] + g[3])).tolist(),
            gap_D_lower=g[0].tolist(), gap_D_upper=g[1].tolist(),
            gap_N_lower=g[2].tolist(), gap_N_upper=g[3].tolist(),
            alive=int(final.alive_positions.size))

    def judge(col) -> tuple[dict, bool]:
        ends = ("gap_D_lower", "gap_D_upper", "gap_N_lower", "gap_N_upper")
        gaps = np.stack([col(end, len(M_list)) for end in ends], axis=1)
        mid = {key: col("gap_" + key, len(M_list)) for key in ("D", "N")}
        monotone = bool(np.all(np.diff(gaps, axis=2) <= 1e-12))

        def summarize(key: str, lo_row: int) -> list[dict]:
            out = []
            for j in range(len(M_list)):
                row = _mean_se(mid[key][:, j])
                row["lower"] = _mean_se(gaps[:, lo_row, j])["value"]
                row["upper"] = _mean_se(gaps[:, lo_row + 1, j])["value"]
                row["width"] = row["upper"] - row["lower"]
                out.append(row)
            return out

        mean_gd = summarize("D", 0)
        mean_gn = summarize("N", 2)
        fits = {end: dict(zip(("r2", "slope"), _log_quadratic_fit(M_list, [m[end] for m in mean_gd])))
                for end in ("lower", "upper")}
        r2s = [f["r2"] for f in fits.values()]
        slopes = [f["slope"] for f in fits.values()]
        defined = not any(math.isnan(v) for v in r2s)
        aggregates = {
            "M_list": M_list,
            "mean_gap_D": mean_gd,
            "mean_gap_N": mean_gn,
            "pointwise_monotone": monotone,
            "log_fit": fits,
            "log_fit_r2": min(r2s) if defined else math.nan,
            "log_fit_slope": max(slopes) if defined else math.nan,
        }
        return aggregates, (
            monotone
            and defined
            and max(slopes) < 0
            and min(r2s) >= thresholds["log_fit_r2_min"]
        )

    config = _echo(params, x0=x0, horizon=horizon, M_list=M_list, n=n, seed=seed)
    return _census_experiment("truncation", config, thresholds, params, x0, [horizon], n, seed,
                              keep, judge)


# ---------------------------------------------------------------------------
# Survival phase diagram over a (c, r) grid
# ---------------------------------------------------------------------------


def experiment_phase_diagram(
    c_grid,
    r_grid,
    offspring,
    x0: float,
    horizon: float,
    n: int,
    seed: int,
) -> ExperimentReport:
    """Survival frequency at the horizon for every (c, r) cell.

    Sub/critical cells must be numerically extinct (frequency <= 0.002);
    supercritical cells must reject extinction in a one-sided binomial test
    at significance 0.01, evaluated at a per-cell horizon trimmed to desk
    scale but still long enough that e^{g t} >= 50 (else flagged infeasible).
    An empty grid has no cell to judge and raises ValueError.

    A replicate survived if it is alive at the cell's horizon or, in a
    supercritical cell, once run_replicate(certify_survival=True) certifies
    it: its frontier's prod q(x_i), Kesten's extinction probability, fell
    below CERTIFY_EPS.  A certified replicate dies out by the horizon with
    probability below CERTIFY_EPS, so certification changes a cell's count
    with probability at most n CERTIFY_EPS.  A replicate that hit the
    population cap without a certificate is undecided: it does not count as
    survived, and its cell fails with a message.  Each cell reports its
    `certified` and `undecided` counts.
    """
    if not len(c_grid) or not len(r_grid):
        raise ValueError("phase diagram requires a non-empty c_grid and r_grid")
    cells = []
    n_events = 0
    all_ok = True
    thresholds = {
        "extinction_freq_max": EXTINCTION_FREQ,
        "binomial_significance": SIGNIFICANCE,
        "binomial_null": EXTINCTION_FREQ,
        "min_growth_factor": MIN_GROWTH_FACTOR,
    }
    for ci, c in enumerate(c_grid):
        for ri, r in enumerate(r_grid):
            params = ModelParams(c=float(c), r=float(r), offspring=offspring)
            regime = classify_regime(params)
            super_cell = regime in (Regime.SUPERCRITICAL, Regime.L2_SUPERCRITICAL)
            h_eff = _effective_horizon(params, x0, horizon) if super_cell else float(horizon)
            cell_index = ci * len(r_grid) + ri
            alive = certified = undecided = 0
            for n_ev, status, alive_at_end in _replicates(
                    params, x0, h_eff, [h_eff], n, seed,
                    lambda res: (res.n_events, res.status,
                                 bool(res.status == "ok" and res.trace.n_alive[-1] > 0)),
                    cell_index * n, checkpoint_chains=False, certify_survival=super_cell):
                n_events += n_ev
                alive += alive_at_end
                certified += status == "certified_survival"
                undecided += status == "population_cap_exceeded"
            survived = alive + certified
            freq = survived / n
            cell = {
                "c": float(c), "r": float(r), "regime": regime.value,
                "horizon": h_eff, "n": n, "survived": survived, "frequency": freq,
                "certified": certified, "undecided": undecided,
            }
            if super_cell:
                growth = math.exp(params.growth_exponent * h_eff)
                cell["growth_factor"] = growth
                cell["feasible"] = growth >= MIN_GROWTH_FACTOR
                # one-sided binomial p-value P(Bin(n, p) >= survived) = I_p(k, n - k + 1)
                pval = float(betainc(survived, n - survived + 1, EXTINCTION_FREQ)) if survived else 1.0
                cell["binomial_p"] = pval
                cell["ok"] = bool(cell["feasible"] and pval < SIGNIFICANCE)
                if not cell["feasible"]:
                    cell["message"] = "horizon too short for an informative survival test"
            else:
                cell["ok"] = bool(freq <= EXTINCTION_FREQ)
            cell["ok"] = _note_undecided(cell, undecided, cell["ok"])
            all_ok = all_ok and cell["ok"]
            cells.append(cell)
    return ExperimentReport(
        name="phase_diagram",
        config={
            "c_grid": [float(c) for c in c_grid],
            "r_grid": [float(r) for r in r_grid],
            "offspring": offspring.as_dict(),
            "x0": x0, "horizon": horizon, "n": n, "seed": seed,
        },
        replicate_records=cells,
        aggregates={"cells": cells},
        thresholds=thresholds,
        passed=all_ok,
        n_events=n_events,
    )


# ---------------------------------------------------------------------------
# Census-time schedule with polylog spacing
# ---------------------------------------------------------------------------


def tk_schedule(k_max: int, delta: float = 1.0) -> list[tuple[float, float, float]]:
    """Schedule (t_k, s_k, M_k) for k = 2..k_max with t_k = (log k)^10 + s_k,
    s_k = (log k)^4, M_k = delta log k.

    The schedule is strictly increasing on its whole range (asserted); gap
    behaviour and summability diagnostics live in tk_schedule_report.
    """
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    if not delta > 0:
        raise ValueError("delta must be positive")
    ks = np.arange(2, k_max + 1, dtype=np.float64)
    lg = np.log(ks)
    t = lg**10 + lg**4
    s = lg**4
    M = delta * lg
    assert np.all(np.diff(t) > 0), "schedule must increase strictly"
    return list(zip(t.tolist(), s.tolist(), M.tolist()))


def tk_schedule_report(k_max: int, delta: float = 1.0, growth_exponent: float = 1.0) -> dict:
    """Diagnostics for the schedule: gap turnover index and the partial sums
    of e^{-g t_k / 4} whose convergence the census argument relies on."""
    sched = tk_schedule(k_max, delta)
    t = np.array([row[0] for row in sched])
    gaps = np.diff(t)
    # first index (in k) from which gaps are nonincreasing through the end
    k_star = k_max
    for i in range(len(gaps) - 1, 0, -1):
        if gaps[i] <= gaps[i - 1] + 1e-12:
            k_star = i + 2  # gaps[i] is t_{k}-t_{k-1} with k = i + 3
        else:
            break
    terms = np.exp(-growth_exponent * t / 4.0)
    partial = np.cumsum(terms)
    return {
        "k_max": k_max,
        "delta": delta,
        "growth_exponent": growth_exponent,
        "schedule": sched,
        "gap_turnover_k": int(k_star),
        "gaps_decreasing_tail": bool(np.all(np.diff(gaps[max(k_star - 2, 0):]) <= 1e-12)),
        "t3_partial_sums": partial.tolist(),
        "t3_last_increment": float(terms[-1]),
    }


# ---------------------------------------------------------------------------
# Sampler verification suites
# ---------------------------------------------------------------------------


def _spot_error(density, cdf, spots) -> float:
    """Largest |quad(density, 0, q) - cdf(q)| over the spots q."""
    return float(max(abs(quad(density, 0.0, q) - cdf(q)) for q in spots))


def suite_hitting_time_ks(params: ModelParams, n: int, rng: np.random.Generator) -> dict:
    """KS test of the first-passage sampler from x = 1 against the inverse
    Gaussian CDF (mean x/c, shape x^2), itself spot-checked against direct
    quadrature of first_passage_density, the density the package exposes."""
    from scipy import stats

    x = 1.0
    samples = sample_hitting_time(x, params, rng, size=n)
    dist = stats.invgauss(mu=1.0 / (params.c * x), scale=x * x)
    spot_err = _spot_error(lambda s: first_passage_density(x, s, params), dist.cdf, [0.3, 1.0, 3.0])
    ks = stats.kstest(samples, dist.cdf)
    return {
        "suite": "hitting_time_ks",
        "n": int(n),
        "statistic": float(ks.statistic),
        "pvalue": float(ks.pvalue),
        "cdf_spot_check_abs_err": spot_err,
        "ok": bool(ks.pvalue >= SIGNIFICANCE and spot_err < 1e-8),
    }


def suite_killed_position_ks(params: ModelParams, n: int, rng: np.random.Generator) -> dict:
    """n killed steps from (x, t) = (1, 1): the survivor count against
    Binomial(n, survival_probability), and by KS the survivors' positions
    against killed_cdf/survival_probability.  With no survivor the positions
    go untested: statistic and pvalue stay nan and a message says so."""
    from scipy import stats

    x, t = 1.0, 1.0
    survived, pos = sample_killed_steps_batch(np.full(n, x), np.full(n, t), params, rng)
    sp = float(survival_probability(x, t, params))

    def cond_cdf(v):
        return np.clip(killed_cdf(x, np.maximum(v, 0.0), t, params) / sp, 0.0, 1.0)

    spot_err = _spot_error(lambda y: killed_density(x, y, t, params),
                           lambda q: killed_cdf(x, q, t, params), [0.5, 1.0, 2.0])
    n_surv = int(survived.sum())
    statistic = pvalue = math.nan
    if n_surv:
        ks = stats.kstest(pos[survived], cond_cdf)
        statistic, pvalue = float(ks.statistic), float(ks.pvalue)
    binom_p = float(stats.binomtest(n_surv, n, p=sp).pvalue)
    out = {
        "suite": "killed_position_ks",
        "n": int(n),
        "n_survivors": n_surv,
        "statistic": statistic,
        "pvalue": pvalue,
        "survival_binomial_p": binom_p,
        "cdf_spot_check_abs_err": spot_err,
        "ok": bool(pvalue >= SIGNIFICANCE and binom_p >= SIGNIFICANCE and spot_err < 1e-8),
    }
    if not n_surv:
        out["message"] = "no killed step survived; the position law went untested"
    return out


def suite_branching_stats(params: ModelParams, n: int, seed: int) -> dict:
    """Offspring-law chi-square and branch-wait distribution checks from
    real engine branch events.

    Waits are end-of-run censored, so the raw sample is not exponential;
    each recorded wait W, the time since birth or the last census (these
    runs have no census), with known censoring bound T = horizon - (time - W)
    is mapped to V = (1 - e^{-rW}) / (1 - e^{-rT}), which is exactly
    Uniform(0,1) under the exponential-clock null.  The start height is
    chosen high enough that absorption is numerically impossible, keeping
    the censoring bound deterministic.
    """
    from scipy import stats

    law = params.offspring
    g_pure = params.r * (law.mu1 - 1.0)
    if g_pure > 0.05:
        h = math.log(n * g_pure + 1.0) / g_pure + 3.0 / params.r
    else:
        h = 50.0 / params.r
    h = min(h, 50.0 / params.r + 10.0)
    x0 = params.c * h + 9.0 * math.sqrt(h) + 1.0

    recorder = EventRecorder()
    j = 0
    for _ in _replicates(params, x0, h, [], max(64, 4 * n), seed, lambda res: None,
                         event_recorder=recorder, population_cap=30_000_000, checkpoint_chains=False):
        j += 1
        if recorder.n_events >= n:
            break

    waits = recorder.waits()[:n]
    times = recorder.times()[:n]
    offspring = recorder.offspring()[:n]
    births = times - waits
    Tbound = h - births
    V = -np.expm1(-params.r * waits) / (-np.expm1(-params.r * Tbound))
    ks = stats.kstest(np.clip(V, 0.0, 1.0), "uniform")

    support = law.support
    if support.size == 1:
        chi_ok = bool(np.all(offspring == support[0]))
        chi = {"degenerate": True, "all_equal": chi_ok, "pvalue": 1.0 if chi_ok else 0.0}
    else:
        observed = np.array([(offspring == k).sum() for k in support])
        expected = law.probs * offspring.size
        res_chi = stats.chisquare(observed, expected)
        chi_ok = bool(res_chi.pvalue >= SIGNIFICANCE)
        chi = {"degenerate": False, "statistic": float(res_chi.statistic),
               "pvalue": float(res_chi.pvalue)}
    return {
        "suite": "branching_stats",
        "n_events": int(waits.size),
        "replicates_used": j,
        "wait_ks_statistic": float(ks.statistic),
        "wait_ks_pvalue": float(ks.pvalue),
        "offspring_chisquare": chi,
        "ok": bool(ks.pvalue >= SIGNIFICANCE and chi_ok and waits.size >= min(n, 1000)),
    }


def verify_samplers(params: ModelParams, n: int, seed: int) -> ExperimentReport:
    """Consolidated sampler verification: first-passage KS (stream 0 of
    seed), the killed step's survival binomial and conditional-position KS
    (stream 1), and engine-level offspring and wait checks (the streams of
    seed + 3)."""
    suites = [
        suite_hitting_time_ks(params, n, spawn_rng_stream(seed, 0)),
        suite_killed_position_ks(params, n, spawn_rng_stream(seed, 1)),
        suite_branching_stats(params, min(n, 10**6), seed + 3),
    ]
    passed = all(s["ok"] for s in suites)
    return ExperimentReport(
        name="verify_samplers",
        config=_echo(params, n=n, seed=seed),
        replicate_records=suites,
        aggregates={"suites": {s["suite"]: s["ok"] for s in suites}},
        thresholds={"significance": SIGNIFICANCE},
        passed=passed,
        n_events=suites[-1]["n_events"],
    )


def _echo(params: ModelParams, **kw) -> dict:
    cfg = {"c": params.c, "r": params.r, "offspring": params.offspring.as_dict()}
    cfg.update(kw)
    return cfg
