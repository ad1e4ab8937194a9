import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbma import engine
from bbma.engine import (
    CERTIFY_EPS,
    EventRecorder,
    run_replicate,
    spawn_rng_stream,
    _line_crossing_given_positive,
    _segment_escape_bounds,
    truncation_flags_for,
    window_escape_bounds,
)
from bbma.kernel import survival_probability
from bbma.model import IntervalSet, ModelParams, OffspringLaw
from bbma.oracles import expected_count

DYADIC = OffspringLaw.dyadic()
DELTA1 = OffspringLaw.from_pmf({1: 1.0})
AXIS = IntervalSet.positive_axis()


def params(c=1.0, r=0.6, offspring=DYADIC):
    return ModelParams(c=c, r=r, offspring=offspring)


def busy_replicate(seed=0, M=3.0, **kw):
    """A supercritical run with enough branching to exercise everything."""
    p = params(r=1.5)
    return run_replicate(p, 1.0, 4.0, [0.0, 1.0, 2.0, 3.0, 4.0], M,
                         spawn_rng_stream(seed, 0),
                         interval_sets=(IntervalSet.parse("0,1"),
                                        IntervalSet.parse("1,inf")), **kw), p


# -- rng streams -------------------------------------------------------------


def test_spawn_rng_stream_deterministic():
    a = spawn_rng_stream(42, 7).bytes(64)
    b = spawn_rng_stream(42, 7).bytes(64)
    assert a == b


def test_spawn_rng_stream_distinct_indices():
    a = spawn_rng_stream(42, 0).bytes(8)
    b = spawn_rng_stream(42, 1).bytes(8)
    assert a != b


def test_replicate_bit_identical_reruns():
    res1, _ = busy_replicate(seed=5)
    res2, _ = busy_replicate(seed=5)
    assert res1.status == res2.status
    assert res1.n_events == res2.n_events
    for c1, c2 in zip(res1.censuses, res2.censuses):
        np.testing.assert_array_equal(c1.alive_positions, c2.alive_positions)
        np.testing.assert_array_equal(c1.truncated_flags, c2.truncated_flags)
    np.testing.assert_array_equal(res1.trace.d, res2.trace.d)


# busy_replicate's n_events, counters and float.hex of each census D and,
# with the window M = 1.2, D_trunc at three seeds (seed 0 goes extinct).  Any
# change to the draw order, the cohort bookkeeping or the window flags moves
# them; the window changes no draw, so D is the same at every M.
PINNED_STREAMS = {
    0: (34, {"created": 29, "absorbed": 15, "died_childless": 0, "branched": 14, "alive_final": 0},
        ["0x1.0000000000000p+0", "0x1.2e3081f3b0d84p-1", "0x1.ea8fb76388eaep-3", "0x0.0p+0", "0x0.0p+0"],
        ["0x1.0000000000000p+0", "0x1.2e3081f3b0d84p-1", "0x1.ea8fb76388eaep-3", "0x0.0p+0", "0x0.0p+0"]),
    2: (615, {"created": 517, "absorbed": 76, "died_childless": 0, "branched": 258, "alive_final": 183},
        ["0x1.0000000000000p+0", "0x1.102a6bec5f008p+4", "0x1.1099f6541ad6dp+5",
         "0x1.24a20fd66d8e5p+5", "0x1.47da6f8f2be8ap+4"],
        ["0x1.0000000000000p+0", "0x1.6540bbe84b0c9p+2", "0x1.c64cc2cb7ce49p+0",
         "0x1.cd424d7f21047p+1", "0x1.b4beb14b6626cp+1"]),
    36: (394, {"created": 349, "absorbed": 39, "died_childless": 0, "branched": 174, "alive_final": 136},
         ["0x1.0000000000000p+0", "0x1.abe94cc8823ecp+2", "0x1.805fc2a5b0008p+2",
          "0x1.540f56e9b3a50p+4", "0x1.f9071641fbfdap+5"],
         ["0x1.0000000000000p+0", "0x1.abe94cc8823ecp+2", "0x1.805fc2a5b0008p+2",
          "0x1.2e40e6a070bbep+1", "0x1.cf765471a4ba2p+1"]),
}


@pytest.mark.parametrize("seed", sorted(PINNED_STREAMS))
def test_replicate_stream_pinned(seed):
    res, _ = busy_replicate(seed=seed, M=1.2)
    d_hex = [float.hex(float(d)) for d in res.trace.d]
    d_trunc_hex = [float.hex(float(d)) for d in res.trace.d_trunc]
    assert (res.n_events, res.counters, d_hex, d_trunc_hex) == PINNED_STREAMS[seed]


def test_replicates_independent_of_execution_order():
    p = params(r=1.2)

    def job(i):
        res = run_replicate(p, 1.0, 2.0, [1.0, 2.0], None, spawn_rng_stream(3, i))
        return res.trace.n_alive[-1], res.trace.d[-1]

    seq = [job(i) for i in range(16)]
    with ThreadPoolExecutor(max_workers=4) as ex:
        par = list(ex.map(job, range(16)))
    assert seq == par


# -- census structure --------------------------------------------------------


def test_initial_census_is_the_starting_particle():
    res, _ = busy_replicate()
    c0 = res.censuses[0]
    assert c0.time == 0.0
    np.testing.assert_array_equal(c0.alive_positions, [1.0])
    assert res.trace.d[0] == pytest.approx(1.0, abs=1e-15)


def test_census_invariants():
    res, _ = busy_replicate()
    assert res.status == "ok"
    tr = res.trace
    for j, cen in enumerate(res.censuses):
        assert np.all(cen.alive_positions > 0)
        assert cen.truncated_flags.shape == cen.alive_positions.shape
        assert cen.extinct == (cen.alive_positions.size == 0)
        assert tr.times[j] == cen.time and tr.n_alive[j] == cen.alive_positions.size
    assert np.all(tr.d_trunc <= tr.d + 1e-15)
    assert np.all(tr.d >= 0)


def test_population_accounting_identity():
    for seed in range(10):
        res, _ = busy_replicate(seed=seed)
        k = res.counters
        assert k["created"] == (k["alive_final"] + k["absorbed"]
                                + k["died_childless"] + k["branched"]), k


def test_hereditary_truncation_flags():
    # A child's ok-flag implies its census-ancestor's flag one census back;
    # some descendants of escaped ancestors must come back inside the window.
    returned = 0
    for seed in range(5):
        res, _ = busy_replicate(seed=seed, M=1.2)
        for prev, cur in zip(res.censuses[1:], res.censuses[2:]):
            if cur.alive_positions.size == 0:
                continue
            anc_ok = prev.truncated_flags[cur.ancestor_index]
            assert np.all(~cur.truncated_flags | anc_ok)
            own_ok = truncation_flags_for([cur], 1.2)[0]
            returned += int((~anc_ok & own_ok).sum())
    assert returned > 0


def test_grid_validation():
    p = params()
    rng = spawn_rng_stream(0, 0)
    with pytest.raises(ValueError):
        run_replicate(p, 1.0, 2.0, [2.0, 1.0], None, rng)          # unsorted
    with pytest.raises(ValueError):
        run_replicate(p, 1.0, 2.0, [1.0, 5.0], None, rng)          # beyond horizon
    with pytest.raises(ValueError):
        run_replicate(p, -1.0, 2.0, [1.0], None, rng)              # bad start
    # NaN and infinite inputs: each check is written so that NaN fails it
    for x0, horizon, grid in [
        (1.0, math.nan, []), (1.0, math.nan, [1.0]),
        (1.0, 2.0, [math.nan]), (1.0, 2.0, [1.0, math.nan]), (1.0, 2.0, [math.nan, 1.0]),
        (1.0, math.inf, [1.0]), (math.inf, 2.0, [1.0]), (math.nan, 2.0, [1.0]),
    ]:
        with pytest.raises(ValueError):
            run_replicate(p, x0, horizon, grid, None, rng)
    with pytest.raises(ValueError):
        run_replicate(p, 1.0, 2.0, [1.0], None, None)              # rng required


def test_population_cap_aborts_with_status():
    p = params(r=3.0)
    res = run_replicate(p, 2.0, 8.0, [8.0], None, spawn_rng_stream(1, 0),
                        population_cap=500)
    assert res.status == "population_cap_exceeded"
    assert res.n_events <= 500                   # aborts before exceeding
    k = res.counters
    assert k["created"] == (k["alive_final"] + k["absorbed"]
                            + k["died_childless"] + k["branched"])


# -- certified survival ------------------------------------------------------

# p0 > 0, so q(inf) > 0: r (mu1 - 1) = 1.05 > c^2 / 2
PMF_P0 = OffspringLaw.from_pmf({0: 0.2, 1: 0.1, 2: 0.5, 3: 0.2})


def _spy_steps(monkeypatch) -> list:
    """Record the (positions, durations) of every killed-step call."""
    calls = []
    real = engine.sample_killed_steps_batch

    def spy(pos, dt, p, rng):
        calls.append((pos.copy(), dt.copy()))
        return real(pos, dt, p, rng)

    monkeypatch.setattr(engine, "sample_killed_steps_batch", spy)
    return calls


def test_certified_stream_is_prefix_of_unstopped(monkeypatch):
    calls = _spy_steps(monkeypatch)
    p = params(r=1.5)
    for i in range(50):
        calls.clear()
        res = run_replicate(p, 1.0, 8.0, [4.0, 8.0], None, spawn_rng_stream(61, i),
                            certify_survival=True)
        if res.status == "certified_survival":
            break
    stopped = list(calls)
    calls.clear()
    full = run_replicate(p, 1.0, 8.0, [4.0, 8.0], None, spawn_rng_stream(61, i))
    assert full.status == "ok" and 0 < len(stopped) < len(calls)
    for (pos_a, dt_a), (pos_b, dt_b) in zip(stopped, calls):
        np.testing.assert_array_equal(pos_a, pos_b)
        np.testing.assert_array_equal(dt_a, dt_b)


@pytest.mark.parametrize("law, x0, horizon", [(DYADIC, 1.0, 8.0), (PMF_P0, 3.0, 10.0)],
                         ids=["dyadic", "p0"])
def test_certified_replicates_survive_the_horizon(law, x0, horizon):
    p = params(r=1.5, offspring=law)
    certified = 0
    for i in range(200):
        res = run_replicate(p, x0, horizon, [horizon / 2, horizon], None, spawn_rng_stream(67, i),
                            checkpoint_chains=False, certify_survival=True)
        k = res.counters
        assert k["created"] == k["alive_final"] + k["absorbed"] + k["died_childless"] + k["branched"]
        if res.status != "certified_survival":
            assert res.extinction_bound is None
            continue
        certified += 1
        assert 0.0 <= res.extinction_bound < CERTIFY_EPS
        full = run_replicate(p, x0, horizon, [horizon / 2, horizon], None, spawn_rng_stream(67, i),
                             checkpoint_chains=False)
        assert full.status == "ok" and full.trace.n_alive[-1] > 0, i
    assert certified >= 30


@pytest.mark.parametrize("r", [0.3, 0.5])
def test_certify_never_stops_subcritical(r):
    p = params(r=r)
    for i in range(200):
        args = (p, 1.0, 20.0, [10.0, 20.0], None)
        res = run_replicate(*args, spawn_rng_stream(71, i), certify_survival=True)
        ref = run_replicate(*args, spawn_rng_stream(71, i))
        assert res.status == ref.status == "ok" and res.extinction_bound is None
        assert res.n_events == ref.n_events and res.counters == ref.counters
        np.testing.assert_array_equal(res.trace.d, ref.trace.d)


def test_certify_check_runs_before_cap_check():
    # q(40) is far below CERTIFY_EPS: certified before the first phase, so a
    # cap of zero events never fires; without the stop it does.
    p = params(r=1.5)
    res = run_replicate(p, 40.0, 5.0, [5.0], None, spawn_rng_stream(0, 0),
                        population_cap=0, certify_survival=True)
    assert res.status == "certified_survival" and res.n_events == 0
    assert res.counters["alive_final"] == 1
    res = run_replicate(p, 40.0, 5.0, [5.0], None, spawn_rng_stream(0, 0), population_cap=0)
    assert res.status == "population_cap_exceeded"


# -- statistical contracts ---------------------------------------------------


def test_subcritical_extinction():
    # E|N_200| ~ e^{-40} at r=0.3: every replicate should be extinct.
    p = params(r=0.3)
    extinct = 0
    for i in range(1000):
        res = run_replicate(p, 1.0, 200.0, [200.0], None, spawn_rng_stream(17, i))
        extinct += int(res.censuses[-1].extinct)
    assert extinct >= 999


def test_delta1_reduces_to_single_particle_motion():
    """With mu = delta_1 the population never exceeds one particle and the
    survival frequency must match the closed-form kernel probability."""
    p = params(r=0.7, offspring=DELTA1)
    t = 2.0
    n = 10**5
    sp = survival_probability(1.0, t, p)
    alive = 0
    for i in range(n):
        res = run_replicate(p, 1.0, t, [t], None, spawn_rng_stream(29, i))
        n_final = res.trace.n_alive[-1]
        assert n_final in (0, 1)
        alive += int(n_final)
    se = math.sqrt(sp * (1 - sp) / n)
    assert abs(alive / n - sp) < 3 * se, (alive / n, sp)


@pytest.mark.parametrize("t", [1.0, 2.0, 5.0])
def test_many_to_one_first_moment(t):
    # Engine mean of |N_t| against the quadrature oracle, 3 sigma, n=10^4.
    p = params(r=0.6)
    n = 10**4
    counts = np.empty(n)
    for i in range(n):
        res = run_replicate(p, 1.0, t, [t], None, spawn_rng_stream(41, i))
        counts[i] = res.trace.n_alive[-1]
    target = expected_count(1.0, t, AXIS, p)
    se = counts.std(ddof=1) / math.sqrt(n)
    assert abs(counts.mean() - target) < 3 * se, (t, counts.mean(), target, se)


def test_martingale_mean_one():
    # E[D_3] = 1 within 3 sigma at (c=1, r=0.6, dyadic), n=10^4.
    p = params(r=0.6)
    n = 10**4
    d = np.empty(n)
    for i in range(n):
        res = run_replicate(p, 1.0, 3.0, [3.0], None, spawn_rng_stream(53, i))
        d[i] = res.trace.d[-1]
    se = d.std(ddof=1) / math.sqrt(n)
    assert abs(d.mean() - 1.0) < 3 * se, (d.mean(), se)


def test_martingale_paired_increment():
    # E[D_2 - D_1] = 0 within 3 sigma, paired per replicate.
    p = params(r=0.6)
    n = 10**4
    inc = np.empty(n)
    for i in range(n):
        res = run_replicate(p, 1.0, 2.0, [1.0, 2.0], None, spawn_rng_stream(61, i))
        inc[i] = res.trace.d[-1] - res.trace.d[-2]
    se = inc.std(ddof=1) / math.sqrt(n)
    assert abs(inc.mean()) < 3 * se, (inc.mean(), se)


def test_event_recorder_collects_waits_and_offspring():
    rec = EventRecorder()
    p = params(r=1.5)
    res = run_replicate(p, 1.0, 4.0, [4.0], None, spawn_rng_stream(71, 0),
                        event_recorder=rec)
    waits, offs, times = rec.waits(), rec.offspring(), rec.times()
    assert rec.n_events == waits.size == offs.size == times.size
    assert rec.n_events == res.counters["branched"] + res.counters["died_childless"]
    assert np.all(waits > 0)
    assert np.all((times > 0) & (times <= 4.0))
    assert np.all(times - waits >= -1e-12)        # birth = time - wait >= 0
    assert set(np.unique(offs)) <= {2}            # dyadic support


# -- reductions and truncation windows ---------------------------------------


def test_count_additivity_and_axis():
    B1, B2 = IntervalSet.parse("0,1"), IntervalSet.parse("1,inf")
    res = run_replicate(params(r=1.5), 1.0, 4.0, [0.0, 1.0, 2.0, 3.0, 4.0], 3.0,
                        spawn_rng_stream(2, 0), interval_sets=(B1, B2, B1.union(B2), AXIS))
    sc, n = res.trace.set_counts, res.trace.n_alive
    assert n[-1] > 0
    np.testing.assert_array_equal(sc[:, 3], n)
    np.testing.assert_array_equal(sc[:, 0] + sc[:, 1], n)
    np.testing.assert_array_equal(sc[:, 2], n)


def test_trace_set_counts_match_reductions():
    res, _ = busy_replicate()
    sets = res.trace.interval_sets
    for j, cen in enumerate(res.censuses):
        for k, B in enumerate(sets):
            assert res.trace.set_counts[j, k] == int(np.count_nonzero(B.indicator(cen.alive_positions)))


def test_vacuous_truncation_window():
    res, _ = busy_replicate(seed=2, M=math.inf)
    for cen in res.censuses:
        assert np.all(cen.truncated_flags)
    np.testing.assert_allclose(res.trace.d_trunc, res.trace.d, rtol=1e-15, atol=0)


def test_empty_census_martingale():
    p = params(r=0.3)
    res = run_replicate(p, 0.2, 50.0, [50.0], None, spawn_rng_stream(83, 0))
    assert res.censuses[-1].extinct
    assert res.trace.d[-1] == 0.0 and res.trace.d_trunc[-1] == 0.0
    assert res.trace.n_alive[-1] == 0


def test_shifted_truncation_s0_equals_runtime_flags():
    """Post-hoc window recomputation at s=0 must reproduce the run-time flags
    bit for bit, for every census and several M: a census grid from 0 or
    first census after 0, p0 > 0 offspring, a cap-aborted run, and the
    run-time flags of a run without checkpoint chains (recomputed from a
    run with them at the same seed)."""
    busy = params(r=1.5)
    p0 = params(c=0.8, r=1.4, offspring=OffspringLaw.from_pmf({0: 0.2, 1: 0.1, 2: 0.4, 3: 0.3}))
    cases = [  # params, x0, horizon, census grid, keywords
        (busy, 1.0, 4.0, [0.0, 1.0, 2.0, 3.0, 4.0], {}),
        (busy, 1.0, 4.0, [0.7, 2.0, 4.0], {}),
        (p0, 0.9, 3.0, [0.0, 1.0, 3.0], {}),
        (params(r=3.0), 2.0, 8.0, [1.0, 2.0, 8.0], {"population_cap": 500}),
        (busy, 1.0, 4.0, [0.0, 1.0, 2.0, 3.0, 4.0], {"checkpoint_chains": False}),
    ]
    statuses, escaped = set(), 0
    for p, x0, horizon, grid, kw in cases:
        for seed in range(5):
            def run(M, **extra):
                return run_replicate(p, x0, horizon, grid, M, spawn_rng_stream(seed, 0),
                                     **{**kw, **extra})
            res = run(2.5, checkpoint_chains=True)
            statuses.add(res.status)
            for M in (1.2, 1.5, 2.05, 2.5, 4.0):
                flags = truncation_flags_for(res.censuses, M, s=0.0)
                res_m = run(M)
                assert len(flags) == len(res_m.censuses)
                for f, cen in zip(flags, res_m.censuses):
                    np.testing.assert_array_equal(f, cen.truncated_flags)
                    escaped += int((~f).sum())
    assert "population_cap_exceeded" in statuses and escaped > 0


def _in_window(censuses, M, s):
    """Alive particles at the last census whose path stayed in the
    s-shifted window at every checkpoint."""
    return int(truncation_flags_for(censuses, M, s)[-1].sum())


def test_shifted_truncated_count_monotone_in_M():
    res, _ = busy_replicate(seed=9, M=3.0)
    counts = [_in_window(res.censuses, M, 0.0) for M in (1.5, 2.0, 3.0, 6.0)]
    assert counts == sorted(counts)
    assert counts[-1] <= res.trace.n_alive[-1]
    # the run's own window is M = 3
    assert counts[2] == int(res.censuses[-1].truncated_flags.sum())
    assert (counts[2] > 0) == (res.trace.d_trunc[-1] > 0)


def test_shifted_window_reduces_alive_set():
    # s > 0 widens every window (larger intercept), so counts only grow.
    res, _ = busy_replicate(seed=4, M=3.0)
    c0 = _in_window(res.censuses, 3.0, 0.0)
    c_shift = _in_window(res.censuses, 3.0, 5.0)
    assert c0 <= c_shift <= res.trace.n_alive[-1]


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_accounting_identity_property(seed):
    p = params(r=1.2)
    res = run_replicate(p, 0.8, 2.0, [1.0, 2.0], 4.0, spawn_rng_stream(97, seed))
    k = res.counters
    assert k["created"] == (k["alive_final"] + k["absorbed"]
                            + k["died_childless"] + k["branched"])
    assert res.trace.d_trunc[-1] <= res.trace.d[-1] + 1e-15


def test_checkpoint_chains_off_same_statistics():
    # the checkpoint trees are pure bookkeeping: same rng draws, same
    # censuses, same flags
    res_on, p = busy_replicate(seed=12, M=2.5)
    res_off, _ = busy_replicate(seed=12, M=2.5, checkpoint_chains=False)
    assert np.array_equal(res_on.trace.d, res_off.trace.d)
    assert np.array_equal(res_on.trace.d_trunc, res_off.trace.d_trunc)
    assert np.array_equal(res_on.trace.set_counts, res_off.trace.set_counts)
    for a, b in zip(res_on.censuses, res_off.censuses):
        assert np.array_equal(a.alive_positions, b.alive_positions)
        assert np.array_equal(a.truncated_flags, b.truncated_flags)
        assert all(v is None for v in (b.chk_slot, b.chk_time, b.chk_pos, b.chk_prev, b.chk_block))
    # every recomputation, s = 0 included, reads the trees
    with pytest.raises(ValueError, match="checkpoint chains"):
        truncation_flags_for(res_off.censuses, 2.5, s=0.0)


def test_checkpoint_chains_required_for_shifted_window():
    res_off, _ = busy_replicate(seed=12, M=2.5, checkpoint_chains=False)
    with pytest.raises(ValueError, match="checkpoint chains"):
        truncation_flags_for(res_off.censuses, 2.5, s=1.0)
    with pytest.raises(ValueError, match="checkpoint chains"):
        window_escape_bounds(res_off.censuses, 2.5)


# -- path-continuous window escape -------------------------------------------


def _fine_step_escape(t0, x0, t1, x1, M, n=20_000, steps=1000, seed=0):
    """Independent estimate of P(bridge leaves J_M | bridge stays positive).

    Samples the bridge on a fine grid; on each fine step the conditional
    probabilities of staying positive and of staying under the local chord
    of the window edge are the one-line bridge formulas, so the estimate is
    a weighted ratio with a delta-method standard error.
    """
    rng = np.random.default_rng(seed)
    tau = t1 - t0
    dt = tau / steps
    x = np.full(n, x0)
    w_pos = np.ones(n)
    stay = np.ones(n)
    for i in range(steps):
        rem = tau - i * dt
        if i < steps - 1:
            y = (x + (x1 - x) * dt / rem
                 + np.sqrt(dt * (rem - dt) / rem) * rng.standard_normal(n))
        else:
            y = np.full(n, x1)
        ga = M * (1.0 + (t0 + i * dt) ** 0.75) - x
        gb = M * (1.0 + (t0 + (i + 1) * dt) ** 0.75) - y
        w_pos *= -np.expm1(-2.0 * np.maximum(x, 0) * np.maximum(y, 0) / dt)
        stay *= -np.expm1(-2.0 * np.maximum(ga, 0) * np.maximum(gb, 0) / dt)
        x = y
    f = w_pos * (1.0 - stay)
    est = f.sum() / w_pos.sum()
    se = math.sqrt(np.sum((f - est * w_pos) ** 2)) / w_pos.sum()
    return est, se


@pytest.mark.parametrize("t0,x0,t1,x1,M", [
    (0.0, 0.5, 1.0, 0.8, 1.0),     # t0 = 0: infinite edge slope
    (0.0, 1.0, 0.3, 0.9, 1.2),     # short, starting at t = 0
    (1.0, 1.0, 4.0, 1.5, 1.0),     # long segment, tau = 3
    (3.0, 2.0, 6.0, 0.3, 1.0),     # long, ending near the origin
    (2.0, 0.05, 2.5, 0.2, 0.5),    # near the origin: positivity dominates
])
def test_segment_escape_bracket_contains_fine_step_estimate(t0, x0, t1, x1, M):
    lo, hi = _segment_escape_bounds([t0], [x0], [t1], [x1], M)
    est, se = _fine_step_escape(t0, x0, t1, x1, M)
    assert 0.0 < lo[0] <= hi[0] < 1.0
    assert lo[0] - 3 * se <= est <= hi[0] + 3 * se, (lo[0], est, se, hi[0])


def test_segment_escape_bounds_limits():
    # an end point on or outside the edge: certain escape
    lo, hi = _segment_escape_bounds([0.0, 1.0], [2.0, 0.5], [1.0, 2.0], [0.5, 4.0], 1.0)
    assert np.all(lo == 1.0) and np.all(hi == 1.0)
    # far from the origin the positivity conditioning is void and the chord
    # bound is the one-line bridge formula exp(-2 g0 g1 / tau)
    _, hi = _segment_escape_bounds([1.0], [40.0], [2.0], [41.0], 25.0)
    g0, g1 = 25.0 * 2.0 - 40.0, 25.0 * (1.0 + 2.0**0.75) - 41.0
    assert hi[0] == pytest.approx(math.exp(-2.0 * g0 * g1), rel=1e-12)
    # end points approaching 0 (the positive bridge's law converges) keep
    # full precision: no cancellation in the two-line series
    near = [_segment_escape_bounds([1.0], [x], [2.0], [x], 1.0) for x in (1e-6, 1e-100)]
    for (lo_a, hi_a), (lo_b, hi_b) in zip(near, near[1:]):
        assert 0.0 < lo_b[0] <= hi_b[0] < 1.0
        assert lo_b[0] == pytest.approx(lo_a[0], rel=1e-5)
        assert hi_b[0] == pytest.approx(hi_a[0], rel=1e-5)
    # the line crossing of a bridge is invariant under time reversal
    args = [np.array([v]) for v in (0.7, 1.3, 1e-9, 0.05, 0.9)]
    fwd = _line_crossing_given_positive(*args)
    rev = _line_crossing_given_positive(args[1], args[0], args[3], args[2], args[4])
    assert fwd[0] == pytest.approx(rev[0], rel=1e-12)


def test_window_escape_bounds_on_busy_replicates():
    Ms = (1.5, 2.5, 4.0)
    for seed in range(5):
        res, _ = busy_replicate(seed=seed, M=2.5)
        per_M = [window_escape_bounds(res.censuses, M) for M in Ms]
        for M, bounds in zip(Ms, per_M):
            flags = truncation_flags_for(res.censuses, M)
            prev = None
            for cen, f, (lo, hi) in zip(res.censuses, flags, bounds):
                assert lo.shape == hi.shape == cen.alive_positions.shape
                assert np.all((0.0 <= lo) & (lo <= hi) & (hi <= 1.0))
                assert np.all(lo[~f] == 1.0)
                # a lineage's escape probability only grows along its path
                if prev is not None:
                    has = cen.ancestor_index >= 0
                    anc = cen.ancestor_index[has]
                    assert np.all(lo[has] >= prev[0][anc])
                    assert np.all(hi[has] >= prev[1][anc])
                prev = (lo, hi)
        for small, large in zip(per_M, per_M[1:]):
            for (lo_s, hi_s), (lo_l, hi_l) in zip(small, large):
                assert np.all(lo_l <= lo_s) and np.all(hi_l <= hi_s)



# -- checkpoint trees ----------------------------------------------------------

# (params, x0, horizon, census grid, keywords): deep single-child chains, p0 > 0,
# a census at t = 0 and a first census after 0, a horizon tail, a cap abort
TREE_CASES = {
    "delta1": (params(c=0.3, r=6.0, offspring=DELTA1), 2.0, 3.0, [0.0, 3.0], {}),
    "p0": (params(c=0.8, r=1.4, offspring=OffspringLaw.from_pmf({0: 0.2, 1: 0.1, 2: 0.4, 3: 0.3})),
           0.9, 3.0, [0.0, 1.0, 3.0], {}),
    "from_zero": (params(r=1.5), 1.0, 4.0, [0.0, 1.0, 2.0, 3.0, 4.0], {}),
    "first_after_zero": (params(r=1.5), 1.0, 4.0, [0.7, 2.0, 4.0], {}),
    "tail": (params(r=1.5), 1.0, 5.0, [1.0, 2.5], {}),
    "cap": (params(r=3.0), 2.0, 8.0, [1.0, 2.0, 8.0], {"population_cap": 500}),
}


def _tree_case(name, seed):
    p, x0, horizon, grid, kw = TREE_CASES[name]
    return run_replicate(p, x0, horizon, grid, None, spawn_rng_stream(seed, 0), **kw), x0


def _walk_paths(censuses, x0, M, s):
    """Window flags at shift s and, at s = 0, escape brackets, by walking
    each alive particle's chk_prev chain from its leaf to its root in plain
    Python: the AND of the window checks along the path, and the sum of the
    per-edge log stay-probabilities, joined to the ancestor's at the
    previous census.  Also checks that each path starts where its ancestor
    was at the previous census (the start point before the first)."""
    flags, bounds = [], []
    prev = None
    for cen in censuses:
        t, x, up = cen.chk_time.tolist(), cen.chk_pos.tolist(), cen.chk_prev.tolist()
        edges = [row for row, u in enumerate(up) if u >= 0]
        e_lo, e_hi = _segment_escape_bounds([t[up[r]] for r in edges], [x[up[r]] for r in edges],
                                            [t[r] for r in edges], [x[r] for r in edges], M)
        log_stay = {r: (math.log1p(-ph) if ph < 1 else -math.inf,
                        math.log1p(-pl) if pl < 1 else -math.inf)
                    for r, pl, ph in zip(edges, e_lo.tolist(), e_hi.tolist())}
        f, lo, hi = [], [], []
        for i, leaf in enumerate(cen.chk_slot.tolist()):
            assert (t[leaf], x[leaf]) == (cen.time, cen.alive_positions[i])
            ok, s_lo, s_hi, row = True, 0.0, 0.0, leaf
            while True:
                ok = ok and x[row] < M * (1.0 + (s + t[row]) ** 0.75)
                if up[row] < 0:
                    break
                s_lo, s_hi = s_lo + log_stay[row][0], s_hi + log_stay[row][1]
                row = up[row]
            a = int(cen.ancestor_index[i])
            if a >= 0:
                assert (t[row], x[row]) == (prev[0].time, prev[0].alive_positions[a])
                ok = ok and prev[1][a]
                s_lo, s_hi = s_lo + prev[2][a], s_hi + prev[3][a]
            else:
                assert prev is None and (t[row], x[row]) == (0.0, x0)
            if not ok:
                s_lo = s_hi = -math.inf
            f.append(ok)
            lo.append(s_lo)
            hi.append(s_hi)
        prev = (cen, f, lo, hi)
        flags.append(np.array(f, dtype=bool))
        bounds.append((-np.expm1(hi), -np.expm1(lo)))
    return flags, bounds


@pytest.mark.parametrize("name", sorted(TREE_CASES))
def test_tree_consumers_match_plain_path_walk(name):
    Ms = (1.9, 2.1, 2.5) if name == "delta1" else (1.2, 2.0, 3.0)
    depth, escaped, statuses = 0, 0, set()
    for seed in range(4):
        res, x0 = _tree_case(name, seed)
        statuses.add(res.status)
        for cen in res.censuses:
            rows = np.arange(cen.chk_prev.size)
            assert np.all(cen.chk_prev < rows)
            # blocks: the roots first, then rows whose parents lie in
            # earlier blocks
            block = cen.chk_block
            assert block[0] == 0 and block[-1] == rows.size and np.all(np.diff(block) >= 0)
            assert np.all(cen.chk_prev[:block[1]] == -1)
            start = block[np.searchsorted(block, rows, side="right") - 1]
            assert np.all((cen.chk_prev[block[1]:] >= 0) & (cen.chk_prev < start)[block[1]:])
            lengths = np.zeros(rows.size, np.int64)
            for row, u in enumerate(cen.chk_prev.tolist()):
                lengths[row] = lengths[u] + 1 if u >= 0 else 0
            depth = max(depth, int(lengths.max(initial=0)))
        for M in Ms:
            got = window_escape_bounds(res.censuses, M)
            for s in (0.0, 2.0, 5.0):
                flags, bounds = _walk_paths(res.censuses, x0, M, s)
                for f, g in zip(flags, truncation_flags_for(res.censuses, M, s)):
                    np.testing.assert_array_equal(g, f)
                    escaped += int((~f).sum())
                if s == 0.0:
                    for (lo, hi), (g_lo, g_hi) in zip(bounds, got):
                        np.testing.assert_allclose(g_lo, lo, rtol=1e-12, atol=0)
                        np.testing.assert_allclose(g_hi, hi, rtol=1e-12, atol=0)
    assert escaped > 0
    if name == "delta1":
        assert depth >= 16       # deep paths: many blocks
    if name == "cap":
        assert statuses == {"population_cap_exceeded"}


@pytest.mark.parametrize("name", ["delta1", "p0", "from_zero", "first_after_zero"])
def test_each_checkpoint_stored_once(name):
    # rows = census points + interval start points + branch events with
    # children, when every branch event falls inside a censused interval
    for seed in range(6):
        res, _ = _tree_case(name, seed)
        assert res.status == "ok" and res.censuses[-1].time == TREE_CASES[name][2]
        n = res.trace.n_alive
        rows = sum(cen.chk_time.size for cen in res.censuses)
        assert rows == n.sum() + 1 + n[:-1].sum() + res.counters["branched"]
        roots = [int((cen.chk_prev < 0).sum()) for cen in res.censuses]
        assert roots == [1] + n[:-1].tolist()
