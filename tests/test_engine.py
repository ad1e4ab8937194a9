import hashlib
import itertools
import math
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbma import engine, kernel
from bbma.engine import (
    CERTIFY_EPS,
    EventRecorder,
    run_replicate,
    spawn_rng_stream,
    _line_crossing_given_positive,
    _segment_escape_bounds,
    set_counts,
    truncated_martingale,
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


def busy_replicate(seed=0, **kw):
    """A supercritical run from x0 = 1 with enough branching to exercise
    everything, with checkpoint trees unless kw says otherwise."""
    p = params(r=1.5)
    return run_replicate(p, 1.0, 4.0, [0.0, 1.0, 2.0, 3.0, 4.0], spawn_rng_stream(seed, 0),
                         **{"checkpoint_chains": True, **kw}), p


def census_ancestors(cen):
    """Each alive particle's slot at the previous census: the root that its
    chk_prev chain reaches, as a census tree's roots are the previous
    census's particles in slot order."""
    row = cen.chk_slot
    while np.any(cen.chk_prev[row] >= 0):
        row = np.where(cen.chk_prev[row] >= 0, cen.chk_prev[row], row)
    return row


# -- rng streams -------------------------------------------------------------


def test_spawn_rng_stream_deterministic():
    a = spawn_rng_stream(42, 7).bytes(64)
    b = spawn_rng_stream(42, 7).bytes(64)
    assert a == b


def test_spawn_rng_stream_distinct_indices():
    a = spawn_rng_stream(42, 0).bytes(8)
    b = spawn_rng_stream(42, 1).bytes(8)
    assert a != b


@pytest.mark.parametrize("seed, index", [(0, 0), (42, 7), (12345, 2**32), (2**64 - 1, 0), (2**64 - 1, 99)])
def test_spawn_rng_stream_state_equals_philox_key(seed, index):
    """The stream's state is that of Philox(key=k) for the mixed key k, and
    the two draw the same numbers."""
    key = engine._mix64((seed + engine._GAMMA * (index + 1)) & engine._MASK64)
    got = spawn_rng_stream(seed, index)
    want = np.random.Philox(key=key)
    gs, ws = got.bit_generator.state, want.state
    assert gs.keys() == ws.keys() and gs["bit_generator"] == ws["bit_generator"] == "Philox"
    assert all(np.array_equal(gs["state"][k], ws["state"][k]) for k in ("counter", "key"))
    assert np.array_equal(gs["buffer"], ws["buffer"])
    assert all(gs[k] == ws[k] for k in ("buffer_pos", "has_uint32", "uinteger"))
    assert got.random(8).tolist() == np.random.Generator(want).random(8).tolist()


def test_replicate_bit_identical_reruns():
    res1, _ = busy_replicate(seed=5)
    res2, _ = busy_replicate(seed=5)
    assert res1.status == res2.status
    assert res1.n_events == res2.n_events
    for c1, c2 in zip(res1.censuses, res2.censuses):
        np.testing.assert_array_equal(c1.alive_positions, c2.alive_positions)
    for f1, f2 in zip(truncation_flags_for(res1.censuses, 3.0), truncation_flags_for(res2.censuses, 3.0)):
        np.testing.assert_array_equal(f1, f2)
    np.testing.assert_array_equal(res1.trace.d, res2.trace.d)


# busy_replicate's n_events, counters and float.hex of each census D and of
# truncated_martingale at the window M = 1.2, at three seeds (seed 0 goes
# extinct).  Any change to the draw order, the cohort bookkeeping or the
# window flags moves them.
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
    res, p = busy_replicate(seed=seed)
    d_hex = [float.hex(float(d)) for d in res.trace.d]
    d_trunc_hex = [float.hex(float(d)) for d in truncated_martingale(res.censuses, p, 1.0, 1.2)]
    assert (res.n_events, res.counters, d_hex, d_trunc_hex) == PINNED_STREAMS[seed]


MIXED = OffspringLaw.from_pmf({0: 0.2, 1: 0.1, 2: 0.4, 3: 0.3})


def _hex_digest(values):
    return hashlib.sha256(" ".join(float.hex(float(v)) for v in values).encode()).hexdigest()


# A non-dyadic stream: the law MIXED at c = 1, r = 1.5 from x0 = 1 to horizon
# 5, censuses every 1.25, on spawn_rng_stream(2, 0), which draws child counts
# with rng.choice and has childless deaths and single children.  Per
# certify_survival: status, n_events, counters, float.hex of each census D
# and of extinction_bound, and the EventRecorder's event count with sha256
# digests of its waits, offspring and event times, each as float.hex
# strings.  The certified run stops on a prefix of the same stream.  Any
# change to the draw order or the cohort bookkeeping moves them.
MIXED_PINNED_STREAMS = {
    False: ("ok", 1085,
            {"created": 945, "absorbed": 244, "died_childless": 73, "branched": 411, "alive_final": 217},
            ["0x1.0000000000000p+0", "0x1.03705d22e2894p+4", "0x1.0770d2c319f7cp+4",
             "0x1.a641775415102p+3", "0x1.6ddabdd8653a3p+4"],
            None, 484,
            "af7bb90f46609a3b1633ebfa187aee1f39c4031152b66a5626d5e25a1ae3950b",
            "c4fc83a6e9f6e406ef3e8ac8a3692317d0ab135d8bdeeca5043aa3255bf830d0",
            "e9c379dc84fcfec12e84da71ae01836fc9bb586ade467abf3f492fbe94fb2dea"),
    True: ("certified_survival", 862,
           {"created": 821, "absorbed": 205, "died_childless": 61, "branched": 357, "alive_final": 198},
           ["0x1.0000000000000p+0", "0x1.03705d22e2894p+4", "0x1.0770d2c319f7cp+4",
            "0x1.a641775415102p+3"],
           "0x1.58759e11fa695p-41", 418,
           "329d55260fe3ee3159f20c839929b660c947d3cc61f302efa0bcc8e5797ccda4",
           "c66a09dfb3fa779b4cf92156b2b1e63904779e067934eaec377d614ae3e20864",
           "b6a52d7ba8a44176cdad9ccf756ba5077a3cfc01e13c14cc22fbc2b1359346c0"),
}


@pytest.mark.parametrize("certify", [False, True])
def test_non_dyadic_stream_pinned(certify):
    rec = EventRecorder()
    res = run_replicate(params(r=1.5, offspring=MIXED), 1.0, 5.0, [0.0, 1.25, 2.5, 3.75, 5.0],
                        spawn_rng_stream(2, 0), event_recorder=rec, certify_survival=certify)
    bound = None if res.extinction_bound is None else float.hex(res.extinction_bound)
    got = (res.status, res.n_events, res.counters, [float.hex(float(d)) for d in res.trace.d],
           bound, rec.n_events, _hex_digest(rec.waits()), _hex_digest(rec.offspring()),
           _hex_digest(rec.times()))
    assert got == MIXED_PINNED_STREAMS[certify]


# The dyadic law on the same model, grid and stream: status, n_events,
# counters, float.hex of each census D, and the EventRecorder's event count
# with sha256 digests of its waits, offspring and event times.  A one-atom law
# fixes every child count without a draw, so the engine builds its count
# array only for a recorder; this pins that array and the event times.
DYADIC_RECORDER_PIN = (
    "ok", 489, {"created": 433, "absorbed": 96, "died_childless": 0, "branched": 216, "alive_final": 121},
    ["0x1.0000000000000p+0", "0x1.e3c323834501cp+3", "0x1.285d012296197p+2",
     "0x1.26909751d1df3p+2", "0x1.233d0ef8d43f4p+2"],
    216,
    "6e00b715c886c5c2a6a9978165304833fa131a647dfd5d1c2e6e131bbd2e5e5c",
    "aabb7c88fb3ca3043cc5beea7bd62af33dccdb5a11037d5b21fecb3996d7a0f2",
    "6ceee8404ece045978ca3ce05728f37162d0bceba4c36b135b55252b7fab4b52",
)


def test_dyadic_recorder_stream_pinned():
    rec = EventRecorder()
    res = run_replicate(params(r=1.5), 1.0, 5.0, [0.0, 1.25, 2.5, 3.75, 5.0],
                        spawn_rng_stream(2, 0), event_recorder=rec)
    got = (res.status, res.n_events, res.counters, [float.hex(float(d)) for d in res.trace.d],
           rec.n_events, _hex_digest(rec.waits()), _hex_digest(rec.offspring()),
           _hex_digest(rec.times()))
    assert got == DYADIC_RECORDER_PIN
    assert rec.offspring().dtype == np.int64


def _set_few(monkeypatch, few):
    """Route every kernel call and cohort phase to the array path (few = 0)
    or to Python floats (few = 10^9)."""
    if few is not None:
        monkeypatch.setattr(kernel, "_FEW", few)
        monkeypatch.setattr(engine, "_FEW", few)


@pytest.mark.parametrize("few", [0, 10**9])
def test_pinned_streams_any_few(monkeypatch, few):
    """The pinned streams, with every phase and killed step on arrays or
    every one on Python floats."""
    _set_few(monkeypatch, few)
    for seed in PINNED_STREAMS:
        test_replicate_stream_pinned(seed)
    for certify in (False, True):
        test_non_dyadic_stream_pinned(certify)
    test_dyadic_recorder_stream_pinned()


def _engine_digest(case) -> str:
    """sha256 over every output of n replicates: status, counters, event
    count, extinction bound, trace, every census field (checkpoint trees
    included) and the EventRecorder's arrays, each array with its dtype."""
    c, r, pmf, x0, horizon, grid, seed, n, kw = case
    p = ModelParams(c, r, OffspringLaw.from_pmf(pmf))
    h = hashlib.sha256()

    def put(*items):
        for v in items:
            if isinstance(v, np.ndarray):
                h.update(v.dtype.str.encode() + repr(v.shape).encode() + v.tobytes())
            else:
                h.update(repr(v).encode())

    for i in range(n):
        rec = EventRecorder() if kw.get("event_recorder") else None
        res = run_replicate(p, x0, horizon, grid, spawn_rng_stream(seed, i),
                            **{"checkpoint_chains": True, **kw, "event_recorder": rec})
        put(res.status, res.n_events, sorted(res.counters.items()), res.extinction_bound,
            res.trace.times, res.trace.d, res.trace.n_alive)
        for cen in res.censuses:
            put(cen.time, cen.alive_positions, cen.absorbed_count, cen.chk_slot, cen.chk_time,
                cen.chk_pos, cen.chk_prev, cen.chk_block)
        if rec is not None:
            put(rec.waits(), rec.offspring(), rec.times())
    return h.hexdigest()


_MIXED_PMF = {0: 0.2, 1: 0.1, 2: 0.4, 3: 0.3}
# (c, r, pmf, x0, horizon, census grid, master seed, replicates, keywords)
# per engine branch, and each case's digest recorded before cohort phases
# of at most _FEW particles ran on Python floats.  Populations range from
# none (near_origin mostly dies at once) to 87 (cap_abort), so phases cross
# _FEW both ways.
ENGINE_DIGEST_CASES = {
    "p0": ((1.0, 1.5, _MIXED_PMF, 1.0, 4.0, [0.0, 1.0, 2.5, 4.0], 11, 40, {}),
           "092babf8d957b7d02bfe18ba84d6fb41d4e2b56dbe9762cc065faed5ffaa1851"),
    "delta1": ((1.0, 1.5, {1: 1.0}, 1.0, 3.0, [1.0, 3.0], 12, 40, {}),
               "cfe53a2962d23b4277020b449515c49b88bb42ae45f65b11d9293ed1a66074c1"),
    "certified": ((1.0, 3.0, _MIXED_PMF, 1.0, 8.0, [2.0, 8.0], 13, 20, {"certify_survival": True}),
                  "7ca854e26845522f79e67219b7fd0de18c8e834c1a2555a2c1c45585ec6c36c4"),
    "cap_abort": ((1.0, 3.0, {2: 1.0}, 1.0, 4.0, [1.0, 2.0], 14, 20, {"population_cap": 300}),
                  "5561d09092780e5b503e9c0d80b76f537beb7a6fe368451cc87dc20fc36c9570"),
    "recorder": ((1.0, 1.5, {2: 1.0}, 1.0, 4.0, [1.25, 2.5], 15, 40, {"event_recorder": True}),
                 "de029b8d8b9e4ae06befbe775c86248ea6af6ed82dfcf940b8526eba093b0749"),
    "no_chains": ((1.0, 1.5, {0: 0.3, 2: 0.7}, 1.0, 4.0, [1.0, 4.0], 16, 40, {"checkpoint_chains": False}),
                  "cb002c0a5d95dd6aa5897580e9d27070dfd5a881d807a1c86c037817e42d9324"),
    "near_origin": ((3.0, 6.0, {2: 1.0}, 0.02, 0.1, [0.005, 0.02, 0.1], 17, 200, {}),
                    "a81b136adaa00939d8a59dd05efe581977db158aef480980323cee04d8b991d9"),
}


@pytest.mark.parametrize("few", [None, 0, 10**9], ids=["default", "arrays", "floats"])
@pytest.mark.parametrize("name", sorted(ENGINE_DIGEST_CASES))
def test_engine_digest_pinned(monkeypatch, name, few):
    _set_few(monkeypatch, few)
    case, digest = ENGINE_DIGEST_CASES[name]
    assert _engine_digest(case) == digest


@pytest.mark.parametrize("block", [1, 10**9])
@pytest.mark.parametrize("few", [None, 0], ids=["default", "arrays"])
@pytest.mark.parametrize("name", sorted(ENGINE_DIGEST_CASES))
def test_engine_digest_pinned_any_block(monkeypatch, name, few, block):
    """The pinned digests with every array call of the killed step through
    the squeeze, every array block one particle long or each call in a
    single block."""
    monkeypatch.setattr(kernel, "_SQUEEZE_MIN", 0)
    monkeypatch.setattr(kernel, "_BLOCK", block)
    test_engine_digest_pinned(monkeypatch, name, few)


def test_replicates_independent_of_execution_order():
    p = params(r=1.2)

    def job(i):
        res = run_replicate(p, 1.0, 2.0, [1.0, 2.0], spawn_rng_stream(3, i))
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
    res, p = busy_replicate()
    assert res.status == "ok"
    tr = res.trace
    flags = truncation_flags_for(res.censuses, 3.0)
    for j, cen in enumerate(res.censuses):
        assert np.all(cen.alive_positions > 0)
        assert flags[j].shape == cen.alive_positions.shape
        assert tr.times[j] == cen.time and tr.n_alive[j] == cen.alive_positions.size
    assert np.all(truncated_martingale(res.censuses, p, 1.0, 3.0) <= tr.d + 1e-15)
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
        res, _ = busy_replicate(seed=seed)
        flags = truncation_flags_for(res.censuses, 1.2)
        for prev, cur, f in zip(flags[1:], res.censuses[2:], flags[2:]):
            if cur.alive_positions.size == 0:
                continue
            anc_ok = prev[census_ancestors(cur)]
            assert np.all(~f | anc_ok)
            own_ok = truncation_flags_for([cur], 1.2)[0]
            returned += int((~anc_ok & own_ok).sum())
    assert returned > 0


def test_grid_validation():
    p = params()
    rng = spawn_rng_stream(0, 0)
    with pytest.raises(ValueError):
        run_replicate(p, 1.0, 2.0, [2.0, 1.0], rng)                # unsorted
    with pytest.raises(ValueError):
        run_replicate(p, 1.0, 2.0, [1.0, 5.0], rng)                # beyond horizon
    with pytest.raises(ValueError):
        run_replicate(p, -1.0, 2.0, [1.0], rng)                    # bad start
    # NaN and infinite inputs: each check is written so that NaN fails it
    for x0, horizon, grid in [
        (1.0, math.nan, []), (1.0, math.nan, [1.0]),
        (1.0, 2.0, [math.nan]), (1.0, 2.0, [1.0, math.nan]), (1.0, 2.0, [math.nan, 1.0]),
        (1.0, math.inf, [1.0]), (math.inf, 2.0, [1.0]), (math.nan, 2.0, [1.0]),
    ]:
        with pytest.raises(ValueError):
            run_replicate(p, x0, horizon, grid, rng)
    with pytest.raises(ValueError):
        run_replicate(p, 1.0, 2.0, [1.0], None)                    # rng required


def test_population_cap_aborts_with_status():
    p = params(r=3.0)
    res = run_replicate(p, 2.0, 8.0, [8.0], spawn_rng_stream(1, 0),
                        population_cap=500)
    assert res.status == "population_cap_exceeded"
    assert res.n_events <= 500                   # aborts before exceeding
    k = res.counters
    assert k["created"] == (k["alive_final"] + k["absorbed"]
                            + k["died_childless"] + k["branched"])


# Census grids on [0, 4]: none, ending at the horizon, and a horizon tail
# beyond the last census.
IDENTITY_GRIDS = {"no_census": [], "to_horizon": [1.0, 2.0, 4.0], "tail": [1.0, 2.0]}
# (model, x0, options) per status; each reaches its status within 40 streams.
IDENTITY_RUNS = {
    "ok": (params(r=1.5), 1.0, {}),
    "population_cap_exceeded": (params(r=3.0), 1.0, {"population_cap": 2000}),
    "certified_survival": (params(r=2.0), 0.5, {"certify_survival": True}),
}


@pytest.mark.parametrize("grid", IDENTITY_GRIDS.values(), ids=IDENTITY_GRIDS)
@pytest.mark.parametrize("status", IDENTITY_RUNS)
def test_accounting_identity_every_status(status, grid):
    p, x0, kw = IDENTITY_RUNS[status]
    seen = 0
    for i in range(40):
        res = run_replicate(p, x0, 4.0, grid, spawn_rng_stream(113, i), **kw)
        k = res.counters
        assert k["created"] == (k["alive_final"] + k["absorbed"]
                                + k["died_childless"] + k["branched"]), (i, res.status, k)
        seen += res.status == status
        if res.status == "ok":
            # The same draws with a census at the horizon count the same particles.
            full = run_replicate(p, x0, 4.0, sorted({*grid, 4.0}), spawn_rng_stream(113, i), **kw)
            assert k["alive_final"] == full.trace.n_alive[-1], i
        elif res.status == "population_cap_exceeded":
            assert k["alive_final"] > 0
    assert seen > 0


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
        res = run_replicate(p, 1.0, 8.0, [4.0, 8.0], spawn_rng_stream(61, i),
                            certify_survival=True)
        if res.status == "certified_survival":
            break
    stopped = list(calls)
    calls.clear()
    full = run_replicate(p, 1.0, 8.0, [4.0, 8.0], spawn_rng_stream(61, i))
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
        res = run_replicate(p, x0, horizon, [horizon / 2, horizon], spawn_rng_stream(67, i),
                            certify_survival=True)
        k = res.counters
        assert k["created"] == k["alive_final"] + k["absorbed"] + k["died_childless"] + k["branched"]
        if res.status != "certified_survival":
            assert res.extinction_bound is None
            continue
        certified += 1
        assert 0.0 <= res.extinction_bound < CERTIFY_EPS
        full = run_replicate(p, x0, horizon, [horizon / 2, horizon], spawn_rng_stream(67, i))
        assert full.status == "ok" and full.trace.n_alive[-1] > 0, i
    assert certified >= 30


@pytest.mark.parametrize("r", [0.3, 0.5])
def test_certify_never_stops_subcritical(r):
    p = params(r=r)
    for i in range(200):
        args = (p, 1.0, 20.0, [10.0, 20.0])
        res = run_replicate(*args, spawn_rng_stream(71, i), certify_survival=True)
        ref = run_replicate(*args, spawn_rng_stream(71, i))
        assert res.status == ref.status == "ok" and res.extinction_bound is None
        assert res.n_events == ref.n_events and res.counters == ref.counters
        np.testing.assert_array_equal(res.trace.d, ref.trace.d)


def test_certify_check_runs_before_cap_check():
    # q(40) is far below CERTIFY_EPS: certified before the first phase, so a
    # cap of zero events never fires; without the stop it does.
    p = params(r=1.5)
    res = run_replicate(p, 40.0, 5.0, [5.0], spawn_rng_stream(0, 0),
                        population_cap=0, certify_survival=True)
    assert res.status == "certified_survival" and res.n_events == 0
    assert res.counters["alive_final"] == 1
    res = run_replicate(p, 40.0, 5.0, [5.0], spawn_rng_stream(0, 0), population_cap=0)
    assert res.status == "population_cap_exceeded"


# -- statistical contracts ---------------------------------------------------


def test_subcritical_extinction():
    # E|N_200| ~ e^{-40} at r=0.3: every replicate should be extinct.
    p = params(r=0.3)
    extinct = 0
    for i in range(1000):
        res = run_replicate(p, 1.0, 200.0, [200.0], spawn_rng_stream(17, i))
        extinct += int(res.censuses[-1].alive_positions.size == 0)
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
        res = run_replicate(p, 1.0, t, [t], spawn_rng_stream(29, i))
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
        res = run_replicate(p, 1.0, t, [t], spawn_rng_stream(41, i))
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
        res = run_replicate(p, 1.0, 3.0, [3.0], spawn_rng_stream(53, i))
        d[i] = res.trace.d[-1]
    se = d.std(ddof=1) / math.sqrt(n)
    assert abs(d.mean() - 1.0) < 3 * se, (d.mean(), se)


def test_martingale_mean_one_far_from_origin():
    # h(800) = 800 e^800 / sqrt(2 pi lambda^2) overflows, so D takes the
    # ratio form sum (y/x0) e^{c(y - x0) - gt}: finite, with E[D_t] = 1
    # within 3 sigma at each census (c=1, r=1.5, dyadic, n=2,000; the
    # master seed was fixed before the first run).
    p = params(r=1.5)
    n = 2000
    d = np.empty((n, 2))
    with np.errstate(over="ignore"):
        for i in range(n):
            res = run_replicate(p, 800.0, 2.0, [1.0, 2.0], spawn_rng_stream(800, i),
                                checkpoint_chains=i < 20)
            d[i] = res.trace.d
            if i < 20:
                np.testing.assert_array_equal(truncated_martingale(res.censuses, p, 800.0, math.inf), d[i])
    assert np.all(np.isfinite(d)) and np.all(d > 0)
    se = d.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(d.mean(axis=0) - 1.0) < 3 * se), (d.mean(axis=0), se)


# D at x0 = 800 on the stream of test_martingale_mean_one_far_from_origin,
# replicates 0-2, as float.hex, recorded while h(800)'s overflow still warned.
FAR_START_D = [
    ["0x1.8d0c0dff3e7f0p+0", "0x1.1007a9bd20ca2p+1"],
    ["0x1.053f945a77439p-3", "0x1.1ed637200aba6p-2"],
    ["0x1.3edff48bcde23p-2", "0x1.9182c31a0868ap-2"],
]


def test_far_start_keeps_D_without_warning():
    # h(800) and the plain sum overflow quietly; the ratio form gives D
    p = params(r=1.5)
    engine._h_start.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i, want in enumerate(FAR_START_D):
            res = run_replicate(p, 800.0, 2.0, [1.0, 2.0], spawn_rng_stream(800, i),
                                checkpoint_chains=True)
            assert [float(d).hex() for d in res.trace.d] == want
            d_trunc = truncated_martingale(res.censuses, p, 800.0, 1e9)
            assert [float(d).hex() for d in d_trunc] == want


def test_martingale_overflowing_start_with_finite_sum():
    # h(800) overflows but h(700) does not: a finite sum over inf read as
    # D = 0; the ratio form gives (700/800) e^{-100}
    p = params(r=1.5)
    d = engine._martingale(np.array([700.0]), 0.0, p, 800.0, engine._h_start(800.0, p))
    assert d == pytest.approx(700.0 / 800.0 * math.exp(-100.0), rel=1e-12, abs=0.0)


def test_delta1_far_start_drifts_into_finite_h():
    # One particle from x0 = 800 to t = 400 ends near 400, where the plain sum
    # h(y) e^{-gt} (g = -1/2) is finite though h(x0) is not
    p = params(r=1.5, offspring=DELTA1)
    res = run_replicate(p, 800.0, 400.0, [400.0], spawn_rng_stream(0, 0))
    (y,) = res.censuses[-1].alive_positions.tolist()
    assert 300.0 < y < 600.0
    want = (y / 800.0) * math.exp(p.c * (y - 800.0) - p.growth_exponent * 400.0)
    assert res.trace.d[-1] == pytest.approx(want, rel=1e-12, abs=0.0)


def test_martingale_at_long_subcritical_horizon():
    # e^{-gt} = e^{800} overflows at t = 4000 (g = -0.2): an extinct
    # replicate's D is 0, and a particle at 100 from x0 = 900 has
    # D = (100/900) e^{-800 + 800} in the ratio form
    p = params(r=0.3)
    res = run_replicate(p, 1.0, 4000.0, [4000.0], spawn_rng_stream(0, 0))
    assert res.trace.n_alive[-1] == 0 and res.trace.d[-1] == 0.0
    with np.errstate(over="ignore"):
        d = engine._martingale(np.array([100.0]), 4000.0, p, 900.0, engine._h_start(900.0, p))
    assert d == pytest.approx(100.0 / 900.0, rel=1e-12)


def test_martingale_paired_increment():
    # E[D_2 - D_1] = 0 within 3 sigma, paired per replicate.
    p = params(r=0.6)
    n = 10**4
    inc = np.empty(n)
    for i in range(n):
        res = run_replicate(p, 1.0, 2.0, [1.0, 2.0], spawn_rng_stream(61, i))
        inc[i] = res.trace.d[-1] - res.trace.d[-2]
    se = inc.std(ddof=1) / math.sqrt(n)
    assert abs(inc.mean()) < 3 * se, (inc.mean(), se)


def test_event_recorder_collects_waits_and_offspring():
    rec = EventRecorder()
    p = params(r=1.5)
    res = run_replicate(p, 1.0, 4.0, [4.0], spawn_rng_stream(71, 0),
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
    res = run_replicate(params(r=1.5), 1.0, 4.0, [0.0, 1.0, 2.0, 3.0, 4.0], spawn_rng_stream(2, 0))
    sets = (B1, B2, IntervalSet(B1.intervals + B2.intervals), AXIS)
    sc = np.array(set_counts(res.censuses, sets))
    n = res.trace.n_alive
    assert n[-1] > 0
    np.testing.assert_array_equal(sc[:, 3], n)
    np.testing.assert_array_equal(sc[:, 0] + sc[:, 1], n)
    np.testing.assert_array_equal(sc[:, 2], n)


def test_vacuous_truncation_window():
    res, p = busy_replicate(seed=2)
    for f in truncation_flags_for(res.censuses, math.inf):
        assert np.all(f)
    np.testing.assert_allclose(truncated_martingale(res.censuses, p, 1.0, math.inf), res.trace.d,
                               rtol=1e-15, atol=0)


def test_empty_census_martingale():
    p = params(r=0.3)
    res = run_replicate(p, 0.2, 50.0, [50.0], spawn_rng_stream(83, 0), checkpoint_chains=True)
    assert res.censuses[-1].alive_positions.size == 0
    assert res.trace.d[-1] == 0.0 and truncated_martingale(res.censuses, p, 0.2, 2.0)[-1] == 0.0
    assert res.trace.n_alive[-1] == 0


def _in_window(censuses, M, s):
    """Alive particles at the last census whose path stayed in the
    s-shifted window at every checkpoint."""
    return int(truncation_flags_for(censuses, M, s)[-1].sum())


def test_shifted_truncated_count_monotone_in_M():
    res, p = busy_replicate(seed=9)
    counts = [_in_window(res.censuses, M, 0.0) for M in (1.5, 2.0, 3.0, 6.0)]
    assert counts == sorted(counts)
    assert counts[-1] <= res.trace.n_alive[-1]
    assert (counts[2] > 0) == (truncated_martingale(res.censuses, p, 1.0, 3.0)[-1] > 0)


def test_shifted_window_reduces_alive_set():
    # s > 0 widens every window (larger intercept), so counts only grow.
    res, _ = busy_replicate(seed=4)
    c0 = _in_window(res.censuses, 3.0, 0.0)
    c_shift = _in_window(res.censuses, 3.0, 5.0)
    assert c0 <= c_shift <= res.trace.n_alive[-1]


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_accounting_identity_property(seed):
    p = params(r=1.2)
    res = run_replicate(p, 0.8, 2.0, [1.0, 2.0], spawn_rng_stream(97, seed), checkpoint_chains=True)
    k = res.counters
    assert k["created"] == (k["alive_final"] + k["absorbed"]
                            + k["died_childless"] + k["branched"])
    assert truncated_martingale(res.censuses, p, 0.8, 4.0)[-1] <= res.trace.d[-1] + 1e-15


def test_checkpoint_chains_off_same_statistics():
    # the checkpoint trees are pure bookkeeping: same rng draws, same
    # censuses; a replicate builds them only when asked
    res_on, p = busy_replicate(seed=12)
    res_off = run_replicate(p, 1.0, 4.0, [0.0, 1.0, 2.0, 3.0, 4.0], spawn_rng_stream(12, 0))
    assert np.array_equal(res_on.trace.d, res_off.trace.d)
    assert len(res_on.censuses) == len(res_off.censuses) == 5
    for a, b in zip(res_on.censuses, res_off.censuses):
        assert np.array_equal(a.alive_positions, b.alive_positions)
        assert all(v is None for v in (b.chk_slot, b.chk_time, b.chk_pos, b.chk_prev, b.chk_block))
    # every recomputation, s = 0 included, reads the trees, and the error
    # names the keyword that builds them
    for query in (truncation_flags_for, window_escape_bounds):
        with pytest.raises(ValueError, match=r"\(checkpoint_chains=True\)"):
            query(res_off.censuses, 2.5)


def test_checkpoint_chains_required_for_shifted_window():
    res_off, _ = busy_replicate(seed=12, checkpoint_chains=False)
    with pytest.raises(ValueError, match="checkpoint chains"):
        truncation_flags_for(res_off.censuses, 2.5, s=1.0)
    with pytest.raises(ValueError, match="checkpoint chains"):
        window_escape_bounds(res_off.censuses, 2.5)


# (params, x0, census grid on [0, 4], keywords) per status; p0 > 0 and a
# first census after 0 in the first, a census at 0 in the other two
DM_RUNS = {
    "ok": (params(c=0.8, r=1.4, offspring=OffspringLaw.from_pmf({0: 0.2, 1: 0.1, 2: 0.4, 3: 0.3})),
           0.9, [0.7, 2.0, 4.0], {}),
    "population_cap_exceeded": (params(r=3.0), 2.0, [0.0, 1.0, 2.0, 4.0], {"population_cap": 500}),
    "certified_survival": (params(r=2.0), 0.5, [0.0, 1.0, 2.0, 4.0], {"certify_survival": True}),
}


@pytest.mark.parametrize("status", sorted(DM_RUNS))
def test_truncated_martingale_property(status):
    p, x0, grid, kw = DM_RUNS[status]
    reached = 0
    for seed in range(40):
        res = run_replicate(p, x0, 4.0, grid, spawn_rng_stream(seed, 0), checkpoint_chains=True, **kw)
        reached += res.status == status and len(res.censuses) >= 2
        d = res.trace.d
        prev = np.zeros(len(res.censuses))
        for M in (0.3, 1.0, 1.5, 2.5, 4.0):
            dm = truncated_martingale(res.censuses, p, x0, M)
            assert dm.shape == (len(res.censuses),) == d.shape
            assert np.all((0.0 <= dm) & (dm <= d)) and np.all(prev <= dm), (seed, M)
            prev = dm
        np.testing.assert_array_equal(truncated_martingale(res.censuses, p, x0, math.inf), d)
        off = run_replicate(p, x0, 4.0, grid, spawn_rng_stream(seed, 0), **kw)
        assert off.status == res.status and np.array_equal(off.trace.d, d)
        if off.censuses:
            with pytest.raises(ValueError, match="checkpoint chains"):
                truncated_martingale(off.censuses, p, x0, 2.0)
    assert reached > 0


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
        res, _ = busy_replicate(seed=seed)
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
                    anc = census_ancestors(cen)
                    assert np.all(lo >= prev[0][anc])
                    assert np.all(hi >= prev[1][anc])
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
    return run_replicate(p, x0, horizon, grid, spawn_rng_stream(seed, 0), checkpoint_chains=True,
                         **kw), x0


def _walk_paths(censuses, x0, M, s):
    """Window flags at shift s and, at s = 0, escape brackets, by walking
    each alive particle's chk_prev chain from its leaf to its root in plain
    Python: the AND of the window checks along the path, and the sum of the
    per-edge log stay-probabilities, joined to those of the root it reaches,
    which is its ancestor's slot at the previous census.  Also checks that
    each path starts where that ancestor was at the previous census (the
    start point before the first)."""
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
            if prev is not None:
                assert (t[row], x[row]) == (prev[0].time, prev[0].alive_positions[row])
                ok = ok and prev[1][row]
                s_lo, s_hi = s_lo + prev[2][row], s_hi + prev[3][row]
            else:
                assert (t[row], x[row]) == (0.0, x0)
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
                    for f, (lo, hi), (g_lo, g_hi) in zip(flags, bounds, got):
                        np.testing.assert_allclose(g_lo, lo, rtol=1e-12, atol=0)
                        np.testing.assert_allclose(g_hi, hi, rtol=1e-12, atol=0)
                        # an escaped particle's bracket is exactly [1, 1]
                        assert np.all(g_lo[~f] == 1.0) and np.all(g_hi[~f] == 1.0)
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
        # a census tree's roots are the previous census's particles, in slot order
        for before, cen in zip(res.censuses, res.censuses[1:]):
            k = cen.chk_block[1]
            assert k == before.alive_positions.size
            assert np.all(cen.chk_time[:k] == before.time)
            np.testing.assert_array_equal(cen.chk_pos[:k], before.alive_positions)


@given(
    x0=st.floats(1e-3, 3.0),
    c=st.floats(0.05, 3.0),
    r=st.floats(0.05, 2.0),
    p0=st.floats(0.05, 0.6),
    gaps=st.lists(st.floats(0.05, 5.0), min_size=1, max_size=3),
    from_zero=st.booleans(),
    M=st.floats(0.2, 3.0),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=150, deadline=None)
def test_tree_consumers_match_path_walk_at_extreme_inputs(x0, c, r, p0, gaps, from_zero, M, seed):
    # tiny start points, strong drift, slow branching, p0 > 0 and census
    # spacings up to 5; the cap keeps the pure-Python walk small
    p = params(c=c, r=r, offspring=OffspringLaw.from_pmf({0: p0, 1: 0.1, 3: 0.9 - p0}))
    grid = [0.0] * from_zero + np.cumsum(gaps).tolist()
    res = run_replicate(p, x0, grid[-1], grid, spawn_rng_stream(seed, 0), population_cap=400,
                        checkpoint_chains=True)
    flags, bounds = _walk_paths(res.censuses, x0, M, 0.0)
    for f, g in zip(flags, truncation_flags_for(res.censuses, M)):
        np.testing.assert_array_equal(g, f)
    for (lo, hi), (g_lo, g_hi) in zip(bounds, window_escape_bounds(res.censuses, M)):
        np.testing.assert_allclose(g_lo, lo, rtol=1e-12, atol=0)
        np.testing.assert_allclose(g_hi, hi, rtol=1e-12, atol=0)


# -- checkpoint table assembly and memory ------------------------------------


def _reference_filled(n, value, dtype=np.float64):
    return [value] * n if 0 < n <= engine._FEW else np.full(n, value, dtype)


class _BlockListTable:
    """Reference for engine._Table: a list of (time, position, parent row)
    column blocks, concatenated one column at a time when the census closes
    it, as _open_table and _emit_census assembled every tree before rows
    were written straight into columns."""

    def __init__(self, t, pos):
        n = len(pos)
        self.blocks = [(_reference_filled(n, t), pos, _reference_filled(n, -1, np.int64))]

    @property
    def block(self):
        return [0, *itertools.accumulate(len(block[0]) for block in self.blocks)]

    def append(self, time, pos, prev):
        first = self.block[-1]
        self.blocks.append((time, pos, prev))
        return first

    def close(self, t, pos, prev):
        self.blocks.append((_reference_filled(len(pos), t), pos, prev))
        chk_block = np.array(self.block, np.int64)
        columns = list(zip(*self.blocks))
        self.blocks.clear()
        return (*(np.concatenate(columns.pop(0)) for _ in range(3)), chk_block)


class _GrowthCountingTable(engine._Table):
    """engine._Table, counting per table how often its array columns grew."""

    counts: list = []

    def __init__(self, t, pos):
        super().__init__(t, pos)
        self.k = len(self.counts)
        self.counts.append(0)

    def append(self, time, pos, prev, spare=True):
        size = self.cols[0].size if isinstance(self.cols[0], np.ndarray) else None
        first = super().append(time, pos, prev, spare)
        if spare and size is not None and self.cols[0].size > size:
            self.counts[self.k] += 1
        return first


FEW = kernel._FEW
_TABLE_CASES = {
    **{name: case for name, (case, _) in ENGINE_DIGEST_CASES.items() if name != "no_chains"},
    # a few rows per table: 1-3 particle cohorts
    "small": (1.0, 0.6, {2: 1.0}, 1.0, 1.0, [0.5, 1.0], 18, 40, {}),
    # tables of thousands of rows, grown many times
    "big": (1.0, 1.5, {2: 1.0}, 1.0, 7.0, [0.0, 3.5, 7.0], 2, 4, {}),
}


@pytest.mark.parametrize("few", [None, 0, 10**9], ids=["default", "arrays", "floats"])
@pytest.mark.parametrize("name", sorted(_TABLE_CASES))
def test_tables_equal_block_list_reference(monkeypatch, name, few):
    """Every census array equals the block-list assembly's, element by
    element and in dtype, for tables that stay lists, cross _FEW rows
    mid-interval and grow several times."""
    _set_few(monkeypatch, few)
    c, r, pmf, x0, horizon, grid, seed, n, kw = _TABLE_CASES[name]
    p = ModelParams(c, r, OffspringLaw.from_pmf(pmf))
    kw = {**kw, "checkpoint_chains": True,
          "event_recorder": EventRecorder() if kw.get("event_recorder") else None}
    fields = ("alive_positions", "chk_slot", "chk_time", "chk_pos", "chk_prev", "chk_block")
    monkeypatch.setattr(_GrowthCountingTable, "counts", [])
    rows = set()
    for i in range(n):
        runs = []
        for table in (_GrowthCountingTable, _BlockListTable):
            monkeypatch.setattr(engine, "_Table", table)
            runs.append(run_replicate(p, x0, horizon, grid, spawn_rng_stream(seed, i), **kw))
        got, want = runs
        assert len(got.censuses) == len(want.censuses)
        for a, b in zip(got.censuses, want.censuses):
            for f in fields:
                x, y = getattr(a, f), getattr(b, f)
                assert x.dtype == y.dtype, (f, x.dtype, y.dtype)
                np.testing.assert_array_equal(x, y, err_msg=f)
            rows.add(a.chk_time.size)
    if name == "small":
        assert max(rows) <= FEW
    if name == "big":
        assert min(rows) <= FEW < max(rows) and max(rows) > 1000
        if few is None:
            assert max(_GrowthCountingTable.counts) >= 3   # one table grew three times or more


def test_alive_positions_view_read_only_leaf_rows():
    """alive_positions views the leaf block of chk_pos, and both are
    read-only, so no code path can write into one through the other: any
    write raises (the consumers below, and every test, run on them)."""
    res, p = busy_replicate()
    for cen in res.censuses:
        k = cen.alive_positions.size
        assert cen.alive_positions.base is cen.chk_pos
        np.testing.assert_array_equal(cen.alive_positions, cen.chk_pos[cen.chk_pos.size - k:])
        for a in (cen.alive_positions, cen.chk_pos):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[:1] = 0
    truncation_flags_for(res.censuses, 1.5, 2.0)
    truncated_martingale(res.censuses, p, 1.0, 1.5)
    window_escape_bounds(res.censuses, 1.5)
    set_counts(res.censuses, [AXIS])


def _memory_replicate(index=0):
    """A replicate whose last checkpoint tree has 339,095 rows (133,180 alive)
    at index 0."""
    p = params(r=1.5)
    return run_replicate(p, 1.0, 10.5, [5.25, 10.5], spawn_rng_stream(2, index), checkpoint_chains=True)


_SLACK = 64 * 1024   # bytes: Python objects and allocator rounding


@pytest.mark.stream_picked
def test_window_fold_allocates_one_float_and_one_bool_column():
    censuses = _memory_replicate().censuses
    rows = max(cen.chk_time.size for cen in censuses)
    assert rows >= 10**5
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        flags = truncation_flags_for(censuses, 1.3, 2.0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # the flags returned, plus one float64 and one bool entry per row
    assert peak <= sum(f.nbytes for f in flags) + 9 * rows + _SLACK, (peak, rows)


def test_closing_a_table_does_not_copy_its_rows(monkeypatch):
    """While a census closes its tree, memory grows by at most the leaf
    rows' own bytes in the three columns, never by a second copy of the rows
    the interval already holds.  On streams 19 and 57 the leaf block
    overflows the columns' spare capacity; on stream 0 it does not."""
    grew = []
    close = engine._Table.close

    def traced(self, t, pos, prev):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        cols = close(self, t, pos, prev)
        grew.append((tracemalloc.get_traced_memory()[1] - base, cols[0].size, len(pos)))
        return cols

    monkeypatch.setattr(engine._Table, "close", traced)
    for index in (0, 19, 57):
        grew.clear()
        tracemalloc.start()
        try:
            _memory_replicate(index)
        finally:
            tracemalloc.stop()
        # a copy of the largest tree's rows would not fit in the budget
        _, rows, leaves = max(grew, key=lambda g: g[1])
        assert 24 * rows > 24 * leaves + _SLACK, (index, rows, leaves)
        for peak, rows, leaves in grew:
            assert peak <= 24 * leaves + _SLACK, (index, peak, rows, leaves)
