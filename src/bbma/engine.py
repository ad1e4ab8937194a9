"""Event-driven engine for the branching dynamics.

Each particle alternates exact killed steps with branch events: a step spans
min(exponential branch wait, next census boundary, horizon remainder), so
census snapshots carry zero discretization error.  Particles are processed
as a vectorized cohort — one phase advances every active particle by one
step — which keeps the per-event cost flat while populations grow.

Censuses record everything the truncation windows J^M_s = [0, M(1 + s^{3/4}))
need after the fact: per alive particle, an ancestor index into the
previous census; and the interval's checkpoints (its start points, branch
events and census points, each with time and position) as a parent-pointer
tree that stores each checkpoint once, however many particles descend from
it, appended in blocks whose rows have their parents in earlier blocks.
Window checks and per-segment escape factors accumulate down that tree, one
pass per block.  Truncated counts and martingales are therefore
recomputable for any window size (and any clock shift) from one set of
paths: as 0/1 flags judged at the checkpoints (truncation_flags_for), or as
bracketed conditional probabilities of the path-continuous escape
(window_escape_bounds).  A run's own window flags are the same flags,
folded down the same tree at each census.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import sample_killed_steps_batch
from .model import IntervalSet, ModelParams, ground_state_h
from .oracles import _kesten_wave

# Branch-vs-census ties inside this window are processed as branch first.
TIE_EPS = 1e-15
# run_replicate(certify_survival=True) stops once the conditional probability
# of eventual extinction is below this.
CERTIFY_EPS = 1e-12
_LOG_CERTIFY_EPS = math.log(CERTIFY_EPS)

__all__ = [
    "Census",
    "MartingaleTrace",
    "ReplicateResult",
    "EventRecorder",
    "spawn_rng_stream",
    "run_replicate",
    "truncation_flags_for",
    "window_escape_bounds",
]

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    """splitmix64 finalizer: a bijective 64-bit mix."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def spawn_rng_stream(master_seed: int, replicate_index: int) -> np.random.Generator:
    """Independent counter-based stream for one replicate.

    The Philox key is a 64-bit mix of (master_seed, replicate_index), so
    streams are deterministic, platform-stable, and independent of the
    order in which replicates are executed.
    """
    key = _mix64((int(master_seed) + _GAMMA * (int(replicate_index) + 1)) & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class Census:
    """Exact population snapshot at one census time."""

    time: float
    alive_positions: np.ndarray
    truncated_flags: np.ndarray
    absorbed_count: int
    extinct: bool
    ancestor_index: np.ndarray
    # The interval's checkpoint tree for window queries and escape bounds:
    # one row per checkpoint (time, position, parent row), each alive
    # particle's leaf row (chk_slot) and the block offsets (chk_block).  The
    # first block holds the roots (parent -1): the previous census's particles,
    # or (0, x0).  Every other row's parent lies in an earlier block.  None
    # when the replicate was run with checkpoint_chains=False.
    chk_slot: np.ndarray | None
    chk_time: np.ndarray | None
    chk_pos: np.ndarray | None
    chk_prev: np.ndarray | None
    chk_block: np.ndarray | None


@dataclass(frozen=True)
class MartingaleTrace:
    """Per-census time series of (D_t, truncated D_t, |N_t|, |N_t(B)|)."""

    times: np.ndarray
    d: np.ndarray
    d_trunc: np.ndarray
    n_alive: np.ndarray
    set_counts: np.ndarray
    interval_sets: tuple[IntervalSet, ...]


@dataclass(frozen=True)
class ReplicateResult:
    """One replicate's censuses, trace and end state.

    status is "ok" (ran to the horizon), "population_cap_exceeded" or
    "certified_survival" (see run_replicate); the last two stop early, with
    the censuses taken so far.  extinction_bound is, for a certified
    replicate, the upper bound prod_i q(x_i) < CERTIFY_EPS on the conditional
    probability of eventual extinction at the stop, else None.
    """

    censuses: list[Census]
    trace: MartingaleTrace
    status: str
    n_events: int
    counters: dict[str, int]
    extinction_bound: float | None = None


class EventRecorder:
    """Collects realized inter-branch waits, offspring counts, and event times.

    The wait of a branch event is the time since the particle's birth or the
    last census, whichever is later.  By memorylessness it is an exact
    Exponential(r) draw, censored at the next census or the horizon; event
    times let a consumer undo that censoring exactly, since the wait began
    at time - wait.
    """

    def __init__(self) -> None:
        self._waits: list[np.ndarray] = []
        self._offspring: list[np.ndarray] = []
        self._times: list[np.ndarray] = []

    def record(self, waits: np.ndarray, offspring: np.ndarray, times: np.ndarray) -> None:
        self._waits.append(np.asarray(waits, dtype=np.float64))
        self._offspring.append(np.asarray(offspring, dtype=np.int64))
        self._times.append(np.asarray(times, dtype=np.float64))

    @property
    def n_events(self) -> int:
        return sum(len(w) for w in self._waits)

    def waits(self) -> np.ndarray:
        return np.concatenate(self._waits) if self._waits else np.empty(0)

    def offspring(self) -> np.ndarray:
        return np.concatenate(self._offspring) if self._offspring else np.empty(0, np.int64)

    def times(self) -> np.ndarray:
        return np.concatenate(self._times) if self._times else np.empty(0)


# The cohort's columns, one row per active particle.
_COLUMNS = {
    "pos": np.float64,     # position
    "anc": np.int64,       # slot in the previous census, -1 before the first
    "chain": np.int64,     # latest checkpoint row of this interval's tree;
                           # read only with a window or checkpoint chains
}


class _Cohort:
    """Particles of one replicate as one array per column of _COLUMNS."""

    __slots__ = tuple(_COLUMNS)

    def __init__(self, **cols: np.ndarray) -> None:
        for name in _COLUMNS:
            setattr(self, name, cols[name])

    @classmethod
    def zeros(cls, n: int = 0) -> "_Cohort":
        """n particles with every column zero; the empty cohort by default."""
        return cls(**{name: np.zeros(n, dtype) for name, dtype in _COLUMNS.items()})

    @classmethod
    def concat(cls, parts: list["_Cohort"]) -> "_Cohort":
        """The rows of every part, in order."""
        if not parts:
            return cls.zeros()
        return cls(**{name: np.concatenate([getattr(c, name) for c in parts]) for name in _COLUMNS})

    @property
    def size(self) -> int:
        return self.pos.size

    def take(self, idx: np.ndarray) -> "_Cohort":
        """The rows idx (an index array or boolean mask)."""
        return _Cohort(**{name: getattr(self, name)[idx] for name in _COLUMNS})

    def repeat(self, counts: np.ndarray) -> "_Cohort":
        """Row k repeated counts[k] times."""
        return _Cohort(**{name: np.repeat(getattr(self, name), counts) for name in _COLUMNS})


class _Run:
    """Mutable state of one replicate; see run_replicate for the contract."""

    def __init__(
        self,
        params: ModelParams,
        x0: float,
        horizon: float,
        census_grid,
        truncation_M,
        rng,
        interval_sets,
        population_cap,
        event_recorder,
        checkpoint_chains,
        certify_survival,
    ) -> None:
        self.params = params
        self.x0 = float(x0)
        self.horizon = float(horizon)
        self.grid = [float(t) for t in census_grid]
        self.M = None if truncation_M is None else float(truncation_M)
        self.rng = rng
        self.sets = tuple(interval_sets)
        self.cap = int(population_cap)
        self.recorder = event_recorder
        self.keep_chains = bool(checkpoint_chains)
        # Kesten's q with its upper bound; None without the stop, and for
        # sub/critical models, which never stop (q = 1)
        self.q_wave = _kesten_wave(params) if certify_survival else None

        # Each test is written so that NaN fails it.
        if not 0 < self.x0 < math.inf:
            raise ValueError("x0 must be positive and finite")
        if not 0 < self.horizon < math.inf:
            raise ValueError("horizon must be positive and finite")
        if not all(b > a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("census grid must be strictly increasing")
        if self.grid and not (self.grid[0] >= 0 and self.grid[-1] <= self.horizon + TIE_EPS):
            raise ValueError("census grid must lie within [0, horizon]")

        self.h_x0 = ground_state_h(self.x0, params)
        self.absorbed = 0
        self.created = 1
        self.branched = 0
        self.died_childless = 0
        self.n_events = 0
        self.status = "ok"
        self.extinction_bound = None

        # The active cohort: the root particle, checked at time 0.
        co = _Cohort.zeros(1)
        co.pos[0] = self.x0
        co.anc[0] = -1
        self.co = co

        self.censuses: list[Census] = []
        self.trace_rows: list[tuple] = []

    # -- one inter-census interval ----------------------------------------

    def _open_table(self, t: float, co: _Cohort) -> list | None:
        """Start an interval's checkpoint table, a list of (time, position,
        previous row) column blocks: co's particles at time t are its roots,
        and each particle's chain points at its own root.  None when neither
        a window nor checkpoint chains need it."""
        if self.M is None and not self.keep_chains:
            return None
        co.chain = np.arange(co.size, dtype=np.int64)
        return [(np.full(co.size, t), co.pos, np.full(co.size, -1, np.int64))]

    def _advance(self, t_start: float, t_end: float):
        """Advance every active particle from t_start to t_end.

        Returns the particles alive at t_end and the interval's checkpoint
        table (see _open_table), into which their chains point.  Returns None
        on cap abort, with the cohort left as it was at the aborted phase, and
        on certified survival, with the cohort set to the frontier.
        """
        p = self.params
        rng = self.rng
        single_child = len(p.offspring.pmf) == 1
        support = p.offspring.support
        probs = p.offspring.probs

        parked: list[_Cohort] = []
        co = self.co
        table = self._open_table(t_start, co)
        ct_len = co.size

        # Particles enter an interval synchronized at the previous census,
        # so every remaining-time starts at the full interval length.
        rem = np.full(co.size, t_end - t_start)
        parked_log_q, n_scored = 0.0, 0

        while co.size:
            n = co.size
            if self.q_wave is not None:
                # The frontier (the active cohort and the particles parked at
                # t_end) is a stopping line: its subtrees are independent, so
                # prod q over it is the conditional extinction probability.
                parked_log_q += sum(self._log_q_upper(c.pos) for c in parked[n_scored:])
                n_scored = len(parked)
                log_q = parked_log_q + self._log_q_upper(co.pos)
                if log_q < _LOG_CERTIFY_EPS:
                    self.status = "certified_survival"
                    self.extinction_bound = math.exp(log_q)
                    self.co = _Cohort.concat([*parked, co])
                    return None
            if self.n_events + n > self.cap:
                self.status = "population_cap_exceeded"
                self.co = co
                return None
            self.n_events += n

            E = rng.exponential(scale=1.0 / p.r, size=n)
            branch_first = E <= rem + TIE_EPS
            dt = np.minimum(E, rem)
            survived, co.pos = sample_killed_steps_batch(co.pos, dt, p, rng)
            self.absorbed += int((~survived).sum())

            if not survived.any():
                break
            sv = np.flatnonzero(survived)

            park = sv[~branch_first[sv]]
            if park.size:
                parked.append(co.take(park))

            br = sv[branch_first[sv]]
            if br.size == 0:
                break
            if single_child:
                m = np.full(br.size, int(support[0]), np.int64)
            else:
                m = rng.choice(support, size=br.size, p=probs)
            if self.recorder is not None:
                self.recorder.record(E[br], m, (t_end - rem + dt)[br])
            has_kids = m >= 1
            self.branched += int(has_kids.sum())
            self.died_childless += int((~has_kids).sum())
            bi = br[has_kids]
            if bi.size == 0:
                break
            counts = m[has_kids].astype(np.int64)
            total = int(counts.sum())
            child_rem = np.repeat(rem[bi] - dt[bi], counts)
            kids = co.take(bi).repeat(counts)  # each child starts as a copy of its parent
            self.created += total
            if table is not None:
                table.append(((t_end - rem + dt)[bi], co.pos[bi], co.chain[bi]))
                kids.chain = np.repeat(ct_len + np.arange(bi.size, dtype=np.int64), counts)
                ct_len += bi.size

            at_boundary = child_rem <= 0.0
            if at_boundary.any():
                parked.append(kids.take(at_boundary))
            keep = ~at_boundary
            co = kids.take(keep)
            rem = child_rem[keep]

        return _Cohort.concat(parked), table

    def _log_q_upper(self, pos: np.ndarray) -> float:
        """An upper bound on the sum over pos of log q."""
        wave = self.q_wave
        return float(wave.upper_log_q[np.searchsorted(wave.upper_x, pos, side="right") - 1].sum())

    # -- census assembly ---------------------------------------------------

    def _emit_census(self, t_c: float, co: _Cohort, table: list | None) -> None:
        """Record co as the census at t_c and make it the next interval's
        cohort.  table is the interval's checkpoint table, which co's chains
        point into; the census closes it with one leaf row per particle."""
        nslots = co.size
        slots = np.arange(nslots, dtype=np.int64)
        chk_slot = chk_time = chk_pos = chk_prev = chk_block = None
        if table is not None:
            table.append((np.full(nslots, t_c), co.pos, co.chain))
            chk_time, chk_pos, chk_prev = (np.concatenate(col) for col in zip(*table))
            chk_block = np.cumsum([0, *(len(times) for times, _, _ in table)])
            chk_slot = chk_time.size - nslots + slots

        if self.M is None:
            flags = np.ones(nslots, dtype=bool)
        else:
            prev = self.censuses[-1].truncated_flags if self.censuses else None
            ok = _window_ok(chk_time, chk_pos, chk_prev, chk_block, chk_slot, self.M, 0.0)
            flags = _inherit_flags(ok, co.anc, prev)
        if not self.keep_chains:
            chk_slot = chk_time = chk_pos = chk_prev = chk_block = None
        census = Census(
            time=t_c,
            alive_positions=co.pos,
            truncated_flags=flags,
            absorbed_count=self.absorbed,
            extinct=bool(nslots == 0),
            ancestor_index=co.anc,
            chk_slot=chk_slot,
            chk_time=chk_time,
            chk_pos=chk_pos,
            chk_prev=chk_prev,
            chk_block=chk_block,
        )
        self.censuses.append(census)
        self._append_trace(census)

        # Re-seed the cohort for the next interval.
        co.anc = slots
        self.co = co

    def _append_trace(self, census: Census) -> None:
        p = self.params
        decay = math.exp(-p.growth_exponent * census.time)
        hvals = ground_state_h(census.alive_positions, p)
        d = float(np.sum(hvals)) * decay / self.h_x0
        d_tr = float(np.sum(hvals, where=census.truncated_flags)) * decay / self.h_x0
        counts = tuple(int(B.indicator(census.alive_positions).sum()) for B in self.sets)
        self.trace_rows.append((census.time, d, d_tr, census.alive_positions.size, counts))

    # -- driver -------------------------------------------------------------

    def run(self) -> ReplicateResult:
        t_now = 0.0
        grid = list(self.grid)
        if grid and grid[0] == 0.0:
            self._emit_census(0.0, self.co, self._open_table(0.0, self.co))
            grid = grid[1:]
        boundaries = grid + ([] if grid and grid[-1] >= self.horizon - TIE_EPS else [self.horizon])
        n_census = len(grid)
        for i, t_end in enumerate(boundaries):
            step = self._advance(t_now, t_end)
            if step is None:
                break
            alive, table = step
            if i < n_census:
                self._emit_census(t_end, alive, table)
            else:
                # Horizon tail beyond the last census: the survivors go back
                # into the cohort without a census.
                self.co = alive
            t_now = t_end

        trace = MartingaleTrace(
            times=np.array([row[0] for row in self.trace_rows]),
            d=np.array([row[1] for row in self.trace_rows]),
            d_trunc=np.array([row[2] for row in self.trace_rows]),
            n_alive=np.array([row[3] for row in self.trace_rows], np.int64),
            set_counts=np.array([row[4] for row in self.trace_rows], np.int64).reshape(
                len(self.trace_rows), len(self.sets)
            ),
            interval_sets=self.sets,
        )
        counters = {
            "created": self.created,
            "absorbed": self.absorbed,
            "died_childless": self.died_childless,
            "branched": self.branched,
            "alive_final": (int(self.censuses[-1].alive_positions.size)
                            if self.censuses and self.status != "certified_survival" else int(self.co.size)),
        }
        return ReplicateResult(
            censuses=self.censuses,
            trace=trace,
            status=self.status,
            n_events=self.n_events,
            counters=counters,
            extinction_bound=self.extinction_bound,
        )


def run_replicate(
    params: ModelParams,
    x0: float,
    horizon: float,
    census_grid,
    truncation_M: float | None = None,
    rng: np.random.Generator | None = None,
    *,
    interval_sets=(),
    population_cap: int = 10_000_000,
    event_recorder: EventRecorder | None = None,
    checkpoint_chains: bool = True,
    certify_survival: bool = False,
) -> ReplicateResult:
    """Simulate one replicate started from a single particle at x0.

    Censuses are taken at the times in census_grid (sorted, within
    [0, horizon]).  truncation_M switches on window flags for
    J^M_s = [0, M(1+s^{3/4})): each census folds the window checks down its
    interval's checkpoint tree and joins the previous census's flags, by the
    truncation_flags_for rule, so they are checked at every event and census
    time only (a path that leaves and re-enters between checks keeps its
    flag, so D_trunc is biased upward; window_escape_bounds brackets the
    path-continuous escape after the fact).  Without a window every flag is
    true.
    A replicate that reaches the horizon has status "ok".  Exceeding
    population_cap cumulative particle-events aborts it with status
    "population_cap_exceeded" and partial censuses.

    certify_survival=True stops a replicate once survival is certain up to
    CERTIFY_EPS: before each cohort phase it sums log q_upper(x) over the
    frontier, the active particles and those already at the interval's end,
    where q_upper bounds Kesten's extinction probability from above
    (oracles.extinction_probability, tabulated once per model).  Below
    log CERTIFY_EPS the replicate ends with status "certified_survival",
    partial censuses and the bound in extinction_bound; its last particles
    (the frontier, at mixed times) count as alive_final.  This check runs
    before the cap check and draws nothing, so a stopped replicate's stream
    is a prefix of the unstopped one.  Sub/critical models never stop (q = 1).

    checkpoint_chains=False drops the per-census checkpoint trees, whose
    size is O(branch events + alive particles) per census and dominates
    memory for large populations.  A run with a window still builds each
    interval's tree to judge its flags, but does not keep it.  Stored
    window flags are unaffected; truncation_flags_for and
    window_escape_bounds need the trees.  Draws identical randomness
    either way.
    """
    if rng is None:
        raise ValueError("run_replicate requires an rng; see spawn_rng_stream")
    return _Run(
        params, x0, horizon, census_grid, truncation_M, rng, interval_sets,
        population_cap, event_recorder, checkpoint_chains, certify_survival,
    ).run()


# -- window flags and escape bounds ----------------------------------------


def truncation_flags_for(censuses: list[Census], M: float, s: float = 0.0) -> list[np.ndarray]:
    """Recompute hereditary window flags for any (M, s) from stored censuses.

    Checks every event and census time.  A run's stored flags are this rule
    at s=0 with the run's M, so recomputing them reproduces them bit for
    bit.  The shift s slides the window clock: position < M(1 + (s + time)^{3/4}).

    These are checkpoint-only flags: a path that leaves the window and
    returns between two checkpoints keeps its flag, so ~flag is a lower
    estimate of the documented path-continuous escape.  window_escape_bounds
    brackets the escape probability given the same checkpoints.  Needs
    checkpoint chains.
    """
    flags: list[np.ndarray] = []
    prev: np.ndarray | None = None
    for cen in censuses:
        if cen.chk_slot is None:
            raise ValueError("window queries need checkpoint chains (checkpoint_chains=True)")
        ok = _window_ok(cen.chk_time, cen.chk_pos, cen.chk_prev, cen.chk_block, cen.chk_slot, M, s)
        prev = _inherit_flags(ok, cen.ancestor_index, prev)
        flags.append(prev)
    return flags


def _window_ok(time, pos, prev, block, slot, M: float, s: float) -> np.ndarray:
    """Per leaf row (slot): whether every checkpoint from its root down to it
    lies in the s-shifted window, position < M(1 + (s + time)^{3/4})."""
    good = pos < M * (1.0 + (s + time) ** 0.75)
    return _fold(good, prev, block, np.logical_and)[slot]


def _inherit_flags(ok: np.ndarray, anc: np.ndarray, prev: np.ndarray | None) -> np.ndarray:
    """Hereditary window rule: a particle stays flagged while its own
    checks pass (ok) and its ancestor at the previous census (anc, -1 for
    none) was flagged there (prev; None at the first census)."""
    if prev is None:
        return ok
    return ok & np.where(anc >= 0, prev[np.maximum(anc, 0)], True)


def _fold(vals: np.ndarray, prev: np.ndarray, block: np.ndarray, op) -> np.ndarray:
    """op-accumulate vals (one entry per row, along the first axis) over
    each row's path from its root (prev = -1) down to the row.

    The first block (rows block[0]:block[1]) holds the roots, and every
    other row's parent lies in an earlier block, so one pass per block
    finishes each row from its parent's finished value.
    """
    acc = vals.copy()
    bounds = block.tolist()
    for a, b in zip(bounds[1:-1], bounds[2:]):
        acc[a:b] = op(acc[prev[a:b]], acc[a:b])
    return acc


def _line_crossing_given_positive(g0, g1, x0, x1, tau):
    """P(a Brownian bridge from x0 to x1 over time tau crosses the straight
    line lying g0, g1 above its endpoints | the bridge stays positive).

    The bridge maps onto Brownian motion on [0, inf) between the lines
    (g0 + g1 s) and -(x0 + x1 s) (over sqrt(tau)), whose exit probabilities
    are the series of Anderson (1960, Ann. Math. Statist. 31).  The answer
    is [P(exit) - P(hit 0)] / P(stay positive).  Term r of the numerator
    pairs the r-th upper-first term with the (r+1)-th lower-first one and
    is written as products of expm1 factors of order x0, x1 and x0 * x1,
    like the denominator, so the ratio keeps its precision as either end
    point approaches 0.  All arguments are positive arrays of one shape.
    """
    a = g0 * g1 / tau
    b = x0 * x1 / tau
    c12 = g0 * x1 / tau
    c21 = x0 * g1 / tau
    num = np.zeros(a.shape)
    act = np.arange(a.size)
    r = 0
    while act.size:
        r += 1
        aa, bb, p, q = a[act], b[act], c12[act], c21[act]
        u = r * r * aa + (r - 1) ** 2 * bb + r * (r - 1) * (p + q)
        alpha = (2 * r - 1) * bb + 2 * r * q
        term = np.exp(-2.0 * u) * (
            np.expm1(-2.0 * (alpha + 2.0 * bb)) * np.expm1(-2.0 * ((2 * r - 1) * bb + 2 * r * p))
            - np.exp(-2.0 * alpha) * -np.expm1(-4.0 * bb))
        num[act] += term
        act = act[np.abs(term) > 1e-17 * np.abs(num[act])]
    den = -np.expm1(-2.0 * b)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den > 0, np.clip(num / den, 0.0, 1.0), np.nan)


def _segment_escape_bounds(t0, x0, t1, x1, M):
    """Bounds on P(path leaves J_M between two checkpoints | checkpoints).

    Given its end points, a killed step is a Brownian bridge conditioned to
    stay positive.  The window edge M(1 + t^{3/4}) is concave, so the chord
    between the end points' edge values lies below it (crossing the edge
    implies crossing the chord: upper bound) and the tangent at the segment
    midpoint lies above it (crossing the tangent implies crossing the edge:
    lower bound).  Both line crossings are exact for the positive bridge.
    An end point outside the window gives probability 1.
    """
    t0, x0, t1, x1 = (np.asarray(v, dtype=np.float64) for v in (t0, x0, t1, x1))
    tau = t1 - t0
    e0 = M * (1.0 + t0**0.75)
    e1 = M * (1.0 + t1**0.75)
    mid = 0.5 * (t0 + t1)
    with np.errstate(divide="ignore", invalid="ignore"):
        half_rise = 0.375 * M * mid**-0.25 * tau
    em = M * (1.0 + mid**0.75)
    g0, g1 = e0 - x0, e1 - x1
    outside = (g0 <= 0) | (g1 <= 0)
    lo = outside.astype(np.float64)
    hi = lo.copy()
    live = ~outside & (tau > 0)
    if live.any():
        args = (x0[live], x1[live], tau[live])
        hi[live] = _line_crossing_given_positive(g0[live], g1[live], *args)
        lo[live] = _line_crossing_given_positive(
            (em - half_rise - x0)[live], (em + half_rise - x1)[live], *args)
        # nan only where x0 * x1 / tau underflows (both end points within
        # ~1e-154 of 0): keep the trivial bracket there
        hi = np.nan_to_num(hi, nan=1.0)
        lo = np.minimum(np.nan_to_num(lo, nan=0.0), hi)
    return lo, hi


def window_escape_bounds(censuses: list[Census], M: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """Bracket the probability that each alive particle's ancestral path
    left the window J_M = [0, M(1 + s^{3/4})), given the stored checkpoints.

    Returns one (lower, upper) pair of arrays per census, aligned with
    alive_positions.  The path between consecutive checkpoints of a
    lineage (root at (0, x0), branch times, census times) is a positive
    Brownian bridge, independent across segments given the checkpoints, so
    the stay-inside probability is the product of per-segment factors from
    _segment_escape_bounds: one per edge of each census's checkpoint tree,
    multiplied down the tree and carried across censuses via ancestor_index.
    Wherever truncation_flags_for(censuses, M) marks a particle escaped
    (a checkpoint outside the window) both ends are 1; elsewhere the
    bracket holds the conditional escape probability under the documented
    path-continuous definition, of which those flags are the 0/1
    checkpoint-only counterpart.  Needs checkpoint chains.
    """
    flags = truncation_flags_for(censuses, M)
    out: list[tuple[np.ndarray, np.ndarray]] = []
    prev_lo = prev_hi = np.empty(0)  # log stay-probability bounds
    for cen, ok in zip(censuses, flags):
        # Every row with a parent ends one path segment.
        edge = np.flatnonzero(cen.chk_prev >= 0)
        up = cen.chk_prev[edge]
        p_lo, p_hi = _segment_escape_bounds(
            cen.chk_time[up], cen.chk_pos[up], cen.chk_time[edge], cen.chk_pos[edge], M)
        log_stay = np.zeros((cen.chk_prev.size, 2))  # columns: lower, upper
        with np.errstate(divide="ignore"):
            log_stay[edge] = np.log1p(-np.stack([p_hi, p_lo], axis=1))
        log_lo, log_hi = _fold(log_stay, cen.chk_prev, cen.chk_block, np.add)[cen.chk_slot].T
        anc = cen.ancestor_index
        has = np.flatnonzero(anc >= 0)
        log_hi[has] += prev_hi[anc[has]]
        log_lo[has] += prev_lo[anc[has]]
        log_hi[~ok] = log_lo[~ok] = -np.inf
        out.append((-np.expm1(log_hi), -np.expm1(log_lo)))
        prev_lo, prev_hi = log_lo, log_hi
    return out

