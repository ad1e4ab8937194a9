"""Event-driven engine for the branching dynamics.

Each particle alternates exact killed steps with branch events: a step spans
min(exponential branch wait, next census boundary, horizon remainder), so
census snapshots carry zero discretization error.  Particles are processed
as a vectorized cohort — one phase advances every active particle by one
step — which keeps the per-event cost flat while populations grow; a phase
of at most _FEW particles runs on Python lists, with the same draws and
float expressions.

With checkpoint chains, censuses record everything the truncation windows
J^M_s = [0, M(1 + s^{3/4})) need after the fact: the interval's checkpoints
(its start points, branch events and census points, each with time and
position) as a parent-pointer tree that stores each checkpoint once, however
many particles descend from it, written block by block straight into
growable columns (_Table), each row's parent in an earlier block, so the
census copies no row.  The first
block, the tree's roots, is the previous census's particles in slot order,
so the trees of successive censuses join into one genealogy; alive_positions
views the last block's positions.
Window checks and per-segment escape factors accumulate down the trees, one
pass per block, each tree's roots starting from the previous census's
results.  A run records only what the run alone can observe (D_t and
|N_t| per census); window flags, the truncated martingale D^M and counts in
a set (set_counts) are computed from the stored censuses for any window
size (and any clock shift): as 0/1 flags judged at the checkpoints
(truncation_flags_for, truncated_martingale), or as bracketed conditional
probabilities of the path-continuous escape (window_escape_bounds).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .kernel import _FEW, _draws, _tolist, sample_killed_steps_batch
from .model import ModelParams, ground_state_h
from .oracles import _kesten_wave

# Branch-vs-census ties inside this window are processed as branch first.
TIE_EPS = 1e-15
# run_replicate(certify_survival=True) stops once the conditional probability
# of eventual extinction is below this.
CERTIFY_EPS = 1e-12
_LOG_CERTIFY_EPS = math.log(CERTIFY_EPS)
# ground_state_h without numpy's overflow warning: where h(x0) or the plain
# sum of D overflows, _martingale takes its ratio form.
_quiet_h = np.errstate(over="ignore")(ground_state_h)
# h(x0), the normaliser of D; the replicates of a run share it.
_h_start = functools.lru_cache(maxsize=16)(_quiet_h)

__all__ = [
    "Census",
    "MartingaleTrace",
    "ReplicateResult",
    "EventRecorder",
    "spawn_rng_stream",
    "run_replicate",
    "truncation_flags_for",
    "truncated_martingale",
    "set_counts",
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


class _PhiloxKey(np.random.bit_generator.ISeedSequence):
    """Philox's 128-bit key (key, 0), as Philox(key=key) sets it, without the
    OS-entropy SeedSequence that Philox(key=...) also builds and drops."""

    def __init__(self, key: int) -> None:
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return np.array([self.key, 0], dtype=np.uint64)


def spawn_rng_stream(master_seed: int, replicate_index: int) -> np.random.Generator:
    """Independent counter-based stream for one replicate.

    The Philox key is a 64-bit mix of (master_seed, replicate_index), so
    streams are deterministic, platform-stable, and independent of the
    order in which replicates are executed.
    """
    key = _mix64((int(master_seed) + _GAMMA * (int(replicate_index) + 1)) & _MASK64)
    return np.random.Generator(np.random.Philox(_PhiloxKey(key)))


@dataclass(frozen=True)
class Census:
    """Exact population snapshot at one census time."""

    time: float
    alive_positions: np.ndarray
    absorbed_count: int
    # The interval's checkpoint tree for window queries and escape bounds:
    # one row per checkpoint (time, position, parent row) and the block
    # offsets (chk_block).  The first block holds the roots (parent -1): the
    # previous census's particles in slot order (its time and
    # alive_positions), or (0, x0).  Every other row's parent lies in an
    # earlier block; the last block holds the alive particles' leaf rows, in
    # slot order (chk_slot).  None unless the replicate was run with
    # checkpoint_chains=True.
    chk_time: np.ndarray | None
    chk_pos: np.ndarray | None
    chk_prev: np.ndarray | None
    chk_block: np.ndarray | None

    @property
    def chk_slot(self) -> np.ndarray | None:
        """Each alive particle's leaf row: the rows of the tree's last block."""
        block = self.chk_block
        return None if block is None else np.arange(block[-2], block[-1], dtype=np.int64)


@dataclass(frozen=True)
class MartingaleTrace:
    """Per-census time series of (D_t, |N_t|)."""

    times: np.ndarray
    d: np.ndarray
    n_alive: np.ndarray


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


class _Cohort:
    """Particles of one replicate, one row per active particle (lists in _phase_few)."""

    __slots__ = ("pos", "chain")

    def __init__(self, pos, chain) -> None:
        self.pos = pos      # position, float64
        self.chain = chain  # latest checkpoint row of this interval's tree, int64;
                            # read only with checkpoint chains

    @classmethod
    def concat(cls, parts: list["_Cohort"]) -> "_Cohort":
        """The rows of every part, in order, as array columns."""
        if len(parts) == 1 and isinstance(parts[0].pos, np.ndarray):
            return parts[0]
        if not parts:
            return cls(np.zeros(0), np.zeros(0, np.int64))
        return cls(*(np.concatenate(col) for col in zip(*((c.pos, c.chain) for c in parts))))

    @property
    def size(self) -> int:
        return len(self.pos)

    def take(self, idx: np.ndarray) -> "_Cohort":
        """The rows idx (an index array or boolean mask)."""
        return _Cohort(self.pos[idx], self.chain[idx])


class _Table:
    """An interval's checkpoint tree while it grows: columns time, position
    and parent row, Python lists up to _FEW rows and float64/float64/int64
    arrays after, and the block offsets.  A block's time and prev are each a
    column or one value for every row."""

    __slots__ = ("cols", "block")
    _DTYPES = (np.float64, np.float64, np.int64)

    def __init__(self, t: float, pos: np.ndarray) -> None:
        """A table whose roots are the particles at pos at time t."""
        n = pos.size
        self.block = [0, n]
        if n <= _FEW:
            self.cols = ([t] * n, pos.tolist(), [-1] * n)
        else:
            self.cols = (np.full(n, t), pos.copy(), np.full(n, -1, np.int64))

    def append(self, time, pos, prev, spare: bool = True) -> int:
        """Write one block of rows and return its first row.  An array column
        grows to at least twice its length (spare), or else to the rows."""
        a = self.block[-1]
        b = a + len(pos)
        self.block.append(b)
        if isinstance(self.cols[0], list):
            if b <= _FEW:
                for col, v in zip(self.cols, (time, pos, prev)):
                    col += [v] * (b - a) if isinstance(v, (int, float)) else _tolist(v)
                return a
            self.cols = tuple(map(np.array, self.cols, self._DTYPES))
        for col, v in zip(self.cols, (time, pos, prev)):
            if b > col.size or not spare:
                # realloc moves a large column by remapping its pages, not
                # by a copy beside it.  It would leave a view dangling, but
                # none outlives this call: rows go in by slice assignment, and
                # the columns leave the table only through close, resized last.
                col.resize(max(b, 2 * col.size) if spare else b, refcheck=False)
            col[a:b] = v
        return a

    def close(self, t: float, pos, prev) -> tuple[np.ndarray, ...]:
        """Write the leaf block (pos at time t, parent rows prev) and return
        the columns, trimmed to the rows, and the block offsets as arrays."""
        self.append(t, pos, prev, spare=False)
        return (*map(np.asarray, self.cols, self._DTYPES), np.array(self.block, np.int64))


class _Run:
    """Mutable state of one replicate; see run_replicate for the contract."""

    def __init__(
        self,
        params: ModelParams,
        x0: float,
        horizon: float,
        census_grid,
        rng,
        population_cap,
        event_recorder,
        checkpoint_chains,
        certify_survival,
    ) -> None:
        self.params = params
        self.x0 = float(x0)
        self.horizon = float(horizon)
        self.grid = [float(t) for t in census_grid]
        self.rng = rng
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

        self.h_x0 = _h_start(self.x0, params)
        self.absorbed = 0
        self.created = 1
        self.branched = 0
        self.died_childless = 0
        self.n_events = 0
        self.status = "ok"
        self.extinction_bound = None

        # Child counts are drawn from (support, probs); a one-atom law fixes
        # every count at atom.
        law = params.offspring
        self.law = (law.support, law.probs) if len(law.pmf) > 1 else None
        self.atom = law.pmf[0][0]

        # The active cohort: the root particle, checked at time 0.
        self.co = _Cohort(np.array([self.x0]), np.zeros(1, np.int64))

        self.censuses: list[Census] = []
        self.trace_d: list[float] = []

    # -- one inter-census interval ----------------------------------------

    def _open_table(self, t: float, co: _Cohort) -> _Table | None:
        """Start an interval's checkpoint table: co's particles at time t are
        its roots, and each particle's chain points at its own root.  None
        without checkpoint chains."""
        if not self.keep_chains:
            return None
        co.chain = np.arange(co.size, dtype=np.int64)
        return _Table(t, co.pos)

    def _advance(self, t_start: float, t_end: float):
        """Advance every active particle from t_start to t_end.

        Returns the particles alive at t_end and the interval's checkpoint
        table (see _open_table), into which their chains point.  Returns None
        on cap abort and on certified survival, with the cohort set to the
        frontier: the active particles and those parked at t_end.
        """
        p = self.params
        rng = self.rng
        scale = 1.0 / p.r

        parked: list[_Cohort] = []
        co = self.co
        table = self._open_table(t_start, co)

        # Particles enter an interval synchronized at the previous census,
        # so every remaining-time starts at the full interval length.
        rem = [t_end - t_start] * co.size if co.size <= _FEW else np.full(co.size, t_end - t_start)
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
            if self.status == "ok" and self.n_events + n > self.cap:
                self.status = "population_cap_exceeded"
            if self.status != "ok":
                self.co = _Cohort.concat([*parked, co])
                return None
            self.n_events += n
            if n <= _FEW:
                co, rem = self._phase_few(co, rem, t_end, parked, table)
                continue

            co, rem = _Cohort(np.asarray(co.pos), np.asarray(co.chain, np.int64)), np.asarray(rem)
            E = rng.exponential(scale=scale, size=n)
            branch_first = E <= rem + TIE_EPS
            dt = np.minimum(E, rem)
            survived, co.pos = sample_killed_steps_batch(co.pos, dt, p, rng)
            n_survived = int(np.count_nonzero(survived))
            self.absorbed += n - n_survived
            if not n_survived:
                break

            br = (survived & branch_first).nonzero()[0]
            if br.size < n_survived:
                parked.append(co.take(survived & ~branch_first))
            if not br.size:
                break
            if self.law is None:
                m = self.atom
                n_parents = br.size if m else 0
            else:
                support, probs = self.law
                m = rng.choice(support, size=br.size, p=probs)
                n_parents = int(np.count_nonzero(m))
            if self.recorder is not None:
                counts = np.full(br.size, m, np.int64) if self.law is None else m
                self.recorder.record(E[br], counts, t_end - rem[br] + dt[br])
            self.branched += n_parents
            self.died_childless += br.size - n_parents
            if not n_parents:
                break
            if n_parents < br.size:
                has_kids = m >= 1
                br, m = br[has_kids], m[has_kids]
            # Each child starts as a copy of its parent: one row per child.
            pos_br, rem_br, dt_br = co.pos[br], rem[br], dt[br]
            child_pos, child_rem = np.repeat(pos_br, m), np.repeat(rem_br - dt_br, m)
            self.created += child_pos.size
            if table is None:
                kids = _Cohort(child_pos, np.zeros(child_pos.size, np.int64))
            else:
                first = table.append(t_end - rem_br + dt_br, pos_br, co.chain[br])
                kids = _Cohort(child_pos, np.repeat(first + np.arange(br.size, dtype=np.int64), m))

            at_boundary = child_rem <= 0.0
            if np.count_nonzero(at_boundary):
                parked.append(kids.take(at_boundary))
                keep = ~at_boundary
                kids, child_rem = kids.take(keep), child_rem[keep]
            co, rem = kids, child_rem

        return _Cohort.concat(parked), table

    def _phase_few(self, co: _Cohort, rem, t_end: float, parked: list, table: _Table | None):
        """One cohort phase of _advance on Python lists, for at most _FEW
        particles: the same draws, float expressions and row order."""
        rng = self.rng
        pos, chain, rem = _tolist(co.pos), _tolist(co.chain), _tolist(rem)
        E = _draws(rng.exponential, len(pos), 1.0 / self.params.r)
        dt = [e if e < r else r for e, r in zip(E, rem)]   # np.minimum(E, rem)
        survived, y = sample_killed_steps_batch(pos, dt, self.params, rng)
        y, live = y.tolist(), survived.nonzero()[0].tolist()
        br = [i for i in live if E[i] <= rem[i] + TIE_EPS]
        self.absorbed += len(pos) - len(live)
        if len(br) < len(live):
            stay = [i for i in live if E[i] > rem[i] + TIE_EPS]
            parked.append(_Cohort([y[i] for i in stay], [chain[i] for i in stay]))
        kids, kid_rem, at_end, rows = _Cohort([], []), [], _Cohort([], []), []
        first = 0 if table is None else table.block[-1]  # the table's next row
        if not br:
            return kids, kid_rem
        counts = ([self.atom] * len(br) if self.law is None
                  else rng.choice(self.law[0], size=len(br), p=self.law[1]).tolist())
        if self.recorder is not None:
            self.recorder.record([E[i] for i in br], counts, [t_end - rem[i] + dt[i] for i in br])
        for i, m in zip(br, counts):
            if m:
                left, row = rem[i] - dt[i], first + len(rows)
                rows.append((t_end - rem[i] + dt[i], y[i], chain[i]))
                dest = kids if left > 0.0 else at_end
                dest.pos += [y[i]] * m
                dest.chain += [row] * m
                kid_rem += [left] * m if left > 0.0 else []
        self.branched += len(rows)
        self.died_childless += len(br) - len(rows)
        self.created += kids.size + at_end.size
        if table is not None and rows:
            table.append(*zip(*rows))
        if at_end.pos:
            parked.append(at_end)
        return kids, kid_rem

    def _log_q_upper(self, pos: np.ndarray) -> float:
        """An upper bound on the sum over pos of log q."""
        wave = self.q_wave
        return float(wave.upper_log_q[np.searchsorted(wave.upper_x, pos, side="right") - 1].sum())

    # -- census assembly ---------------------------------------------------

    def _emit_census(self, t_c: float, co: _Cohort, table: _Table | None) -> None:
        """Record co as the census at t_c and make it the next interval's
        cohort, whose slot order is the census's.  table is the interval's
        checkpoint table, which co's chains point into; the census closes it
        with one leaf row per particle, whose read-only positions co views."""
        chk_time = chk_pos = chk_prev = chk_block = None
        if table is not None:
            chk_time, chk_pos, chk_prev, chk_block = table.close(t_c, co.pos, co.chain)
            chk_pos.flags.writeable = False
            co = _Cohort(chk_pos[chk_pos.size - co.size:], co.chain)
        self.censuses.append(Census(
            time=t_c,
            alive_positions=co.pos,
            absorbed_count=self.absorbed,
            chk_time=chk_time,
            chk_pos=chk_pos,
            chk_prev=chk_prev,
            chk_block=chk_block,
        ))
        self.trace_d.append(_martingale(co.pos, t_c, self.params, self.x0, self.h_x0))
        self.co = co

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
            times=np.array([cen.time for cen in self.censuses]),
            d=np.array(self.trace_d),
            n_alive=np.array([cen.alive_positions.size for cen in self.censuses], np.int64),
        )
        counters = {
            "created": self.created,
            "absorbed": self.absorbed,
            "died_childless": self.died_childless,
            "branched": self.branched,
            "alive_final": int(self.co.size),
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
    rng: np.random.Generator,
    *,
    population_cap: int = 10_000_000,
    event_recorder: EventRecorder | None = None,
    checkpoint_chains: bool = False,
    certify_survival: bool = False,
) -> ReplicateResult:
    """Simulate one replicate started from a single particle at x0.

    Censuses are taken at the times in census_grid (sorted, within
    [0, horizon]); each stores the alive positions and, with
    checkpoint_chains, the interval's checkpoint tree, whose roots are the
    previous census's particles, and the trace holds D_t and |N_t| per
    census.  Window flags, D^M (truncation_flags_for, truncated_martingale,
    window_escape_bounds) and counts in a set (set_counts) are computed
    from the censuses after the run.
    A replicate that reaches the horizon has status "ok".  Exceeding
    population_cap cumulative particle-events aborts it with status
    "population_cap_exceeded" and partial censuses.  Whatever the status,
    counters["alive_final"] counts the particles alive when the run stops
    (after an early stop, the frontier at mixed times), so created =
    alive_final + absorbed + died_childless + branched.

    certify_survival=True stops a replicate once survival is certain up to
    CERTIFY_EPS: before each cohort phase it sums log q_upper(x) over the
    frontier, the active particles and those already at the interval's end,
    where q_upper bounds Kesten's extinction probability from above
    (oracles.extinction_probability, tabulated once per model).  Below
    log CERTIFY_EPS the replicate ends with status "certified_survival",
    partial censuses and the bound in extinction_bound.  This check runs
    before the cap check and draws nothing, so a stopped replicate's stream
    is a prefix of the unstopped one.  Sub/critical models never stop (q = 1).

    checkpoint_chains=True stores each census's checkpoint tree, which the
    window functions read; its size is O(branch events + alive particles)
    per census and dominates memory for large populations, so by default
    none is built and every chk_* field of a census is None.  Draws
    identical randomness either way.
    """
    if rng is None:
        raise ValueError("run_replicate requires an rng; see spawn_rng_stream")
    return _Run(
        params, x0, horizon, census_grid, rng,
        population_cap, event_recorder, checkpoint_chains, certify_survival,
    ).run()


# -- window flags and escape bounds ----------------------------------------


def truncation_flags_for(censuses: list[Census], M: float, s: float = 0.0) -> list[np.ndarray]:
    """Hereditary window flags for any (M, s) from stored censuses.

    Checks every event and census time.  The shift s slides the window
    clock: position < M(1 + (s + time)^{3/4}).

    These are checkpoint-only flags: a path that leaves the window and
    returns between two checkpoints keeps its flag, so ~flag is a lower
    estimate of the documented path-continuous escape.  window_escape_bounds
    brackets the escape probability given the same checkpoints.  Needs
    checkpoint chains.
    """
    def inside(cen: Census) -> np.ndarray:
        edge = np.add(s, cen.chk_time)  # M * (1.0 + (s + time) ** 0.75) in this one column
        np.power(edge, 0.75, out=edge)
        np.multiply(M, np.add(1.0, edge, out=edge), out=edge)
        return np.less(cen.chk_pos, edge)

    return _fold_down(censuses, inside, np.logical_and)


def truncated_martingale(censuses: list[Census], params: ModelParams, x0: float,
                         M: float) -> np.ndarray:
    """D^M at each census of a replicate started at x0: the additive
    martingale e^{-gt} sum h(x) / h(x0) over the particles that
    truncation_flags_for(censuses, M) keeps, so 0 <= D^M <= D, with
    equality at M = inf.  Checkpoint-only, like those flags, so biased
    upward against the path-continuous window.  Needs checkpoint chains.
    """
    h_x0 = _h_start(float(x0), params)
    flags = truncation_flags_for(censuses, M)
    return np.array([
        _martingale(cen.alive_positions, cen.time, params, x0, h_x0, where=f)
        for cen, f in zip(censuses, flags)
    ])


def _martingale(pos, t: float, params: ModelParams, x0: float, h_x0: float, where=True) -> float:
    """e^{-gt} sum h(y) / h(x0) over y in pos (where where holds).  Where that
    is not finite, because h(x0), a term or e^{-gt} overflows, the ratio form
    sum (y/x0) e^{c(y - x0) - gt}, finite wherever D fits in a float."""
    g = params.growth_exponent
    if not pos.size:
        return 0.0
    if math.isfinite(h_x0):  # else a finite sum / inf would read as D = 0
        try:
            d = float(_quiet_h(pos, params).sum(where=where)) * math.exp(-g * t) / h_x0
        except OverflowError:
            d = math.inf
        if math.isfinite(d):
            return d
    return float(np.sum(pos / x0 * np.exp(params.c * (pos - x0) - g * t), where=where))


def set_counts(censuses: list[Census], sets) -> list[list[int]]:
    """N_t(B) per census (rows) and IntervalSet B in sets (columns)."""
    return [[int(B.indicator(cen.alive_positions).sum()) for B in sets] for cen in censuses]


def _fold_down(censuses: list[Census], row_vals, op) -> list[np.ndarray]:
    """Per census, op-accumulate row_vals(cen) (a fresh array, one entry per
    tree row along its first axis) over each alive particle's ancestral
    path, from the first census's roots down to the particle's leaf row.

    A later census's roots (rows block[0]:block[1]) are the previous
    census's particles in slot order, so they take its result in place of
    their own values; every other row's parent lies in an earlier block, so
    one pass per block finishes each row from its parent's finished value.
    """
    out: list[np.ndarray] = []
    for cen in censuses:
        if cen.chk_block is None:
            raise ValueError("window queries need checkpoint chains (checkpoint_chains=True)")
        acc = row_vals(cen)
        bounds = cen.chk_block.tolist()
        if out:
            acc[:bounds[1]] = out[-1]
        for a, b in zip(bounds[1:-1], bounds[2:]):
            acc[a:b] = op(acc[cen.chk_prev[a:b]], acc[a:b])
        out.append(acc[bounds[-2]:].copy())  # the leaf block, without the rest of acc
    return out


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
    multiplied down the trees of successive censuses.  Wherever
    truncation_flags_for(censuses, M) marks a particle escaped (a
    checkpoint outside the window) both ends are 1, as every checkpoint
    ends an edge of its path and an edge with an end point outside gives
    1; elsewhere the bracket holds the conditional escape probability under
    the documented path-continuous definition, of which those flags are the
    0/1 checkpoint-only counterpart.  Needs checkpoint chains.
    """
    def log_stay(cen: Census) -> np.ndarray:
        # Every row with a parent ends one path segment; columns: lower, upper.
        edge = np.flatnonzero(cen.chk_prev >= 0)
        up = cen.chk_prev[edge]
        p_lo, p_hi = _segment_escape_bounds(
            cen.chk_time[up], cen.chk_pos[up], cen.chk_time[edge], cen.chk_pos[edge], M)
        rows = np.zeros((cen.chk_prev.size, 2))
        with np.errstate(divide="ignore"):
            rows[edge] = np.log1p(-np.stack([p_hi, p_lo], axis=1))
        return rows

    return [(-np.expm1(hi), -np.expm1(lo)) for lo, hi in (
        acc.T for acc in _fold_down(censuses, log_stay, np.add))]

