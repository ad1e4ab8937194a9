"""Command-line front end: deterministic experiment runs, CSV/JSONL output.

Subcommands: simulate, moments, verify, kesten, phase, schedule.  Every run
is a pure function of its configuration (seed included), so rerunning a
command writes byte-identical files; nothing time- or host-dependent is
serialized.  Exit codes: 0 success, 1 usage/config error, 2 statistical
contract failure.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .engine import run_replicate, set_counts, spawn_rng_stream, truncated_martingale
from .experiments import (
    _mean_se,
    experiment_kesten,
    experiment_phase_diagram,
    tk_schedule_report,
    verify_samplers,
)
from .kernel import survival_probability
from .model import (
    IntervalSet,
    ModelParams,
    classify_regime,
    parse_offspring,
)
from .oracles import (
    expected_count,
    expected_count_asymptotic,
    mean_one_check,
    second_moment_exact,
)

__all__ = ["RunConfig", "parse_config", "main",
           "cmd_simulate", "cmd_moments", "cmd_verify",
           "cmd_kesten", "cmd_phase", "cmd_schedule"]

MEAN_ONE_TOL = 1e-8


class UsageError(ValueError):
    """Bad flags or config file content; maps to exit code 1."""


def _fmt(x) -> str:
    """Round-trip-safe scalar formatting for CSV cells."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


@dataclass(frozen=True)
class RunConfig:
    """Complete description of one CLI run.

    c, r, offspring have no defaults; everything else does.  The config
    round-trips losslessly through the flat key=value file format.
    """

    c: float
    r: float
    offspring: str
    x0: float = 1.0
    horizon: float = 10.0
    census_dt: float | None = None
    census_grid: tuple[float, ...] | None = None
    replicates: int | None = None
    seed: int = 0
    truncation_M: float | None = None
    sets: tuple[str, ...] = ()
    out: str = "."
    format: str = "csv"
    c_grid: tuple[float, ...] | None = None
    r_grid: tuple[float, ...] | None = None
    k_max: int = 1000
    delta: float = 1.0

    def params(self) -> ModelParams:
        return ModelParams(c=self.c, r=self.r, offspring=parse_offspring(self.offspring))

    def interval_sets(self) -> tuple[IntervalSet, ...]:
        return tuple(IntervalSet.parse(s) for s in self.sets)

    def grid(self) -> list[float]:
        if self.census_grid is not None:
            return list(self.census_grid)
        dt = self.census_dt if self.census_dt is not None else self.horizon / 4.0
        k = int(math.floor(self.horizon / dt + 1e-9))
        grid = [dt * i for i in range(1, k + 1)]
        if not grid or grid[-1] < self.horizon - 1e-9:
            grid.append(self.horizon)
        return grid

    def to_text(self) -> str:
        lines = ["# run configuration"]
        for f in fields(self):
            v = getattr(self, f.name)
            if v is None:
                continue
            if f.name == "sets":
                lines.extend(f"set={s}" for s in v)
            elif isinstance(v, tuple):
                lines.append(f"{f.name}={','.join(_fmt(x) for x in v)}")
            else:
                lines.append(f"{f.name}={_fmt(v)}")
        return "\n".join(lines) + "\n"

    def echo(self) -> dict:
        d = {}
        for f in fields(self):
            v = getattr(self, f.name)
            d[f.name] = list(v) if isinstance(v, tuple) else v
        return d


_FLOAT_KEYS = {"c", "r", "x0", "horizon", "census_dt", "truncation_M", "delta"}
_INT_KEYS = {"replicates", "seed", "k_max"}
_GRID_KEYS = ("census_grid", "c_grid", "r_grid")
_POSITIVE_KEYS = ("x0", "horizon", "census_dt", "truncation_M", "delta")


def _parse_value(key: str, raw: str):
    """Read the value of one key from its text, a flag's or a config line's.

    A float key, and each entry of a comma-separated grid key, must be a
    finite number; an int key an integer; 'format' csv or jsonl; 'set' and
    'offspring' valid specs, kept as their stripped text.  Raises UsageError
    naming the key; range rules are _check's.
    """
    raw = raw.strip()
    if key in _FLOAT_KEYS or key in _GRID_KEYS:
        grid = key in _GRID_KEYS
        try:
            vals = tuple(float(tok) for tok in raw.split(",") if tok.strip()) if grid else (float(raw),)
        except ValueError:
            want = "comma-separated numbers" if grid else "a number"
            raise UsageError(f"key '{key}': expected {want}, got '{raw}'") from None
        if not all(map(math.isfinite, vals)):
            raise UsageError(f"key '{key}': value must be finite, got '{raw}'")
        return vals if grid else vals[0]
    if key in _INT_KEYS:
        try:
            return int(raw)
        except ValueError:
            raise UsageError(f"key '{key}': expected an integer, got '{raw}'") from None
    if key == "format" and raw not in ("csv", "jsonl"):
        raise UsageError(f"key 'format': must be 'csv' or 'jsonl', got '{raw}'")
    if key in ("set", "offspring"):
        try:
            (IntervalSet.parse if key == "set" else parse_offspring)(raw)
        except ValueError as e:
            raise UsageError(f"bad {'interval set' if key == 'set' else key} '{raw}': {e}") from None
    return raw


def parse_config(text: str) -> dict:
    """Parse flat key=value config text into a dict of RunConfig fields.

    '#' starts a comment.  Later lines override earlier ones except 'set',
    which accumulates into 'sets'.  Each value is read by _parse_value; an
    unknown key, a line without '=' or a value it rejects raises UsageError
    prefixed 'config line N: '.  Range rules wait for the whole run (_check).
    """
    known = {f.name for f in fields(RunConfig)} | {"set"}
    out: dict = {}
    set_list = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno}: expected key=value, got '{line}'")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise UsageError(f"config line {lineno}: unknown key '{key}'")
        try:
            value = _parse_value(key, raw)
        except UsageError as e:
            raise UsageError(f"config line {lineno}: {e}") from None
        if key == "set":
            set_list.append(value)
        else:
            out[key] = value
    if set_list:
        out["sets"] = tuple(set_list)
    return out


def _check(cfg: RunConfig) -> None:
    """Every range rule on a run's keys, checked once before any command
    runs; raises UsageError at the first broken rule."""
    for key in _GRID_KEYS:
        if getattr(cfg, key) == ():
            raise UsageError(f"{key} must not be empty")
    cells = [(c, r) for c in cfg.c_grid or (cfg.c,) for r in cfg.r_grid or (cfg.r,)]
    try:
        for c, r in [(cfg.c, cfg.r), *cells]:  # the model, then every grid cell
            replace(cfg, c=c, r=r).params()
    except ValueError as e:
        raise UsageError(str(e)) from None
    for key in _POSITIVE_KEYS:
        v = getattr(cfg, key)
        if v is not None and not v > 0:
            raise UsageError(f"{key} must be positive, got {v!r}")
    if cfg.replicates is not None and cfg.replicates < 1:
        raise UsageError(f"replicates must be at least 1, got {cfg.replicates}")
    if cfg.k_max < 2:
        raise UsageError(f"k_max must be at least 2, got {cfg.k_max}")
    g = cfg.census_grid
    if g is not None:
        if any(b <= a for a, b in zip(g, g[1:])):
            raise UsageError(f"census_grid must increase strictly, got {list(g)}")
        if g[0] < 0 or g[-1] > cfg.horizon:
            raise UsageError(f"census_grid must lie within [0, horizon={cfg.horizon!r}], got {list(g)}")


def _build_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as f:
                text = f.read()
        except OSError as e:
            raise UsageError(f"cannot read config file: {e}") from None
        values = parse_config(text)

    for f in fields(RunConfig):  # every flag's dest is its key; flags override the file
        raw = getattr(args, f.name, None)
        if raw is not None:
            values[f.name] = _parse_value(f.name, raw)
    if args.set:
        values["sets"] = tuple(_parse_value("set", s) for s in args.set)

    env_seed = os.environ.get("BBM_SEED")
    if env_seed is not None:
        try:
            values["seed"] = int(env_seed)
        except ValueError:
            raise UsageError(f"BBM_SEED must be an integer, got '{env_seed}'") from None

    for key in ("c", "r"):  # a grid's first value stands in for a model value not given
        if key not in values and values.get(key + "_grid"):
            values[key] = values[key + "_grid"][0]
    missing = [k for k in ("c", "r", "offspring") if k not in values]
    if missing:
        raise UsageError(f"missing required option(s): {', '.join('--' + m for m in missing)}")
    cfg = RunConfig(**values)
    _check(cfg)
    return cfg


# -- file emission -----------------------------------------------------------


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(text)


def _csv(rows: list[list], header: list[str]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")  # quotes cells like set specs "0,1"
    w.writerow(header)
    for row in rows:
        w.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def _jsonl(records: list[dict]) -> str:
    return "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records)


def _emit(cfg: RunConfig, censuses_rows, censuses_header, summary_rows, summary_header, records):
    """Write the output files; config.json holds the config echo."""
    try:
        os.makedirs(cfg.out, exist_ok=True)
        if cfg.format == "csv" and censuses_rows is not None:
            _write(os.path.join(cfg.out, "censuses.csv"), _csv(censuses_rows, censuses_header))
        _write(os.path.join(cfg.out, "summary.csv"), _csv(summary_rows, summary_header))
        _write(os.path.join(cfg.out, "report.jsonl"), _jsonl(records))
        _write(os.path.join(cfg.out, "config.json"), _jsonl([cfg.echo()]))
    except OSError as e:
        raise UsageError(f"cannot write to output directory '{cfg.out}': {e}") from None


# -- subcommands -------------------------------------------------------------


def _simulate_one(cfg: RunConfig, params: ModelParams, sets, grid, i: int) -> tuple[list, dict]:
    """Replicate i's censuses.csv rows and report.jsonl record.  Its censuses
    and checkpoint trees are freed on return, before the next replicate runs."""
    # Only --trunc-M reads the trees; a plain run drops them once the
    # benchmark's traced test stops asserting their bytes.
    res = run_replicate(params, cfg.x0, cfg.horizon, grid, spawn_rng_stream(cfg.seed, i),
                        checkpoint_chains=True)
    times, alive, d = res.trace.times.tolist(), res.trace.n_alive.tolist(), res.trace.d.tolist()
    d_trunc = d if cfg.truncation_M is None else truncated_martingale(
        res.censuses, params, cfg.x0, cfg.truncation_M).tolist()
    counts = set_counts(res.censuses, sets)
    rows = [[i, t, a, cen.absorbed_count, *k, dj, dtj]
            for t, a, cen, k, dj, dtj in zip(times, alive, res.censuses, counts, d, d_trunc)]
    return rows, {
        "replicate": i, "status": res.status,
        "n_events": res.n_events, "counters": res.counters,
        "times": times, "alive": alive, "D": d, "D_trunc": d_trunc, "counts": counts,
    }


def cmd_simulate(cfg: RunConfig) -> int:
    params = cfg.params()
    sets = cfg.interval_sets()
    grid = cfg.grid()
    n = cfg.replicates if cfg.replicates is not None else 100

    crows: list[list] = []
    records: list[dict] = []
    for i in range(n):
        rows, rec = _simulate_one(cfg, params, sets, grid, i)
        crows += rows
        records.append(rec)

    set_cols = [f"count_B{k+1}" for k in range(len(sets))]
    cheader = ["replicate", "time", "alive", "absorbed", *set_cols, "D", "D_trunc"]
    srows = []
    for t in grid:
        rows = [r for r in crows if r[1] == t]  # a cap abort has fewer censuses
        m = len(rows)
        alive = np.array([r[2] for r in rows], dtype=float)
        row = [t, m, float((alive > 0).mean()) if m else math.nan]
        for stat in (_mean_se(alive), _mean_se([r[-2] for r in rows])):
            # the SE of a one-replicate run prints as nan, not inf
            row += [stat["value"], stat["stderr"] if m > 1 else math.nan]
        srows.append(row + [
            float(np.mean([r[-1] for r in rows])) if m else math.nan,
            float(np.mean([r[3] for r in rows])) if m else math.nan,
        ])
    sheader = ["time", "n", "surviving_fraction", "mean_alive", "se_alive",
               "mean_D", "se_D", "mean_D_trunc", "mean_absorbed"]
    _emit(cfg, crows, cheader, srows, sheader, records)
    return 0


def cmd_moments(cfg: RunConfig) -> int:
    params = cfg.params()
    sets = cfg.interval_sets()
    B = sets[0] if sets else IntervalSet.positive_axis()
    t = cfg.horizon
    x = cfg.x0
    ec = expected_count(x, t, B, params)
    eca = expected_count_asymptotic(x, t, B, params)
    sm = second_moment_exact(x, t, params)
    mo = mean_one_check(x, t, params)
    sp = float(survival_probability(x, t, params))
    rows = [
        ["expected_count", ec],
        ["expected_count_asymptotic", eca],
        ["count_ratio_to_asymptotic", ec / eca if eca else math.nan],
        ["second_moment_exact", sm],
        ["survival_probability", sp],
        ["mean_one_check", mo],
        ["growth_exponent", params.growth_exponent],
        ["regime", classify_regime(params).value],
    ]
    record = {"set": B.spec_string(), "values": {k: v for k, v in rows}}
    _emit(cfg, None, None, rows, ["quantity", "value"], [record])
    return 0 if abs(mo - 1.0) <= MEAN_ONE_TOL else 2


def cmd_verify(cfg: RunConfig) -> int:
    params = cfg.params()
    n = cfg.replicates if cfg.replicates is not None else 10**5
    report = verify_samplers(params, n, cfg.seed)
    rows = []
    for s in report.replicate_records:
        rows.append([s["suite"], s["ok"],
                     s.get("pvalue", s.get("wait_ks_pvalue", math.nan)),
                     s.get("statistic", s.get("wait_ks_statistic", math.nan)),
                     s.get("n", s.get("n_events", 0))])
    _emit(cfg, None, None, rows, ["suite", "ok", "pvalue", "statistic", "n"],
          report.replicate_records)
    return 0 if report.passed else 2


def cmd_kesten(cfg: RunConfig) -> int:
    params = cfg.params()
    sets = cfg.interval_sets() or (IntervalSet.parse("1,inf"),)
    n = cfg.replicates if cfg.replicates is not None else 2000
    report = experiment_kesten(params, cfg.x0, list(sets), cfg.horizon, n, cfg.seed)
    if "per_census" not in report.aggregates:  # infeasible: refused before any replicate ran
        message = report.aggregates["message"]
        _emit(cfg, None, None, [[message]], ["message"],
              [{"message": message, "config": report.config, "passed": report.passed}])
        return 2

    grid = [row["time"] for row in report.aggregates["per_census"]]
    crows = []
    for rec in report.replicate_records:  # a cap abort has fewer censuses
        cols = zip(grid, rec["alive"], rec["absorbed"], rec["counts"], rec["D"])
        for t, alive, absorbed, counts, d in cols:
            crows.append([rec["replicate"], t, alive, absorbed, *counts, d, d])
    cheader = ["replicate", "time", "alive", "absorbed",
               *[f"count_B{k+1}" for k in range(len(sets))], "D", "D_trunc"]

    srows = []
    for row in report.aggregates["per_census"]:
        for key, agg in row["sets"].items():
            srows.append([
                row["time"], key,
                row["surviving_fraction"]["value"],
                agg["mean_abs_gap"]["value"], agg["mean_abs_gap"]["stderr"], agg["mean_abs_gap"]["n"],
                agg["median_abs_gap"]["value"],
                agg["mean_R_minus_pred_all"]["value"], agg["mean_R_minus_pred_all"]["stderr"],
            ])
    sheader = ["time", "set", "surviving_fraction", "mean_abs_gap", "se_abs_gap",
               "n_survivors", "median_abs_gap", "mean_R_minus_pred_all", "se_R_minus_pred_all"]
    _emit(cfg, crows, cheader, srows, sheader, report.replicate_records)
    return 0 if report.passed else 2


def cmd_phase(cfg: RunConfig) -> int:
    params = cfg.params()
    c_grid = list(cfg.c_grid) if cfg.c_grid is not None else [cfg.c]
    r_grid = list(cfg.r_grid) if cfg.r_grid is not None else [cfg.r]
    n = cfg.replicates if cfg.replicates is not None else 500
    report = experiment_phase_diagram(c_grid, r_grid, params.offspring, cfg.x0,
                                      cfg.horizon, n, cfg.seed)
    rows = []
    for cell in report.aggregates["cells"]:
        rows.append([cell["c"], cell["r"], cell["regime"], cell["horizon"], cell["n"],
                     cell["survived"], cell["frequency"],
                     cell.get("binomial_p", math.nan), cell["ok"]])
    _emit(cfg, None, None, rows,
          ["c", "r", "regime", "horizon", "n", "survived", "frequency", "binomial_p", "ok"],
          report.aggregates["cells"])
    return 0 if report.passed else 2


def cmd_schedule(cfg: RunConfig) -> int:
    params = cfg.params()
    rep = tk_schedule_report(cfg.k_max, cfg.delta, params.growth_exponent)
    rows = []
    for i, (t, s, M) in enumerate(rep["schedule"]):
        rows.append([i + 2, t, s, M, rep["t3_partial_sums"][i]])
    record = {
        "k_max": rep["k_max"], "delta": rep["delta"],
        "growth_exponent": rep["growth_exponent"],
        "gap_turnover_k": rep["gap_turnover_k"],
        "gaps_decreasing_tail": rep["gaps_decreasing_tail"],
        "t3_last_increment": rep["t3_last_increment"],
    }
    _emit(cfg, None, None, rows, ["k", "t_k", "s_k", "M_k", "t3_partial_sum"], [record])
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "moments": cmd_moments,
    "verify": cmd_verify,
    "kesten": cmd_kesten,
    "phase": cmd_phase,
    "schedule": cmd_schedule,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 for usage problems, not argparse's 2
        raise UsageError(message)


def _make_parser() -> _Parser:
    p = _Parser(prog="bbma", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name, help=f"run the {name} command")
        sp.add_argument("--config", help="flat key=value config file")
        sp.add_argument("--c", help="drift toward the absorbing origin")
        sp.add_argument("--r", help="branch rate")
        sp.add_argument("--offspring", help="'dyadic' or 'pmf:p0,p1,...'")
        sp.add_argument("--x0", help="start height (default 1)")
        sp.add_argument("--horizon", help="simulation horizon (default 10)")
        sp.add_argument("--census-dt", dest="census_dt", help="census spacing (default horizon/4)")
        sp.add_argument("--replicates", help="replicate count (per-command default)")
        sp.add_argument("--seed", help="master seed (default 0; BBM_SEED overrides)")
        sp.add_argument("--trunc-M", dest="truncation_M", help="truncation window size (default off)")
        sp.add_argument("--set", action="append",
                        help="interval set 'a,b;c,d' with inf (repeatable)")
        sp.add_argument("--out", help="output directory (default .)")
        sp.add_argument("--format", help="csv also writes censuses.csv; jsonl skips it")
        sp.add_argument("--threads", type=int, choices=[1],
                        help="runs are single-threaded; accepted for compatibility, only 1")
        if name == "phase":
            sp.add_argument("--c-grid", dest="c_grid", help="comma-separated drift grid")
            sp.add_argument("--r-grid", dest="r_grid", help="comma-separated branch-rate grid")
        if name == "schedule":
            sp.add_argument("--k-max", dest="k_max", help="schedule length (default 1000)")
            sp.add_argument("--delta", help="window-size slope (default 1)")
    return p


def main(argv=None) -> int:
    try:
        args = _make_parser().parse_args(argv)
        cfg = _build_config(args)
        return _COMMANDS[args.command](cfg)
    except ValueError as e:  # a UsageError, or an input a command refuses
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OverflowError as e:
        print(f"error: a value exceeds the floating-point range ({e})", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
