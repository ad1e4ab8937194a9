"""bbma benchmark: four CLI workloads, checked outputs, optional traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload small-pop --seed 1 --seconds 25 --trace 0

``--workload all`` runs the four workloads one after another.  Each round of
a workload runs its operations (``bbma`` CLI commands, ``--threads 1``) in
one fresh interpreter, so every round also yields one set-up time.  Rounds
repeat while another round should end within ``--seconds`` (at least one
runs), and the figures are medians over rounds.  ``--trace 1`` instead runs
one untraced and one traced round and reports the per-layer metrics.  The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import spans  # noqa: E402

DYADIC = [0.0, 0.0, 1.0]
MIN_SETUPS = 5            # set-up samples per run; probes fill up to this
DEADLINE_S = 170.0        # a run stops starting work after this
SMALL_POP_REPLICATES = 5_000
BIG_COHORT_REPLICATES = 50
PHASE_REPLICATES = 50


class Op(NamedTuple):
    """One CLI command; check(out_dir) judges the files it wrote."""

    name: str
    argv: list[str]
    check: Callable[[str], list]
    known_fault: str = ""   # the one check a named program fault fails


def _model(c: float, r: float) -> list[str]:
    return ["--c", repr(c), "--r", repr(r), "--offspring", "dyadic", "--threads", "1"]


def small_pop(rng: np.random.Generator) -> list[Op]:
    """Many replicates of a few 1-3 particle cohort phases: per-call overhead."""
    seed = int(rng.integers(2**31))
    argv = ["simulate", *_model(1.0, 0.6), "--x0", "1", "--horizon", "1", "--census-dt", "1",
            "--replicates", str(SMALL_POP_REPLICATES), "--seed", str(seed)]
    return [Op(f"simulate seed={seed}", argv,
               lambda out: checks.check_small_pop(out, 1.0, 1.0, 1.0, 0.6, DYADIC))]


def big_cohort(rng: np.random.Generator) -> list[Op]:
    """Populations near 1e5 with checkpoint chains: kernel cost per particle.

    The master seed is fixed: a replicate's cost is proportional to its
    martingale limit, whose coefficient of variation is above 3, so a run at
    a seed-chosen master seed would move the figures by tens of percent.  The
    seed picks the window size and the counting set, which change no sampled
    path.
    """
    M, lo = float(rng.uniform(1.15, 1.35)), float(rng.uniform(0.5, 2.0))
    argv = ["simulate", *_model(1.0, 1.5), "--x0", "1", "--horizon", "14", "--census-dt", "3.5",
            "--trunc-M", repr(M), "--set", f"{lo!r},inf",
            "--replicates", str(BIG_COHORT_REPLICATES), "--seed", "0"]
    return [Op(f"simulate M={M:.4f} set={lo:.4f},inf", argv,
               lambda out: checks.check_big_cohort(out, 1.0, 1.0, 1.5, DYADIC))]


def phase(rng: np.random.Generator) -> list[Op]:
    """A subcritical and a supercritical cell through the experiments layer.

    The master seed is fixed for the reason given in big_cohort; the seed
    picks the horizon, which moves only the subcritical cell's census.
    """
    horizon = float(rng.uniform(80.0, 120.0))
    argv = ["phase", *_model(1.0, 1.5), "--c-grid", "1", "--r-grid", "0.3,1.5", "--x0", "1",
            "--horizon", repr(horizon), "--replicates", str(PHASE_REPLICATES), "--seed", "0"]
    return [Op(f"phase horizon={horizon:.3f}", argv, lambda out: checks.check_phase(out, 1.0, DYADIC))]


def moments(rng: np.random.Generator) -> list[Op]:
    """Nested quadrature oracles at short, unit and long horizons.

    The point t = 1e-6 is fixed: second_moment_exact misses part of the
    killed-density spike there (see README), and that check fails every time.
    """
    points = [
        (1.0, 1e-6),
        (float(rng.uniform(1.2, 1.3)), 1e-3),     # x0^2/2t > 700: exact check
        (float(rng.uniform(0.8, 1.2)), 1.0),
        (float(rng.uniform(0.8, 1.2)), 5.0),
        (0.1, float(rng.uniform(0.5, 2.0))),
    ]
    ops = []
    for x0, t in points:
        argv = ["moments", *_model(1.0, 0.6), "--x0", repr(x0), "--horizon", repr(t), "--set", "1,inf"]
        ops.append(Op(f"moments x0={x0:.4g} t={t:.4g}", argv,
                      lambda out, x0=x0, t=t: checks.check_moments(out, x0, t, 1.0, 1.0, 0.6, DYADIC),
                      "factorial_moment_exact" if t == 1e-6 else ""))
    return ops


WORKLOADS = {"small-pop": small_pop, "big-cohort": big_cohort, "phase": phase, "moments": moments}


class Round(NamedTuple):
    dirs: list[str]
    result: dict | None     # the worker's timings; None when the round did not finish


def run_round(ops: list[Op], root: str, src: str, deadline: float, *,
              probe: bool = False, trace: bool = False) -> Round:
    """Run ops in one fresh interpreter; outputs go under root."""
    dirs = [os.path.join(root, f"op{j}") for j in range(len(ops))]
    req = {"ops": [op.argv + ["--out", d] for op, d in zip(ops, dirs)], "src": src,
           "probe": probe, "spans": os.path.join(root, "spans.npz") if trace else ""}
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), repr(spawned), json.dumps(req)],
                            stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("round timed out", file=sys.stderr)
        return Round(dirs, None)
    if proc.returncode != 0:
        print(f"worker exited {proc.returncode}", file=sys.stderr)
        return Round(dirs, None)
    return Round(dirs, json.loads(out.strip().splitlines()[-1]))


def _digest(path: str) -> str:
    """Hash of the files in path; the output directory echoed in them is masked."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode())
        with open(os.path.join(path, name), "rb") as f:
            h.update(f.read().replace(path.encode(), b"<out>"))
    return h.hexdigest()


def judge(ops: list[Op], rounds: list[Round]) -> tuple[bool, int, int]:
    """(correct, attempted, failed) over every op of every round.

    An op fails when it exits non-zero or any check fails.  correct turns
    false when a failure is other than an op's named known fault.  Ops of a
    later round must write byte-identical files to the same op in round 0.
    """
    correct, attempted, failed = True, 0, 0
    for i, rnd in enumerate(rounds):
        for j, (op, d) in enumerate(zip(ops, rnd.dirs)):
            attempted += 1
            if rnd.result is None or j >= len(rnd.result["ops"]):
                failing = [checks.Check("finished", False, "round did not finish")]
            else:
                code = rnd.result["ops"][j]["exit"]
                found = [checks.Check("exit", code == 0, f"exit {code}")]
                try:
                    found += op.check(d)
                    if i and rounds[0].result is not None:
                        same = _digest(d) == _digest(rounds[0].dirs[j])
                        found.append(checks.Check("rerun_identical", same, "files differ from round 0"))
                except (OSError, KeyError, ValueError) as e:
                    found.append(checks.Check("readable", False, f"{type(e).__name__}: {e}"))
                failing = [c for c in found if not c.ok]
            if failing:
                failed += 1
            for c in failing:
                if c.name != op.known_fault:
                    correct = False
                    print(f"FAIL {op.name}: {c.name}: {c.detail}", file=sys.stderr)
    return correct, attempted, failed


def _round_sum(rnd: Round, key: str) -> float:
    return sum(op[key] for op in rnd.result["ops"])


def output_counts(dirs: list[str]) -> tuple[int, int]:
    """(bytes written, records): report.jsonl lines plus censuses.csv rows."""
    size = records = 0
    for d in dirs:
        for name in os.listdir(d):
            path = os.path.join(d, name)
            size += os.path.getsize(path)
            if name in ("report.jsonl", "censuses.csv"):
                with open(path, "rb") as f:
                    records += sum(1 for _ in f) - (name == "censuses.csv")
    return size, records


def run_workload(name: str, seed: int, seconds: float, trace: bool, src: str) -> dict:
    ops = WORKLOADS[name](np.random.default_rng(seed))
    root = os.path.join(os.getcwd(), ".bench_out", name)
    shutil.rmtree(root, ignore_errors=True)
    start = time.monotonic()
    deadline = start + DEADLINE_S

    def new_round(tag: str, **kw) -> Round:
        return run_round(ops, os.path.join(root, tag), src, deadline, **kw)

    if trace:
        rounds = [new_round("untraced"), new_round("traced", trace=True)]
    else:
        probes = []
        rounds = [new_round("round0")]
        # Start another round only while it should end within the time given.
        while rounds[-1].result is not None and (
                (time.monotonic() - start) * (len(rounds) + 1) / len(rounds) <= seconds):
            rounds.append(new_round(f"round{len(rounds)}"))
        while len(rounds) + len(probes) < MIN_SETUPS and rounds[-1].result is not None:
            probes.append(new_round(f"probe{len(probes)}", probe=True))
    correct, attempted, failed = judge(ops, rounds)
    done = [r for r in rounds if r.result is not None]
    if len(done) < len(rounds):
        return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}

    if trace:
        plain, traced = done
        with np.load(os.path.join(root, "traced", "spans.npz")) as saved:
            values = spans.layer_metrics(saved)
        values["cli.output_bytes"], values["cli.records"] = output_counts(traced.dirs)
        values["trace.overhead_s"] = _round_sum(traced, "wall_s") - _round_sum(plain, "wall_s")
    else:
        values = {
            "setup_s": statistics.median(r.result["setup_s"] for r in done + probes if r.result),
            "wall_s": statistics.median(_round_sum(r, "wall_s") for r in done),
            "cpu_s": statistics.median(_round_sum(r, "cpu_s") for r in done),
            "peak_rss_mib": statistics.median(r.result["peak_rss_mib"] for r in done),
        }
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "bbma", "__init__.py")):
        print("run from the repository root: src/bbma is missing", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    compileall.compile_dir(src, quiet=1)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace), src)
        missing = set(units) - set(res["metrics"])
        if res["metrics"] and missing:
            raise RuntimeError(f"metrics not measured: {sorted(missing)}")
        res["metrics"] = {k: {"value": res["metrics"][k], "unit": u}
                          for k, u in units.items() if k in res["metrics"]}
        figures = "  ".join(f"{k} {m['value']:.6g} {m['unit']}" for k, m in res["metrics"].items())
        print(f"{name}: attempted {res['attempted']} failed {res['failed']} "
              f"correct {res['correct']}  {figures}")
        print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
