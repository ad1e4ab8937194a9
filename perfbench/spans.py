"""Span tracing from outside the program, and per-layer metrics from spans.

``install`` rebinds public ``bbma`` functions in the modules that call them,
so each call records a span (name, start, end, parent) or bumps a counter.
Nothing under ``src/`` changes.  Spans are kept in memory and saved once, when
the traced round ends; ``layer_metrics`` turns a saved trace into the
per-layer figures.
"""
from __future__ import annotations

import functools
import math
import time

import numpy as np

# Counters that a traced round reports exactly; they repeat run to run.
COUNTERS = ("kernel.particles_stepped", "engine.particle_steps",
            "engine.checkpoint_bytes", "oracles.quad_calls", "oracles.integrand_evals")

ORACLE_FUNCTIONS = ("expected_count", "expected_count_asymptotic",
                    "second_moment_exact", "mean_one_check")


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.stack = [-1]
        self.counts = dict.fromkeys(COUNTERS, 0)

    def span(self, name: str, fn, after=None):
        """Wrap fn so each call records a span; after(args, result) runs last."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_id, start, end, parent, stack = self.name_id, self.start, self.end, self.parent, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(math.nan)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def counter(self, key: str, fn):
        """Wrap fn so each call adds one to counts[key]."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), name_id=np.array(self.name_id, np.int32),
                 start=np.array(self.start), end=np.array(self.end),
                 parent=np.array(self.parent, np.int64),
                 counters=np.array([self.counts[k] for k in COUNTERS], np.int64))


def install(tracer: Tracer) -> None:
    """Rebind the layer boundaries of the imported ``bbma`` package."""
    import bbma.cli
    import bbma.engine
    import bbma.experiments
    import bbma.kernel
    import bbma.oracles

    counts = tracer.counts

    def after_step(args, out):
        counts["kernel.particles_stepped"] += len(args[0])

    def after_replicate(args, res):
        counts["engine.particle_steps"] += res.n_events
        chk = sum(a.nbytes for cen in res.censuses
                  for a in (cen.chk_slot, cen.chk_time, cen.chk_pos) if a is not None)
        counts["engine.checkpoint_bytes"] = max(counts["engine.checkpoint_bytes"], chk)

    bbma.engine.sample_killed_steps_batch = tracer.span(
        "kernel.step", bbma.engine.sample_killed_steps_batch, after_step)
    # The killed step calls survival_probability through the kernel module.
    bbma.kernel.survival_probability = tracer.span(
        "kernel.survival", bbma.kernel.survival_probability)
    for mod in (bbma.cli, bbma.experiments):
        mod.run_replicate = tracer.span("engine.run_replicate", mod.run_replicate, after_replicate)
        for fn in ORACLE_FUNCTIONS:
            if hasattr(mod, fn):
                setattr(mod, fn, tracer.span("oracles." + fn, getattr(mod, fn)))
    bbma.cli.experiment_phase_diagram = tracer.span(
        "experiments.phase_diagram", bbma.cli.experiment_phase_diagram)
    bbma.oracles.quad = tracer.counter("oracles.quad_calls", bbma.oracles.quad)
    for fn in ("killed_density", "survival_probability"):
        setattr(bbma.oracles, fn, tracer.counter("oracles.integrand_evals", getattr(bbma.oracles, fn)))


def layer_metrics(trace) -> dict[str, float]:
    """Per-layer figures from a saved trace (a mapping of the saved arrays)."""
    names = [str(n) for n in trace["names"]]
    name_id, parent = trace["name_id"], trace["parent"]
    dur = trace["end"] - trace["start"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    own = dur - child
    counts = dict(zip(COUNTERS, (int(v) for v in trace["counters"])))

    def mask(prefix: str) -> np.ndarray:
        ids = [i for i, n in enumerate(names) if n == prefix or n.startswith(prefix + ".")]
        return np.isin(name_id, ids)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    step, rep = mask("kernel.step"), mask("engine.run_replicate")
    oracle = mask("oracles")
    step_s, rep_s = float(dur[step].sum()), float(dur[rep].sum())
    particles, replicates = counts["kernel.particles_stepped"], int(rep.sum())
    return {
        "kernel.step_calls": int(step.sum()),
        "kernel.mean_batch": ratio(particles, int(step.sum())),
        "kernel.particles_stepped": particles,
        "kernel.step_s": step_s,
        "kernel.ns_per_particle": 1e9 * ratio(step_s, particles),
        "kernel.survival_s": float(dur[mask("kernel.survival")].sum()),
        "engine.replicates": replicates,
        "engine.self_s": float(own[rep].sum()),
        "engine.us_per_replicate": 1e6 * ratio(rep_s, replicates),
        "engine.ns_per_particle_step": 1e9 * ratio(rep_s, counts["engine.particle_steps"]),
        "engine.particle_steps": counts["engine.particle_steps"],
        "engine.checkpoint_bytes": counts["engine.checkpoint_bytes"],
        "oracles.quad_calls": counts["oracles.quad_calls"],
        "oracles.integrand_evals": counts["oracles.integrand_evals"],
        "oracles.second_moment_exact_s": float(dur[mask("oracles.second_moment_exact")].sum()),
        "oracles.expected_count_s": float(dur[mask("oracles.expected_count")].sum()),
        "oracles.mean_one_check_s": float(dur[mask("oracles.mean_one_check")].sum()),
        "oracles.max_call_s": float(dur[oracle].max()) if oracle.any() else 0.0,
        "experiments.self_s": float(own[mask("experiments")].sum()),
        "cli.self_s": float(own[mask("cli")].sum()),
    }
