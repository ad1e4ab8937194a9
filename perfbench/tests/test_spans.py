"""Span bookkeeping, self times and the installed layer boundaries."""
import numpy as np
import pytest

import spans


def _trace(rows, counters=None):
    names = sorted({r[0] for r in rows})
    counts = dict.fromkeys(spans.COUNTERS, 0) | (counters or {})
    return {"names": np.array(names),
            "name_id": np.array([names.index(r[0]) for r in rows]),
            "start": np.array([r[1] for r in rows], float),
            "end": np.array([r[2] for r in rows], float),
            "parent": np.array([r[3] for r in rows]),
            "counters": np.array([counts[k] for k in spans.COUNTERS])}


def test_self_times_subtract_direct_children():
    m = spans.layer_metrics(_trace([
        ("cli.simulate", 0.0, 10.0, -1),
        ("engine.run_replicate", 1.0, 6.0, 0),
        ("kernel.step", 2.0, 4.0, 1),
        ("kernel.survival", 2.5, 3.0, 2),
        ("kernel.step", 4.0, 5.0, 1),
    ], {"kernel.particles_stepped": 30, "engine.particle_steps": 30}))
    assert m["cli.self_s"] == pytest.approx(5.0)
    assert m["engine.self_s"] == pytest.approx(2.0)
    assert m["kernel.step_s"] == pytest.approx(3.0)
    assert m["kernel.survival_s"] == pytest.approx(0.5)
    assert m["kernel.step_calls"] == 2 and m["kernel.mean_batch"] == 15
    assert m["engine.us_per_replicate"] == pytest.approx(5e6)
    assert m["oracles.max_call_s"] == 0.0


def test_tracer_records_nesting():
    tr = spans.Tracer()
    inner = tr.span("kernel.step", lambda x: x + 1)
    outer = tr.span("engine.run_replicate", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert tr.parent == [-1, 0]
    assert [tr.names[i] for i in tr.name_id] == ["engine.run_replicate", "kernel.step"]
    assert tr.start[0] <= tr.start[1] <= tr.end[1] <= tr.end[0]

