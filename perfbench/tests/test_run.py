"""Rounds, tracing and failure accounting of the benchmark runner."""
import os
import time

import numpy as np

import checks
import run
import spans

SRC = os.path.join(os.path.dirname(run.HERE), "src")
TINY = ["simulate", "--c", "1", "--r", "0.6", "--offspring", "dyadic", "--horizon", "1",
        "--census-dt", "1", "--replicates", "20", "--seed", "3"]


def test_traced_round_matches_untraced_and_reports_layers(tmp_path):
    ops = [run.Op("tiny", TINY, lambda out: checks.check_small_pop(out, 1.0, 1.0, 1.0, 0.6, run.DYADIC))]
    deadline = time.monotonic() + 120
    rounds = [run.run_round(ops, str(tmp_path / "plain"), SRC, deadline),
              run.run_round(ops, str(tmp_path / "traced"), SRC, deadline, trace=True)]
    assert run.judge(ops, rounds) == (True, 2, 0)   # includes byte-identical reruns
    assert rounds[0].result["setup_s"] > 0 and rounds[0].result["ops"][0]["wall_s"] > 0
    with np.load(str(tmp_path / "traced" / "spans.npz")) as saved:
        m = spans.layer_metrics(saved)
    assert m["engine.replicates"] == 20
    assert m["kernel.particles_stepped"] == m["engine.particle_steps"] > 0
    assert m["engine.checkpoint_bytes"] > 0 and m["cli.self_s"] > 0
    assert run.output_counts(rounds[1].dirs)[1] == 20 + 20   # report lines + census rows


def _round(tmp_path, tag, n):
    dirs = []
    for j in range(n):
        d = tmp_path / tag / f"op{j}"
        d.mkdir(parents=True)
        (d / "summary.csv").write_text("x\n1\n")
        dirs.append(str(d))
    return run.Round(dirs, {"setup_s": 1.0, "ops": [{"exit": 0, "wall_s": 1.0, "cpu_s": 1.0}] * n})


def test_known_fault_is_failed_but_correct(tmp_path):
    fault = [checks.Check("exact", False, "named fault"), checks.Check("bounds", True, "")]
    ops = [run.Op("faulty", [], lambda out: fault, "exact"), run.Op("fine", [], lambda out: [])]
    assert run.judge(ops, [_round(tmp_path, "a", 2), _round(tmp_path, "b", 2)]) == (True, 4, 2)


def test_unexpected_failure_is_incorrect(tmp_path):
    ops = [run.Op("broken", [], lambda out: [checks.Check("bounds", False, "")], "exact")]
    assert run.judge(ops, [_round(tmp_path, "a", 1)]) == (False, 1, 1)
    rnd = _round(tmp_path, "b", 1)
    assert run.judge([run.Op("crash", [], lambda out: [])],
                     [run.Round(rnd.dirs, {"ops": [{"exit": "RuntimeError: x"}]})]) == (False, 1, 1)
    # exit 0 with no files written is a failure, not a pass with nothing checked
    silent = run.Op("silent", [], lambda out: checks.check_small_pop(out, 1.0, 1.0, 1.0, 0.6, run.DYADIC))
    assert run.judge([silent], [run.Round([str(tmp_path / "none")], {"ops": [{"exit": 0}]})]) == (False, 1, 1)


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "moments", "--seed", "1", "--seconds", "1", "--trace", "0"]) == 2
