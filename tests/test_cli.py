"""CLI tests: config parsing and round-trips, exit codes, output file
schemas, seed handling, and byte-level determinism of reruns."""

import argparse
import csv
import functools
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bbma
from bbma import experiments
from bbma.cli import RunConfig, UsageError, _make_parser, main, parse_config
from bbma.engine import truncated_martingale
from bbma.experiments import experiment_kesten, verify_samplers
from bbma.model import ModelParams, OffspringLaw
from bbma.oracles import expected_count

SUPER = ["--c", "1", "--r", "1.5", "--offspring", "dyadic"]


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_parse_config_basic():
    text = """
    # supercritical reference run
    c = 1.0
    r = 1.5          # branch rate
    offspring = dyadic
    horizon = 10
    set = 0,1
    set = 1,inf
    seed = 7
    """
    d = parse_config(text)
    cfg = RunConfig(**d)
    assert (cfg.c, cfg.r, cfg.offspring) == (1.0, 1.5, "dyadic")
    assert cfg.horizon == 10.0
    assert cfg.sets == ("0,1", "1,inf")
    assert cfg.seed == 7
    assert cfg.x0 == 1.0 and cfg.out == "." and cfg.format == "csv"


def test_parse_config_later_lines_override_but_sets_accumulate():
    d = parse_config("c=1\nc=2\nset=0,1\nset=2,inf\n")
    assert d["c"] == 2.0
    assert d["sets"] == ("0,1", "2,inf")


def test_parse_config_pmf_offspring():
    d = parse_config("c=1\nr=1.2\noffspring=pmf:0.2,0,0.8\n")
    p = RunConfig(**d).params()
    assert p.offspring.mu1 == pytest.approx(1.6, rel=1e-15)


@pytest.mark.parametrize("text, match", [
    ("granularity=5", r"line 1: unknown key 'granularity'"),
    ("c=fast", r"key 'c': expected a number, got 'fast'"),
    ("replicates=1.5", r"key 'replicates': expected an integer"),
    ("horizon=inf", r"key 'horizon': value must be finite"),
    ("just a line", r"line 1: expected key=value"),
    ("set=3,2", r"line 1: bad interval set '3,2'"),
    ("offspring=pmf:0.2,0.9", r"bad offspring"),
    ("format=yaml", r"must be 'csv' or 'jsonl'"),
    ("census_grid=1,x", r"key 'census_grid': expected comma-separated numbers"),
])
def test_parse_config_error_messages_name_the_problem(text, match):
    with pytest.raises(UsageError, match=match):
        parse_config(text)


def test_config_round_trip_exact():
    cfg = RunConfig(
        c=1.0, r=0.6, offspring="pmf:0.2,0,0.8", x0=1 / 3, horizon=7.25,
        census_grid=(1.0, 2.0, 3.5), replicates=50, seed=9, truncation_M=2.5,
        sets=("0,1", "1,inf"), out="runs", format="jsonl",
        c_grid=(0.5, 1.0), r_grid=(0.3, 1.5), k_max=20, delta=0.5,
    )
    assert RunConfig(**parse_config(cfg.to_text())) == cfg


@given(
    c=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
    r=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
    x0=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
    horizon=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**62),
    replicates=st.none() | st.integers(min_value=1, max_value=10**6),
    truncation_M=st.none() | st.floats(min_value=0.1, max_value=50, allow_nan=False),
    sets=st.lists(st.sampled_from(["0,1", "1,inf", "0.5,2;3,inf"]),
                  max_size=2, unique=True),
    fmt=st.sampled_from(["csv", "jsonl"]),
)
@settings(max_examples=60, deadline=None)
def test_config_round_trip_property(c, r, x0, horizon, seed, replicates,
                                    truncation_M, sets, fmt):
    # %.17g must reproduce every float bit-for-bit through the file format
    cfg = RunConfig(c=c, r=r, offspring="dyadic", x0=x0, horizon=horizon,
                    seed=seed, replicates=replicates, truncation_M=truncation_M,
                    sets=tuple(sets), format=fmt)
    assert RunConfig(**parse_config(cfg.to_text())) == cfg


def test_census_grid_defaults():
    base = dict(c=1.0, r=0.6, offspring="dyadic")
    assert RunConfig(**base).grid() == [2.5, 5.0, 7.5, 10.0]
    assert RunConfig(**base, census_dt=4.0).grid() == [4.0, 8.0, 10.0]
    assert RunConfig(**base, census_dt=2.5).grid() == [2.5, 5.0, 7.5, 10.0]
    assert RunConfig(**base, census_grid=(1.0, 9.0)).grid() == [1.0, 9.0]


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_missing_required_options_exit_1(capsys):
    assert main(["simulate"]) == 1
    err = capsys.readouterr().err
    assert "missing required option(s): --c, --r, --offspring" in err


def test_unknown_flag_exit_1(capsys):
    assert main(["simulate", *SUPER, "--granularity", "5"]) == 1
    assert "error:" in capsys.readouterr().err


def _assert_usage_error(capsys, out, match):
    # one error line, no traceback, and nothing written
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and f"error: {match}" in lines[0], lines
    assert not out.exists()


def _flag_case(flag, value, match, command="simulate"):
    prefix = "" if command == "simulate" else f"{command}-"
    return pytest.param(command, flag, value, match, id=f"{prefix}{flag}-{value}-{match}")


@pytest.mark.parametrize("command, flag, value, match", [
    _flag_case("--horizon", "nan", "key 'horizon': value must be finite"),
    _flag_case("--horizon", "inf", "key 'horizon': value must be finite"),
    _flag_case("--horizon", "0", "horizon must be positive, got 0.0"),
    _flag_case("--census-dt", "nan", "key 'census_dt': value must be finite"),
    _flag_case("--census-dt", "-1", "census_dt must be positive, got -1.0"),
    _flag_case("--census-dt", "0", "census_dt must be positive, got 0.0"),
    _flag_case("--x0", "-1", "x0 must be positive"),
    _flag_case("--x0", "inf", "key 'x0': value must be finite"),
    _flag_case("--trunc-M", "nan", "key 'truncation_M': value must be finite"),
    _flag_case("--trunc-M", "0", "truncation_M must be positive, got 0.0"),
    _flag_case("--trunc-M", "-1", "truncation_M must be positive, got -1.0"),
    _flag_case("--replicates", "0", "replicates must be at least 1, got 0"),
    _flag_case("--replicates", "-2", "replicates must be at least 1, got -2"),
    _flag_case("--replicates", "1.5", "key 'replicates': expected an integer, got '1.5'"),
    _flag_case("--seed", "x", "key 'seed': expected an integer, got 'x'"),
    _flag_case("--format", "yaml", "key 'format': must be 'csv' or 'jsonl', got 'yaml'"),
    _flag_case("--set", "3,2", "bad interval set '3,2'"),
    _flag_case("--offspring", "pmf:0.2,0.9", "bad offspring 'pmf:0.2,0.9'"),
    _flag_case("--c-grid", "nan", "key 'c_grid': value must be finite, got 'nan'", "phase"),
    _flag_case("--c-grid", "-1", "drift c must be positive and finite, got -1.0", "phase"),
    _flag_case("--c-grid", "1,x", "key 'c_grid': expected comma-separated numbers", "phase"),
    _flag_case("--r-grid", "0", "branch rate r must be positive and finite, got 0.0", "phase"),
    _flag_case("--c-grid", ",", "c_grid must not be empty", "phase"),
    _flag_case("--k-max", "1", "k_max must be at least 2, got 1", "schedule"),
    _flag_case("--delta", "0", "delta must be positive, got 0.0", "schedule"),
    _flag_case("--replicates", "0", "replicates must be at least 1, got 0", "verify"),
    _flag_case("--replicates", "0", "replicates must be at least 1, got 0", "kesten"),
])
def test_bad_float_flag_exit_1(tmp_path, capsys, command, flag, value, match):
    # the flags follow the config file's reader and range rules
    out = tmp_path / "out"
    assert main([command, *SUPER, "--horizon", "1", flag, value, "--out", str(out)]) == 1
    _assert_usage_error(capsys, out, match)


@pytest.mark.parametrize("horizon", ["300", "5000"])
def test_oracle_overflow_exit_1(tmp_path, capsys, horizon):
    # e^{2mt} in second_moment_exact (t = 300) and e^{mt} in expected_count
    # (t = 5000) overflow: one error line, no traceback
    out = tmp_path / "out"
    assert main(["moments", *SUPER, "--horizon", horizon, "--out", str(out)]) == 1
    _assert_usage_error(capsys, out, "a value exceeds the floating-point range (math range error)")


def test_every_flag_dest_is_a_run_key():
    # flags are read by RunConfig field name, so a flag whose dest is not a
    # field would be dropped without a word
    keys = {f.name for f in fields(RunConfig)} | {"set", "config", "threads"}
    sub = next(a for a in _make_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for name, sp in sub.choices.items():
        for action in sp._actions:
            if not isinstance(action, argparse._HelpAction):
                assert action.dest in keys, (name, action.option_strings, action.dest)


def test_threads_flag_accepts_only_one(tmp_path, capsys):
    args = ["moments", "--c", "1", "--r", "0.6", "--offspring", "dyadic", "--horizon", "1"]
    assert main([*args, "--threads", "1", "--out", str(tmp_path / "one")]) == 0
    assert main([*args, "--threads", "2", "--out", str(tmp_path / "two")]) == 1
    assert "argument --threads: invalid choice" in capsys.readouterr().err
    assert not (tmp_path / "two").exists()


def test_unknown_command_exit_1(capsys):
    assert main(["frobnicate"]) == 1


def test_bad_config_file_exit_1(tmp_path, capsys):
    cases = [
        ("simulate", "window=3", "config line 4: unknown key 'window'"),
        ("simulate", "census_grid=nan", "config line 4: key 'census_grid': value must be finite"),
        ("simulate", "census_grid=", "census_grid must not be empty"),
        ("simulate", "census_grid=2,1", "census_grid must increase strictly, got [2.0, 1.0]"),
        ("simulate", "census_grid=5,20",  # the default horizon is 10
         "census_grid must lie within [0, horizon=10.0], got [5.0, 20.0]"),
        ("simulate", "census_grid=-1,1", "census_grid must lie within [0, horizon=10.0]"),
        ("simulate", "replicates=0", "replicates must be at least 1, got 0"),
        ("simulate", "offspring=pmf:0.2,0.9", "config line 4: bad offspring 'pmf:0.2,0.9'"),
        ("phase", "c_grid=nan", "config line 4: key 'c_grid': value must be finite"),
        ("phase", "r_grid=", "r_grid must not be empty"),
    ]
    cfgfile = tmp_path / "run.cfg"
    for i, (command, line, match) in enumerate(cases):
        cfgfile.write_text(f"c=1\nr=0.6\noffspring=dyadic\n{line}\n")
        out = tmp_path / f"out{i}"
        assert main([command, "--config", str(cfgfile), "--out", str(out)]) == 1, line
        _assert_usage_error(capsys, out, match)


def test_missing_config_file_exit_1(capsys):
    assert main(["simulate", "--config", "/no/such/file.cfg"]) == 1
    assert "cannot read config file" in capsys.readouterr().err


def test_unwritable_out_exit_1(tmp_path, capsys):
    blocker = tmp_path / "occupied"
    blocker.write_text("")
    rc = main(["moments", "--c", "1", "--r", "0.6", "--offspring", "dyadic",
               "--out", str(blocker)])
    assert rc == 1
    assert "cannot write to output directory" in capsys.readouterr().err


def test_kesten_not_supercritical_exit_1(tmp_path, capsys):
    # the experiment's ValueError is one error line, not a traceback
    out = tmp_path / "out"
    assert main(["kesten", "--c", "1", "--r", "0.3", "--offspring", "dyadic", "--out", str(out)]) == 1
    _assert_usage_error(capsys, out, "Kesten experiment requires a supercritical configuration")


def test_kesten_infeasible_horizon_writes_its_message(tmp_path):
    # a horizon beyond desk scale runs no replicate: both files say why, and
    # the report echoes the defaulted set as a feasible run does
    out = tmp_path / "out"
    rc = main(["kesten", *SUPER, "--horizon", "1000", "--replicates", "5", "--out", str(out)])
    assert rc == 2
    lines = _read(str(out / "summary.csv")).splitlines()
    assert lines[0] == "message" and len(lines) == 2
    assert "infeasible at desk scale" in lines[1]
    records = [json.loads(line) for line in _read(str(out / "report.jsonl")).splitlines()]
    assert len(records) == 1 and records[0]["message"] == next(csv.reader([lines[1]]))[0]
    assert records[0]["config"]["sets"] == ["1,inf"] and records[0]["passed"] is False
    assert not (out / "censuses.csv").exists()


def test_contract_failure_exit_2(tmp_path):
    # horizon 1 leaves the supercritical cell without a meaningful survival
    # test, so the phase contract fails without any statistical noise
    rc = main(["phase", *SUPER, "--horizon", "1", "--replicates", "10",
               "--seed", "5", "--out", str(tmp_path)])
    assert rc == 2
    cells = [json.loads(line) for line in _read(str(tmp_path / "report.jsonl")).splitlines()]
    assert cells[0]["feasible"] is False


def test_bbm_seed_env_must_be_integer(monkeypatch, capsys):
    monkeypatch.setenv("BBM_SEED", "soon")
    assert main(["moments", "--c", "1", "--r", "0.6", "--offspring", "dyadic"]) == 1
    assert "BBM_SEED must be an integer" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# subcommand outputs
# ---------------------------------------------------------------------------


def test_simulate_files_and_headers(tmp_path):
    out = tmp_path / "run"
    rc = main(["simulate", *SUPER, "--horizon", "2", "--census-dt", "1",
               "--replicates", "5", "--seed", "42",
               "--set", "0,1", "--set", "1,inf", "--out", str(out)])
    assert rc == 0
    cen = _read(str(out / "censuses.csv")).splitlines()
    assert cen[0] == "replicate,time,alive,absorbed,count_B1,count_B2,D,D_trunc"
    assert len(cen) == 1 + 5 * 2  # header + replicates x census times
    summ = _read(str(out / "summary.csv")).splitlines()
    assert summ[0] == ("time,n,surviving_fraction,mean_alive,se_alive,"
                       "mean_D,se_D,mean_D_trunc,mean_absorbed")
    echo = json.loads(_read(str(out / "config.json")))
    assert set(echo) == set(RunConfig.__dataclass_fields__)  # full self-describing echo
    records = [json.loads(line) for line in _read(str(out / "report.jsonl")).splitlines()]
    assert len(records) == 5
    for rec in records:
        assert "config" not in rec
        assert rec["status"] in ("ok", "population_cap_exceeded")
        assert rec["counters"]["created"] == (
            rec["counters"]["alive_final"] + rec["counters"]["absorbed"]
            + rec["counters"]["died_childless"] + rec["counters"]["branched"])


def test_simulate_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "rerun"
    args = ["simulate", *SUPER, "--horizon", "2", "--census-dt", "1",
            "--replicates", "5", "--seed", "42", "--set", "0,1", "--out", str(out)]
    assert main(args) == 0
    first = {name: _read(str(out / name))
             for name in ("censuses.csv", "summary.csv", "report.jsonl", "config.json")}
    assert main(args) == 0
    for name, text in first.items():
        assert _read(str(out / name)) == text


def _file_digests(out) -> dict[str, str]:
    """sha256 of each file simulate wrote into out, the path of out masked."""
    return {name: hashlib.sha256(_read(str(out / name)).replace(str(out), "<out>").encode()).hexdigest()
            for name in sorted(os.listdir(out))}


# Every file of two simulate runs, recorded before cohort phases of at most
# _FEW particles ran on Python floats: the small-pop benchmark model at 300
# replicates, and a law with p0 > 0 with a window and two counting sets.
SIMULATE_GOLDEN = {
    "small_pop": (["--c", "1.0", "--r", "0.6", "--offspring", "dyadic", "--threads", "1", "--x0", "1",
                   "--horizon", "1", "--census-dt", "1", "--replicates", "300", "--seed", "1701"],
                  {"censuses.csv": "278a9382acdf70ba1540a9a53a3c62229617bf467b95409770a4ac738460ae47",
                   "config.json": "2fafb4db40255982521f9fc5b151a0bb60d2ba60f269f598dab04d92f8120b6c",
                   "report.jsonl": "4e69cf74018594473873bdac4a390a87cafda50b38cbd5614c54d7d40e461e84",
                   "summary.csv": "49505da19b881150358300142b91b056dd3d57bf44ab3901d027fc1f1d02c525"}),
    "p0_window_sets": (["--c", "1", "--r", "1.5", "--offspring", "pmf:0.2,0.1,0.4,0.3", "--x0", "1",
                        "--horizon", "3", "--census-dt", "1", "--trunc-M", "1.3", "--set", "0,1",
                        "--set", "1,inf", "--replicates", "40", "--seed", "12"],
                       {"censuses.csv": "4265f8cad1c9754232dc0262cf38c109c53c67baf780c771679f0a5e442108c5",
                        "config.json": "fb410dc3559eb12edb536e334149bed6672087addbb257493e66443c650a3af9",
                        "report.jsonl": "ab5743d521b9e3485ea4958c71a815a35bed7e4ad26167b3b15813afc2e16b55",
                        "summary.csv": "a8a3fb7e994a3d373f1a6d3eb3b2e53fb92c851bcb22afe0f892d4dc3d37e4f6"}),
}


@pytest.mark.parametrize("name", sorted(SIMULATE_GOLDEN))
def test_simulate_files_golden(tmp_path, name):
    args, digests = SIMULATE_GOLDEN[name]
    out = tmp_path / name
    assert main(["simulate", *args, "--out", str(out)]) == 0
    assert _file_digests(out) == digests


def test_simulate_frees_each_replicate_before_the_next_runs(tmp_path, monkeypatch):
    # Nothing of a replicate's result, its censuses or their checkpoint trees,
    # may still be alive while simulate runs the next replicate.
    refs, live = [], []
    run = bbma.cli.run_replicate

    def traced(*args, **kw):
        live.append(sum(ref() is not None for ref in refs))
        res = run(*args, **kw)
        refs.extend(weakref.ref(obj) for cen in res.censuses for obj in (cen, cen.chk_pos))
        return res

    monkeypatch.setattr(bbma.cli, "run_replicate", traced)
    assert main(["simulate", *SUPER, "--horizon", "3", "--census-dt", "1", "--trunc-M", "2",
                 "--replicates", "5", "--seed", "4", "--out", str(tmp_path / "run")]) == 0
    assert len(live) == 5 and len(refs) == 5 * 2 * 3
    assert live == [0] * 5


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.stream_picked
def test_simulate_peak_is_one_replicates_peak(tmp_path):
    # Memory guard: simulate holds one replicate's data at a time, so its
    # traced peak stays within the largest replicate's own traced peak plus
    # half of that replicate's last checkpoint tree.  Seed 0 was picked as the
    # first seed whose two largest replicates (by last-tree rows) are adjacent
    # and within a factor two, before any peak was measured: replicates 1 and 2.
    params = ModelParams(1.0, 1.5, OffspringLaw.dyadic())
    grid = [2.5, 5.0, 7.5, 10.0]
    trees = []

    def one(i):
        res = bbma.run_replicate(params, 2.0, 10.0, grid, bbma.spawn_rng_stream(0, i),
                                 checkpoint_chains=True)
        truncated_martingale(res.censuses, params, 2.0, 2.0)
        last = res.censuses[-1]
        trees.append(sum(a.nbytes for a in (last.chk_time, last.chk_pos, last.chk_prev,
                                            last.chk_block)))

    peaks = [_traced_peak(functools.partial(one, i)) for i in range(4)]
    big = int(np.argmax(trees))
    assert sorted(np.argsort(trees)[-2:]) == [1, 2] and big == int(np.argmax(peaks))
    out = str(tmp_path / "run")
    peak = _traced_peak(lambda: main(["simulate", *SUPER, "--x0", "2", "--horizon", "10",
                                      "--census-dt", "2.5", "--trunc-M", "2", "--replicates", "4",
                                      "--seed", "0", "--out", out]))
    assert peak < peaks[big] + trees[big] // 2


@pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
def test_simulate_far_from_origin_has_finite_D(tmp_path):
    # h(800) overflows; D and mean_D take the ratio form instead of nan
    out = tmp_path / "far"
    assert main(["simulate", *SUPER, "--x0", "800", "--horizon", "2", "--census-dt", "1",
                 "--replicates", "5", "--trunc-M", "1000", "--out", str(out)]) == 0
    with open(out / "summary.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 2
    for row in rows:
        assert 0 < float(row["mean_D"]) < 10 and float(row["mean_D_trunc"]) == float(row["mean_D"])


def test_phase_overflowing_horizon_is_trimmed(tmp_path):
    # e^{gt} overflows at r = 40, horizon 1000: the cell runs to the desk
    # horizon (about 0.21) instead of stopping with an error
    out = tmp_path / "ph40"
    assert main(["phase", *SUPER, "--c-grid", "1", "--r-grid", "40", "--x0", "1",
                 "--horizon", "1000", "--replicates", "2", "--out", str(out)]) == 0
    horizon = float(_read(str(out / "summary.csv")).splitlines()[1].split(",")[3])
    assert 0.2 < horizon < 0.25


def test_jsonl_format_skips_censuses(tmp_path):
    out = tmp_path / "nojson"
    rc = main(["simulate", *SUPER, "--horizon", "2", "--replicates", "3",
               "--format", "jsonl", "--out", str(out)])
    assert rc == 0
    assert not (out / "censuses.csv").exists()
    assert (out / "summary.csv").exists() and (out / "report.jsonl").exists()


def test_bbm_seed_env_overrides_flag(tmp_path, monkeypatch):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["simulate", *SUPER, "--horizon", "2", "--replicates", "5"]
    monkeypatch.setenv("BBM_SEED", "42")
    assert main([*args, "--seed", "0", "--out", str(a)]) == 0
    monkeypatch.delenv("BBM_SEED")
    assert main([*args, "--seed", "42", "--out", str(b)]) == 0
    assert _read(str(a / "censuses.csv")) == _read(str(b / "censuses.csv"))
    assert _read(str(a / "summary.csv")) == _read(str(b / "summary.csv"))


def test_flags_override_config_file(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("c=1\nr=0.6\noffspring=dyadic\nhorizon=1\nseed=1\n")
    out = tmp_path / "m"
    rc = main(["moments", "--config", str(cfgfile), "--seed", "7", "--out", str(out)])
    assert rc == 0
    echo = json.loads(_read(str(out / "config.json")))
    assert echo["seed"] == 7
    assert echo["horizon"] == 1.0


def test_moments_emits_exact_oracle_values(tmp_path):
    out = tmp_path / "mom"
    rc = main(["moments", "--c", "1", "--r", "0.6", "--offspring", "dyadic",
               "--horizon", "1", "--out", str(out)])
    assert rc == 0
    rows = dict(line.split(",") for line in _read(str(out / "summary.csv")).splitlines()[1:])
    params = ModelParams(c=1.0, r=0.6, offspring=OffspringLaw.dyadic())
    from bbma.model import IntervalSet
    want = expected_count(1.0, 1.0, IntervalSet.positive_axis(), params)
    assert float(rows["expected_count"]) == want  # %.17g is lossless
    assert float(rows["expected_count"]) == pytest.approx(0.6047575833832470, rel=1e-10)
    assert abs(float(rows["mean_one_check"]) - 1.0) <= 1e-8
    assert rows["regime"] == "supercritical"


def test_schedule_outputs_frozen_first_row(tmp_path):
    out = tmp_path / "sch"
    rc = main(["schedule", "--c", "1", "--r", "1.5", "--offspring", "dyadic",
               "--k-max", "10", "--out", str(out)])
    assert rc == 0
    lines = _read(str(out / "summary.csv")).splitlines()
    assert lines[0] == "k,t_k,s_k,M_k,t3_partial_sum"
    assert len(lines) == 1 + 9
    k, t, s, M, _ = lines[1].split(",")
    assert (int(k), float(t), float(s), float(M)) == (
        2, 0.25643596187264656, 0.23083509858308343, 0.6931471805599453)
    rec = json.loads(_read(str(out / "report.jsonl")))
    assert rec["gap_turnover_k"] >= 2


def test_verify_command_passes_and_reports_suites(tmp_path):
    out = tmp_path / "ver"
    rc = main(["verify", *SUPER, "--replicates", "20000", "--seed", "5",
               "--out", str(out)])
    assert rc == 0
    lines = _read(str(out / "summary.csv")).splitlines()
    assert lines[0] == "suite,ok,pvalue,statistic,n"
    suites = {line.split(",")[0]: line.split(",")[1] for line in lines[1:]}
    assert suites == {"hitting_time_ks": "true", "killed_position_ks": "true",
                      "branching_stats": "true"}


def test_kesten_command_matches_direct_experiment(tmp_path):
    out = tmp_path / "kes"
    rc = main(["kesten", *SUPER, "--horizon", "6", "--replicates", "40",
               "--seed", "13", "--set", "0,1", "--out", str(out)])
    params = ModelParams(c=1.0, r=1.5, offspring=OffspringLaw.dyadic())
    rep = experiment_kesten(params, 1.0, ["0,1"], 6.0, 40, 13)
    assert rc == (0 if rep.passed else 2)
    lines = _read(str(out / "summary.csv")).splitlines()
    assert lines[0] == ("time,set,surviving_fraction,mean_abs_gap,se_abs_gap,"
                        "n_survivors,median_abs_gap,mean_R_minus_pred_all,"
                        "se_R_minus_pred_all")
    # emitted aggregates must match the library report bit-for-bit; the set
    # column "0,1" itself contains a comma, so parse with the csv module
    final = next(csv.reader([lines[-1]]))
    assert final[1] == "0,1"
    agg = rep.aggregates["per_census"][-1]["sets"]["0,1"]
    assert float(final[3]) == agg["mean_abs_gap"]["value"]
    assert float(final[6]) == agg["median_abs_gap"]["value"]
    cen = _read(str(out / "censuses.csv")).splitlines()
    assert cen[0] == "replicate,time,alive,absorbed,count_B1,D,D_trunc"


def test_kesten_command_writes_a_capped_replicates_censuses(tmp_path, monkeypatch):
    # a replicate stopped at the cap writes the censuses it reached, and the
    # run fails its contract
    monkeypatch.setattr(experiments, "run_replicate",
                        functools.partial(experiments.run_replicate, population_cap=100))
    out = tmp_path / "k"
    rc = main(["kesten", *SUPER, "--horizon", "4", "--replicates", "12", "--seed", "3",
               "--out", str(out)])
    assert rc == 2
    records = [json.loads(line) for line in _read(str(out / "report.jsonl")).splitlines()]
    rows = _read(str(out / "censuses.csv")).splitlines()[1:]
    assert any(rec["status"] == "population_cap_exceeded" for rec in records)
    assert len(rows) == sum(len(rec["alive"]) for rec in records) < 4 * len(records)


def test_phase_command_grid_flags(tmp_path):
    out = tmp_path / "ph"
    rc = main(["phase", *SUPER, "--c-grid", "1", "--r-grid", "0.3,1.5",
               "--horizon", "40", "--replicates", "25", "--seed", "17",
               "--out", str(out)])
    assert rc == 0
    lines = _read(str(out / "summary.csv")).splitlines()
    assert lines[0] == "c,r,regime,horizon,n,survived,frequency,binomial_p,ok"
    assert len(lines) == 3
    regimes = [line.split(",")[2] for line in lines[1:]]
    assert regimes == ["subcritical", "L2-supercritical"]
    cells = [json.loads(line) for line in _read(str(out / "report.jsonl")).splitlines()]
    assert [(cell["certified"] > 0, cell["undecided"]) for cell in cells] == [(False, 0), (True, 0)]


def test_phase_grids_stand_in_for_missing_c_and_r(tmp_path):
    """phase with grids alone takes c and r from their first values; the
    cells, and so summary.csv and report.jsonl, are those of a run that
    passes --c and --r beside the same grids."""
    grids = ["--c-grid", "1", "--r-grid", "0.3,1.5", "--horizon", "40", "--replicates", "25", "--seed", "17"]
    assert main(["phase", *SUPER, *grids, "--out", str(tmp_path / "both")]) == 0
    assert main(["phase", "--offspring", "dyadic", *grids, "--out", str(tmp_path / "grids")]) == 0
    for name in ("summary.csv", "report.jsonl"):
        assert _read(str(tmp_path / "grids" / name)) == _read(str(tmp_path / "both" / name))
    config = json.loads(_read(str(tmp_path / "grids" / "config.json")))
    assert (config["c"], config["r"]) == (1.0, 0.3)


# ---------------------------------------------------------------------------
# entry point and imports, in a fresh interpreter
# ---------------------------------------------------------------------------


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    src = os.path.dirname(os.path.dirname(os.path.abspath(bbma.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=300)


def test_python_m_bbma_runs_without_warning(tmp_path):
    proc = _fresh_python("-m", "bbma", "schedule", *SUPER, "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert (tmp_path / "summary.csv").is_file()


def test_bench_commands_leave_scipy_stats_and_integrate_unimported(tmp_path):
    # simulate, phase (one cell per regime) and moments are what the
    # benchmark runs; none of them may pay for scipy.stats or scipy.integrate.
    script = f"""
import sys
import bbma
from bbma.cli import main
out = {str(tmp_path)!r}
model = ["--c", "1", "--r", "1.5", "--offspring", "dyadic"]
codes = [
    main(["simulate", *model, "--horizon", "2", "--replicates", "3", "--trunc-M", "1.25",
          "--set", "1,inf", "--out", out + "/simulate"]),
    main(["phase", *model, "--c-grid", "1", "--r-grid", "0.3,1.5", "--horizon", "5",
          "--replicates", "3", "--out", out + "/phase"]),
    main(["moments", *model, "--horizon", "1", "--set", "1,inf", "--out", out + "/moments"]),
]
print(codes, sorted(m for m in ("scipy.stats", "scipy.integrate") if m in sys.modules))
"""
    proc = _fresh_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    codes, loaded = proc.stdout.strip().split("] ")
    assert all(c in ("0", "2") for c in codes.strip("[").split(", ")), proc.stdout
    assert loaded == "[]", proc.stdout
