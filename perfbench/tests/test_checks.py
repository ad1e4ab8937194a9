"""Each output check passes on correct input and fails on perturbed input."""
import csv
import math
import os

import pytest

import checks
import reference as ref

DYADIC = [0.0, 0.0, 1.0]


def _write(path, header, rows):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def _failing(found):
    return {c.name for c in found if not c.ok}


def small_pop(tmp_path, mean_alive=None, mean_D=1.0, extinct_D=0.0):
    out = str(tmp_path / "small")
    mean = ref.expected_count(1.0, 1.0, 0.0, 1.0, 0.6, DYADIC)
    _write(os.path.join(out, "summary.csv"),
           ["time", "n", "surviving_fraction", "mean_alive", "se_alive", "mean_D", "se_D",
            "mean_D_trunc", "mean_absorbed"],
           [[1.0, 1000, 0.4, mean if mean_alive is None else mean_alive, 0.01, mean_D, 0.02, mean_D, 0.9]])
    _write(os.path.join(out, "censuses.csv"),
           ["replicate", "time", "alive", "absorbed", "D", "D_trunc"],
           [[0, 1.0, 0, 1, extinct_D, 0.0], [1, 1.0, 2, 0, 1.7, 1.7]])
    return checks.check_small_pop(out, 1.0, 1.0, 1.0, 0.6, DYADIC)


def test_small_pop_checks(tmp_path):
    assert _failing(small_pop(tmp_path)) == set()
    assert _failing(small_pop(tmp_path, mean_D=1.0 + 6 * 0.02)) == {"mean_D"}
    mean = ref.expected_count(1.0, 1.0, 0.0, 1.0, 0.6, DYADIC)
    assert _failing(small_pop(tmp_path, mean_alive=mean - 6 * 0.01)) == {"mean_alive"}
    assert _failing(small_pop(tmp_path, extinct_D=0.3)) == {"extinct_D_zero"}


def big_cohort(tmp_path, shift=0.0, freq=0.22, d_trunc=0.5, count=3):
    out = str(tmp_path / "big")
    _write(os.path.join(out, "summary.csv"),
           ["time", "n", "surviving_fraction", "mean_alive", "se_alive", "mean_D", "se_D",
            "mean_D_trunc", "mean_absorbed"],
           [[7.0, 100, 0.25, 80.0, 20.0, 0.9, 0.2, 0.6, 70.0],
            [14.0, 100, freq, 4e4, 1e4, 1.0 + shift, 0.2, 0.6, 3e4]])
    _write(os.path.join(out, "censuses.csv"),
           ["replicate", "time", "alive", "absorbed", "count_B1", "D", "D_trunc"],
           [[0, 7.0, 5, 2, count, 1.25, d_trunc], [1, 14.0, 0, 9, 0, 0.0, 0.0]])
    return checks.check_big_cohort(out, 1.0, 1.0, 1.5, DYADIC)


def test_big_cohort_checks(tmp_path, monkeypatch):
    assert _failing(big_cohort(tmp_path)) == set()
    assert _failing(big_cohort(tmp_path, shift=6 * 0.2)) == {"mean_D@t=14.0"}
    assert _failing(big_cohort(tmp_path, d_trunc=1.3)) == {"D_trunc_le_D"}
    assert _failing(big_cohort(tmp_path, count=6)) == {"count_le_alive"}
    assert _failing(big_cohort(tmp_path, freq=0.0)) == {"survival_vs_q"}
    # a wrong q (too small) makes the observed survival look impossible
    monkeypatch.setattr(ref, "extinction_probability", lambda *a, **k: 0.3)
    assert _failing(big_cohort(tmp_path)) == {"survival_vs_q"}


def phase(tmp_path, sub_label="subcritical", sub_survived=0, super_freq=0.25):
    out = str(tmp_path / "phase")
    _write(os.path.join(out, "summary.csv"),
           ["c", "r", "regime", "horizon", "n", "survived", "frequency", "binomial_p", "ok"],
           [[1.0, 0.3, sub_label, 100.0, 100, sub_survived, sub_survived / 100, math.nan, "true"],
            [1.0, 1.5, "L2-supercritical", 14.8, 100, int(super_freq * 100), super_freq, 1e-50, "true"]])
    return checks.check_phase(out, 1.0, DYADIC)


def test_phase_checks(tmp_path):
    assert _failing(phase(tmp_path)) == set()
    assert _failing(phase(tmp_path, sub_label="supercritical")) == {"regime@r=0.3"}
    assert _failing(phase(tmp_path, sub_survived=1)) == {"extinct@r=0.3"}
    assert _failing(phase(tmp_path, super_freq=0.0)) == {"survival_vs_q"}


def moments(tmp_path, x0, t, survival=1.0, count=1.0, mean_one=1.0, fact=1.0):
    """Write a moments summary from the references, scaled by the factors given."""
    out = str(tmp_path / "moments")
    mean = math.exp(0.6 * t) * ref.survival(x0, t, 1.0)
    second = mean + fact * ref.factorial_moment_pure(t, 0.6, DYADIC)
    _write(os.path.join(out, "summary.csv"), ["quantity", "value"],
           [["expected_count", repr(count * ref.expected_count(x0, t, 1.0, 1.0, 0.6, DYADIC))],
            ["second_moment_exact", repr(second)],
            ["survival_probability", repr(survival * ref.survival(x0, t, 1.0))],
            ["mean_one_check", repr(mean_one)],
            ["regime", "supercritical"]])
    return checks.check_moments(out, x0, t, 1.0, 1.0, 0.6, DYADIC)


def test_moments_checks_short_horizon(tmp_path):
    found = moments(tmp_path, 1.0, 1e-6)
    assert "factorial_moment_exact" in {c.name for c in found}
    assert _failing(found) == set()
    # the size of the miss second_moment_exact makes at t = 1e-6
    assert _failing(moments(tmp_path, 1.0, 1e-6, fact=1 - 0.0135)) == {"factorial_moment_exact"}
    assert _failing(moments(tmp_path, 1.0, 1e-6, survival=1 + 1e-7)) == {"survival"}
    assert _failing(moments(tmp_path, 1.0, 1e-6, count=1 + 1e-7)) == {"expected_count_set"}
    assert _failing(moments(tmp_path, 1.0, 1e-6, mean_one=1 + 1e-7)) == {"mean_one"}


def test_moments_checks_long_horizon(tmp_path):
    found = moments(tmp_path, 1.0, 5.0, fact=0.5)
    assert "factorial_moment_exact" not in {c.name for c in found}
    assert _failing(found) == set()
    assert _failing(moments(tmp_path, 1.0, 5.0, fact=1.01)) == {"factorial_moment_bounds"}
    # below (E N)^2 - E N, the Jensen floor
    assert _failing(moments(tmp_path, 1.0, 5.0, fact=-0.01)) == {"factorial_moment_bounds"}
