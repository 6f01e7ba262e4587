"""Scenario validation and the command-line entry points."""

import json
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import rrshift.parallel
import rrshift.shift
import rrshift.verify
from rrshift import (ScenarioError, bundled_scenario, compare_routes, load_scenario,
                     parallel_map, run_suite, scenario_from_dict)
from rrshift.cli import main

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
BUNDLED = ("amplitude_shift", "collinear", "convergence", "energy", "oblique",
           "pulse_single", "rest_pulse", "spatial", "weak")

BASE = {
    "name": "unit",
    "mass": 1.0,
    "charge": 0.3,
    "p_final": [0.05, 0.0, 0.6],
    "potential": {"axis": "time", "v_past": [0.0, 0.02, 0.0, 0.01],
                  "x1": 2.0, "x2": 1.0},
}


def write_scenario(tmp_path, extra=None, name="sc.json"):
    data = dict(BASE)
    if extra:
        data.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# -------------------------------------------------------------- validation


def test_defaults_filled_in():
    sc = scenario_from_dict(BASE)
    assert sc.tol == 1e-10
    assert sc.residual_threshold == 1e-4
    assert (sc.n_polar, sc.n_azimuth, sc.epsrel) == (64, 128, 1e-11)
    assert sc.hbars == (0.1, 0.05, 0.025)
    assert sc.alpha_c == pytest.approx(0.3**2 / (4 * np.pi))


def test_missing_keys_all_named():
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict({"charge": 0.3})
    text = str(err.value)
    for key in ("mass", "p_final", "potential"):
        assert key in text
    assert len(err.value.problems) >= 3


def test_unknown_keys_rejected(tmp_path, capsys):
    with pytest.raises(ScenarioError, match="unknown key"):
        scenario_from_dict({**BASE, "colour": 1})
    # n_time is no scenario key (route c' takes its time nodes from epsrel): it fails loudly
    with pytest.raises(ScenarioError, match="unknown key 'n_time'"):
        scenario_from_dict({**BASE, "n_time": 320})
    assert main(["shift", "--scenario", write_scenario(tmp_path, {"n_time": 320})]) == 2
    assert "unknown key 'n_time'" in capsys.readouterr().err
    bad_pot = dict(BASE["potential"], wobble=2)
    with pytest.raises(ScenarioError, match="potential.wobble"):
        scenario_from_dict({**BASE, "potential": bad_pot})


def test_threshold_must_clear_tolerance():
    with pytest.raises(ScenarioError, match="residual_threshold"):
        scenario_from_dict({**BASE, "tol": 1e-5, "residual_threshold": 1e-5})


def test_speed_cap_enforced():
    sc = scenario_from_dict({**BASE, "p_final": [0.0, 0.0, 5.0]})
    with pytest.raises(ScenarioError, match="speed"):
        sc.build()


def test_load_scenario_sources(tmp_path):
    path = write_scenario(tmp_path)
    assert load_scenario(path).name == "unit"
    assert load_scenario(json.dumps(BASE)).name == "unit"
    assert load_scenario(dict(BASE)).name == "unit"
    with pytest.raises(ScenarioError, match="not found"):
        load_scenario(str(tmp_path / "missing.json"))
    # a file that exists but holds no JSON is named as such, not as a missing path
    for name, text in (("words.json", "not json at all"), ("empty.json", "")):
        bad = tmp_path / name
        bad.write_text(text)
        with pytest.raises(ScenarioError, match=rf"scenario file \S*{name} is not valid JSON"):
            load_scenario(str(bad))
    # a path that exists but cannot be read, such as a directory, is named with its error
    with pytest.raises(ScenarioError, match=r"cannot read scenario file \S*scenarios: .*directory"):
        load_scenario(str(SCENARIO_DIR))


def test_bundled_scenarios_match_repo_files():
    """The package data and the repo-root scenarios/ directory are one source."""
    assert sorted(p.stem for p in SCENARIO_DIR.glob("*.json")) == list(BUNDLED)
    for name in BUNDLED:
        sc = bundled_scenario(name)
        assert sc.raw == json.loads((SCENARIO_DIR / f"{name}.json").read_text())
        assert sc.name == name


def test_bundled_scenario_overrides():
    sc = bundled_scenario("weak", tol=1e-11, residual_threshold=1e-5)
    assert (sc.tol, sc.residual_threshold) == (1e-11, 1e-5)


def test_bundled_scenario_unknown_name():
    with pytest.raises(ScenarioError, match="unknown bundled scenario 'nope'"):
        bundled_scenario("nope")


# ---------------------------------------------------------------- shift cli


def test_shift_passes_and_writes_report(tmp_path):
    scenario = write_scenario(tmp_path)
    out = tmp_path / "report.json"
    code = main(["shift", "--scenario", scenario, "--routes", "direct,green",
                 "--serial", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["pass"] is True
    # serial runs carry no timing noise
    assert all(v is None for v in report["timings"].values())
    assert report["max_residual"] < 1e-4
    # every route key is present; the ones not run are null markers
    assert set(report["shifts"]) == {"direct", "green", "quantum",
                                     "quantum_quadrature"}
    assert len(report["shifts"]["direct"]) == 3
    assert report["shifts"]["quantum"] is None


def test_shift_unreachable_threshold_exits_one(tmp_path, monkeypatch):
    """A real failed comparison: the direct route is off by 1e-6 relative."""
    true_direct = rrshift.shift.classical_shift_direct
    monkeypatch.setattr(rrshift.shift, "classical_shift_direct",
                        lambda traj, alpha_c: true_direct(traj, alpha_c) * (1 + 1e-6))
    scenario = write_scenario(tmp_path, {"tol": 1e-11, "residual_threshold": 1e-10})
    out = tmp_path / "report.json"
    code = main(["shift", "--scenario", scenario, "--routes", "direct,green",
                 "--serial", "--out", str(out)])
    assert code == 1
    assert json.loads(out.read_text())["pass"] is False


def test_shift_missing_scenario_exits_two(tmp_path):
    assert main(["shift", "--scenario", str(tmp_path / "nope.json")]) == 2


def test_shift_unknown_route_exits_two(tmp_path):
    scenario = write_scenario(tmp_path)
    assert main(["shift", "--scenario", scenario, "--routes", "direct,warp"]) == 2


@pytest.mark.parametrize("hbars", ["nan,0.05", "inf,0.1", "1e308,0.1"])
def test_convergence_refuses_a_bad_hbar(hbars, capsys):
    """A NaN, an infinite and an overflowing hbar each exit 2 with a message
    that names hbar, and numpy warns of nothing on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["convergence", "--scenario", str(SCENARIO_DIR / "convergence.json"),
                     "--hbars", hbars])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("rrshift: error:") and "hbar" in err


def test_shift_serial_is_byte_identical(tmp_path):
    scenario = write_scenario(tmp_path)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert main(["shift", "--scenario", scenario, "--serial",
                     "--routes", "direct,green,quantum", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def _stub_criteria(monkeypatch, calls):
    def stub(full):
        calls.append(full)
        return rrshift.verify.CriterionResult(0, "stub", True, 0.0, 1.0)
    monkeypatch.setattr(rrshift.verify, "_CRITERIA", dict.fromkeys(range(1, 10), stub))


def test_thread_cap_validation(monkeypatch):
    """A bad RRSHIFT_THREADS stops `verify` before any criterion runs; a
    good one maps in input order."""
    calls = []
    _stub_criteria(monkeypatch, calls)
    monkeypatch.setenv("RRSHIFT_THREADS", "abc")
    assert main(["verify"]) == 2
    assert calls == []
    monkeypatch.setenv("RRSHIFT_THREADS", "2")
    # later items finish first
    assert parallel_map(lambda i: time.sleep(0.01 * (4 - i)) or i * i, range(5)) \
        == [0, 1, 4, 9, 16]


def test_only_the_suite_opens_a_pool(tmp_path, monkeypatch):
    """The criteria of `verify` are the one fan-out: routes, spectrum
    directions and criterion 8's windows run in order inside it, so the live
    workers stay within RRSHIFT_THREADS."""
    opened = []

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, max_workers=None):
            opened.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(rrshift.parallel, "ThreadPoolExecutor", CountingPool)
    monkeypatch.setenv("RRSHIFT_THREADS", "2")

    sc = bundled_scenario("weak")
    compare_routes(sc.build(), sc.alpha_c, routes=("direct", "green"))
    assert opened == []

    dirs = tmp_path / "dirs.json"
    dirs.write_text(json.dumps({"k": [0.5], "directions": [[0, 0, 1], [0, 1, 0]]}))
    assert main(["spectrum", "--scenario", write_scenario(tmp_path),
                 "--directions", str(dirs), "--out", str(tmp_path / "spec.csv")]) == 0
    assert opened == []

    monkeypatch.setattr(rrshift.verify, "shift_from_amplitudes",
                        lambda traj, basis, window, charge, **kw: np.zeros(3))
    rrshift.verify._criterion_8(True)
    assert opened == []

    calls = []
    _stub_criteria(monkeypatch, calls)
    assert run_suite("fast").passed
    assert calls == [False] * len(rrshift.verify.FAST_IDS)
    assert len(opened) == 1 and opened[0] <= 2


# ------------------------------------------------------------- csv outputs


def test_spectrum_csv_format(tmp_path):
    scenario = write_scenario(tmp_path)
    dirs = tmp_path / "dirs.json"
    dirs.write_text(json.dumps({"k": [0.5, 1.0],
                                "directions": [[0, 0, 1], [0, 1, 0]]}))
    out = tmp_path / "spec.csv"
    code = main(["spectrum", "--scenario", scenario, "--directions", str(dirs),
                 "--serial", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ("k,n_x,n_y,n_z,re_a0,im_a0,re_ax,im_ax,"
                        "re_ay,im_ay,re_az,im_az,d2e_dk_domega")
    assert len(lines) == 1 + 4  # 2 directions x 2 wave numbers
    cell = lines[1].split(",")[4]
    assert "e" in cell and len(cell.split("e")[0].lstrip("-").replace(".", "")) == 17
    for line in lines[1:]:
        assert all(np.isfinite(float(c)) for c in line.split(","))


def test_spectrum_rejects_bad_directions(tmp_path, capsys):
    """An empty k list, an infinite k, a boolean k and a NaN direction
    component are input errors (exit 2) that name the key."""
    scenario = write_scenario(tmp_path)
    dirs = tmp_path / "dirs.json"
    for grid, problem in (({"k": [], "directions": [[0, 0, 0]]}, "'k' must be"),
                          ({"k": [float("inf")], "directions": [[0, 0, 1]]}, "'k' must be"),
                          ({"k": [True], "directions": [[0, 0, 1]]}, "'k' must be"),
                          ({"k": [1.0], "directions": [[0, float("nan"), 1]]},
                           "'directions' must be")):
        dirs.write_text(json.dumps(grid))  # Infinity and NaN as Python's json writes them
        assert main(["spectrum", "--scenario", scenario,
                     "--directions", str(dirs)]) == 2
        assert problem in capsys.readouterr().err


def test_spectrum_refuses_a_panel_count_past_the_limit(tmp_path, capsys):
    """k = 1e300 asks for about 1e300 time panels: an input error that names
    the count, raised before any array is allocated."""
    dirs = tmp_path / "dirs.json"
    dirs.write_text(json.dumps({"k": [1e300], "directions": [[0, 0, 1]]}))
    assert main(["spectrum", "--scenario", write_scenario(tmp_path),
                 "--directions", str(dirs)]) == 2
    err = capsys.readouterr().err
    assert "quadrature panels, above the limit of 1024" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["force-profile", "jacobi-dump"])
@pytest.mark.parametrize("num", ["0", "-3", "2.5"])
def test_sample_count_must_be_a_positive_integer(tmp_path, capsys, command, num):
    out = tmp_path / "never.csv"
    assert main([command, "--scenario", write_scenario(tmp_path), "--num", num,
                 "--out", str(out)]) == 2
    assert "--num: must be a positive integer" in capsys.readouterr().err
    assert not out.exists()


def test_force_profile_csv(tmp_path):
    scenario = write_scenario(tmp_path)
    out = tmp_path / "force.csv"
    assert main(["force-profile", "--scenario", scenario, "--num", "50",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,f_x,f_y,f_z,v_x,v_y,v_z,gamma"
    assert len(lines) == 51


def test_jacobi_dump_csv(tmp_path):
    scenario = write_scenario(tmp_path)
    out = tmp_path / "jacobi.csv"
    assert main(["jacobi-dump", "--scenario", scenario, "--num", "40",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "t"
    assert len(header) == 1 + 9 + 9  # position and momentum responses per kick
    assert len(lines) == 41


# ------------------------------------------------------------------ verify


def test_verify_unknown_suite_exits_two():
    assert main(["verify", "--suite", "leisurely"]) == 2


def test_verify_serial_stdout_has_no_runtime_stamp(monkeypatch, capsys, tmp_path):
    """--serial prints no runtime stamp and nulls the runtime in --out; a
    threaded run prints the stamp.  The suite itself is not run."""
    from rrshift.verify import CriterionResult, SuiteReport

    def fixed_suite(suite="fast", serial=False):
        result = CriterionResult(cid=1, name="route agreement", passed=True,
                                 residual=2.5e-8, threshold=1e-4, runtime=3.8)
        return SuiteReport(suite=suite, results=[result])

    monkeypatch.setattr("rrshift.cli.run_suite", fixed_suite)
    out = tmp_path / "verify.json"
    assert main(["verify", "--serial", "--out", str(out)]) == 0
    line = "criterion 1 route agreement: PASS (residual 2.500e-08, threshold 1.0e-04)"
    assert capsys.readouterr().out == line + "\n"
    assert json.loads(out.read_text())["criteria"][0]["runtime"] is None
    assert main(["verify"]) == 0
    assert capsys.readouterr().out == line + " [3.8s]\n"


def test_main_rejects_unknown_subcommand():
    assert main(["polish"]) == 2
