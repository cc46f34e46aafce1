import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lmodecomp
from conftest import lp_game_value
from lmodecomp.cli import run

# directory holding the imported `lmodecomp` package (`src/` in a checkout)
SRC_ROOT = Path(lmodecomp.__file__).resolve().parents[1]

PENNIES = [[1.0, -1.0], [-1.0, 1.0]]


def write_spec(tmp_path, obj, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_matrix_game_converges_exit_zero(tmp_path, capsys):
    spec = write_spec(tmp_path, {"S": PENNIES})
    report_path = tmp_path / "report.json"
    code = run(["matrix-game", "--spec", spec, "--gap-threshold", "1e-6",
                "--eps", "1e-7", "--report", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["command"] == "matrix-game"
    assert report["converged"] is True
    assert abs(report["value"]) <= 1e-6
    assert min(report["gap_bound"], report["gap_exact"]) <= 1e-6
    out = capsys.readouterr().out
    assert "converged" in out


def test_missing_spec_exit_one(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["matrix-game", "--spec", str(tmp_path / "nope.json")])
    assert "cannot read spec" in str(exc.value)


def test_malformed_spec_exit_one(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"S": [[1, 2],\n [3, }')
    with pytest.raises(SystemExit) as exc:
        run(["matrix-game", "--spec", str(path)])
    assert "bad.json:2" in str(exc.value)


def test_invalid_spec_contents_exit_one(tmp_path, capsys):
    spec = write_spec(tmp_path, {"A": [[1.0, 0.0]], "D": [[1.0], [0.0]]})
    code = run(["matrix-game", "--spec", spec])
    assert code == 1
    assert "invalid spec" in capsys.readouterr().err


def test_offset_on_knapsack_side_exit_one(tmp_path, capsys):
    knapsack = {"bounds": [1], "costs": [1], "budget": 1, "outputs": [[[0.0], [1.0]]]}
    spec = write_spec(tmp_path, {"A": knapsack, "D": [[1.0, 2.0]], "q": [0.0, 1.0]})
    assert run(["matrix-game", "--spec", spec]) == 1
    assert "invalid spec: offset q needs a dense side" in capsys.readouterr().err


def test_module_entry_point_runs(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_ROOT), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "lmodecomp.cli", "matrix-game", "--spec", "missing.json"],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "cannot read spec" in proc.stderr


def test_zero_step_budget_exit_one(tmp_path, capsys):
    spec = write_spec(tmp_path, {"S": PENNIES})
    assert run(["matrix-game", "--spec", spec, "--max-steps", "0"]) == 1
    assert "invalid option: max_steps must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--eps", "nan", "eps_target must be positive"),
    ("--gap-threshold", "nan", "gap_threshold must be nonnegative"),
    ("--gap-threshold", "-1e-6", "gap_threshold must be nonnegative"),
])
def test_unreachable_stop_values_exit_one(tmp_path, capsys, flag, value, message):
    spec = write_spec(tmp_path, {"S": PENNIES})
    assert run(["matrix-game", "--spec", spec, f"{flag}={value}"]) == 1
    assert f"invalid option: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("radius, named", [(math.nan, "nan"), (math.inf, "inf")])
def test_non_finite_affine_vi_radius_exit_one(tmp_path, capsys, radius, named):
    # json reads NaN and Infinity; the spec rejects them, naming the field,
    # before any step
    spec = write_spec(tmp_path, {"S": PENNIES, "s": [0.0, 0.0], "H": {"simplex": 2},
                                 "Xi_radius": radius})
    assert run(["affine-vi", "--spec", spec]) == 1
    assert f"invalid spec: Xi_radius {named} is not finite and positive" in (
        capsys.readouterr().err)


AFFINE = {"S": PENNIES, "s": [0.0, 0.0], "H": {"simplex": 2}}
# int() would truncate these counts to bounds (2, 1), costs (1, 1), budget 2
KNAPSACK = {"bounds": [2.7, 1], "costs": [1, 1.5], "budget": 2.9,
            "outputs": [[[1.0], [2.0], [0.5]], [[0.0], [1.0]]]}
KNAPSACK_D = [[1.0, -1.0, 0.5], [0.2, 0.3, -0.4]]
BLOTTO = {"m": 2, "caps_a": [2.5, 2], "caps_d": [2, 2], "costs_a": [1, 1], "costs_d": [1, 1],
          "budget_a": 3.7, "budget_d": 3, "omega": {"rank1_seed": 1}}
# two fields of one unit per side, with explicit loss matrices
BLOTTO_LISTED = {**BLOTTO, "caps_a": [1, 1], "caps_d": [1, 1], "budget_a": 1, "budget_d": 1,
                 "omega": [[[1.0, 0.0], [0.0, 1.0]], [[0.5, 0.0], [0.0, 0.5]]]}
KNAPSACK_A = {**KNAPSACK, "bounds": [2, 1], "costs": [1, 1], "budget": 2}
EYE = [[1.0, 0.0], [0.0, 1.0]]
NASH = {"D": [EYE, KNAPSACK_A], "M": [[[[0.0] * 2] * 2, PENNIES],
                                     [(-np.asarray(PENNIES).T).tolist(), [[0.0] * 2] * 2]]}


@pytest.mark.parametrize("command, spec, offending", [
    ("affine-vi", {**AFFINE, "Xi_radius": 0}, "Xi_radius 0.0"),
    ("affine-vi", {**AFFINE, "H": {"simplex": 2.7}}, "not 2.7"),
    ("affine-vi", {**AFFINE, "H": 5}, "not 5"),
    ("affine-vi", {**AFFINE, "s": [0.0, 0.0, 0.0]}, "s has shape (3,)"),
    ("affine-vi", {**AFFINE, "H": {"simplex": 3}}, "S has shape (2, 2)"),
    ("affine-vi", [AFFINE], "not [{"),
    ("matrix-game", [PENNIES], "not [[[1.0, -1.0]"),
    ("matrix-game", {"A": KNAPSACK, "D": KNAPSACK_D}, "bounds[0] must be an integer, not 2.7"),
    ("matrix-game", {"A": {**KNAPSACK, "bounds": [2, 1]}, "D": KNAPSACK_D}, "not 1.5"),
    ("matrix-game", {"A": {**KNAPSACK, "bounds": [2, 1], "costs": [1, 1]}, "D": KNAPSACK_D},
     "budget must be an integer, not 2.9"),
    ("blotto", BLOTTO, "caps_a[0] must be an integer, not 2.5"),
    ("blotto", {**BLOTTO, "caps_a": [2, 2]}, "budget_a must be an integer, not 3.7"),
    ("blotto", {**BLOTTO, "m": 2.5}, "m must be an integer, not 2.5"),
    ("blotto", {**BLOTTO, "omega": {"rank1_seed": 1.5}}, "rank1_seed must be an integer, not 1.5"),
    ("blotto", {**BLOTTO, "m": 3, "caps_a": [2, 2]}, "must have m = 3 entries"),
    ("blotto", {**BLOTTO_LISTED, "m": 5}, "omega must list m = 5 loss matrices, not 2"),
    ("affine-vi", {**AFFINE, "H": {"simplex": True}}, "must be an integer, not True"),
    ("affine-vi", {**AFFINE, "H": {"simplex": 0}}, "must be >= 1, not 0"),
    ("matrix-game", {"A": {**KNAPSACK_A, "bounds": 7}, "D": KNAPSACK_D},
     "A: bounds must be a list, not 7"),
    ("nash", {**NASH, "D": [EYE, {**KNAPSACK_A, "costs": [1, 0]}]},
     "D[1]: costs must be positive integers"),
    ("matrix-game", {"A": {}, "D": KNAPSACK_D}, "A must be a matrix of real numbers"),
    ("nash", {**NASH, "M": None}, "M must be a list, not None"),
    ("blotto", {**BLOTTO_LISTED, "omega": 7}, "omega must be a list of m loss matrices"),
    ("blotto", {**BLOTTO_LISTED, "omega": {"rank1_seed": -1}},
     "rank1_seed must be nonnegative, not -1"),
    ("blotto", {**BLOTTO_LISTED, "caps_d": [1, -1]}, "caps_d must have m = 2 entries, each "
                                                      "nonnegative, not (1, -1)"),
    ("nash", {**NASH, "M": [[[[0.0] * 2] * 2, [[math.nan, -1.0], [-1.0, 1.0]]], NASH["M"][1]]},
     "M[0][1][0][0] must be finite, not nan"),
    ("affine-vi", {**AFFINE, "s": [0.0, math.nan]}, "s[1] must be finite, not nan"),
    # S + S^T has the eigenvalues 6 and -6: the run used to end in exit 4
    ("affine-vi", {"S": [[0, 7], [-1, 0]], "s": [0.1, 0], "H": {"simplex": 2}, "Xi_radius": 2},
     "S is not monotone: its symmetric part has the eigenvalue -3.0"),
    ("affine-vi", {"S": PENNIES, "H": {"simplex": 2}}, "invalid spec: missing field 's'"),
    # a listed loss matrix is named by the JSON key, omega, not the spec's field omegas
    ("blotto", {**BLOTTO_LISTED, "omega": [7, [[0.5, 0], [0, 0.5]]]},
     "invalid spec: omega[0] must be a matrix of real numbers (a list of equal-length rows), "
     "not 7"),
    # JSON true is not the number 1
    ("matrix-game", {"S": [[1.0, True], [-1.0, 1.0]]}, "S[0][1] must be a real number, not True"),
    ("blotto", {**BLOTTO_LISTED, "omega": [[[0.5, 0], [0, 0.5]], [[0.5, 0], [False, 0.5]]]},
     "omega[1][1][0] must be a real number, not False"),
])
def test_spec_errors_name_the_offending_value(tmp_path, capsys, command, spec, offending):
    # a malformed spec exits 1 with a message, never a traceback or a fallback
    assert run([command, "--spec", write_spec(tmp_path, spec)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and offending in err and "Traceback" not in err


@pytest.mark.parametrize("command, spec", [
    # each is a valid spec with one value replaced; these used to escape run()
    # as a TypeError traceback
    ("matrix-game", {"A": {}, "D": KNAPSACK_D}),
    ("matrix-game", {"A": {**KNAPSACK_A, "bounds": 7}, "D": KNAPSACK_D}),
    ("matrix-game", {"A": {**KNAPSACK_A, "outputs": None}, "D": KNAPSACK_D}),
    ("matrix-game", {"S": [[1.0, {}], [-1.0, 1.0]]}),
    ("blotto", {**BLOTTO_LISTED, "omega": 7}),
    ("blotto", {**BLOTTO_LISTED, "costs_a": None}),
    ("blotto", {**BLOTTO_LISTED, "caps_d": True}),
    ("affine-vi", {**AFFINE, "s": [0.0, {}]}),
    ("affine-vi", {**AFFINE, "S": {}}),
    ("nash", {**NASH, "M": None}),
    ("nash", {**NASH, "D": [EYE, {**KNAPSACK_A, "costs": -1}]}),
    ("nash", {**NASH, "g": 7}),
])
def test_malformed_spec_fields_exit_one(tmp_path, capsys, command, spec):
    assert run([command, "--spec", write_spec(tmp_path, spec), "--max-steps", "20"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid spec: ") and "Traceback" not in err


# valid specs of every subcommand, whose fields the scan below replaces one at a time
SCANNED = [
    ("matrix-game", {"S": PENNIES, "p": [0.1, 0.0], "q": [0.0, 0.1]}),
    ("matrix-game", {"A": KNAPSACK_A, "D": KNAPSACK_D}),
    ("blotto", {**BLOTTO, "caps_a": [2, 2], "budget_a": 3}),
    ("blotto", BLOTTO_LISTED),
    ("affine-vi", {**AFFINE, "Xi_radius": 1.0}),
    ("affine-vi", {**AFFINE, "H": {"atoms": EYE}}),
    ("nash", NASH),
    ("nash", {"D": [EYE, EYE], "M": NASH["M"], "g": [[0.1, 0.0], [0.0, 0.2]]}),
]
MUTANTS = [7, "x", None, {}, [[]], math.nan]
OPTIONAL = {"Xi_radius", "p", "q", "g"}
# numpy's and Python's own texts, which name no field of the spec
RAW_TEXTS = ("setting an array element with a sequence", "could not convert", "is not iterable",
             "float() argument", "has no len()", "zero-size array",
             "expected non-negative integer")


def mutation_paths(obj, path=()):
    """(path, value) of each dict value and of each list's first entry, depth first."""
    if isinstance(obj, dict):
        items = obj.items()
    else:
        items = [(0, obj[0])] if isinstance(obj, list) and obj else []
    for key, value in items:
        yield path + (key,), value
        yield from mutation_paths(value, path + (key,))


def mutated(spec, path, value):
    spec = json.loads(json.dumps(spec))  # a deep copy that shares no rows
    target = spec
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return spec


@pytest.mark.parametrize("command, spec", SCANNED, ids=lambda v: v if isinstance(v, str) else "")
def test_every_mutated_field_exits_one_naming_it(tmp_path, capsys, command, spec):
    # a number may replace a number and null an optional field, leaving a
    # valid spec; every other replacement is an input error with a message
    # of the spec's own, never numpy's text or a bare missing key
    for path, original in mutation_paths(spec):
        for value in MUTANTS:
            code = run([command, "--spec", write_spec(tmp_path, mutated(spec, path, value)),
                        "--max-steps", "1"])
            err = capsys.readouterr().err
            may_run = (value == 7 and type(original) in (int, float)
                       or value is None and path[-1] in OPTIONAL)
            assert code == 1 or may_run and code in (0, 2, 3), (path, value, code, err)
            if code == 1:
                assert err.startswith("error: invalid spec: "), (path, value, err)
                assert not any(text in err for text in RAW_TEXTS), (path, value, err)
                assert not re.fullmatch(r"error: invalid spec: '\w+'\n", err), (path, value)


HUGE = 1e200  # finite, so it passes `reals`, but its square overflows
HUGE_KNAPSACK = {**KNAPSACK_A, "outputs": [[[1.0], [HUGE], [0.5]], [[0.0], [1.0]]]}
# a spec per subcommand whose radius bound overflows, and the field its error names
OVERFLOWING = [
    ("matrix-game", {"S": [[HUGE, 1.0], [1.0, -HUGE]]}, "S has entries too large"),
    ("blotto", {**BLOTTO_LISTED, "omega": [EYE, [[HUGE, 0.0], [0.0, 1.0]]]},
     "omega: A: outputs has entries too large"),
    ("affine-vi", {**AFFINE, "H": {"atoms": [[HUGE, 0.0], [0.0, 1.0]]}},
     "H: atoms has entries too large"),
    ("nash", {**NASH, "D": [EYE, HUGE_KNAPSACK]}, "D[1]: outputs has entries too large"),
]


@pytest.mark.parametrize("command, spec, named", OVERFLOWING + [
    ("matrix-game", {"A": [[HUGE, 1.0], [0.0, 1.0]], "D": EYE},
     "A: the matrix has entries too large"),
    ("matrix-game", {"A": KNAPSACK_D, "D": HUGE_KNAPSACK}, "D: outputs has entries too large"),
    ("nash", {**NASH, "D": [[[1.0, 0.0], [0.0, HUGE]], KNAPSACK_A]},
     "D[0] has entries too large"),
    ("affine-vi", {**AFFINE, "S": [[0.0, HUGE], [-HUGE, 0.0]]}, "S has entries too large"),
])
def test_overflowing_radius_bound_exits_one_naming_the_field(tmp_path, capsys, command, spec,
                                                             named):
    # the radius bounds square the entries; warnings are errors here, so an
    # overflow warning would escape run() as a traceback
    assert run([command, "--spec", write_spec(tmp_path, spec)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: invalid spec: {named} for a finite norm bound (inf)"), err


@pytest.mark.parametrize("command, spec, named", OVERFLOWING)
def test_overflowing_radius_bound_in_dev_mode_prints_no_traceback(tmp_path, command, spec,
                                                                  named):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_ROOT), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "lmodecomp.cli", command, "--spec",
         write_spec(tmp_path, spec)], capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout) == (1, ""), proc.stderr
    assert proc.stderr == f"error: invalid spec: {named} for a finite norm bound (inf)\n"


def readme_specs():
    """(subcommand, JSON text) of each example of the README's spec section."""
    readme = (SRC_ROOT.parent / "README.md").read_text()
    section = readme.split("\n### Spec files\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^`([a-z-]+)`[^\n]*:\n\n```json\n(.*?)```", section, re.S | re.M)


README_SPECS = readme_specs()


def test_readme_has_one_spec_example_per_subcommand():
    assert sorted(command for command, _ in README_SPECS) == sorted(
        ["matrix-game", "blotto", "affine-vi", "nash"])


@pytest.mark.parametrize("command, text", README_SPECS, ids=[c for c, _ in README_SPECS])
def test_readme_spec_examples_run_to_exit_zero(tmp_path, capsys, command, text):
    report = tmp_path / "report.json"
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    assert run([command, "--spec", str(spec), "--report", str(report)]) == 0
    assert json.loads(report.read_text())["converged"] is True


def test_large_offset_affine_vi_never_fails_the_gap_check(tmp_path, capsys):
    # the gap check tolerates rounding at the scale of s = 1e8, so it never
    # exits 4 here; mirror descent certifies this VI within its budget
    spec = write_spec(tmp_path, {"S": [[0.0, 1.0], [-1.0, 0.0]], "s": [1e8, 1e8],
                                 "H": {"simplex": 2}, "Xi_radius": 1.0})
    report_path = tmp_path / "report.json"
    assert run(["affine-vi", "--spec", spec, "--solver", "md", "--max-steps", "2000",
                "--report", str(report_path)]) == 0
    assert "converged" in capsys.readouterr().out
    report = json.loads(report_path.read_text())
    assert report["stop_reason"] == "eps_target" and report["steps"] < 2000
    assert report["gap_exact"] <= report["gap_bound"] <= 1e-6


def test_badly_scaled_affine_vi_named_stop(tmp_path, capsys):
    # the certificate LP rejects rows this large; the run still ends on a named stop
    S = [[0.0, 1e8, 0.5e8], [-1e8, 0.0, 2e8], [-0.5e8, -2e8, 0.0]]
    spec = write_spec(tmp_path, {"S": S, "s": [1e8, 2e8, -1e8], "H": {"simplex": 3},
                                 "Xi_radius": 1e9})
    code = run(["affine-vi", "--spec", spec])
    out = capsys.readouterr().out
    assert code == 0 and "converged" in out or code == 3 and "stopped uncertified" in out


def test_failed_certificate_check_exit_four(tmp_path, capsys, monkeypatch):
    from lmodecomp import vi
    eps = vi._skew_eps_exact
    monkeypatch.setattr(vi, "_skew_eps_exact",
                        lambda spec, atoms_weights: (1.0, 1.0, eps(spec, atoms_weights)[2]))
    neg = (-np.asarray(PENNIES).T).tolist()
    Z, eye = [[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]
    spec = write_spec(tmp_path, {"D": [eye, eye], "M": [[Z, PENNIES], [neg, Z]]})
    assert run(["nash", "--spec", spec, "--gap-threshold", "1e-6", "--eps", "1e-6"]) == 4
    assert "certificate check failed: exact gap 1.0 exceeds" in capsys.readouterr().err


@pytest.mark.usefixtures("certificate_rounds_only")
def test_budget_exhausted_exit_two(tmp_path, capsys):
    spec = write_spec(tmp_path, {"S": PENNIES})
    # the certificate of one step is that step's pure pair, two units off the value
    code = run(["matrix-game", "--spec", spec, "--max-steps", "1",
                "--gap-threshold", "1e-12", "--eps", "1e-13"])
    assert code == 2
    assert "step budget exhausted" in capsys.readouterr().out


@pytest.mark.usefixtures("certificate_rounds_only")
def test_degenerate_stop_exit_three(tmp_path, capsys, monkeypatch):
    from lmodecomp import solvers

    def collapsed(center, shape, g, depth=0.0):
        raise RuntimeError("collapsed")

    monkeypatch.setattr(solvers, "ellipsoid_cut", collapsed)
    spec = write_spec(tmp_path, {"S": PENNIES})
    report_path = tmp_path / "report.json"
    code = run(["matrix-game", "--spec", spec, "--gap-threshold", "1e-12",
                "--eps", "1e-13", "--report", str(report_path)])
    assert code == 3
    out = capsys.readouterr().out
    assert "ellipsoid_degenerate" in out and "step budget exhausted" not in out
    report = json.loads(report_path.read_text())
    assert report["stop_reason"] == "ellipsoid_degenerate"
    assert report["converged"] is False and report["steps"] == 1


def test_reports_deterministic_up_to_wall_time(tmp_path):
    spec = write_spec(tmp_path, {"m": 2, "caps_a": [2, 2], "caps_d": [2, 2],
                                 "costs_a": [1, 1], "costs_d": [1, 1],
                                 "budget_a": 2, "budget_d": 2,
                                 "omega": {"rank1_seed": 3}})
    reports = []
    for name in ("r1.json", "r2.json"):
        path = tmp_path / name
        run(["blotto", "--spec", spec, "--report", str(path)])
        obj = json.loads(path.read_text())
        obj.pop("wall_time_s")
        reports.append(obj)
    assert reports[0] == reports[1]


def test_blotto_report_value_matches_lp(tmp_path):
    from lmodecomp.blotto import blotto_from_json, build_blotto
    from lmodecomp.oracles import enumerate_columns

    obj = {"m": 2, "caps_a": [2, 2], "caps_d": [2, 2], "costs_a": [1, 1],
           "costs_d": [1, 1], "budget_a": 2, "budget_d": 2,
           "omega": {"rank1_seed": 11}}
    spec = write_spec(tmp_path, obj)
    report_path = tmp_path / "report.json"
    code = run(["blotto", "--spec", spec, "--eps", "2e-7",
                "--gap-threshold", "4e-7", "--report", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    game = build_blotto(blotto_from_json(obj))
    _, cols_a = enumerate_columns(game.A)
    _, cols_d = enumerate_columns(game.D)
    assert abs(report["value"] - lp_game_value(cols_a.T @ cols_d)) <= 1e-6


def test_blotto_honours_solver(tmp_path):
    from lmodecomp.blotto import blotto_from_json, solve_blotto
    from lmodecomp.cli import _history_json
    from lmodecomp.solvers import SolverConfig

    obj = {"m": 2, "caps_a": [2, 2], "caps_d": [2, 2], "costs_a": [1, 1],
           "costs_d": [1, 1], "budget_a": 2, "budget_d": 2,
           "omega": {"rank1_seed": 5}}
    reports = {}
    for solver in ("md", "ellipsoid"):
        path = tmp_path / f"{solver}.json"
        run(["blotto", "--spec", write_spec(tmp_path, obj), "--solver", solver,
             "--max-steps", "600", "--gap-threshold", "1e-9", "--report", str(path)])
        reports[solver] = json.loads(path.read_text())
    md = solve_blotto(blotto_from_json(obj),
                      SolverConfig(eps_target=1e-6, max_steps=600, gap_threshold=1e-9),
                      solver="md")
    assert reports["md"]["steps"] == md.steps
    assert reports["md"]["history"] == _history_json(md.rounds)
    assert reports["md"]["history"] != reports["ellipsoid"]["history"]


def test_affine_vi_subcommand(tmp_path):
    spec = write_spec(tmp_path, {"S": [[0.0, 0.0], [0.0, 0.0]], "s": [1.0, -1.0],
                                 "H": {"simplex": 2}})
    report_path = tmp_path / "report.json"
    code = run(["affine-vi", "--spec", spec, "--gap-threshold", "1e-8",
                "--report", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert np.allclose(report["atoms"]["eta"], [0.0, 1.0], atol=1e-8)
    assert report["gap_exact"] <= 1e-8


def test_nash_subcommand(tmp_path):
    Z = [[0.0, 0.0], [0.0, 0.0]]
    eye = [[1.0, 0.0], [0.0, 1.0]]
    neg = (-np.asarray(PENNIES).T).tolist()
    spec = write_spec(tmp_path, {"D": [eye, eye], "M": [[Z, PENNIES], [neg, Z]]})
    report_path = tmp_path / "report.json"
    code = run(["nash", "--spec", spec, "--gap-threshold", "1e-6",
                "--eps", "1e-7", "--report", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["gap_exact"] <= 1e-6
    weights = {tuple(tuple(b) for b in a["index"]): a["weight"]
               for a in report["atoms"]["eta"]}
    assert abs(sum(weights.values()) - 1.0) < 1e-9


def test_nash_report_counts_every_step(tmp_path):
    from lmodecomp.solvers import SolverConfig
    from lmodecomp.vi import nash_spec_from_json, nash_to_skew, solve_vi

    # a mixed equilibrium off the uniform one, (2/3, 1/3) for both players:
    # the ellipsoid leaves a ball before the run's first round, at step
    # K + 1 = 5, stops it
    Z = [[0.0, 0.0], [0.0, 0.0]]
    eye = [[1.0, 0.0], [0.0, 1.0]]
    C = [[1.0, 0.0], [0.0, 2.0]]
    obj = {"D": [eye, eye], "M": [[Z, C], [(-np.asarray(C).T).tolist(), Z]]}
    report_path = tmp_path / "report.json"
    assert run(["nash", "--spec", write_spec(tmp_path, obj), "--gap-threshold", "1e-6",
                "--eps", "1e-7", "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    sol = solve_vi(nash_to_skew(nash_spec_from_json(obj)),
                   config=SolverConfig(eps_target=1e-7, gap_threshold=1e-6))
    # the ellipsoid's non-productive steps count too, not only protocol entries
    assert report["steps"] == sol.steps > len(sol.protocol)
    assert report["stop_reason"] == sol.stop_reason == "gap_threshold"


REPORT_KEYS = {"command", "value", "gap_bound", "gap_exact", "steps", "stop_reason",
               "wall_time_s", "dims", "atoms", "history", "converged"}
KNAPSACK_SIDE = {"bounds": [2, 1], "costs": [1, 1], "budget": 2,
                 "outputs": [[[0.0], [1.0], [0.5]], [[0.0], [-1.0]]]}


@pytest.mark.parametrize("command, spec, extra", [
    ("matrix-game", {"S": [[1.0, -1.0, 0.5], [-0.5, 1.0, 0.0], [0.2, 0.3, -0.4]]}, set()),
    ("matrix-game", {"A": KNAPSACK_SIDE, "D": [[1.0, 0.0, -1.0], [0.5, -1.0, 0.0]]}, set()),
    ("blotto", {"m": 2, "caps_a": [2, 2], "caps_d": [2, 2], "costs_a": [1, 1],
                "costs_d": [1, 1], "budget_a": 2, "budget_d": 2,
                "omega": {"rank1_seed": 9}}, {"primal_dim", "seed"}),
    ("affine-vi", {"S": [[0.0, 1.0, -0.5], [-1.0, 0.0, 0.3], [0.5, -0.3, 0.0]],
                   "s": [0.1, -0.2, 0.0], "H": {"simplex": 3}}, set()),
    ("nash", {"D": [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]],
              "M": [[[[0.0, 0.0], [0.0, 0.0]], PENNIES],
                    [(-np.asarray(PENNIES).T).tolist(), [[0.0, 0.0], [0.0, 0.0]]]]}, set()),
], ids=["matrix-game-square", "matrix-game-factored", "blotto", "affine-vi", "nash"])
@pytest.mark.parametrize("threshold", [1e-3, 1e-12])
def test_every_subcommand_writes_the_same_report(tmp_path, command, spec, extra, threshold):
    report_path = tmp_path / "report.json"
    code = run([command, "--spec", write_spec(tmp_path, spec), "--max-steps", "300",
                "--gap-threshold", str(threshold), "--report", str(report_path)])
    report = json.loads(report_path.read_text())
    assert set(report) == REPORT_KEYS | extra
    assert report["command"] == command
    assert report["converged"] == (min(report["gap_bound"], report["gap_exact"]) <= threshold)
    assert (code == 0) == report["converged"]


def console_script_wrapper():
    """The `python -c` body of the wrapper that an installer writes for the
    `lmodecomp` command declared in `[project.scripts]` of pyproject.toml."""
    import tomllib

    pyproject = SRC_ROOT.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["lmodecomp"]
    module, attr = target.split(":")
    return f"import sys; from {module} import {attr}; sys.exit({attr}())"


def test_console_script_runs(tmp_path):
    spec = write_spec(tmp_path, {"S": PENNIES})
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_ROOT), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", console_script_wrapper(),
         "matrix-game", "--spec", spec, "--gap-threshold", "1e-4"],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "matrix-game" in proc.stdout, proc.stdout + proc.stderr
