import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eulercc
from eulercc import euler, qps, signomial
from eulercc.acceptance import CRITERIA
from eulercc.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_positive_masses(capsys):
    code, out, _ = run(capsys, "solve", "-m", "1,1,1", "-b", "-2")
    assert code == 0
    doc = json.loads(out)
    assert (doc["e1"], doc["e2"], doc["e3"], doc["total"]) == (1, 1, 1, 3)
    cells = {sol["cell"]: sol for sol in doc["solutions"]}
    assert cells[2]["s"] == pytest.approx(1.0, rel=1e-9)
    assert cells[2]["positions"] == [0.0, 1.0, pytest.approx(2.0)]
    assert doc["degenerate_family"] is None


def test_solve_no_configurations(capsys):
    code, out, _ = run(capsys, "solve", "-m", "0,-1,1", "-b", "-2")
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == 0
    assert doc["solutions"] == []


def test_solve_degenerate_family(capsys):
    code, out, _ = run(capsys, "solve", "-m", "1,1,1", "-b", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == "inf"
    assert doc["degenerate_family"] == "iii"


def test_solve_deterministic_output(capsys):
    _, out1, _ = run(capsys, "solve", "-m", "1,-1.2,1", "-b", "-2")
    _, out2, _ = run(capsys, "solve", "-m", "1,-1.2,1", "-b", "-2")
    assert out1 == out2


def test_solve_parse_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "-m", "1,1", "-b", "-2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (("solve", "-m", "1,1,1", "-b", "nan"), "b must be finite"),
    (("solve", "-m", "inf,1,1", "-b", "-2"), "masses must be finite"),
    (("solve", "-m", "1,-inf,1", "-b", "-2"), "masses must be finite"),
    (("solve", "-m", "1,1,1", "-b", "-inf"), "b must be finite"),
    (("grid", "--m2", "0:1", "--b", "nan:1", "-n", "2x2"), "b range must be finite"),
    (("grid", "--m2", "0:inf", "--b", "-2:-1", "-n", "2x2"), "m2 range must be finite"),
    (("grid", "--m2", "-1e308:1e308", "--b", "0:0", "-n", "3x1"),
     "m2 grid points overflow floats on the range -1e+308:1e+308"),
    (("solve", "-m", "1,1,1", "-b", "-2", "--tol", "nan"), "tol must be finite and positive"),
    (("solve", "-m", "1,1,1", "-b", "0", "--tol", "nan"), "tol must be finite and positive"),
    (("signomial", "--terms", "[[1,0],[-1,1]]", "--tol", "nan"), "tol must be finite and positive"),
    (("signomial", "--terms", "[[1,0],[-1,1]]", "--tol", "inf"), "tol must be finite and positive"),
    (("grid", "--m2", "-2:0", "--b", "-2:0", "-n", "3x3", "--check", "--margin", "nan"),
     "margin must be finite and non-negative"),
    (("grid", "--m2", "-2:0", "--b", "-2:0", "-n", "3x3", "--check", "--margin", "inf"),
     "margin must be finite and non-negative"),
    (("grid", "--m2", "-2:0", "--b", "-2:0", "-n", "3x3", "--check", "--tol", "nan"),
     "tol must be finite and positive"),
    (("solve", "-m", "1,-0.5,1", "-b", "-2", "--tol", "1"), "tol must be finite and positive"),
    (("solve", "-m", "1,-0.5,1", "-b", "-2", "--tol", "2"), "tol must be finite and positive"),
])
def test_non_finite_input_exits_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err



@pytest.mark.parametrize("argv, flag", [
    (("solve", "-m", "1,1", "-b", "-2"), "-m/--masses"),
    (("solve", "--masses", "1,x,1", "-b", "-2"), "-m/--masses"),
    (("grid", "--m2", "0", "--b", "0:1", "-n", "2x2"), "--m2"),
    (("grid", "--m2", "-1:1", "--b", "0:1:2", "-n", "2x2"), "--b"),
    (("grid", "--m2", "0:1", "--b", "0:1", "-n", "2y2"), "-n/--resolution"),
    (("grid", "--m2", "0:1", "--b", "0:1", "--resolution", "2x2.5"), "-n/--resolution"),
    (("signomial", "--terms", "[[1,0],"), "--terms"),
    (("signomial", "--terms", "[[1,0,2]]"), "--terms"),
    (("signomial", "--terms", "[1, 2]"), "--terms"),
    (("signomial", "--terms", '["10"]'), "--terms"),
    (("signomial", "--terms", "[[1,0]]", "--interval", "0"), "--interval"),
    (("signomial", "--terms", "[[1,0]]", "--interval", "0:x"), "--interval"),
    (("bounds", "khovanskii", "-d", "1", "-k", "2"), "-d"),
    (("bounds", "khovanskii", "-d", "1,x", "-k", "2"), "-d"),
])
def test_malformed_argument_exits_2_naming_it(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert out.out == ""
    assert f"error: argument {flag}: expected " in out.err


@pytest.mark.parametrize("interval", ["0:", "0:inf", "0: INF", "0:Infinity"])
def test_interval_upper_end_may_be_empty_or_inf(capsys, interval):
    terms = ("signomial", "--terms", "[[1,0.5],[-3,1],[1,2]]")
    assert run(capsys, *terms, "--interval", interval) == run(capsys, *terms)


@pytest.mark.parametrize("argv", [(), ("solve",), ("grid",), ("signomial",), ("bounds",),
                                  ("bounds", "straight"), ("bounds", "khovanskii"),
                                  ("verify",)])
def test_help_works_for_every_subcommand(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(" ".join(("usage: eulercc",) + argv))


# The exact stdout of the README examples; a refactor must leave these bytes alone
README_OUTPUTS = [
    (("solve", "-m", "1,1,1", "-b", "-2"),
     '{"e1": 1, "e2": 1, "e3": 1, "total": 3, "solutions": [{"cell": 1, "s": 1, '
     '"positions": [1, 0, 2], "degenerate": false}, {"cell": 2, "s": 1, "positions": '
     '[0, 1, 2], "degenerate": false}, {"cell": 3, "s": 1, "positions": [0, 2, 1], '
     '"degenerate": false}], "degenerate_family": null}\n'),
    (("signomial", "--terms", "[[1,0.5],[-3,1],[1,2]]"),
     '{"sign_variations": 2, "laguerre_bound": 2, "count": 2, "roots": [{"lo": '
     '0.1206147584281336, "hi": 0.12061475842822719, "value": 0.1206147584281804, '
     '"degenerate": false}, {"lo": 2.3472963553326736, "hi": 2.3472963553340378, '
     '"value": 2.3472963553333557, "degenerate": false}]}\n'),
    (("signomial", "--terms", "[[2,0],[5,1],[4,2],[-4,3],[-5,4],[-2,5]]"),
     '{"sign_variations": 1, "laguerre_bound": 1, "count": 1, "roots": [{"lo": 1, '
     '"hi": 1, "value": 1, "degenerate": false}]}\n'),
]


@pytest.mark.parametrize("argv, expected", README_OUTPUTS)
def test_readme_examples_print_the_same_bytes(capsys, argv, expected):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == expected


def test_readme_grid_check_prints_the_same_bytes(capsys):
    code, out, err = run(capsys, "grid", "--m2", "-4:2", "--b", "-4:4", "-n", "50x50",
                         "--check", "--margin", "0.05")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f5b5ea06abe57986d5748e5a5c23a0e5bdf2ff010500fb8d1d19b97b870aee70")


def test_solve_accepts_values_starting_with_minus(capsys):
    code, out, _ = run(capsys, "solve", "-m", "-1,-1,-1", "-b", "-2")
    assert code == 0
    assert json.loads(out)["total"] == 3


def test_grid_single_infinite_point(capsys):
    code, out, _ = run(capsys, "grid", "--m2", "0:0", "--b", "1:1", "-n", "1x1")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "m2,b,e1,e2,e3,total,on_frontier"
    assert lines[1] == "0,1,inf,inf,inf,inf,true"


# The -0 end is the lower one (row 1) or the upper one (row 2) of a 2-point axis.
@pytest.mark.parametrize("m2, row", [("-0:-0", 1), ("1:-0", 2)])
def test_grid_prints_a_negative_zero_lower_end_at_any_resolution(capsys, m2, row):
    _, one, _ = run(capsys, "grid", "--m2", "-0:-0", "-n", "1x1", "--b", "0:0")
    code, two, _ = run(capsys, "grid", "--m2", m2, "-n", "2x1", "--b", "0:0")
    assert code == 0
    assert one.split("\n")[1].startswith("-0,0,")
    assert two.split("\n")[row] == one.split("\n")[1]


@pytest.mark.parametrize("check", [(), ("--check",)])
def test_grid_refuses_b_where_2_to_the_b_overflows(capsys, check):
    code, out, err = run(capsys, "grid", "--m2", "-4:2", "--b", "1000:2000", "-n", "3x3", *check)
    assert (code, out) == (2, "")
    assert err.startswith("error: 2**b overflows a float at b = ")


def test_grid_check_passes(capsys):
    code, out, err = run(capsys, "grid", "--m2", "-2:0", "--b", "-2:0",
                         "-n", "6x6", "--check", "--margin", "0.05")
    assert code == 0
    assert err == ""
    assert len(out.strip().split("\n")) == 37


def test_signomial_count(capsys):
    code, out, _ = run(capsys, "signomial", "--terms", "[[1,0.5],[-3,1],[1,2]]")
    assert code == 0
    doc = json.loads(out)
    assert doc["sign_variations"] == 2
    assert doc["count"] == 2
    assert len(doc["roots"]) == 2


def test_signomial_identically_zero(capsys):
    code, out, _ = run(capsys, "signomial", "--terms", "[]")
    assert code == 0
    assert json.loads(out)["count"] == "identically_zero"


def test_signomial_gravitational_quintic(capsys):
    code, out, _ = run(capsys, "signomial", "--terms",
                       "[[2,0],[5,1],[4,2],[-4,3],[-5,4],[-2,5]]")
    assert code == 0
    doc = json.loads(out)
    assert doc["sign_variations"] == 1
    assert doc["count"] == 1


@pytest.mark.parametrize("terms, bad", [
    ("[[1,NaN],[-1,0]]", "[1.0, nan]"),
    ("[[NaN,1],[-1,0]]", "[nan, 1.0]"),
    ("[[1,Infinity],[-1,0]]", "[1.0, inf]"),
])
def test_signomial_non_finite_terms_exit_2(capsys, terms, bad):
    code, out, err = run(capsys, "signomial", "--terms", terms)
    assert code == 2
    assert out == ""
    assert "signomial terms must be finite" in err and bad in err


def test_signomial_overflowing_terms(capsys):
    code, out, err = run(capsys, "signomial", "--terms", "[[1e308,1],[-1e308,2]]")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["count"] == 1
    assert doc["roots"][0]["value"] == pytest.approx(1.0, rel=1e-12)


def test_bounds_commands(capsys):
    code, out, _ = run(capsys, "bounds", "straight", "-n", "6")
    assert code == 0 and out.strip() == "62"
    code, out, _ = run(capsys, "bounds", "khovanskii", "-d", "1,2", "-k", "4")
    assert code == 0 and out.strip() == "32768"
    code, out, _ = run(capsys, "bounds", "straight", "-n", "1")
    assert code == 0 and out.strip() == "0"



def _not_called(*args):
    raise AssertionError("the bound was computed")


@pytest.mark.parametrize("argv, digits", [
    (("bounds", "khovanskii", "-d", "1,1", "-k", "1000000"), "about 150,515,324,439 "),
    (("bounds", "straight", "-n", str(10 ** 12)), "about 301,029,995,664 "),
    (("bounds", "straight", "-n", "14285"), "about 4,301 "),
    (("bounds", "khovanskii", "-d", "1,1", "-k", "168"), "about 4,304 "),
    (("bounds", "khovanskii", "-d", "7,9", "-k", "166"), "about 4,329 "),
    (("bounds", "straight", "-n", str(10 ** 400)), ""),
    (("bounds", "khovanskii", "-d", "1,1", "-k", str(10 ** 400)), ""),
])
def test_bounds_refuse_unprintable_values_before_computing(capsys, monkeypatch, argv, digits):
    monkeypatch.setattr(qps, "straight_bound", _not_called)
    monkeypatch.setattr(qps, "khovanskii_bound", _not_called)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"{digits}decimal digits, more than the 4,300 that can be printed" in err


@pytest.mark.parametrize("argv, value", [
    (("bounds", "straight", "-n", "14284"), qps.straight_bound(14284)),
    (("bounds", "khovanskii", "-d", "1,1", "-k", "167"), qps.khovanskii_bound(1, 1, 167)),
    (("bounds", "khovanskii", "-d", "7,9", "-k", "165"), qps.khovanskii_bound(7, 9, 165)),
])
def test_bounds_print_values_up_to_the_digit_limit(capsys, argv, value):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert len(out) <= 4301 and int(out) == value

def test_output_file_writing(tmp_path, capsys):
    path = tmp_path / "out.json"
    code, out, _ = run(capsys, "solve", "-m", "1,1,1", "-b", "-2", "-o", str(path))
    assert code == 0
    assert out == ""
    doc = json.loads(path.read_text())
    assert doc["total"] == 3


@pytest.mark.parametrize("argv", [
    ("solve", "-m", "1,1,1", "-b", "-2"),
    ("grid", "--m2", "-4:2", "--b", "-4:4", "-n", "3x3"),
    ("signomial", "--terms", "[[1,0.5],[-3,1],[1,2]]"),
])
def test_unwritable_output_exits_2(tmp_path, capsys, argv):
    path = tmp_path / "missing" / "out"
    code, out, err = run(capsys, *argv, "-o", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {str(path)!r}: ")
    code, _, err = run(capsys, *argv, "-o", str(tmp_path))  # a directory
    assert code == 2
    assert err.startswith(f"error: cannot write {str(tmp_path)!r}: ")


@pytest.mark.parametrize("b", ["1e-320", "5e-324", "-1e-320"])
def test_subnormal_b_exits_cleanly(capsys, b):
    # |b| this small puts subnormal coefficients into the endpoint series
    code, out, err = run(capsys, "solve", "-m", "1,1,1", "-b", b)
    assert code in (0, 3), err
    if code == 0:
        assert json.loads(out)["total"] == 3
    else:
        assert err.startswith("tolerance failure: ")


@pytest.mark.parametrize("b", ["2000", "3e4", "1e8", "1e20", "-1e20", "1e308",
                               "-372", "-370", "1025", "1028"])
def test_solve_refuses_a_b_whose_series_overflows_with_exit_3(capsys, b):
    code, out, err = run(capsys, "solve", "-m", "1,2,3", "-b", b)
    assert (code, out) == (3, "")
    assert err.startswith("tolerance failure: ")
    assert f"at b = {float(b)!r}" in err


def test_verify_runs_every_criterion(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert out.splitlines() == [f"PASS {c.name}" for c in CRITERIA] + ["11/11 checks passed"]


def _wrong_counts(m, b, tol=None, roots=True):
    return euler.CellCount.of(9, 9, 9), []


def test_verify_reports_failed_criteria(capsys, monkeypatch):
    monkeypatch.setattr(euler, "count_all", _wrong_counts)
    isolate = signomial.count_and_isolate

    def one_root_short(p, *args):
        count, roots = isolate(p, *args)
        return (count - 1, roots[:-1]) if roots else (count, roots)

    # the engine drops its last root; euler imported count_and_isolate by name, so
    # only criterion 10 sees it
    monkeypatch.setattr(signomial, "count_and_isolate", one_root_short)
    code, out, _ = run(capsys, "verify")
    assert code == 4
    failed = [line.split(":")[0][len("FAIL "):] for line in out.splitlines()
              if line.startswith("FAIL ")]
    # the grid cross-check looks the counter up when it runs, so it sees the patch too
    assert failed == ["vortex-total-bound", "positive-masses-one-per-cell",
                      "total-bounds-by-regime", "zero-sum-masses", "degenerate-families",
                      "figure-grid-crosscheck", "signomial-engine"]
    assert out.splitlines()[-1] == "4/11 checks passed"


def _python(*args):
    """Run a fresh interpreter on this checkout's eulercc."""
    src = str(Path(eulercc.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=600)


def test_verify_fails_under_optimize():
    # python -O strips assert statements; a failed criterion must still fail.
    script = ("import sys\n"
              "from eulercc import euler\n"
              "from eulercc.cli import main\n"
              "euler.count_all = lambda m, b, tol=None: (euler.CellCount.of(9, 9, 9), [])\n"
              "sys.exit(main(['verify']))\n")
    proc = _python("-O", "-c", script)
    assert proc.returncode == 4, proc.stderr
    assert "FAIL vortex-total-bound: " in proc.stdout


_MODULES = {"acceptance", "classifier", "cli", "euler", "numerics", "qps", "signomial"}


_GRID = ["grid", "--m2", "-4:2", "--b", "-4:4", "-n", "20x20"]


@pytest.mark.parametrize("argv, not_loaded, loaded_too", [
    (None, _MODULES, set()),
    (["signomial", "--terms", "[[1,0.5],[-3,1],[1,2]]"], {"euler", "classifier", "qps"}, set()),
    (["solve", "-m", "1,1,1", "-b", "-2"], {"classifier", "qps"}, set()),
    (["bounds", "straight", "-n", "6"], {"euler", "classifier"}, set()),
    (["bounds", "khovanskii", "-d", "1,2", "-k", "4"], {"euler", "classifier"}, set()),
    (_GRID, {"euler", "signomial", "qps"}, {"classifier"}),
    (["grid", "--m2", "-4:2", "--b", "-4:4", "-n", "3x3", "--check"], {"qps"}, {"euler"}),
])
def test_each_subcommand_loads_only_its_modules(argv, not_loaded, loaded_too):
    # argv None: a bare `import eulercc`
    call = "" if argv is None else ("from eulercc import cli\n"
                                    "with contextlib.redirect_stdout(io.StringIO()):\n"
                                    f"    assert cli.main({argv!r}) == 0\n")
    script = ("import contextlib, io, sys\n"
              "import eulercc\n" + call +
              "print(*(m for m in sys.modules if m.startswith('eulercc.') or m == 'dataclasses'))\n")
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr
    loaded = {name.removeprefix("eulercc.") for name in proc.stdout.split()}
    assert not loaded & not_loaded, loaded
    assert loaded_too <= loaded, loaded
    # every result record is a NamedTuple, so no subcommand builds dataclasses
    assert "dataclasses" not in loaded, loaded
