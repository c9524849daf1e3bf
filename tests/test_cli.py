"""CLI behavior: reports, exit codes, golden-file determinism."""

import json
import math

import pytest

from arithcoh import arakelov
from arithcoh.cli import main


@pytest.fixture()
def files(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return {
        "rational": write("q.json", {"type": "rational"}),
        "gaussian": write("qi.json", {"type": "quadratic", "d": -1}),
        "div0_q": write("div0q.json", {"finite": [], "infinite": [0.0]}),
        "div_qi": write("divqi.json", {"finite": [{"p": 2, "index": 0, "exponent": 1}],
                                       "infinite": [0.4]}),
        "ghost_ok": write("ghost.json", {"cyclic_orders": [2], "u": [1.0, 0.5]}),
        "ghost_flat": write("ghostflat.json", {"cyclic_orders": [2, 3],
                                               "u": [1.0] * 6}),
        "ghost_bad": write("ghostbad.json", {"cyclic_orders": [2], "u": [1.0, 1.5]}),
        "write": write,
    }


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_field_info_gaussian(files, capsys):
    code, out, _ = run(capsys, ["field-info", "--field", files["gaussian"]])
    assert code == 0
    report = json.loads(out)
    res = report["results"]
    assert res["abs_discriminant"] == 4
    assert res["deg_canonical"] == pytest.approx(math.log(4))
    assert res["covolume_check"]["passed"]
    assert report["pass"]


def test_field_info_rational(files, capsys):
    code, out, _ = run(capsys, ["field-info", "--field", files["rational"]])
    assert code == 0
    assert json.loads(out)["results"]["abs_discriminant"] == 1


def test_field_info_inconsistent_descriptor(files, capsys):
    bad = files["write"]("badfield.json", {
        "degree": 2, "r1": 0, "r2": 1, "abs_discriminant": 9,
        "embeddings": [1.0, 0.0, 0.0, 1.0],
        "different_basis": [[2, 0], [0, 2]],
    })
    code, out, err = run(capsys, ["field-info", "--field", bad])
    assert code == 2
    assert "DescriptorInconsistent" in err
    assert out == ""


def test_h0_and_h1_reports(files, capsys):
    code, out, _ = run(capsys, ["h0", "--field", files["rational"],
                                "--divisor", files["div0_q"]])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["h0"]["value"] == pytest.approx(0.08290152003105464, abs=1e-10)
    assert report["results"]["h0"]["tail_bound"] < 1e-9

    code, out, _ = run(capsys, ["h1", "--field", files["rational"],
                                "--divisor", files["div0_q"]])
    assert code == 0
    assert json.loads(out)["results"]["h1"]["value"] == pytest.approx(
        0.08290152003105464, abs=1e-10)


def test_h0_budget_exhaustion_exit_code(files, capsys):
    code, _, err = run(capsys, ["h0", "--field", files["rational"],
                                "--divisor", files["div0_q"], "--budget", "3"])
    assert code == 3
    assert "EnumerationBudgetExceeded" in err


def test_verify_passes(files, capsys):
    code, out, _ = run(capsys, ["verify", "--field", files["gaussian"],
                                "--divisor", files["div_qi"],
                                "--tol", "1e-8", "--what", "both"])
    assert code == 0
    report = json.loads(out)
    assert report["pass"]
    assert report["results"]["riemann_roch"]["delta"] < 1e-8
    assert report["results"]["riemann_roch"]["rhs"] == pytest.approx(0.4)
    assert report["results"]["serre_duality"]["delta"] < 1e-8


def test_verify_both_enumerates_two_lattices(files, capsys, monkeypatch):
    calls = []
    real = arakelov.theta_sum
    monkeypatch.setattr(arakelov, "theta_sum",
                        lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
    argv = ["verify", "--field", files["gaussian"], "--divisor", files["div_qi"], "--what"]

    def results(what):
        code, out, _ = run(capsys, argv + [what])
        assert code == 0
        return json.loads(out)["results"]

    both = results("both")
    assert len(calls) == 2  # D and K - D, once each
    assert both["riemann_roch"] == results("rr")["riemann_roch"]
    assert both["serre_duality"] == results("duality")["serre_duality"]


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_bad_tol_is_a_usage_error(files, capsys, tol):
    for argv in (["h0", "--field", files["rational"], "--divisor", files["div0_q"]],
                 ["verify", "--field", files["gaussian"], "--divisor", files["div_qi"]],
                 ["zeta-sweep", "--steps", "3"]):
        code, out, err = run(capsys, argv + ["--tol", tol])
        assert code == 1, (argv[0], tol)
        assert out == ""
        assert "--tol" in err and "Traceback" not in err


@pytest.mark.parametrize("budget", ["-5", "0"])
def test_bad_budget_is_a_usage_error(files, capsys, budget):
    for argv in (["h0", "--field", files["rational"], "--divisor", files["div0_q"]],
                 ["h1", "--field", files["rational"], "--divisor", files["div0_q"]],
                 ["verify", "--field", files["gaussian"], "--divisor", files["div_qi"]],
                 ["zeta-sweep", "--steps", "3"]):
        code, out, err = run(capsys, argv + ["--budget", budget])
        assert code == 1, (argv[0], budget)
        assert out == ""
        assert "--budget" in err and "Traceback" not in err


@pytest.mark.parametrize("field, value", [
    pytest.param("rational", math.nan, id="nan"),
    pytest.param("rational", math.inf, id="inf"),
    # the metric weight exp(-2 x) or 2 exp(-x) overflows or underflows to 0
    pytest.param("rational", 400.0, id="q-400"),
    pytest.param("rational", -400.0, id="q-minus-400"),
    pytest.param("gaussian", 800.0, id="qi-800"),
    pytest.param("gaussian", -800.0, id="qi-minus-800"),
])
def test_non_finite_infinite_component_is_invalid(files, capsys, field, value):
    div = files["write"]("divnf.json", {"finite": [], "infinite": [value]})  # NaN, Infinity
    code, out, err = run(capsys, ["h0", "--field", files[field], "--divisor", div])
    assert code == 2
    assert out == ""
    assert "InvalidDivisor" in err


def test_verify_detects_corrupted_different(files, capsys):
    # internally consistent descriptor whose different is wrong: the covolume
    # self-check passes but duality and Riemann-Roch must fail with a clear delta
    bad = files["write"]("corrupt.json", {
        "degree": 2, "r1": 0, "r2": 1, "abs_discriminant": 4,
        "embeddings": [1.0, 0.0, 0.0, 1.0],
        "different_basis": [[1, 0], [0, 1]],
    })
    div = files["write"]("divc.json", {"finite": [], "infinite": [0.1]})
    code, out, _ = run(capsys, ["verify", "--field", bad, "--divisor", div,
                                "--tol", "1e-8"])
    assert code == 2
    report = json.loads(out)
    assert not report["pass"]
    assert report["results"]["riemann_roch"]["delta"] > 1e-3
    assert report["results"]["serre_duality"]["delta"] > 1e-3


def test_zeta_sweep_csv_symmetry(files, capsys):
    code, out, _ = run(capsys, ["zeta-sweep", "--s", "0.25", "--t-min", "-2",
                                "--t-max", "2", "--steps", "5", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,h0,h1,integrand_re,integrand_im"
    rows = [list(map(float, line.split(","))) for line in lines[1:]]
    assert len(rows) == 5
    # row(t, s) = row(-t, 1-s): at s = 0.25 compare against the 0.75 sweep
    code, out, _ = run(capsys, ["zeta-sweep", "--s", "0.75", "--t-min", "-2",
                                "--t-max", "2", "--steps", "5", "--format", "csv"])
    mirrored = [list(map(float, line.split(","))) for line in out.strip().splitlines()[1:]]
    for row in rows:
        match = next(m for m in mirrored if m[0] == -row[0])
        assert row[3] == pytest.approx(match[3], abs=1e-8)


def test_zeta_sweep_single_point(files, capsys):
    code, out, _ = run(capsys, ["zeta-sweep", "--s", "0.5", "--t-min", "0",
                                "--t-max", "0", "--steps", "1"])
    assert code == 0
    row = json.loads(out)["results"][0]
    assert row["integrand_re"] == pytest.approx(1.086434811213308, abs=1e-9)


def test_zeta_sweep_usage_errors(files, capsys):
    assert run(capsys, ["zeta-sweep", "--steps", "0"])[0] == 1
    assert run(capsys, ["zeta-sweep", "--t-min", "2", "--t-max", "-2"])[0] == 1
    assert run(capsys, ["zeta-sweep", "--s", "spam"])[0] == 2
    for argv in (["--t-min", "nan"], ["--t-max", "inf"]):
        assert run(capsys, ["zeta-sweep", "--steps", "3"] + argv)[:2] == (1, "")
    # finite, but exp(-2 t) overflows: an invalid divisor, not a traceback
    assert run(capsys, ["zeta-sweep", "--steps", "3", "--t-min", "-400"])[:2] == (2, "")
    for s in ("nan", "inf", "1+nanj"):
        for fmt in ("json", "csv"):
            code, out, err = run(capsys, ["zeta-sweep", "--steps", "3", "--s", s,
                                          "--format", fmt])
            assert (code, out) == (2, ""), (s, fmt)
            assert "--s" in err


def test_usage_error_exit_code(files, capsys):
    assert main(["no-such-command"]) == 1
    capsys.readouterr()
    assert main([]) == 1
    capsys.readouterr()
    for subgroup in ("a", "1,x", "2;1.5", "1,,0"):
        code, out, err = run(capsys, ["ghost", "quotient", files["ghost_ok"],
                                      "--subgroup", subgroup])
        assert (code, out) == (1, ""), subgroup
        assert "--subgroup" in err and "Traceback" not in err


def test_ghost_check_uniform_dimension(files, capsys):
    code, out, _ = run(capsys, ["ghost", "check", files["ghost_flat"]])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["dimension"] == pytest.approx(math.log(6), abs=1e-12)
    assert len(report["results"]["unit_subgroup"]) == 6


def test_ghost_check_invalid_exits_2(files, capsys):
    code, _, err = run(capsys, ["ghost", "check", files["ghost_bad"]])
    assert code == 2
    assert "InvalidGhostSpace" in err


def test_ghost_dual_dimensions_match(files, capsys):
    code, out, _ = run(capsys, ["ghost", "dual", files["ghost_ok"]])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["dual_mu"] == [0.75, 0.25]
    assert report["results"]["dims_match"]


def test_ghost_quotient(files, capsys):
    path = files["write"]("ghost4.json", {"cyclic_orders": [4],
                                          "u": [1.0, 0.5, 0.5, 0.5]})
    code, out, _ = run(capsys, ["ghost", "quotient", path, "--subgroup", "2"])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["quotient_orders"] == [2]
    assert report["results"]["v"] == pytest.approx([1.0, 2 / 3])
    assert report["results"]["dimension_additive"]


def test_ghost_assoc(files, capsys):
    code, out, _ = run(capsys, ["ghost", "assoc", files["ghost_ok"]])
    assert code == 0
    assert json.loads(out)["results"]["max_associativity_defect"] <= 1e-11


def test_missing_file_exits_2(files, capsys):
    code, _, err = run(capsys, ["field-info", "--field", "/nonexistent.json"])
    assert code == 2


def test_reports_are_byte_identical(files, capsys):
    battery = [
        ["field-info", "--field", files["gaussian"]],
        ["h0", "--field", files["rational"], "--divisor", files["div0_q"]],
        ["verify", "--field", files["gaussian"], "--divisor", files["div_qi"]],
        ["zeta-sweep", "--steps", "3", "--format", "csv"],
        ["ghost", "dual", files["ghost_ok"]],
    ]
    first = [run(capsys, argv)[1] for argv in battery]
    second = [run(capsys, argv)[1] for argv in battery]
    assert first == second
