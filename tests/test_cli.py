"""CLI behavior: reports, exit codes, golden-file determinism."""

import builtins
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from arithcoh import arakelov, ghost
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


def test_field_info_rejects_huge_quadratic_d_promptly(files, capsys):
    huge = files["write"]("huge.json", {"type": "quadratic", "d": 10 ** 30 + 57})
    start = time.perf_counter()
    code, out, err = run(capsys, ["field-info", "--field", huge])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "InvalidFieldSpec" in err and "2^53" in err
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


def test_h0_prime_term_reads_the_field_structure_not_its_label(files, capsys):
    gaussian_as_q = files["write"]("qi_as_q.json", {
        "degree": 2, "r1": 0, "r2": 1, "abs_discriminant": 4,
        "embeddings": [1.0, 0.0, 0.0, 1.0], "different_basis": [[2, 0], [0, 2]],
        "label": "Q"})
    code, out, err = run(capsys, ["h0", "--field", gaussian_as_q, "--divisor", files["div_qi"]])
    assert (code, out) == (2, "")
    assert "UnsupportedField" in err and "Traceback" not in err

    rationals = files["write"]("rationals.json", {
        "degree": 1, "r1": 1, "r2": 0, "abs_discriminant": 1, "embeddings": [1.0],
        "different_basis": [[1]], "label": "rationals"})
    div = files["write"]("div3q.json", {"finite": [{"p": 3, "exponent": 1}],
                                        "infinite": [0.0]})
    results = []
    for field in (rationals, files["rational"]):
        code, out, _ = run(capsys, ["h0", "--field", field, "--divisor", div])
        assert code == 0
        results.append(json.loads(out)["results"]["h0"])
    assert results[0] == results[1]


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


@pytest.mark.parametrize("what", ["rr", "duality", "both"])
def test_verify_fails_a_wrong_different_that_both_identities_miss(files, capsys, what):
    # with the different (2) of Q, h0(K - D) is below the tolerance on both
    # lattices, so Riemann-Roch and Serre duality hold, and verify passed it
    field = files["write"]("q_diff2.json", {"degree": 1, "r1": 1, "r2": 0,
                                            "abs_discriminant": 1, "embeddings": [1.0],
                                            "different_basis": [[2]]})
    div = files["write"]("div2357.json", {
        "finite": [{"p": 2, "exponent": 2}, {"p": 3, "exponent": 1},
                   {"p": 5, "exponent": -1}, {"p": 7, "exponent": 2}],
        "infinite": [0.3]})
    argv = ["--divisor", div, "--tol", "1e-8", "--what", what]
    code, out, err = run(capsys, ["verify", "--field", field, *argv])
    report = json.loads(out)
    assert (code, report["pass"]) == (2, False)
    assert all(r["passed"] for r in report["results"].values() if isinstance(r, dict))
    assert [line for line in err.splitlines() if line.startswith("error: ")] == \
        ["error: the different is not the inverse of the codifferent: its norm is 2, "
         "|disc| is 1"]
    # the same report keys as on the true different of Q
    code, good, _ = run(capsys, ["verify", "--field", files["rational"], *argv])
    assert code == 0
    assert json.loads(good).keys() == report.keys()
    assert json.loads(good)["results"].keys() == report["results"].keys()


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


def test_zeta_sweep_overflow_is_one_error_line(files, capsys):
    # finite s and t whose integrand overflows: Re(s h0 + (1-s) h1) is about
    # 1,800 at s = -5, t = -300, and 3e300 at s = 1e300, t = 3; its Im is
    # infinite at s = 1e308 i, t = 3
    for argv in (["--s=-5", "--t-min", "-300", "--t-max", "0"], ["--s", "1e300"],
                 ["--s", "1e308j"]):
        for fmt in ("json", "csv"):
            code, out, err = run(capsys, ["zeta-sweep", "--steps", "3", *argv, "--format", fmt])
            assert (code, out) == (2, ""), (argv, fmt)
            assert err.splitlines() == [line for line in err.splitlines()
                                        if line.startswith("error: InvalidDivisor: ")], err
            assert "overflows" in err and "Traceback" not in err


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
    # second kind: even, of mass 1 and positive-definite, but mu(1) < 0
    negative = files["write"]("ghostneg.json", {"cyclic_orders": [3], "mu": [1.2, -0.1, -0.1]})
    code, out, err = run(capsys, ["ghost", "check", negative])
    assert (code, out) == (2, "")
    assert "InvalidGhostSpace" in err and "negative point mass" in err


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
    code, out, err = run(capsys, ["ghost", "quotient", path, "--subgroup", "1,0"])
    assert (code, out) == (2, "")
    assert "InvalidGhostSpace" in err and "wrong rank" in err


def test_ghost_actions_check_each_u_once(files, capsys, monkeypatch):
    # ghost check validates u once, in load_ghost, and reports that check;
    # ghost quotient validates u once and the quotient's v once
    calls = []
    real = ghost.check_first_kind

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(ghost, "check_first_kind", counting)
    path = files["write"]("ghost4.json", {"cyclic_orders": [4], "u": [1.0, 0.5, 0.5, 0.5]})
    for argv, want in ((["ghost", "check", path], 1),
                       (["ghost", "quotient", path, "--subgroup", "2"], 2)):
        calls.clear()
        code, out, _ = run(capsys, argv)
        assert json.loads(out)["pass"]
        assert (code, len(calls)) == (0, want), argv


def test_ghost_actions_on_a_second_kind_descriptor(files, capsys):
    mu = files["write"]("ghostmu.json", {"cyclic_orders": [3], "mu": [0.5, 0.25, 0.25]})
    code, out, _ = run(capsys, ["ghost", "check", mu])
    assert code == 0
    assert json.loads(out)["results"] == {"kind": "second",
                                          "dimension": pytest.approx(math.log(1.5))}
    for action in ("dual", "quotient"):
        code, out, err = run(capsys, ["ghost", action, mu])
        assert (code, out) == (2, ""), action
        assert "InvalidGhostSpace" in err and "first-kind descriptors" in err


def test_ghost_actions_on_the_trivial_group(files, capsys):
    trivial = files["write"]("ghost0.json", {"cyclic_orders": [], "u": [1.0]})
    for action in ("check", "dual", "quotient", "assoc"):
        code, out, _ = run(capsys, ["ghost", action, trivial])
        assert code == 0 and json.loads(out)["pass"], action
    assert json.loads(out)["results"]["triples_checked"] == 1


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


_CUSTOM_QI = {"degree": 2, "r1": 0, "r2": 1, "abs_discriminant": 4,
              "embeddings": [1.0, 0.0, 0.0, 1.0], "different_basis": [[2, 0], [0, 2]]}


def _ideal_divisor(basis):
    return {"finite": {"ideal": {"numerator_basis": basis}}, "infinite": [0.0]}


_MALFORMED = {
    "field-d-str": ("field", {"type": "quadratic", "d": "x"}),
    "field-no-d": ("field", {"type": "quadratic"}),
    "field-list": ("field", [1]),
    "field-degree-str": ("field", {**_CUSTOM_QI, "degree": "2"}),
    "field-embeddings-str": ("field", {**_CUSTOM_QI, "embeddings": ["a"] * 4}),
    "field-embeddings-nan": ("field", {**_CUSTOM_QI, "embeddings": [math.nan, 0.0, 0.0, 1.0]}),
    "field-different-int": ("field", {**_CUSTOM_QI, "different_basis": 5}),
    "field-embeddings-short": ("field", {**_CUSTOM_QI, "embeddings": [1.0, 0.0, 0.0]}),
    "field-degree-0": ("field", {"degree": 0, "r1": 0, "r2": 0, "abs_discriminant": 1,
                                 "embeddings": [], "different_basis": []}),
    "divisor-rank-1": ("divisor", _ideal_divisor([[1, 0], [2, 0]])),
    "divisor-ragged": ("divisor", _ideal_divisor([[1, 0], [2]])),
    # rows of the wrong length: an IndexError traceback, or the extra entry dropped
    "divisor-row-short": ("divisor", _ideal_divisor([[1, 0], [0]])),
    "divisor-row-long": ("divisor", _ideal_divisor([[1, 0], [0, 1], [5, 7, 9]])),
    "field-different-row-long": ("field", {**_CUSTOM_QI, "different_basis": [[2, 0], [0, 2, 5]]}),
    # JSON true, read as the exponent 1 and x_sigma = 1.0
    "divisor-bool": ("divisor", {"finite": [{"p": 2, "exponent": True}], "infinite": [True]}),
    "divisor-zero": ("divisor", _ideal_divisor([[0, 0], [0, 0]])),
    "divisor-no-rows": ("divisor", _ideal_divisor([])),
    "divisor-basis-str": ("divisor", _ideal_divisor("x")),
    "divisor-infinite-str": ("divisor", {"finite": [], "infinite": ["a"]}),
    # JSON strings of numbers, which float() read as reals
    "divisor-infinite-digits": ("divisor", {"finite": [], "infinite": ["0.4"]}),
    "field-embeddings-digits-list": ("field", {**_CUSTOM_QI, "embeddings": ["1", "0", "0", "1"]}),
    "ghost-u-digits-list": ("ghost", {"cyclic_orders": [2], "u": ["1", "0.5"]}),
    "divisor-infinite-dict": ("divisor", {"finite": [], "infinite": {"x": 1}}),
    "divisor-p-str": ("divisor", {"finite": [{"p": "2", "exponent": 1}], "infinite": [0.0]}),
    # past the bound where primality is decided; trial division hung on it
    "divisor-p-huge": ("divisor", {"finite": [{"p": 10 ** 30 + 57, "exponent": 1}],
                                   "infinite": [0.0]}),
    "divisor-finite-str": ("divisor", {"finite": "x", "infinite": [0.0]}),
    "divisor-finite-no-ideal": ("divisor", {"finite": {}, "infinite": [0.0]}),
    **{f"divisor-denominator-{den}": (
        "divisor", {"finite": {"ideal": {"numerator_basis": [[1, 0], [0, 1]], "denominator": den}},
                    "infinite": [0.0]}) for den in (0, -2)},
    "divisor-list": ("divisor", [0.0]),
    "ghost-u-str": ("ghost", {"cyclic_orders": [2], "u": ["a", 1]}),
    "ghost-u-dict": ("ghost", {"cyclic_orders": [2], "u": {"x": 1}}),
    "ghost-u-dict-entry": ("ghost", {"cyclic_orders": [2], "u": [{}, 1]}),
    "ghost-mu-str": ("ghost", {"cyclic_orders": [2], "mu": ["a", 1]}),
    "ghost-mu-null": ("ghost", {"cyclic_orders": [2], "mu": None}),
    # nested lists, which the constructors flattened into a valid space
    "ghost-u-nested": ("ghost", {"cyclic_orders": [2], "u": [[1.0], [0.5]]}),
    "ghost-mu-nested": ("ghost", {"cyclic_orders": [2], "mu": [[0.75], [0.25]]}),
    "ghost-orders-str": ("ghost", {"cyclic_orders": "12", "u": [1.0, 0.5]}),
    "ghost-orders-float": ("ghost", {"cyclic_orders": [2.5], "u": [1.0, 0.5]}),
    "ghost-no-orders": ("ghost", {"u": [1.0, 0.5]}),
    # a 400-digit integer, beyond the float range: float() raised OverflowError
    "divisor-infinite-huge": ("divisor", {"finite": [], "infinite": [10 ** 400]}),
    "field-embeddings-huge": ("field", {**_CUSTOM_QI, "embeddings": [10 ** 400, 0, 0, 1]}),
    "ghost-u-huge": ("ghost", {"cyclic_orders": [2], "u": [1, 10 ** 400]}),
    "ghost-mu-huge": ("ghost", {"cyclic_orders": [2], "mu": [10 ** 400, 0]}),
    **{f"{kind}-{name}": (kind, content)
       for kind in ("field", "divisor", "ghost")
       for name, content in (("not-json", "{"), ("not-utf8", b'{"type": "\xff"}'),
                             ("directory", "<dir>"), ("missing", "<missing>"))},
}


@pytest.mark.parametrize("kind, content", _MALFORMED.values(), ids=_MALFORMED.keys())
def test_malformed_input_is_one_error_line(files, capsys, tmp_path, kind, content):
    path = tmp_path / f"bad_{kind}.json"
    if content == "<dir>":
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    elif isinstance(content, str):
        if content != "<missing>":
            path.write_text(content)
    else:
        path.write_text(json.dumps(content))
    path = str(path)
    if kind == "ghost":
        argvs = [["ghost", action, path] for action in ("check", "dual", "quotient", "assoc")]
    else:
        field, divisor = (path, files["div_qi"]) if kind == "field" else (files["gaussian"], path)
        argvs = [["h0", "--field", field, "--divisor", divisor],
                 ["verify", "--field", field, "--divisor", divisor]]
        if kind == "field":
            argvs.append(["field-info", "--field", field])
    for argv in argvs:
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert "Traceback" not in err
        if isinstance(content, bytes) or content == "{":
            assert f"{kind} file is not valid JSON" in err
        assert [line for line in err.splitlines() if line.startswith("error: ")] == \
            err.splitlines(), err


_STRINGS_FOR_ARRAYS = {
    "divisor-infinite-digit": ("divisor", {"finite": [], "infinite": "1"}),
    "field-embeddings-digits": ("field", {**_CUSTOM_QI, "embeddings": "1001"}),
    "ghost-u-digits": ("ghost", {"cyclic_orders": [], "u": "1"}),
    "ghost-mu-digits": ("ghost", {"cyclic_orders": [], "mu": "1"}),
}


@pytest.mark.parametrize("kind, content", _STRINGS_FOR_ARRAYS.values(),
                         ids=_STRINGS_FOR_ARRAYS.keys())
def test_json_string_for_an_array_is_one_error_line(files, capsys, tmp_path, kind, content):
    # a string of digits was read character by character as a list of reals
    test_malformed_input_is_one_error_line(files, capsys, tmp_path, kind, content)


def test_each_input_file_is_opened_once(files, capsys, monkeypatch):
    opened = Counter()
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened[str(file)] += 1
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    quotient = files["write"]("ghost4.json", {"cyclic_orders": [4], "u": [1.0, 0.5, 0.5, 0.5]})
    divisor = ["--field", files["gaussian"], "--divisor", files["div_qi"]]
    for argv in (["field-info", "--field", files["gaussian"]], ["h0", *divisor],
                 ["h1", *divisor], ["verify", *divisor],
                 ["ghost", "check", files["ghost_ok"]], ["ghost", "dual", files["ghost_ok"]],
                 ["ghost", "quotient", quotient, "--subgroup", "2"],
                 ["ghost", "assoc", files["ghost_ok"]]):
        opened.clear()
        code, _, _ = run(capsys, argv)
        assert code == 0, argv
        inputs = [a for a in argv if a.endswith(".json")]
        assert {path: opened[path] for path in inputs} == {path: 1 for path in inputs}, argv


def test_module_entry_point_matches_main(files, capsys):
    argv = ["field-info", "--field", files["gaussian"]]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-m", "arithcoh.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    code, out, _ = run(capsys, argv)
    assert code == 0 and (proc.returncode, proc.stdout) == (code, out)
    assert json.loads(out)["command"] == "field-info"


@pytest.mark.parametrize("different, ok", [([[1, 0], [0, 1]], False), ([[2, 0], [0, 2]], True)])
def test_field_info_checks_the_custom_different(files, capsys, different, ok):
    # the unit ideal as the different of Q(i) loaded, and field-info passed it
    field = files["write"]("qi_custom.json", {**_CUSTOM_QI, "different_basis": different})
    code, out, err = run(capsys, ["field-info", "--field", field])
    report = json.loads(out)
    assert (code, report["pass"]) == ((0, True) if ok else (2, False))
    assert report["results"]["different"]["norm"] == ("4" if ok else "1")
    errors = [line for line in err.splitlines() if line.startswith("error: ")]
    assert errors == ([] if ok else
                      ["error: the different is not the inverse of the codifferent: "
                       "its norm is 1, |disc| is 4"])
