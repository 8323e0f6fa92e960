"""Command-line interface: golden outputs, exit codes, determinism."""
import json
from pathlib import Path

import pytest

from biorth.cli import main

POLY_JACOBI_GOLDEN = """\
{
  "f": [
    "1",
    "-6",
    "6"
  ],
  "p": [
    "1",
    "-6",
    "6"
  ],
  "path": "mixed-basis",
  "qtilde": null,
  "lambda": null,
  "residuals": [
    "0",
    "0"
  ],
  "warnings": []
}
"""

SWEEP_CSV_GOLDEN = """\
n,mu_1,mu_2,mu_3,f_0,f_1,f_2,f_3
0,,,,1,,,
1,1,,,-1,2,,
2,1,2,,1,-6,6,
3,1,2,3,-1,12,-30,20
"""

POLY_CSV_GOLDEN = """\
key,value
f,1;-6;6
p,1;-6;6
path,mixed-basis
qtilde,
lambda,
residuals,0;0
warnings,
"""


STEPS_CONFIG = {"name": "steps", "kind": "polynomial",
                "basis": "pochhammer-3", "a": ["1", "-1"], "b": ["1"],
                "c": ["1"], "d": ["3", "-1"], "support": "(0,1)"}

# a = 0,0,0,1; b = 0,-1; c = 1; d = 0: a cubic indicial equation whose
# roots are rational at mu = 5/2 and irrational at mu = 1/2
CUBIC_CONFIG = {"name": "cubic", "kind": "polynomial",
                "basis": "pochhammer-3", "a": ["0", "0", "0", "1"],
                "b": ["0", "-1"], "c": ["1"], "d": ["0"],
                "support": "(0,1)"}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_poly_golden(capsys):
    code, out, err = run(capsys, "poly", "--family", "jacobi", "--mu", "1,2")
    assert code == 0
    assert err == ""
    assert out == POLY_JACOBI_GOLDEN


def test_hyper_bessel_golden(capsys):
    code, out, _ = run(capsys, "hyper", "--family", "bessel-case",
                       "--mu", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["s"] == 2
    assert payload["roots"] == ["-1", "2"]
    assert payload["theta"] == "2"
    assert (payload["s1"], payload["s2"]) == (0, 2)
    assert payload["upper"] == []
    assert payload["lower"] == ["4"]
    assert payload["nu"] == "4"
    # y_n = 4^n / (n! (4)_n)
    assert payload["series"] == [
        "1", "1", "2/5", "4/45", "4/315", "2/1575", "4/42525",
        "8/1488375", "4/16372125", "4/442047375"]


def test_ode_jacobi_golden(capsys):
    code, out, _ = run(capsys, "ode", "--family", "jacobi", "--mu", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["s"] == 1
    assert payload["p"] == ["1", "-1"]
    assert payload["q"] == ["1", "-1"]
    assert payload["linear"] == {
        "sigma": ["-1", "-1"], "rho": ["1", "1"], "e1": "1", "e2": "0"}


def test_poly_degree_zero(capsys):
    code, out, _ = run(capsys, "poly", "--family", "jacobi")
    assert code == 0
    payload = json.loads(out)
    assert payload["f"] == ["1"]
    assert payload["path"] == "divided-difference"
    assert payload["qtilde"] == ["1"]
    assert payload["residuals"] == []


def test_poly_leading_one(capsys):
    code, out, _ = run(capsys, "poly", "--family", "jacobi", "--mu", "1,2",
                       "--normalization", "leading-one")
    assert code == 0
    assert json.loads(out)["f"] == ["1/6", "-1", "1"]


def test_sweep_csv_layout(capsys):
    code, out, _ = run(capsys, "sweep", "--family", "jacobi",
                       "--mu", "1,2,3", "--output", "csv")
    assert code == 0
    assert out == SWEEP_CSV_GOLDEN


def test_csv_key_value_fallback(capsys):
    code, out, _ = run(capsys, "poly", "--family", "jacobi", "--mu", "1,2",
                       "--output", "csv")
    assert code == 0
    assert out == POLY_CSV_GOLDEN


def test_moments_float_mode(capsys):
    code, out, _ = run(capsys, "moments", "--family", "jacobi",
                       "--mu", "2", "--n", "3", "--mode", "float")
    assert code == 0
    row = json.loads(out)["moments"][0]
    assert row["mu"] == 2.0
    values = row["values"]
    assert all(isinstance(v, float) for v in values)
    # m_n(2) = 2/(2+n)
    assert values == pytest.approx([1.0, 2.0 / 3.0, 0.5, 0.4], rel=1e-15)


def test_moments_exact_mode(capsys):
    code, out, _ = run(capsys, "moments", "--family", "jacobi",
                       "--mu", "3/2", "--n", "2")
    assert code == 0
    row = json.loads(out)["moments"][0]
    assert row["mu"] == "3/2"
    assert row["values"] == ["1", "3/5", "3/7"]


def test_exit_code_missing_family(capsys):
    code, out, err = run(capsys, "poly", "--family", "nothere", "--mu", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_exit_code_bad_mu(capsys):
    code, _, err = run(capsys, "poly", "--family", "jacobi", "--mu", "pi")
    assert code == 2
    assert "rational" in err


def test_exit_code_repeated_mu(capsys):
    code, _, err = run(capsys, "poly", "--family", "jacobi", "--mu", "1,1")
    assert code == 3
    assert "DegenerateMu" in err


def test_exit_code_gate_failure(capsys):
    # theta = mu - 1 = 0 fails the unit gate at mu = 1
    code, _, err = run(capsys, "hyper", "--family", "jacobi", "--mu", "1")
    assert code == 3
    assert "unit gate" in err


def test_exit_code_bad_command():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate", "--family", "jacobi"])
    assert info.value.code == 2


def test_sweep_last_factor_pole_exits_3(capsys):
    # h_4(mu) = mu + 5 vanishes at mu = -5: m_5 has a pole there although
    # the determinant's entries m_0..m_4 do not, so the n = 5 row must not
    # come out as a degree-4 polynomial with f_5 = 0
    mu = "19/4,21/2,5/3,17/3,-5"
    for command in ("sweep", "poly"):
        code, out, err = run(capsys, command, "--family", "jacobi",
                             "--mu", mu, "--output", "csv")
        assert code == 3
        assert out == ""
        assert "denominator factor 4 vanishes" in err


def test_sweep_needs_enough_mu(capsys):
    code, _, err = run(capsys, "sweep", "--family", "jacobi",
                       "--mu", "1,2", "--n", "5")
    assert code == 2
    assert "sweep" in err


def test_verify_jacobi(capsys):
    code, out, _ = run(capsys, "verify", "--family", "jacobi", "--n", "3")
    assert code == 0
    payload = json.loads(out)
    names = [c["name"] for c in payload["checks"]]
    # per degree: path equivalence and orthogonality; two quadrature mus
    assert names.count("path-equivalence") == 3
    assert names.count("orthogonality") == 3
    assert names.count("quadrature") == 2
    assert payload["failed"] == 0
    assert payload["passed"] == 8
    assert all(c["passed"] for c in payload["checks"])
    # the jacobi nodes never satisfy the product-system hypotheses
    assert any("node hypotheses fail" in w for w in payload["warnings"])


def test_verify_power_weight_float(capsys):
    code, out, _ = run(capsys, "verify", "--family", "power-weight",
                       "--n", "2", "--mode", "float", "--seed", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["failed"] == 0
    assert any(c["name"] == "quadrature" for c in payload["checks"])


def test_verify_float_close_mu_uses_exact_oracle(tmp_path, capsys):
    # seed 2 draws mu 5.044581 and 5.051013 at n = 4 on steps; the float
    # null space of the moment matrix was 1.2e-8 off and failed the
    # 1e-8 path-equivalence check although auto was right to 2e-16
    path = tmp_path / "steps.json"
    path.write_text(json.dumps(STEPS_CONFIG))
    code, out, _ = run(capsys, "verify", "--family", str(path), "--n", "4",
                       "--seed", "2", "--mode", "float")
    assert code == 0
    payload = json.loads(out)
    assert payload["failed"] == 0
    assert [c["name"] for c in payload["checks"]].count(
        "path-equivalence") == 4


def test_verify_no_weight_form(capsys):
    code, out, _ = run(capsys, "verify", "--family", "bessel-case",
                       "--n", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["checks"] == []
    assert any("no weight_form" in w for w in payload["warnings"])
    assert any("skipped" in w for w in payload["warnings"])


def test_determinism(capsys):
    first = run(capsys, "verify", "--family", "jacobi", "--n", "4",
                "--seed", "3")
    second = run(capsys, "verify", "--family", "jacobi", "--n", "4",
                 "--seed", "3")
    assert first == second


def test_family_from_path(tmp_path, capsys):
    path = tmp_path / "steps.json"
    path.write_text(json.dumps(STEPS_CONFIG))
    code, out, _ = run(capsys, "poly", "--family", str(path),
                       "--mu", "1,2,3")
    assert code == 0
    payload = json.loads(out)
    assert payload["path"] == "divided-difference"
    assert payload["f"] == ["1", "-85/21", "101/21", "-44/21"]
    assert payload["qtilde"] == ["1", "4/21", "15/154", "14/209"]
    assert payload["lambda"] == ["-1", "-2", "-3", "-4"]


def test_auto_path_covers_table_with_exactly_n_rows(tmp_path, capsys):
    # two rows are all that degree 2 needs; only the divided-difference
    # route asks for row 2 (the node lambda_2), so auto falls back
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"kind": "explicit-table", "table": [
        ["1", "1", "2", "3"], ["2", "1", "3", "5"]]}))
    code, out, _ = run(capsys, "poly", "--family", str(path), "--mu", "1,2")
    assert code == 0
    payload = json.loads(out)
    assert payload["path"] == "mixed-basis"
    assert payload["f"] == ["3", "-72/7", "52/7"]
    code, out, _ = run(capsys, "sweep", "--family", str(path), "--mu", "1,2",
                       "--output", "csv")
    assert code == 0
    assert out.splitlines()[-1] == "2,1,2,3,-72/7,52/7"
    code, _, err = run(capsys, "poly", "--family", str(path), "--mu", "1,2",
                       "--path", "divided-difference")
    assert code == 2
    assert "explicit table covers n < 2, got n = 2" in err


def test_explicit_path_flag(capsys):
    code, out, _ = run(capsys, "poly", "--family", "jacobi", "--mu", "1,2",
                       "--path", "oracle")
    assert code == 0
    payload = json.loads(out)
    assert payload["path"] == "oracle"
    assert payload["f"] == ["1", "-6", "6"]


def test_hyper_exact_irrational_theta_names_float_fields(tmp_path, capsys):
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps(CUBIC_CONFIG))
    code, out, _ = run(capsys, "hyper", "--family", str(path),
                       "--mu", "1/2")
    assert code == 0
    payload = json.loads(out)
    assert payload["theta"] == "1.7720018726587656"
    assert payload["warnings"] == [
        "roots, theta, lower, series: float values, not exact rationals"]
    # all-rational theta: no warning, output as captured before the
    # warning existed
    code, out, _ = run(capsys, "hyper", "--family", str(path),
                       "--mu", "5/2")
    assert code == 0
    golden = Path(__file__).resolve().parent / "golden"
    assert out == (golden / "hyper_cubic_exact.json").read_text()
    # float mode states its mode already and gets no warning
    code, out, _ = run(capsys, "hyper", "--family", str(path),
                       "--mu", "1/2", "--mode", "float")
    assert code == 0
    assert json.loads(out)["warnings"] == []
