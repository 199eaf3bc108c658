import json
import math

import pytest

from weylgas import cli
from weylgas import gibbsmc as mc


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out.strip().splitlines()
    return code, out


def parse2(lines):
    assert len(lines) == 2
    header, result = json.loads(lines[0]), json.loads(lines[1])
    assert set(header) == {"command", "params"}
    return header, result


def test_critical_density_happy_path(capsys):
    code, out = run(capsys, "critical-density", "--beta", "1", "--h", "1")
    assert code == 0
    header, result = parse2(out)
    assert header["command"] == "critical-density"
    assert result["rho_c"] == pytest.approx(0.1658692093130222, rel=1e-12)


def test_solve_mu_against_library(capsys):
    from weylgas import equilibrium as eq
    from weylgas import spectrum as sp
    code, out = run(capsys, "solve-mu", "--rho", "0.1", "--L", "2",
                    "--beta", "1", "--h", "1")
    assert code == 0
    _, result = parse2(out)
    box = sp.BoxSpectrum(L=2.0, nu=3, cutoff=64)
    assert result["mu"] == pytest.approx(
        eq.solve_mu_quantum(0.1, box, 1.0, 1.0), rel=1e-12)


def test_sample_gibbs_deterministic(capsys):
    args = ("sample-gibbs", "--eigenvalues", "1,2", "--beta", "1",
            "--label", "[[1,0],[0,0.5]]", "--count", "20000", "--seed", "3")
    code, out1 = run(capsys, *args)
    assert code == 0
    code2, out2 = run(capsys, *args)
    assert out1 == out2
    _, result = parse2(out1)
    spec = mc.GaussianMeasureSpec(eigenvalues=(1.0, 2.0), beta=1.0)
    closed = mc.closed_form_theta(spec, [1.0, 0.5j])
    assert result["closed_form"] == pytest.approx(closed, rel=1e-12)
    est = complex(*result["estimate"])
    assert abs(est - closed) < 5 * result["stderr"]


def test_witness_writes_csv(tmp_path, capsys):
    path = tmp_path / "w.csv"
    code, out = run(capsys, "witness", "--f", "[[1,0]]", "--h", "1.0",
                    "--n-max", "10", "--out", str(path))
    assert code == 0
    _, result = parse2(out)
    assert result["preimage_l2"][9] > 1e8
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "# schema=1"
    assert lines[1] == "k,target_l2,preimage_l2"
    assert len(lines) == 12
    row = lines[2].split(",")
    assert int(row[0]) == 1
    assert float(row[1]) > 0


def test_check_sdq_csv_columns(tmp_path, capsys):
    path = tmp_path / "sdq.csv"
    code, out = run(capsys, "check-sdq", "--f", "[[1,0]]", "--g", "[[0,1]]",
                    "--count", "5", "--out", str(path))
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "# schema=1"
    assert lines[1] == "h,dirac_residual,vonneumann_residual,rieffel_lower,rieffel_upper"
    assert len(lines) == 7
    _, result = parse2(out)
    assert result["dirac_slope"] > 0.8


def test_berezin_verify(capsys):
    code, out = run(capsys, "berezin-verify", "--lambda", "1.0", "--mu", "0.0",
                    "--h", "1.0")
    assert code == 0
    _, result = parse2(out)
    assert result["rel_err"] < 1e-8
    assert complex(*result["closed_form"]).real == pytest.approx(
        math.exp(-0.5), rel=1e-12)


def test_trace_check(capsys):
    code, out = run(capsys, "trace-check", "--s", "2", "--L", "1")
    assert code == 0
    _, result = parse2(out)
    assert result["converged"] is True
    code, out = run(capsys, "trace-check", "--s", "1", "--L", "1")
    _, result2 = parse2(out)
    assert result2["converged"] is False


def test_compute_state_json(capsys):
    state = json.dumps({"kind": "ClassicalCondensate", "beta": 1.0,
                        "alpha": 0.1, "nu": 3})
    fn = json.dumps({"nu": 3, "terms": [{"amp": [0.1, 0.0],
                                         "center": [0, 0, 0], "sigma": 1.0,
                                         "wave": [0, 0, 0]}]})
    code, out = run(capsys, "compute-state", "--state", state, "--fn", fn)
    assert code == 0
    _, result = parse2(out)
    assert result["value"] == pytest.approx(
        0.3316857104472106, rel=1e-10)
    assert result["tail_bound"] >= 0.0


def test_check_kms_analytic(capsys):
    state = json.dumps({"kind": "ClassicalInfVol", "beta": 1.0, "mu": -0.5,
                        "nu": 3})
    deriv = json.dumps({"kind": "HMinusMu", "mu": -0.5})
    f = json.dumps({"nu": 3, "terms": [{"amp": [0.2, 0.0],
                                        "center": [0.1, 0, 0], "sigma": 0.9,
                                        "wave": [0.4, 0, 0]}]})
    g = json.dumps({"nu": 3, "terms": [{"amp": [0.0, 0.15],
                                        "center": [0, 0.2, 0], "sigma": 1.1,
                                        "wave": [0, 0, 0]}]})
    code, out = run(capsys, "check-kms", "--state", state, "--deriv", deriv,
                    "--f", f, "--g", g)
    assert code == 0
    _, result = parse2(out)
    assert result["residual"] <= 1e-12


def test_validation_failures_exit_two(capsys):
    code = cli.main(["critical-density", "--beta", "1", "--h", "1", "--nu", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error" in err.lower() or err.strip()

    code = cli.main(["compute-state", "--state", "{not json", "--fn", "{}"])
    capsys.readouterr()
    assert code == 2

    with pytest.raises(SystemExit):
        cli.main(["no-such-command"])
    capsys.readouterr()


def test_certificate_failures_exit_three(capsys):
    # a box too coarse to certify its mode tail
    state = json.dumps({"kind": "QuantumBoxGibbs", "beta": 1.0, "h": 1.0,
                        "mu": 0.0, "box": {"L": 5.0, "nu": 3, "cutoff": 2}})
    fn = json.dumps({"nu": 3, "terms": [{"amp": [0.1, 0.0],
                                         "center": [0, 0, 0], "sigma": 1.0,
                                         "wave": [0, 0, 0]}]})
    code = cli.main(["compute-state", "--state", state, "--fn", fn])
    err = capsys.readouterr().err
    assert code == 3
    assert err.strip()


_FN = json.dumps({"nu": 3, "terms": [{"amp": [0.1, 0.0], "center": [0, 0, 0],
                                      "sigma": 1.0, "wave": [0, 0, 0]}]})


@pytest.mark.parametrize("argv", [
    ["critical-density", "--beta", "nan", "--h", "1"],
    ["critical-density", "--beta", "1", "--h", "inf"],
    ["compute-state", "--state", '{"kind": "ClassicalInfVol", "beta": 1, "mu": NaN}',
     "--fn", _FN],
    ["compute-state", "--state",
     '{"kind": "QuantumCondensate", "beta": 1, "h": 1, "rho_bar": NaN}', "--fn", _FN],
    ["compute-state", "--state", '{"kind": "ClassicalInfVol", "beta": Infinity, "mu": -1}',
     "--fn", _FN],
    ["compute-state", "--state", '{"beta": 1}', "--fn", _FN],
    ["compute-state", "--state", '{"kind": "ClassicalInfVol", "beta": "x", "mu": -1}',
     "--fn", _FN],
    ["compute-state", "--state", "[1]", "--fn", _FN],
    ["trace-check", "--s", "200", "--L", "100"],
    ["trace-check", "--s", "2", "--L", "1e200"],
    ["compute-state", "--state", '{"kind": "ClassicalInfVol", "beta": 1, "mu": -1}',
     "--fn", _FN.replace('"sigma": 1.0', '"sigma": NaN')],
    ["compute-state", "--state", '{"kind": "ClassicalInfVol", "beta": 1, "mu": -1}',
     "--fn", _FN.replace('"amp": [0.1, 0.0]', '"amp": [NaN, 0]')],
    ["compute-state", "--state", '{"kind": "ClassicalInfVol", "beta": 1, "mu": -1}',
     "--fn", '{"nu": 3}'],
    ["compute-state", "--state", '{"kind": "ClassicalInfVol", "beta": 1, "mu": -1}',
     "--fn", _FN.replace('"center": [0, 0, 0]', '"center": [0, 0]')],
    ["sample-gibbs", "--eigenvalues", "1,2", "--beta", "nan", "--label", "[[1,0],[0,0.5]]",
     "--count", "100", "--seed", "1"],
    ["solve-mu", "--rho", "nan", "--L", "2", "--beta", "1", "--h", "1"],
])
def test_bad_inputs_exit_two_without_traceback(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err
