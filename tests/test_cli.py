import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings, strategies as hst

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


def test_box_tail_of_a_tiny_excess_is_positive(capsys):
    # the tail excess is below 1e-16 of the truncated norm: a difference of
    # products rounds it to 0.0
    state = json.dumps({"kind": "ClassicalBoxGibbs", "beta": 1, "mu": 0.0122,
                        "box": {"L": 10, "nu": 1, "cutoff": 48}})
    fn = json.dumps({"nu": 1, "terms": [{"amp": [-0.21, -0.18], "center": [2.42],
                                         "sigma": 1.22, "wave": [-1.57]}]})
    code, out = run(capsys, "compute-state", "--state", state, "--fn", fn)
    assert code == 0
    _, result = parse2(out)
    assert result["value"] == 0.0014020886839252954
    assert result["tail_bound"] > 0.0


def test_semiclassical_scan_of_a_far_centred_function(capsys):
    fn = json.dumps({"nu": 3, "terms": [{"amp": [1, 0], "center": [1e160, 0, 0],
                                         "sigma": 1, "wave": [0, 0, 0]}]})
    state = '{"kind":"ClassicalInfVol","beta":1,"mu":-1,"nu":3}'
    code, out = run(capsys, "limit-scan", "--mode", "semiclassical",
                    "--state", state, "--fn", fn)
    assert code == 0
    _, result = parse2(out)
    assert result["rows"] == 4


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


_HUGE_INT = "1" + "0" * 400  # valid JSON and a valid int, but no float
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
    ["witness", "--f", "[[1,0]]", "--n-max", "1"],
    ["witness", "--f", "[[0,0]]", "--n-max", "5"],
    ["witness", "--f", "[[1,0]]", "--n-max", "54"],
    ["limit-scan", "--mode", "thermodynamic", "--alpha", "0.1", "--Ls", "nan", "--fn", _FN],
    ["check-sdq", "--f", "[[NaN,0]]", "--g", "[[0,1]]", "--count", "3"],
    ["witness", "--f", "[[Infinity,0]]"],
    ["sample-gibbs", "--eigenvalues", "1", "--beta", "1", "--label", "[[NaN,0]]"],
    ["berezin-verify", "--h", "nan"],
    ["berezin-verify", "--lambda", "nan"],
    ["check-kms", "--mode", "fd", "--dt", "nan",
     "--state", '{"kind": "ClassicalInfVol", "beta": 1, "mu": -1}', "--f", _FN, "--g", _FN],
    ["check-sdq", "--f", "[[1,0]]", "--g", "[[0,1]]", "--count", "1"],
    ["limit-scan", "--mode", "semiclassical", "--hs", "0.1",
     "--state", '{"kind": "ClassicalInfVol", "beta": 1, "mu": -1}', "--fn", _FN],
    ["check-sdq", "--f", "[[1,0]]", "--g", "[[0,1]]", "--hmin", "0.1", "--hmax", "0.1"],
    ["check-kms", "--mode", "fd", "--dt", "inf",
     "--state", '{"kind": "ClassicalInfVol", "beta": 1, "mu": -1}', "--f", _FN, "--g", _FN],
    ["check-kms", "--deriv", "[1]",
     "--state", '{"kind": "ClassicalInfVol", "beta": 1, "mu": -1}', "--f", _FN, "--g", _FN],
    ["check-kms", "--deriv", '{"kind": "HMinusMu", "mu": "x"}',
     "--state", '{"kind": "ClassicalInfVol", "beta": 1, "mu": -1}', "--f", _FN, "--g", _FN],
    ["check-kms", "--deriv", '{"kind": "HMinusMu", "mu": null}',
     "--state", '{"kind": "ClassicalInfVol", "beta": 1, "mu": -1}', "--f", _FN, "--g", _FN],
    ["check-kms", "--deriv", '{"kind": "HMinusMu", "mu": NaN}',
     "--state", '{"kind": "ClassicalInfVol", "beta": 1, "mu": -1}', "--f", _FN, "--g", _FN],
    ["limit-scan", "--mode", "semiclassical", "--fn", _FN],
    ["sample-gibbs", "--eigenvalues", "1,2", "--beta", "1", "--label", "[[1,0],[0,0.5]]",
     "--count", "100", "--seed", "-1"],
    ["compute-state", "--state",
     '{"kind": "ClassicalBoxGibbs", "beta": 1, "mu": 0, "box": {"L": 2, "nu": 3, "cutoff": 16}}',
     "--fn", _FN, "--tail-tol", "nan"],
    ["solve-mu", "--rho", "0.1", "--L", "2", "--beta", "1", "--h", "1", "--rel-tol", "nan"],
    ["limit-scan", "--mode", "thermodynamic", "--alpha", "0.1", "--Ls", "", "--fn", _FN],
    ["limit-scan", "--mode", "thermodynamic", "--alpha", "0.1", "--Ls", "5,5", "--fn", _FN],
    ["trace-check", "--s", "1e308", "--L", "1"],
    ["berezin-verify", "--h", "1e308"],
    ["sample-gibbs", "--eigenvalues", "1,2", "--beta", "1e308", "--label", "[[1,0],[0,0.5]]",
     "--count", "100", "--seed", "1"],
    # JSON integers too large for a float
    ["witness", "--f", f"[[{_HUGE_INT},0]]"],
    ["check-sdq", "--f", f"[[{_HUGE_INT},0]]", "--g", "[[0,1]]", "--count", "3"],
    ["sample-gibbs", "--eigenvalues", "1", "--beta", "1", "--label", f"[[{_HUGE_INT},0]]"],
    ["compute-state", "--state", '{"kind": "ClassicalInfVol", "beta": 1, "mu": -1}',
     "--fn", _FN.replace('"sigma": 1.0', f'"sigma": {_HUGE_INT}')],
    ["check-kms", "--deriv", '{"kind": "HMinusMu", "mu": %s}' % _HUGE_INT,
     "--state", '{"kind": "ClassicalInfVol", "beta": 1, "mu": -1}', "--f", _FN, "--g", _FN],
    ["witness", "--f", "[[%s,0]]" % ("1" + "0" * 5000)],
    # integer flags too large to act on
    ["check-sdq", "--f", "[[1,0]]", "--g", "[[0,1]]", "--count", _HUGE_INT],
    ["sample-gibbs", "--eigenvalues", "1,2", "--beta", "1", "--label", "[[1,0],[0,0.5]]",
     "--count", _HUGE_INT],
    ["solve-mu", "--rho", "0.1", "--L", "2", "--beta", "1", "--h", "1", "--cutoff", _HUGE_INT],
    ["trace-check", "--s", "1", "--L", "1", "--nu", _HUGE_INT],
    ["compute-state", "--state", '{"kind": "QuantumBoxGibbs", "beta": 1, "mu": -1, "h": 1, '
     '"box": {"L": 2, "nu": 3, "cutoff": %s}}' % _HUGE_INT, "--fn", _FN],
    ["witness", "--f", "[[1,0]]", "--h", "0", "--n-max", _HUGE_INT],
    # a box too large for any shell table
    ["limit-scan", "--mode", "thermodynamic", "--alpha", "0", "--Ls", "1e308,5", "--fn", _FN],
])
def test_bad_inputs_exit_two_without_traceback(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["berezin-verify", "--lambda", "1e308"],
    ["solve-mu", "--rho", "0.1", "--L", "2", "--beta", "1e308", "--h", "1", "--cutoff", "16"],
    # mu for this target rounds onto the ground energy
    ["solve-mu", "--rho", "1e300", "--L", "2", "--beta", "1", "--h", "1", "--cutoff", "16"],
    ["check-kms", "--mode", "fd", "--dt", "1e308", "--deriv", '{"kind": "HMinusMu", "mu": -1}',
     "--state", '{"kind": "ClassicalInfVol", "beta": 1, "mu": -1}', "--f", _FN, "--g", _FN],
])
def test_out_of_range_numerics_exit_three_without_traceback(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("certificate failure:")
    assert "Traceback" not in captured.err


def test_parser_is_built_once_and_reused(capsys):
    assert cli.build_parser() is cli.build_parser()
    state = ('{"kind": "QuantumBoxGibbs", "beta": 1, "h": 0.5, "mu": 0, '
             '"box": {"L": 6, "nu": 3, "cutoff": 32}}')
    argv = ["compute-state", "--state", state, "--fn", _FN]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    # neither a rejected flag value nor another subcommand leaks into the next parse
    with pytest.raises(SystemExit):
        cli.main(["compute-state", "--state", state, "--fn", _FN, "--tail-tol", "x"])
    assert cli.main(["compute-state", "--state", state, "--fn", "{", "--tail-tol", "0.5"]) == 2
    assert cli.main(["solve-mu", "--rho", "0.1", "--L", "2", "--beta", "1", "--h", "1",
                     "--cutoff", "16"]) == 0
    capsys.readouterr()
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == first


def test_nan_h_is_reported_as_hbar(capsys):
    assert cli.main(["witness", "--f", "[[1,0]]", "--h", "nan"]) == 2
    assert "hbar must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["compute-state", "--state", '{"kind": "ClassicalInfVol", "beta": 1, "mu": -1}',
     "--fn", _FN, "--rtol", "1e-12"],
    ["berezin-verify", "--nodes", "80"],
])
def test_accuracy_targets_are_not_flags(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


_STATE = '{"kind": "ClassicalInfVol", "beta": 1, "mu": -1}'
# per subcommand, each flag's valid values; the property draws one of them,
# one of _BAD or no flag at all
_VALID = {
    "compute-state": {"--state": (_STATE,), "--fn": (_FN,), "--tail-tol": ("1e-9",)},
    "solve-mu": {"--rho": ("0.1",), "--L": ("2",), "--beta": ("1",), "--h": ("1",),
                 "--nu": ("3",), "--cutoff": ("16",), "--rel-tol": ("1e-10",)},
    "check-sdq": {"--f": ("[[1,0]]",), "--g": ("[[0,1]]",), "--hmin": ("1e-3",),
                  "--hmax": ("1e-1",), "--count": ("3",)},
    "check-kms": {"--state": (_STATE,), "--deriv": ('{"kind": "HMinusMu", "mu": -1}',),
                  "--f": (_FN,), "--g": (_FN,), "--mode": ("analytic", "fd"),
                  "--dt": ("1e-3",)},
    "limit-scan": {"--mode": ("semiclassical", "thermodynamic"), "--fn": (_FN,),
                   "--state": (_STATE,), "--hs": ("0.1,0.05",), "--alpha": ("0.1",),
                   "--beta": ("1",), "--Ls": ("5,10",), "--nu": ("3",)},
    "sample-gibbs": {"--eigenvalues": ("1,2",), "--beta": ("1",),
                     "--label": ("[[1,0],[0,0.5]]",), "--count": ("100",), "--seed": ("1",)},
    "berezin-verify": {"--l": ("1",), "--lambda": ("1.0",), "--mu": ("0.0",), "--h": ("1",)},
    "critical-density": {"--beta": ("1",), "--h": ("1",), "--nu": ("3",)},
    "trace-check": {"--s": ("2",), "--L": ("1",), "--nu": ("3",), "--cutoff": ("8",)},
    "witness": {"--f": ("[[1,0]]",), "--h": ("1",), "--n-max": ("5",)},
}
_BAD = ("0", "-1", "nan", "inf", "1e308", _HUGE_INT, "{not json")


@settings(max_examples=300, deadline=None)
@given(hst.data())
def test_any_argv_exits_zero_two_or_three(data):
    command = data.draw(hst.sampled_from(sorted(_VALID)), label="command")
    argv = [command]
    for flag, valid in _VALID[command].items():
        value = data.draw(hst.sampled_from(valid + _BAD + (None,)), label=flag)
        if value is not None:
            argv += [flag, value]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
