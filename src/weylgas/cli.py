"""Command-line front end.

Every invocation prints two JSON lines to stdout: first an echo of the
resolved configuration, then the result object.  Tabular output goes to
the file named by --out as CSV with a leading ``# schema=1`` comment.
Exit codes: 0 success, 2 validation problems (bad flags, malformed JSON,
out-of-domain parameters), 3 certified-numerics failures (tail or
quadrature certificates, bracket failures).
"""

from __future__ import annotations

import argparse
import cmath
import csv
import functools
import json
import math
import sys

import numpy as np

from . import algebra as alg
from . import berezin as bz
from . import equilibrium as eq
from . import gibbsmc as mc
from . import quantize as qz
from . import spectrum as sp
from . import states as st
from . import testfn as tf
from .errors import CertificateError, ValidationError, InvalidSpec, QuadratureFailure

__all__ = ["main"]

# check-sdq rows, each a few residuals of about 0.1 ms; more are refused
_MAX_ROWS = 100_000


def _parse_json(text: str, what: str):
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise InvalidSpec(f"malformed JSON for {what}: {exc}") from exc


def _parse_label(text: str) -> tuple[complex, ...]:
    data = _parse_json(text, "label")
    try:
        label = tuple(complex(re, im) for re, im in data)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidSpec("label must be [[re, im], ...]") from exc
    if not all(cmath.isfinite(z) for z in label):
        raise InvalidSpec(f"label entries must be finite, got {text!r}")
    return label


def _parse_floats(text: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise InvalidSpec(f"expected comma-separated numbers, got {text!r}") from exc
    if not all(math.isfinite(v) for v in values):
        raise InvalidSpec(f"expected finite numbers, got {text!r}")
    return values


def _emit(header: dict, result: dict) -> None:
    print(json.dumps(header, sort_keys=True))
    print(json.dumps(result, sort_keys=True))


def _write_csv(path: str, columns: list[str], rows: list[tuple]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("# schema=1\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _c2(z: complex) -> list[float]:
    return [z.real, z.imag]


def _cmd_compute_state(args) -> dict:
    spec = st.spec_from_json(_parse_json(args.state, "--state"))
    fn = tf.from_json_dict(_parse_json(args.fn, "--fn"))
    value, tail = st.weyl_expectation_with_tail(spec, fn, tail_tol=args.tail_tol)
    return {"value": value, "tail_bound": tail}


def _cmd_solve_mu(args) -> dict:
    box = sp.BoxSpectrum(L=args.L, nu=args.nu, cutoff=args.cutoff)
    mu = eq.solve_mu_quantum(args.rho, box, args.beta, args.h,
                             rel_tol=args.rel_tol)
    return {"mu": mu, "ground_energy": sp.ground_energy(args.L, args.nu)}


def _cmd_check_sdq(args) -> dict:
    f = _parse_label(args.f)
    g = _parse_label(args.g)
    if not 2 <= args.count <= _MAX_ROWS \
            or not (0 < args.hmin < math.inf and 0 < args.hmax < math.inf) \
            or args.hmin == args.hmax:
        raise InvalidSpec(f"a slope needs 2 <= --count <= {_MAX_ROWS} and distinct finite "
                          "--hmin, --hmax > 0")
    hs = np.logspace(math.log10(args.hmin), math.log10(args.hmax), args.count)
    base = alg.weyl(f) + alg.weyl(g)
    rows = []
    for h in hs:
        dr = qz.dirac_residual(f, g, float(h))
        vn = qz.vonneumann_residual(f, g, float(h))
        lo, up = alg.norm_bounds(qz.quantize(base, float(h)))
        rows.append((float(h), dr, vn, lo, up))
    if args.out:
        _write_csv(args.out, ["h", "dirac_residual", "vonneumann_residual",
                              "rieffel_lower", "rieffel_upper"], rows)
    logh = np.log([r[0] for r in rows])
    dirac_slope = float(np.polyfit(logh, np.log([max(r[1], 1e-300) for r in rows]), 1)[0])
    vn_slope = float(np.polyfit(logh, np.log([max(r[2], 1e-300) for r in rows]), 1)[0])
    return {"rows": len(rows), "dirac_slope": dirac_slope,
            "vonneumann_slope": vn_slope}


def _cmd_check_kms(args) -> dict:
    spec = st.spec_from_json(_parse_json(args.state, "--state"))
    dv = _parse_json(args.deriv, "--deriv")
    mu = dv.get("mu", 0.0) if isinstance(dv, dict) else None
    if isinstance(mu, bool) or not isinstance(mu, (int, float)):
        raise InvalidSpec(f'--deriv must be {{"kind": ..., "mu": number}}, got {args.deriv!r}')
    try:
        mu = float(mu)
    except OverflowError:
        raise InvalidSpec("--deriv mu leaves the float range") from None
    deriv = eq.WeakDerivationSpec(kind=dv.get("kind", "H"), mu=mu)
    f = tf.from_json_dict(_parse_json(args.f, "--f"))
    g = tf.from_json_dict(_parse_json(args.g, "--g"))
    residual = eq.kms_residual(spec, deriv, f, g, mode=args.mode, dt=args.dt)
    return {"residual": residual, "mode": args.mode}


def _cmd_limit_scan(args) -> dict:
    fn = tf.from_json_dict(_parse_json(args.fn, "--fn"))
    if args.mode == "thermodynamic":
        if args.alpha is None:
            raise InvalidSpec("thermodynamic mode needs --alpha")
        ls = _parse_floats(args.Ls)
        if len(set(ls)) < 2:
            raise InvalidSpec(f"a scan needs at least 2 distinct values in --Ls, got {args.Ls!r}")
        out = eq.thermodynamic_scan(args.alpha, args.beta, fn, ls, nu=args.nu)
        if args.out:
            _write_csv(args.out, ["L", "value", "err"], out)
        errs = [row[2] for row in out]
        return {"rows": len(out), "errs": errs,
                "monotone": all(a > b for a, b in zip(errs, errs[1:]))}

    if args.state is None:
        raise InvalidSpec("semiclassical mode needs --state")
    spec0 = st.spec_from_json(_parse_json(args.state, "--state"))
    hs = _parse_floats(args.hs)
    if len(set(hs)) < 2:
        raise InvalidSpec(f"a slope needs at least 2 distinct values in --hs, got {args.hs!r}")
    family = eq.quantum_family(spec0)
    out = eq.semiclassical_scan(family, spec0, fn, hs)
    if args.out:
        _write_csv(args.out, ["h", "err"], out)
    slope = float(np.polyfit(np.log([r[0] for r in out]),
                             np.log([max(r[1], 1e-300) for r in out]), 1)[0])
    return {"rows": len(out), "slope": slope}


def _cmd_sample_gibbs(args) -> dict:
    spec = mc.GaussianMeasureSpec(eigenvalues=tuple(_parse_floats(args.eigenvalues)),
                                  beta=args.beta)
    label = _parse_label(args.label)
    est, err = mc.characteristic_mc(spec, label, args.count, args.seed)
    return {"estimate": _c2(est), "stderr": err,
            "closed_form": mc.closed_form_theta(spec, label)}


def _cmd_berezin_verify(args) -> dict:
    lam = np.asarray(_parse_floats(args.lam))
    mu = np.asarray(_parse_floats(args.mu))
    if lam.size != args.l or mu.size != args.l:
        raise InvalidSpec("--lambda and --mu must have --l components")
    ground = bz.coherent_state(np.zeros(args.l), np.zeros(args.l), args.h)
    quad = bz.berezin_matrix_element(lam, mu, ground, ground, args.h)
    rate = args.h * sum(x * x for x in map(float, (*lam, *mu))) / 4.0
    if rate == math.inf:
        raise QuadratureFailure(
            f"the damping exponent h(|lambda|^2 + |mu|^2)/4 leaves the float range "
            f"at h = {args.h}, so rel_err has no finite rounding bound")
    closed = math.exp(-rate) * bz.schrodinger_matrix_element(lam, mu, ground, ground, args.h)
    rel = abs(quad - closed) / max(abs(closed), 1e-300)
    return {"quad": _c2(quad), "closed_form": _c2(closed), "rel_err": rel}


def _cmd_critical_density(args) -> dict:
    return {"rho_c": st.critical_density(args.beta, args.h, args.nu)}


def _cmd_trace_check(args) -> dict:
    spec = sp.BoxSpectrum(L=args.L, nu=args.nu, cutoff=args.cutoff)
    value, converged = sp.trace_h_power(args.s, spec)
    return {"partial": value, "converged": converged}


def _cmd_witness(args) -> dict:
    f = _parse_label(args.f)
    data = qz.nonsurjectivity_witness(f, args.n_max, args.h)
    if args.out:
        rows = list(zip(range(1, args.n_max + 1), data["target_l2"],
                        data["preimage_l2"]))
        _write_csv(args.out, ["k", "target_l2", "preimage_l2"], rows)
    return data


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged and returns a fresh namespace for every argv."""
    ap = argparse.ArgumentParser(
        prog="weylgas",
        description="Weyl algebra quantization and free Bose gas states")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute-state", help="state value on one test function")
    p.add_argument("--state", required=True, help="StateSpec JSON")
    p.add_argument("--fn", required=True, help="TestFunction JSON")
    p.add_argument("--tail-tol", type=float, default=1e-9)
    p.set_defaults(run=_cmd_compute_state)

    p = sub.add_parser("solve-mu", help="chemical potential for a target density")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--L", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--nu", type=int, default=3)
    p.add_argument("--cutoff", type=int, default=64)
    p.add_argument("--rel-tol", type=float, default=1e-10)
    p.set_defaults(run=_cmd_solve_mu)

    p = sub.add_parser("check-sdq", help="strict quantization residuals over h")
    p.add_argument("--f", required=True, help="label JSON [[re,im],...]")
    p.add_argument("--g", required=True, help="label JSON [[re,im],...]")
    p.add_argument("--hmin", type=float, default=1e-4)
    p.add_argument("--hmax", type=float, default=1e-1)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--out", help="CSV path")
    p.set_defaults(run=_cmd_check_sdq)

    p = sub.add_parser("check-kms", help="weak KMS residual of a classical state")
    p.add_argument("--state", required=True, help="StateSpec JSON (classical)")
    p.add_argument("--deriv", default='{"kind": "H"}',
                   help='derivation JSON {"kind": "H"|"HMinusMu", "mu": x}')
    p.add_argument("--f", required=True, help="TestFunction JSON")
    p.add_argument("--g", required=True, help="TestFunction JSON")
    p.add_argument("--mode", choices=["analytic", "fd"], default="analytic")
    p.add_argument("--dt", type=float, default=1e-3)
    p.set_defaults(run=_cmd_check_kms)

    p = sub.add_parser("limit-scan", help="semiclassical or thermodynamic scan")
    p.add_argument("--mode", choices=["semiclassical", "thermodynamic"],
                   required=True)
    p.add_argument("--fn", required=True, help="TestFunction JSON")
    p.add_argument("--state", help="classical target StateSpec JSON (semiclassical)")
    p.add_argument("--hs", default="0.1,0.05,0.025,0.0125",
                   help="h grid (semiclassical)")
    p.add_argument("--alpha", type=float, help="condensate weight (thermodynamic)")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--Ls", default="5,10,20,40", help="box sizes (thermodynamic)")
    p.add_argument("--nu", type=int, default=3)
    p.add_argument("--out", help="CSV path")
    p.set_defaults(run=_cmd_limit_scan)

    p = sub.add_parser("sample-gibbs", help="Monte Carlo characteristic function")
    p.add_argument("--eigenvalues", required=True, help="comma list, positive")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--label", required=True, help="label JSON [[re,im],...]")
    p.add_argument("--count", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=_cmd_sample_gibbs)

    p = sub.add_parser("berezin-verify",
                       help="phase-space integral vs Schrodinger side on the ground coherent state")
    p.add_argument("--l", type=int, default=1, help="number of axes")
    p.add_argument("--lambda", dest="lam", default="1.0", help="comma vector")
    p.add_argument("--mu", default="0.0", help="comma vector")
    p.add_argument("--h", type=float, default=1.0)
    p.set_defaults(run=_cmd_berezin_verify)

    p = sub.add_parser("critical-density", help="critical density of the gas")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--nu", type=int, default=3)
    p.set_defaults(run=_cmd_critical_density)

    p = sub.add_parser("trace-check", help="trace of H^{-s} over box modes")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--L", type=float, required=True)
    p.add_argument("--nu", type=int, default=3)
    p.add_argument("--cutoff", type=int, default=60)
    p.set_defaults(run=_cmd_trace_check)

    p = sub.add_parser("witness", help="non-surjectivity witness sequence")
    p.add_argument("--f", required=True, help="label JSON [[re,im],...]")
    p.add_argument("--h", type=float, default=1.0)
    p.add_argument("--n-max", type=int, default=10, help="number of terms, 2 to 1000")
    p.add_argument("--out", help="CSV path")
    p.set_defaults(run=_cmd_witness)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    params = {k: v for k, v in vars(args).items()
              if k not in ("run", "command") and v is not None}
    try:
        result = args.run(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CertificateError as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return 3
    _emit({"command": args.command, "params": params}, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
