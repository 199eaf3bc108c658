"""Seeded query streams for the three benchmark workloads.

A workload is a list of rounds.  Every round has the same fixed mix of
query slots (algebra-phase-space adds a 300x300 product to every third
round); the seed and the round number only draw the parameters, so the
cost of a round hardly depends on the seed, and the counts a round makes
(term pairs, samples, lattice points) repeat exactly for a given seed.  Each query carries the library call to time and a check against
an oracle from ``oracles.py``; a check returns None when the answer is
right and a one-line description otherwise.

* ``box-lattice`` reuses one pool of four boxes and eight test functions
  for the whole run, so many queries share a box, a cutoff and axis
  tables (a cache would be hit).
* ``continuum-thermal`` draws a fresh Gaussian mixture for every query,
  so nothing repeats (a cache would be bypassed).
* ``algebra-phase-space`` exercises the finite-dimensional layers.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import oracles as O
from weylgas import algebra as alg
from weylgas import berezin as bz
from weylgas import cli
from weylgas import equilibrium as eq
from weylgas import gibbsmc as mc
from weylgas import quantize as qz
from weylgas import spectrum as sp
from weylgas import states as st
from weylgas import testfn as tf


@dataclass
class Query:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], "str | None"]


# -- checks -----------------------------------------------------------------------

def _rel(what, got, want, tol):
    got, want = complex(got), complex(want)
    err = abs(got - want) / max(abs(want), 1e-300)
    if err <= tol:
        return None
    return f"{what}: got {got!r}, want {want!r}, rel err {err:.2e} > {tol:g}"


def _abs(what, got, want, tol):
    err = abs(complex(got) - complex(want))
    if err <= tol:
        return None
    return f"{what}: got {got!r}, want {want!r}, abs err {err:.2e} > {tol:g}"


def _first(*results):
    return next((r for r in results if r is not None), None)


def _exponent_check(what, value, want_exponent, tol):
    """Compare -log(value) with the oracle exponent, relatively."""
    if not 0.0 < value <= 1.0:
        return f"{what}: expectation {value!r} outside (0, 1]"
    return _rel(f"{what} exponent", -math.log(value), want_exponent, tol)


def _element_check(what, elem, want, atol=1e-12):
    """Compare a WeylElement with an oracle (label keys, coefficients)."""
    n = len(elem.terms)
    labels = np.array(list(elem.terms), dtype=complex).reshape(n, elem.dim)
    ints = np.rint(np.stack([labels.real, labels.imag], axis=-1) * O.GRID).astype(np.int64)
    keys = O.label_keys(ints)
    if len(np.unique(keys)) != n:
        return f"{what}: {n} labels do not stay distinct on the label grid"
    coeffs = np.fromiter(elem.terms.values(), complex, n)
    want_keys, want_coeffs = want
    _, diff = O.merge(np.concatenate([keys, want_keys]), np.concatenate([coeffs, -want_coeffs]))
    worst = float(np.max(np.abs(diff), initial=0.0))
    return None if worst <= atol else f"{what}: a coefficient is off by {worst:.2e} > {atol:g}"


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _cli_result(what, out):
    """(result dict, None) for a successful two-line reply, else (None, error)."""
    code, text = out
    if code != 0:
        return None, f"{what}: exit code {code}, want 0"
    lines = text.strip().splitlines()
    if len(lines) != 2:
        return None, f"{what}: {len(lines)} output lines, want 2"
    return json.loads(lines[1]), None


def _cli_query(kind, argv, check_result):
    def check(out):
        result, err = _cli_result(kind, out)
        return err or check_result(result)
    return Query(kind, lambda: _cli(argv), check)


# -- shared input helpers -------------------------------------------------------------

def _to_fn(terms) -> tf.TestFunction:
    return tf.TestFunction(3, tuple(
        tf.GaussTerm(complex(a), tuple(c), float(s), tuple(w)) for a, c, s, w in terms))


def _fn_json(terms) -> str:
    return json.dumps(tf.to_json_dict(_to_fn(terms)))


def _amp(rng, lo, hi):
    return complex(rng.uniform(lo, hi) * np.exp(1j * rng.uniform(0, 2 * np.pi)))


def _vec(rng, lo, hi):
    return tuple(float(v) for v in rng.uniform(lo, hi, 3))


class _Memo:
    def __init__(self):
        self._cache = {}

    def __call__(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]


# ==================================================================================
# box-lattice

BOXES = ((1.0, 24), (2.0, 32), (5.0, 48), (10.0, 64))
SCAN_LS = (5.0, 10.0, 20.0, 40.0)
ALPHAS = (0.0, 0.1, 1.0)


class BoxLattice:
    """Finite-volume queries on a fixed pool of boxes and test functions."""

    def __init__(self, seed: int):
        self.seed = seed
        self.memo = _Memo()
        rng = np.random.default_rng([seed, 0])
        # Widths scale with the box and vary little, because the cost of an
        # expectation grows with the cutoff the width needs; so does the
        # scan, whose cutoffs follow 1/sigma.
        self.fns = []  # per box: (isotropic terms, two-term mixture with waves)
        for L, _ in BOXES:
            c = rng.uniform(-0.05, 0.05) * L
            iso = [(_amp(rng, 0.1, 0.4), (c, c, c), rng.uniform(0.17, 0.18) * L, (0.0,) * 3)]
            mix = [(_amp(rng, 0.1, 0.4), _vec(rng, -0.05 * L, 0.05 * L),
                    rng.uniform(0.17, 0.18) * L, _vec(rng, -1.0 / L, 1.0 / L))
                   for _ in range(2)]
            self.fns.append((iso, mix))
        self.scan_fn = [(_amp(rng, 0.05, 0.15), (0.0, 0.0, 0.0), 1.0, (0.0,) * 3)]
        self.rhos = tuple(float(v) for v in rng.choice([0.01, 0.1, 1.0], 4))

    def round(self, r: int) -> list[Query]:
        rng = np.random.default_rng([self.seed, 1, r])
        qs: list[Query] = []
        for b, (L, C) in enumerate(BOXES):
            e0 = O.ground_energy(L)
            for terms in self.fns[b]:
                for kind in ("QuantumBoxGibbs", "ClassicalBoxGibbs") * 2:
                    beta = rng.uniform(0.5, 2.0)
                    h = rng.uniform(0.2, 1.0) if kind == "QuantumBoxGibbs" else 0.0
                    mu = e0 - rng.uniform(0.05, 1.0)
                    qs.append(self._box_tf(kind, terms, L, C, beta, h, mu))
            beta, h = rng.uniform(1.0, 2.0), rng.uniform(1.0, 2.0)
            qs.append(self._solve(self.rhos[b], L, C, beta, h))
        L, C = BOXES[r % len(BOXES)]
        qs.append(self._trace(2.0, L, C))
        L, C = BOXES[(r + 2) % len(BOXES)]
        qs.append(self._trace(1.0, L, C))
        qs.append(self._scan(ALPHAS[r % 3]))
        qs.extend(self._mode_queries(rng))
        qs.extend(self._cli_queries(rng, r))
        return qs

    # -- queries --

    def _box_tf(self, kind, terms, L, C, beta, h, mu):
        spec = st.StateSpec(kind=kind, beta=beta, h=h, mu=mu,
                            box=sp.BoxSpectrum(L=L, nu=3, cutoff=C))
        fn = _to_fn(terms)

        def check(value):
            want = O.box_expectation(kind, terms, L, C, beta, h, mu)
            return _rel(f"{kind} L={L} C={C}", value, want, 1e-8)

        return Query(f"box.{kind}.testfn", lambda: st.weyl_expectation(spec, fn), check)

    def _solve(self, rho, L, C, beta, h):
        box = sp.BoxSpectrum(L=L, nu=3, cutoff=C)

        def check(mu):
            if not mu < O.ground_energy(L):
                return f"solve: mu {mu} not below the ground energy"
            return _rel(f"solve rho={rho} L={L} round trip",
                        O.box_density(L, C, beta, h, mu), rho, 1e-10)

        return Query("box.solve_mu", lambda: eq.solve_mu_quantum(rho, box, beta, h), check)

    def _trace(self, s, L, C):
        box = sp.BoxSpectrum(L=L, nu=3, cutoff=C)

        def check(out):
            value, converged = out
            if converged != (s == 2.0):
                return f"trace s={s}: converged={converged}"
            if s == 2.0:
                return _rel(f"trace s=2 L={L}", value, O.trace_h_minus_two(L), 2e-6)
            want = self.memo(("trace", s, L, C), lambda: O.trace_partial(s, L, C))
            return _rel(f"trace s={s} L={L} C={C}", value, want, 1e-12)

        return Query(f"box.trace_h_power.s{s:g}", lambda: sp.trace_h_power(s, box), check)

    def _scan_oracle(self, alpha):
        """(condensate target, box values along SCAN_LS) at beta = 1."""
        terms = self.scan_fn
        amp, _, s, _ = terms[0]
        # <f, H^-1 f> = 4 pi^{3/2} |amp|^2 sigma^5 for one centred Gaussian
        q = 4 * math.pi ** 1.5 * abs(amp) ** 2 * s ** 5 \
            + 8.0 * alpha * abs(O.space_integral(terms)) ** 2
        values = []
        for L in SCAN_LS:
            mu = 0.0 if alpha == 0.0 else O.ground_energy(L) - 1.0 / (alpha * (2 * L) ** 3)
            cut = O.converged_cutoff(terms, L)
            values.append(O.box_expectation("ClassicalBoxGibbs", terms, L, cut, 1.0, 0.0, mu))
        return math.exp(-q / 2.0), values

    def _check_scan(self, what, alpha, errs, values=None):
        """Errors (and, when given, values) of a scan along SCAN_LS."""
        target, want = self.memo(("scan", alpha), lambda: self._scan_oracle(alpha))
        if len(errs) != len(SCAN_LS):
            return f"{what}: {len(errs)} rows"
        for i, L in enumerate(SCAN_LS):
            bad = _abs(f"{what} alpha={alpha} L={L} error", errs[i],
                       abs(want[i] - target), 1e-8 * want[i])
            if bad is None and values is not None:
                bad = _rel(f"{what} alpha={alpha} L={L} value", values[i], want[i], 1e-8)
            if bad:
                return bad
        if not all(a > b for a, b in zip(errs, errs[1:])):
            return f"{what} alpha={alpha}: errors not strictly decreasing {errs}"
        return None

    def _scan(self, alpha):
        fn = _to_fn(self.scan_fn)

        def check(rows):
            return self._check_scan("scan", alpha, [r[2] for r in rows], [r[1] for r in rows])

        return Query("box.thermodynamic_scan",
                     lambda: eq.thermodynamic_scan(alpha, 1.0, fn, list(SCAN_LS)), check)

    def _mode_queries(self, rng):
        qs = []
        L, C = BOXES[int(rng.integers(len(BOXES)))]
        box = sp.BoxSpectrum(L=L, nu=3, cutoff=C)
        e0 = O.ground_energy(L)

        def modes(keys=None):
            if keys is None:
                keys = {tuple(int(v) for v in rng.integers(1, 6, 3))
                        for _ in range(int(rng.integers(1, 5)))}
            return {k: complex(*rng.uniform(-0.5, 0.5, 2)) for k in sorted(keys)}

        for kind in ("QuantumBoxGibbs", "ClassicalBoxGibbs"):
            beta, mu = rng.uniform(0.5, 2.0), e0 - rng.uniform(0.05, 1.0)
            h = rng.uniform(0.2, 1.0) if kind == "QuantumBoxGibbs" else 0.0
            spec = st.StateSpec(kind=kind, beta=beta, h=h, mu=mu, box=box)
            f = modes()
            want = O.mode_expectation(kind, f, L, beta, h, mu)
            qs.append(Query(f"box.{kind}.modes",
                            lambda spec=spec, f=f: st.weyl_expectation(spec, f),
                            lambda v, want=want: _rel("mode expectation", v, want, 1e-13)))

        beta, h, mu = rng.uniform(0.5, 2.0), rng.uniform(0.2, 1.0), e0 - rng.uniform(0.05, 1.0)
        qspec = st.StateSpec(kind="QuantumBoxGibbs", beta=beta, h=h, mu=mu, box=box)
        f = modes()
        g = modes(set(f) | set(modes()))
        want2, scale = O.mode_two_point(f, g, L, beta, h, mu)
        qs.append(Query("box.two_point", lambda f=f, g=g: st.two_point(qspec, f, g),
                        lambda v: _abs("two_point", v, want2, 1e-14 * scale)))

        fs = [modes() for _ in range(3)]
        want_gram = O.mode_gram(fs, L, beta, h, mu)

        def check_gram(m, want=want_gram):
            if not np.allclose(m, m.conj().T, rtol=0, atol=1e-14):
                return "gram matrix not Hermitian"
            if np.linalg.eigvalsh(m).min() < -1e-12:
                return f"gram matrix not PSD: {np.linalg.eigvalsh(m).min():.2e}"
            return _first(*(_rel(f"gram[{j},{k}]", m[j, k], want[j, k], 1e-13)
                            for j in range(3) for k in range(3)))

        qs.append(Query("box.gram_matrix", lambda: st.gram_matrix(qspec, fs), check_gram))

        for mode in ("analytic", "fd"):
            beta, mu = rng.uniform(0.5, 2.0), e0 - rng.uniform(0.1, 2.0)
            cspec = st.StateSpec(kind="ClassicalBoxGibbs", beta=beta, mu=mu, box=box)
            deriv = eq.WeakDerivationSpec(kind="HMinusMu", mu=mu)
            f = modes()
            g = modes(set(f))
            if mode == "analytic":
                qs.append(Query("box.kms.analytic",
                                lambda s=cspec, d=deriv, f=f, g=g: eq.kms_residual(s, d, f, g),
                                lambda r: None if r <= 1e-12 else
                                f"box KMS residual {r:.2e} > 1e-12"))
            else:
                want = [_mode_fd_residual(f, g, L, beta, mu, dt) for dt in FD_STEPS]
                qs.append(Query(
                    "box.kms.fd",
                    lambda s=cspec, d=deriv, f=f, g=g: [
                        eq.kms_residual(s, d, f, g, mode="fd", dt=dt) for dt in FD_STEPS],
                    lambda rs, want=want: _fd_check("box fd KMS", rs, want)))
        return qs

    def _cli_queries(self, rng, r):
        qs = []
        b = r % len(BOXES)
        L, C = BOXES[b]
        rho, beta, h = self.rhos[b], rng.uniform(1.0, 2.0), rng.uniform(1.0, 2.0)

        def check_solve(res, L=L, C=C, rho=rho, beta=beta, h=h):
            return _rel("cli solve-mu round trip",
                        O.box_density(L, C, beta, h, res["mu"]), rho, 1e-10)

        qs.append(_cli_query("box.cli.solve-mu", [
            "solve-mu", "--rho", repr(rho), "--L", repr(L), "--beta", repr(beta),
            "--h", repr(h), "--cutoff", str(C)], check_solve))

        Lt = BOXES[(b + 1) % len(BOXES)][0]
        qs.append(_cli_query(
            "box.cli.trace-check",
            ["trace-check", "--s", "1", "--L", repr(Lt), "--cutoff", "60"],
            lambda res: _first(
                None if res["converged"] is False else "cli trace-check: converged",
                _rel("cli trace-check", res["partial"],
                     self.memo(("trace", 1.0, Lt, 60), lambda: O.trace_partial(1.0, Lt, 60)),
                     1e-12))))

        alpha = ALPHAS[(r + 1) % 3]
        qs.append(_cli_query(
            "box.cli.limit-scan",
            ["limit-scan", "--mode", "thermodynamic", "--alpha", repr(alpha),
             "--fn", _fn_json(self.scan_fn)],
            lambda res: _first(
                None if res["monotone"] is True else "cli limit-scan: not monotone",
                self._check_scan("cli limit-scan", alpha, res["errs"]))))

        terms = self.fns[b][0]
        beta, hq = rng.uniform(0.5, 2.0), rng.uniform(0.2, 1.0)
        mu = O.ground_energy(L) - rng.uniform(0.05, 1.0)
        state = {"kind": "QuantumBoxGibbs", "beta": beta, "h": hq, "mu": mu,
                 "box": {"L": L, "nu": 3, "cutoff": C}}
        qs.append(_cli_query(
            "box.cli.compute-state",
            ["compute-state", "--state", json.dumps(state), "--fn", _fn_json(terms)],
            lambda res: _rel("cli compute-state box", res["value"],
                             O.box_expectation("QuantumBoxGibbs", terms, L, C, beta, hq, mu),
                             1e-8)))
        return qs

    @staticmethod
    def warmup():
        box = sp.BoxSpectrum(L=1.0, nu=3, cutoff=8)
        fn = _to_fn([(0.1, (0.0, 0.0, 0.0), 0.2, (0.0, 0.0, 0.0))])
        for kind, h in (("QuantumBoxGibbs", 0.5), ("ClassicalBoxGibbs", 0.0)):
            st.weyl_expectation(st.StateSpec(kind=kind, beta=1.0, h=h, mu=0.0, box=box), fn,
                                tail_tol=math.inf)
        eq.solve_mu_quantum(0.1, box, 1.0, 1.0, rel_tol=1.0)
        sp.trace_h_power(1.0, box)
        _cli(["critical-density", "--beta", "1", "--h", "1"])


# Finite-difference steps: the residual then stands well clear of rounding
# noise, so the library's own step-halving check (which halves once more)
# certifies for all but vanishing O(dt^2) coefficients.
FD_STEPS = (4e-3, 2e-3)


def _fd_residual(sig, omega, qxx, re_qxk, qkk, beta, dt):
    def omega_at(t):
        return math.exp(-0.5 * (qxx + 2.0 * t * re_qxk + t * t * qkk))
    return abs(sig * omega - beta * (omega_at(dt) - omega_at(-dt)) / (2.0 * dt))


def _mode_fd_residual(f, g, L, beta, mu, dt):
    """Central-difference KMS residual for ClassicalBoxGibbs mode maps."""
    keys = set(f) | set(g)
    x = {n: complex(f.get(n, 0.0)) + complex(g.get(n, 0.0)) for n in keys}
    k = {n: 1j * (O.mode_energy(n, L) - mu) * complex(c) for n, c in f.items()}
    w = {n: 1.0 / (beta * (O.mode_energy(n, L) - mu)) for n in keys}
    qxx = sum(abs(x[n]) ** 2 * w[n] for n in keys)
    qxk = sum((x[n].conjugate() * k.get(n, 0.0) * w[n]).real for n in keys)
    qkk = sum(abs(k.get(n, 0.0)) ** 2 * w[n] for n in keys)
    sig = sum((complex(g.get(n, 0.0)).conjugate() * complex(f.get(n, 0.0))).imag for n in keys)
    return _fd_residual(sig, math.exp(-0.5 * qxx), qxx, qxk, qkk, beta, dt)


def _fd_check(what, got, want):
    """Both step sizes match the exact central difference, and the residual
    shrinks by the O(dt^2) Richardson factor 4 +- 0.5 when it is resolved."""
    bad = _first(*(_abs(f"{what} dt={dt}", r, w, 1e-11)
                   for dt, r, w in zip(FD_STEPS, got, want)))
    if bad or want[0] <= 1e-10:
        return bad
    ratio = got[0] / got[1]
    return None if abs(ratio - 4.0) <= 0.5 else f"{what}: Richardson ratio {ratio:.3f}"


# ==================================================================================
# continuum-thermal

HS = (0.1, 0.05, 0.025, 0.0125)
# Mixtures that go through the tau-quadrature of a resolvent or inverse-H
# pairing have at most two terms: with three or more terms the imaginary
# part of <f, S f>, which is zero, carries rounding noise, and
# testfn._quad_complex then runs to its subdivision limit, taking 1.7-4.7 s
# per query at random.  No run of this length can average that out.
CLASSICAL_TERMS = (1, 2, 2)


def _mixture(rng, n, waves=True, concentric=False):
    center = _vec(rng, -0.5, 0.5)
    return [(_amp(rng, 0.05, 0.3), center if concentric else _vec(rng, -0.5, 0.5),
             rng.uniform(0.7, 1.3), _vec(rng, -0.8, 0.8) if waves else (0.0,) * 3)
            for _ in range(n)]


class ContinuumThermal:
    """Infinite-volume queries, each on a freshly drawn Gaussian mixture."""

    SERIES_TERMS = (1, 1, 2, 2, 3, 3, 1, 2)

    def __init__(self, seed: int):
        self.seed = seed

    def round(self, r: int) -> list[Query]:
        rng = np.random.default_rng([self.seed, 2, r])
        qs: list[Query] = []
        for n in self.SERIES_TERMS:
            beta, h = rng.uniform(0.5, 2.0), rng.uniform(0.3, 1.5)
            mu = -rng.uniform(0.2, 2.0)
            qs.append(self._quantum_infvol("series", _mixture(rng, n), beta, h, mu))
        for waves in (True, False, False):
            beta, h = rng.uniform(0.5, 2.0), rng.uniform(0.3, 1.5)
            mu = -rng.uniform(2e-4, 1.5e-3) / (beta * h)
            route = "near-critical.momentum" if waves else "near-critical.radial"
            qs.append(self._quantum_infvol(route, _mixture(rng, 1, waves), beta, h, mu))
        for n, waves in ((1, True), (1, False), (2, False), (2, False)):
            beta, h = rng.uniform(0.5, 2.0), rng.uniform(0.3, 1.5)
            rho = O.critical_density(beta, h) + rng.uniform(0.05, 0.5)
            qs.append(self._quantum_condensate(_mixture(rng, n, waves, concentric=True),
                                               beta, h, rho))
        for n in CLASSICAL_TERMS:
            qs.append(self._classical("ClassicalInfVol", _mixture(rng, n),
                                      rng.uniform(0.5, 2.0), -rng.uniform(0.1, 1.5)))
        for n in (1, 2):
            qs.append(self._classical("ClassicalCondensate", _mixture(rng, n),
                                      rng.uniform(0.5, 2.0), rng.uniform(0.0, 2.0)))
        for kind in ("ClassicalInfVol", "ClassicalCondensate") * 2:
            qs.append(self._kms(rng, kind, "analytic"))
        qs.append(self._kms(rng, "ClassicalInfVol", "fd"))
        qs.append(self._semiclassical(rng, "infvol"))
        qs.append(self._semiclassical(rng, "condensate"))
        for _ in range(3):
            beta, h = rng.uniform(0.2, 3.0), rng.uniform(0.01, 10.0)
            qs.append(Query("continuum.critical_density",
                            lambda beta=beta, h=h: st.critical_density(beta, h, 3),
                            lambda v, beta=beta, h=h: _rel(
                                "critical density", v, O.critical_density(beta, h), 1e-10)))
        qs.extend(self._cli_queries(rng))
        return qs

    def _quantum_infvol(self, route, terms, beta, h, mu):
        spec = st.StateSpec(kind="QuantumInfVol", beta=beta, h=h, mu=mu, nu=3)
        fn = _to_fn(terms)
        return Query(f"continuum.QuantumInfVol.{route}",
                     lambda: st.weyl_expectation(spec, fn),
                     lambda v: _exponent_check(
                         "QuantumInfVol", v, O.quantum_infvol_exponent(terms, beta, h, mu), 1e-9))

    def _quantum_condensate(self, terms, beta, h, rho):
        spec = st.StateSpec(kind="QuantumCondensate", beta=beta, h=h, rho_bar=rho, nu=3)
        fn = _to_fn(terms)
        momentum = "momentum" if any(any(t[3]) for t in terms) else "radial"
        return Query(f"continuum.QuantumCondensate.{momentum}",
                     lambda: st.weyl_expectation(spec, fn),
                     lambda v: _exponent_check(
                         "QuantumCondensate", v,
                         O.quantum_condensate_exponent(terms, beta, h, rho), 1e-9))

    def _classical(self, kind, terms, beta, param):
        if kind == "ClassicalInfVol":
            spec = st.StateSpec(kind=kind, beta=beta, mu=param, nu=3)
            want = lambda: O.classical_infvol_exponent(terms, beta, param)
        else:
            spec = st.StateSpec(kind=kind, beta=beta, alpha=param, nu=3)
            want = lambda: O.classical_condensate_exponent(terms, beta, param)
        fn = _to_fn(terms)
        return Query(f"continuum.{kind}", lambda: st.weyl_expectation(spec, fn),
                     lambda v: _exponent_check(kind, v, want(), 1e-10))

    def _kms(self, rng, kind, mode):
        f, g = _mixture(rng, 1), _mixture(rng, 1)
        beta = rng.uniform(0.5, 2.0)
        if kind == "ClassicalInfVol":
            mu = -rng.uniform(0.1, 1.5)
            spec = st.StateSpec(kind=kind, beta=beta, mu=mu, nu=3)
            deriv = eq.WeakDerivationSpec(kind="HMinusMu", mu=mu)
        else:
            mu = 0.0
            spec = st.StateSpec(kind=kind, beta=beta, alpha=rng.uniform(0.0, 2.0), nu=3)
            deriv = eq.WeakDerivationSpec(kind="H")
        ff, gg = _to_fn(f), _to_fn(g)
        if mode == "analytic":
            return Query(f"continuum.kms.{kind}",
                         lambda: eq.kms_residual(spec, deriv, ff, gg),
                         lambda r: None if r <= 1e-12 else f"KMS residual {r:.2e} > 1e-12")

        def want():
            x = f + g
            qxx = O.resolvent_form(x, mu) / beta
            re_qxk = -O.radial_cross(x, f, lambda r: 1.0).imag / beta
            qkk = (O.radial_form(f, lambda r: r * r / 2.0) - mu * O.norm_sq(f)) / beta
            sig = O.radial_cross(g, f, lambda r: 1.0).imag
            return [_fd_residual(sig, math.exp(-0.5 * qxx), qxx, re_qxk, qkk, beta, dt)
                    for dt in FD_STEPS]

        return Query("continuum.kms.fd",
                     lambda: [eq.kms_residual(spec, deriv, ff, gg, mode="fd", dt=dt)
                              for dt in FD_STEPS],
                     lambda rs: _fd_check("continuum fd KMS", rs, want()))

    def _semiclassical(self, rng, family):
        beta = rng.uniform(0.5, 2.0)
        if family == "infvol":
            terms = _mixture(rng, 1)
            mu = -rng.uniform(0.3, 1.5)
            classical = st.StateSpec(kind="ClassicalInfVol", beta=beta, mu=mu, nu=3)
            fam = lambda h: st.StateSpec(kind="QuantumInfVol", beta=beta, h=h, mu=mu, nu=3)
            target = lambda: O.classical_infvol_exponent(terms, beta, mu)
            quantum = lambda h: O.quantum_infvol_exponent(terms, beta, h, mu)
        else:
            terms = _mixture(rng, 1, waves=False)
            alpha = rng.uniform(0.05, 0.5)
            classical = st.StateSpec(kind="ClassicalCondensate", beta=beta, alpha=alpha, nu=3)
            fam = lambda h: st.StateSpec(kind="QuantumCondensate", beta=beta, h=h, nu=3,
                                         rho_bar=O.critical_density(beta, h) + alpha / h)
            target = lambda: O.classical_condensate_exponent(terms, beta, alpha)
            quantum = lambda h: O.quantum_condensate_exponent(
                terms, beta, h, O.critical_density(beta, h) + alpha / h)
        fn = _to_fn(terms)

        def check(rows):
            nsq = O.norm_sq(terms)
            omega0 = math.exp(-target())
            errs = [e for _, e in rows]
            for (h, err) in rows:
                want = abs(math.exp(-h * nsq / 4.0 - quantum(h)) - omega0)
                bad = _abs(f"semiclassical {family} h={h}", err, want, 1e-9)
                if bad:
                    return bad
            if not all(a > b for a, b in zip(errs, errs[1:])):
                return f"semiclassical {family}: errors not decreasing {errs}"
            return None

        return Query(f"continuum.semiclassical_scan.{family}",
                     lambda: eq.semiclassical_scan(fam, classical, fn, list(HS)), check)

    def _cli_queries(self, rng):
        return [self._cli_compute_state(rng), self._cli_check_kms(rng),
                self._cli_critical_density(rng), self._cli_limit_scan(rng)]

    def _cli_compute_state(self, rng):
        terms = _mixture(rng, 2)
        beta, h, mu = rng.uniform(0.5, 2.0), rng.uniform(0.3, 1.5), -rng.uniform(0.2, 2.0)
        state = {"kind": "QuantumInfVol", "beta": beta, "h": h, "mu": mu, "nu": 3}
        return _cli_query(
            "continuum.cli.compute-state",
            ["compute-state", "--state", json.dumps(state), "--fn", _fn_json(terms)],
            lambda res: _first(
                None if res["tail_bound"] == 0.0 else "cli compute-state: nonzero tail",
                _exponent_check("cli compute-state", res["value"],
                                O.quantum_infvol_exponent(terms, beta, h, mu), 1e-9)))

    def _cli_check_kms(self, rng):
        f, g = _mixture(rng, 1), _mixture(rng, 1)
        mu = -rng.uniform(0.1, 1.5)
        state = {"kind": "ClassicalInfVol", "beta": rng.uniform(0.5, 2.0), "mu": mu, "nu": 3}
        return _cli_query(
            "continuum.cli.check-kms",
            ["check-kms", "--state", json.dumps(state),
             "--deriv", json.dumps({"kind": "HMinusMu", "mu": mu}),
             "--f", _fn_json(f), "--g", _fn_json(g)],
            lambda res: None if res["residual"] <= 1e-12 else
            f"cli check-kms residual {res['residual']:.2e} > 1e-12")

    def _cli_critical_density(self, rng):
        beta, h = rng.uniform(0.2, 3.0), rng.uniform(0.01, 10.0)
        return _cli_query(
            "continuum.cli.critical-density",
            ["critical-density", "--beta", repr(beta), "--h", repr(h)],
            lambda res: _rel("cli critical-density", res["rho_c"],
                             O.critical_density(beta, h), 1e-10))

    def _cli_limit_scan(self, rng):
        terms = _mixture(rng, 1)
        beta, mu = rng.uniform(0.5, 2.0), -rng.uniform(0.3, 1.5)
        state = {"kind": "ClassicalInfVol", "beta": beta, "mu": mu, "nu": 3}

        def check(res):
            nsq = O.norm_sq(terms)
            omega0 = math.exp(-O.classical_infvol_exponent(terms, beta, mu))
            errs = [abs(math.exp(-h * nsq / 4.0
                                 - O.quantum_infvol_exponent(terms, beta, h, mu)) - omega0)
                    for h in HS]
            slope = float(np.polyfit(np.log(HS), np.log(errs), 1)[0])
            return _first(None if res["rows"] == len(HS) else "cli limit-scan: row count",
                          _abs("cli limit-scan slope", res["slope"], slope, 1e-6),
                          None if res["slope"] >= 0.8 else
                          f"cli limit-scan slope {res['slope']:.3f} < 0.8")

        return _cli_query(
            "continuum.cli.limit-scan",
            ["limit-scan", "--mode", "semiclassical", "--state", json.dumps(state),
             "--fn", _fn_json(terms), "--hs", ",".join(repr(h) for h in HS)],
            check)

    @staticmethod
    def warmup():
        terms = [(0.1, (0.0, 0.0, 0.0), 1.0, (0.0, 0.0, 0.0))]
        fn = _to_fn(terms)
        st.weyl_expectation(st.StateSpec(kind="QuantumInfVol", beta=1.0, h=1.0, mu=-1.0), fn)
        st.weyl_expectation(st.StateSpec(kind="ClassicalInfVol", beta=1.0, mu=-1.0), fn)
        st.critical_density(1.0, 1.0, 3)
        _cli(["critical-density", "--beta", "1", "--h", "1"])


# ==================================================================================
# algebra-phase-space

PRODUCT_SIZES = (1,) * 60 + (3,) * 6 + (10,) * 4 + (30,) * 2 + (100,) * 3
# A 300x300 product runs in every third round only.  A run then holds a few
# of them, well under ten, so the tail latency (ten samples beyond it) falls
# among the many 100x100 products at a high quantile of that class; with one
# or two per round it sat at the fast end of the 300x300 class and jumped
# with the machine's fast and slow spells.
BIG_PRODUCT_EVERY = 3
SDQ_HS = tuple(float(h) for h in np.logspace(-4, -1, 10))
SWEEPS = 60


def _element(rng, n, hbar, dim=2):
    """(WeylElement, oracle form) with n distinct labels on the label grid."""
    ints = {}
    while len(ints) < n:
        lab = tuple(int(v) for v in rng.integers(-O.GRID, O.GRID + 1, 2 * dim))
        ints[lab] = complex(*rng.uniform(-1, 1, 2))
    labels = np.array(list(ints), dtype=np.int64).reshape(n, dim, 2)
    coeffs = np.array(list(ints.values()))
    terms = {tuple(complex(r / O.GRID, i / O.GRID) for r, i in row): c
             for row, c in zip(labels.tolist(), coeffs)}
    return alg.WeylElement(hbar, dim, terms), (labels, coeffs)


def _label(rng, dim, lo=-1.0, hi=1.0):
    return tuple(complex(round(a, 6), round(b, 6)) for a, b in rng.uniform(lo, hi, (dim, 2)))


def _gibbs_label(rng, eig, beta, var):
    """A mode label whose pairing <phi, u> has variance ``var``: real and
    imaginary parts of e^{i<phi,u>} then spread comparably, which keeps the
    two-dimensional 4-sigma test meaningful."""
    phi = rng.normal(size=len(eig)) + 1j * rng.normal(size=len(eig))
    cur = sum(abs(p) ** 2 / (beta * lam) for p, lam in zip(phi, eig))
    return [complex(p) for p in phi * math.sqrt(var / cur)]


class AlgebraPhaseSpace:
    """Weyl products, quantization residuals, Gibbs Monte Carlo and Berezin
    quadrature."""

    MODE_SETS = ((1.0,), (1.0, 2.0), (0.5, 1.5, 3.0), (2.0, 2.0), (0.7, 1.1, 1.9, 4.0))

    def __init__(self, seed: int):
        self.seed = seed

    def round(self, r: int) -> list[Query]:
        rng = np.random.default_rng([self.seed, 3, r])
        qs: list[Query] = []
        sizes = PRODUCT_SIZES + ((300,) if r % BIG_PRODUCT_EVERY == 0 else ())
        for n in sizes:
            h = rng.uniform(0.05, 1.0)
            a, ao = _element(rng, n, h)
            b, bo = _element(rng, n, h)
            qs.append(Query(f"algebra.multiply.{n}x{n}", lambda a=a, b=b: alg.multiply(a, b),
                            lambda e, ao=ao, bo=bo, h=h: _element_check(
                                "product", e, O.weyl_product(ao, bo, h))))
        for n in (10, 30, 100):
            a, ao = _element(rng, n, rng.uniform(0.05, 1.0))
            qs.append(Query("algebra.adjoint", lambda a=a: alg.adjoint(a),
                            lambda e, ao=ao: _element_check("adjoint", e, O.adjoint(ao))))
        for n in (1, 3, 10):
            a, ao = _element(rng, n, 0.0)
            b, bo = _element(rng, n, 0.0)
            qs.append(Query("algebra.poisson_bracket", lambda a=a, b=b: alg.poisson_bracket(a, b),
                            lambda e, ao=ao, bo=bo: _element_check(
                                "poisson", e, O.poisson(ao, bo))))
            h = rng.uniform(0.05, 1.0)
            a, ao = _element(rng, n, h)
            b, bo = _element(rng, n, h)
            qs.append(Query("algebra.scaled_commutator",
                            lambda a=a, b=b: alg.scaled_commutator(a, b),
                            lambda e, ao=ao, bo=bo, h=h: _element_check(
                                "commutator", e, O.scaled_commutator(ao, bo, h), 1e-11)))
        for _ in range(SWEEPS):
            qs.append(self._sweep(_label(rng, 2), _label(rng, 2)))
        for _ in range(2):
            a, ao = _element(rng, 30, 0.0)
            hs = sorted(float(v) for v in rng.uniform(0.0, 2.0, 10))

            def check(rows, ao=ao, hs=hs):
                for h, lo, up in rows:
                    want_lo, want_up = O.rieffel_bounds(ao, h)
                    bad = _first(_rel(f"rieffel lower h={h}", lo, want_lo, 1e-12),
                                 _rel(f"rieffel upper h={h}", up, want_up, 1e-12))
                    if bad:
                        return bad
                return None

            qs.append(Query("quantize.rieffel_profile",
                            lambda a=a, hs=hs: qz.rieffel_profile(a, hs), check))
        for _ in range(2):
            qs.append(self._witness(rng))
        for i in range(22):
            qs.append(self._characteristic(rng, self.MODE_SETS[i % 5]))
            qs.append(self._kms_mc(rng, self.MODE_SETS[i % 5]))
        for ell, count in ((1, 8), (2, 5), (3, 5)):
            for _ in range(count):
                qs.append(self._berezin(rng, ell))
        for _ in range(4):
            qs.append(self._positivity(rng))
        for _ in range(3):
            qs.append(self._overcompleteness(rng))
        qs.extend(self._cli_queries(rng))
        return qs

    def _sweep(self, f, g):
        def run():
            return [(qz.vonneumann_residual(f, g, h), qz.dirac_residual(f, g, h)) for h in SDQ_HS]

        def check(rows):
            for h, (vn, dr) in zip(SDQ_HS, rows):
                want_vn, want_dr = O.single_label_residuals(f, g, h)
                bad = _first(_abs(f"von Neumann h={h:.3g}", vn, want_vn, 1e-12 + 1e-9 * want_vn),
                             _abs(f"Dirac h={h:.3g}", dr, want_dr, 1e-12 + 1e-9 * want_dr))
                if bad:
                    return bad
            return None

        return Query("quantize.residual_sweep", run, check)

    def _witness(self, rng):
        f = _label(rng, 1, -0.7, 0.7)
        n_max, h = int(rng.integers(20, 51)), rng.uniform(0.2, 1.0)
        nsq = sum(abs(z) ** 2 for z in f)

        def check(data):
            want_t, want_p = O.witness_norms(nsq, n_max, h)
            return _first(*(_rel(f"witness target k={k+1}", got, want, 1e-12)
                            for k, (got, want) in enumerate(zip(data["target_l2"], want_t))),
                          *(_rel(f"witness preimage k={k+1}", got, want, 1e-10)
                            for k, (got, want) in enumerate(zip(data["preimage_l2"], want_p))))

        return Query("quantize.nonsurjectivity_witness",
                     lambda: qz.nonsurjectivity_witness(f, n_max, h), check)

    def _characteristic(self, rng, eig):
        beta = rng.uniform(0.5, 2.0)
        spec = mc.GaussianMeasureSpec(eigenvalues=eig, beta=beta)
        phi = _gibbs_label(rng, eig, beta, rng.uniform(1.5, 3.0))
        seed = int(rng.integers(0, 2 ** 31))
        want = O.gibbs_theta(eig, beta, phi)

        def check(out):
            est, se = out
            z = abs(est - want) / se
            return None if z < 4.0 else f"characteristic MC {z:.2f} sigma from theta"

        return Query("gibbsmc.characteristic",
                     lambda: mc.characteristic_mc(spec, phi, 100_000, seed), check)

    def _kms_mc(self, rng, eig):
        beta = rng.uniform(0.5, 2.0)
        spec = mc.GaussianMeasureSpec(eigenvalues=eig, beta=beta)
        phi1 = [complex(*rng.uniform(-0.6, 0.6, 2)) for _ in eig]
        phi2 = _gibbs_label(rng, eig, beta, rng.uniform(1.5, 3.0))
        seed = int(rng.integers(0, 2 ** 31))
        exact = O.gibbs_kms_moment(eig, beta, phi1, phi2)

        def run():
            return (mc.cylindrical_kms_mc(spec, phi1, phi2, 100_000, seed),
                    mc.kms_exact_moment(spec, phi1, phi2))

        def check(out):
            (resid, se), moment = out
            z = abs(resid) / se
            return _first(_rel("exact KMS moment", moment, exact, 1e-12),
                          None if z < 4.0 else f"cylindrical KMS MC {z:.2f} sigma from 0")

        return Query("gibbsmc.cylindrical_kms", run, check)

    def _berezin(self, rng, ell):
        h = float(rng.choice([0.5, 1.0, 2.0]))
        phi = bz.coherent_state(rng.uniform(-1, 1, ell), rng.uniform(-1, 1, ell), h)
        psi = bz.WavePacket(amp=complex(*rng.uniform(-1, 1, 2)),
                            centers=tuple(rng.uniform(-0.5, 0.5, ell)),
                            sigmas=tuple(rng.uniform(0.8, 1.4, ell)),
                            waves=tuple(rng.uniform(-1, 1, ell)))
        lam, mu = rng.uniform(-2, 2, ell), rng.uniform(-2, 2, ell)
        want = math.exp(-h * float(lam @ lam + mu @ mu) / 4.0) \
            * bz.schrodinger_matrix_element(lam, mu, phi, psi, h)
        return Query(f"berezin.matrix_element.l{ell}",
                     lambda: bz.berezin_matrix_element(lam, mu, phi, psi, h),
                     lambda v: _rel(f"Berezin element l={ell}", v, want, 1e-8))

    def _positivity(self, rng):
        coeffs = [complex(*rng.uniform(-1, 1, 2)) for _ in range(3)]
        freqs = [(0, 0), (int(rng.integers(-2, 3)), 0), (0, int(rng.integers(1, 3)))]
        sym = bz.TrigPolySymbol(coeffs, freqs)
        h = rng.uniform(0.5, 1.5)
        q0, p0 = rng.uniform(-1, 1, 2)
        v = bz.coherent_state([q0], [p0], h)
        # Husimi density of a coherent state: exp(-|(q,p) - (q0,p0)|^2 / (2h))
        want = sum(complex(c1).conjugate() * c2
                   * np.exp(1j * ((m2[0] - m1[0]) * q0 + (m2[1] - m1[1]) * p0))
                   * math.exp(-h * ((m2[0] - m1[0]) ** 2 + (m2[1] - m1[1]) ** 2) / 2.0)
                   for c1, m1 in zip(coeffs, freqs) for c2, m2 in zip(coeffs, freqs)).real
        return Query("berezin.positivity", lambda: bz.berezin_positivity(sym, v, h),
                     lambda val: _first(None if val >= -1e-8 else f"positivity {val:.2e}",
                                        _rel("positivity", val, want, 1e-8)))

    def _overcompleteness(self, rng):
        packet = bz.WavePacket(amp=rng.uniform(0.3, 1.0), centers=(rng.uniform(-0.5, 0.5),),
                               sigmas=(rng.uniform(0.8, 1.4),), waves=(rng.uniform(-1, 1),))
        h = rng.uniform(0.5, 2.0)
        closed = abs(packet.amp) ** 2 * packet.sigmas[0] * math.sqrt(math.pi)

        def check(out):
            quad, norm = out
            return _first(_rel("packet norm", norm, closed, 1e-13),
                          _abs("overcompleteness", quad, closed, 1e-8 * max(1.0, closed)))

        return Query("berezin.overcompleteness",
                     lambda: bz.overcompleteness_check(packet, h), check)

    def _cli_queries(self, rng):
        qs = []
        f, g = _label(rng, 2), _label(rng, 2)
        lab = lambda z: json.dumps([[v.real, v.imag] for v in z])

        def check_sdq(res):
            hs = np.logspace(-4, -1, 20)
            rows = [O.single_label_residuals(f, g, float(h)) for h in hs]
            vn = float(np.polyfit(np.log(hs), np.log([r[0] for r in rows]), 1)[0])
            dr = float(np.polyfit(np.log(hs), np.log([r[1] for r in rows]), 1)[0])
            return _first(None if res["rows"] == 20 else "cli check-sdq: row count",
                          _abs("cli check-sdq vonneumann slope", res["vonneumann_slope"], vn, 1e-6),
                          _abs("cli check-sdq dirac slope", res["dirac_slope"], dr, 1e-6))

        qs.append(_cli_query("algebra.cli.check-sdq",
                             ["check-sdq", "--f", lab(f), "--g", lab(g)], check_sdq))

        fw = _label(rng, 1, -0.7, 0.7)
        n_max, h = int(rng.integers(20, 51)), rng.uniform(0.2, 1.0)
        want_t, want_p = O.witness_norms(sum(abs(z) ** 2 for z in fw), n_max, h)
        qs.append(_cli_query(
            "algebra.cli.witness",
            ["witness", "--f", lab(fw), "--h", repr(h), "--n-max", str(n_max)],
            lambda res: _first(_rel("cli witness target", res["target_l2"][-1], want_t[-1], 1e-12),
                               _rel("cli witness preimage", res["preimage_l2"][-1],
                                    want_p[-1], 1e-10))))

        eig = self.MODE_SETS[int(rng.integers(5))]
        beta = rng.uniform(0.5, 2.0)
        phi = _gibbs_label(rng, eig, beta, rng.uniform(1.5, 3.0))
        theta = O.gibbs_theta(eig, beta, phi)

        def check_mc(res):
            z = abs(complex(*res["estimate"]) - theta) / res["stderr"]
            return _first(_rel("cli sample-gibbs closed form", res["closed_form"], theta, 1e-12),
                          None if z < 4.0 else f"cli sample-gibbs {z:.2f} sigma")

        qs.append(_cli_query(
            "algebra.cli.sample-gibbs",
            ["sample-gibbs", "--eigenvalues", ",".join(repr(v) for v in eig),
             "--beta", repr(beta), "--label", lab(phi),
             "--seed", str(int(rng.integers(0, 2 ** 31)))], check_mc))

        ell = int(rng.integers(1, 3))
        lam, mu, h = rng.uniform(-2, 2, ell), rng.uniform(-2, 2, ell), rng.uniform(0.5, 2.0)
        # <psi_0, W(lam, mu) psi_0> = exp(-h(|lam|^2+|mu|^2)/4) for the ground packet
        want = math.exp(-h * float(lam @ lam + mu @ mu) / 2.0)
        qs.append(_cli_query(
            "algebra.cli.berezin-verify",
            ["berezin-verify", "--l", str(ell),
             "--lambda=" + ",".join(repr(float(v)) for v in lam),
             "--mu=" + ",".join(repr(float(v)) for v in mu), "--h", repr(h)],
            lambda res: _first(None if res["rel_err"] <= 1e-8 else
                               f"cli berezin-verify rel_err {res['rel_err']:.2e}",
                               _rel("cli berezin-verify", complex(*res["quad"]), want, 1e-8))))
        return qs

    @staticmethod
    def warmup():
        a = alg.weyl((1.0, 0.5j), 0.3)
        alg.multiply(a, a)
        qz.dirac_residual((1.0,), (1j,), 0.1)
        spec = mc.GaussianMeasureSpec(eigenvalues=(1.0,), beta=1.0)
        mc.characteristic_mc(spec, [0.5], 10, 0)
        psi = bz.coherent_state([0.0], [0.0], 1.0)
        bz.berezin_matrix_element([0.5], [0.0], psi, psi, 1.0)
        _cli(["critical-density", "--beta", "1", "--h", "1"])


WORKLOADS = {
    "box-lattice": BoxLattice,
    "continuum-thermal": ContinuumThermal,
    "algebra-phase-space": AlgebraPhaseSpace,
}
