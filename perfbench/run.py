"""weylgas benchmark: a closed loop of certified queries from one client.

    python3 perfbench/run.py --workload box-lattice --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The workload's queries are generated from
``--seed``; the library only sees the generated inputs.  Each query is timed
on its own, then checked against an oracle (``oracles.py``); a query that
raises or fails its check counts as failed and is printed.

``--trace 0`` runs rounds until ``--seconds`` have passed and reports the
end-to-end metrics: throughput, median and tail latency, set-up time (the
median of several fresh processes that import weylgas and finish the
workload's first calls) and peak resident memory.

``--trace 1`` replays a fixed number of rounds twice, first untraced and
then with every public function of the nine modules wrapped in a span
(``tracing.py``), and reports the per-module metrics.  The fixed round
count makes the work counters repeat exactly for a given seed.  Spans are
written to ``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every query passed, 1 when one failed and 2 when the package is
missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

SETUP_PROBES = 3
TRACE_ROUNDS = {"box-lattice": 2, "continuum-thermal": 8, "algebra-phase-space": 3}
TAIL_BEYOND = 10

MODULES = ("algebra", "quantize", "testfn", "spectrum", "states", "equilibrium",
           "gibbsmc", "berezin", "cli")
HOT_SELF = ("testfn.thermal_pair", "testfn.invham_pair", "testfn.resolvent_pair",
            "testfn.axis_sine_overlaps", "spectrum.trace_h_power", "algebra.multiply",
            "berezin.berezin_matrix_element")
HOT_CALLS = ("spectrum.mode_sum", "states.weyl_expectation", "states.validate_spec",
             "states.critical_density")
WORK_COUNTS = ("algebra.multiply.term_pairs", "gibbsmc.samples",
               "spectrum.requested_lattice_points")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["box-lattice", "continuum-thermal", "algebra-phase-space"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy
    blas = {k: os.environ.get(k) for k in
            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "blas_env": blas,
            "machine": platform.machine()}


def measure_setup(workload: str) -> list[float]:
    """Wall time of fresh processes that import weylgas and run the warm-up."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        # no timeout: with one, subprocess polls the child in steps of up to 50 ms
        subprocess.run([sys.executable, str(HERE / "probe.py"), workload], cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return times


class Loop:
    """Runs queries one at a time, timing the call and then checking it."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies: list[float] = []
        self.kinds: list[str] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.round_medians: list[float] = []

    def run_round(self, queries) -> None:
        first = len(self.latencies)
        for q in queries:
            qid = self.attempted
            self.attempted += 1
            self.kinds.append(q.kind)
            try:
                t0 = perf_counter()
                if self.tracer is None:
                    out = q.run()
                else:
                    out = self.tracer.run_query(qid, q.kind, q.run)
                self.latencies.append(perf_counter() - t0)
            except Exception as exc:  # a failed query is counted, not fatal
                self.latencies.append(perf_counter() - t0)
                self.failures.append(f"{q.kind}: raised {type(exc).__name__}: {exc}")
                continue
            try:
                msg = q.check(out)
            except Exception as exc:
                msg = f"check raised {type(exc).__name__}: {exc}"
            if msg:
                self.failures.append(f"{q.kind}: {msg}")
        self.round_medians.append(statistics.median(self.latencies[first:]))

    @property
    def throughput(self) -> float:
        """Queries passed per second of busy time."""
        return (self.attempted - len(self.failures)) / sum(self.latencies)


def print_kinds(loop) -> None:
    """Per query kind: count, median latency and share of the busy time."""
    by_kind: dict = {}
    for kind, dt in zip(loop.kinds, loop.latencies):
        by_kind.setdefault(kind, []).append(dt)
    busy = sum(loop.latencies)
    for kind, dts in sorted(by_kind.items(), key=lambda kv: -sum(kv[1])):
        print(f"  {kind:42s} n={len(dts):4d}  median {1e3 * statistics.median(dts):9.3f} ms"
              f"  busy {100 * sum(dts) / busy:5.1f}%")


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(wl, seconds: float, workload: str):
    setup = measure_setup(workload)
    loop = Loop()
    start = perf_counter()
    r = 0
    while r == 0 or perf_counter() - start < seconds:
        loop.run_round(wl.round(r))
        r += 1
    print_kinds(loop)
    lat = sorted(loop.latencies)
    n = len(lat)
    tail_index = max(0, n - 1 - TAIL_BEYOND)
    print(f"rounds {r}; {n} queries in {perf_counter() - start:.1f} s wall, "
          f"{sum(lat):.2f} s busy")
    print(f"latency_tail_ms is the p{100.0 * (tail_index + 1) / n:.2f} latency: "
          f"{n - 1 - tail_index} of {n} samples lie beyond it")
    print(f"setup_s samples: {', '.join(f'{t:.3f}' for t in setup)}")
    metrics = {
        "throughput_ops_s": metric(loop.throughput, "1/s"),
        "latency_p50_ms": metric(1e3 * statistics.fmean(loop.round_medians), "ms"),
        "latency_tail_ms": metric(1e3 * lat[tail_index], "ms"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return loop.attempted, loop.failures, metrics


def traced(wl, workload: str, seed: int):
    import tracing

    rounds = TRACE_ROUNDS[workload]
    plain = Loop()
    tracer = tracing.Tracer()
    loop = Loop(tracer)
    # alternate untraced and traced passes over each round, so that drift
    # during the run does not land on one side of the overhead ratio
    for r in range(rounds):
        plain.run_round(wl.round(r))
        tracer.install()
        try:
            loop.run_round(wl.round(r))
        finally:
            tracer.uninstall()
    busy = sum(loop.latencies)
    per_fn = tracer.per_function()

    metrics = {}
    for mod in MODULES:
        rows = [v for k, v in per_fn.items() if k.split(".")[0] == mod]
        self_s = sum(v[1] for v in rows)
        metrics[f"{mod}.calls"] = metric(sum(v[0] for v in rows), "count")
        metrics[f"{mod}.self_s"] = metric(self_s, "s")
        metrics[f"{mod}.errors"] = metric(sum(v[2] for v in rows), "count")
        metrics[f"{mod}.self_share"] = metric(self_s / busy, "fraction")
    for name in HOT_SELF:
        metrics[f"{name}.self_s"] = metric(per_fn[name][1], "s")
    for name in HOT_CALLS:
        metrics[f"{name}.calls"] = metric(per_fn[name][0], "count")
    for name in WORK_COUNTS:
        metrics[name] = metric(tracer.counters[name], "count")
    solves = per_fn["equilibrium.solve_mu_quantum"][0]
    evals = tracer.calls_under("states.quantum_density", "equilibrium.solve_mu_quantum")
    metrics["equilibrium.density_evals_per_solve"] = metric(evals / solves if solves else 0.0,
                                                            "count")
    metrics["trace.spans"] = metric(len(tracer.spans), "count")
    metrics["trace.busy_s"] = metric(busy, "s")
    metrics["trace.throughput_ops_s"] = metric(loop.throughput, "1/s")
    metrics["trace.untraced_throughput_ops_s"] = metric(plain.throughput, "1/s")
    metrics["trace.overhead_ratio"] = metric(plain.throughput / loop.throughput, "ratio")

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.csv.gz"
    tracer.write(path)
    print(f"rounds {rounds}; {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    return plain.attempted + loop.attempted, plain.failures + loop.failures, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "weylgas" / "__init__.py").is_file():
        print(f"error: no weylgas package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    print(json.dumps({"environment": environment()}))
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.warmup()
    if args.trace:
        attempted, failures, metrics = traced(wl, args.workload, args.seed)
    else:
        attempted, failures, metrics = end_to_end(wl, args.seconds, args.workload)
    for line in failures:
        print(f"FAIL {line}")
    print(f"fail_ratio {len(failures) / attempted:.6g} ({len(failures)} of {attempted})")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
