"""Benchmark of arithcoh: one seeded workload per process.

    python3 bench/run.py --workload rr_quadratic --seed 1 --seconds 40 --trace 0

Builds the workload's inputs from ``--seed``, then runs passes over the
inputs until ``--seconds`` have elapsed, checking every op's output.  An
op's latency is its best time over the passes, so a spell in which the
shared machine runs slow does not move the figures (see README.md).
``setup_s`` is the median over this process and fresh processes started
at intervals during the timed phase, each timing its imports and one build
of the inputs.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it wraps
the package's public functions (see spans.py) in a separate run and reports
the per-layer metrics.  The last line of stdout is one JSON object.

``--self-check`` instead corrupts one expected value per workload and exits
non-zero unless the output checks catch it.

Each run stays in one process with one thread: BLAS/OpenMP pools are pinned
to one thread before numpy loads.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

_SRC = Path(__file__).resolve().parent.parent / "src"
if not (_SRC / "arithcoh" / "__init__.py").is_file():
    sys.stderr.write(f"error: no arithcoh sources at {_SRC}; run from a checkout\n")
    sys.exit(2)
sys.path.insert(0, str(_SRC))

from arithcoh import arakelov, cli, ghost  # noqa: E402
from arithcoh.errors import ArithcohError  # noqa: E402

import inputs  # noqa: E402
import spans  # noqa: E402

_IMPORT_S = time.perf_counter() - _START

SETUP_SAMPLES = 7  # set-ups timed per untraced run
MIN_PASSES = 3  # an op's best time needs a few tries
# generation order groups ops of similar cost; stepping through it by the
# golden ratio spreads each group over the whole pass, so a latency quantile
# samples the whole run rather than one slow spell of the machine
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
RR_TOL = 1e-8  # identity tolerance of the acceptance suite
GHOST_TOL = 1e-12  # dimension identities
ASSOC_TOL = 1e-11  # check_associativity's default


# ---------------------------------------------------------------------------
# ops: each returns True when every output check holds


def op_rr_quadratic(case) -> bool:
    D = case.divisor
    rr = arakelov.verify_riemann_roch(D, RR_TOL)
    sd = arakelov.verify_serre_duality(D, RR_TOL)
    return rr.passed and sd.passed and abs(rr.lhs - case.expected) <= RR_TOL


def op_rr_cyclotomic8(case) -> bool:
    D = case.divisor
    rr = arakelov.verify_riemann_roch(D, RR_TOL)
    v = arakelov.effectivity_v(D, case.shift, RR_TOL)
    return rr.passed and abs(rr.lhs - case.expected) <= RR_TOL and 0.0 < v <= 1.0 + RR_TOL


class ZetaOp:
    """One zeta-sweep CLI call; stdout must repeat byte for byte per window."""

    def __init__(self):
        self.first_stdout: dict[tuple[str, ...], str] = {}

    def __call__(self, case) -> bool:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(case.argv))
        text = out.getvalue()
        if code != 0 or text != self.first_stdout.setdefault(case.argv, text):
            return False
        rows = [[float(x) for x in line.split(",")] for line in text.splitlines()[1:]]
        if len(rows) != case.steps:
            return False
        # Jacobi: h0(t) - h0(-t) = t; the grid is symmetric up to rounding of t
        for (t, h, *_), (t_neg, h_neg, *_) in zip(rows, reversed(rows)):
            if abs(h - h_neg - t - case.expected) > RR_TOL + abs(t + t_neg):
                return False
        return True


def op_ghost_suite(case) -> bool:
    s = case.structure
    if case.kind == "first":
        if not ghost.check_first_kind(s.group, s.u).passed:
            return False
        dual_defect = ghost.dim_first(s) - ghost.dim_second(ghost.dual_ghost(s))
        if abs(dual_defect - case.expected) > GHOST_TOL:
            return False
    elif case.kind == "quotient":
        s = ghost.quotient_by_ghost(s.group, s.u)
        additivity = ghost.dim_first(case.structure) + ghost.dim_second(s)
        if abs(additivity - case.expected) > GHOST_TOL:
            return False
    report = ghost.check_associativity(s, ASSOC_TOL)
    if case.kind == "mixed" and abs(report.max_associativity_defect - case.expected) > ASSOC_TOL:
        return False
    return report.passed


WORKLOADS = {
    "rr_quadratic": (inputs.rr_quadratic, lambda: op_rr_quadratic),
    "rr_cyclotomic8": (inputs.rr_cyclotomic8, lambda: op_rr_cyclotomic8),
    "zeta_q_cli": (inputs.zeta_q_cli, ZetaOp),
    "ghost_suite": (inputs.ghost_suite, lambda: op_ghost_suite),
}


# ---------------------------------------------------------------------------
# runner


def attempt(op, case) -> bool:
    """Run one op; a raised error is a failed op, not the end of the run."""
    try:
        return bool(op(case))
    except ArithcohError as exc:
        sys.stderr.write(f"op failed: {type(exc).__name__}: {exc}\n")
    except Exception:  # a bug in the program is a failed op too
        traceback.print_exc(file=sys.stderr)
    return False


def set_up(name: str, seed: int):
    """The inputs, in pass order, and this process's set-up time."""
    start = time.perf_counter()
    cases = WORKLOADS[name][0](random.Random(seed))
    cases = [cases[i] for i in sorted(range(len(cases)), key=lambda i: i * GOLDEN % 1.0)]
    return cases, _IMPORT_S + time.perf_counter() - start


class SetUpSamples:
    """This process's set-up time, then one of a fresh process every
    ``seconds / SETUP_SAMPLES``.

    Called between ops of the timed phase, so the samples spread over the
    run like the op latencies do; each fresh process runs ``--setup-only``.
    """

    def __init__(self, name: str, seed: int, first_s: float, seconds: float):
        self.argv = [sys.executable, __file__, "--setup-only", "--workload", name,
                     "--seed", str(seed)]
        self.samples = [first_s]
        self.every = seconds / SETUP_SAMPLES

    def __call__(self, elapsed: float) -> None:
        if len(self.samples) < SETUP_SAMPLES and elapsed >= len(self.samples) * self.every:
            proc = subprocess.run(self.argv, capture_output=True, text=True, timeout=120)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up process exited {proc.returncode}:\n{proc.stderr}")
            self.samples.append(float(proc.stdout))


def timed_passes(cases, op, seconds: float, tracer=None, between=None):
    """Passes over the cases until ``seconds`` have elapsed.

    Untraced, the last pass stops when the time is up, once MIN_PASSES
    passes are whole; traced, every pass is whole, because the per-layer
    metrics are per pass.  ``between(elapsed)``, if given, runs before each
    op, outside its latency.  Returns each case's latencies (one per pass it
    ran in), the failed op count and the wall time.
    """
    latencies: list[list[float]] = [[] for _ in cases]
    failed = 0
    start = time.perf_counter()
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() - start < seconds:
        for case, times in zip(cases, latencies):
            if tracer is not None:
                tracer.begin_op()
            elif passes >= MIN_PASSES and time.perf_counter() - start >= seconds:
                break
            if between is not None:
                between(time.perf_counter() - start)
            t = time.perf_counter()
            failed += not attempt(op, case)
            times.append(time.perf_counter() - t)
        passes += 1
    return latencies, failed, time.perf_counter() - start


def best_ms(latencies) -> list[float]:
    """Each op's best latency over the passes, in ms, sorted."""
    return sorted(1000.0 * min(times) for times in latencies)


def end_to_end(latencies, setup_s) -> dict[str, tuple[float, str]]:
    ms = best_ms(latencies)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (1000.0 * len(ms) / math.fsum(ms), "1/s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_p90_ms": (statistics.quantiles(ms, n=10)[8], "ms"),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    cases, setup_s = set_up(name, seed)
    op = WORKLOADS[name][1]()
    tracer = set_ups = None
    if trace:
        tracer = spans.Tracer()
        patches = spans.install(tracer)
    else:
        set_ups = SetUpSamples(name, seed, setup_s, seconds)
    try:
        latencies, failed, wall = timed_passes(cases, op, seconds, tracer, set_ups)
    finally:
        if trace:
            spans.restore(patches)
    passes = len(latencies[-1])
    attempted = sum(map(len, latencies))
    if trace:
        tracer.measure_peaks()
        ops_per_s = 1000.0 * len(cases) / math.fsum(best_ms(latencies))
        metrics = tracer.metrics(wall, ops_per_s, passes)
        self_total = sum(tracer.self_s.values())
        print(f"# trace accounting: layer self times {self_total:.4f} s + outside spans "
              f"{wall - tracer.covered_s:.4f} s = traced wall {wall:.4f} s "
              f"(metrics below are per pass)")
    else:
        metrics = end_to_end(latencies, statistics.median(set_ups.samples))
    print(f"# {name} seed={seed} trace={int(trace)}: {passes} passes of {len(cases)} ops, "
          f"ops_attempted {attempted}, ops_failed {failed}")
    for key, (value, unit) in metrics.items():
        print(f"{key:<34} {value:>16.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def self_check(seed: int, ops_per_workload: int = 2) -> bool:
    """Each workload must fail exactly the op whose expected value is corrupted."""
    ok = True
    for name, (build, make_op) in WORKLOADS.items():
        # |expected| grows with an op's cost in the divisor and ghost workloads
        cases = sorted(build(random.Random(seed)), key=lambda c: abs(c.expected))
        cases = cases[:ops_per_workload]
        op = make_op()
        clean = sum(not attempt(op, c) for c in cases)
        bad = [dataclasses.replace(cases[0], expected=cases[0].expected + 1.0)] + cases[1:]
        corrupted = sum(not attempt(make_op(), c) for c in bad)
        caught = clean == 0 and corrupted == 1
        print(f"# self-check {name}: ops_failed {clean} clean, {corrupted} with one "
              f"corrupted expected value -> {'caught' if caught else 'MISSED'}")
        ok = ok and caught
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="print this process's set-up time in s and exit")
    args = parser.parse_args(argv)
    if args.self_check:
        return 0 if self_check(args.seed) else 1
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_only:
        print(repr(set_up(args.workload, args.seed)[1]))
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
