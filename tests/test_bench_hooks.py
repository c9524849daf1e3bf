"""The benchmark's per-layer trace patches arithcoh functions by name, and its
ops, inputs and expected values run on the package as it stands."""

import importlib
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

from arithcoh.lattice import theta_sum

BENCH = Path(__file__).resolve().parent.parent / "bench"
SPANS = BENCH / "spans.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    names = [(module, qualname) for module, qualname, _ in spans.LAYERS + spans.COUNTED]
    assert names
    missing = []
    for module, qualname in names:
        holder = importlib.import_module(f"arithcoh.{module}")
        for part in qualname.split("."):
            holder = getattr(holder, part, None)
        if not callable(holder):
            missing.append(f"{module}.{qualname}")
    assert not missing, f"bench/spans.py patches names arithcoh no longer has: {missing}"


def test_theta_sum_keeps_the_parameters_the_trace_binds():
    # the theta span of bench/spans.py binds gram, center and tol by name
    assert {"gram", "center", "tol"} <= set(inspect.signature(theta_sum).parameters)


def test_bench_self_check_passes():
    # every workload's ops pass on their inputs, and a corrupted expected value
    # is caught: a change to arithcoh that breaks an op fails here, not only
    # as a failed benchmark run
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--self-check"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
