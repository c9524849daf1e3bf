"""The benchmark's per-layer trace patches arithcoh functions by name."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from arithcoh.lattice import theta_sum

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


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
