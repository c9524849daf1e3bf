"""Bit-for-bit comparison with the golden corpus in tests/golden.

A change that moves an output on purpose rewrites the corpus with
``python tests/golden/regenerate.py`` and states in CHANGES.md what
``--diff`` reported before: the changed-record count and the largest |delta|.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from golden import regenerate
from golden.regenerate import FAMILIES, load, outputs


@pytest.mark.parametrize("family", FAMILIES)
def test_golden_corpus(family):
    corpus = load()
    expected = [rec["out"] for rec in corpus[family]]
    got = outputs(corpus, family)
    changed = [i for i, (a, b) in enumerate(zip(expected, got)) if a != b]
    assert len(got) == len(expected)
    assert not changed, (f"{len(changed)} {family} records changed, first {changed[:5]}: "
                         f"{expected[changed[0]]} -> {got[changed[0]]}")


def test_diff_exit_code_gates_on_changed_records(monkeypatch, capsys):
    monkeypatch.setattr(regenerate, "FAMILIES", ("zeta",))
    assert regenerate.main(["--diff"]) == 0
    assert capsys.readouterr().out == "zeta: 0 of 1 records changed\n"

    def load_moved():
        corpus = load()
        corpus["zeta"][0]["out"][0][0] = "0x1.0p+0"
        return corpus

    monkeypatch.setattr(regenerate, "load", load_moved)
    assert regenerate.main(["--diff"]) == 1
    assert capsys.readouterr().out.startswith("zeta: 1 of 1 records changed")


# an AVX2-only CPU's kernels, in this process only: OpenBLAS's Haswell
# kernels and numpy's dispatch without AVX-512
KERNEL_SWITCH = {"OPENBLAS_CORETYPE": "Haswell",
                 "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}


def test_golden_h_and_cli_records_do_not_depend_on_the_cpu_kernels():
    # from the ideal to the Cholesky factor every step runs in fixed-order
    # Python floats, so the h and cli records, made with the default
    # kernels, come out bit for bit under the switch too
    env = {**os.environ, **KERNEL_SWITCH}
    probe = subprocess.run([sys.executable, "-c", "import numpy"], env=env,
                           capture_output=True, text=True)
    if probe.returncode != 0:
        pytest.skip(f"numpy does not start under {KERNEL_SWITCH}: "
                    f"{(probe.stderr.strip().splitlines() or [''])[-1]}")
    code = ("import sys\n"
            "from golden import regenerate\n"
            "regenerate.FAMILIES = ('h', 'cli')\n"
            "sys.exit(regenerate.main(['--diff']))\n")
    run = subprocess.run([sys.executable, "-c", code], cwd=Path(__file__).parent, env=env,
                         capture_output=True, text=True)
    assert (run.returncode, run.stdout) == (
        0, "h: 0 of 165 records changed\ncli: 0 of 9 records changed\n"), run.stdout + run.stderr
