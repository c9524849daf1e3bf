"""Bit-for-bit comparison with the golden corpus in tests/golden.

A change that moves an output on purpose rewrites the corpus with
``python tests/golden/regenerate.py`` and states in CHANGES.md what
``--diff`` reported before: the changed-record count and the largest |delta|.
"""

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
