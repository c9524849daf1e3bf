"""Bit-for-bit comparison with the golden corpus in tests/golden.

A change that moves an output on purpose rewrites the corpus with
``python tests/golden/regenerate.py`` and states in CHANGES.md what
``--diff`` reported before: the changed-record count and the largest |delta|.
"""

import pytest

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
