"""List the refusals of src/arithcoh that the tier-1 suite never executes.

Runs the whole test suite in this process under a line tracer and prints
every ``raise`` statement, and every ``return fail(`` line, of the package
that no test reached, as ``path:line: source``.  A refusal that no test
reaches is either untested or dead; each listed line wants a test or a
reason to be deleted.

    python tests/unreached.py        # exit 0 when every such line ran, 1 otherwise

It takes about twice as long as the untraced suite.  pytest does not
collect this file (it is not named test_*.py).  Tests that start a
subprocess are not traced into it, so a line reached only there is listed.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "arithcoh"


def refusal_spans(path: Path) -> list[tuple[int, int]]:
    """(first, last) line of each raise statement and each `return fail(` line."""
    source = path.read_text()
    spans = [(node.lineno, node.end_lineno) for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Raise)]
    spans += [(i, i) for i, line in enumerate(source.splitlines(), 1)
              if line.strip().startswith("return fail(")]
    return sorted(set(spans))


def main() -> int:
    files = {str(p): refusal_spans(p) for p in sorted(PACKAGE.glob("*.py"))}
    executed: dict[str, set[int]] = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in executed else None

    sys.settrace(tracer)
    try:
        status = pytest.main([str(ROOT / "tests"), "-q", "-p", "no:cacheprovider",
                              "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
    unreached = []
    for name, spans in files.items():
        lines = Path(name).read_text().splitlines()
        for first, last in spans:
            if executed[name].isdisjoint(range(first, last + 1)):
                rel = Path(name).relative_to(ROOT)
                unreached.append(f"{rel}:{first}: {lines[first - 1].strip()}")
    print(f"\n{len(unreached)} refusal line(s) in src/arithcoh reached by no test")
    for line in unreached:
        print(line)
    if status != 0:
        print(f"the suite itself failed (pytest exit {int(status)})")
    return int(bool(unreached) or status != 0)


if __name__ == "__main__":
    sys.exit(main())
