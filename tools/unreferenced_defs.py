"""List the defs in ``src/repro`` that nothing, or only tests, use.

    python3 tools/unreferenced_defs.py

Two lists, both textual (occurrences of the name as a whole word):

* defs whose name occurs once — its own definition — across ``src/``,
  ``tests/``, ``benchmarks/``, ``examples/`` and ``bench/``;
* defs whose name occurs once outside ``tests/`` but is referenced from
  ``tests/``: code only its own tests keep alive.

Dunder methods are skipped.  Exits 1 when either list is non-empty: a
def must have a caller in ``src/``, ``benchmarks/``, ``examples/`` or
``bench/``, or move to a ``tests/`` helper, or go.
"""

import re
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "tests", "benchmarks", "examples", "bench")

#: Occurrences per name: everywhere searched, and in ``tests/`` alone.
words: Counter[str] = Counter()
in_tests: Counter[str] = Counter()
for top in SEARCHED:
    for path in sorted((ROOT / top).rglob("*.py")):
        found_words = re.findall(r"\w+", path.read_text())
        words.update(found_words)
        if top == "tests":
            in_tests.update(found_words)

unreferenced: list[str] = []
tests_only: list[str] = []
for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
    for number, line in enumerate(path.read_text().splitlines(), 1):
        found = re.match(r"\s*def (\w+)\(", line)
        if not found or found[1].startswith("__"):
            continue
        name = found[1]
        where = f"{path.relative_to(ROOT)}:{number}: {name}"
        if words[name] == 1:
            unreferenced.append(where)
        elif words[name] - in_tests[name] == 1:
            tests_only.append(where)

for where in unreferenced:
    print(where)
print(f"-- referenced only from tests/ ({len(tests_only)}):")
for where in tests_only:
    print(where)
sys.exit(1 if unreferenced or tests_only else 0)
