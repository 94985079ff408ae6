"""List every ``def`` in ``src/repro`` whose name occurs nowhere else.

    python3 tools/unreferenced_defs.py

"Nowhere else" is textual: one occurrence of the name as a whole word —
its own definition — across ``src/``, ``tests/``, ``benchmarks/``,
``examples/`` and ``bench/``.  Dunder methods are skipped.  Advisory:
always exits 0 (a hit may be a public API nothing in the repo calls).
"""

import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "tests", "benchmarks", "examples", "bench")

words: Counter[str] = Counter()
for top in SEARCHED:
    for path in sorted((ROOT / top).rglob("*.py")):
        words.update(re.findall(r"\w+", path.read_text()))

for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
    for number, line in enumerate(path.read_text().splitlines(), 1):
        found = re.match(r"\s*def (\w+)\(", line)
        if found and words[found[1]] == 1 and not found[1].startswith("__"):
            print(f"{path.relative_to(ROOT)}:{number}: {found[1]}")
