"""List the defs and classes in ``src/repro`` that nothing, or only
tests, use.

    python3 tools/unreferenced_defs.py

Two lists, both by name (``tokenize`` ``NAME`` tokens only: a name in a
comment, a docstring or a string literal is prose, not a reference —
except an f-string's replacement fields and the ``"module:Class.name"``
entry points ``bench/trace.py`` patches, which are code):

* defs and classes whose name occurs once — its own definition —
  across ``src/``, ``tests/``, ``benchmarks/``, ``examples/`` and
  ``bench/``;
* defs whose name occurs once outside ``tests/`` but is referenced from
  ``tests/``: code only its own tests keep alive.  (Not classes: the
  failure kinds and workloads only tests build yet are the scenario
  property harness's inputs-to-be.)

``src/**/__init__.py`` is not searched — a re-export is not a use —
and dunder methods are skipped.  Exits 1 when either list is non-empty:
a def must have a caller in ``src/``, ``benchmarks/``, ``examples/`` or
``bench/``, or move to a ``tests/`` helper, or go.
"""

import ast
import re
import sys
import tokenize
from collections import Counter
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "tests", "benchmarks", "examples", "bench")

#: ``"package.module:Class.method"``, the form in which ``bench/trace.py``
#: names the entry points it patches: a reference to the last name.
ENTRY_POINT = re.compile(r"""["'][\w.]+:(?:\w+\.)*(\w+)["']""")


def names_in(path: Path) -> Iterator[str]:
    """Every name the file's code mentions."""
    with tokenize.open(path) as source:
        for token in tokenize.generate_tokens(source.readline):
            if token.type == tokenize.NAME:
                yield token.string
            elif token.type == tokenize.STRING:
                text = token.string
                entry = ENTRY_POINT.fullmatch(text)
                if entry:
                    yield entry[1]
                elif text.lstrip("rR")[:1] in ("f", "F"):
                    # Before Python 3.12 an f-string is one STRING
                    # token; its replacement fields are code.
                    for node in ast.walk(ast.parse(text, mode="eval")):
                        if isinstance(node, ast.Name):
                            yield node.id
                        elif isinstance(node, ast.Attribute):
                            yield node.attr


#: Occurrences per name: everywhere searched, and in ``tests/`` alone.
words: Counter[str] = Counter()
in_tests: Counter[str] = Counter()
for top in SEARCHED:
    for path in sorted((ROOT / top).rglob("*.py")):
        if top == "src" and path.name == "__init__.py":
            continue
        found_words = list(names_in(path))
        words.update(found_words)
        if top == "tests":
            in_tests.update(found_words)

unreferenced: list[str] = []
tests_only: list[str] = []
for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
    for number, line in enumerate(path.read_text().splitlines(), 1):
        found = re.match(r"\s*(def|class) (\w+)\b", line)
        if not found or found[2].startswith("__"):
            continue
        kind, name = found.groups()
        where = f"{path.relative_to(ROOT)}:{number}: {name}"
        if words[name] == 1:
            unreferenced.append(where)
        elif kind == "def" and words[name] - in_tests[name] == 1:
            tests_only.append(where)

for where in unreferenced:
    print(where)
print(f"-- referenced only from tests/ ({len(tests_only)}):")
for where in tests_only:
    print(where)
sys.exit(1 if unreferenced or tests_only else 0)
