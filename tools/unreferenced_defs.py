"""List the defs and classes in ``src/repro`` that nothing, or only
tests, use, and the state it stores that nothing reads.

    python3 tools/unreferenced_defs.py

Three lists, all by name (``tokenize`` ``NAME`` tokens only: a name in
a comment, a docstring or a string literal is prose, not a reference —
except an f-string's replacement fields and the ``"module:Class.name"``
entry points ``bench/trace.py`` patches, which are code; and the name a
``def`` or ``class`` statement binds is a definition, not a reference,
so a def is judged by its uses however many defs share its name):

* defs and classes whose name no code references across ``src/``,
  ``tests/``, ``examples/`` and ``bench/``;
* defs whose name is referenced from ``tests/`` and from nowhere
  else: code only its own tests keep alive.  (Not classes: the
  failure kinds and workloads only tests build yet are the scenario
  property harness's inputs-to-be.)
* attributes ``src/`` stores on ``self`` (``self.NAME = ...`` or an
  augmented assignment) whose name no other token anywhere mentions:
  state written and never read.  Here a string literal whose whole
  text is the name counts too, for ``getattr`` and field lists.

``src/**/__init__.py`` is not searched — a re-export is not a use —
and dunder methods are skipped.  Exits 1 when any list is non-empty:
a def must have a caller in ``src/``, ``examples/`` or ``bench/``, or
move to a ``tests/`` helper, or go; an attribute must be read, or go.
"""

import ast
import re
import sys
import tokenize
from collections import Counter
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "tests", "examples", "bench")

#: ``"package.module:Class.method"``, the form in which ``bench/trace.py``
#: names the entry points it patches: a reference to the last name.
ENTRY_POINT = re.compile(r"""["'][\w.]+:(?:\w+\.)*(\w+)["']""")

#: A string literal whose whole text is one name.
QUOTED_NAME = re.compile(r"""["'](\w+)["']""")


def names_in(path: Path) -> Iterator[tuple[str, bool]]:
    """Every name the file mentions, and whether code references it
    (False: it is the name a ``def``/``class`` binds, or the whole text
    of a string literal)."""
    previous = ""
    with tokenize.open(path) as source:
        for token in tokenize.generate_tokens(source.readline):
            if token.type == tokenize.NAME:
                yield token.string, previous not in ("def", "class")
            elif token.type == tokenize.STRING:
                text = token.string
                entry = ENTRY_POINT.fullmatch(text)
                quoted = QUOTED_NAME.fullmatch(text)
                if entry:
                    yield entry[1], True
                elif quoted:
                    yield quoted[1], False
                elif text.lstrip("rR")[:1] in ("f", "F"):
                    # Before Python 3.12 an f-string is one STRING
                    # token; its replacement fields are code.
                    for node in ast.walk(ast.parse(text, mode="eval")):
                        if isinstance(node, ast.Name):
                            yield node.id, True
                        elif isinstance(node, ast.Attribute):
                            yield node.attr, True
            previous = token.string


def self_stores(path: Path) -> Iterator[tuple[str, int]]:
    """``(name, line)`` of every ``self.name`` the file assigns to."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for each in ast.walk(target):
                if (
                    isinstance(each, ast.Attribute)
                    and isinstance(each.value, ast.Name)
                    and each.value.id == "self"
                ):
                    yield each.attr, each.lineno


#: Occurrences per name: references in code everywhere searched, the
#: same in ``tests/`` alone, and any mention everywhere searched.
words: Counter[str] = Counter()
in_tests: Counter[str] = Counter()
mentions: Counter[str] = Counter()
#: Every ``self.NAME`` store in ``src/``: name -> ``path:line`` of each.
stores: dict[str, list[str]] = {}
for top in SEARCHED:
    for path in sorted((ROOT / top).rglob("*.py")):
        if top == "src" and path.name == "__init__.py":
            continue
        found = list(names_in(path))
        code = [name for name, is_code in found if is_code]
        words.update(code)
        mentions.update(name for name, _ in found)
        if top == "tests":
            in_tests.update(code)
        if top == "src":
            for name, number in self_stores(path):
                where = f"{path.relative_to(ROOT)}:{number}: {name}"
                stores.setdefault(name, []).append(where)

unreferenced: list[str] = []
tests_only: list[str] = []
for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
    for number, line in enumerate(path.read_text().splitlines(), 1):
        found = re.match(r"\s*(def|class) (\w+)\b", line)
        if not found or found[2].startswith("__"):
            continue
        kind, name = found.groups()
        where = f"{path.relative_to(ROOT)}:{number}: {name}"
        if words[name] == 0:
            unreferenced.append(where)
        elif kind == "def" and words[name] == in_tests[name]:
            tests_only.append(where)

for where in unreferenced:
    print(where)
print(f"-- referenced only from tests/ ({len(tests_only)}):")
for where in tests_only:
    print(where)
never_read = [
    sites[0] for name, sites in stores.items() if mentions[name] == len(sites)
]
print(f"-- stored on self and never read ({len(never_read)}):")
for where in sorted(never_read):
    print(where)
sys.exit(1 if unreferenced or tests_only or never_read else 0)
