"""Static guards: every function, class, method and module-level constant under
src/coaglab has a caller, and only a pinned list of them has no caller but
tests.

A module-level function, class or constant, or a method, that is named
nowhere but in its own definition is dead code; dunder names are exempt.
Names are counted as identifier tokens of code in ``src/``, ``tests/`` and
``perfbench/``, and as words inside string literals only in ``perfbench/``,
whose tracer names its targets in strings.  Comments, docstrings and error
messages do not count, so a name that only prose mentions is still caught.
The count is per name, so a dead method that shares its name with a live
one is not caught.
"""

import ast
import io
import re
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_WORD = re.compile(r"[A-Za-z_]\w*")


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def defined_names(source: str) -> list[str]:
    """Module-level functions, classes and non-dunder constants of
    ``source``, and the non-dunder methods of its classes, one entry per
    definition."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(
                target.id
                for t in targets
                for target in ast.walk(t)
                if isinstance(target, ast.Name) and not _is_dunder(target.id)
            )
        if isinstance(node, ast.ClassDef):
            names.extend(
                item.name
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not _is_dunder(item.name)
            )
    return names


def name_counts(sources, strings: bool = False) -> Counter:
    """Occurrences of each identifier token in ``sources``; with ``strings``,
    also of each word inside their string literals."""
    counts: Counter = Counter()
    for source in sources:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.NAME:
                counts[tok.string] += 1
            elif strings and tok.type == tokenize.STRING:
                counts.update(_WORD.findall(tok.string))
    return counts


def _counts(sources: dict) -> Counter:
    """Names in the code of every source, and in the strings of perfbench."""
    traced = {p for p in sources if p.parent.name == "perfbench"}
    return name_counts(s for p, s in sources.items() if p not in traced) + name_counts(
        (sources[p] for p in traced), strings=True
    )


def unreferenced(definitions: list[str], counts: Counter) -> list[str]:
    """Names that occur no more often than they are defined."""
    return sorted(name for name, k in Counter(definitions).items() if counts[name] <= k)


def test_every_definition_is_named_elsewhere():
    files = [p for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    sources = {p: p.read_text(encoding="utf-8") for p in files}
    package = ROOT / "src" / "coaglab"
    definitions = [n for p, s in sources.items() if p.parent == package for n in defined_names(s)]
    assert len(definitions) > 100
    assert unreferenced(definitions, _counts(sources)) == []


# Oracles and checks that only tests call; a new name that nothing outside
# tests calls fails test_only_pinned_names_are_called_by_tests_alone.
TEST_ONLY = [
    "check_consistency",
    "decompositions",
    # InitialGF.dz and TruncatedSeries.identity: the swept series references
    # in tests/test_limits.py; src reads dg0/dz off the online pass instead
    "dz",
    "empirical_error",
    "eval_g",
    "h_infinity",
    "identity",
    "limiting_mass_concentration",
    "merge",
    "rate_map",
]


def test_only_pinned_names_are_called_by_tests_alone():
    package = ROOT / "src" / "coaglab"
    files = [p for p in sorted(package.rglob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").rglob("*.py"))
    sources = {p: p.read_text(encoding="utf-8") for p in files}
    definitions = [n for p, s in sources.items() if p.parent == package for n in defined_names(s)]
    assert unreferenced(definitions, _counts(sources)) == TEST_ONLY


def test_guard_flags_names_used_only_in_comments():
    """Comments, docstrings and string literals of code do not count; the
    strings of a tracer, which names its targets in them, do."""
    source = (
        "def used():\n"
        "    \"\"\"Not dead().\"\"\"\n"
        "    return 1\n"
        "def dead():  # dead\n"
        "    return used()\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        pass\n"
        "    def traced(self):\n"
        "        return 'never'\n"
        "    def never(self):\n"
        "        pass\n"
        "__all__ = ['_UNUSED']\n"
        "_LIVE, _UNUSED = 1, 2  # _UNUSED\n"
        "_TYPED: int = _LIVE\n"
    )
    code = name_counts([source, "C(_TYPED)\n"])
    assert unreferenced(defined_names(source), code) == ["_UNUSED", "dead", "never", "traced"]
    tracer = name_counts(["TARGETS = ['C.traced']\n"], strings=True)
    assert unreferenced(defined_names(source), code + tracer) == ["_UNUSED", "dead", "never"]
