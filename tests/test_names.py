"""Static guards: every function, class, method and module-level constant under
src/coaglab has a caller, and only a pinned list of them has no caller but
tests.

A module-level function, class or constant, or a method, that is named
nowhere but in its own definition is dead code; dunder names are exempt.
Names are counted as identifiers in code and inside string literals
(``perfbench/tracing.py`` names its targets in strings); comments do not
count.  The count is per name, so a dead method that shares its name with a
live one is not caught.
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


def name_counts(sources) -> Counter:
    """Occurrences of each identifier in code and in string literals."""
    counts: Counter = Counter()
    for source in sources:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.NAME:
                counts[tok.string] += 1
            elif tok.type == tokenize.STRING:
                counts.update(_WORD.findall(tok.string))
    return counts


def unreferenced(definitions: list[str], counts: Counter) -> list[str]:
    """Names that occur no more often than they are defined."""
    return sorted(name for name, k in Counter(definitions).items() if counts[name] <= k)


def test_every_definition_is_named_elsewhere():
    files = [p for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    sources = {p: p.read_text(encoding="utf-8") for p in files}
    package = ROOT / "src" / "coaglab"
    definitions = [n for p, s in sources.items() if p.parent == package for n in defined_names(s)]
    assert len(definitions) > 100
    assert unreferenced(definitions, name_counts(sources.values())) == []


# Oracles and checks that only tests call; a new name that nothing outside
# tests calls fails test_only_pinned_names_are_called_by_tests_alone.
TEST_ONLY = [
    "check_consistency",
    "decompositions",
    "empirical_error",
    "eval_g",
    "h_infinity",
    "limiting_mass_concentration",
    "rate_map",
]


def test_only_pinned_names_are_called_by_tests_alone():
    package = ROOT / "src" / "coaglab"
    files = [p for p in sorted(package.rglob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").rglob("*.py"))
    sources = {p: p.read_text(encoding="utf-8") for p in files}
    definitions = [n for p, s in sources.items() if p.parent == package for n in defined_names(s)]
    assert unreferenced(definitions, name_counts(sources.values())) == TEST_ONLY


def test_guard_flags_names_used_only_in_comments():
    source = (
        "def used():\n"
        "    return 1\n"
        "def dead():  # dead\n"
        "    return used()\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        pass\n"
        "    def traced(self):\n"
        "        return 'C.traced'\n"
        "    def never(self):\n"
        "        pass\n"
        "__all__ = ['used']\n"
        "_LIVE, _UNUSED = 1, 2  # _UNUSED\n"
        "_TYPED: int = _LIVE\n"
    )
    found = unreferenced(defined_names(source), name_counts([source, "C(_TYPED)\n"]))
    assert found == ["_UNUSED", "dead", "never"]
