"""README.md names only what the code has.

Every backticked identifier with an underscore in README.md is either a file
of the repository, by its path from the root, or named somewhere in `src/`,
`tests/` or `bench/`: as a definition, a name, an attribute, an argument, an
import or a string constant, read off the syntax tree of each file. So a
README that still cites a function the code has dropped fails here.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPAN = re.compile(r"`([^`\n]+)`")
# the dotted identifier a span starts with, as in `amodule._sing_system` or
# `Q_poly(lambda, N)`
IDENT = re.compile(r"[A-Za-z_][\w.]*")


def _named() -> set:
    names = set()
    for top in ("src", "tests", "bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    names.add(node.name)
                elif isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, (ast.arg, ast.keyword)) and node.arg:
                    names.add(node.arg)
                elif isinstance(node, ast.alias):
                    names.update(node.name.split("."))
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names.add(node.value)
    return names


def stale_identifiers(readme: str, named: set) -> list:
    """The backticked identifiers with an underscore that name nothing."""
    stale = []
    for span in SPAN.findall(readme):
        ident = IDENT.match(span)
        if "_" not in span or not ident or (ROOT / span).is_file():
            continue
        if any("_" in part and part not in named for part in ident.group().split(".")):
            stale.append(span)
    return stale


def test_readme_identifiers_are_named_in_the_code():
    assert stale_identifiers((ROOT / "README.md").read_text(), _named()) == []


def test_a_dropped_name_is_stale():
    named = _named()
    assert stale_identifiers("`amodule._no_such_walk` and `_sing_system`", named) == ["amodule._no_such_walk"]
    assert stale_identifiers("`BENCH_pr18.json`, `tests/test_readme.py`", named) == []
