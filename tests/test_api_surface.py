"""Every public module-level function or class of the package is used: named
somewhere in `src/wtc` outside its own definition, or in README.md, so no
library code is reached only from tests."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wtc"

# name -> why it stays although nothing but tests names it
ALLOWED = {
    "brute_force_sup": "acceptance item 12's oracle",
}


def public_definitions(text: str) -> list[tuple[str, int, int]]:
    """(name, first line, last line) of each public module-level def or
    class, decorators included; lines count from 0."""
    return [(node.name, min([node.lineno, *(d.lineno for d in node.decorator_list)]) - 1,
             node.end_lineno)
            for node in ast.parse(text).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def unused_definitions() -> list[str]:
    texts = {path: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    unused = []
    for path, text in texts.items():
        lines = text.splitlines()
        for name, first, last in public_definitions(text):
            rest = "\n".join(lines[:first] + lines[last:])
            elsewhere = [rest, readme] + [t for p, t in texts.items() if p != path]
            word = re.compile(rf"\b{re.escape(name)}\b")
            if name not in ALLOWED and not any(word.search(t) for t in elsewhere):
                unused.append(f"{path.name}:{name}")
    return unused


def test_every_public_definition_is_used():
    assert unused_definitions() == []


def test_allow_list_names_live_definitions():
    defined = {name for path in PACKAGE.glob("*.py")
               for name, _, _ in public_definitions(path.read_text(encoding="utf-8"))}
    assert set(ALLOWED) <= defined
