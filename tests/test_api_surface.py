"""Every module-level function or class of the package is used.  A public
one is named somewhere in `src/wtc` outside its own definition, or in
README.md, so no library code is reached only from tests.  A private one is
named somewhere in `src/wtc` outside its own definition, so no helper is
left behind when its last caller goes."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wtc"

# name -> why it stays although nothing but tests names it
ALLOWED = {
    "brute_force_sup": "acceptance item 12's oracle",
}


def definitions(text: str, private: bool) -> list[tuple[str, int, int]]:
    """(name, first line, last line) of each public (or, if `private`, each
    private) module-level def or class, decorators included; lines count
    from 0."""
    return [(node.name, min([node.lineno, *(d.lineno for d in node.decorator_list)]) - 1,
             node.end_lineno)
            for node in ast.parse(text).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") == private]


def unused_definitions(private: bool) -> list[str]:
    texts = {path: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    readme = [] if private else [(ROOT / "README.md").read_text(encoding="utf-8")]
    unused = []
    for path, text in texts.items():
        lines = text.splitlines()
        for name, first, last in definitions(text, private):
            rest = "\n".join(lines[:first] + lines[last:])
            elsewhere = [rest, *readme] + [t for p, t in texts.items() if p != path]
            word = re.compile(rf"\b{re.escape(name)}\b")
            if name not in ALLOWED and not any(word.search(t) for t in elsewhere):
                unused.append(f"{path.name}:{name}")
    return unused


def test_every_public_definition_is_used():
    assert unused_definitions(private=False) == []


def test_every_private_definition_is_used():
    assert unused_definitions(private=True) == []


def test_allow_list_names_live_definitions():
    defined = {name for path in PACKAGE.glob("*.py")
               for name, _, _ in definitions(path.read_text(encoding="utf-8"), False)}
    assert set(ALLOWED) <= defined
