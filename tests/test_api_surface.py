"""Every module-level function or class of the package, and every
non-dunder method of a module-level class, is used.  A public one is named
somewhere in `src/wtc` outside its own definition, or in README.md's code
(its fenced blocks and backtick spans, not its prose), so no library code
is reached only from tests.  A private one is named somewhere
in `src/wtc` outside its own definition, so no helper is left behind when
its last caller goes.  A method is named only where `.name` is read, so a
local variable or argument of the same name does not hide it.  Docstrings
and comments are stripped before the search: a name there is not a use."""

import ast
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wtc"

# name -> why it stays although nothing but tests names it
ALLOWED = {
    "brute_force_sup": "acceptance item 12's oracle",
    "pivotal_sum": "perfbench/tracer.py wraps it (span functionals.pivotal)",
    "contains_point": "reference oracle of the measure property tests",
    "intersection": "reference oracle of the measure property tests",
    "is_zero": "reference oracle of the measure property tests",
    "density_at": "reference oracle of the measure property tests",
    "dist": "reference oracle of tests/test_exact_kernels.py",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def code_lines(text: str) -> list[str]:
    """The lines of a module with its docstrings and comments blanked."""
    lines = text.splitlines()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, *_DEFS)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines[doc.lineno - 1:doc.end_lineno] = [""] * (doc.end_lineno - doc.lineno + 1)
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            row, col = tok.start
            lines[row - 1] = lines[row - 1][:col]
    return lines


def readme_code(text: str) -> str:
    """The code of a Markdown text: its fenced blocks and backtick spans."""
    fence = re.compile(r"^```[^\n]*\n(.*?)^```", re.S | re.M)
    spans = re.findall(r"`([^`\n]+)`", fence.sub("", text))
    return "\n".join(fence.findall(text) + spans)


def _dunder(node) -> bool:
    return node.name.startswith("__") and node.name.endswith("__")


def definitions(text: str, private: bool) -> list[tuple[str, int, int, bool]]:
    """(name, first line, last line, whether a method) of each public (or,
    if `private`, each private) non-dunder module-level def or class, and
    non-dunder method of a module-level class, decorators included; lines
    count from 0.  Python calls a dunder (a module's `__getattr__`, a
    class's `__eq__`) itself."""
    nodes = []
    for node in ast.parse(text).body:
        if isinstance(node, _DEFS):
            nodes.append((node, False))
        if isinstance(node, ast.ClassDef):
            nodes += [(m, True) for m in node.body if isinstance(m, _DEFS)]
    return [(node.name, min([node.lineno, *(d.lineno for d in node.decorator_list)]) - 1,
             node.end_lineno, method)
            for node, method in nodes
            if not _dunder(node) and node.name.startswith("_") == private]


def unused_definitions(private: bool) -> list[str]:
    texts = {path: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    codes = {path: code_lines(text) for path, text in texts.items()}
    readme = [] if private else [readme_code((ROOT / "README.md").read_text(encoding="utf-8"))]
    unused = []
    for path, text in texts.items():
        lines = codes[path]
        for name, first, last, method in definitions(text, private):
            rest = "\n".join(lines[:first] + lines[last:])
            elsewhere = [rest, *readme] + ["\n".join(c) for p, c in codes.items() if p != path]
            word = re.compile((r"\." if method else r"\b") + rf"{re.escape(name)}\b")
            if name not in ALLOWED and not any(word.search(t) for t in elsewhere):
                unused.append(f"{path.name}:{name}")
    return unused


def test_every_public_definition_is_used():
    assert unused_definitions(private=False) == []


def test_every_private_definition_is_used():
    assert unused_definitions(private=True) == []


def test_allow_list_names_live_definitions():
    defined = {name for path in PACKAGE.glob("*.py")
               for name, *_ in definitions(path.read_text(encoding="utf-8"), False)}
    assert set(ALLOWED) <= defined


def test_docstrings_and_comments_are_not_uses():
    text = ('"""f is named\nhere."""\n\n\nclass C:\n    """g too."""\n\n'
            '    def m(self):\n        return "h"  # and k\n')
    assert code_lines(text) == ["", "", "", "", "class C:", "", "",
                                "    def m(self):", '        return "h"  ']


def test_readme_prose_is_not_a_use():
    text = "f is named here, g in `a.g()`.\n\n```sh\nwtc h\n```\n\nthen k(x) ```\n"
    assert readme_code(text).split() == ["wtc", "h", "a.g()"]
