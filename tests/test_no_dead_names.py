"""Every function, class, method and module-level name of the package is
used by the program.

A name counts as used when it appears as a word on some line of `src/`
or `benchmark/` other than a line that defines it; tests do not count,
so a name only a test calls is dead code.  Dunder names are left out:
Python reads them.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "edgemap"


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def definitions():
    """(name, path, line) for each top-level function, class and assigned
    name, and each method."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield node.name, path, node.lineno
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name) and not is_dunder(name.id):
                            yield name.id, path, node.lineno
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if (isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not is_dunder(member.name)):
                        yield member.name, path, member.lineno


def word_lines():
    """Each word of the program's Python files -> the (path, line) pairs it is on."""
    index = {}
    for folder in (ROOT / "src", ROOT / "benchmark"):
        for path in sorted(folder.rglob("*.py")):
            for lineno, text in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
                for word in re.findall(r"\w+", text):
                    index.setdefault(word, set()).add((path, lineno))
    return index


def test_every_definition_is_used():
    defined = {}
    for name, path, lineno in definitions():
        defined.setdefault(name, set()).add((path, lineno))
    index = word_lines()
    dead = sorted(name for name, own in defined.items() if not index[name] - own)
    assert dead == [], "defined in src/edgemap but used nowhere in src/ or benchmark/"
