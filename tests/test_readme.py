"""The README's Layout block names every module of the package, and only those."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def layout_modules():
    """Module file names listed under src/edgemap/ in README's Layout block."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Layout\n+```\n(.*?)^```", readme, re.M | re.S)
    assert block, "README.md has no fenced Layout block"
    return set(re.findall(r"^  (\w+\.py) ", block[1], re.M))


def test_layout_lists_every_module_and_no_other():
    listed = layout_modules()
    modules = {path.name for path in (ROOT / "src" / "edgemap").glob("*.py")} - {"__init__.py"}
    assert modules - listed == set(), "modules missing from README Layout"
    assert listed - modules == set(), "README Layout lists modules that do not exist"
