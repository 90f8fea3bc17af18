"""Every ``repro`` import in the documentation's Python examples resolves.

The ```` ```python ```` blocks of ``README.md``, ``DESIGN.md``,
``docs/*.md`` and ``perf/README.md`` are parsed, not run: each
``from repro... import name`` must name a module that imports and a
name it defines (or a submodule), so deleting a public name fails here
until the docs stop using it.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOCS = (ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "perf" / "README.md",
        *sorted((ROOT / "docs").glob("*.md")))

_BLOCK = re.compile(r"^```python\n(.*?)^```", re.M | re.S)


def _imports():
    """``(where, module, name)`` of each repro import; ``name`` is None
    for a plain ``import repro...``."""
    for doc in DOCS:
        text = doc.read_text(encoding="utf-8")
        for k, block in enumerate(_BLOCK.findall(text)):
            where = f"{doc.relative_to(ROOT)} block {k + 1}"
            for node in ast.walk(ast.parse(block, filename=where)):
                if isinstance(node, ast.ImportFrom) and node.module and \
                        node.module.split(".")[0] == "repro":
                    for alias in node.names:
                        yield where, node.module, alias.name
                elif isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.name.split(".")[0] == "repro":
                            yield where, alias.name, None


def _resolves(module, name):
    try:
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_doc_imports_resolve():
    imports = list(_imports())
    assert len(imports) >= 20, "no python blocks found in the docs"
    broken = [f"{where}: from {module} import {name}"
              for where, module, name in imports
              if not _resolves(module, name)]
    assert broken == []
