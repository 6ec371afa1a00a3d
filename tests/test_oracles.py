"""The oracle module stays apart from the program it checks."""
import ast
import sys
from pathlib import Path

import oracles


def test_imports_only_the_standard_library():
    tree = ast.parse(Path(oracles.__file__).read_text())
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    names |= {"." * node.level + (node.module or "") for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    top = {name.split(".")[0] for name in names}
    assert "sumdiff" not in top and top <= sys.stdlib_module_names
