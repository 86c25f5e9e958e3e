"""The package imports only itself and the standard library, as the README
promises."""

import ast
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "higman"


def test_stdlib_only():
    allowed = set(sys.stdlib_module_names) | {"higman"}
    paths = sorted(SOURCE.glob("*.py"))
    assert paths
    outside = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            outside += [
                (path.name, n) for n in names if n.split(".")[0] not in allowed
            ]
    assert not outside
