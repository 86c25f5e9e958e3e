"""The package imports only itself and the standard library, as the README
promises, keeps its start-up imports light, and bounds every cache it keeps."""

import ast
import os
import subprocess
import sys
from pathlib import Path
from weakref import WeakValueDictionary

from higman import segments
from higman.segments import MEMO_SIZE

from helpers import package_caches

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


def test_cli_import_leaves_out_heavy_modules():
    """Every command runs in a fresh process, which pays for each module the
    import loads; dataclasses alone pulls in inspect, ast, dis and tokenize.
    -S keeps the site module's own imports out of the check."""
    script = "import sys, higman.cli; print(*sorted(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env={**os.environ, "PYTHONPATH": str(SOURCE.parent)},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    loaded = set(proc.stdout.split())
    assert "higman.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "typing", "pathlib"}


def test_every_cache_is_bounded():
    caches = package_caches()
    assert {
        "higman.words._letter_codes",
        "higman.words._mub_tuples",
        "higman.segments.right_residual",
        "higman.segments.left_residual",
        "higman.automata.minimal_dfa",
        "higman.envelope.build_envelope",
        "higman.envelope.dist",
    } <= caches.keys()
    unbounded = {
        name: c.cache_parameters()["maxsize"]
        for name, c in caches.items()
        if c.cache_parameters()["maxsize"] != MEMO_SIZE
    }
    assert not unbounded
    # the table of live segments holds them weakly, so it keeps none alive
    assert isinstance(segments._interned, WeakValueDictionary)
