"""What the benchmark in perfbench/ reads from the package.

The tracer wraps functions by module and name and the harness finds the
caches by their cache_clear method, so a rename or a dropped cache breaks a
traced benchmark run. These tests read perfbench/ and change nothing there;
the benchmark's own tests run as a subprocess.
"""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    """The harness and tracer modules, imported from perfbench/ and then
    dropped from sys.modules again."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        harness = importlib.import_module("harness")
    finally:
        sys.path.remove(str(PERFBENCH))
    yield harness, harness.tracing
    for name in ("harness", "tracer", "workloads"):
        sys.modules.pop(name, None)


@pytest.fixture(scope="module")
def modules(bench):
    harness, _ = bench
    return {name: importlib.import_module(f"higman.{name}") for name in harness.MODULES}


def higman_namespaces() -> dict:
    """(module name, attribute) -> object, over every loaded higman module."""
    return {
        (mod_name, attr): value
        for mod_name, mod in list(sys.modules.items())
        if mod is not None and (mod_name == "higman" or mod_name.startswith("higman."))
        for attr, value in vars(mod).items()
    }


def test_traced_names_resolve(bench, modules):
    _, tracer = bench
    for name, (mod, fn_name) in {**tracer.SPANS, **tracer.COUNTERS}.items():
        assert callable(getattr(modules[mod], fn_name, None)), name


def test_install_then_uninstall_restores_the_package(bench, modules):
    _, tracer = bench
    before = higman_namespaces()
    t = tracer.Tracer()
    t.install(modules)
    try:
        assert modules["automata"].isomorphic is not before[("higman.automata", "isomorphic")]
    finally:
        t.uninstall()
    after = higman_namespaces()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []


def test_layer_metrics_find_their_caches(bench, modules):
    harness, tracer = bench
    found = harness.Caches(modules).found
    for name in (
        "segments.right_residual",
        "segments.left_residual",
        "segments.intersect",
        "segments.concat_seg",
        "segments.subset_of",
        "segments.involute_seg",
        "envelope.dist",
        "envelope.algebra_distance",
        "automata.minimal_dfa",
    ):
        assert name in found
    empty = {"spans": {}, "edges": [], "counts": {}}
    tracer.layer_metrics(empty, {name: (0, 0) for name in found})


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=PERFBENCH.parent,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
