"""CLI outputs pinned byte for byte against the files under tests/golden/.

Each directory there holds one spec.json and, for every command line below,
its stdout, the DOT and JSON files it exports, and all exit codes. Running
this file as a script rewrites the expected files from the package on the
import path:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from higman.cli import main

GOLDEN = Path(__file__).parent / "golden"

# output name -> (subcommand and flags, suffixes of the files it exports);
# every DOT-writing subcommand is pinned with and without --loops
COMMANDS = {
    "envelope": (["envelope"], ("dot", "json")),
    "envelope-loops": (["envelope", "--loops"], ("dot",)),
    "mindfa": (["mindfa"], ("dot", "json")),
    "mindfa-loops": (["mindfa", "--loops"], ("dot",)),
    "minmax": (["minmax"], ("dot", "json")),
    "minmax-loops": (["minmax", "--loops"], ("dot",)),
    "ferrers": (["ferrers"], ()),
    "decompose": (["decompose"], ()),
    "verify": (["verify"], ()),
}


def cli_outputs(spec: Path, workdir: Path) -> dict:
    """File name -> bytes, for every subcommand run on the spec."""
    files, codes = {}, {}
    for name, ([cmd, *flags], exports) in COMMANDS.items():
        argv = [cmd, str(spec), *flags]
        for suffix in exports:
            argv += [f"--{suffix}", str(workdir / f"{name}.{suffix}")]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            codes[name] = main(argv)
        files[f"{name}.stdout"] = out.getvalue().encode("utf-8")
        for suffix in exports:
            files[f"{name}.{suffix}"] = (workdir / f"{name}.{suffix}").read_bytes()
    files["exit_codes.json"] = (json.dumps(codes, indent=2) + "\n").encode("utf-8")
    return files


def spec_dirs() -> list:
    return sorted(p for p in GOLDEN.iterdir() if (p / "spec.json").is_file())


@pytest.mark.parametrize("case", spec_dirs(), ids=lambda p: p.name)
def test_cli_outputs_match_golden(case, tmp_path):
    produced = cli_outputs(case / "spec.json", tmp_path)
    expected = {p.name for p in case.iterdir() if p.name != "spec.json"}
    assert set(produced) == expected
    for name, data in produced.items():
        assert data == (case / name).read_bytes(), f"{case.name}/{name} differs"


if __name__ == "__main__":
    for case in spec_dirs():
        with tempfile.TemporaryDirectory() as tmp:
            for name, data in cli_outputs(case / "spec.json", Path(tmp)).items():
                (case / name).write_bytes(data)
        print(f"wrote {case}", file=sys.stderr)
