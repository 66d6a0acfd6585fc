"""Digest the eight identity runs of the chemostab CLI, to compare two source trees.

Usage (from the repository root):

    python3 tools/identity_runs.py SRC_DIR

SRC_DIR is the ``src`` directory of the tree under test.  Each run is one CLI
command in a fresh process on a fixed input:

* the seed-1 benchmark inputs of ``perfbench/workloads.py``: ``sim2d``
  (``simulate``), ``experiment1d`` (``stability-experiment``) and ``sweep``
  (``sweep``), plus ``stability`` on the ``sweep`` input;
* the ``BASE`` config of ``tests/test_cli.py`` under ``simulate`` and
  ``converge``, ``STABILITY`` under ``stability`` and ``EXPERIMENT`` under
  ``stability-experiment``.

One line per run is printed: its name and the SHA-256 of its exit code,
stdout, stderr and every output file (name and bytes).  Two trees that give
the same eight lines are byte-identical on these runs.  The inputs and outputs
live in one fixed work directory, emptied first, because the paths enter each
config's content hash and with it every output name.
"""

from __future__ import annotations

import ast
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = Path(tempfile.gettempdir()) / "chemostab-identity-runs"
TEST_CONFIGS = {"BASE": ("simulate", "converge"), "STABILITY": ("stability",),
                "EXPERIMENT": ("stability-experiment",)}


def configs_from_tests() -> dict[str, str]:
    """The module-level config strings of ``tests/test_cli.py``, read without importing it."""
    tree = ast.parse((ROOT / "tests" / "test_cli.py").read_text())
    return {node.targets[0].id: node.value.value for node in tree.body
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id in TEST_CONFIGS}


def benchmark_specs() -> dict[str, tuple[str, Path]]:
    """(command, config) of each seed-1 benchmark run, its inputs written under WORK."""
    sys.dont_write_bytecode = True  # leave the benchmark's tree as it is
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    specs = {}
    for name, (inputs, _) in workloads.WORKLOADS.items():
        (WORK / name).mkdir()
        spec = inputs(1, WORK / name)
        specs[name] = (spec.command, spec.config)
    specs["sweep-stability"] = ("stability", specs["sweep"][1])
    return specs


def digest(src: Path, name: str, command: str, config: Path) -> str:
    out_dir = WORK / "out" / name
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "chemostab", command, "--config", str(config),
                           "--out", str(out_dir)], env=env, capture_output=True)
    h = hashlib.sha256(f"exit {proc.returncode}\n".encode())
    h.update(proc.stdout + b"\0" + proc.stderr + b"\0")
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(path.relative_to(out_dir).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve()
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    runs = benchmark_specs()
    for var, text in configs_from_tests().items():
        config = WORK / f"{var.lower()}.yaml"
        config.write_text(text.replace("OUTDIR", str(WORK / "out" / var.lower())))
        for command in TEST_CONFIGS[var]:
            runs[f"{var}-{command}"] = (command, config)
    for name, (command, config) in runs.items():
        print(name, digest(src, name, command, config), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
