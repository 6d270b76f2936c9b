"""The CLI byte-diff matrix runs end to end and writes its fixed file list."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from tests_support import BLAS_THREAD_VARIABLES

MATRIX_PATH = Path(__file__).resolve().parents[1] / "tools" / "cli_matrix.py"

OUTPUTS = {
    "fit": ["moments.csv", "surrogate.json"],
    "convergence": ["convergence.csv"],
    "select-points": ["points.csv"],
    "mc": ["moments.csv", "trace.csv"],
}


def load_matrix():
    spec = importlib.util.spec_from_file_location("cli_matrix", MATRIX_PATH)
    matrix = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(matrix)
    return matrix


def expected_files(matrix):
    """The 54 files of the 19 runs: each run's config plus its command's outputs."""
    files = sorted(
        f"{name}/{leaf}"
        for name, (command, _, _) in matrix.RUNS.items()
        for leaf in ["config.json", *OUTPUTS[command]]
    )
    assert len(matrix.RUNS) == 19
    assert len(files) == 54
    return files


def test_cli_matrix_writes_every_output(tmp_path):
    matrix = load_matrix()
    assert matrix.run_matrix(tmp_path) == expected_files(matrix)


def test_cli_matrix_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the thread count is read when numpy loads, so each count needs its own process
    children = {}
    for threads in ("1", "2"):
        env = dict(os.environ, **{name: threads for name in BLAS_THREAD_VARIABLES})
        children[threads] = subprocess.Popen(
            [sys.executable, str(MATRIX_PATH), str(tmp_path / threads)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
    try:
        for threads, child in children.items():
            _, err = child.communicate(timeout=300)
            assert child.returncode == 0, f"{threads} thread(s): {err.decode()}"
    finally:
        for child in children.values():
            child.kill()
    files = expected_files(load_matrix())
    for threads in children:
        out = tmp_path / threads
        assert sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()) == files
    for leaf in files:
        assert (tmp_path / "1" / leaf).read_bytes() == (tmp_path / "2" / leaf).read_bytes(), leaf
