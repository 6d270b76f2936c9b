"""The CLI byte-diff matrix runs end to end and writes its fixed file list."""

import importlib.util
from pathlib import Path

MATRIX_PATH = Path(__file__).resolve().parents[1] / "tools" / "cli_matrix.py"

OUTPUTS = {
    "fit": ["moments.csv", "surrogate.json"],
    "convergence": ["convergence.csv"],
    "select-points": ["points.csv"],
    "mc": ["moments.csv", "trace.csv"],
}


def test_cli_matrix_writes_every_output(tmp_path):
    spec = importlib.util.spec_from_file_location("cli_matrix", MATRIX_PATH)
    matrix = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(matrix)
    files = matrix.run_matrix(tmp_path)
    expected = sorted(
        f"{name}/{leaf}"
        for name, (command, _, _) in matrix.RUNS.items()
        for leaf in ["config.json", *OUTPUTS[command]]
    )
    assert len(matrix.RUNS) == 13
    assert files == expected
    assert len(files) == 37
