"""The demo's output, byte for byte: every worked example must print
exactly what tests/golden/paper_examples.txt holds."""

import pathlib
import subprocess
import sys

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "paper_examples.txt"


def test_paper_examples_output_is_unchanged(scripts):
    proc = subprocess.run(
        [sys.executable, str(scripts / "run_paper_examples.py")],
        capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == GOLDEN.read_bytes()
