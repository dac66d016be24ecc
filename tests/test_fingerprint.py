"""The output fingerprint against its committed baseline."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "fingerprint.py"
BASELINE = ROOT / "scripts" / "fingerprint-baseline.txt"


@pytest.fixture(scope="module")
def fingerprint():
    spec = importlib.util.spec_from_file_location("fingerprint", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_match_committed_baseline(tmp_path):
    # About 18 s: two short training runs with their eval and pseudo-label
    # dumps.  On a machine unlike the baseline's the bits of exp, expit
    # and the BLAS kernels may differ, so a difference there skips.
    result = subprocess.run(
        [sys.executable, str(SCRIPT), "--check", str(BASELINE), str(tmp_path / "out")],
        capture_output=True, text=True, timeout=900,
    )
    if result.returncode == 2:
        pytest.skip(result.stderr.strip().splitlines()[-1])
    assert result.returncode == 0, result.stderr


class TestCheck:
    """The comparison ``--check`` makes, on made-up lines."""

    LINES = [f"{digit * 64}  A/file{digit}" for digit in "0123"]

    def test_equal_lines_pass(self, fingerprint):
        fields = fingerprint.machine()
        assert fingerprint.check(fingerprint.baseline_text(self.LINES, fields), self.LINES, fields)[0] == 0

    def test_a_moved_line_fails_on_the_recorded_machine(self, fingerprint):
        fields = fingerprint.machine()
        moved = self.LINES[:2] + [f"{'f' * 64}  A/file2"] + self.LINES[3:]
        status, report = fingerprint.check(fingerprint.baseline_text(self.LINES, fields), moved, fields)
        assert status == 1
        assert f"baseline {self.LINES[2]}" in report and f"now      {moved[2]}" in report

    def test_a_missing_line_fails(self, fingerprint):
        fields = fingerprint.machine()
        assert fingerprint.check(fingerprint.baseline_text(self.LINES, fields), self.LINES[:3], fields)[0] == 1

    def test_another_machine_is_named(self, fingerprint):
        fields = fingerprint.machine()
        recorded = dict(fields, numpy="1.0.0")
        moved = [f"{'f' * 64}  A/file0"] + self.LINES[1:]
        status, report = fingerprint.check(fingerprint.baseline_text(self.LINES, recorded), moved, fields)
        assert status == 2
        assert f"numpy 1.0.0 -> {fields['numpy']}" in report
        # Equal lines pass on any machine.
        assert fingerprint.check(fingerprint.baseline_text(self.LINES, recorded), self.LINES, fields)[0] == 0

    def test_committed_baseline_records_its_machine(self, fingerprint):
        text = BASELINE.read_text()
        assert [line[2:].split(": ")[0] for line in text.splitlines() if line.startswith("# ")] == list(
            fingerprint.machine()
        )
        assert len([line for line in text.splitlines() if not line.startswith("#")]) == 24
