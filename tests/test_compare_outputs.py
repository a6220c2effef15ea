"""``scripts/compare_outputs.py`` on its reduced matrix.

The repository compared with itself shows no difference, so every
command's exit code, output and files are the same on every run.  A copy
whose extract prints another line differs exactly in the commands that
extract, and only those an ``--expect-diff`` glob names are accepted.
"""

import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "compare_outputs.py"


def _compare(*args):
    proc = subprocess.run([sys.executable, str(SCRIPT), *map(str, args), "--quick"],
                          capture_output=True, text=True)
    assert proc.stderr == ""
    return proc.returncode, proc.stdout.splitlines()


def test_repo_matches_itself():
    code, lines = _compare(REPO, REPO)
    assert code == 0 and lines[-1].endswith(": 0 differ (0 expected, 0 unexpected)"), lines


def test_only_expected_differences_pass(tmp_path):
    shutil.copytree(REPO / "src" / "svdmark", tmp_path / "src" / "svdmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "svdmark" / "cli.py"
    text = cli.read_text()
    assert 'print(f"extracted={args.out}")' in text
    cli.write_text(text.replace('print(f"extracted={args.out}")', 'print(f"out={args.out}")'))
    code, lines = _compare(REPO, tmp_path, "--expect-diff", "*/extract.svdf")
    assert code == 1
    diffs = [line.split(" difference: ") for line in lines if " difference: " in line]
    assert {kind for kind, _ in diffs} == {"expected", "UNEXPECTED"}
    for kind, label in diffs:
        assert "extract" in label
        assert kind == ("expected" if label.endswith("/extract.svdf") else "UNEXPECTED")
