"""tools/untested_lines.py: a traced pytest run that lists the statements
of ``src/sbseries`` no test reached."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_run_on_the_jet_tests_lists_only_package_statements(monkeypatch):
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "untested_lines.py"), "-q",
         "-p", "no:cacheprovider", str(ROOT / "tests" / "test_jets.py")],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    listed = [line for line in lines if re.match(r"\S+\.py:\d+: ", line)]
    count = int(lines[-1].split()[0])
    assert lines[-1] == f"{count} statements reached by no test"
    assert count == len(listed) > 0
    assert all(line.startswith("src/sbseries/") for line in listed)
    # the jet tests reach most of the jets module and none of the CLI
    jets = (ROOT / "src" / "sbseries" / "jets.py").read_text(encoding="utf-8")
    missed = sum(line.startswith("src/sbseries/jets.py:") for line in listed)
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    from untested_lines import body_statements
    assert missed < len(body_statements(jets)) / 2
    assert any(line.startswith("src/sbseries/cli.py:") for line in listed)
