"""Smoke tests for the analysis scripts under scripts/.

Each script runs in a fresh interpreter with tiny arguments; the test
checks its header lines and the number of rows it prints.
"""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args) -> list[str]:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_availability_sweep():
    lines = run_script("availability_sweep.py", "--reps", "2")
    assert lines[0].split()[:3] == ["type", "no", "faults"]
    rows = lines[1:]
    assert [int(row.split()[0]) for row in rows] == list(range(1, 13))
    for row in rows:
        cells = [float(cell) for cell in row.split()[1:]]
        assert len(cells) == 5 and all(0.0 <= cell <= 1.0 for cell in cells)


def test_consensus_thresholds():
    lines = run_script("consensus_thresholds.py", "--seeds", "1")
    assert lines[0].startswith("quorum rule (2/3)")
    assert all(line.lstrip().startswith("n=") for line in lines[1:4])
    assert lines[4].startswith("majority chain")
    assert len(lines) == 10
    assert all(line.lstrip().startswith("adversarial share") for line in lines[5:])
    # A quorum cell confirms iff the honest nodes alone make a quorum.
    for line in lines[1:4]:
        n, quorum = map(int, re.match(r"\s*n=\s*(\d+) \(quorum (\d+)\)", line).groups())
        rates = {int(f): int(rate) for f, rate in re.findall(r"f=(\d+):\s*(\d+)%", line)}
        assert rates == {f: 100 if f <= n - quorum else 0 for f in range(n - quorum + 3)}, line
    shares = dict(re.findall(r"share (\S+): +(\d+)%", "\n".join(lines[5:])))
    assert [shares[s] for s in ("0.30", "0.45", "0.55", "0.70")] == ["100", "100", "0", "0"]


def test_heap_profile():
    lines = run_script("heap_profile.py", "--types", "1,7", "--reps", "3", "--top", "2")
    headers = [line for line in lines if line.startswith("type ")]
    assert [h.split()[:4] for h in headers] == [["type", "1", "reps", "3"],
                                                ["type", "7", "reps", "3"]]
    for header in headers:
        words = header.split()
        end, peak = float(words[5]), float(words[8])
        assert 0 < end <= peak and words[6] == words[9] == "MB"
    sites = [line for line in lines if not line.startswith("type ")]
    assert len(sites) == 4 and all(" MB " in site and " blocks " in site for site in sites)
