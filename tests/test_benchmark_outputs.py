"""The benchmark's own output check, on every workload that BENCHMARK.json lists.

Each workload runs once at the default seed with no timed phase, and
with every warning an error, as in the in-process tests:

    python3 -W error perfbench/run.py --workload W --seed 1 --seconds 0 --trace 0

At that seed every op's output is compared with perfbench/reference.json,
so a changed sampler draw or report field fails here.  perfbench's own
`--selftest` runs too.  Each run happens in a copy of perfbench/, src/
and fixtures/ under tmp_path, so nothing under the repository's
perfbench/ is written.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_outputs_correct(workload, tmp_path):
    for part in ("perfbench", "src", "fixtures"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result


def test_benchmark_selftest_passes(tmp_path):
    # The selftest also runs the unlisted `screen` workload and the traced runs.
    for part in ("perfbench", "src", "fixtures"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "-W", "error", "perfbench/run.py", "--selftest"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["selftest"] == "pass"
