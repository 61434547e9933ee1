"""The examples run: each one a subprocess from an empty directory,
which must exit 0, print its report and leave no file behind.

The other two are run elsewhere: ``futurized_gpu_node`` by
``tests/analysis/test_profile.py``, which checks what it prints and
traces, and ``merger_soak`` by the CI soak jobs.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
EXAMPLES = ("quickstart", "sedov_taylor", "sod_shock_tube", "scaling_study",
            "v1309_merger", "amr_blast", "degraded_network")


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name, tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(REPO / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, str(REPO / "examples" / f"{name}.py")],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert not list(tmp_path.iterdir())
