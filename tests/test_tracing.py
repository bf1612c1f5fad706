"""The traced benchmark wraps semipolar names by attribute, so each must exist."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_instrument_finds_every_wrapped_name():
    # run in a child process: instrument() patches the imported modules for good
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    code = "from spans import Tracer, instrument; instrument(Tracer('t'))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT / "perfbench",
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
