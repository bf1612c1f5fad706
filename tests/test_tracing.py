"""The traced benchmark wraps semipolar names by attribute, so each must exist."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_instrument_finds_every_wrapped_name(tmp_path):
    # run in a child process: instrument() patches the imported modules for good.
    # The CLI imports the suites inside `verify`, so the run afterwards checks
    # that a layer imported late is still the instrumented one
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    m1, report = tmp_path / "m1.json", tmp_path / "report.json"
    code = (
        "import json\n"
        "from spans import Tracer, instrument\n"
        "tracer = Tracer('t')\n"
        "instrument(tracer)\n"
        "from semipolar.cli import build_instance, main\n"
        f"with open({str(m1)!r}, 'w') as fh:\n"
        "    json.dump(build_instance('symplectic', 3, 1).to_jsonable(), fh)\n"
        f"assert main(['verify', {str(m1)!r}, '--suite', 'lines', '--out', {str(report)!r}]) == 0\n"
        "print(json.dumps(tracer.counts))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT / "perfbench",
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout)
    assert counts["suite.lines"] == 1
    assert counts["cli.dump"] == 1
