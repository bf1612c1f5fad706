"""What a verify run imports, seen from a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_verify_all_does_not_import_numpy_ma(tmp_path):
    # plain np.unique imports numpy.ma (with inspect and re) on first use;
    # the engine deduplicates by sorting, so a verify run never loads it.  The
    # sampled run pinned in test_cli.py covers the sampled paths of lines,
    # joinable and recover, which an exhaustive run does not take
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    m1, m2, report = tmp_path / "m1.json", tmp_path / "m2.json", tmp_path / "report.json"
    sampled = ["--suite", "recover", "--suite", "lines", "--suite", "joinable", "--sample", "50", "--seed", "3"]
    code = (
        "import sys\n"
        "from semipolar.cli import main\n"
        f"assert main(['build', '--field', '3', '--kind', 'symplectic', '--index', '1', '--out', {str(m1)!r}]) == 0\n"
        f"assert main(['build', '--field', '3', '--kind', 'symplectic', '--index', '2', '--out', {str(m2)!r}]) == 0\n"
        f"assert main(['verify', {str(m1)!r}, '--suite', 'all', '--out', {str(report)!r}]) == 0\n"
        f"assert main(['verify', {str(m2)!r}, *{sampled!r}, '--out', {str(report)!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_build_and_reconstruct_import_only_the_layers_they_run(tmp_path):
    # the pair-query session's imports and a build load no suite, hyperbolic
    # or automorphism code; reconstruct then adds the hyperbolic engine alone
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    m1, out = tmp_path / "m1.json", tmp_path / "out.json"
    code = (
        "import sys\n"
        "from semipolar.cli import load_instance, main\n"
        "import semipolar.metric\n"
        f"assert main(['build', '--field', '3', '--kind', 'symplectic', '--index', '1', '--out', {str(m1)!r}]) == 0\n"
        f"load_instance({str(m1)!r})\n"
        "loaded = lambda: sorted(m for m in ('suites', 'hyperbolic', 'autos') if 'semipolar.' + m in sys.modules)\n"
        "print(loaded())\n"
        f"assert main(['export', '--what', 'reconstruct', '--out', {str(out)!r}]) == 0\n"
        "print(loaded())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "['hyperbolic']"]
