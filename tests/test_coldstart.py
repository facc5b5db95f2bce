"""Cold start: importing and running the package must not load scipy.

Each case runs in a fresh interpreter and prints the scipy modules it ended
up holding; the runtime needs only numpy.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

REPORT = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"

CASES = {
    "import": "import sys\nimport corrobs\n",
    "cli_help": (
        "import runpy, sys\n"
        "sys.argv = ['corrobs', '--help']\n"
        "try:\n"
        "    runpy.run_module('corrobs.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
    ),
    "analyze": (
        "import runpy, sys, tempfile\n"
        "with tempfile.TemporaryDirectory() as out:\n"
        "    sys.argv = ['corrobs', 'analyze', '--config', 'paper_sec6', '--out', out]\n"
        "    try:\n"
        "        runpy.run_module('corrobs.cli', run_name='__main__', alter_sys=True)\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0, exc.code\n"
    ),
    "short_flight": (
        "import sys\n"
        "from dataclasses import replace\n"
        "from corrobs import bundled_config_path, load_scenario, run_scenario\n"
        "cfg = replace(load_scenario(bundled_config_path('paper_sec6')), duration=0.1)\n"
        "assert len(run_scenario(cfg).time) > 1\n"
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_scipy_not_loaded(case):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run([sys.executable, "-c", CASES[case] + REPORT],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
