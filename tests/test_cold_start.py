"""Cold-start import set: what a fresh ``repro`` process loads.

``import repro.cli`` and ``python -m repro --help`` must not pull in the
heavy dependencies or the analysis verbs; each handler imports what it
uses.  This checks the loaded-module set, not the wall clock, so it is
deterministic.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)
HEAVY = ("scipy", "numpy", "networkx", "repro.analysis", "repro.channels")

REPORT = f"""
import json, sys
print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]), file=sys.stderr)
"""


def _loaded_heavy(script: str, then: str = "") -> list:
    """Heavy modules loaded after *script*; *then* runs afterwards."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", script + REPORT + then],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stderr.strip().splitlines()[0])


def test_import_cli_loads_no_heavy_module_and_topology_still_works():
    then = (
        "from repro.sim.network import Topology\n"
        "assert Topology.complete(['a', 'b', 'c']).connectivity() == 2\n"
        "assert 'networkx' in sys.modules\n"
    )
    assert _loaded_heavy("import repro.cli\n", then) == []


def test_help_loads_no_heavy_module():
    script = (
        "import runpy, sys\n"
        "sys.argv = ['repro', '--help']\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
    )
    assert _loaded_heavy(script) == []
