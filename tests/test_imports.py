"""What importing the package and parsing a config load.

sympy and scipy's solvers are paid for only by the code that uses them:
manufactured solutions and the tests.  ``scipy.special`` stays a
package-level import, so a run with a non-integer congestion exponent
does not pay for it inside the run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = r"""
import json, sys, warnings
import jamflow
warnings.simplefilter("ignore", jamflow.SteepnessWarning)
jamflow.parse_config("[scenario]\nname = traffic_1d\n")
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in ("sympy", "scipy"))))
"""


def test_import_and_parse_leave_sympy_and_scipy_solvers_unloaded():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, env=env,
        timeout=120, check=True,
    )
    loaded = set(json.loads(proc.stdout.splitlines()[-1]))
    for lazy in ("sympy", "scipy.optimize", "scipy.integrate"):
        assert lazy not in loaded, lazy
    assert "scipy.special" in loaded
