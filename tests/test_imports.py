"""What importing the package, parsing a config and building a law load.

jamflow never imports sympy: the manufactured forcing is written out in
closed form, and a manufactured run works with sympy blocked.  scipy is
paid for only by the code that uses it: its solvers only in the tests, and
``scipy.special`` only when a law with a non-integer exponent is built: its
potential is the hypergeometric closed form, and building the law (in
``parse_config``) rather than evaluating it loads the module, so a run
never pays for the import inside the time stepping.  Each probe runs in a
fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = r"""
import json, sys, warnings
import jamflow
warnings.simplefilter("ignore", jamflow.SteepnessWarning)
{body}
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in ("sympy", "scipy"))))
"""


def run_probe(script):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=env, timeout=120, check=True,
    )


def loaded_after(body):
    proc = run_probe(PROBE.format(body=body))
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_and_parse_of_the_presets_load_neither_sympy_nor_scipy():
    # every bundled preset has integer exponents, so no law needs hyp2f1
    loaded = loaded_after(
        "for name in ('traffic_1d', 'lane_narrowing_1d', 'pipe_1d', 'crowd_blob_2d'):\n"
        "    jamflow.parse_config(f'[scenario]\\nname = {name}\\n')"
    )
    assert loaded == set()


def test_parsing_manufactured_1d_loads_neither_sympy_nor_scipy():
    # a preset is config text; the manufactured solution is not part of it
    loaded = loaded_after("jamflow.parse_config('[scenario]\\nname = manufactured_1d\\n')")
    assert loaded == set()


def test_building_the_manufactured_problem_loads_neither_sympy_nor_scipy():
    loaded = loaded_after(
        "jamflow.build_problem(jamflow.parse_config('[scenario]\\nname = manufactured_1d\\n'))"
    )
    assert loaded == set()


def test_a_manufactured_run_works_with_sympy_blocked():
    # a None entry in sys.modules makes every ``import sympy`` raise
    proc = run_probe(
        "import sys, warnings\n"
        "sys.modules['sympy'] = None\n"
        "import jamflow\n"
        "warnings.simplefilter('ignore', jamflow.SteepnessWarning)\n"
        "cfg = jamflow.parse_config('[scenario]\\nname = manufactured_1d\\n'\n"
        "                           '[grid]\\ncells = 50\\n[solver]\\nt_end = 0.01\\n')\n"
        "jamflow.build_problem(cfg)\n"
        "result = jamflow.run_once(cfg, write_artifacts=False)\n"
        "print(result.status, result.records[-1].t)\n"
    )
    assert proc.stdout.split() == ["ok", "0.01"]


def test_listing_the_scenarios_loads_neither_sympy_nor_scipy():
    loaded = loaded_after("jamflow.scenario_descriptions()")
    assert loaded == set()


@pytest.mark.parametrize(
    "law",
    [
        "jamflow.SingularLaw(1e-3, 2.5, 3.0)",
        "jamflow.TruncatedLaw(1e-3, 2.5, 3.0, 1.0, 6.0, 0.1)",
        "jamflow.SedimentationLaw(1.0, 2.5)",
    ],
    ids=["singular", "truncated", "sedimentation"],
)
def test_building_a_non_integer_exponent_law_loads_scipy_special(law):
    loaded = loaded_after(law)
    assert "scipy.special" in loaded
    assert "sympy" not in loaded


def test_parsing_a_fractional_config_loads_scipy_special():
    loaded = loaded_after(
        "jamflow.parse_config('[scenario]\\nname = traffic_1d\\n[pressure]\\nalpha = 2.5\\n')"
    )
    assert "scipy.special" in loaded
    for lazy in ("sympy", "scipy.optimize", "scipy.integrate"):
        assert lazy not in loaded, lazy
