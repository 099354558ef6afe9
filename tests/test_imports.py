"""The package runs on the standard library alone.

``pyproject.toml`` declares no runtime dependency, so importing any
public subpackage and building a domain must not pull in a third-party
module (numpy, scipy, networkx, ...). The check runs in a fresh
interpreter whose import system refuses every top-level module that is
neither in the standard library nor ``repro`` itself.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent.parent

SCRIPT = """
import sys

sys.modules["numpy"] = None  # refused even if interpreter startup imported it


class StdlibOnly:
    def find_spec(self, name, path=None, target=None):
        top = name.partition(".")[0]
        if top != "repro" and top not in sys.stdlib_module_names:
            raise ModuleNotFoundError(f"third-party import of {name!r}", name=name)
        return None


sys.meta_path.insert(0, StdlibOnly())

import repro
import repro.cli
import repro.core
import repro.domains
import repro.evaluation
import repro.obs

repro.domains.PimDomainModel()
print("ok")
"""


def test_repro_imports_without_third_party_packages():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "ok"
