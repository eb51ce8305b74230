"""The runtime needs numpy only: importing qcorr loads no scipy module."""

import os
import subprocess
import sys
from pathlib import Path

import qcorr

SRC = str(Path(qcorr.__file__).resolve().parents[1])


def test_import_qcorr_loads_no_scipy():
    code = ("import sys, qcorr; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
