"""Each script in demos/ runs to completion in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import graphon_cpd

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script, tmp_path):
    # The child imports the same package as this process, installed or not.
    src = os.path.dirname(os.path.dirname(graphon_cpd.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    cwd, tmpdir = tmp_path / "cwd", tmp_path / "tmp"
    cwd.mkdir()
    tmpdir.mkdir()
    env = dict(os.environ, PYTHONPATH=path, TMPDIR=str(tmpdir))
    result = subprocess.run([sys.executable, str(script)], cwd=cwd, env=env,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr
    assert list(tmpdir.iterdir()) == []  # a demo leaves no temporary files
