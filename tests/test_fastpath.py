"""The backend switch and the import footprint of the entry points."""

import os
import subprocess
import sys

import pytest

import repro
from repro import fastpath

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def run_python(code, **env):
    """Run ``code`` in a fresh interpreter with ``repro`` importable."""
    child_env = dict(os.environ, PYTHONPATH=SRC)
    child_env.pop("ROLP_BACKEND", None)
    child_env.update(env)
    return subprocess.run(
        [sys.executable, "-c", code],
        env=child_env,
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_backends_are_reference_and_fast():
    assert fastpath.BACKENDS == ("reference", "fast")


def test_set_backend_rejects_unknown_names():
    with pytest.raises(ValueError):
        fastpath.set_backend("compiled")


def test_unknown_backend_env_fails_at_import():
    result = run_python("import repro.fastpath", ROLP_BACKEND="compiled")
    assert result.returncode != 0
    assert "ROLP_BACKEND='compiled'" in result.stderr


def test_cli_and_server_import_without_numpy():
    """The CLI and the fleet server import nothing from numpy."""
    result = run_python(
        "import sys\n"
        "import repro.bench.cli, repro.server\n"
        "print('numpy' in sys.modules)\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
