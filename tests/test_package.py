"""The package namespace, and the BLAS thread count the command runs on."""

import inspect
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import slidefft

SRC = Path(__file__).resolve().parent.parent / "src"
SUBMODULES = [import_module(f"slidefft.{name}") for name in ("serial", "mesh", "model", "wave")]


def child(code: str, **env: str) -> str:
    """Standard output of ``code`` run by a fresh interpreter on this tree.

    Importing slidefft.cli sets OPENBLAS_NUM_THREADS in the process that
    imports it, this one included, so the child's environment drops it and
    then adds ``env``.
    """
    base = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    done = subprocess.run([sys.executable, "-c", code], env={**base, "PYTHONPATH": str(SRC), **env},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_every_public_name_is_its_modules_own_object():
    assert len(set(slidefft.__all__)) == len(slidefft.__all__)
    for name in slidefft.__all__:
        value = getattr(slidefft, name)
        homes = [module.__name__ for module in SUBMODULES if module.__dict__.get(name) is value]
        assert homes, name
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ in homes, name


def test_an_unknown_name_is_an_attribute_error_that_names_it():
    with pytest.raises(AttributeError, match="module 'slidefft' has no attribute 'no_such_name'"):
        slidefft.no_such_name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from slidefft import *", namespace)
    assert all(namespace[name] is getattr(slidefft, name) for name in slidefft.__all__)
    assert set(slidefft.__all__) <= set(dir(slidefft))


def test_importing_the_package_loads_no_numpy():
    out = child("import os, sys, slidefft\n"
                "print('numpy' in sys.modules)\n"
                "slidefft.fft_serial\n"
                "print('numpy' in sys.modules, os.environ.get('OPENBLAS_NUM_THREADS'))")
    assert out == "False\nTrue None\n"


def test_the_command_sets_one_blas_thread_unless_the_caller_chose():
    code = "import os, slidefft.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert child(code) == "1\n"
    assert child(code, OPENBLAS_NUM_THREADS="2") == "2\n"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_a_verify_run_has_one_os_thread():
    """OpenBLAS starts a worker per CPU when numpy loads, unless told
    otherwise; the command tells it to start none."""
    out = child("import os, sys\n"
                "from slidefft.cli import entry\n"
                "sys.argv = ['slidefft', 'verify', '--n', '64']\n"
                "try:\n"
                "    entry()\n"
                "finally:\n"
                "    print('threads', len(os.listdir('/proc/self/task')))")
    assert out.splitlines()[-1] == "threads 1"
