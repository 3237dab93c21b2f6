"""The bitwise training oracles under other OpenBLAS kernels.

numpy's bundled OpenBLAS, when built with DYNAMIC_ARCH, picks a kernel for the CPU when
it loads, and the ``OPENBLAS_CORETYPE`` environment variable overrides that pick. Kernels
block and sum products in different orders, so a bitwise check that holds on one kernel
can fail on another. Each case runs the training oracles and the 12-topic backflow arms
(``tests/test_training.py tests/test_backflow.py -k "Oracle or seed0"``), whose counts
come from models built through ``config.build_model``, in a subprocess under one forced
kernel; the cases run one after another. They are skipped unless the
platform is x86-64 and the ``openblas configuration`` string of numpy's build names
DYNAMIC_ARCH: elsewhere the variable forces nothing.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def dynamic_openblas() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


pytestmark = pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64") or not dynamic_openblas(),
    reason="OPENBLAS_CORETYPE forces a kernel only in an x86-64 DYNAMIC_ARCH OpenBLAS")


@pytest.mark.parametrize("kernel", ["Haswell", "Nehalem", "Prescott"])
def test_training_oracles_under_a_forced_kernel(kernel):
    env = {**os.environ, "OPENBLAS_CORETYPE": kernel, "OPENBLAS_VERBOSE": "2"}
    # The files use neither hypothesis nor pytest-benchmark; without their plugins a run
    # takes half the time. Uncaptured, OPENBLAS_VERBOSE=2 names the loaded kernel on stderr.
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--capture=no",
         "-p", "no:hypothesispytest", "-p", "no:benchmark", "tests/test_training.py",
         "tests/test_backflow.py", "-k", "Oracle or seed0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    cores = [line for line in run.stderr.splitlines() if line.startswith("Core")]
    assert cores and "not found" not in cores[0], run.stderr
    assert run.returncode == 0, run.stdout[-4000:]
    assert " passed" in run.stdout.splitlines()[-1]
