"""Which bit-for-bit pins hold only on the BLAS kernel they were taken on.

The pins (pytest -m pins) were recorded with numpy's bundled OpenBLAS on its
SkylakeX kernel.  Some library steps (np.linalg.qr, stacked complex matmuls,
np.vecdot on short vectors) give other last bits on other kernels, so a
host whose CPU makes OpenBLAS pick another kernel fails those pins with no
code change.  This test reruns the pins in a child process forced onto the
Haswell kernel and asserts exactly the set that fails there today: a pin
that newly depends on the kernel fails it, and so does one that a mend
makes portable, until the set here is shrunk with it.
"""

import ctypes
import glob
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import alglat

ROOT = Path(__file__).resolve().parent.parent

#: pins that fail under OPENBLAS_CORETYPE=Haswell, as pytest node ids
HASWELL_FAILURES = {
    f"tests/test_pinned_outputs.py::{name}"
    for name in (
        "test_alll_reports[1]",
        "test_alll_reports[3]",
        "test_alll_reports[5]",
        "test_gauss_reports[3]",
        "test_golden_integer_outputs[5]",
        "test_cf_experiment_rows[1-4]",
        "test_cf_experiment_csv_bytes[1]",
        "test_relay_designs[1-0.6]",
        "test_relay_designs[1-0.99]",
        "test_relay_designs[3-0.6]",
        "test_relay_designs[3-0.99]",
        "test_relay_designs[5-0.6]",
        "test_relay_designs[5-0.99]",
        "test_real_lll_transforms[1]",
        "test_real_lll_transforms[3]",
        "test_real_lll_transforms[7]",
        "test_real_lll_transforms[golden]",
        "test_hermite_cdf_raw_bits",
        "test_dof_slope_bits[1-rlll]",
        "test_dof_slope_bits[1-svp]",
        "test_dof_slope_bits[3-alll]",
        "test_dof_slope_bits[3-rlll]",
        "test_dof_slope_bits[3-svp]",
        "test_dof_slope_bits[5-alll]",
    )
}


def openblas_core() -> str | None:
    """The kernel name numpy's bundled OpenBLAS picked on this host, or None
    when numpy carries no such library."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "libscipy_openblas64_*.so")):
        corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return None


@pytest.mark.skipif(openblas_core() != "SkylakeX", reason="the pins were taken on SkylakeX")
def test_pins_that_fail_on_the_haswell_kernel():
    src = str(Path(alglat.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-m", "pins", "-q", "--tb=no", "-rf", "-p", "no:cacheprovider"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
    ).stdout
    failed = {
        line.removeprefix("FAILED ").split(" - ")[0]
        for line in out.splitlines()
        if line.startswith("FAILED ")
    }
    assert " passed" in out, out[-2000:]
    assert failed == HASWELL_FAILURES
