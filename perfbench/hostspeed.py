"""Host-speed reference: a fixed piece of pure-Python and small-numpy work.

A shared host runs this process at changing speed: in contended phases, which
come and go within seconds and can last minutes, the same code runs up to
1.6x slower, on the wall clock and the CPU clock alike.  The benchmark times
this kernel between library calls and scales each call's time by

    REFERENCE_S / kernel time next to the call,

which states the call in time on a host that runs the kernel in REFERENCE_S.
The kernel touches nothing of the library, so a change to the library moves
the scaled times exactly as it moves the raw ones.
"""

import time

import numpy as np

#: the kernel's uncontended time on a 2-vCPU Intel Xeon host, Python 3.11,
#: numpy 2.4; a constant, so that scaled times compare across runs and hosts
REFERENCE_S = 0.7e-3

_A = np.random.default_rng(0).standard_normal((6, 6))


def kernel() -> complex:
    """About 1 ms of interpreter and small-array work, like the library's."""
    s = 0j
    for k in range(400):
        s = s * (0.5 + 0.25j) + complex(k % 7, -(k % 5))
        s = complex(round(s.real), round(s.imag))
    for _ in range(20):
        q, r = np.linalg.qr(_A)
        np.round(q @ r)
    return s


def time_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
