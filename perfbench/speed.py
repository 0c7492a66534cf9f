"""Host-speed reference for normalizing op times.

On a shared host the CPU time of identical work drifts by up to 2x over
minutes as neighbours come and go: on a shared 2-core x86 VM, the median
`exact_sweep` op took 1.9 ms in one 30-second run and 3.4 ms in another a
few minutes earlier.  The benchmark therefore times a
fixed kernel that does not touch pptnet (interpreter-bound Python, small
numpy calls and a complex matrix product, the three kinds of work pptnet's
ops are made of) every REF_EVERY_S seconds between ops, and scales each op's
CPU time by NOMINAL_MS over the kernel's median time around that op.  Over
150-second traces cut into 30-second windows, scaling each rotation's ops by
a kernel sample taken just before it cut the window-to-window spread of the
median op time from 0.32 to 0.06 (exact_sweep) and from 0.16 to 0.02
(circuit_oracle) while the host drifted; while the host was steady it raised
that spread from 0.06-0.08 to 0.08-0.12.
"""

from __future__ import annotations

from time import process_time

import numpy as np

REF_EVERY_S = 0.2
# samples within this many seconds of an op's midpoint set its scale
REF_WINDOW_S = 1.0
# about the kernel's median CPU time on that VM; normalized times are CPU
# times on a host where the kernel takes this long
NOMINAL_MS = 7.0

_MATRIX = np.ones((192, 192), dtype=complex)


def kernel() -> float:
    """CPU seconds of one run of the fixed reference work."""
    t0 = process_time()
    s = 0
    for j in range(20000):
        s += j * j
    table: dict[int, int] = {}
    for j in range(3000):
        table[j % 97] = table.get(j % 97, 0) + j
    a = np.arange(16.0).reshape(4, 4)
    for _ in range(300):
        a = (a @ a) / 1e3 + np.eye(4)
    for _ in range(2):
        _MATRIX @ _MATRIX
    return process_time() - t0


def scale(times, ref_times, ref_cpu) -> np.ndarray:
    """NOMINAL_MS over the median reference time (ms) within REF_WINDOW_S of
    each of `times`, falling back to the nearest sample.  `ref_times` is
    sorted and holds at least two samples."""
    times, ref_times = np.asarray(times, dtype=float), np.asarray(ref_times)
    ref_ms = np.asarray(ref_cpu) * 1000
    lo = np.searchsorted(ref_times, times - REF_WINDOW_S)
    hi = np.searchsorted(ref_times, times + REF_WINDOW_S, side="right")
    i = np.clip(np.searchsorted(ref_times, times), 1, len(ref_times) - 1)
    nearest = np.where(times - ref_times[i - 1] <= ref_times[i] - times, i - 1, i)
    local = [np.median(ref_ms[a:b]) if b > a else ref_ms[n] for a, b, n in zip(lo, hi, nearest)]
    return NOMINAL_MS / np.array(local)
