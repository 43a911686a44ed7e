"""Machine-speed reference: fixed work that never touches the program.

On a shared virtual machine the CPU time of the same op drifts by 20% or
more between runs, and within a run, as other tenants load the host.  The
benchmark runs a reference kernel before every op and after the last, and
scales each op's CPU time by the kernel's nominal time over its median time
just before and after the op.  A reported time is thus the time the op would
take on a machine where every kernel takes its nominal time.

Work of different kinds slows down by different amounts, so each workload
uses kernels of the kind of work its ops do: truncated Cauchy products of
7-term series, the core of the program's Taylor jets, on Python floats
("scalar"), on about 4096-wide ("narrow") or 65536-wide ("wide") numpy arrays, and
formatting floats into CSV rows ("text").
"""

import csv
import gc
import io
import statistics
import time

import numpy as np

# Array widths close to the program's 4096 and 65536, but not powers of two,
# whose relative addresses would make the kernel's cache behaviour, and so its
# time, depend on where one process's allocator placed them.
_NARROW, _WIDE = 4000, 64000
_SERIES = {
    "scalar": tuple(0.3 + 0.1 * k for k in range(7)),
    "narrow": tuple(np.linspace(0.1, 1.0, _NARROW) + k for k in range(7)),
    "wide": tuple(np.linspace(0.1, 1.0, _WIDE) + k for k in range(7)),
}
_REPEATS = {"scalar": 120, "narrow": 4}
_WIDE_BUFFERS = (np.empty(_WIDE), np.empty(_WIDE))
_COLUMNS = tuple(np.linspace(0.0, 1.0, 480) + k for k in range(8))

# Each kernel's median CPU time on the machine of README.md's reference figures.
NOMINAL_S = {"scalar": 5.5e-4, "narrow": 8.5e-4, "wide": 2.5e-3, "text": 8.4e-3}

# Kernels per workload, and for the set-up of every workload.  Set-up is
# mostly imports; of the four kernels, "narrow" tracked its CPU time best
# (spread between fresh processes 9%, against 18% unscaled).
WORKLOAD_KERNELS = {
    "scan-dense": ("wide",),
    "scan-newton": ("narrow",),
    "routes": ("scalar",),
    "scan-export": ("wide", "text"),
}
SETUP_KERNELS = ("narrow",)


def _products(series, repeats):
    for _ in range(repeats):
        out = []
        for k in range(7):
            acc = series[0] * series[k]
            for i in range(1, k + 1):
                acc = acc + series[i] * series[k - i]
            out.append(acc)
    return out


def _wide_products():
    # In place: a fresh 500 KiB temporary may come from mmap or from the heap
    # depending on the allocator's history, which would make the kernel's
    # time depend on the op before it.
    series, acc, term = _SERIES["wide"], _WIDE_BUFFERS[0], _WIDE_BUFFERS[1]
    for k in range(7):
        np.multiply(series[0], series[k], out=acc)
        for i in range(1, k + 1):
            np.multiply(series[i], series[k - i], out=term)
            np.add(acc, term, out=acc)


def _text():
    writer = csv.writer(io.StringIO())
    for row in zip(*_COLUMNS):
        writer.writerow([f"{value:.17g}" for value in row])


def _run(kind):
    if kind == "text":
        _text()
    elif kind == "wide":
        _wide_products()
    else:
        _products(_SERIES[kind], _REPEATS[kind])


def nominal(kinds):
    """Nominal CPU seconds of the kernels together."""
    return sum(NOMINAL_S[kind] for kind in kinds)


def sample(kinds):
    """CPU seconds of one run of the kernels, median of three.

    The cyclic garbage collector is paused: a collection that the kernel's
    allocations happen to trigger walks every object the program left
    behind, and made the kernel's time bimodal.
    """
    times = []
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):
            started = time.process_time()
            for kind in kinds:
                _run(kind)
            times.append(time.process_time() - started)
    finally:
        if collecting:
            gc.enable()
    return statistics.median(times)


def normalise(times, refs, kinds):
    """Scale op times to the nominal speed.

    times[j] is the j-th op's CPU time; refs[j] is the kernel sample taken
    just before op j, and refs[-1] the one after the last op.
    """
    if len(refs) != len(times) + 1:
        raise ValueError("need one reference sample before each op and one after the last")
    scale = nominal(kinds)
    return [t * scale / statistics.median(refs[j:j + 2]) for j, t in enumerate(times)]
