"""Machine-speed calibration for the end-to-end timings.

The benchmark's machine shares its cores with other tenants.  Under
their load each CPU switches, every second or so, between a fast and a
slow state that runs the same code 1.4 to 3 times slower, so medians
within one run cannot remove it: they follow the share of time the run
spent in each state.  The timed loop therefore runs a fixed kernel
before and after every op and scales the op's timings by its
``REFERENCE_S`` over the kernel time (wall timings by its wall time, CPU
timings by its CPU time).  Each workload names the kernel closest to
what it spends its time on.  ``mixed`` has Python-level loops over small
complex matrix products and traces, 48 x 48 and 96 x 96 products and a
dense Hermitian eigensolve.  ``small`` is many d=8 instances as in
``syncround verify``; on ``verify-sweep`` ops it cut the spread of
throughput over 20 s blocks from 9.5 % (``mixed``) to 6.1 %.  Both live
in the benchmark's own files, so no change to ``syncround`` can move
them; a slower program still reads slower.

Normalized timings are in milliseconds (or seconds) of a machine on
which one kernel call takes its ``REFERENCE_S``; the result file keeps
the raw timings and every kernel time beside them.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

# median time of one call of each kernel on a 2-core Xeon VM, Python 3.11,
# one OpenBLAS thread
REFERENCE_S = {"mixed": 0.0034, "small": 0.0018}
REPEATS = 3

_rng = np.random.default_rng(20230716)


def _complex(dim: int) -> np.ndarray:
    return _rng.standard_normal((dim, dim)) + 1j * _rng.standard_normal((dim, dim))


_LARGE = [_complex(48) for _ in range(6)]
_SMALL = [_complex(6) for _ in range(12)]
_WIDE = [_complex(96) for _ in range(2)]
_HERMITIAN = _LARGE[0] + _LARGE[0].conj().T
_EIGHT = [a + a.conj().T for a in (_complex(8) for _ in range(16))]


def _mixed() -> float:
    acc = 0.0
    for a in _LARGE:
        for b in _LARGE:
            acc += float(np.trace(a @ b).real)
    for a in _SMALL:
        for b in _SMALL:
            acc += float(np.trace(a @ b).real)
    acc += float(np.trace(_WIDE[0] @ _WIDE[1]).real)
    return acc + float(np.linalg.eigvalsh(_HERMITIAN)[0])


def _small() -> float:
    """Many d=8 instances, as in ``syncround verify``: an eigensolve, a
    spectral projection, a trace and a JSON record each."""
    records = []
    for i in range(24):
        h = _EIGHT[i % len(_EIGHT)]
        w, v = np.linalg.eigh(h)
        p = v[:, :4] @ v[:, :4].conj().T
        records.append({"index": i, "trace": float(np.trace(p @ h).real), "spectrum": w.tolist()})
    return float(len(json.dumps(records)))


_KERNELS = {"mixed": _mixed, "small": _small}


def kernel_seconds(kind: str) -> tuple[float, float]:
    """Median wall and CPU seconds of ``REPEATS`` calls of kernel ``kind``.

    The median, not the minimum: the machine switches between a fast and
    a slow state, and the timings should follow the state the ops ran
    in, not the rarer fast one.  CPU time leaves out time the machine
    gave to other tenants, so CPU timings are scaled by the kernel's CPU
    time and wall timings by its wall time.
    """
    kernel = _KERNELS[kind]
    walls, cpus = [], []
    for _ in range(REPEATS):
        wall, cpu = time.perf_counter(), time.process_time()
        kernel()
        walls.append(time.perf_counter() - wall)
        cpus.append(time.process_time() - cpu)
    return statistics.median(walls), statistics.median(cpus)
