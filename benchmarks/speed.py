"""Host speed references for scaling the benchmark's timings.

Shared hosts change speed by 1.3-2x in phases that last from seconds to
minutes, which is more than any regression bound can absorb. The
benchmark therefore times a fixed reference right before and right after
every timed sample and reports the sample scaled to the reference's
nominal time:

    scaled = raw * nominal / mean(reference before, reference after)

There are two references, because in-process work and fresh processes
slow down differently:

- kernel_s() is plain Python and numpy run in the benchmark process: tuple
  and dict work as in group tables, small complex eigen- and singular-value
  problems as in the representation code, and a mid-sized SVD as in the
  SBD commutant solve. It scales the in-process gates.
- process_s() is one fresh interpreter that imports numpy, most of what a
  nlgc CLI process or `import nlgc` costs before nlgc's own code runs. It
  scales the CLI processes and the import probes.

Neither calls nlgc, so a change to nlgc moves the scaled times exactly as
it moves the raw ones, while a slow phase of the host stretches sample and
reference alike and cancels out. The raw times stay in the run metadata.
"""
from __future__ import annotations

import itertools
import subprocess
import sys
import time

import numpy as np

# Median reference times on the reference host (2-vCPU Xeon VM, Python
# 3.11, numpy 2.4, one BLAS thread); scaled times are seconds at that speed.
KERNEL_NOMINAL_S = 0.010
PROCESS_NOMINAL_S = 0.20

_PERMS = list(itertools.permutations(range(4)))
_RNG = np.random.default_rng(12345)
_SMALL = [_RNG.normal(size=(n, n)) + 1j * _RNG.normal(size=(n, n)) for n in (6, 9, 12, 16)]
_MID = _RNG.normal(size=(72, 72)) + 1j * _RNG.normal(size=(72, 72))


def _python_part() -> int:
    index = {p: i for i, p in enumerate(_PERMS)}
    table = [[index[tuple(a[b[k]] for k in range(4))] for b in _PERMS] for a in _PERMS]
    return sum(map(sum, table))


def _numpy_part() -> float:
    acc = 0.0
    for m in _SMALL:
        acc += float(np.linalg.eigvalsh(m + m.conj().T)[0])
        acc += float(np.linalg.svd(m, compute_uv=False)[0])
        acc += float(np.abs(np.kron(m[:3, :3], m[:2, :2]) @ np.kron(m[:2, :2], m[:3, :3])).sum())
    return acc + float(np.linalg.svd(_MID, compute_uv=False)[0])


def kernel_s(blocks: int = 3) -> float:
    """Time of the in-process reference kernel: the fastest of a few blocks,
    so that an interruption of one block does not read as a slow host."""
    best = float("inf")
    for _ in range(blocks):
        t0 = time.perf_counter()
        for _ in range(4):
            _python_part()
            _numpy_part()
        best = min(best, time.perf_counter() - t0)
    return best


def process_s(env: dict) -> float:
    """Wall time of one fresh interpreter that imports numpy."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, check=True,
                   capture_output=True, timeout=60)
    return time.perf_counter() - t0
