"""A fixed computation, timed around every round, that tracks how fast the machine runs.

On a shared machine the speed a process gets drifts by tens of per cent
within minutes.  This reference does the three kinds of work the program
does, in similar shares: interpreter work (loops, calls, float
arithmetic, dict traffic), small-array numpy work (pairwise distances,
exp, sqrt, sorts on a 176 x 49 block) and BLAS work (a 500 x 150 x 500
product and a 500 x 500 Cholesky factorisation).  It calls no code of
the program, so a change to the program cannot change it.
"""

import math
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

_A = np.linspace(0.0, 1.0, 176 * 49).reshape(176, 49)
_B = np.cos(np.arange(80 * 49, dtype=float)).reshape(80, 49)
_PHI = np.sin(np.arange(150 * 500, dtype=float)).reshape(150, 500)


def _interpreter_work():
    table = {}
    total = 0.0
    for i in range(30000):
        key = i % 97
        total += math.sqrt(i + 1.0) * 0.5
        table[key] = table.get(key, 0.0) + total * 1e-9
    return total + sum(table.values())


def _small_array_work():
    total = 0.0
    for _ in range(40):
        d = np.sqrt(np.maximum(np.sum(_A * _A, axis=1)[:, None] - 2.0 * (_A @ _B.T), 0.0))
        k = (1.0 + d) * np.exp(-d)
        total += float(k.sum()) + float(np.argsort(k[:, 0])[0])
    return total


def _blas_work():
    gram = _PHI.T @ _PHI + 1e-3 * np.eye(_PHI.shape[1])
    return float(np.linalg.cholesky(gram)[-1, -1])


def _reference():
    _interpreter_work()
    _small_array_work()
    _blas_work()


def reference_seconds(threads=1, repeats=3):
    """Fastest of ``repeats`` timings of the reference, one copy per thread, run together.

    A round that runs its experiments on two threads meets the machine's
    load on both cores and contends for the interpreter lock, so its
    reference does the same.
    """
    best = math.inf
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for _ in range(repeats):
            tick = time.perf_counter()
            for future in [pool.submit(_reference) for _ in range(threads)]:
                future.result()
            best = min(best, time.perf_counter() - tick)
    return best
