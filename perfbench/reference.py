"""A fixed reference computation that tracks the host's current speed.

On the 2-vCPU VM this benchmark was written on, the same lopsim op ran up to
twice as fast in some minutes as in others, because other tenants share the
host's cores. The reference does the same kind of work as lopsim (interpreted
complex arithmetic and small numpy eigenproblems) without calling lopsim, so
no change to lopsim can move it. A timing taken next to a reference timing r
is reported at nominal host speed: scaled by NOMINAL_S / r.
"""

import time

import numpy as np

# Reference time on that VM in its faster state; it only sets the scale.
NOMINAL_S = 0.015

_RE, _IM = np.random.default_rng(0).standard_normal((2, 10, 10))
_M = _RE + 1j * _IM
_ROWS = _M.tolist()
_HERMITIAN = _M + _M.conj().T


def _work():
    k = len(_ROWS)
    total = 0j
    for subset in range(1, 1 << k):  # Ryser-style sums, as in lopsim.permanent
        prod = 1 + 0j
        for row in _ROWS:
            acc = 0j
            for j in range(k):
                if subset >> j & 1:
                    acc += row[j]
            prod *= acc
        total += prod
    for _ in range(200):
        np.linalg.eigvalsh(_HERMITIAN)
    return total


def seconds() -> float:
    """Wall time of one reference computation."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start
