"""Fixed reference kernels that tell how fast the host runs at a moment.

The benchmark times a kernel just before and just after every request (and
every cold set-up) and divides the request's latency by the kernel's mean
slowness: its time over its nominal time.  A kernel is the benchmark's own
code on fixed inputs, so no change to `hypersect` can change its time; only
the host's speed can.

A slow host does not slow all code alike: large numpy eliminations slow
less than code that makes many small Python objects.  So there are two
kernels, each doing the kind of work its workloads spend their time on
(see `workloads.REFERENCE_KERNEL`):

- `elimination`: fraction-free elimination on Python ints and mod-p
  elimination on a numpy int64 array;
- `objects`: the same fraction-free elimination, row reduction over
  `Fraction` and products of dict polynomials.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import gcd

PRIME = 2**31 - 1

_rng = random.Random(20240)
_INT_ROWS = [[_rng.randint(-3, 3) for _ in range(64)] for _ in range(36)]
_MOD_ROWS = [[_rng.randrange(PRIME) for _ in range(240)] for _ in range(120)]
_FRACTION_ROWS = [[_rng.randint(-4, 4) for _ in range(22)] for _ in range(12)]
_POLY = {tuple(_rng.randint(0, 2) for _ in range(5)): _rng.randint(1, 100) for _ in range(25)}


def _rank_fraction_free(rows: list[list[int]]) -> int:
    a = [list(row) for row in rows]
    r = 0
    for c in range(len(a[0])):
        pr = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        piv = a[r]
        for i in range(r + 1, len(a)):
            f = a[i][c]
            if f:
                g = gcd(piv[c], f)
                row = [piv[c] // g * x - f // g * y for x, y in zip(a[i], piv)]
                content = 0
                for x in row:
                    content = gcd(content, x)
                a[i] = [x // content for x in row] if content > 1 else row
        r += 1
        if r == len(a):
            break
    return r


def _rank_mod_p(rows: list[list[int]]) -> int:
    import numpy as np  # not at module level: the caller sets BLAS threads first

    a = np.array(rows, dtype=np.int64)
    nrows, ncols = a.shape
    r = 0
    for c in range(ncols):
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), -1, PRIME) % PRIME
        below = r + 1 + np.nonzero(a[r + 1 :, c])[0]
        a[below, c:] = (a[below, c:] - a[below, c][:, None] * a[r, c:]) % PRIME
        r += 1
        if r == nrows:
            break
    return r


def _rank_fractions(rows: list[list[int]]) -> int:
    a = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(len(a[0])):
        pr = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == len(a):
            break
    return r


def _cube_terms(poly: dict) -> int:
    """The number of terms of poly^3 over F_101."""
    out = poly
    for _ in range(2):
        product: dict = {}
        for ma, ca in out.items():
            for mb, cb in poly.items():
                m = tuple(x + y for x, y in zip(ma, mb))
                product[m] = (product.get(m, 0) + ca * cb) % 101
        out = {m: c for m, c in product.items() if c}
    return len(out)


# name -> (nominal seconds, parts); a part is (function, input, expected result).
# A nominal time is the kernel's median time on the reference host, a shared
# 2-core Intel Xeon VM, so reference seconds read close to plain seconds there.
KERNELS = {
    "elimination": (0.036, ((_rank_fraction_free, _INT_ROWS, 36), (_rank_mod_p, _MOD_ROWS, 120))),
    "objects": (0.040, ((_rank_fraction_free, _INT_ROWS, 36), (_rank_fractions, _FRACTION_ROWS, 12),
                        (_cube_terms, _POLY, 2144))),
}


def slowness(kernel: str) -> float:
    """The kernel's time now over its nominal time; 2.0 means the host runs at half speed."""
    nominal, parts = KERNELS[kernel]
    start = time.perf_counter()
    results = [function(data) for function, data, _ in parts]
    elapsed = time.perf_counter() - start
    expected = [result for _, _, result in parts]
    if results != expected:
        raise AssertionError(f"reference kernel {kernel} computed {results}, expected {expected}")
    return elapsed / nominal


def scale(seconds: float, before: float, after: float) -> float:
    """`seconds`, timed between slowness samples `before` and `after`, in reference seconds.

    That is the time at the reference host's median speed.
    """
    return seconds * 2 / (before + after)
