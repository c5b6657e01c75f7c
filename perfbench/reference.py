"""Fixed reference work, timed next to the requests to track the machine's speed.

The session worker imports this module and times a pass before each
request.  For one-off processes the harness runs it as a script, which
prints the time of one pass in that fresh interpreter.  It never touches
qpartitions.
"""

from __future__ import annotations

import time


# Everything the reference work writes to is allocated once, here, so that
# a pass frees nothing but the small ints it replaces.  A pass that built
# and dropped its own tables would fragment the worker's heap and raise its
# peak RSS.
_FACTORS = [(i * 7919 + 1) ** 3 for i in range(80)]
_PRODUCT = [0] * (2 * len(_FACTORS) - 1)
_ROW = [0] * 300
_MEMO = {(n, k): n * 1000 + k for n in range(64) for k in range(64)}


def reference_work() -> int:
    """Fixed pure-Python work like the library's: big-int list sums and memo lookups."""
    product = _PRODUCT
    for i in range(len(product)):
        product[i] = 0
    for i, x in enumerate(_FACTORS):
        for j, y in enumerate(_FACTORS):
            product[i + j] += x * y
    row = _ROW
    for k in range(len(row)):
        row[k] = 0
    row[0] = 1
    for n in range(1, len(row)):
        for k in range(n, 0, -1):
            row[k] += row[k - 1]
    memo = _MEMO
    total = 0
    for _ in range(3):
        for n in range(64):
            for k in range(64):
                total += memo[(n, k)]
    return product[-1] + row[len(row) // 2] + total


def probe() -> float:
    """The wall time of one pass of reference_work()."""
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


if __name__ == "__main__":
    print(probe())
