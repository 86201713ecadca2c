"""Exact Bernoulli numbers and the Euler-Maclaurin weights taken from them.

The numbers are built once with arbitrary-size rational arithmetic and kept
immutable; floating conversion happens only at evaluation time in the callers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

# B_0 .. B_68.  The kernel reads B_{2M+2} at M = zeta.EM_ORDER, and
# zeta.hurwitz_majorant B_{2m} for its m terms, which it refuses past this.
BERNOULLI_MAX_INDEX = 68


@lru_cache(maxsize=1)
def bernoulli() -> tuple[Fraction, ...]:
    """B_0 .. B_{BERNOULLI_MAX_INDEX}, with B_1 = -1/2."""
    # sum_{j=0}^{m} C(m+1, j) B_j = 0 for m >= 1, B_0 = 1.
    bern = [Fraction(1)]
    for m in range(1, BERNOULLI_MAX_INDEX + 1):
        acc = sum(math.comb(m + 1, j) * bern[j] for j in range(m))
        bern.append(-acc / (m + 1))
    return tuple(bern)


@lru_cache(maxsize=1)
def bernoulli_over_factorial() -> tuple[float, ...]:
    """float(B_k / k!) for k = 0..BERNOULLI_MAX_INDEX, the Euler-Maclaurin weights."""
    return tuple(float(b / math.factorial(k)) for k, b in enumerate(bernoulli()))
