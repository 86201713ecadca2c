import math
from fractions import Fraction

from zetazeros.tables import (
    BERNOULLI_MAX_INDEX,
    bernoulli,
    bernoulli_over_factorial,
)


def test_bernoulli_recurrence_exact():
    bern = bernoulli()
    assert len(bern) == BERNOULLI_MAX_INDEX + 1
    for m in range(1, BERNOULLI_MAX_INDEX + 1):
        acc = Fraction(0)
        for j in range(m + 1):
            acc += math.comb(m + 1, j) * bern[j]
        assert acc == 0, m


def test_bernoulli_known_values():
    bern = bernoulli()
    assert bern[0] == 1
    assert bern[1] == Fraction(-1, 2)
    assert bern[2] == Fraction(1, 6)
    assert bern[4] == Fraction(-1, 30)
    assert bern[12] == Fraction(-691, 2730)
    assert all(bern[k] == 0 for k in range(3, BERNOULLI_MAX_INDEX, 2))


def test_em_weights_match_fractions():
    bern = bernoulli()
    weights = bernoulli_over_factorial()
    assert weights[2] == float(bern[2]) / 2
    assert weights[24] == float(bern[24] / math.factorial(24))
