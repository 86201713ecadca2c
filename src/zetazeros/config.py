"""Value-with-error container and the evaluation configuration knobs."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ComplexValue:
    """A complex number together with an estimated absolute error bound."""

    re: float
    im: float
    abs_err: float

    def __post_init__(self):
        if not (math.isfinite(self.abs_err) and self.abs_err >= 0.0):
            raise ValueError(f"abs_err must be finite and >= 0, got {self.abs_err}")

    @property
    def z(self) -> complex:
        return complex(self.re, self.im)

    def __complex__(self) -> complex:
        return complex(self.re, self.im)

    def __abs__(self) -> float:
        return abs(complex(self.re, self.im))

    @staticmethod
    def of(z: complex, abs_err: float) -> "ComplexValue":
        z = complex(z)
        return ComplexValue(z.real, z.imag, float(abs_err))


@dataclass(frozen=True)
class EvalConfig:
    """Truncation/order/tolerance parameters governing every series evaluation.

    target_abs_err: requested absolute error per evaluation.  Euler-Maclaurin
        sums take the smallest cutoff N whose truncation term meets it, so it
        sets the work done, and a value carries a truncation error near the
        target rather than far below it.
    em_order: number of Bernoulli correction terms in Euler-Maclaurin sums.
    max_terms: hard cap on direct-sum terms.
    pole_guard: minimum allowed distance to a known pole.
    """

    target_abs_err: float = 1e-12
    em_order: int = 12
    max_terms: int = 10**7
    pole_guard: float = 1e-8

    def __post_init__(self):
        if not self.target_abs_err > 0:
            raise ValueError("target_abs_err must be > 0")
        if self.em_order < 1:
            raise ValueError("em_order must be >= 1")
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")
        if not self.pole_guard > 0:
            raise ValueError("pole_guard must be > 0")


DEFAULT_CONFIG = EvalConfig()


# First-order error propagation on (value, abs_err) pairs, where a value is a
# complex or a numpy array of them: the expression evaluator applies these to
# points and to batches alike, and the cv_* forms to ComplexValues serve the
# family evaluators.

def err_add(pairs) -> tuple:
    z, err = 0j, 0.0
    for v, ev in pairs:
        z, err = z + v, err + ev
    return z, err + 1e-16 * abs(z)


def err_mul(a, ea, b, eb) -> tuple:
    z = a * b
    return z, abs(a) * eb + abs(b) * ea + ea * eb + 1e-16 * abs(z)


def err_pow(v, ev, k: int) -> tuple:
    if k < 1:
        raise ValueError("integer power must be >= 1")
    z = v**k
    err = k * abs(v) ** (k - 1) * ev if k > 1 else ev
    return z, err + 1e-16 * abs(z)


def cv_add(*vals: ComplexValue) -> ComplexValue:
    return ComplexValue.of(*err_add((v.z, v.abs_err) for v in vals))


def cv_mul(a: ComplexValue, b: ComplexValue) -> ComplexValue:
    return ComplexValue.of(*err_mul(a.z, a.abs_err, b.z, b.abs_err))


def cv_scale(c: complex, v: ComplexValue) -> ComplexValue:
    return ComplexValue.of(c * v.z, abs(c) * v.abs_err)
