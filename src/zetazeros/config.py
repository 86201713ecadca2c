"""Value-with-error container, the error target and the error propagation rules.

EvalConfig carries the one evaluation setting a caller chooses, the absolute
error target.  The others are constants of zeta.py: the Euler-Maclaurin
order EM_ORDER, the direct-sum term cap MAX_TERMS and the pole guard
POLE_GUARD.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np


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
    """The error target of every series evaluation.

    target_abs_err: requested absolute error per evaluation.  Euler-Maclaurin
        sums take the smallest cutoff N whose truncation term meets it, so it
        sets the work done, and a value carries a truncation error near the
        target rather than far below it.
    """

    target_abs_err: float = 1e-12

    def __post_init__(self):
        if not self.target_abs_err > 0:
            raise ValueError("target_abs_err must be > 0")


DEFAULT_CONFIG = EvalConfig()


# First-order error propagation on (value, abs_err) pairs, where a value is a
# complex or a numpy array of them: the expression evaluator and the family
# term lists apply these rules to points and to batches alike.  On arrays
# every product, modulus and power rounds as Python's does on a complex, so
# a batch value equals the point value bit for bit.

def cmul(u, v):
    """u * v; on arrays taken as u*Re(v) + u*i*Im(v), which rounds as Python's
    complex product does, where numpy's may fuse its multiply-adds."""
    if isinstance(u, np.ndarray) or isinstance(v, np.ndarray):
        return u * v.real + u * 1j * v.imag
    return u * v


def cabs(z):
    """|z|; on arrays np.hypot, as Python's abs, where np.abs rounds its own way."""
    if isinstance(z, np.ndarray):
        return np.hypot(z.real, z.imag)
    return abs(z)


def _ipow(x, k: int, mul=cmul):
    """x**k for an integer k >= 1 by binary powering, in the order of CPython's
    integer power of a complex (exponents up to 100)."""
    r = None
    while True:
        if k & 1:
            r = x if r is None else mul(r, x)
        k >>= 1
        if not k:
            return r
        x = mul(x, x)


def err_add(pairs) -> tuple:
    z, err = 0j, 0.0
    for v, ev in pairs:
        z, err = z + v, err + ev
    return z, err + 1e-16 * cabs(z)


def err_mul(a, ea, b, eb) -> tuple:
    # On a point, Python's own product and abs, chosen once instead of per cmul/cabs call.
    mul, mod = ((cmul, cabs) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray)
                else (operator.mul, abs))
    z = mul(a, b)
    return z, mod(a) * eb + mod(b) * ea + ea * eb + 1e-16 * mod(z)


def err_pow(v, ev, k: int) -> tuple:
    if k < 1:
        raise ValueError("integer power must be >= 1")
    z = _ipow(v, k)
    err = k * _ipow(cabs(v), k - 1, operator.mul) * ev if k > 1 else ev
    return z, err + 1e-16 * cabs(z)
