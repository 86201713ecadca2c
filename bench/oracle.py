"""Independent reference values from mpmath at 30 significant digits.

Each expression the benchmark evaluates has a closed form in terms of mpmath's
own zeta and gamma, so no value here depends on zetazeros' Euler-Maclaurin
code.  The family closed forms are:

    ezd(2)                = (zeta(s)^2 - zeta(2s)) / 2
    barnes(2, a)          = zeta(s-1, a) + (1-a) zeta(s, a)
    sphere(2)             = 2 zeta(2s-1, 3/2)
    symmat(3, Ln, +1, +1) = (2 zeta(2s-1) zeta(s-1) - zeta(s) zeta(2s-2)) / 24
"""

from __future__ import annotations

import mpmath as mp

DIGITS = 30


def _xi(s):
    return mp.pi ** (-s / 2) * mp.gamma(s / 2) * mp.zeta(s)


def _barnes2(s, a):
    return mp.zeta(s - 1, a) + (1 - a) * mp.zeta(s, a)


_ORACLES = {
    "zeta(s)": mp.zeta,
    "hurwitz(s,1)": lambda s: mp.zeta(s, 1),
    "hurwitz(s,1/2)": lambda s: mp.zeta(s, mp.mpf(1) / 2),
    "hurwitz(s,1/3)": lambda s: mp.zeta(s, mp.mpf(1) / 3),
    "hurwitz(s,1/10)": lambda s: mp.zeta(s, mp.mpf(1) / 10),
    "xi(s)": _xi,
    "ezd(2)": lambda s: (mp.zeta(s) ** 2 - mp.zeta(2 * s)) / 2,
    "barnes(2, 1/3)": lambda s: _barnes2(s, mp.mpf(1) / 3),
    "sphere(2)": lambda s: 2 * mp.zeta(2 * s - 1, mp.mpf(3) / 2),
    "symmat(3, Ln, +1, +1)": lambda s: (2 * mp.zeta(2 * s - 1) * mp.zeta(s - 1)
                                        - mp.zeta(s) * mp.zeta(2 * s - 2)) / 24,
    "zeta(s)^2-zeta(2*s)": lambda s: mp.zeta(s) ** 2 - mp.zeta(2 * s),
    "xi(s+1/2)-xi(s-1/2)": lambda s: _xi(s + mp.mpf(1) / 2) - _xi(s - mp.mpf(1) / 2),
}


def reference(text: str, s: complex) -> complex:
    """The exact value of expression `text` at s, rounded to a Python complex."""
    with mp.workdps(DIGITS):
        return complex(_ORACLES[text](mp.mpc(s.real, s.imag)))
