"""Hurwitz/Riemann zeta on the continued domain, complex log-gamma, completed zeta.

The workhorse is Euler-Maclaurin summation:

    zeta(s, a) = sum_{n=0}^{N-1} (n+a)^{-s}
               + (N+a)^{1-s}/(s-1) + (N+a)^{-s}/2
               + sum_{k=1}^{M} B_{2k}/(2k)! * (s)_{2k-1} * (N+a)^{-s-2k+1}
               + R_M(N),

valid for every s != 1 and every shift a > 0 once N + a is large enough that
the correction terms decrease.  (s)_m denotes the rising factorial
s(s+1)...(s+m-1).  hurwitz_pair evaluates this one formula, as a (value,
abs_err) pair, at a point or at an array of points; hurwitz_zeta,
hurwitz_zeta_shifted and riemann_zeta wrap its point form in a ComplexValue.
completed_zeta_pair, pi^{-s/2} Gamma(s/2) zeta(s), has the kernel's shape:
one body of operators for a point and an array, a guard that raises the
error of the first rejected point, and the kernel's sum before Gamma(s/2).

The order M is the constant EM_ORDER.  The cutoff N is chosen from the error
target: it is the smallest N at which twice the first omitted correction
term is at most EvalConfig.target_abs_err (and N + a >= |s+2M|/pi).  The
target therefore sets the work done, and a value carries a truncation error
near the target rather than far below it.
The reported abs_err is that truncation term plus a rounding-noise allowance
for the prefix sum; the allowance is calibrated, not proven, and misses on a
small share of points (see the ROADMAP item on abs_err as a proven bound).
One chain of rising factorials per point serves the cutoff and the
corrections, which are summed in Horner form.

A point and an array run one kernel body, hurwitz_pair and _hurwitz_em.  Every
point keeps its own cutoff N, and its prefix row is zero-padded to a length
that depends on N alone before the pairwise sum, so a value never depends on
which other points share the batch.  Products on arrays round as Python's do
on a complex (config.cmul), and both forms take their real logs from numpy,
so a point and an array agree bit for bit by construction; they part only in
how the prefix rows are laid out.

hurwitz_majorant and gamma_majorant bound |(w-1) zeta(w, a)| and |Gamma(u)|
over boxes in closed form, with no loop over the prefix, for the zero
engine's segment test (expr.majorant).
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
from functools import lru_cache

import numpy as np

from .config import ComplexValue, EvalConfig, DEFAULT_CONFIG, cabs, cmul
from .errors import BudgetExceeded, PoleProximity, ZetaError
from .tables import BERNOULLI_MAX_INDEX, bernoulli, bernoulli_over_factorial

EM_ORDER = 12            # Bernoulli correction terms M of every Euler-Maclaurin sum
MAX_TERMS = 10**7        # hard cap on direct-sum terms
POLE_GUARD = 1e-8        # least distance from a point to a pole candidate
LOG_GAMMA_SHIFT = 12.0   # recurrence target for Re(s) before the Stirling series
LOG_GAMMA_TERMS = 10


def rpow(x: float, w: complex) -> complex:
    """x**w for real x > 0 via exp(w*log x); no branch ambiguity."""
    return cmath.exp(w * math.log(x))


PREFIX_BLOCK = 1 << 13   # most prefix-matrix entries an array's sum holds at once
_ROW_PAD = 64            # prefix rows are zero-padded to a multiple of this


@lru_cache(maxsize=32)
def _log_block(a: float) -> np.ndarray:
    arr = np.log(np.arange(PREFIX_BLOCK, dtype=np.float64) + a)
    arr.setflags(write=False)
    return arr


def _log_grid(a: float, n: int) -> np.ndarray:
    """log(k + a) for k < n.  A row that fits in a prefix block is a slice of
    the one cached block for shift a (np.log gives the same bits either way);
    a wider row is computed and not kept, since very negative Re(s) needs
    N in the hundreds of thousands."""
    if n <= PREFIX_BLOCK:
        return _log_block(a)[:n]
    return np.log(np.arange(n, dtype=np.float64) + a)


def _hurwitz_em(s, a: float, n_cut, order: int, chain=None) -> tuple:
    """Euler-Maclaurin at a fixed cutoff N and order, (value, abs_err), at a
    point s (N an integer) or at every point of a 1-D complex array s (N an
    array of them); no adaptivity, no pole guard.  chain: as for _em_cutoff.

    Each prefix row is zero-padded to a multiple of _ROW_PAD and summed
    pairwise over the one log grid.  An array groups its rows by padded length
    into blocks of at most PREFIX_BLOCK entries, a wider row being a block of
    its own, so a value never depends on which other points share the batch;
    a point lays its one row out alone, which rounds the same at a tenth of
    the cost.  The layout is the only place where the two forms part."""
    if isinstance(s, np.ndarray):
        n_cut = n_cut.astype(np.int64)
        width = -(-n_cut // _ROW_PAD) * _ROW_PAD
        prefix, mass = np.zeros(s.shape, dtype=complex), np.zeros(s.shape)
        for w in np.unique(width).tolist():
            rows, logs, step = np.flatnonzero(width == w), _log_grid(a, w), max(1, PREFIX_BLOCK // w)
            for lo in range(0, len(rows), step):
                r = rows[lo:lo + step]
                terms = np.exp(-s[r, None] * logs, out=np.zeros((len(r), w), dtype=complex),
                               where=np.arange(w) < n_cut[r, None])
                prefix[r], mass[r] = terms.sum(axis=1), np.abs(terms).sum(axis=1)
    else:
        n_cut = int(n_cut)
        terms = np.zeros(-(-n_cut // _ROW_PAD) * _ROW_PAD, dtype=complex)
        np.exp(-s * _log_grid(a, n_cut), out=terms[:n_cut])
        prefix, mass = complex(np.add.reduce(terms)), float(np.add.reduce(np.abs(terms)))
    x = n_cut + a
    return _em_tail(s, x, np.log(x), prefix, mass, np.log2(n_cut + (n_cut < 2)), order,
                    _pochhammer_chain(s, order) if chain is None else chain)


def _pochhammer_chain(s, order: int) -> list:
    """[(s)_1, (s)_3, ..., (s)_{2M+1}] for M = order, each entry the one before
    times s + (2k-1), then times s + 2k, each factor rounded once from s.  On an
    array the products are config.cmul, which rounds as Python's complex
    product does at a point."""
    mul = cmul if isinstance(s, np.ndarray) else operator.mul
    chain = [s]
    for j in range(1, 2 * order, 2):
        chain.append(mul(mul(chain[-1], s + j), s + (j + 1)))
    return chain


def _em_tail(s, x, log_x, prefix, prefix_mass, log2n, order, chain):
    """Value and abs_err from the prefix sum over n < N, x = N + a, log_x = log x,
    log2n = log2(max(N, 2)) and chain = _pochhammer_chain(s, order), for points
    and arrays alike.  The corrections are x^{-s-1} times a polynomial in y = x^-2,
    in Horner form (Johansson, arXiv:1309.2877, section 2); the truncation term
    takes the chain's last entry.  Quotients are products by reciprocals, and
    on arrays products and moduli are config.cmul and config.cabs, which round
    as Python's do on a complex.  Both logs come from numpy, whose log need not
    round as the C library's does; a point takes them as Python floats, so that
    no numpy scalar enters its complex arithmetic."""
    if isinstance(s, np.ndarray):
        exp, mul, mod = np.exp, cmul, cabs
    else:
        exp, mul, mod = cmath.exp, operator.mul, abs
        log_x, log2n = float(log_x), float(log2n)
    xs = exp(-s * log_x)                         # x^{-s}
    bfac = bernoulli_over_factorial()
    y = yk = 1.0 / (x * x)
    corr = bfac[2 * order] * chain[order - 1]
    for k in range(order - 1, 0, -1):
        corr = corr * y + bfac[2 * k] * chain[k - 1]
        yk = yk * y                              # y^order once the loop ends
    xs1 = xs * (1.0 / x)                         # x^{-s-1}
    d = s - 1
    pole = mul(xs * x, d.conjugate() * (1.0 / (d.real * d.real + d.imag * d.imag)))
    val = prefix + pole + 0.5 * xs + mul(corr, xs1)
    tail_bound = 2.0 * mod(mul(bfac[2 * order + 2] * chain[order], xs1)) * yk
    # Rounding model, calibrated over -2 <= Re(s) <= 4, |Im(s)| <= 500: the angle
    # t*log(n+a) carries absolute error eps*|angle|, a relative error per term.
    per_term = 4e-16 + 4e-17 * abs(s.imag)
    noise = per_term * (1.0 + log2n / 8.0) * (prefix_mass + mod(val) + mod(pole))
    return val, tail_bound + noise


def _em_cutoff(s, a: float, cfg: EvalConfig, chain=None):
    """Smallest N at which twice the first omitted term meets the target,
    2|B_{2M+2}/(2M+2)! (s)_{2M+1}| (N+a)^{-Re(s)-2M-1} <= target_abs_err
    with M = EM_ORDER,
    solved for N + a in closed form and checked once, since rounding can leave
    the root one short.  N + a is held at least |s+2M|/pi, which keeps each
    correction term at most a quarter of the one before, and N at least 1.
    (s)_{2M+1} is the last entry of chain (default _pochhammer_chain(s, M)).
    Returns N as a float, usable where _cutoff_ok says.  Operators only, the
    ceiling too, so that s may be an array or a complex (N a Python float)."""
    order = EM_ORDER
    poch = (_pochhammer_chain(s, order) if chain is None else chain)[order]
    factor = 2.0 * abs(bernoulli_over_factorial()[2 * order + 2] * poch)
    # 1 where the order cannot converge, so that the closed form neither
    # divides by 0 nor overflows at points _cutoff_ok rejects.
    decay = s.real + 2 * order + 1
    decay = (decay > 0.5) * decay + (decay <= 0.5)
    root = (factor / cfg.target_abs_err) ** (1.0 / decay)
    x_min = abs(s + 2 * order) / math.pi
    n = -((a - root * (root >= x_min) - x_min * (root < x_min)) // 1)      # ceiling
    n = n * (n >= 1) + (n < 1)
    return n + (factor * (n + a) ** -decay > cfg.target_abs_err)


def _cutoff_ok(s, n_cut):
    """Where Euler-Maclaurin may run with cutoff n_cut = _em_cutoff(s, ...):
    outside the pole guard, at an order that converges, within MAX_TERMS.
    Operators only, like _em_cutoff."""
    return ((abs(s - 1) >= POLE_GUARD) & (s.real + 2 * EM_ORDER + 1 > 0.5)
            & (n_cut <= MAX_TERMS))


def _cutoff_error(s: complex, a: float, cfg: EvalConfig) -> ZetaError:
    """The error for a point that _cutoff_ok rejects."""
    if abs(s - 1) < POLE_GUARD:
        return PoleProximity(
            f"s={s:.6g} within pole_guard of the pole at s=1", location=1.0 + 0j,
            source=f"hurwitz({a})",
        )
    if s.real + 2 * EM_ORDER + 1 <= 0.5:
        return BudgetExceeded(f"em_order={EM_ORDER} too small for Re(s)={s.real:.3g}")
    return BudgetExceeded(
        f"error target {cfg.target_abs_err:g} unreachable within "
        f"max_terms={MAX_TERMS} at s={s:.6g}"
    )


def hurwitz_pair(s, a: float, cfg: EvalConfig = DEFAULT_CONFIG) -> tuple:
    """(value, abs_err) of zeta(s, a), a > 0, at a point s (a complex) or at
    every point of a 1-D complex array s; no range check on a.  The one Hurwitz
    kernel: the chain, the cutoff, the guard, which raises the error of the
    first rejected point, and _hurwitz_em's sum.  A point and an array run the
    same code and agree bit for bit; they part only in the prefix row's layout.
    The expression atoms and the family term lists evaluate through this entry."""
    chain = _pochhammer_chain(s, EM_ORDER)
    n_cut = _em_cutoff(s, a, cfg, chain)
    ok = _cutoff_ok(s, n_cut)
    if not (ok.all() if isinstance(s, np.ndarray) else ok):
        raise _cutoff_error(complex(np.ravel(s)[np.argmin(ok)]), a, cfg)
    return _hurwitz_em(s, a, n_cut, EM_ORDER, chain)


def hurwitz_zeta(s: complex, a: float, cfg: EvalConfig = DEFAULT_CONFIG) -> ComplexValue:
    """zeta(s, a) = sum_{n>=0} (n+a)^{-s} continued to all s != 1; 0 < a <= 1."""
    if not 0.0 < a <= 1.0:
        raise ValueError(f"hurwitz_zeta requires 0 < a <= 1, got a={a}")
    return ComplexValue.of(*hurwitz_pair(complex(s), a, cfg))


def riemann_zeta(s: complex, cfg: EvalConfig = DEFAULT_CONFIG) -> ComplexValue:
    """zeta(s) = sum_{n>=1} n^{-s}, continued to all s != 1."""
    return ComplexValue.of(*hurwitz_pair(complex(s), 1.0, cfg))


def hurwitz_zeta_shifted(s: complex, a: float, cfg: EvalConfig = DEFAULT_CONFIG) -> ComplexValue:
    """zeta(s, a) for any a > 0, summed directly at a (no reduction to (0, 1])."""
    if a <= 0:
        raise ValueError(f"requires a > 0, got {a}")
    return ComplexValue.of(*hurwitz_pair(complex(s), a, cfg))


def log_gamma(s: complex) -> ComplexValue:
    """Principal branch of log Gamma(s), continuous off the ray (-inf, 0].

    Upward recurrence to Re(s) >= 12, then a 10-term Stirling series.  A
    point within POLE_GUARD of a non-positive integer raises PoleProximity.
    """
    s = complex(s)
    nearest = round(s.real)
    if nearest <= 0 and abs(s - nearest) < POLE_GUARD:
        raise PoleProximity(f"log_gamma pole at non-positive integer {nearest}",
                            location=complex(nearest), source="log_gamma")
    shift = max(0, math.ceil(LOG_GAMMA_SHIFT - s.real))
    res = _stirling(s + shift)
    for j in range(shift):
        res -= cmath.log(s + j)
    err = 1e-14 * (1.0 + abs(res)) + (shift + 1) * 3e-16 * (1.0 + abs(res))
    return ComplexValue.of(res, err)


_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_PI = math.log(math.pi)


def _stirling(w):
    """(w - 1/2) log w - w + log(2 pi)/2 + sum_k B_2k / (2k(2k-1) w^{2k-1}), the
    Stirling series of log Gamma(w) for Re(w) >= LOG_GAMMA_SHIFT, in Horner
    form in 1/w^2.  w is a complex or an array; np.log of a complex array
    agrees with cmath.log bit for bit at |w| >= 12 (not near |w| = 1)."""
    arr = isinstance(w, np.ndarray)
    log, mul = (np.log, cmul) if arr else (cmath.log, operator.mul)
    winv = w.conjugate() * (1.0 / (w.real * w.real + w.imag * w.imag))
    y = mul(winv, winv)
    coeffs = _stirling_coeffs()
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = mul(acc, y) + c
    return mul(w - 0.5, log(w)) - w + _HALF_LOG_2PI + mul(acc, winv)


@lru_cache(maxsize=1)
def _stirling_coeffs() -> tuple[float, ...]:
    bern = bernoulli()
    return tuple(
        float(bern[2 * k]) / (2 * k * (2 * k - 1))
        for k in range(1, LOG_GAMMA_TERMS + 1)
    )


def _xi_error(s: complex) -> PoleProximity:
    """The error for a point that completed_zeta_pair's guard rejects."""
    near = [p for p in (0, 1) if abs(s - p) < POLE_GUARD]
    at, what = (near[0], "") if near else (2 * round(0.5 * s.real), " Gamma(s/2)")
    return PoleProximity(f"completed zeta{what} pole at s={at:g}",
                         location=complex(at), source="xi")


def completed_zeta_pair(s, cfg: EvalConfig = DEFAULT_CONFIG) -> tuple:
    """(value, abs_err) of pi^{-s/2} Gamma(s/2) zeta(s) at a point s (a complex)
    or at every point of a 1-D array s, in the Hurwitz kernel's shape: one
    body of operators for both, bit for bit the same either way.  As in
    hurwitz_pair, the two forms part only where a line chooses Python's or
    numpy's operators and where the guard asks whether every point passed.

    The guard raises the error of the first point at a pole of the completed
    zeta (s = 1, and s = 0, -2, -4, ..., the poles of Gamma(s/2)); zeta(s)
    comes next, so that a point the kernel rejects raises its error before
    Gamma(s/2) can overflow.  Gamma(s/2) = exp(Stirling(w)) / prod_{j < shift}
    (s/2 + j), w = s/2 + shift, with the recurrence taken as one product, not
    as a sum of logs: numpy's complex log rounds as cmath.log only away from
    |z| = 1, and the factors s/2 + j come near it.  Each point keeps its own
    shift; on an array the product runs to the largest, a factor past a
    point's own shift being 1.  The abs_err holds an absolute allowance of the
    least normal double times |zeta(s)| and its error, for where the Gamma
    factor underflows.
    """
    arr = isinstance(s, np.ndarray)
    exp, mul, mod, most = ((np.exp, cmul, cabs, lambda x: x.max(initial=0)) if arr
                           else (cmath.exp, operator.mul, abs, float))
    h = 0.5 * s
    nearest = h.real // 1 + (h.real % 1 >= 0.5)
    # |s| < POLE_GUARD puts h within the guard of the Gamma(s/2) pole at 0.
    ok = (mod(s - 1) >= POLE_GUARD) & ((nearest > 0) | (mod(h - nearest) >= POLE_GUARD))
    if not (ok.all() if arr else ok):
        raise _xi_error(complex(np.ravel(s)[np.argmin(ok)]))
    zv, zerr = hurwitz_pair(s, 1.0, cfg)
    shift = -((h.real - LOG_GAMMA_SHIFT) // 1)      # ceil(LOG_GAMMA_SHIFT - Re h), at least 0
    shift = shift * (shift > 0)
    x = _stirling(h + shift) - h * _LOG_PI
    prod = 1 + 0j
    for j in range(int(most(shift))):
        prod = mul(prod, (h + j) * (j < shift) + (j >= shift))
    q = 1.0 / mod(prod)
    pref = mul(exp(x), prod.conjugate() * q * q)
    val = mul(pref, zv)
    gamma_err = (1e-14 + (shift + 1) * 3e-16) * (1.0 + mod(x))
    return val, (mod(pref) * zerr + mod(val) * (gamma_err + 5e-16)
                 + sys.float_info.min * (mod(zv) + zerr))


def completed_zeta(s: complex, cfg: EvalConfig = DEFAULT_CONFIG) -> ComplexValue:
    """pi^{-s/2} Gamma(s/2) zeta(s); simple poles at s = 0 and s = 1."""
    return ComplexValue.of(*completed_zeta_pair(complex(s), cfg))


# ---------------------------------------------------------------------------
# Majorants: closed-form upper bounds of |value| over boxes, for the zero
# engine's segment test.  Every argument is a float or an array of boxes.
# ---------------------------------------------------------------------------

_MAJORANT_TERMS = 4      # least Bernoulli terms m of the Euler-Maclaurin majorant


def _power_integral(lo, hi, sigma):
    """The integral of u^-sigma over [lo, hi] (0 where hi <= lo), for lo > 0."""
    span = np.log(np.maximum(hi, lo) / lo)
    y = (1.0 - sigma) * span
    ratio = np.where(np.abs(y) < 1e-8, 1.0 + 0.5 * y, np.expm1(y) / np.where(y == 0.0, 1.0, y))
    return lo ** (1.0 - sigma) * span * ratio


def hurwitz_majorant(sigma, sigma_hi, r, w1, a: float):
    """An upper bound of |(w-1) zeta(w, a)| over sigma <= Re w <= sigma_hi,
    |w| <= r and |w - 1| <= w1, for a > 0.

    Euler-Maclaurin with m = max(4, floor((1-sigma)/2) + 1) Bernoulli terms,
    so that sigma + 2m > 1 (one m for all the boxes of an array, from the
    least sigma), at x = N + a >= max(1, 0.7 (r + 2m) / pi):

        w1 [P + x^-sigma / 2 + sum_k |B_2k/(2k)!| prod_{j<2k-1} (r+j) x^{-sigma-2k+1}
            + R_m] + x^{1-sigma},

    where P bounds the prefix sum_{n<N} (n+a)^-Re(w) by its first term at the
    worse end of [sigma, sigma_hi] plus an integral (from a to x - 1 for
    sigma >= 0, to x below), and R_m = 4 prod_{j<2m} (r+j) / (2 pi)^{2m} *
    x^{1-sigma-2m} / (sigma + 2m - 1) is Johansson's remainder bound
    (arXiv:1309.2877, section 2).  Closed form: no loop over the prefix.
    Raises BudgetExceeded where m would read past the Bernoulli table."""
    m = max(_MAJORANT_TERMS, math.floor((1.0 - np.min(sigma, initial=1.0)) / 2.0) + 1)
    if 2 * m > BERNOULLI_MAX_INDEX:
        raise BudgetExceeded(f"majorant at Re(w) = {np.min(sigma):.3g} needs B_{2 * m}; "
                             f"the Bernoulli table stops at B_{BERNOULLI_MAX_INDEX}")
    n_cut = np.maximum(np.ceil(np.maximum(1.0, 0.7 * (r + 2.0 * m) / math.pi) - a), 0.0)
    x = n_cut + a
    prefix = ((n_cut >= 1) * np.maximum(a ** -sigma, a ** -sigma_hi)
              + _power_integral(a, x - (sigma >= 0), sigma))
    xs = x ** -sigma
    poch, decay, terms = r, xs / x, 0.5 * xs    # prod_{j<2k-1} (r+j) and x^{-sigma-2k+1}
    for k in range(1, m + 1):
        terms = terms + abs(bernoulli_over_factorial()[2 * k]) * poch * decay
        poch, decay = poch * (r + 2 * k - 1) * (r + 2 * k), decay / (x * x)
    # R_m from prod_{j<2m} (r+j) and x^{1-sigma-2m}, the loop having gone one step on.
    rest = 4 * poch / (r + 2 * m) * decay * x * x / (2 * math.pi) ** (2 * m) / (sigma + 2 * m - 1)
    return w1 * (prefix + terms + rest) + x * xs


def gamma_majorant(re_lo, re_hi, im_lo, im_hi):
    """An upper bound of |Gamma(u)| over the box re_lo <= Re u <= re_hi,
    im_lo <= Im u <= im_hi (inf where the box meets a pole).

    Gamma(u) = Gamma(u + n) / prod_{j<n} (u + j) with n the least shift that
    puts Re u + n >= 1 on every box; each |u + j| is bounded below by the
    distance from -j to the box.  On the shifted box Stirling's formula with
    its first remainder bound, |E| <= sec^2(arg/2) / (12|U|) <= 1/(6|U|) for
    Re U >= 1, gives log|Gamma(U)| <= (Re U - 1/2) log|U| - |Im U| |arg U| -
    Re U + log(2 pi)/2 + 1/(6|U|), each term bounded at its worst corner
    (Re U - 1/2 and log|U| are positive there)."""
    shift = max(0.0, math.ceil(1.0 - np.min(re_lo, initial=1.0)))
    im_min = np.maximum(0.0, np.maximum(im_lo, -im_hi))     # least |Im u| on the box
    denom = math.prod((np.hypot(np.maximum(0.0, np.maximum(re_lo + j, -j - re_hi)), im_min)
                       for j in range(int(shift))), start=1.0)
    lo, hi = re_lo + shift, re_hi + shift
    mod_lo, mod_hi = np.hypot(lo, im_min), np.hypot(hi, np.maximum(np.abs(im_lo), np.abs(im_hi)))
    log_bound = ((hi - 0.5) * np.log(mod_hi) - im_min * np.arctan2(im_min, hi) - lo
                 + _HALF_LOG_2PI + 1.0 / (6.0 * mod_lo))
    with np.errstate(divide="ignore"):
        return np.exp(log_bound) / denom
