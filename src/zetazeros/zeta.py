"""Hurwitz/Riemann zeta on the continued domain, complex log-gamma, completed zeta.

The workhorse is Euler-Maclaurin summation:

    zeta(s, a) = sum_{n=0}^{N-1} (n+a)^{-s}
               + (N+a)^{1-s}/(s-1) + (N+a)^{-s}/2
               + sum_{k=1}^{M} B_{2k}/(2k)! * (s)_{2k-1} * (N+a)^{-s-2k+1}
               + R_M(N),

valid for every s != 1 and every shift a > 0 once N + a is large enough that
the correction terms decrease.  (s)_m denotes the rising factorial
s(s+1)...(s+m-1).  hurwitz_zeta, hurwitz_zeta_shifted and riemann_zeta all
evaluate this one formula at their own a.

The cutoff N is chosen from the error target: it is the smallest N at which
twice the first omitted correction term is at most EvalConfig.target_abs_err
(and N + a >= |s+2M|/pi).  The target therefore sets the work done, and a
value carries a truncation error near the target rather than far below it.
The reported abs_err is that truncation term plus a rounding-noise allowance
for the prefix sum; the allowance is calibrated, not proven, and misses on a
small share of points (ROADMAP item 2).

hurwitz_batch evaluates the same formula at an array of s in one numpy pass.
Every point keeps its own cutoff N, and its prefix row is zero-padded to a
length that depends on N alone before the pairwise sum, so a value never
depends on which other points share the batch.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

from .config import ComplexValue, EvalConfig, DEFAULT_CONFIG
from .errors import BudgetExceeded, PoleProximity, ZetaError
from .tables import bernoulli_over_factorial

LOG_GAMMA_SHIFT = 12.0   # recurrence target for Re(s) before the Stirling series
LOG_GAMMA_TERMS = 10


def rpow(x: float, w: complex) -> complex:
    """x**w for real x > 0 via exp(w*log x); no branch ambiguity."""
    return cmath.exp(w * math.log(x))


@lru_cache(maxsize=128)
def _log_grid(a: float, n: int) -> np.ndarray:
    arr = np.log(np.arange(n, dtype=np.float64) + a)
    arr.setflags(write=False)
    return arr


def _hurwitz_em(s: complex, a: float, n_cut: int, order: int) -> ComplexValue:
    """Fixed-parameter Euler-Maclaurin evaluation; no adaptivity, no pole guard.
    The prefix row is zero-padded as in hurwitz_batch, from the same log grid,
    so that both sum the same terms in the same order."""
    w = -(-n_cut // _ROW_PAD) * _ROW_PAD
    terms = np.zeros(w, dtype=complex)
    terms[:n_cut] = np.exp(-s * _log_grid(a, w)[:n_cut])
    x = n_cut + a
    xs = cmath.exp(-s * math.log(x))        # x^{-s}
    val, err = _em_tail(s, x, xs, complex(terms.sum()), float(np.abs(terms).sum()),
                        math.log2(max(n_cut, 2)), order)
    return ComplexValue.of(val, err)


def _em_tail(s, x, xs, prefix, prefix_mass, log2n, order):
    """Value and abs_err from the prefix sum over n < N, x = N + a, xs = x^{-s}
    and log2n = log2(max(N, 2)).  Written with operators only, so that it
    evaluates scalars and numpy arrays alike."""
    val = prefix + xs * x / (s - 1) + 0.5 * xs
    bfac = bernoulli_over_factorial()
    poch = s                                 # (s)_1
    xp = xs / (x * x) * x                    # x^{-s-1}
    corr = 0j
    for k in range(1, order + 1):
        corr = corr + bfac[2 * k] * poch * xp
        poch = poch * ((s + 2 * k - 1) * (s + 2 * k))
        xp = xp / (x * x)
    val = val + corr

    # poch is now (s)_{2M+1}, xp is x^{-s-2M-1}: exactly the first omitted term.
    tail_bound = 2.0 * abs(bfac[2 * order + 2] * poch * xp)
    # Rounding model: the angle t*log(n+a) carries absolute error eps*|angle|,
    # which surfaces as a relative error per term; calibrated against
    # high-precision references over -2 <= Re(s) <= 4, |Im(s)| <= 500.
    per_term = 4e-16 + 4e-17 * abs(s.imag)
    noise = per_term * (1.0 + log2n / 8.0) * (
        prefix_mass + abs(val) + abs(xs * x / (s - 1))
    )
    return val, tail_bound + noise


def _em_cutoff(s, a: float, cfg: EvalConfig):
    """Smallest N at which twice the first omitted term meets the target,
    2|B_{2M+2}/(2M+2)! (s)_{2M+1}| (N+a)^{-Re(s)-2M-1} <= target_abs_err,
    solved for N + a in closed form and checked once, since rounding can leave
    the root one short.  N + a is held at least |s+2M|/pi, which keeps each
    correction term at most a quarter of the one before, and N at least 1.
    Returns N as a float; _cutoff_ok says where it is usable.  Written with
    operators and np.ceil only, so that s may be a complex or an array
    (np.maximum would cost more than the rest on a scalar)."""
    order = cfg.em_order
    poch = s
    for j in range(1, 2 * order + 1):
        poch = poch * (s + j)
    factor = 2.0 * abs(bernoulli_over_factorial()[2 * order + 2] * poch)
    # 1 where the order cannot converge, so that the closed form neither
    # divides by 0 nor overflows at points _cutoff_ok rejects.
    decay = s.real + 2 * order + 1
    decay = (decay > 0.5) * decay + (decay <= 0.5)
    root = (factor / cfg.target_abs_err) ** (1.0 / decay)
    x_min = abs(s + 2 * order) / math.pi
    n = np.ceil(root * (root >= x_min) + x_min * (root < x_min) - a)
    n = n * (n >= 1) + (n < 1)
    return n + (factor * (n + a) ** -decay > cfg.target_abs_err)


def _cutoff_ok(s, n_cut, cfg: EvalConfig):
    """Where Euler-Maclaurin may run with cutoff n_cut = _em_cutoff(s, ...):
    outside the pole guard, at an order that converges, within max_terms.
    Operators only, like _em_cutoff."""
    return ((abs(s - 1) >= cfg.pole_guard) & (s.real + 2 * cfg.em_order + 1 > 0.5)
            & (n_cut <= cfg.max_terms))


def _cutoff_error(s: complex, a: float, cfg: EvalConfig) -> ZetaError:
    """The error for a point that _cutoff_ok rejects."""
    if abs(s - 1) < cfg.pole_guard:
        return PoleProximity(
            f"s={s:.6g} within pole_guard of the pole at s=1", location=1.0 + 0j,
            source=f"hurwitz({a})",
        )
    if s.real + 2 * cfg.em_order + 1 <= 0.5:
        return BudgetExceeded(f"em_order={cfg.em_order} too small for Re(s)={s.real:.3g}")
    return BudgetExceeded(
        f"error target {cfg.target_abs_err:g} unreachable within "
        f"max_terms={cfg.max_terms} at s={s:.6g}"
    )


def _hurwitz(s: complex, a: float, cfg: EvalConfig) -> ComplexValue:
    """Pole guard, cutoff, Euler-Maclaurin: the body shared by every a > 0."""
    n_cut = _em_cutoff(s, a, cfg)
    if not _cutoff_ok(s, n_cut, cfg):
        raise _cutoff_error(s, a, cfg)
    return _hurwitz_em(s, a, int(n_cut), cfg.em_order)


PREFIX_BLOCK = 1 << 13   # most prefix-matrix entries hurwitz_batch holds at once
_ROW_PAD = 64            # prefix rows are zero-padded to a multiple of this


def hurwitz_batch(s, a: float, cfg: EvalConfig = DEFAULT_CONFIG) -> tuple[np.ndarray, np.ndarray]:
    """zeta(s, a) at every point of the 1-D array s: (values, abs_errs).

    The same formula, cutoff and abs_err as hurwitz_zeta_shifted, agreeing
    with it to rounding; no range check on a > 0.  Prefix rows are grouped by
    padded length and summed in blocks of at most PREFIX_BLOCK entries; a row
    longer than that is evaluated on its own by _hurwitz_em.
    """
    s = np.asarray(s, dtype=complex)
    n_cut = _em_cutoff(s, a, cfg)
    for i in np.flatnonzero(~_cutoff_ok(s, n_cut, cfg))[:1]:
        raise _cutoff_error(complex(s[i]), a, cfg)
    n_cut = n_cut.astype(np.int64)
    width = -(-n_cut // _ROW_PAD) * _ROW_PAD
    prefix = np.zeros(s.shape, dtype=complex)
    mass = np.zeros(s.shape)
    for w in np.unique(width[width <= PREFIX_BLOCK]).tolist():
        rows = np.flatnonzero(width == w)
        logs = _log_grid(a, w)
        for lo in range(0, len(rows), PREFIX_BLOCK // w):
            r = rows[lo:lo + PREFIX_BLOCK // w]
            terms = np.exp(-s[r, None] * logs, out=np.zeros((len(r), w), dtype=complex),
                           where=np.arange(w) < n_cut[r, None])
            prefix[r] = terms.sum(axis=1)
            mass[r] = np.abs(terms).sum(axis=1)
    x = n_cut + a
    val, err = _em_tail(s, x, np.exp(-s * np.log(x)), prefix, mass,
                        np.log2(np.maximum(n_cut, 2)), cfg.em_order)
    for i in np.flatnonzero(width > PREFIX_BLOCK):
        v = _hurwitz_em(complex(s[i]), a, int(n_cut[i]), cfg.em_order)
        val[i], err[i] = v.z, v.abs_err
    return val, err


def hurwitz_zeta(s: complex, a: float, cfg: EvalConfig = DEFAULT_CONFIG) -> ComplexValue:
    """zeta(s, a) = sum_{n>=0} (n+a)^{-s} continued to all s != 1; 0 < a <= 1."""
    if not 0.0 < a <= 1.0:
        raise ValueError(f"hurwitz_zeta requires 0 < a <= 1, got a={a}")
    return _hurwitz(complex(s), a, cfg)


def riemann_zeta(s: complex, cfg: EvalConfig = DEFAULT_CONFIG) -> ComplexValue:
    """zeta(s) = sum_{n>=1} n^{-s}, continued to all s != 1."""
    return _hurwitz(complex(s), 1.0, cfg)


def hurwitz_zeta_shifted(s: complex, a: float, cfg: EvalConfig = DEFAULT_CONFIG) -> ComplexValue:
    """zeta(s, a) for any a > 0, summed directly at a (no reduction to (0, 1])."""
    if a <= 0:
        raise ValueError(f"requires a > 0, got {a}")
    return _hurwitz(complex(s), a, cfg)


def log_gamma(s: complex, pole_guard: float = 1e-8) -> ComplexValue:
    """Principal branch of log Gamma(s), continuous off the ray (-inf, 0].

    Upward recurrence to Re(s) > 12, then a 10-term Stirling series.
    """
    s = complex(s)
    nearest = round(s.real)
    if nearest <= 0 and abs(s - nearest) < pole_guard:
        raise PoleProximity(
            f"log_gamma pole at non-positive integer {nearest}",
            location=complex(nearest), source="log_gamma",
        )
    shift = max(0, math.ceil(LOG_GAMMA_SHIFT - s.real))
    w = s + shift
    # Stirling: (w - 1/2) log w - w + log(2 pi)/2 + sum B_{2k} / (2k(2k-1) w^{2k-1})
    bfac_raw = _stirling_coeffs()
    res = (w - 0.5) * cmath.log(w) - w + 0.5 * math.log(2.0 * math.pi)
    winv = 1.0 / w
    wpow = winv
    for c in bfac_raw:
        res += c * wpow
        wpow *= winv * winv
    for j in range(shift):
        res -= cmath.log(s + j)
    err = 1e-14 * (1.0 + abs(res)) + (shift + 1) * 3e-16 * (1.0 + abs(res))
    return ComplexValue.of(res, err)


@lru_cache(maxsize=1)
def _stirling_coeffs() -> tuple[float, ...]:
    from .tables import get_tables

    tabs = get_tables()
    return tuple(
        float(tabs.bern(2 * k)) / (2 * k * (2 * k - 1))
        for k in range(1, LOG_GAMMA_TERMS + 1)
    )


def completed_zeta(s: complex, cfg: EvalConfig = DEFAULT_CONFIG) -> ComplexValue:
    """pi^{-s/2} Gamma(s/2) zeta(s); simple poles at s = 0 and s = 1."""
    s = complex(s)
    for p in (0.0, 1.0):
        if abs(s - p) < cfg.pole_guard:
            raise PoleProximity(
                f"completed zeta pole at s={p:g}", location=complex(p), source="xi",
            )
    lg = log_gamma(s / 2, cfg.pole_guard)
    pref = rpow(math.pi, -s / 2) * cmath.exp(lg.z)
    zv = riemann_zeta(s, cfg)
    val = pref * zv.z
    err = abs(pref) * zv.abs_err + abs(val) * (lg.abs_err + 5e-16)
    return ComplexValue.of(val, err)
