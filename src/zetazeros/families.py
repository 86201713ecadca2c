"""The zeta families as polynomials in Hurwitz zetas at affine arguments,
plus direct-summation oracles valid in their absolute-convergence regions.

Each reduction is given once, as a ZetaPoly term list: the Euler-Zagier
diagonal (Hoffman partition identity), the Barnes r-tuple zeta (Stirling
re-centering), the n-sphere's spectral zeta and the symmetric-matrix zeta for
odd n.  The expression atoms ezd, barnes, sphere and symmat evaluate through
these term lists; ez_diagonal, barnes_zeta, sphere_spectral and symmat_zeta
are their guarded point forms.  Generic matrix-of-linear-forms multiple series
(Shintani/Mordell/Euler-Zagier-Hurwitz/Witten instances) are summed directly.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .config import ComplexValue, EvalConfig, DEFAULT_CONFIG, cabs, cmul, err_add, err_mul
from .errors import (
    BudgetExceeded,
    NotInConvergenceRegion,
    OutOfRange,
    PoleProximity,
)
from .tables import bernoulli, bernoulli_over_factorial
from .zeta import MAX_TERMS, POLE_GUARD, hurwitz_pair, hurwitz_zeta_shifted, rpow

HOFFMAN_MAX_R = 12
BARNES_MAX_R = 12
SPHERE_MAX_N = 16
_LOG2 = math.log(2.0)

Factor = tuple[float, float, float]      # (alpha, beta, a): zeta(alpha*s + beta, a)


def affine_preimage(alpha, beta, p: float) -> float:
    """The s at which alpha*s + beta = p, for float or rational alpha and beta:
    where an atom at that affine argument meets a pole at p."""
    return (p - float(beta)) / float(alpha)


def _factor_pole(f: Factor) -> tuple[float, str]:
    """The pole of the factor zeta(alpha*s + beta, a), where its argument is 1,
    and the factor's name."""
    alpha, beta, a = f
    arg = ("s" if alpha == 1 else f"{alpha:g}*s") + (f"{beta:+g}" if beta else "")
    return affine_preimage(alpha, beta, 1.0), f"zeta({arg}{'' if a == 1 else f',{a:g}'})"


class ZetaPoly:
    """scale * 2^{exp2*s} * sum over terms of c * prod zeta(alpha*s + beta, a).

    terms holds every term of a family's reduction as (c, factors), also those
    whose coefficient vanishes: they are not evaluated, but their factors stay
    pole candidates, as the family's pole list has always been conservative.
    factors are the distinct factors of the other terms, the ones evaluated.
    """

    def __init__(self, terms, scale: float = 1.0, exp2: float = 0.0):
        self.terms = tuple(terms)
        self.scale, self.exp2 = scale, exp2
        live = [(c, fs) for c, fs in self.terms if c != 0]
        self.factors = tuple(dict.fromkeys(f for _, fs in live for f in fs))
        index = {f: i for i, f in enumerate(self.factors)}
        self._live = tuple((c, tuple(index[f] for f in fs)) for c, fs in live)
        self.poles = tuple(dict.fromkeys(_factor_pole(f) for _, fs in self.terms for f in fs))

    def pair(self, s, cfg: EvalConfig = DEFAULT_CONFIG) -> tuple:
        """(value, abs_err) at a point s (a complex) or at every point of a 1-D
        array s, bit for bit the same either way; no pole guard.  Each distinct
        factor is evaluated once."""
        vals = [hurwitz_pair(alpha * s + beta, a, cfg) for alpha, beta, a in self.factors]
        parts = []
        for c, idx in self._live:
            z, err = vals[idx[0]]
            for i in idx[1:]:
                z, err = err_mul(z, err, *vals[i])
            parts.append((c * z, abs(c) * err))
        z, err = err_add(parts)
        if self.exp2:
            exp = np.exp if isinstance(s, np.ndarray) else cmath.exp
            w = self.scale * exp(self.exp2 * s * _LOG2)
            return cmul(w, z), cabs(w) * err
        return self.scale * z, abs(self.scale) * err

    def value(self, s: complex, cfg: EvalConfig = DEFAULT_CONFIG) -> ComplexValue:
        """The polynomial at the point s; a point within POLE_GUARD of a
        factor's pole raises PoleProximity naming the factor."""
        s = complex(s)
        for loc, factor in self.poles:
            if abs(s - loc) < POLE_GUARD:
                raise PoleProximity(
                    f"{factor} has a pole at s={loc:g}", location=complex(loc), source=factor,
                )
        return ComplexValue.of(*self.pair(s, cfg))


# ---------------------------------------------------------------------------
# Euler-Zagier diagonal: Hoffman partition identity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionTerm:
    """One product term of the diagonal reduction: coefficient * prod zeta(b*s)."""

    block_sizes: tuple[int, ...]     # sorted descending, sums to r
    coefficient: Fraction


def _integer_partitions(r: int):
    """Yield partitions of r as tuples sorted descending."""

    def rec(remaining, maxpart):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, maxpart), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    yield from rec(r, r)


@lru_cache(maxsize=None)
def hoffman_diagonal_coeffs(r: int) -> tuple[PartitionTerm, ...]:
    """Coefficients c with  zeta_r(s,...,s) = sum_terms c * prod_b zeta(b*s).

    Set partitions are enumerated by integer-partition shape: a shape with
    block sizes (b_1..b_l) occurs  r! / (prod b_j! * prod mult_of_size!)
    times, each contributing (-1)^(r-l) * prod (b_j - 1)!; the symmetric
    group enters only through the overall 1/r!.
    """
    if not 1 <= r <= HOFFMAN_MAX_R:
        raise OutOfRange(f"hoffman_diagonal_coeffs supports 1 <= r <= {HOFFMAN_MAX_R}")
    terms = []
    for shape in _integer_partitions(r):
        l = len(shape)
        mult = {}
        for b in shape:
            mult[b] = mult.get(b, 0) + 1
        n_set_partitions = math.factorial(r)
        for b in shape:
            n_set_partitions //= math.factorial(b)
        for m in mult.values():
            n_set_partitions //= math.factorial(m)
        sign_weight = (-1) ** (r - l)
        for b in shape:
            sign_weight *= math.factorial(b - 1)
        coeff = Fraction(n_set_partitions * sign_weight, math.factorial(r))
        terms.append(PartitionTerm(shape, coeff))
    return tuple(terms)


@lru_cache(maxsize=None)
def ezd_poly(r: int) -> ZetaPoly:
    """zeta_r(s, ..., s) = sum over partitions of c * prod_b zeta(b*s)."""
    return ZetaPoly((float(t.coefficient), tuple((float(b), 0.0, 1.0) for b in t.block_sizes))
                    for t in hoffman_diagonal_coeffs(r))


def ez_diagonal(r: int, s: complex, cfg: EvalConfig = DEFAULT_CONFIG) -> ComplexValue:
    """zeta_r(s, ..., s) evaluated through the Hoffman reduction."""
    return ezd_poly(r).value(s, cfg)


# ---------------------------------------------------------------------------
# Euler-Zagier direct sums (oracle; absolute-convergence region only)
# ---------------------------------------------------------------------------

EZ_MIN_RE = 1.1          # oracle margin; boundary convergence is too slow
_EZ_EXPANSION_ORDER = 8  # Bernoulli terms when expanding zeta(w, m) in 1/m


def _zbar(sigma: float, n: float) -> float:
    """Upper bound for sum_{m>=n} m^{-sigma}, sigma > 1."""
    return n ** (1.0 - sigma) / (sigma - 1.0) + n ** (-sigma)


def _expand_sum_pow_zeta(s: complex, w: complex):
    """sum_{m>=n} m^{-s} zeta(w, m) as zeta atoms at n, plus an error term.

    Uses zeta(w, m) = m^{1-w}/(w-1) + m^{-w}/2
                      + sum_q B_{2q}/(2q)! (w)_{2q-1} m^{-w-2q+1} + R,
    so each power of m turns into one zeta(u, n) atom.  Returns
    (atoms: dict u -> coef, err: list of (bound_coef, real_exponent)) where an
    error entry (b, v) certifies a pointwise bound b * n^{-v}.
    """
    bfac = bernoulli_over_factorial()
    atoms = {s + w - 1: 1.0 / (w - 1), s + w: 0.5}
    poch = w
    for q in range(1, _EZ_EXPANSION_ORDER + 1):
        atoms[s + w + 2 * q - 1] = bfac[2 * q] * poch
        poch *= (w + 2 * q - 1) * (w + 2 * q)
    # Remainder: |R(m)| <= 2 |B_{2K+2}/(2K+2)! (w)_{2K+1}| m^{-Re(w)-2K-1};
    # summing m^{-Re(s)} * that over m >= n costs one zbar-style factor.
    k2 = 2 * _EZ_EXPANSION_ORDER
    b0 = 2.0 * abs(bfac[k2 + 2]) * abs(poch)
    v = s.real + w.real + k2 + 1            # always well above 1 here
    err = [(b0 * (1.0 / (v - 1.0) + 1.0), v - 1.0)]
    return atoms, err


def _tail_step(s_j: complex, atoms, err, c_next: complex, n_floor: float,
               prune_eps: float):
    """One level of  T_j(n) = c_next * zeta(s_j, n) - sum_{m>=n} m^{-s_j} T_{j+1}(m)."""
    new_atoms = {s_j: complex(c_next)}
    new_err = []
    for b, v in err:
        sig = s_j.real + v
        new_err.append((b * (1.0 / (sig - 1.0) + 1.0), sig - 1.0))
    for w, a in atoms.items():
        sub_atoms, sub_err = _expand_sum_pow_zeta(s_j, w)
        for u, c in sub_atoms.items():
            new_atoms[u] = new_atoms.get(u, 0j) - a * c
        for b, v in sub_err:
            new_err.append((abs(a) * b, v))
    # Convert negligible atoms into certified error mass to cap growth.
    pruned = {}
    for w, a in new_atoms.items():
        if abs(a) * _zbar(w.real, n_floor) < prune_eps:
            new_err.append((abs(a) * (1.0 / (w.real - 1.0) + 1.0), w.real - 1.0))
        else:
            pruned[w] = a
    merged = {}
    for b, v in new_err:
        key = round(v, 6)
        merged[key] = merged.get(key, 0.0) + b
    return pruned, [(b, v) for v, b in merged.items()]


def _ez_nested(s_list: tuple[complex, ...], cfg: EvalConfig) -> ComplexValue:
    """Strict-order nested sum with analytic tail; suffix values built bottom-up."""
    r = len(s_list)
    n_top = max(2000, math.ceil(4 * max(abs(s.imag) for s in s_list)) + 64)
    n_floor = float(n_top + 1)
    logn = np.log(np.arange(1, n_top + 1, dtype=np.float64))
    prune_eps = cfg.target_abs_err * 1e-6

    suffix_vals: dict[int, ComplexValue] = {}
    for start in range(r - 1, -1, -1):
        sub = s_list[start:]
        k = len(sub)
        # truncated part over n <= n_top via cumulative sums
        v_arr = np.ones(n_top, dtype=np.complex128)
        mass = np.ones(n_top, dtype=np.float64)
        for j in range(k - 1, 0, -1):
            term = np.exp(-sub[j] * logn) * v_arr
            v_arr = np.concatenate(([0.0 + 0j], np.cumsum(term)[:-1]))
            mass = np.concatenate(([0.0], np.cumsum(np.abs(term))[:-1]))
        outer = np.exp(-sub[0] * logn) * v_arr
        dp = complex(outer.sum())
        noise = 4e-16 * float(np.abs(outer).sum() + mass[-1])

        # tail T_1(n_top + 1) built from atoms, innermost level outward
        atoms = {sub[-1]: 1.0 + 0j}
        err: list = []
        coef_err = 0.0
        for j in range(k - 2, -1, -1):
            c_next = suffix_vals[start + j + 1]
            atoms, err = _tail_step(sub[j], atoms, err, c_next.z, n_floor, prune_eps)
            coef_err += c_next.abs_err * _zbar(sub[j].real, n_floor)
        tail = 0j
        tail_err = coef_err
        for w, a in atoms.items():
            av = hurwitz_zeta_shifted(w, n_floor, cfg)     # zeta(w, n_top + 1)
            tail += a * av.z
            tail_err += abs(a) * av.abs_err
        for b, v in err:
            tail_err += b * n_floor ** (-v)
        suffix_vals[start] = ComplexValue.of(dp + tail, noise + tail_err)
    return suffix_vals[0]


def ez_direct(s_values, cfg: EvalConfig = DEFAULT_CONFIG) -> ComplexValue:
    """zeta_r(s_1, ..., s_r) = sum over n_1 > ... > n_r > 0 of prod n_j^{-s_j}.

    Direct-summation oracle: requires Re(s_j) >= 1.1 for every j.
    """
    s_list = tuple(complex(s) for s in s_values)
    if not s_list:
        raise ValueError("need at least one exponent")
    for j, s in enumerate(s_list):
        if s.real < EZ_MIN_RE:
            raise NotInConvergenceRegion(
                f"Re(s_{j + 1}) = {s.real:.4g} < {EZ_MIN_RE} (oracle margin)"
            )
    if len(s_list) > HOFFMAN_MAX_R:
        raise OutOfRange(f"depth r <= {HOFFMAN_MAX_R} supported")
    return _ez_nested(s_list, cfg)


# ---------------------------------------------------------------------------
# Barnes r-tuple zeta
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BarnesParams:
    r: int
    a: float

    def __post_init__(self):
        if not (isinstance(self.r, int) and 1 <= self.r <= BARNES_MAX_R):
            raise OutOfRange(f"Barnes r must be an integer in 1..{BARNES_MAX_R}")
        if not self.a > 0:
            raise ValueError("Barnes shift a must be > 0")


def _expand_product(lead, shifts) -> list[Fraction]:
    """Coefficients, lowest power first, of lead * prod (x + c) over c in shifts."""
    poly = [Fraction(lead)]
    for c in shifts:
        poly = [Fraction(0)] + poly
        for t in range(len(poly) - 1):
            poly[t] += c * poly[t + 1]
    return poly


@lru_cache(maxsize=None)
def _barnes_weight_polys(r: int) -> tuple[tuple[Fraction, ...], ...]:
    """p_{rj}(a) as exact polynomials in a:

    p_{rj}(a) = (-1)^{r+1-j}/(r-1)! * sum_{l=j}^{r-1} C(l,j) s(r,l+1) a^{l-j},

    with s(r,.) the signed Stirling numbers of the first kind, read off as the
    coefficients of the falling factorial x(x-1)...(x-r+1).  Entry [j][i] is
    the coefficient of a^i.
    """
    stirling = _expand_product(1, range(0, -r, -1))
    polys = []
    for j in range(r):
        coeffs = [Fraction(0)] * (r - j)
        for l in range(j, r):
            c = Fraction((-1) ** (r + 1 - j) * math.comb(l, j) * stirling[l + 1],
                         math.factorial(r - 1))
            coeffs[l - j] += c
        polys.append(tuple(coeffs))
    return tuple(polys)


def barnes_weights(r: int, a: float) -> tuple[float, ...]:
    """Evaluate p_{rj}(a) for j = 0..r-1."""
    vals = []
    for coeffs in _barnes_weight_polys(r):
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * a + float(c)
        vals.append(acc)
    return tuple(vals)


@lru_cache(maxsize=64)
def barnes_poly(r: int, a: float) -> ZetaPoly:
    """zeta_r(s, a) = sum_j p_{rj}(a) zeta(s - j, a), j = 0..r-1."""
    return ZetaPoly((w, ((1.0, float(-j), a),)) for j, w in enumerate(barnes_weights(r, a)))


def barnes_zeta(p: BarnesParams, s: complex, cfg: EvalConfig = DEFAULT_CONFIG) -> ComplexValue:
    """zeta_r(s, a) = sum_j p_{rj}(a) zeta(s - j, a), valid on the continued domain."""
    return barnes_poly(p.r, p.a).value(s, cfg)


def barnes_direct(p: BarnesParams, s: complex, cfg: EvalConfig = DEFAULT_CONFIG) -> ComplexValue:
    """Direct r-fold Barnes sum, collapsed along n_1+...+n_r = k.

    The number of lattice points with coordinate sum k is C(k+r-1, r-1), so
    the series becomes  sum_k C(k+r-1, r-1) (k+a)^{-s}.  The tail past the
    truncation point is handled with Euler-Maclaurin using only elementary
    antiderivatives of (x+a)^{j-s}; no Hurwitz continuation machinery and no
    Stirling numbers are involved, keeping this route independent of
    barnes_zeta.
    """
    s = complex(s)
    if s.real < p.r + 0.5:
        raise NotInConvergenceRegion(
            f"barnes_direct needs Re(s) >= r + 0.5 = {p.r + 0.5}, got {s.real:.4g}"
        )
    r, a = p.r, p.a

    # C(x+r-1, r-1) recentred at (x+a): prod_{i=1}^{r-1} ((x+a) + (i-a)) / (r-1)!
    poly = [1.0]
    for i in range(1, r):
        shift = i - a
        poly = [0.0] + poly
        for t in range(len(poly) - 1):
            poly[t] += shift * poly[t + 1]
    fact = math.factorial(r - 1)
    poly = [c / fact for c in poly]      # coefficient of (x+a)^j

    k_cut = 2048
    while True:
        rem = _barnes_em_remainder(poly, s, a, k_cut)
        if rem <= cfg.target_abs_err or 2 * k_cut > MAX_TERMS:
            break
        k_cut *= 2

    k = np.arange(k_cut, dtype=np.float64)
    logka = np.log(k + a)
    weights = np.ones_like(k)
    for i in range(1, r):
        weights *= k + i
    weights /= fact
    terms = weights * np.exp(-s * logka)
    head = complex(terms.sum())
    noise = 4e-16 * float(np.abs(terms).sum())

    tail = _barnes_em_tail(poly, s, a, k_cut)
    return ComplexValue.of(head + tail, rem + noise)


_EM_B = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0)   # B_2, B_4, B_6
_EM_B8 = -1.0 / 30.0


def _barnes_f_deriv(poly, s, a, x: float, order: int) -> complex:
    """order-th derivative of f(x) = sum_j poly[j] (x+a)^{j-s} at x."""
    val = 0j
    for j, c in enumerate(poly):
        if c == 0.0:
            continue
        fac = complex(c)
        for t in range(order):
            fac *= j - s - t
        val += fac * rpow(x + a, j - s - order)
    return val


def _barnes_em_tail(poly, s, a, k_cut: int) -> complex:
    """sum_{k>=k_cut} f(k) via integral + f/2 - Bernoulli derivative corrections."""
    x = float(k_cut)
    integral = 0j
    for j, c in enumerate(poly):
        integral += c * rpow(x + a, j + 1 - s) / (s - j - 1)
    val = integral + 0.5 * _barnes_f_deriv(poly, s, a, x, 0)
    for q, b2q in enumerate(_EM_B, start=1):
        val -= b2q / math.factorial(2 * q) * _barnes_f_deriv(poly, s, a, x, 2 * q - 1)
    return val


def _barnes_em_remainder(poly, s, a, k_cut: int) -> float:
    return 2.0 * abs(_EM_B8 / math.factorial(8)) * abs(
        _barnes_f_deriv(poly, s, a, float(k_cut), 7)
    )


# ---------------------------------------------------------------------------
# Spectral zeta of the n-sphere
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SphereParams:
    n: int
    mult_poly: tuple[Fraction, ...]   # c_0..c_{n-1} in powers of m = k + (n-1)/2


@lru_cache(maxsize=None)
def sphere_mult_poly(n: int) -> SphereParams:
    """Exact rational c_j with  multiplicity(k) = sum_j c_j (k + (n-1)/2)^j.

    The eigenvalue multiplicity C(k+n, n) - C(k+n-2, n) equals
    (2k+n-1) (k+n-2)! / (k! (n-1)!); substituting m = k + (n-1)/2 makes the
    leading factor 2m and the rest a product of integer/half-integer shifts.
    """
    if not 1 <= n <= SPHERE_MAX_N:
        raise OutOfRange(f"sphere dimension n must be in 1..{SPHERE_MAX_N}")
    if n == 1:
        return SphereParams(1, (Fraction(2),))
    half = Fraction(n - 1, 2)
    poly = _expand_product(2, [0] + [i - half for i in range(1, n - 1)])   # 2m prod (m + i - half)
    fact = math.factorial(n - 1)
    coeffs = [c / fact for c in poly]
    coeffs += [Fraction(0)] * (n - len(coeffs))
    return SphereParams(n, tuple(coeffs[:n]))


@lru_cache(maxsize=None)
def sphere_poly(n: int) -> ZetaPoly:
    """Z_{S^n}(s) = sum_j c_j zeta(2s - j, (n+1)/2), j = 0..n-1."""
    a = (n + 1) / 2.0
    return ZetaPoly((float(c), ((2.0, float(-j), a),))
                    for j, c in enumerate(sphere_mult_poly(n).mult_poly))


def sphere_spectral(n: int, s: complex, cfg: EvalConfig = DEFAULT_CONFIG) -> ComplexValue:
    """Z_{S^n}(s) = sum_j c_j zeta(2s - j, (n+1)/2) over the shifted eigenvalues."""
    return sphere_poly(n).value(s, cfg)


# ---------------------------------------------------------------------------
# Symmetric-matrix zeta (odd n)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymMatrixParams:
    n: int
    lattice: str          # "Ln" (integral symmetric) or "Ln*" (even/2)
    eta: int              # +1 or -1
    theta: int            # +1 or -1

    def __post_init__(self):
        if self.n < 3 or self.n % 2 == 0:
            raise OutOfRange("symmetric-matrix zeta needs odd n >= 3")
        if self.lattice not in ("Ln", "Ln*"):
            raise ValueError("lattice must be 'Ln' or 'Ln*'")
        if self.eta not in (-1, 1) or self.theta not in (-1, 1):
            raise ValueError("eta, theta must be +-1")

    def sign_factor(self) -> int:
        """theta * eta^((n+1)/2) * (-1)^((n^2-1)/8), computed exactly."""
        n = self.n
        val = self.theta * self.eta ** ((n + 1) // 2) * (-1) ** ((n * n - 1) // 8)
        assert val in (-1, 1)
        return val


@lru_cache(maxsize=64)
def symmat_poly(p: SymMatrixParams) -> ZetaPoly:
    """b_n(s;L) * ( A_n(s;L) zeta(s-(n-1)/2) + B_n(s) ), h = (n-1)/2:
    A_n = 2^h prod_{k<=h} zeta(2s-2k+1) on Ln, the bare product on Ln*;
    B_n = sign_factor * zeta(s) prod_{k<=h} zeta(2s-2k);
    b_n = |prod_{k<=h} B_2k| / (2^(n-1) h!), times 2^{(n-1)s} on Ln*."""
    n, h = p.n, p.n // 2
    b_num = Fraction(1)
    for k in range(1, h + 1):
        b_num *= bernoulli()[2 * k]
    b_n = float(abs(b_num) / (2 ** (n - 1) * math.factorial(h)))
    a_part = (2.0 ** h if p.lattice == "Ln" else 1.0,
              tuple((2.0, float(1 - 2 * k), 1.0) for k in range(1, h + 1)) + ((1.0, float(-h), 1.0),))
    b_part = (float(p.sign_factor()),
              ((1.0, 0.0, 1.0),) + tuple((2.0, float(-2 * k), 1.0) for k in range(1, h + 1)))
    return ZetaPoly((a_part, b_part), scale=b_n, exp2=float(n - 1) if p.lattice == "Ln*" else 0.0)


def symmat_zeta(p: SymMatrixParams, s: complex, cfg: EvalConfig = DEFAULT_CONFIG) -> ComplexValue:
    """b_n(s;L) * ( A_n(s;L) zeta(s-(n-1)/2) + B_n(s) ) for odd n >= 3."""
    return symmat_poly(p).value(s, cfg)


# ---------------------------------------------------------------------------
# Generic matrix-of-linear-forms multiple series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearFormSeries:
    """sum over index vectors n of  prod_l ( sum_k lambda[l][k] (n_k + a_k) )^{-s_l}.

    strict_order sums over n_1 > n_2 > ... > n_r instead of the full box;
    index_offset picks whether indices start at 0 or 1.  Structural zeros in
    lambda are allowed where a form omits a variable.
    """

    r: int
    m: int
    lam: tuple[tuple[float, ...], ...]      # m rows, r columns, entries >= 0
    shifts: tuple[float, ...]               # a_1..a_r, >= 0
    index_offset: str = "from_zero"         # or "from_one"
    strict_order: bool = False

    def __post_init__(self):
        if self.r < 1 or self.m < 1:
            raise ValueError("need r >= 1 and m >= 1")
        if len(self.lam) != self.m or any(len(row) != self.r for row in self.lam):
            raise ValueError("lambda must be an m x r matrix")
        if len(self.shifts) != self.r:
            raise ValueError("need one shift per summation variable")
        if self.index_offset not in ("from_zero", "from_one"):
            raise ValueError("index_offset must be from_zero or from_one")
        if any(x < 0 for row in self.lam for x in row):
            raise ValueError("lambda entries must be >= 0")
        if any(a < 0 for a in self.shifts):
            raise ValueError("shifts must be >= 0")
        if all(x == 0 for row in self.lam for x in row):
            raise ValueError("lambda must have a positive entry")
        base = self._min_index()
        vals = [self._form_value(l, base) for l in range(self.m)]
        if any(v <= 0 for v in vals):
            if not self._zero_excludable(base, vals):
                raise ValueError(
                    "a linear form vanishes at the minimal admissible index"
                )

    def _min_index(self) -> tuple[int, ...]:
        lo = 0 if self.index_offset == "from_zero" else 1
        if self.strict_order:
            return tuple(lo + self.r - 1 - k for k in range(self.r))
        return (lo,) * self.r

    def _form_value(self, l: int, idx) -> float:
        return sum(self.lam[l][k] * (idx[k] + self.shifts[k]) for k in range(self.r))

    def _zero_excludable(self, base, vals) -> bool:
        # The all-zero index may be excluded when it is the only bad point.
        if self.strict_order or self.index_offset != "from_zero" or any(base):
            return False
        for k in range(self.r):
            unit = tuple(1 if t == k else 0 for t in range(self.r))
            if any(self._form_value(l, unit) <= 0 for l in range(self.m)):
                return False
        return True

    @property
    def excludes_origin(self) -> bool:
        base = self._min_index()
        if self.strict_order or any(base):
            return False
        return any(self._form_value(l, base) <= 0 for l in range(self.m))

    def min_re_margin(self) -> float:
        return self.r / self.m + 0.1


def linear_form_from_config(text: str) -> LinearFormSeries:
    """Parse the flat key-value family-config format.

    Keys: r, m, lambda (row-major, whitespace/comma separated), shifts,
    offset (from_zero|from_one), strict_order (true|false).  '#' starts a
    comment.
    """
    entries: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"expected 'key = value', got {line!r}")
        key, val = line.split("=", 1)
        entries[key.strip().lower()] = val.strip()
    try:
        r = int(entries["r"])
        m = int(entries["m"])
        lam_flat = [float(x) for x in entries["lambda"].replace(",", " ").split()]
        shifts = tuple(float(x) for x in entries["shifts"].replace(",", " ").split())
    except KeyError as exc:
        raise ValueError(f"missing config key: {exc.args[0]}") from None
    if len(lam_flat) != m * r:
        raise ValueError(f"lambda needs {m * r} entries (m*r), got {len(lam_flat)}")
    lam = tuple(tuple(lam_flat[i * r:(i + 1) * r]) for i in range(m))
    offset = entries.get("offset", "from_zero")
    strict = entries.get("strict_order", "false").lower() in ("true", "1", "yes")
    return LinearFormSeries(r=r, m=m, lam=lam, shifts=shifts,
                            index_offset=offset, strict_order=strict)


def _separable_split(spec: LinearFormSeries, sigmas):
    """Weighted AM-GM split of the summand into a product over variables.

    Weights w[l][k] over the variables of each form (summing to 1 per form)
    give  prod_l L_l^{-sigma_l} <= C * prod_k (n_k + a_k)^{-tau_k}  with
    tau_k = sum_l sigma_l w[l][k] and C = prod_{l,k} lambda[l][k]^{-sigma_l w[l][k]}.
    The weight of the variable with the least tau_k grows while the least tau_k
    does; the split where it stops growing is returned as (tau, C), since the
    tail bound falls as every tau_k moves further above 1.  None when even
    that split leaves some tau_k <= 1.
    """
    supports = [[k for k in range(spec.r) if spec.lam[l][k] > 0] for l in range(spec.m)]
    u = [1.0] * spec.r
    best = (-math.inf,)
    for _ in range(400):
        tau = [0.0] * spec.r
        weights = []
        for l, sup in enumerate(supports):
            tot = sum(u[k] for k in sup)
            row = {k: u[k] / tot for k in sup}
            weights.append(row)
            for k, w in row.items():
                tau[k] += sigmas[l] * w
        least = min(tau)
        if least <= best[0]:
            break
        best = least, tau, weights
        u[tau.index(least)] *= 1.15
    least, tau, weights = best
    if not least > 1.0:
        return None
    return tau, math.prod(spec.lam[l][k] ** (-sigmas[l] * w)
                          for l, row in enumerate(weights) for k, w in row.items())


def linear_form_eval(spec: LinearFormSeries, s_values,
                     cfg: EvalConfig = DEFAULT_CONFIG) -> ComplexValue:
    """Direct multi-sum over an index box with a crude separable tail bound.

    abs_err reports the certified truncation bound; it is best-effort under
    MAX_TERMS rather than forced below cfg.target_abs_err.
    """
    s_list = tuple(complex(s) for s in s_values)
    if len(s_list) != spec.m:
        raise ValueError(f"need {spec.m} exponents, got {len(s_list)}")
    margin = spec.min_re_margin()
    for l, s in enumerate(s_list):
        if s.real < margin:
            raise NotInConvergenceRegion(
                f"Re(s_{l + 1}) = {s.real:.4g} below convergence margin {margin:.4g}"
            )
    sigmas = [s.real for s in s_list]
    split = _separable_split(spec, sigmas)
    if split is None:
        raise BudgetExceeded(
            "no separable tail bound certifies convergence for this form layout"
        )
    tau, lam_const = split

    # Largest per-variable box size the term budget allows; strict ordering
    # enumerates only ~box^r / r! tuples, so it earns a larger box.
    denom = math.factorial(spec.r) if spec.strict_order else 1
    box = 2
    while (box * 2) ** spec.r // denom <= MAX_TERMS:
        box *= 2
        if _lf_tail_bound(spec, tau, lam_const, box) <= cfg.target_abs_err:
            break
    bound = _lf_tail_bound(spec, tau, lam_const, box)
    val, noise = _lf_box_sum(spec, s_list, box)
    if bound > 0.1 * (abs(val) + 1.0):
        raise BudgetExceeded(
            f"tail bound {bound:.3g} still dominates at box={box} under max_terms"
        )
    return ComplexValue.of(val, bound + noise)


def _lf_tail_bound(spec: LinearFormSeries, tau, lam_const: float, box: int) -> float:
    """Mass outside the box under the separable majorant: sum over the variable
    that escapes, full 1-D majorant sums along the others."""
    lo = 0 if spec.index_offset == "from_zero" else 1

    def axis_full(k: int) -> float:
        start = lo + spec.shifts[k]
        if start <= 0:            # only possible when the origin is excluded
            start = 1.0 + spec.shifts[k]
        return start ** (-tau[k]) + _zbar(tau[k], start + 1.0)

    def axis_tail(k: int) -> float:
        return _zbar(tau[k], max(lo + box + spec.shifts[k], 1.0))

    total = 0.0
    for k in range(spec.r):
        part = axis_tail(k)
        for k2 in range(spec.r):
            if k2 != k:
                part *= axis_full(k2)
        total += part
    return lam_const * total


def _lf_box_sum(spec: LinearFormSeries, s_list, box: int):
    """Sum over the index box: a python loop over the outer r - 1 indices (one
    pass when r = 1) and one numpy vector along the innermost index."""
    lo = 0 if spec.index_offset == "from_zero" else 1
    inner = np.arange(lo, lo + box, dtype=np.float64)
    exclude_origin = spec.excludes_origin
    total = 0j
    mass = 0.0
    for outer in itertools.product(range(lo, lo + box), repeat=spec.r - 1):
        if spec.strict_order:
            ok = all(outer[t] > outer[t + 1] for t in range(len(outer) - 1))
            if not ok:
                continue
            inner_vals = inner[inner < outer[-1]] if spec.r > 1 else inner
        else:
            inner_vals = inner
        if inner_vals.size == 0:
            continue
        prod = np.ones_like(inner_vals, dtype=np.complex128)
        for l, s in enumerate(s_list):
            form = sum(
                spec.lam[l][k] * (outer[k] + spec.shifts[k]) for k in range(spec.r - 1)
            ) + spec.lam[l][spec.r - 1] * (inner_vals + spec.shifts[spec.r - 1])
            if exclude_origin and not any(outer):
                form = np.where(inner_vals == 0, 1.0, form)   # placeholder; term zeroed below
            prod *= np.exp(-s * np.log(form))
        if exclude_origin and not any(outer):
            prod = np.where(inner_vals == 0, 0.0, prod)
        total += complex(prod.sum())
        mass += float(np.abs(prod).sum())
    return total, 4e-16 * mass
