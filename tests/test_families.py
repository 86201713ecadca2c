import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from zetazeros import hurwitz_zeta, riemann_zeta
from zetazeros.config import EvalConfig
from zetazeros.errors import NotInConvergenceRegion, OutOfRange, PoleProximity
from zetazeros.families import (
    BARNES_MAX_R,
    BarnesParams,
    LinearFormSeries,
    SphereParams,
    SymMatrixParams,
    barnes_direct,
    barnes_weights,
    barnes_zeta,
    _barnes_weight_polys,
    ez_diagonal,
    ez_direct,
    hoffman_diagonal_coeffs,
    linear_form_eval,
    linear_form_from_config,
    sphere_mult_poly,
    sphere_spectral,
    symmat_poly,
    symmat_zeta,
)
from zetazeros.expr import eval_expr, parse_expr, pole_set
from zetazeros.verify import sphere_direct_sum
from zetazeros.zeta import rpow


# ---------------------------------------------------------------- Hoffman

def test_hoffman_r1():
    terms = hoffman_diagonal_coeffs(1)
    assert len(terms) == 1
    assert terms[0].block_sizes == (1,)
    assert terms[0].coefficient == 1


def test_hoffman_r2_r3():
    by_shape = {t.block_sizes: t.coefficient for t in hoffman_diagonal_coeffs(2)}
    assert by_shape == {(1, 1): Fraction(1, 2), (2,): Fraction(-1, 2)}
    by_shape = {t.block_sizes: t.coefficient for t in hoffman_diagonal_coeffs(3)}
    assert by_shape == {
        (1, 1, 1): Fraction(1, 6),
        (2, 1): Fraction(-1, 2),
        (3,): Fraction(1, 3),
    }


def test_hoffman_binomial_identity():
    # Substituting x for every zeta factor collapses the diagonal reduction
    # to the number of strictly decreasing r-tuples from x values: C(x, r).
    for r in range(1, 9):
        for x in range(0, 9):
            acc = sum(
                t.coefficient * Fraction(x) ** len(t.block_sizes)
                for t in hoffman_diagonal_coeffs(r)
            )
            assert acc == math.comb(x, r), (r, x)


def test_hoffman_out_of_range():
    with pytest.raises(OutOfRange):
        hoffman_diagonal_coeffs(13)
    with pytest.raises(OutOfRange):
        hoffman_diagonal_coeffs(0)


def test_ez_diagonal_values():
    assert abs(ez_diagonal(2, 2).z - math.pi**4 / 120) < 1e-10
    assert abs(ez_diagonal(3, 2).z - math.pi**6 / 5040) < 1e-10
    s = 1.7 - 3j
    assert ez_diagonal(1, s).z == riemann_zeta(s).z


def test_ez_diagonal_pole_names_atom():
    with pytest.raises(PoleProximity) as exc:
        ez_diagonal(3, 1 / 3)
    assert "zeta(3*s)" in str(exc.value)


# ---------------------------------------------------------------- EZ direct

def test_ez_direct_pair():
    v = ez_direct((2, 2))
    assert abs(v.z - math.pi**4 / 120) < 1e-9
    assert v.abs_err < 1e-10


def test_ez_direct_r1_is_riemann():
    v = ez_direct((3,))
    assert abs(v.z - riemann_zeta(3).z) < 1e-12


def test_ez_direct_outside_margin():
    with pytest.raises(NotInConvergenceRegion):
        ez_direct((3, 1))       # second slot below the oracle margin
    with pytest.raises(NotInConvergenceRegion):
        ez_direct((1.05, 2))


def test_harmonic_product():
    for s1, s2 in ((4, 2), (3, 3), (2.5, 2.5 + 2j)):
        lhs = riemann_zeta(s1).z * riemann_zeta(s2).z
        rhs = (ez_direct((s1, s2)).z + ez_direct((s2, s1)).z
               + riemann_zeta(s1 + s2).z)
        assert abs(lhs - rhs) < 1e-9, (s1, s2)


def test_harmonic_product_random_points():
    rng = np.random.default_rng(77)
    for _ in range(10):
        s1 = complex(rng.uniform(1.5, 3.5), rng.uniform(-5, 5))
        s2 = complex(rng.uniform(1.5, 3.5), rng.uniform(-5, 5))
        lhs = riemann_zeta(s1).z * riemann_zeta(s2).z
        rhs = (ez_direct((s1, s2)).z + ez_direct((s2, s1)).z
               + riemann_zeta(s1 + s2).z)
        assert abs(lhs - rhs) < 1e-9


def test_diagonal_vs_direct():
    for r in range(2, 7):
        for s in (2.5, 3 + 2j):
            d = ez_diagonal(r, s).z
            b = ez_direct((s,) * r).z
            assert abs(d - b) / abs(d) < 1e-8, (r, s)


# ---------------------------------------------------------------- Barnes

def test_barnes_weights_explicit_forms():
    assert barnes_weights(2, 0.25) == pytest.approx([0.75, 1.0])
    a = 0.6
    w3 = barnes_weights(3, a)
    assert w3 == pytest.approx([(a * a - 3 * a + 2) / 2, (3 - 2 * a) / 2, 0.5])


def test_barnes_weights_count_lattice_points():
    # zeta_r(s, a) = sum_k C(k+r-1, r-1) (k+a)^{-s} = sum_j p_rj(a) zeta(s-j, a),
    # so sum_j p_rj(a) (k+a)^j counts the n in N^r with n_1+...+n_r = k, exactly.
    for r in range(1, BARNES_MAX_R + 1):
        polys = _barnes_weight_polys(r)
        assert all(isinstance(c, Fraction) for p in polys for c in p)
        for a in (Fraction(1, 3), Fraction(7, 10), Fraction(1), Fraction(5, 2)):
            weights = [sum(c * a ** i for i, c in enumerate(p)) for p in polys]
            for k in range(6):
                count = sum(w * (k + a) ** j for j, w in enumerate(weights))
                assert count == math.comb(k + r - 1, r - 1), (r, a, k)


def test_barnes_r2_reduction_identity():
    rng = np.random.default_rng(123)
    for _ in range(5):
        a = float(rng.uniform(0.05, 1.0))
        s = complex(rng.uniform(-1, 3), rng.uniform(-10, 10))
        v = barnes_zeta(BarnesParams(2, a), s).z
        ref = (1 - a) * hurwitz_zeta(s, a).z + hurwitz_zeta(s - 1, a).z
        assert abs(v - ref) < 1e-10


def test_barnes_a1_counting_identity():
    # zeta_2(s, 1) counts n1+n2+1 = m in m ways: equals zeta(s-1).
    v = barnes_zeta(BarnesParams(2, 1.0), 3.7)
    assert abs(v.z - riemann_zeta(2.7).z) < 1e-12


def test_barnes_direct_counting_examples():
    assert abs(barnes_direct(BarnesParams(1, 1.0), 4).z - riemann_zeta(4).z) < 1e-10
    assert abs(barnes_direct(BarnesParams(2, 1.0), 4).z - riemann_zeta(3).z) < 1e-10


def test_barnes_oracle_equivalence():
    for r in (2, 3):
        for a in (0.3, 0.5, 1.0):
            for s in (r + 1.0, r + 1.5 + 2j):
                v1 = barnes_zeta(BarnesParams(r, a), s).z
                v2 = barnes_direct(BarnesParams(r, a), s).z
                assert abs(v1 - v2) / abs(v1) < 1e-8, (r, a, s)


def test_barnes_r3_vs_direct_tight():
    v1 = barnes_zeta(BarnesParams(3, 0.3), 5).z
    v2 = barnes_direct(BarnesParams(3, 0.3), 5).z
    assert abs(v1 - v2) / abs(v1) < 1e-8


def test_barnes_direct_two_truncations_agree():
    p = BarnesParams(2, 0.5)
    v1 = barnes_direct(p, 3.5, EvalConfig(target_abs_err=1e-8))
    v2 = barnes_direct(p, 3.5, EvalConfig(target_abs_err=1e-13))
    assert abs(v1.z - v2.z) <= v1.abs_err + v2.abs_err + 1e-13


def test_barnes_direct_region_guard():
    with pytest.raises(NotInConvergenceRegion):
        barnes_direct(BarnesParams(2, 0.5), 2.0)


def test_barnes_pole_reports_index():
    with pytest.raises(PoleProximity) as exc:
        barnes_zeta(BarnesParams(2, 0.3), 2.0)
    assert "s=2" in str(exc.value)


# ---------------------------------------------------------------- Sphere

def test_sphere_mult_poly_examples():
    assert sphere_mult_poly(1).mult_poly == (Fraction(2),)
    assert sphere_mult_poly(2).mult_poly == (Fraction(0), Fraction(2))
    assert sphere_mult_poly(3).mult_poly == (Fraction(0), Fraction(0), Fraction(1))


def test_sphere_mult_poly_exact_invariant():
    for n in range(1, 17):
        params = sphere_mult_poly(n)
        half = Fraction(n - 1, 2)
        for k in range(1, 2 * n + 1):
            acc = sum(c * (k + half) ** j for j, c in enumerate(params.mult_poly))
            expected = math.comb(k + n, n) - math.comb(k + n - 2, n)
            assert acc == expected, (n, k)
    with pytest.raises(OutOfRange):
        sphere_mult_poly(17)


def test_sphere_spectral_closed_forms():
    v = sphere_spectral(3, 2)
    assert abs(v.z - (math.pi**2 / 6 - 1)) < 1e-10
    s = 2.5 + 3j
    ref = (rpow(2.0, 2 * s) - 2) * riemann_zeta(2 * s - 1).z - rpow(4.0, s)
    assert abs(sphere_spectral(2, s).z - ref) < 1e-10
    assert abs(sphere_spectral(1, s).z - 2 * riemann_zeta(2 * s).z) < 1e-12


def test_sphere_vs_direct_eigenvalue_sum():
    for n in (2, 3, 4):
        s = n / 2 + 1.0
        v = sphere_spectral(n, s).z
        d = sphere_direct_sum(n, s)
        assert abs(v - d) / abs(v) < 1e-8, n


def test_sphere_pole_guard():
    with pytest.raises(PoleProximity):
        sphere_spectral(3, 1.5)


# ---------------------------------------------------------------- SymMatrix

def test_symmat_b3_constant():
    # b_3(s; L_3) = |B_2| / (2^2 * 1!) = 1/24: strip it off and compare with
    # the zeta-product combination assembled by hand.
    p = SymMatrixParams(3, "Ln", 1, 1)
    for s in (1.8 + 7j, 2.6 - 3j):
        v = symmat_zeta(p, s).z
        manual = (1 / 24) * (
            2 * riemann_zeta(2 * s - 1).z * riemann_zeta(s - 1).z
            - riemann_zeta(s).z * riemann_zeta(2 * s - 2).z
        )
        assert abs(v - manual) < 1e-12 * max(1.0, abs(v))


def test_symmat_sign_factor():
    assert SymMatrixParams(3, "Ln", 1, 1).sign_factor() == -1
    assert SymMatrixParams(3, "Ln", 1, -1).sign_factor() == 1
    assert SymMatrixParams(3, "Ln", -1, 1).sign_factor() == -1
    assert SymMatrixParams(5, "Ln", -1, 1).sign_factor() == 1
    assert SymMatrixParams(5, "Ln", 1, 1).sign_factor() == -1


def test_symmat_lattice_scaling():
    # L_n* carries 2^{(n-1)s} and drops the 2^{(n-1)/2} inside A_n.
    s = 1.9 + 2j
    v_star = symmat_zeta(SymMatrixParams(3, "Ln*", 1, 1), s).z
    b = 1 / 24
    a_part = riemann_zeta(2 * s - 1).z * riemann_zeta(s - 1).z
    b_part = -riemann_zeta(s).z * riemann_zeta(2 * s - 2).z
    ref = rpow(2.0, 2 * s) * b * (a_part + b_part)
    assert abs(v_star - ref) < 1e-12 * max(1.0, abs(v_star))


def test_symmat_conjugation():
    p = SymMatrixParams(3, "Ln", 1, 1)
    s = 1.8 + 7j
    assert symmat_zeta(p, s.conjugate()).z == symmat_zeta(p, s).z.conjugate()


def test_symmat_pole_at_2():
    with pytest.raises(PoleProximity):
        symmat_zeta(SymMatrixParams(3, "Ln", 1, 1), 2.0)
    poles = symmat_poly(SymMatrixParams(3, "Ln", 1, 1)).poles
    assert sorted({loc for loc, _ in poles}) == [1.0, 1.5, 2.0]


def test_symmat_validation():
    with pytest.raises(OutOfRange):
        SymMatrixParams(4, "Ln", 1, 1)
    with pytest.raises(ValueError):
        SymMatrixParams(3, "L", 1, 1)


# ---------------------------------------------------------------- Linear forms

MORDELL = LinearFormSeries(r=2, m=3, lam=((1, 0), (0, 1), (1, 1)),
                           shifts=(0, 0), index_offset="from_one")


def test_mordell_value():
    v = linear_form_eval(MORDELL, (2, 2, 2))
    assert abs(v.z - math.pi**6 / 2835) <= v.abs_err + 1e-9
    assert v.abs_err < 1e-5


def test_mordell_brute_force_oracle():
    # Independent double sum on a small box plus a one-line tail allowance.
    n = np.arange(1, 1500, dtype=np.float64)
    x, y = np.meshgrid(n, n, indexing="ij")
    brute = float(np.sum(1.0 / (x**2 * y**2 * (x + y) ** 2)))
    tail_allow = 4.0 / 1500**2
    v = linear_form_eval(MORDELL, (2, 2, 2))
    assert abs(v.z - brute) < tail_allow


def test_witten_a2_equals_mordell():
    witten = LinearFormSeries(r=2, m=3, lam=((1, 0), (0, 1), (1, 1)),
                              shifts=(0, 0), index_offset="from_one")
    assert linear_form_eval(witten, (2, 2, 2)).z == linear_form_eval(MORDELL, (2, 2, 2)).z


def test_ezh_strict_order():
    ezh = LinearFormSeries(r=2, m=2, lam=((1, 0), (0, 1)), shifts=(1, 1),
                           index_offset="from_zero", strict_order=True)
    v = linear_form_eval(ezh, (2, 2))
    assert abs(v.z - math.pi**4 / 120) <= v.abs_err + 1e-9
    assert v.abs_err < 0.01


def test_strict_from_one_matches_ez_direct():
    spec = LinearFormSeries(r=2, m=2, lam=((1, 0), (0, 1)), shifts=(0, 0),
                            index_offset="from_one", strict_order=True)
    v = linear_form_eval(spec, (3, 2))
    ref = ez_direct((3, 2))
    assert abs(v.z - ref.z) <= v.abs_err + ref.abs_err + 1e-12


@pytest.mark.parametrize("s1,s2", [(1.5, 1.5), (1.2, 1.9), (2, 1.8), (3, 1.95), (2.5, 2.5)])
def test_separable_split_takes_the_largest_least_tau(s1, s2):
    # n1^-s1 (n1 + n2)^-s2 over n1, n2 >= 1 is the Euler-Zagier zeta(s2, s1).
    # A split whose least tau only just passes 1 leaves a tail bound of 0.7 to
    # 900 at the largest box; the split with the largest least tau certifies.
    spec = LinearFormSeries(r=2, m=2, lam=((1, 0), (1, 1)), shifts=(0, 0),
                            index_offset="from_one")
    v = linear_form_eval(spec, (s1, s2))
    ref = ez_direct((s2, s1))
    assert abs(v.z - ref.z) <= v.abs_err + ref.abs_err


def test_ezh_strict_order_depth3():
    ezh3 = LinearFormSeries(r=3, m=3, lam=((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                            shifts=(1, 1, 1), index_offset="from_zero",
                            strict_order=True)
    v = linear_form_eval(ezh3, (2, 2, 2))
    assert abs(v.z - math.pi**6 / 5040) <= v.abs_err + 1e-9
    assert v.abs_err < 0.05


def test_linear_form_r1():
    spec = LinearFormSeries(r=1, m=1, lam=((1,),), shifts=(0,), index_offset="from_one")
    v = linear_form_eval(spec, (4,))
    assert abs(v.z - math.pi**4 / 90) <= v.abs_err + 1e-10


def test_origin_exclusion():
    # sum over (n1,n2) != (0,0) of (n1+n2)^{-s} counts k >= 1 with weight k+1.
    spec = LinearFormSeries(r=2, m=1, lam=((1, 1),), shifts=(0, 0),
                            index_offset="from_zero")
    v = linear_form_eval(spec, (4,))
    ref = riemann_zeta(3).z + riemann_zeta(4).z
    assert abs(v.z - ref) <= v.abs_err + 1e-9
    # r = 1: sum over n1 != 0 of n1^{-s} is zeta(s).
    spec = LinearFormSeries(r=1, m=1, lam=((1,),), shifts=(0,), index_offset="from_zero")
    assert spec.excludes_origin
    v = linear_form_eval(spec, (4,))
    assert abs(v.z - math.pi**4 / 90) <= v.abs_err + 1e-10


def test_linear_form_margin_guard():
    with pytest.raises(NotInConvergenceRegion):
        linear_form_eval(MORDELL, (0.7, 2, 2))     # margin is 2/3 + 0.1


def test_linear_form_validation():
    with pytest.raises(ValueError):
        LinearFormSeries(r=2, m=1, lam=((1, 0),), shifts=(0, 0),
                         index_offset="from_zero")  # form vanishes on the n2 axis
    with pytest.raises(ValueError):
        # form sees only n2, which is 0 at the minimal strict index (1, 0)
        LinearFormSeries(r=2, m=1, lam=((0, 1),), shifts=(0, 0),
                         index_offset="from_zero", strict_order=True)


def test_linear_form_config_round_trip():
    text = """
    # Mordell instance
    r = 2
    m = 3
    lambda = 1 0  0 1  1 1
    shifts = 0 0
    offset = from_one
    strict_order = false
    """
    spec = linear_form_from_config(text)
    assert spec == MORDELL
    with pytest.raises(ValueError):
        linear_form_from_config("r = 2\nm = 1\nlambda = 1\nshifts = 0 0\n")


# ---------------------------------------------------------------- Term lists against mpmath

def _ezd_ref(r, s):
    z1, z2, z3 = (mp.zeta(k * s) for k in (1, 2, 3))
    return {1: z1, 2: (z1**2 - z2) / 2, 3: (z1**3 - 3 * z1 * z2 + 2 * z3) / 6}[r]


def _barnes_ref(r, a, s):
    # C(n+r-1, r-1) = prod_{i<r} (x + i - a) / (r-1)! in x = n + a, so the
    # sum is sum_j coef_j zeta(s - j, a).
    coef = [mp.mpf(1)]
    for i in range(1, r):
        coef = [(coef[j - 1] if j else 0) + (i - a) * (coef[j] if j < len(coef) else 0)
                for j in range(len(coef) + 1)]
    return sum(c * mp.zeta(s - j, a) for j, c in enumerate(coef)) / mp.factorial(r - 1)


def _sphere_ref(n, s):
    # Multiplicity C(k+n, n) - C(k+n-2, n) as a polynomial in m = k + (n-1)/2,
    # interpolated at k = 1..n; the sum over k >= 1 of mult * m^{-2s}.
    ms = [mp.mpf(k) + mp.mpf(n - 1) / 2 for k in range(1, n + 1)]
    mult = [mp.mpf(math.comb(k + n, n) - math.comb(k + n - 2, n)) for k in range(1, n + 1)]
    coef = mp.lu_solve(mp.matrix([[m**j for j in range(n)] for m in ms]), mp.matrix(mult))
    return sum(coef[j] * mp.zeta(2 * s - j, mp.mpf(n + 1) / 2) for j in range(n))


def _symmat_ref(n, lattice, eta, theta, s):
    h = n // 2
    b = abs(mp.fprod(mp.bernoulli(2 * k) for k in range(1, h + 1))) / (2 ** (n - 1) * mp.factorial(h))
    sign = theta * eta ** ((n + 1) // 2) * (-1) ** ((n * n - 1) // 8)
    a_part = mp.fprod(mp.zeta(2 * s - 2 * k + 1) for k in range(1, h + 1)) * mp.zeta(s - h)
    b_part = sign * mp.zeta(s) * mp.fprod(mp.zeta(2 * s - 2 * k) for k in range(1, h + 1))
    if lattice == "Ln":
        return b * (2**h * a_part + b_part)
    return b * mp.power(2, (n - 1) * s) * (a_part + b_part)


MPMATH_CASES = (
    [(f"ezd({r})", lambda s, r=r: _ezd_ref(r, s)) for r in (1, 2, 3)]
    + [(f"barnes({r},{p}/{q})", lambda s, r=r, a=mp.mpf(p) / q: _barnes_ref(r, a, s))
       for r, p, q in ((1, 3, 2), (2, 5, 2), (3, 7, 4), (4, 3, 1))]
    + [(f"sphere({n})", lambda s, n=n: _sphere_ref(n, s)) for n in (1, 2, 5)]
    + [(f"symmat({n},{lat},{eta:+d},{theta:+d})",
        lambda s, p=(n, lat, eta, theta): _symmat_ref(*p, s))
       for n in (3, 5) for lat in ("Ln", "Ln*") for eta in (1, -1) for theta in (1, -1)]
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=st.sampled_from(MPMATH_CASES), sigma=st.floats(-0.5, 3.0), t=st.floats(-40.0, 40.0))
def test_family_term_lists_match_mpmath(case, sigma, t):
    text, ref_fn = case
    e = parse_expr(text)
    s = complex(sigma, t)
    assume(all(abs(s - loc) > 1e-3 for loc in (c.location for c in pole_set(e))))
    # autoprec raises the working precision until two evaluations agree:
    # mpmath's reflection formula for Re < 0 cancels the pole of zeta(1 - s, a)
    # and loses about -log10|s| digits near s = 0.
    with mp.workdps(30):
        ref = complex(mp.autoprec(ref_fn)(mp.mpc(sigma, t)))
    assert abs(eval_expr(e, s).z - ref) <= 1e-10 * max(1.0, abs(ref))
