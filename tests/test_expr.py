import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import zetazeros.expr as X
import zetazeros.families as F
import zetazeros.zeta as zeta
from zetazeros.errors import (
    ArityError,
    BudgetExceeded,
    ExprSyntaxError,
    PoleProximity,
    UnknownFamily,
    ZetaError,
)
from zetazeros.expr import (
    ATOMS,
    Add,
    Atom,
    Const,
    DirichletPoly,
    Mul,
    Neg,
    Pow,
    eval_batch,
    eval_expr,
    parse_expr,
    pole_set,
    to_text,
)
from zetazeros.families import (
    BarnesParams,
    SymMatrixParams,
    barnes_zeta,
    ez_diagonal,
    sphere_spectral,
    symmat_zeta,
)
from zetazeros.zeta import POLE_GUARD


def test_parse_square_difference():
    e = parse_expr("zeta(s)^2 - zeta(2*s)")
    assert e == Add((
        Pow(Atom("zeta", ((Fraction(1), Fraction(0)),)), 2),
        Neg(Atom("zeta", ((Fraction(2), Fraction(0)),))),
    ))


def test_parse_taylor_combination():
    e = parse_expr("xi(s+1/2) - xi(s-1/2)")
    assert e == Add((
        Atom("xi", ((Fraction(1), Fraction(1, 2)),)),
        Neg(Atom("xi", ((Fraction(1), Fraction(-1, 2)),))),
    ))


def test_parse_hurwitz_plus_const():
    e = parse_expr("hurwitz(s, 1/4) + 3")
    assert e == Add((
        Atom("hurwitz", ((Fraction(1), Fraction(0)), Fraction(1, 4))),
        Const(3 + 0j),
    ))


@pytest.mark.parametrize("text", [
    "zeta(s)^2 - zeta(2*s)",
    "xi(s+1/2) - xi(s-1/2)",
    "hurwitz(s, 1/4) + 3",
    "dirichlet[(1,0),(-1,0.6931471805599453)]",
    "barnes(2, 1/3) * sphere(2) + ezd(4)",
    "symmat(3, Ln*, +1, -1)",
    "2*zeta(2*s)",
    "-zeta(s) + 1",
    "(zeta(s) + 1)^3 * zeta(s-2)",
])
def test_round_trip(text):
    e = parse_expr(text)
    assert parse_expr(to_text(e)) == e


def test_syntax_errors_carry_position():
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expr("zeta(s")
    assert exc.value.position == 6
    with pytest.raises(ExprSyntaxError):
        parse_expr("zeta(s) +")
    with pytest.raises(ExprSyntaxError):
        parse_expr("zeta(2)")      # affine must involve s
    with pytest.raises(ExprSyntaxError):
        parse_expr("zeta(s)^0")
    for text, pos in [("zeta(s/0)", 7), ("hurwitz(s,1/0)", 12), ("barnes(2,1/0)", 11),
                      ("zeta(1/0*s)", 7), ("zeta(s/2.5)", 7),
                      # digits are ASCII: a superscript or Arabic-Indic digit is no power
                      ("zeta(s)^\u00b2", 8), ("zeta(s)^\u0663", 8)]:
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expr(text)
        assert exc.value.position == pos, text


def test_unknown_and_arity_errors():
    with pytest.raises(UnknownFamily):
        parse_expr("frobenius(s)")
    with pytest.raises(ArityError):
        parse_expr("hurwitz(s, 5/4)")     # shift outside (0, 1]
    with pytest.raises(ArityError):
        parse_expr("barnes(2, -1/2)")
    with pytest.raises(ArityError):
        parse_expr("symmat(3, Lx, +1, +1)")
    # the families' own validators run at parse time
    for text in ("ezd(0)", "ezd(13)", "barnes(13,1/2)", "sphere(17)", "symmat(4,Ln,+1,+1)"):
        with pytest.raises(ArityError):
            parse_expr(text)


def test_pole_sets():
    locs = [c.location for c in pole_set(parse_expr("zeta(s) + zeta(2*s)"))]
    assert sorted(z.real for z in locs) == [0.5, 1.0]
    locs = [c.location for c in pole_set(parse_expr("barnes(2, 0.3)"))]
    assert sorted(z.real for z in locs) == [1.0, 2.0]
    assert len(pole_set(parse_expr("dirichlet[(1,0),(-1,0.693147)]"))) == 0
    locs = [c.location for c in pole_set(parse_expr("sphere(2)"))]
    assert sorted(z.real for z in locs) == [0.5, 1.0]
    locs = [c.location for c in pole_set(parse_expr("xi(s+1/2)"))]
    assert sorted(z.real for z in locs) == [-0.5, 0.5]
    locs = [c.location for c in pole_set(parse_expr("symmat(3, Ln, +1, +1)"))]
    assert sorted(z.real for z in locs) == [1.0, 1.5, 2.0]


def test_eval_examples():
    assert abs(eval_expr(parse_expr("2*zeta(2*s)"), 1).z - math.pi**2 / 3) < 1e-10
    assert abs(eval_expr(parse_expr("ezd(2)"), 2).z - math.pi**4 / 120) < 1e-10
    v = eval_expr(parse_expr("zeta(s)^2 - zeta(s)^2"), 1.7 + 3j)
    assert abs(v.z) <= 2 * v.abs_err + 1e-300


def test_eval_homomorphism():
    rng = np.random.default_rng(9)
    a = parse_expr("zeta(s)^2")
    b = parse_expr("zeta(2*s-1)")
    add = parse_expr("zeta(s)^2 + zeta(2*s-1)")
    mul = parse_expr("zeta(s)^2 * zeta(2*s-1)")
    for _ in range(6):
        s = complex(rng.uniform(1.2, 3), rng.uniform(-20, 20))
        va, vb = eval_expr(a, s), eval_expr(b, s)
        vadd, vmul = eval_expr(add, s), eval_expr(mul, s)
        assert abs(vadd.z - (va.z + vb.z)) <= vadd.abs_err + va.abs_err + vb.abs_err + 1e-14
        assert abs(vmul.z - va.z * vb.z) <= (
            vmul.abs_err + abs(va.z) * vb.abs_err + abs(vb.z) * va.abs_err + 1e-14
        )


def test_eval_conjugation():
    e = parse_expr("zeta(s)^2 - zeta(2*s) + dirichlet[(1,0),(-2,0.25)]")
    s = 0.8 + 11j
    assert eval_expr(e, s.conjugate()).z == eval_expr(e, s).z.conjugate()


def test_pole_guard_scaling():
    guard = POLE_GUARD
    for text, pole in [("zeta(s) + zeta(2*s)", 0.5),
                       ("barnes(2, 0.3)", 2.0),
                       ("sphere(2)", 1.0),
                       ("ezd(3)", 1 / 3),
                       ("hurwitz(2*s-1, 1/4)", 1.0),
                       ("xi(s)", 0.0),
                       ("symmat(3, Ln, +1, +1)", 1.5)]:
        e = parse_expr(text)
        eval_expr(e, pole + 10 * guard)          # must succeed
        with pytest.raises(PoleProximity):
            eval_expr(e, pole + guard / 10)


def test_dirichlet_poly_eval():
    e = parse_expr("dirichlet[(1,0),(-1,0.6931471805599453)]")
    v = eval_expr(e, 3.0)
    assert abs(v.z - (1 - 2.0**-3)) < 1e-14


# Several parameter sets for every registered atom kind.
REGISTRY_CASES = [
    "zeta(s)", "zeta(3*s)", "zeta(-1/2*s+2)",
    "hurwitz(2*s-1,1/3)", "hurwitz(s,1)", "hurwitz(s/3+2,1/10)",
    "xi(s+1/2)", "xi(s)", "xi(3*s-2)",
    "ezd(1)", "ezd(4)", "ezd(7)",
    "barnes(1,1)", "barnes(3,1/2)", "barnes(5,7/3)",
    "sphere(1)", "sphere(3)", "sphere(6)",
    "symmat(3,Ln,+1,+1)", "symmat(5,Ln*,-1,+1)", "symmat(7,Ln,-1,-1)",
]

# The family function behind each family atom, called directly.
FAMILY_FUNCTIONS = {
    "ezd": lambda p, s: ez_diagonal(p[0], s),
    "barnes": lambda p, s: barnes_zeta(BarnesParams(p[0], float(p[1])), s),
    "sphere": lambda p, s: sphere_spectral(p[0], s),
    "symmat": lambda p, s: symmat_zeta(SymMatrixParams(*p), s),
}


def test_registry_cases_cover_every_atom():
    assert {parse_expr(text).kind for text in REGISTRY_CASES} == set(ATOMS)
    assert set(ATOMS) <= {getattr(parse_expr(text), "kind", None) for text in BATCH_CASES}


@pytest.mark.parametrize("text", REGISTRY_CASES)
def test_registry_round_trip_and_poles(text):
    e = parse_expr(text)
    assert parse_expr(to_text(e)) == e
    guard = POLE_GUARD
    locations = [c.location for c in pole_set(e)]
    assert locations
    for loc in locations:
        s = loc + guard / 10
        with pytest.raises(PoleProximity):
            eval_expr(e, s)
        if e.kind in FAMILY_FUNCTIONS:
            with pytest.raises(PoleProximity):
                FAMILY_FUNCTIONS[e.kind](e.args, s)


def test_eval_looks_up_atom_functions_at_call_time(monkeypatch):
    # zeta(2*s) calls the kernel entry through this module; ezd(2) is lowered
    # to its factors zeta(2*s) and zeta(s), which call it through families.
    e = parse_expr("zeta(2*s) + ezd(2)")
    first = eval_expr(e, 3.0)
    calls = []
    for mod in (X, F):
        def counted(*args, inner=mod.hurwitz_pair, name=mod.__name__):
            calls.append(name)
            return inner(*args)
        monkeypatch.setattr(mod, "hurwitz_pair", counted)
    assert eval_expr(e, 3.0) == first
    assert calls == ["zetazeros.expr", "zetazeros.families", "zetazeros.families"]


# eval_batch against eval_expr.  Both run one closure over one Hurwitz kernel
# body, so a batch value and its abs_err equal the point's bit for bit.
BATCH_CASES = [
    "zeta(s)", "hurwitz(s,1/2)", "hurwitz(s,1/10)", "xi(s)", "ezd(2)",
    "barnes(2,1/3)", "sphere(2)", "symmat(3,Ln,+1,+1)",
    "sphere(16)", "barnes(3,5/2)", "symmat(3,Ln*,-1,+1)",
    "dirichlet[(1,0),(-1,0.6931471805599453)]", "7", "zeta(s)^3", "-hurwitz(s,1/3)",
]


def _batch_points(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    t = np.repeat([0.0, 100.0, 400.0], 4) + rng.uniform(-0.5, 0.5, 12)
    return rng.uniform(-0.5, 3.0, 12) + 1j * t


@pytest.mark.parametrize("text", BATCH_CASES)
def test_eval_batch_agrees_with_eval_expr(text):
    zs = _batch_points(11)
    e = parse_expr(text)
    values, errs = eval_batch(e, zs)
    assert values.shape == errs.shape == zs.shape
    for z, v, err in zip(zs, values, errs):
        ref = eval_expr(e, complex(z))
        assert (v, err) == (ref.z, ref.abs_err)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(text=st.sampled_from(REGISTRY_CASES + ["zeta(s/3)+1"]),
       zs=st.lists(st.builds(complex, st.floats(-1.0, 3.0), st.floats(-500.0, 500.0)),
                   min_size=1, max_size=6))
# The kernel's rising factorials rounded s + j + 1 twice at a point and once
# on an array (the first and third examples); its tail took log(N + a) from
# the C library at a point and from numpy on an array, and the two differ at
# N + a = 148 + 1/3 (the second).
@example(text="hurwitz(s,1/3)", zs=[-1.6451697434547998 + 17.34996850973232j])
@example(text="hurwitz(s,1/3)", zs=[0.9748203624031646 + 380.09428620097094j])
@example(text="zeta(s/3)+1", zs=[2.0, 1.0181930358318132 - 84.9115664078729j])
# xi raised OverflowError, not zeta's BudgetExceeded, left of Re(s) = -24.5.
@example(text="xi(s)", zs=[0.5 + 14j, -30 + 1j, -2e3 + 1j, -1e5 + 1j])
# |s| is 1e-8 to the last bit: the batch's pole guard took numpy's complex
# abs, which fails this only where it rounds otherwise than Python's abs
# (numpy's AVX-512 loops do, at about a third of seeded points).
@example(text="zeta(s+1)", zs=[7.102839190658076e-09 + 7.0391530336860646e-09j])
def test_eval_batch_equals_eval_expr_bit_for_bit(text, zs):
    # Points where eval_expr raises are left out (the budget and pole-guard
    # tests cover them); the batch of the rest matches point by point.
    e = parse_expr(text)
    refs = {}
    for z in zs:
        try:
            refs[z] = eval_expr(e, z)
        except ZetaError:
            pass
    assume(refs)
    values, errs = eval_batch(e, list(refs))
    for ref, v, err in zip(refs.values(), values.tolist(), errs.tolist()):
        assert (v, err) == (ref.z, ref.abs_err)


@pytest.mark.parametrize("text", REGISTRY_CASES
                         + ["zeta(s)^2-zeta(2*s)", "2*zeta(s)*hurwitz(s+1,1/2) + 1"])
def test_eval_batch_scaled_arguments_within_abs_err(text):
    zs = _batch_points(12)
    e = parse_expr(text)
    values, errs = eval_batch(e, zs)
    for z, v, err in zip(zs, values, errs):
        ref = eval_expr(e, complex(z))
        assert abs(v - ref.z) <= 0.25 * ref.abs_err
        assert abs(err - ref.abs_err) <= 1e-12 * ref.abs_err


def test_eval_batch_pole_guard_names_first_point():
    guard = POLE_GUARD
    for text, points, first in [
        ("zeta(s) + zeta(2*s)", [2.0, 3 + 1j, 0.5 + guard / 10, 1 + guard / 10], 2),
        # inside zeta's own guard at its argument s/3 = 1, outside eval_expr's;
        # the last point, inside eval_expr's, comes after the first failure
        ("zeta(s/3) + 1", [2.0, 3 + 2 * guard, 3 + 1.5 * guard, 3 + 0.5 * guard], 1),
    ]:
        e = parse_expr(text)
        for z in points[:first]:
            eval_expr(e, z)
        with pytest.raises(PoleProximity) as want:
            eval_expr(e, points[first])
        with pytest.raises(PoleProximity) as got:
            eval_batch(e, points)
        assert str(got.value) == str(want.value)
        assert (got.value.location, got.value.source) == (want.value.location, want.value.source)


@pytest.mark.parametrize("text, zs", [
    # A NaN point is no pole-guard hit; each atom raises its own error there.
    ("zeta(s)", [2.0, complex(math.nan, 1.0)]),
    ("xi(s)", [2.0, complex(1.0, math.nan)]),
    ("dirichlet[(1,0)]", [2.0, complex(math.nan, math.nan)]),
    # An overflow on the array is the point's OverflowError, not a RuntimeWarning.
    ("xi(s)", [2 + 1j, 700 + 1j]),
    ("dirichlet[(1,-800)]", [2.0]),
])
def test_eval_batch_raises_what_eval_expr_raises(text, zs):
    e = parse_expr(text)
    with pytest.raises(Exception) as want:
        for z in zs:
            eval_expr(e, z)
    with pytest.raises(type(want.value)) as got:
        eval_batch(e, zs)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("text, z", [
    ("hurwitz(2*s-1,1/3)", 330), ("hurwitz(2*s-1,1/3)", 700 + 1j),
    ("hurwitz(2*s-1,1/3)", 2000), ("hurwitz(s/3+2,1/10)", 2000), ("barnes(3,1/2)", 2000),
])
def test_hurwitz_first_term_overflow_is_an_infinite_abs_err(text, z):
    # With a shift a < 1 and a large Re(s), a^-s, the first term of the
    # prefix sum, overflows: both forms raise eval_expr's ValueError for the
    # infinite abs_err, and a RuntimeWarning fails the test.
    e = parse_expr(text)
    for run in (lambda: eval_expr(e, z), lambda: eval_batch(e, [5 + 1j, z])):
        with pytest.raises(ValueError, match="^abs_err must be finite and >= 0, got inf$"):
            run()


def test_xi_gamma_pole_reported_at_s():
    # Gamma(s/2) has its poles at s = 0, -2, -4, ...; xi names them in s.
    e = parse_expr("xi(s)")
    for z, at in [(-4.0, -4), (-2 + 1e-10, -2)]:
        with pytest.raises(PoleProximity) as want:
            eval_expr(e, z)
        with pytest.raises(PoleProximity) as got:
            eval_batch(e, [1 + 1j, z])
        for exc in (want.value, got.value):
            assert str(exc) == f"completed zeta Gamma(s/2) pole at s={at}"
            assert (exc.location, exc.source) == (complex(at), "xi")


@pytest.mark.parametrize("z", [-30 + 1j, -2e3 + 1j, -1e5 + 1j])
def test_xi_left_of_the_kernel_raises_zetas_budget_error(z):
    # zeta(s) runs before Gamma(s/2), which would overflow this far left, so
    # xi raises zeta's BudgetExceeded, in eval_expr, in eval_batch and in the
    # kernel entry's array form; a RuntimeWarning fails the test.
    with pytest.raises(BudgetExceeded) as want:
        eval_expr(parse_expr("zeta(s)"), z)
    e = parse_expr("xi(s)")
    for run in (lambda: eval_expr(e, z), lambda: eval_batch(e, [1 + 1j] * 500 + [z]),
                lambda: zeta.completed_zeta_pair(np.array([2 + 1j, z]))):
        with pytest.raises(BudgetExceeded) as got:
            run()
        assert str(got.value) == str(want.value)


def test_eval_batch_budget_exceeded_matches_eval_expr(monkeypatch):
    monkeypatch.setattr(zeta, "EM_ORDER", 1)
    monkeypatch.setattr(zeta, "MAX_TERMS", 100)
    e = parse_expr("zeta(s)")
    with pytest.raises(BudgetExceeded) as want:
        eval_expr(e, 2.0)
    with pytest.raises(BudgetExceeded) as got:
        eval_batch(e, [2.0, 2.5])
    assert str(got.value) == str(want.value)


# The pole candidates of each family, written out from its reduction.
FAMILY_POLES = {
    "ezd": lambda r: {1 / k for k in range(1, r + 1)},                       # zeta(k*s)
    "barnes": lambda r, a: {1.0 + j for j in range(r)},                      # zeta(s-j, a)
    "sphere": lambda n: {(j + 1) / 2 for j in range(n)},                     # zeta(2s-j, (n+1)/2)
    "symmat": lambda n, *_: ({n // 2 + 1.0, 1.0}                             # zeta(s-(n-1)/2), zeta(s)
                             | {(j + 1) / 2 for j in range(1, n)}),          # zeta(2s-j)
}
FAMILY_POLY = {"ezd": F.ezd_poly, "barnes": lambda r, a: F.barnes_poly(r, float(a)),
               "sphere": F.sphere_poly, "symmat": lambda *p: F.symmat_poly(SymMatrixParams(*p))}


@pytest.mark.parametrize("text", [c for c in REGISTRY_CASES if parse_expr(c).kind in FAMILY_POLES]
                         + ["sphere(16)", "barnes(3,5/2)"])
def test_family_pole_set_is_its_factor_poles(text):
    e = parse_expr(text)
    poly = FAMILY_POLY[e.kind](*e.args)
    factor_poles = sorted({(1 - beta) / alpha for _, fs in poly.terms for alpha, beta, _ in fs})
    assert sorted(c.location.real for c in pole_set(e)) == factor_poles
    assert factor_poles == pytest.approx(sorted(FAMILY_POLES[e.kind](*e.args)), rel=1e-15)


def test_family_guard_names_the_factor():
    with pytest.raises(PoleProximity) as exc:
        ez_diagonal(3, 1 / 3)
    assert str(exc.value) == "zeta(3*s) has a pole at s=0.333333"
    with pytest.raises(PoleProximity) as exc:
        sphere_spectral(2, 0.5)
    assert str(exc.value) == "zeta(2*s,1.5) has a pole at s=0.5"
    with pytest.raises(PoleProximity) as exc:
        symmat_zeta(SymMatrixParams(3, "Ln", 1, 1), 2.0)
    assert str(exc.value) == "zeta(s-1) has a pole at s=2"


def test_ezd12_evaluates_each_factor_once(monkeypatch):
    # 77 Hoffman terms over the 12 distinct factors zeta(k*s): one kernel
    # call per factor, with a complex at a point and with an array in a batch.
    poly = F.ezd_poly(12)
    assert (len(poly.terms), len(poly.factors)) == (77, 12)
    e = parse_expr("ezd(12)")
    calls = []

    def counted(s, *args, inner=F.hurwitz_pair):
        calls.append(type(s))
        return inner(s, *args)
    monkeypatch.setattr(F, "hurwitz_pair", counted)
    eval_expr(e, 2.5 + 30j)
    assert calls == [complex] * 12
    calls.clear()
    eval_batch(e, [2.5 + 30j, 1.5 - 4j, 3.0 + 0.5j])
    assert calls == [np.ndarray] * 12


# Every ATOMS entry and every node kind, for the majorant check.
MAJORANT_CASES = [
    "zeta(2*s-1/2)", "hurwitz(s+1/3,1/3)", "xi(s)", "ezd(3)", "barnes(2,1/3)", "sphere(4)",
    "symmat(3,Ln,+1,+1)", "symmat(3,Ln*,-1,+1)",
    "7", "dirichlet[(1,0),(-2,0.7),(0.5,-0.3)]", "-zeta(s)", "zeta(s)+zeta(2*s)",
    "zeta(s)*hurwitz(s,1/2)", "zeta(s)^3", "3*zeta(s)^2-xi(s-1/2)*dirichlet[(1,0),(1,0.5)]",
]

FAMILY_POLYS = {
    "ezd": lambda r: F.ezd_poly(r),
    "barnes": lambda r, a: F.barnes_poly(r, float(a)),
    "sphere": lambda n: F.sphere_poly(n),
    "symmat": lambda *p: F.symmat_poly(SymMatrixParams(*p)),
}


def _mp_value(e, s):
    """The expression at s from mpmath's zeta and gamma; a family atom
    through its term list."""
    from mpmath import mp
    if isinstance(e, Const):
        return mp.mpc(e.value)
    if isinstance(e, DirichletPoly):
        return sum(mp.mpc(a) * mp.exp(-mp.mpf(lam) * s) for a, lam in e.pairs)
    if isinstance(e, Neg):
        return -_mp_value(e.child, s)
    if isinstance(e, Pow):
        return _mp_value(e.base, s) ** e.k
    if isinstance(e, Add):
        return sum(_mp_value(c, s) for c in e.children)
    if isinstance(e, Mul):
        return mp.fprod(_mp_value(c, s) for c in e.children)
    if e.kind in FAMILY_POLYS:
        poly = FAMILY_POLYS[e.kind](*e.args)
        terms = sum(mp.mpf(c) * mp.fprod(mp.zeta(mp.mpf(alpha) * s + mp.mpf(beta), mp.mpf(a))
                                          for alpha, beta, a in fs) for c, fs in poly.terms)
        return mp.mpf(poly.scale) * mp.power(2, mp.mpf(poly.exp2) * s) * terms
    alpha, beta = e.args[0]
    w = mp.mpf(alpha.numerator) / alpha.denominator * s + mp.mpf(beta.numerator) / beta.denominator
    if e.kind == "zeta":
        return mp.zeta(w)
    if e.kind == "hurwitz":
        return mp.zeta(w, mp.mpf(e.args[1].numerator) / e.args[1].denominator)
    return mp.power(mp.pi, -w / 2) * mp.gamma(w / 2) * mp.zeta(w)


def test_majorant_cases_cover_every_atom_and_node():
    nodes = [parse_expr(text) for text in MAJORANT_CASES]
    assert {e.kind for e in nodes if isinstance(e, Atom)} == set(ATOMS)

    def kinds(e):
        yield type(e)
        for c in getattr(e, "children", ()) + tuple(
                getattr(e, name) for name in ("child", "base") if hasattr(e, name)):
            yield from kinds(c)
    assert set().union(*(set(kinds(e)) for e in nodes)) == {
        Const, DirichletPoly, Atom, Neg, Add, Mul, Pow}


@pytest.mark.parametrize("text", MAJORANT_CASES)
@settings(derandomize=True, max_examples=20, deadline=None)
@given(sigma=st.floats(-1.0, 3.0), t=st.floats(-5.0, 60.0), width=st.floats(1e-3, 1.5),
       height=st.floats(1e-3, 1.5), u=st.floats(0.0, 1.0), v=st.floats(0.0, 1.0))
def test_majorant_bounds_the_regularised_expression(text, sigma, t, width, height, u, v):
    # At a point of a box, |G| = |F(s) * prod (s - p)^k| over the pole
    # candidates p with the fold's orders k, from mpmath at 30 digits, is at
    # most the majorant of the box, with no slack.
    from mpmath import mp
    e = parse_expr(text)
    orders, bound = X.majorant(e)
    s = complex(sigma + u * width, t + v * height)
    assume(all(abs(s - p) > 1e-6 for p in orders))
    with mp.workdps(30):
        g = _mp_value(e, mp.mpc(s)) * mp.fprod(mp.mpc(s - p) ** k for p, k in orders.items())
        assert abs(g) <= float(bound(sigma, sigma + width, t, t + height))
