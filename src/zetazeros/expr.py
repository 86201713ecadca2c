"""Expression IR over zeta atoms and general Dirichlet polynomials.

Grammar (whitespace insensitive):

    expr   := ("+"|"-")? term (("+"|"-") term)*
    term   := factor ("*" factor)*
    factor := base ("^" INT)?
    base   := NUMBER | "(" expr ")"
            | ATOM "(" arg ("," arg)* ")"
            | "dirichlet" "[" pair ("," pair)* "]"
    affine := linear polynomial in "s" with rational coefficients, e.g. 2*s-1
    pair   := "(" NUMBER "," NUMBER ")"        # (coefficient a_k, exponent l_k)

ATOM is a name in the ATOMS registry, whose entry gives its argument readers
(affine, INT, RATIONAL, "Ln"|"Ln*", SIGN), pole candidates and evaluator.
Only integer powers >= 1 exist, matching polynomial combinations of the
atoms; affine arguments are restricted to rational alpha*s + beta.  The
family atoms (ezd, barnes, sphere, symmat) parse and print as themselves and
evaluate through their families' term lists, polynomials in Hurwitz zetas.

eval_expr evaluates one point; eval_batch evaluates an array of points in one
vectorised pass.  Both run one body, _evaluate: the pole guard, then the
compiled closure.  The guard, every node, atom and error rule are written
with operators only, so a point and an array go through the same code and
a batch fails where its first failing point fails.  majorant folds the tree
into pole orders and a closed-form bound of |F * prod (s - p)^k| over boxes,
for the zero engine.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable

import numpy as np

from .config import ComplexValue, EvalConfig, DEFAULT_CONFIG, cabs, err_add, err_mul, err_pow
from .errors import (
    ArityError, ExprSyntaxError, OutOfRange, PoleProximity, UnknownFamily, ZetaError,
)
from .families import (
    BarnesParams,
    SymMatrixParams,
    affine_preimage,
    barnes_poly,
    ezd_poly,
    hoffman_diagonal_coeffs,
    sphere_mult_poly,
    sphere_poly,
    symmat_poly,
)
from .zeta import POLE_GUARD, completed_zeta_pair, gamma_majorant, hurwitz_majorant, hurwitz_pair


# ---------------------------------------------------------------------------
# IR nodes
# ---------------------------------------------------------------------------

class _Node:
    """Base of the IR nodes.  Nodes are immutable, so the pole guard list and
    the evaluation closure are built on first evaluation and kept on the
    node: the per-point path neither hashes the tree nor converts Fractions
    again."""

    @cached_property
    def _plan(self):
        """The pole guard list and the closure (s, cfg) -> (value, abs_err)."""
        return tuple((c.location, c.source) for c in pole_set(self)), _compile(self)


@dataclass(frozen=True)
class Const(_Node):
    value: complex


@dataclass(frozen=True)
class DirichletPoly(_Node):
    pairs: tuple[tuple[complex, float], ...]   # sum a_k * exp(-l_k * s); entire


@dataclass(frozen=True)
class Atom(_Node):
    """An ATOMS registry atom: its name and its arguments in signature order,
    an affine argument alpha*s + beta as the pair (alpha, beta)."""
    kind: str
    args: tuple


@dataclass(frozen=True)
class Add(_Node):
    children: tuple


@dataclass(frozen=True)
class Mul(_Node):
    children: tuple


@dataclass(frozen=True)
class Pow(_Node):
    base: object
    k: int


@dataclass(frozen=True)
class Neg(_Node):
    child: object


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_SYMBOLS = "+-*^()[],/"
_DIGITS = "0123456789"      # ASCII only: str.isdigit also takes '²' and '٣'


def _tokenize(text: str):
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _SYMBOLS:
            toks.append((c, c, i))
            i += 1
            continue
        if c in _DIGITS or (c == "." and i + 1 < n and text[i + 1] in _DIGITS):
            j = i
            seen_dot = False
            while j < n and (text[j] in _DIGITS or (text[j] == "." and not seen_dot)):
                seen_dot = seen_dot or text[j] == "."
                j += 1
            toks.append(("num", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i)
    toks.append(("end", "", n))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    # --- grammar ---

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprSyntaxError(f"trailing input {tok[1]!r}", tok[2])
        return node

    def expr(self):
        children = []
        negate_first = False
        if self.peek()[0] in "+-":
            negate_first = self.next()[0] == "-"
        node = self.term()
        children.append(Neg(node) if negate_first else node)
        while self.peek()[0] in "+-":
            op = self.next()[0]
            node = self.term()
            children.append(Neg(node) if op == "-" else node)
        return children[0] if len(children) == 1 else Add(tuple(children))

    def term(self):
        children = [self.factor()]
        while self.peek()[0] == "*":
            self.next()
            children.append(self.factor())
        return children[0] if len(children) == 1 else Mul(tuple(children))

    def factor(self):
        node = self.base()
        if self.peek()[0] == "^":
            self.next()
            tok = self.expect("num")
            if "." in tok[1]:
                raise ExprSyntaxError("power must be a positive integer", tok[2])
            k = int(tok[1])
            if k < 1:
                raise ExprSyntaxError("power must be >= 1", tok[2])
            node = Pow(node, k)
        return node

    def base(self):
        tok = self.peek()
        if tok[0] == "num":
            self.next()
            return Const(complex(float(tok[1])))
        if tok[0] == "(":
            self.next()
            node = self.expr()
            self.expect(")")
            return node
        if tok[0] == "name":
            return self.call()
        raise ExprSyntaxError(f"unexpected token {tok[1]!r}", tok[2])

    def call(self):
        name_tok = self.next()
        name = name_tok[1]
        if name == "s":
            raise ExprSyntaxError(
                "bare 's' is only valid inside an affine atom argument", name_tok[2]
            )
        if name == "dirichlet":
            return self.dirichlet_body()
        kind = ATOMS.get(name)
        if kind is None:
            raise UnknownFamily(f"unknown function {name!r} at position {name_tok[2]}")
        self.expect("(")
        args = []
        for i, read in enumerate(kind.signature):
            if i:
                self.expect(",")
            args.append(read(self))
        self.expect(")")
        try:
            kind.check(*args)
        except (OutOfRange, ValueError) as exc:
            raise ArityError(f"{name}: {exc}") from None
        return Atom(name, tuple(args))

    def dirichlet_body(self):
        self.expect("[")
        pairs = []
        while True:
            self.expect("(")
            a = self.signed_number()
            self.expect(",")
            lam = self.signed_number()
            self.expect(")")
            pairs.append((complex(a), float(lam)))
            if self.peek()[0] == ",":
                self.next()
                continue
            break
        self.expect("]")
        return DirichletPoly(tuple(pairs))

    def integer(self) -> int:
        tok = self.expect("num")
        if "." in tok[1]:
            raise ExprSyntaxError("expected an integer", tok[2])
        return int(tok[1])

    def over(self, val: Fraction) -> Fraction:
        """val, divided by INT when a '/' follows; the INT must be nonzero."""
        if self.peek()[0] != "/":
            return val
        self.next()
        pos = self.peek()[2]
        den = self.integer()
        if den == 0:
            raise ExprSyntaxError("denominator must be nonzero", pos)
        return val / den

    def signed_number(self) -> float:
        sign = 1.0
        if self.peek()[0] in "+-":
            sign = -1.0 if self.next()[0] == "-" else 1.0
        tok = self.expect("num")
        return sign * float(tok[1])

    def rational(self) -> Fraction:
        sign = 1
        if self.peek()[0] in "+-":
            sign = -1 if self.next()[0] == "-" else 1
        return sign * self.over(Fraction(self.expect("num")[1]))

    def lattice(self) -> str:
        lattice = self.expect("name")[1]
        if lattice != "Ln":
            raise ArityError(f"lattice must be Ln or Ln*, got {lattice!r}")
        if self.peek()[0] == "*":
            self.next()
            lattice = "Ln*"
        return lattice

    def sign(self) -> int:
        tok = self.next()
        if tok[0] in "+-":
            if self.peek()[0] == "num":
                one = self.next()
                if one[1] != "1":
                    raise ExprSyntaxError("sign must be +1 or -1", one[2])
            return -1 if tok[0] == "-" else 1
        if tok[0] == "num" and tok[1] == "1":
            return 1
        raise ExprSyntaxError("expected a sign (+1 or -1)", tok[2])

    def affine(self) -> tuple[Fraction, Fraction]:
        """Parse a rational-linear expression in s up to the next ',' or ')'."""
        alpha = Fraction(0)
        beta = Fraction(0)
        saw_term = False
        while True:
            tok = self.peek()
            if tok[0] in (",", ")", "end"):
                break
            sign = 1
            if tok[0] in "+-":
                self.next()
                sign = -1 if tok[0] == "-" else 1
                tok = self.peek()
            if tok[0] == "name" and tok[1] == "s":
                self.next()
                alpha += sign * self.over(Fraction(1))
            elif tok[0] == "num":
                coef = self.rational()
                if self.peek()[0] == "*":
                    self.next()
                    svar = self.expect("name")
                    if svar[1] != "s":
                        raise ExprSyntaxError("expected 's' after coefficient", svar[2])
                    alpha += sign * coef
                else:
                    beta += sign * coef
            else:
                raise ExprSyntaxError(f"bad affine term {tok[1]!r}", tok[2])
            saw_term = True
        if not saw_term:
            raise ExprSyntaxError("empty affine argument", self.peek()[2])
        if alpha == 0:
            raise ExprSyntaxError("affine argument must involve s", self.peek()[2])
        return alpha, beta


def parse_expr(text: str):
    """Parse expression text into the IR; raises ExprSyntaxError with position."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Printing (round-trips through parse_expr)
# ---------------------------------------------------------------------------

def _fmt_affine(alpha: Fraction, beta: Fraction) -> str:
    if alpha == 1:
        out = "s"
    elif alpha == -1:
        out = "-s"
    else:
        out = f"{alpha}*s"
    if beta > 0:
        out += f"+{beta}"
    elif beta < 0:
        out += f"-{-beta}"
    return out


def _fmt_number(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def to_text(e) -> str:
    """Render the IR back to grammar-conforming text."""
    if isinstance(e, Const):
        return _fmt_number(e.value.real)
    if isinstance(e, DirichletPoly):
        inner = ",".join(f"({_fmt_number(a.real)},{_fmt_number(l)})" for a, l in e.pairs)
        return f"dirichlet[{inner}]"
    if isinstance(e, Atom):
        sig = ATOMS[e.kind].signature
        return f"{e.kind}({','.join(_SHOW.get(r, str)(v) for r, v in zip(sig, e.args))})"
    if isinstance(e, Add):
        parts = []
        for i, c in enumerate(e.children):
            if isinstance(c, Neg):
                parts.append("-" + _paren_if(c.child, (Add,)))
            else:
                parts.append(("+" if i else "") + to_text(c))
        return "".join(parts)
    if isinstance(e, Mul):
        return "*".join(_paren_if(c, (Add, Neg)) for c in e.children)
    if isinstance(e, Pow):
        return _paren_if(e.base, (Add, Mul, Neg)) + f"^{e.k}"
    if isinstance(e, Neg):
        return "-" + _paren_if(e.child, (Add,))
    raise TypeError(f"not an expression node: {e!r}")


def _paren_if(e, kinds: tuple) -> str:
    text = to_text(e)
    return f"({text})" if isinstance(e, kinds) else text


# ---------------------------------------------------------------------------
# Atom registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AtomKind:
    """One atom name: its argument readers, pole candidates, evaluator and
    majorant.

    ``poles``, ``evaluator``, ``bound`` and ``check`` take the node's arguments.
    ``evaluator`` returns a closure (s, cfg) -> (value, abs_err) that takes a
    point (a complex) or a 1-D array of points and runs one kernel body on
    either, so the bits are the same either way; it does not guard poles,
    which _evaluate, the body of eval_expr and eval_batch, does from
    ``poles``.
    The parser runs ``check``, the family's own parameter validator, so that a
    structural parameter out of range is an ArityError at parse time.  The
    closures look up their kernel entry (hurwitz_pair, completed_zeta_pair,
    and families.hurwitz_pair for the family factors) in the module globals
    at call time, so rebinding those names takes effect.  ``bound`` returns
    the atom's pole orders and majorant, as majorant does for an expression.
    """

    signature: tuple[Callable, ...]
    poles: Callable[..., list]
    evaluator: Callable[..., Callable]
    bound: Callable[..., tuple]
    check: Callable[..., object] = lambda *args: None


def _hurwitz_shift(ab, a) -> None:
    if not 0 < a <= 1:
        raise ValueError(f"shift must be in (0, 1], got {a}")


# How each reader's value prints back; str for the rest.
_SHOW = {
    _Parser.affine: lambda ab: _fmt_affine(*ab),
    _Parser.sign: lambda v: "+1" if v > 0 else "-1",
}


def _at_affine(ab, f):
    """Closure s -> f(alpha*s + beta, cfg) with float coefficients fixed once;
    s may be a point or an array of points."""
    alpha, beta = float(ab[0]), float(ab[1])
    return lambda s, cfg: f(alpha * s + beta, cfg)


def _far(sl, sh, tl, th, p):
    """The largest distance from the point p to the box [sl, sh] x [tl, th]."""
    return np.hypot(np.maximum(np.abs(sl - p.real), np.abs(sh - p.real)),
                    np.maximum(np.abs(tl - p.imag), np.abs(th - p.imag)))


def _affine_bound(ab, poles_at, g):
    """Pole orders and majorant of an atom f(alpha*s + beta) whose argument w
    has simple poles at poles_at: g bounds |f(w) * prod (w - p)| over a box of
    w, and prod (s - s_p) = prod (w - p) / alpha^len(poles_at)."""
    alpha, beta = float(ab[0]), float(ab[1])
    orders = {complex(affine_preimage(alpha, beta, p)): 1 for p in poles_at}
    scale = abs(alpha) ** -len(poles_at)

    def bound(sl, sh, tl, th):
        box = (alpha * sl + beta, alpha * sh + beta, alpha * tl, alpha * th)
        return scale * g(*(box if alpha > 0 else (box[1], box[0], box[3], box[2])))
    return orders, bound


def _em_bound(a: float):
    """Box of w -> a bound of |(w - 1) zeta(w, a)| on it."""
    return lambda rl, rh, il, ih: hurwitz_majorant(
        rl, rh, _far(rl, rh, il, ih, 0j), _far(rl, rh, il, ih, 1 + 0j), a)


def _xi_bound(rl, rh, il, ih):
    """|w (w-1) pi^{-w/2} Gamma(w/2) zeta(w)| = 2 |pi^{-w/2}| |Gamma(w/2 + 1)|
    |(w-1) zeta(w)|, bounded factor by factor on the box of w."""
    gamma = gamma_majorant(0.5 * rl + 1.0, 0.5 * rh + 1.0, 0.5 * il, 0.5 * ih)
    return 2.0 * math.pi ** (-0.5 * rl) * gamma * _em_bound(1.0)(rl, rh, il, ih)


def _poly_tree(poly):
    """A ZetaPoly's live terms as a tree of hurwitz atoms, whose majorant is
    the family atom's: scale * 2^{exp2*s} is the Dirichlet term
    scale * exp(-(-exp2 log 2) s)."""
    terms = Add(tuple(Mul((Const(complex(c)), *(Atom("hurwitz", ((alpha, beta), a))
                                                for alpha, beta, a in fs)))
                      for c, fs in poly.terms if c != 0))
    return Mul((DirichletPoly(((complex(poly.scale), -poly.exp2 * math.log(2.0)),)), terms))


def _family(poly) -> dict:
    """Pole candidates, evaluator and majorant of a family atom from its
    ZetaPoly, which poly builds from the atom's arguments."""
    return dict(poles=lambda *p: [loc for loc, _ in poly(*p).poles],
                evaluator=lambda *p: poly(*p).pair,
                bound=lambda *p: majorant(_poly_tree(poly(*p))))


def _affine(poles_at, g) -> dict:
    """Pole candidates and majorant of an atom at alpha*s + beta whose argument
    has simple poles at poles_at; g takes the atom's other arguments and
    returns the bound _affine_bound takes."""
    return dict(poles=lambda ab, *p: [affine_preimage(*ab, w) for w in poles_at],
                bound=lambda ab, *p: _affine_bound(ab, poles_at, g(*p)))


ATOMS: dict[str, AtomKind] = {
    "zeta": AtomKind(
        (_Parser.affine,),
        evaluator=lambda ab: _at_affine(ab, lambda z, cfg: hurwitz_pair(z, 1.0, cfg)),
        **_affine((1.0,), lambda: _em_bound(1.0))),
    "hurwitz": AtomKind(
        (_Parser.affine, _Parser.rational),
        evaluator=lambda ab, a: _at_affine(
            ab, lambda z, cfg, a=float(a): hurwitz_pair(z, a, cfg)),
        check=_hurwitz_shift, **_affine((1.0,), lambda a: _em_bound(float(a)))),
    "xi": AtomKind(
        (_Parser.affine,),
        evaluator=lambda ab: _at_affine(ab, lambda z, cfg: completed_zeta_pair(z, cfg)),
        # Gamma-side pole where the argument is 0, next to zeta's at 1
        **_affine((1.0, 0.0), lambda: _xi_bound)),
    "ezd": AtomKind(
        (_Parser.integer,), check=hoffman_diagonal_coeffs, **_family(ezd_poly)),
    "barnes": AtomKind(
        (_Parser.integer, _Parser.rational), check=lambda r, a: BarnesParams(r, float(a)),
        **_family(lambda r, a: barnes_poly(r, float(a)))),
    "sphere": AtomKind(
        (_Parser.integer,), check=sphere_mult_poly, **_family(sphere_poly)),
    "symmat": AtomKind(
        (_Parser.integer, _Parser.lattice, _Parser.sign, _Parser.sign), check=SymMatrixParams,
        **_family(lambda *p: symmat_poly(SymMatrixParams(*p)))),
}


# ---------------------------------------------------------------------------
# Pole bookkeeping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PoleCandidate:
    location: complex
    source: str


def _collect_poles(e, path: str, out: list):
    if isinstance(e, Atom):
        source = f"{path}:{to_text(e)}"
        out.extend(PoleCandidate(complex(loc), source) for loc in ATOMS[e.kind].poles(*e.args))
    elif isinstance(e, Add):
        for i, c in enumerate(e.children):
            _collect_poles(c, f"{path}.Add[{i}]", out)
    elif isinstance(e, Mul):
        for i, c in enumerate(e.children):
            _collect_poles(c, f"{path}.Mul[{i}]", out)
    elif isinstance(e, Pow):
        _collect_poles(e.base, f"{path}.Pow", out)
    elif isinstance(e, Neg):
        _collect_poles(e.child, f"{path}.Neg", out)
    # Const / DirichletPoly: entire, nothing to record


def pole_set(e) -> tuple[PoleCandidate, ...]:
    """Complete, conservative pole-candidate list (never auto-cancelled)."""
    out: list[PoleCandidate] = []
    _collect_poles(e, "", out)
    unique = list(dict.fromkeys(out))
    unique.sort(key=lambda c: (c.location.real, c.location.imag, c.source))
    return tuple(unique)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _compile(e):
    """Closure (s, cfg) -> (value, abs_err) evaluating the subtree e at the
    point s, or at every point of the 1-D array s.  Nodes combine values and
    errors through the err_* propagation rules, which round on arrays as on
    a complex; atoms evaluate through their registry evaluators."""
    if isinstance(e, Const):
        return lambda s, cfg: (e.value, 0.0)
    if isinstance(e, DirichletPoly):
        def dirichlet(s, cfg):
            exp = np.exp if isinstance(s, np.ndarray) else cmath.exp
            val = 0j
            mass = 0.0
            for a, lam in e.pairs:
                term = a * exp(-lam * s)
                val = val + term
                mass = mass + cabs(term)
            return val, 4e-16 * mass
        return dirichlet
    if isinstance(e, Atom):
        return ATOMS[e.kind].evaluator(*e.args)
    if isinstance(e, Add):
        terms = [_compile(c) for c in e.children]
        return lambda s, cfg: err_add(f(s, cfg) for f in terms)
    if isinstance(e, Mul):
        first, *rest = [_compile(c) for c in e.children]

        def mul(s, cfg):
            z, err = first(s, cfg)
            for f in rest:
                z, err = err_mul(z, err, *f(s, cfg))
            return z, err
        return mul
    if isinstance(e, Pow):
        base, k = _compile(e.base), e.k
        return lambda s, cfg: err_pow(*base(s, cfg), k)
    if isinstance(e, Neg):
        child = _compile(e.child)

        def neg(s, cfg):
            v, ev = child(s, cfg)
            return -v, ev
        return neg
    raise TypeError(f"not an expression node: {e!r}")


def majorant(e):
    """(orders, bound) of the expression e, for the zero engine's segment
    test, which builds it once per scan (evaluation does no work for it):
    orders maps each pole candidate p to an order k, and bound(sl, sh, tl,
    th) bounds |e(s) * prod (s - p)^k|, a function without poles, over the
    box [sl, sh] x [tl, th] (floats or arrays of boxes).  Const gives |c|
    and DirichletPoly sum |a| e^{-l sigma} at the worse sigma; an atom gives
    its registry bound.  Neg keeps its child's; Mul adds orders and
    multiplies bounds; Pow multiplies both by k; Add takes each candidate's
    largest order and sums its children's bounds, each times the largest
    |s - p| on the box to the orders its child lacks."""
    if isinstance(e, (Const, DirichletPoly)):
        pairs = [(abs(a), lam)
                 for a, lam in ([(e.value, 0.0)] if isinstance(e, Const) else e.pairs)]
        return {}, lambda sl, sh, tl, th: sum(c * np.exp(-lam * (sl if lam > 0 else sh))
                                              for c, lam in pairs)
    if isinstance(e, Atom):
        return ATOMS[e.kind].bound(*e.args)
    if isinstance(e, Neg):
        return majorant(e.child)
    if isinstance(e, Pow):
        (orders, base), k = majorant(e.base), e.k
        return {p: n * k for p, n in orders.items()}, lambda *box: base(*box) ** k
    kids = [majorant(c) for c in e.children]
    orders: dict = {}
    for sub, _ in kids:
        for p, n in sub.items():
            orders[p] = orders.get(p, 0) + n if isinstance(e, Mul) else max(orders.get(p, 0), n)
    if isinstance(e, Mul):
        return orders, lambda *box: math.prod(b(*box) for _, b in kids)

    return orders, lambda *box: sum(
        b(*box) * math.prod(_far(*box, p) ** (n - sub.get(p, 0))
                            for p, n in orders.items() if n > sub.get(p, 0)) for sub, b in kids)


def _evaluate(e, s, cfg: EvalConfig) -> tuple:
    """(value, abs_err) of e at a point s (a complex) or at every point of a
    1-D array s, in the Hurwitz kernel's shape: the pole guard, which raises
    PoleProximity for the first point within POLE_GUARD of a candidate (its
    first such candidate), then the compiled closure.  The guard takes its
    moduli by config.cabs, so a point and an array decide alike; a NaN point
    is no hit and goes on to the closure."""
    if not isinstance(e, _Node):
        raise TypeError(f"not an expression node: {e!r}")
    guard, fn = e._plan
    hit = False
    for location, _ in guard:
        hit = hit | (cabs(s - location) < POLE_GUARD)
    if hit.any() if isinstance(hit, np.ndarray) else hit:
        z = complex(np.ravel(s)[np.argmax(hit)])
        location, source = next(c for c in guard if cabs(z - c[0]) < POLE_GUARD)
        raise PoleProximity(f"s={z:.6g} within pole_guard of candidate {location:.6g} "
                            f"from {source}", location=location, source=source)
    return fn(s, cfg)


def eval_expr(e, s: complex, cfg: EvalConfig = DEFAULT_CONFIG) -> ComplexValue:
    """Evaluate with first-order error propagation; guards every pole candidate."""
    return ComplexValue.of(*_evaluate(e, complex(s), cfg))


def eval_batch(e, zs, cfg: EvalConfig = DEFAULT_CONFIG) -> tuple[np.ndarray, np.ndarray]:
    """eval_expr at every point of the 1-D sequence zs: (values, abs_errs).

    The same body runs on the array as eval_expr runs on a point, the pole
    guard and the closure alike, and its arithmetic rounds on arrays as on a
    complex, so each value and abs_err, and each guard decision, equals
    eval_expr's bit for bit.  Values do not depend on the order of zs or on
    how a list of points is split into batches.  The array runs with numpy
    overflow and invalid operations raising.  When evaluation fails there,
    at the guard, in an atom or in an overflow, or a point's abs_err is not
    finite, eval_batch raises what eval_expr raises at the first point where
    it fails (ValueError for a non-finite abs_err).
    """
    s = np.asarray(zs, dtype=complex)
    if s.ndim != 1:
        raise ValueError(f"eval_batch takes a 1-D sequence of points, got shape {s.shape}")
    try:
        with np.errstate(over="raise", invalid="raise"):
            values, errs = (np.array(np.broadcast_to(x, s.shape)) for x in _evaluate(e, s, cfg))
        if not np.isfinite(errs).all():
            raise ValueError("abs_err must be finite")
    except (ZetaError, ArithmeticError, ValueError):
        for z in s.tolist():        # what eval_expr raises at the first failing point
            eval_expr(e, z, cfg)
        raise
    return values, errs
