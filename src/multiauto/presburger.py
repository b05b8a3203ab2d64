"""Presburger arithmetic over the naturals: terms, formulas, Cooper
elimination, periodic sets.

Formulas are immutable trees over variables that range over the naturals:
a free variable is read at natural values only, and both quantifiers range
over the naturals.  The atoms are ``t <= 0``, ``t = 0`` and ``d | t`` for a
linear term ``t``; everything else is built with the boolean connectives
and the two quantifiers.

The smart constructors fold what no natural satisfies: :func:`le` and
:func:`eq` return ``FALSE`` for an atom whose constant and variable
coefficients are all positive, since its term is positive at every natural
point.  They never fold an atom to ``TRUE`` on the same grounds: ``v >= 0``,
true at every natural point, is the relativization that Cooper's integer
core below needs, and must stay an atom.  So a formula means what its
constructor calls say at natural points only, and :func:`substitute` is
exact where every image is a natural.  Elimination loses nothing by the
fold: Cooper's core is exact over the integers for the formula it is
given, that formula holds ``v >= 0``, and every result is read at natural
points only.

:func:`eliminate` works bottom-up, one quantifier ``Q v. body`` at a time,
in this order:

1. simplify ``body`` under context (:func:`simplify` pushes each
   conjunction's bounds into its nested arguments), so a branch that its
   context contradicts becomes ``false`` before anything below it is
   eliminated;
2. eliminate the quantifiers inside ``body``, then simplify again;
3. relativize to the naturals (``v >= 0``) and, for ``forall``, negate;
   put the result in negation normal form;
4. for ``exists v``: split a disjunction into one elimination per
   disjunct, and pull the conjuncts free of ``v`` out of a conjunction;
5. with a conjunct ``a*v = t``, substitute ``t/a`` for ``v`` (the
   equality shortcut, which removes most variables the builders introduce);
6. otherwise distribute over the smallest disjunctive conjunct that
   mentions ``v`` and eliminate each arm;
7. otherwise apply Cooper's method (divisibility atoms, no DNF expansion):
   one ``_rewrite`` gives every atom on ``v`` a unit coefficient and turns
   an equality on ``v`` into two bounds, one walk lists the bounds and
   moduli, the projection to infinity is built once, and a constant
   witness that a conjunct on the new variable alone rules out is never
   substituted, since :func:`substitute` would return ``false`` for it.

The quantifier-free result is simplified once more.

One-free-variable formulas over the naturals are lowered to a canonical
:class:`UltimatelyPeriodicSet`.

Every node computes at construction, and keeps, its hash (``_h``), its free
variables (``fv``), its node count (``size``, what :func:`node_count`
returns), whether no quantifier occurs below it (``qf``) and whether it is
already in negation normal form (``nnf``).  The elimination loop leans on
them: a quantifier-free argument of :func:`eliminate` comes back as it is,
and NNF conversion returns a normal node without rebuilding it.  ``Le`` and
``Eq`` atoms also keep the coefficient key of their negated term (``nkey``),
which :func:`simplify` looks up for every bound it tests, at the cost of
one more tuple per atom.

Every pass that rebuilds a formula with some atoms replaced is one call of
``_rewrite``: a subtree that mentions none of the variables concerned comes
back as the same object, the connectives above the others are rebuilt with
the smart constructors, and each atom or quantifier below them goes to a
leaf function.  :func:`substitute` is ``_rewrite`` with a leaf that rebuilds
each atom once, from its fully substituted term, so all variables of the
mapping are replaced simultaneously and an image is never substituted into
again.  It avoids capture: a quantifier whose variable is free in an image
that reaches its body is renamed to the first of ``w_1``, ``w_2``, ... free
in neither, a name chosen locally rather than from a global counter.  The
equality shortcut, Cooper's atom pass and the projection to infinity of
:func:`eliminate` are ``_rewrite`` calls with leaves of their own.

One outermost :func:`eliminate` call computes each elimination of a
quantified subformula, each ``exists v`` step of Cooper's method and each
:func:`simplify` of a subformula under the bounds it can read once, in
memo tables the call creates and passes down.  The tables live exactly as
long as that call (a raised :class:`BudgetExceeded` drops them too);
nothing is cached across calls, so a result never depends on what ran
earlier in the process.  The formula
builders of :mod:`multiauto.construction` follow the same pattern one level
up: their memo tables live in a ``construction.Scope`` object, one per
extraction, that each memoized builder takes as an argument, and their
bound variables have fixed names, so what they build depends on their
arguments alone.
"""

from __future__ import annotations

import math
import os
from functools import reduce

__all__ = [
    "Term",
    "Formula",
    "TRUE",
    "FALSE",
    "Le",
    "Eq",
    "Dvd",
    "Not",
    "And",
    "Or",
    "Exists",
    "Forall",
    "var",
    "le",
    "ge",
    "eq",
    "dvd",
    "lnot",
    "land",
    "lor",
    "exists",
    "forall",
    "free_vars",
    "node_count",
    "substitute",
    "evaluate",
    "eliminate",
    "qe_budget",
    "solution_set",
    "satisfiable",
    "UltimatelyPeriodicSet",
    "to_sexpr",
    "UnboundVariable",
    "BudgetExceeded",
]


class UnboundVariable(Exception):
    """A free variable of the formula has no assignment."""


class BudgetExceeded(Exception):
    """Quantifier elimination grew past the configured node budget."""

    def __init__(self, stage: str, size: int, budget: int):
        super().__init__(f"{stage}: formula size {size} exceeds budget {budget}")
        self.stage = stage


DEFAULT_BUDGET = 10**6


EMPTY = frozenset()


# ---------------------------------------------------------------------------
# Terms


class Term:
    """Linear term ``const + sum(coef * var)``; zero coefficients are dropped."""

    __slots__ = ("const", "coeffs", "_h")

    def __init__(self, const: int = 0, coeffs: tuple = ()):
        self.const = const
        self.coeffs = coeffs
        self._h = hash((const, coeffs))

    @staticmethod
    def make(const: int, coeffs: dict) -> "Term":
        return Term(const, tuple(sorted((v, c) for v, c in coeffs.items() if c != 0)))

    def __hash__(self):
        return self._h

    def __eq__(self, other):
        return (
            isinstance(other, Term)
            and self._h == other._h
            and self.const == other.const
            and self.coeffs == other.coeffs
        )

    def coeff(self, v: str) -> int:
        for name, c in self.coeffs:
            if name == v:
                return c
        return 0

    def drop(self, v: str) -> "Term":
        return Term(self.const, tuple(p for p in self.coeffs if p[0] != v))

    def __add__(self, other):
        if type(other) is int:
            return Term(self.const + other, self.coeffs)
        other = _as_term(other)
        if not other.coeffs:
            return Term(self.const + other.const, self.coeffs)
        if not self.coeffs:
            return Term(self.const + other.const, other.coeffs)
        acc = dict(self.coeffs)
        for v, c in other.coeffs:
            acc[v] = acc.get(v, 0) + c
        return Term.make(self.const + other.const, acc)

    def __sub__(self, other):
        if type(other) is int:
            return Term(self.const - other, self.coeffs)
        other = _as_term(other)
        acc = dict(self.coeffs)
        for v, c in other.coeffs:
            acc[v] = acc.get(v, 0) - c
        return Term.make(self.const - other.const, acc)

    def __mul__(self, k: int):
        if k == 0:
            return Term(0)
        if k == 1:
            return self
        return Term(self.const * k, tuple((v, c * k) for v, c in self.coeffs))

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def eval(self, asg: dict) -> int:
        total = self.const
        for v, c in self.coeffs:
            if v not in asg:
                raise UnboundVariable(v)
            total += c * asg[v]
        return total

    def subst(self, mapping: dict) -> "Term":
        """Replace every variable that ``mapping`` names by its term, at once."""
        const = self.const
        kept = []
        for p in self.coeffs:
            t = mapping.get(p[0])
            if t is None:
                kept.append(p)
            elif t.coeffs:
                break
            else:
                const += p[1] * t.const
        else:
            # No image has a variable: the unmapped pairs stay sorted.
            return self if len(kept) == len(self.coeffs) else Term(const, tuple(kept))
        const = self.const
        acc: dict = {}
        for v, c in self.coeffs:
            t = mapping.get(v)
            if t is None:
                acc[v] = acc.get(v, 0) + c
                continue
            const += c * t.const
            for w, d in t.coeffs:
                acc[w] = acc.get(w, 0) + c * d
        return Term.make(const, acc)

    def __str__(self):
        parts = []
        for v, c in self.coeffs:
            parts.append(v if c == 1 else f"(* {c} {v})")
        if self.const != 0 or not parts:
            parts.append(str(self.const))
        if len(parts) == 1:
            return parts[0]
        return "(+ " + " ".join(parts) + ")"

    def __repr__(self):
        return f"Term({self})"


def _as_term(x) -> Term:
    if isinstance(x, Term):
        return x
    if isinstance(x, int):
        return Term(x)
    raise TypeError(f"not a term: {x!r}")


def var(name: str) -> Term:
    return Term(0, ((name, 1),))


# ---------------------------------------------------------------------------
# Formula nodes


class Formula:
    """Base of all formula nodes; see the module docstring for what each caches."""

    __slots__ = ("fv", "_h")

    def __hash__(self):
        return self._h

    def __repr__(self):
        return to_sexpr(self)


class _Leaf(Formula):
    """Constants and atoms: one node, quantifier-free, in NNF."""

    __slots__ = ()
    size = 1
    qf = nnf = True


class _Const(_Leaf):
    """``true`` or ``false``: the two instances below, each equal only to itself."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self.fv = EMPTY
        self._h = hash(name)

    def __eq__(self, other):
        return other is self

    __hash__ = Formula.__hash__


TRUE = _Const("true")
FALSE = _Const("false")


def _neg_coeffs(coeffs: tuple) -> tuple:
    return tuple([(v, -c) for v, c in coeffs])


class Le(_Leaf):
    """``t <= 0``; ``nkey`` holds the coefficients of ``-t``."""

    __slots__ = ("t", "nkey")

    def __init__(self, t: Term):
        self.t = t
        self.nkey = _neg_coeffs(t.coeffs)
        self.fv = frozenset(v for v, _ in t.coeffs)
        self._h = hash(("le", t._h))

    def __eq__(self, other):
        return type(other) is Le and self._h == other._h and self.t == other.t

    __hash__ = Formula.__hash__


class Eq(_Leaf):
    """``t = 0``; ``nkey`` holds the coefficients of ``-t``."""

    __slots__ = ("t", "nkey")

    def __init__(self, t: Term):
        self.t = t
        self.nkey = _neg_coeffs(t.coeffs)
        self.fv = frozenset(v for v, _ in t.coeffs)
        self._h = hash(("eq", t._h))

    def __eq__(self, other):
        return type(other) is Eq and self._h == other._h and self.t == other.t

    __hash__ = Formula.__hash__


class Dvd(_Leaf):
    """``d | t`` with modulus ``d >= 2``."""

    __slots__ = ("d", "t")

    def __init__(self, d: int, t: Term):
        self.d = d
        self.t = t
        self.fv = frozenset(v for v, _ in t.coeffs)
        self._h = hash(("dvd", d, t._h))

    def __eq__(self, other):
        return (
            type(other) is Dvd
            and self._h == other._h
            and self.d == other.d
            and self.t == other.t
        )

    __hash__ = Formula.__hash__


class Not(Formula):
    __slots__ = ("f", "size", "qf", "nnf")

    def __init__(self, f: Formula):
        self.f = f
        self.fv = f.fv
        self._h = hash(("not", f._h))
        self.size = 1 + f.size
        self.qf = f.qf
        # Only a negated divisibility has no positive equivalent atom.
        self.nnf = type(f) is Dvd

    def __eq__(self, other):
        return type(other) is Not and self._h == other._h and self.f == other.f

    __hash__ = Formula.__hash__


class _Junction(Formula):
    """And/Or node; built only by ``land``/``lor``, whose normal form makes an
    n-ary junction of NNF arguments NNF itself."""

    __slots__ = ("args", "size", "qf", "nnf")
    _tag = ""

    def __init__(self, args: tuple):
        self.args = args
        size = 1
        qf = nnf = True
        for a in args:
            size += a.size
            qf = qf and a.qf
            nnf = nnf and a.nnf
        self.fv = EMPTY.union(*[a.fv for a in args])
        self._h = hash((self._tag, tuple([a._h for a in args])))
        self.size = size
        self.qf = qf
        self.nnf = nnf

    def __eq__(self, other):
        return (
            type(other) is type(self) and self._h == other._h and self.args == other.args
        )

    __hash__ = Formula.__hash__


class And(_Junction):
    __slots__ = ()
    _tag = "and"


class Or(_Junction):
    __slots__ = ()
    _tag = "or"


class _Quant(Formula):
    __slots__ = ("v", "f", "size", "qf", "nnf")
    _tag = ""

    def __init__(self, v: str, f: Formula):
        self.v = v
        self.f = f
        self.fv = f.fv - {v}
        self._h = hash((self._tag, v, f._h))
        self.size = 1 + f.size
        self.qf = self.nnf = False

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self._h == other._h
            and self.v == other.v
            and self.f == other.f
        )

    __hash__ = Formula.__hash__


class Exists(_Quant):
    __slots__ = ()
    _tag = "exists"


class Forall(_Quant):
    __slots__ = ()
    _tag = "forall"


def free_vars(f: Formula) -> frozenset:
    return f.fv


# ---------------------------------------------------------------------------
# Smart constructors (light normalization, constant folding)


def le(t, rhs=None) -> Formula:
    """``t <= 0``, or ``t <= rhs`` when ``rhs`` is given; ``FALSE`` when no
    natural satisfies it."""
    t = _as_term(t)
    if rhs is not None:
        t = t - _as_term(rhs)
    # A positive constant plus positive coefficients is positive at every
    # natural point (the constant is tested first: it is rarely positive).
    if t.const > 0 and all(c > 0 for _, c in t.coeffs):
        return FALSE
    if not t.coeffs:
        return TRUE
    g = reduce(math.gcd, (abs(c) for _, c in t.coeffs))
    if g > 1:
        # g*s + c <= 0  <=>  s <= floor(-c/g)
        t = Term(-((-t.const) // g), tuple((v, c // g) for v, c in t.coeffs))
    return Le(t)


def ge(t, rhs=0) -> Formula:
    return le(_as_term(rhs) - _as_term(t))


def eq(t, rhs=None) -> Formula:
    """``t = 0``, or ``t = rhs`` when ``rhs`` is given; ``FALSE`` when no
    natural satisfies it."""
    t = _as_term(t)
    if rhs is not None:
        t = t - _as_term(rhs)
    if not t.coeffs:
        return TRUE if t.const == 0 else FALSE
    g = reduce(math.gcd, (abs(c) for _, c in t.coeffs))
    if t.const % g != 0:
        return FALSE
    if g > 1:
        t = Term(t.const // g, tuple((v, c // g) for v, c in t.coeffs))
    if t.coeffs[0][1] < 0:
        t = -t
    # As in le, with the sign of t fixed by its first coefficient.
    if t.const > 0 and all(c > 0 for _, c in t.coeffs):
        return FALSE
    return Eq(t)


def dvd(d: int, t) -> Formula:
    t = _as_term(t)
    d = abs(d)
    if d == 0:
        return eq(t)
    t = Term.make(t.const % d, {v: c % d for v, c in t.coeffs})
    if not t.coeffs:
        return TRUE if t.const % d == 0 else FALSE
    g = reduce(math.gcd, [d, t.const] + [c for _, c in t.coeffs])
    if g > 1:
        d //= g
        t = Term(t.const // g, tuple((v, c // g) for v, c in t.coeffs))
    if d == 1:
        return TRUE
    return Dvd(d, t)


def lnot(f: Formula) -> Formula:
    if f is TRUE:
        return FALSE
    if f is FALSE:
        return TRUE
    if isinstance(f, Not):
        return f.f
    return Not(f)


def _flatten(fs, absorb, dual, node_type):
    """The distinct arguments of a junction, nested lists and same-type
    junctions spliced in: (dual, None, False) when ``dual`` occurs, else
    (None, args, shared), where ``shared`` says whether two ``Le``
    arguments have the same coefficients (so one subsumes the other)."""
    args = []
    seen = set()
    keys = set()
    shared = False
    stack = list(fs)
    stack.reverse()
    while stack:
        f = stack.pop()
        t = type(f)
        if t is list or t is tuple:
            stack.extend(reversed(f))
            continue
        if f is absorb:
            continue
        if f is dual:
            return dual, None, False
        if t is node_type:
            stack.extend(reversed(f.args))
            continue
        if f not in seen:
            seen.add(f)
            args.append(f)
            if t is Le:
                k = f.t.coeffs
                if k in keys:
                    shared = True
                keys.add(k)
    return None, args, shared


def _subsume_bounds(args, keep_max):
    """Keep only the strongest (And) or weakest (Or) bound per direction."""
    best: dict = {}
    for a in args:
        if isinstance(a, Le):
            k = a.t.coeffs
            if k not in best or (
                (a.t.const > best[k]) if keep_max else (a.t.const < best[k])
            ):
                best[k] = a.t.const
    out, done = [], set()
    for a in args:
        if isinstance(a, Le):
            k = a.t.coeffs
            if k in done:
                continue
            done.add(k)
            out.append(Le(Term(best[k], k)))
        else:
            out.append(a)
    return out


def land(*fs) -> Formula:
    bail, args, shared = _flatten(fs, TRUE, FALSE, And)
    if bail is not None:
        return bail
    if shared:
        args = _subsume_bounds(args, keep_max=True)
    if not args:
        return TRUE
    if len(args) == 1:
        return args[0]
    return And(tuple(args))


def lor(*fs) -> Formula:
    bail, args, shared = _flatten(fs, FALSE, TRUE, Or)
    if bail is not None:
        return bail
    if shared:
        args = _subsume_bounds(args, keep_max=False)
    if not args:
        return FALSE
    if len(args) == 1:
        return args[0]
    return Or(tuple(args))


def _quantify(node, v, f: Formula) -> Formula:
    """``node`` (Exists or Forall) over ``v``, or over each name of a list
    ``v``, the first outermost; a variable not free in ``f`` binds nothing."""
    if isinstance(v, (list, tuple)):
        for name in reversed(v):
            f = _quantify(node, name, f)
        return f
    if v not in f.fv:
        return f
    return node(v, f)


def exists(v, f: Formula) -> Formula:
    return _quantify(Exists, v, f)


def forall(v, f: Formula) -> Formula:
    return _quantify(Forall, v, f)


def node_count(f: Formula) -> int:
    return f.size


def substitute(f: Formula, mapping: dict) -> Formula:
    """Replace the free occurrences of every key of ``mapping`` by its term.

    All keys are replaced at once, in one pass: an image is never substituted
    into again, so ``{x: y, y: x}`` swaps.  A quantifier drops its variable
    from the mapping; when that variable is free in an image that reaches
    its body, it is renamed to the first of ``w_1``, ``w_2``, ... free in
    neither.  The result agrees with ``f`` at every point where each image
    is a natural: ``f`` was built with every atom that no natural satisfies
    folded to ``FALSE``, and such an atom may hold at a negative value.
    """
    active = {v: t for v, t in mapping.items() if t != var(v)}
    if not active:
        return f
    return _subst(f, active)


def _rewrite(f: Formula, leaf, names) -> Formula:
    """``f`` with each atom or quantifier ``g`` that mentions one of ``names``
    replaced by ``leaf(g)``.  The connectives above them are rebuilt with
    ``lnot``/``land``/``lor``; a subtree free in none of ``names`` comes
    back as the same object.  What it skips: a conjunction stops at the
    first argument that rewrites to ``FALSE`` and a disjunction at the first
    that rewrites to ``TRUE``, which is what ``land``/``lor`` would return,
    so the arguments after it are never handed to ``leaf``."""
    if f.fv.isdisjoint(names):
        return f
    t = type(f)
    if t is Not:
        return lnot(_rewrite(f.f, leaf, names))
    if t is And or t is Or:
        stop = FALSE if t is And else TRUE
        args = []
        for a in f.args:
            g = _rewrite(a, leaf, names)
            if g is stop:
                return stop
            args.append(g)
        return land(*args) if stop is FALSE else lor(*args)
    return leaf(f)


def _atom(a: Formula, t: Term, scale: int = 1) -> Formula:
    """An atom of ``a``'s kind over ``t``; a divisibility's modulus is
    multiplied by ``scale``."""
    if isinstance(a, Le):
        return le(t)
    if isinstance(a, Eq):
        return eq(t)
    return dvd(a.d * scale, t)


def _subst(f: Formula, mapping: dict) -> Formula:
    def leaf(g):
        if not isinstance(g, _Quant):
            return _atom(g, g.t.subst(mapping))
        v, body = g.v, g.f
        inner = {w: t for w, t in mapping.items() if w != v and w in body.fv}
        if any(t.coeff(v) for t in inner.values()):
            # v would capture an image variable: rename it to the first w_i
            # that is free in neither the body nor an image, as _cooper_one
            # names its auxiliary variable (no global counter).
            taken = set(body.fv)
            for t in inner.values():
                taken.update(w for w, _ in t.coeffs)
            i = 1
            while f"w_{i}" in taken:
                i += 1
            inner[v] = var(f"w_{i}")
            v = f"w_{i}"
        return _quantify(type(g), v, _subst(body, inner))

    return _rewrite(f, leaf, mapping)


# ---------------------------------------------------------------------------
# Evaluation (bounded quantifiers: the differential-testing oracle)


def evaluate(f: Formula, asg: dict, domain_bound: int = 64) -> bool:
    """Truth value of ``f``; quantifiers range over the naturals [0, domain_bound].

    Exact whenever ``f`` is quantifier-free, or when every quantified
    variable is explicitly bounded by at most ``domain_bound``.
    """
    if f is TRUE:
        return True
    if f is FALSE:
        return False
    if isinstance(f, Le):
        return f.t.eval(asg) <= 0
    if isinstance(f, Eq):
        return f.t.eval(asg) == 0
    if isinstance(f, Dvd):
        return f.t.eval(asg) % f.d == 0
    if isinstance(f, Not):
        return not evaluate(f.f, asg, domain_bound)
    if isinstance(f, And):
        return all(evaluate(a, asg, domain_bound) for a in f.args)
    if isinstance(f, Or):
        return any(evaluate(a, asg, domain_bound) for a in f.args)
    if isinstance(f, _Quant):
        # Exists stops at the first witness, Forall at the first counterexample.
        stop = isinstance(f, Exists)
        inner = dict(asg)
        for x in range(0, domain_bound + 1):
            inner[f.v] = x
            if evaluate(f.f, inner, domain_bound) == stop:
                return stop
        return not stop
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Quantifier elimination


def _nnf(f: Formula, neg: bool) -> Formula:
    if f.nnf and not neg:
        return f
    if f is TRUE:
        return FALSE if neg else TRUE
    if f is FALSE:
        return TRUE if neg else FALSE
    if isinstance(f, Le):
        # not(t <= 0)  <=>  -t + 1 <= 0
        return le(-f.t + Term(1)) if neg else f
    if isinstance(f, Eq):
        if neg:
            return lor(le(f.t + Term(1)), le(-f.t + Term(1)))
        return f
    if isinstance(f, Dvd):
        return Not(f) if neg else f
    if isinstance(f, Not):
        return _nnf(f.f, not neg)
    if isinstance(f, And):
        parts = [_nnf(a, neg) for a in f.args]
        return lor(*parts) if neg else land(*parts)
    if isinstance(f, Or):
        parts = [_nnf(a, neg) for a in f.args]
        return land(*parts) if neg else lor(*parts)
    raise ValueError("nnf expects a quantifier-free formula")


def _lcm(a: int, b: int) -> int:
    return abs(a * b) // math.gcd(a, b)


def _eq_conjunct(f: Formula, v: str):
    conj = f.args if isinstance(f, And) else (f,)
    for a in conj:
        if isinstance(a, Eq) and a.t.coeff(v) != 0:
            return a
    return None


def _subst_eq(f: Formula, v: str, a: int, rest: Term) -> Formula:
    """Eliminate ``exists v`` from quantifier-free ``f`` given a conjunct
    ``a*v = rest`` with ``a > 0``: each atom is scaled by ``a``, so ``a*v``
    becomes ``rest``."""

    def leaf(g):
        return _atom(g, g.t.drop(v) * a + rest * g.t.coeff(v), a)

    return land(dvd(a, rest), _rewrite(f, leaf, (v,)))


def _atoms_on(f: Formula, v: str, out: list) -> None:
    if v not in f.fv:
        return
    t = type(f)
    if t is Le or t is Eq or t is Dvd:
        out.append(f)
    elif t is Not:
        _atoms_on(f.f, v, out)
    elif t is And or t is Or:
        for a in f.args:
            _atoms_on(a, v, out)


def _cooper_one(v: str, f: Formula, budget: int) -> Formula:
    """Eliminate ``exists v`` from quantifier-free NNF ``f`` (Cooper's method).

    Computed once per step, in this order:

    - m, the lcm of v's coefficients, from one walk of ``f``;
    - the body: one ``_rewrite`` scales every atom on v so that v occurs as
      ``m*v``, renamed ``u``, so ``c*v + r`` becomes ``+-u + (m/|c|)*r``
      (a divisibility's modulus times m/|c|), and an equality on v becomes
      the two bounds ``t <= 0`` and ``-t <= 0`` of its scaled term ``t``;
      the result is conjoined with ``m | u``;
    - from one walk of the body, its bounds on u, in order and with their
      multiplicity, and delta, the lcm of its moduli on u; the side with
      fewer bounds gives the witnesses;
    - the projection of the body to that side's infinity (``_at_inf``),
      and for it and for the body the top-level atoms on u alone.

    The disjuncts are the projection at u = -+j and the body at u = b -+ j,
    for j in [0, delta) and each bound b of the chosen side, in that order.
    Two kinds of witness are skipped, and neither changes the disjunction:
    a projection that is already ``false``, and a constant witness w at
    which an atom on u alone (``m | u``, a constant bound, a constant
    congruence) is false, which integer arithmetic decides.  Substituting
    w folds that closed atom to ``false`` exactly, and ``_rewrite``
    returns ``false`` for a conjunction with a ``false`` argument, so
    :func:`substitute` would return ``false``, which is never a disjunct.
    A witness whose term has a variable is always built.
    """
    if v not in f.fv:
        return f
    atoms: list = []
    _atoms_on(f, v, atoms)
    m = 1
    for a in atoms:
        c = a.t.coeff(v)
        if c != 0:
            m = _lcm(m, c)

    # The auxiliary variable never leaves this call: any name not free in f.
    u, i = "_c", 0
    while u in f.fv:
        i += 1
        u = f"_c{i}"

    def unit(a):
        c = a.t.coeff(v)
        if c == 0:
            return a
        k = m // abs(c)
        coeffs = [(w, d * k) for w, d in a.t.coeffs if w != v]
        coeffs.append((u, 1 if c > 0 else -1))
        coeffs.sort()
        t = Term(a.t.const * k, tuple(coeffs))
        if type(a) is Le:
            return Le(t)
        if type(a) is Eq:
            return land(Le(t), Le(-t))
        return Dvd(a.d * k, t)

    body = land(_rewrite(f, unit, (v,)), dvd(m, var(u)))
    # u has coefficient +1 or -1 in every atom now: bounds[-1] holds each
    # lower bound b (b <= u), bounds[1] each upper bound b' (u <= b').
    bounds: dict = {-1: [], 1: []}
    delta = 1
    atoms = []
    _atoms_on(body, u, atoms)
    for a in atoms:
        if type(a) is Le:
            side = 1 if a.t.coeff(u) > 0 else -1
            bounds[side].append(a.t.drop(u) * -side)
        elif type(a) is Dvd:
            delta = _lcm(delta, a.d)

    # Bounds are non-strict, so the witnesses are b + j with -infinity, or
    # b' - j with +infinity, for j in [0, delta): whichever side has fewer
    # bounds.
    sign = -1 if len(bounds[-1]) <= len(bounds[1]) else 1
    base = _at_inf(body, u, sign)
    at_base = _closed_tests(base, u)
    at_body = _closed_tests(body, u)
    disjuncts: list[Formula] = []
    size = 0
    for j in range(delta):
        shift = -sign * j
        for g, tests, w in [(base, at_base, Term(shift))] + [
            (body, at_body, b + shift) for b in bounds[sign]
        ]:
            if g is FALSE or not w.coeffs and _fails(tests, w.const):
                continue
            g = substitute(g, {u: w})
            if g is not FALSE:
                disjuncts.append(g)
                size += node_count(g)
        if size > budget:
            raise BudgetExceeded("cooper", size, budget)
    return lor(*disjuncts)


def _closed_tests(f: Formula, u: str) -> list:
    """``(c, k, d, holds)`` for each top-level conjunct of NNF ``f`` that is
    an atom or a negated atom on ``u`` alone: it says that ``c*u + k <= 0``
    when ``d`` is 0, else ``d | c*u + k``, is ``holds``."""
    out = []
    for a in f.args if type(f) is And else (f,):
        if len(a.fv) != 1 or u not in a.fv:
            continue
        holds = type(a) is not Not
        if not holds:
            a = a.f
        if type(a) is Le:
            d = 0
        elif type(a) is Dvd:
            d = a.d
        else:
            continue
        ((_, c),) = a.t.coeffs
        out.append((c, a.t.const, d, holds))
    return out


def _fails(tests: list, w: int) -> bool:
    """Whether one of :func:`_closed_tests`' conjuncts is false at u = w."""
    for c, k, d, holds in tests:
        n = c * w + k
        if (n <= 0 if d == 0 else n % d == 0) is not holds:
            return True
    return False


def _at_inf(f: Formula, v: str, sign: int) -> Formula:
    """NNF ``f`` with v taken to -infinity (sign -1) or +infinity (sign 1):
    every bound on v becomes a constant, congruences stay."""

    def leaf(a):
        if type(a) is Le:
            return TRUE if a.t.coeff(v) * sign < 0 else FALSE
        return FALSE if type(a) is Eq else a

    return _rewrite(f, leaf, (v,))


def _ctx_add(ctx, k, nk, c):
    """Record k.x + c <= 0 (``nk`` negates ``k``); False on contradiction."""
    prev = ctx.get(k)
    if prev is None or c > prev:
        ctx[k] = c
    opp = ctx.get(nk)
    return not (opp is not None and ctx[k] + opp > 0)


def _ctx_test_le(ctx, k, nk, c):
    """TRUE if implied, FALSE if contradicted, None otherwise."""
    prev = ctx.get(k)
    if prev is not None and c <= prev:
        return True
    opp = ctx.get(nk)
    if opp is not None and c + opp > 0:
        return False
    return None


def simplify(f: Formula, _ctx=None, _memo=None) -> Formula:
    """Prune atoms implied or contradicted by their conjunctive context.

    Only bounds with identical coefficient vectors interact, which is cheap
    and catches the bulk of the redundancy produced by elimination.  With
    ``_memo`` (a :class:`_Memo`), every subformula below ``f`` that is not
    an atom goes through its tables, so it is simplified once per value of
    the bounds it can read.
    """
    ctx = {} if _ctx is None else _ctx
    if isinstance(f, Le):
        r = _ctx_test_le(ctx, f.t.coeffs, f.nkey, f.t.const)
        return f if r is None else (TRUE if r else FALSE)
    if isinstance(f, Eq):
        k, nk, c = f.t.coeffs, f.nkey, f.t.const
        a = _ctx_test_le(ctx, k, nk, c)
        b = _ctx_test_le(ctx, nk, k, -c)
        if a is False or b is False:
            return FALSE
        if a is True and b is True:
            return TRUE
        return f
    simp = simplify if _memo is None else _memo.simplify
    if isinstance(f, And):
        local = dict(ctx)
        args = []
        changed = False
        for a in f.args:
            if isinstance(a, (Le, Eq)):
                g = simplify(a, local)
                if g is FALSE:
                    return FALSE
                if g is TRUE:
                    changed = True
                    continue
                k, nk, c = g.t.coeffs, g.nkey, g.t.const
                ok = _ctx_add(local, k, nk, c)
                if ok and isinstance(g, Eq):
                    ok = _ctx_add(local, nk, k, -c)
                if not ok:
                    return FALSE
                args.append(g)
                changed = changed or g is not a
            else:
                args.append(a)
        out = []
        for a in args:
            if isinstance(a, (Le, Eq)):
                out.append(a)
                continue
            g = simp(a, local)
            if g is FALSE:
                return FALSE
            changed = changed or g is not a
            if g is not TRUE:
                out.append(g)
        return land(*out) if changed else f
    if isinstance(f, Or):
        args = []
        changed = False
        for a in f.args:
            g = simp(a, ctx)
            if g is TRUE:
                return TRUE
            changed = changed or g is not a
            if g is not FALSE:
                args.append(g)
        return lor(*args) if changed else f
    if isinstance(f, Not):
        g = simp(f.f, ctx)
        return lnot(g) if g is not f.f else f
    if isinstance(f, _Quant):
        sub = {k: c for k, c in ctx.items() if all(v != f.v for v, _ in k)}
        g = simp(f.f, sub)
        return f if g is f.f else _quantify(type(f), f.v, g)
    return f


_SAME = object()  # the simplify memo's entry for "unchanged"


class _Memo:
    """Work tables of one outermost :func:`eliminate` call.

    ``elim`` maps a formula with a quantifier below it to its elimination
    and ``exists`` maps ``(v, nnf formula)`` to the elimination of
    ``exists v``.  ``simp`` maps a subformula that is not an atom, with the
    part of its context that :func:`simplify` can read, to its
    simplification.  That part is the bounds keyed on the coefficients of
    one of its ``Le``/``Eq`` atoms or on their negation, and ``keys`` holds
    those coefficient vectors per subformula.  So a conjunct shared by the
    arms of a distribution is simplified again only under an arm that
    bounds one of its atoms.  Each entry is a pure function of its key and
    ``budget``, so a hit returns what recomputing would.  The call drops the
    tables when it returns or raises.
    """

    __slots__ = ("budget", "elim", "exists", "simp", "keys")

    def __init__(self, budget: int):
        self.budget = budget
        self.elim: dict = {}
        self.exists: dict = {}
        self.simp: dict = {}
        self.keys: dict = {}

    def simplify(self, f: Formula, ctx=None) -> Formula:
        """:func:`simplify` of ``f`` under ``ctx``, through ``simp``; an
        atom is looked up in ``ctx`` alone, and needs nothing without it."""
        if isinstance(f, _Leaf):
            return simplify(f, ctx) if ctx else f
        reads = EMPTY
        if ctx:
            keys = self._keys(f)
            reads = frozenset([kc for kc in ctx.items() if kc[0] in keys])
        out = self.simp.get((f, reads))
        if out is None:
            out = simplify(f, ctx, self)
            self.simp[f, reads] = _SAME if out is f else out
        return f if out is _SAME else out

    def _keys(self, f: Formula) -> frozenset:
        if isinstance(f, (Le, Eq)):
            return frozenset((f.t.coeffs, f.nkey))
        if isinstance(f, _Leaf):
            return EMPTY
        out = self.keys.get(f)
        if out is None:
            if isinstance(f, _Junction):
                out = EMPTY.union(*[self._keys(a) for a in f.args])
            else:
                out = self._keys(f.f)
            self.keys[f] = out
        return out


def _elim_exists(v: str, f: Formula, memo: _Memo) -> Formula:
    f = _nnf(f, False)
    if v not in f.fv:
        return f
    key = (v, f)
    out = memo.exists.get(key)
    if out is None:
        out = memo.exists[key] = _elim_exists_nnf(v, f, memo)
    return out


def _elim_exists_nnf(v: str, f: Formula, memo: _Memo) -> Formula:
    """``exists v. f`` for an NNF ``f`` that mentions ``v`` (memo miss)."""
    budget = memo.budget
    if isinstance(f, Or):
        return lor(*[_elim_exists(v, a, memo) for a in f.args])
    if isinstance(f, And):
        inside = [a for a in f.args if v in a.fv]
        outside = [a for a in f.args if v not in a.fv]
        if outside:
            return land(land(*outside), _elim_exists(v, land(*inside), memo))
    eqa = _eq_conjunct(f, v)
    if eqa is not None:
        a = eqa.t.coeff(v)
        rest = -(eqa.t.drop(v))
        if a < 0:
            a, rest = -a, -rest
        others = (
            land(*[x for x in f.args if x is not eqa]) if isinstance(f, And) else TRUE
        )
        return _subst_eq(others, v, a, rest)
    if isinstance(f, And):
        # No pinning equality: distribute over the smallest disjunctive
        # conjunct mentioning v, so elimination works branch by branch
        # instead of handing Cooper one huge conjunction.
        ors = [a for a in f.args if isinstance(a, Or) and v in a.fv]
        if ors:
            pick = min(ors, key=lambda a: len(a.args))
            rest = [a for a in f.args if a is not pick]
            parts = []
            for arm in pick.args:
                g = memo.simplify(land(arm, *rest))
                parts.append(_elim_exists(v, g, memo))
            out = memo.simplify(lor(*parts))
            n = node_count(out)
            if n > budget:
                raise BudgetExceeded("eliminate", n, budget)
            return out
    return _cooper_one(v, f, budget)


def qe_budget() -> int:
    """The node budget that MULTIAUTO_QE_BUDGET sets (default 10**6);
    ``ValueError`` unless it is an integer >= 0."""
    raw = os.environ.get("MULTIAUTO_QE_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        budget = -1
    if budget < 0:
        raise ValueError(f"MULTIAUTO_QE_BUDGET must be an integer >= 0, got {raw!r}")
    return budget


def eliminate(f: Formula) -> Formula:
    """Equivalent quantifier-free formula (Cooper elimination, bottom-up).

    Intermediate formula size in AST nodes is capped by :func:`qe_budget`,
    read at call time.  What it skips: a quantifier-free ``f`` is returned
    as it is, and each quantifier's body is simplified before anything
    inside it is eliminated, so a branch that the bounds of its enclosing
    conjunctions contradict is dropped before its own quantifiers are
    eliminated.
    """
    return _eliminate(f, _Memo(qe_budget()))


def _eliminate(f: Formula, memo: _Memo) -> Formula:
    if f.qf:
        return f
    out = memo.elim.get(f)
    if out is not None:
        return out
    if isinstance(f, Not):
        out = lnot(_eliminate(f.f, memo))
    elif isinstance(f, And):
        out = land(*[_eliminate(a, memo) for a in f.args])
    elif isinstance(f, Or):
        out = lor(*[_eliminate(a, memo) for a in f.args])
    else:
        # Simplify the body before eliminating inside it: a branch that its
        # context contradicts becomes false with its quantifiers unvisited.
        # Quantifiers range over the naturals: relativize with v >= 0 so the
        # (integer) Cooper core and the equality-pinning shortcut agree with
        # bounded evaluation.
        inner = memo.simplify(_eliminate(memo.simplify(f.f), memo))
        if isinstance(f, Exists):
            body = land(inner, ge(var(f.v), 0))
            out = memo.simplify(_elim_exists(f.v, body, memo))
        else:
            body = land(_nnf(inner, True), ge(var(f.v), 0))
            out = memo.simplify(lnot(_elim_exists(f.v, body, memo)))
        n = node_count(out)
        if n > memo.budget:
            raise BudgetExceeded("eliminate", n, memo.budget)
    memo.elim[f] = out
    return out


# ---------------------------------------------------------------------------
# Ultimately periodic sets


class UltimatelyPeriodicSet:
    """Canonical normal form of a Presburger-definable subset of the naturals.

    Membership of ``n < threshold`` is read off ``low``; for ``n >= threshold``
    it is ``n % period in residues``.  Construct through :meth:`from_bits` (or
    call :meth:`canonical`) to get the minimal period and threshold.
    """

    __slots__ = ("threshold", "period", "low", "residues")

    def __init__(self, threshold: int, period: int, low, residues):
        if period < 1:
            raise ValueError("period must be >= 1")
        if threshold < 0:
            raise ValueError("threshold must be >= 0")
        self.threshold = threshold
        self.period = period
        self.low = tuple(bool(b) for b in low)
        self.residues = frozenset(residues)
        if len(self.low) != threshold:
            raise ValueError("low bits must cover exactly [0, threshold)")
        if any(r < 0 or r >= period for r in self.residues):
            raise ValueError("residues must lie in [0, period)")

    @staticmethod
    def from_bits(bits, threshold: int, period: int) -> "UltimatelyPeriodicSet":
        """Build from membership bits valid on ``[0, threshold + period)``."""
        bits = [bool(b) for b in bits]
        if len(bits) < threshold + period:
            raise ValueError("need bits up to threshold + period")
        residues = frozenset(
            (threshold + i) % period for i in range(period) if bits[threshold + i]
        )
        return UltimatelyPeriodicSet(
            threshold, period, bits[:threshold], residues
        ).canonical()

    def canonical(self) -> "UltimatelyPeriodicSet":
        p = self.period
        residues = self.residues
        for q in range(1, p + 1):
            if p % q != 0:
                continue
            classes = {r % q for r in residues}
            if all((r in residues) == (r % q in classes) for r in range(p)):
                p, residues = q, frozenset(classes)
                break
        low = list(self.low)
        t = len(low)
        while t > 0 and low[t - 1] == ((t - 1) % p in residues):
            t -= 1
        return UltimatelyPeriodicSet(t, p, low[:t], residues)

    def member(self, n: int) -> bool:
        if n < 0:
            raise ValueError("naturals only")
        if n < self.threshold:
            return self.low[n]
        return n % self.period in self.residues

    def __eq__(self, other):
        return (
            isinstance(other, UltimatelyPeriodicSet)
            and self.threshold == other.threshold
            and self.period == other.period
            and self.low == other.low
            and self.residues == other.residues
        )

    def __hash__(self):
        return hash((self.threshold, self.period, self.low, self.residues))

    def __str__(self):
        bits = "".join("1" if b else "0" for b in self.low)
        res = ",".join(str(r) for r in sorted(self.residues))
        return f"t={self.threshold} p={self.period} low={bits} residues={{{res}}}"

    __repr__ = __str__


def _scan(g: Formula, v: str):
    """(threshold, period, values) for a quantifier-free ``g`` free in ``v``
    alone: from the threshold on, every atom's truth depends only on v mod
    the period, so the values of ``g`` on [0, threshold + period), which
    ``values`` yields in order, decide it for every natural v."""
    threshold = 0
    period = 1
    atoms: list = []
    _atoms_on(g, v, atoms)
    for a in atoms:
        if isinstance(a, (Le, Eq)):
            threshold = max(threshold, abs(a.t.const) // abs(a.t.coeff(v)) + 1)
        elif isinstance(a, Dvd):
            period = _lcm(period, a.d)
    return threshold, period, (evaluate(g, {v: n}) for n in range(threshold + period))


def solution_set(f: Formula, free_var: str) -> UltimatelyPeriodicSet:
    """Solutions in the naturals of a one-free-variable formula, canonicalized."""
    if not f.fv <= {free_var}:
        raise ValueError(f"unexpected free variables: {sorted(f.fv - {free_var})}")
    g = eliminate(land(f, ge(var(free_var), 0)))
    threshold, period, values = _scan(g, free_var)
    return UltimatelyPeriodicSet.from_bits(list(values), threshold, period)


def satisfiable(g: Formula, v: str) -> bool:
    """Whether some natural v satisfies a quantifier-free ``g`` free in
    ``v`` alone, decided on the window that :func:`solution_set` scans."""
    return any(_scan(g, v)[2])


# ---------------------------------------------------------------------------
# Printing


def to_sexpr(f: Formula) -> str:
    """Deterministic s-expression rendering, used by golden tests and the CLI."""
    if isinstance(f, _Const):
        return f.name
    if isinstance(f, Le):
        return f"(<= {f.t} 0)"
    if isinstance(f, Eq):
        return f"(= {f.t} 0)"
    if isinstance(f, Dvd):
        return f"(divides {f.d} {f.t})"
    if isinstance(f, Not):
        return f"(not {to_sexpr(f.f)})"
    if isinstance(f, And):
        return "(and " + " ".join(to_sexpr(a) for a in f.args) + ")"
    if isinstance(f, Or):
        return "(or " + " ".join(to_sexpr(a) for a in f.args) + ")"
    if isinstance(f, Exists):
        return f"(exists {f.v} {to_sexpr(f.f)})"
    if isinstance(f, Forall):
        return f"(forall {f.v} {to_sexpr(f.f)})"
    raise TypeError(f"not a formula: {f!r}")
