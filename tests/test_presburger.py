import hashlib
import itertools
import os
import pathlib
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multiauto import cli, presburger as P
from multiauto.presburger import (
    FALSE,
    TRUE,
    BudgetExceeded,
    Term,
    UltimatelyPeriodicSet,
    UnboundVariable,
    dvd,
    eliminate,
    eq,
    evaluate,
    exists,
    forall,
    free_vars,
    ge,
    land,
    le,
    lnot,
    lor,
    node_count,
    solution_set,
    substitute,
    to_sexpr,
    var,
)

from conftest import FIXTURE_NAMES, ROOT, criterion7_formulas, fixture_path, load_fixture
from oracles import vector_eval

TESTS = pathlib.Path(__file__).resolve().parent


# ---------------------------------------------------------------------------
# terms and construction


def test_term_algebra():
    t = 2 * var("x") + var("y") - 3
    assert t.coeff("x") == 2 and t.coeff("y") == 1 and t.const == -3
    assert (t - t) == Term(0)
    assert (t * 0) == Term(0)


def test_smart_constructors_fold_constants():
    assert le(Term(1), Term(2)) is TRUE
    assert le(Term(3), Term(2)) is FALSE
    assert land(TRUE, TRUE) is TRUE
    assert land(TRUE, FALSE) is FALSE
    assert lor(FALSE, FALSE) is FALSE
    assert lnot(lnot(TRUE)) is TRUE


def test_atoms_mean_what_they_say_at_every_natural_point():
    # Whatever le and eq fold or normalize, each atom holds at a natural
    # point exactly when its term says so.
    rng = random.Random(27)
    names = ["x", "y", "z"]
    box = [dict(zip(names, p)) for p in itertools.product(range(5), repeat=3)]
    for _ in range(400):
        t = Term.make(rng.randint(-5, 5), {v: rng.randint(-3, 3) for v in names})
        f, g = le(t), eq(t)
        for a in box:
            assert evaluate(f, a) == (t.eval(a) <= 0), (t, to_sexpr(f))
            assert evaluate(g, a) == (t.eval(a) == 0), (t, to_sexpr(g))


def test_atoms_no_natural_satisfies_fold_to_false():
    x, y = var("x"), var("y")
    assert le(x + 1) is FALSE
    assert le(2 * x + 3 * y, -1) is FALSE
    assert eq(x + y + 1) is FALSE
    assert eq(-x - 2 * y - 4) is FALSE
    assert eq(var("N") + 1) is FALSE


def test_atoms_some_natural_satisfies_stay_atoms():
    # The fold never goes to TRUE: v >= 0 holds at every natural point,
    # and it is the relativization that Cooper's integer core needs.
    for v in ("x", "N", "_h"):
        assert isinstance(ge(var(v), 0), P.Le)
    # Every t <= 0 whose coefficients and constant are all <= 0 holds at
    # 0, and stays an atom; so does every t = 0 with constant 0.  (A
    # t = 0 with nonpositive coefficients and a negative constant holds at
    # no natural point.)
    for cx, cy in itertools.product(range(-3, 1), repeat=2):
        if cx == cy == 0:
            continue
        for c in range(-5, 1):
            t = Term.make(c, {"x": cx, "y": cy})
            assert isinstance(le(t), P.Le), t
        assert isinstance(eq(Term.make(0, {"x": cx, "y": cy})), P.Eq)
    # Mixed signs stay atoms whatever the constant.
    assert isinstance(le(var("x") - var("y") + 5), P.Le)
    assert isinstance(eq(var("x") - var("y") + 5), P.Eq)


def test_free_vars():
    f = exists("x", land(le(var("x"), var("y")), eq(var("z"), 0)))
    assert free_vars(f) == {"y", "z"}


def test_substitute_refuses_capture_free():
    f = le(var("x"), var("y"))
    g = substitute(f, {"x": var("y") + 1})
    assert evaluate(g, {"y": 4}) == evaluate(f, {"x": 5, "y": 4})


def _reference_substitute(f, v, t):
    """One-variable substitution as it was before mappings: no renaming."""
    if v not in f.fv:
        return f
    if isinstance(f, (P.Le, P.Eq, P.Dvd)):
        c = f.t.coeff(v)
        u = f.t.drop(v) + t * c
        if isinstance(f, P.Le):
            return le(u)
        return eq(u) if isinstance(f, P.Eq) else dvd(f.d, u)
    if isinstance(f, P.Not):
        return lnot(_reference_substitute(f.f, v, t))
    if isinstance(f, (P.And, P.Or)):
        parts = [_reference_substitute(a, v, t) for a in f.args]
        return land(*parts) if isinstance(f, P.And) else lor(*parts)
    if f.v == v:
        return f
    body = _reference_substitute(f.f, v, t)
    return exists(f.v, body) if isinstance(f, P.Exists) else forall(f.v, body)


def _criterion7_cases(count):
    """(formula, its quantifier-free matrix, its elimination) triples."""
    for f, _ in criterion7_formulas(count):
        matrix = f
        while isinstance(matrix, (P.Exists, P.Forall)):
            matrix = matrix.f
        yield f, matrix, eliminate(f)


def test_substitute_one_key_matches_one_variable_reference():
    for case in _criterion7_cases(300):
        for h in case:
            for v in sorted(h.fv):
                t = 2 * var(v) - var("n") + 1
                assert to_sexpr(substitute(h, {v: t})) == to_sexpr(
                    _reference_substitute(h, v, t)
                )


def test_substitute_two_keys_equals_two_passes():
    # Neither image mentions x or y, so the order of two passes is immaterial.
    # With natural images the three results are the same formula.
    tx, ty = 3 * var("n") + var("m"), var("m") + 2
    for _, matrix, g in _criterion7_cases(300):
        for h in (matrix, g):
            once = substitute(h, {"x": tx, "y": ty})
            assert once == substitute(substitute(h, {"x": tx}), {"y": ty})
            assert once == substitute(substitute(h, {"y": ty}), {"x": tx})


def test_substitute_two_keys_agrees_with_two_passes_where_the_image_is_natural():
    # 3n - m is negative for m > 3n.  An atom that no natural satisfies
    # folds to false, so a pass that folds an atom over x before x becomes
    # 3n - m may differ in syntax from one pass, but not at any point where
    # 3n - m is a natural, the only points the formula speaks about.
    tx, ty = 3 * var("n") - var("m"), var("m") + 2
    points = [
        (n, m, z)
        for n, m, z in itertools.product(range(4), range(8), range(3))
        if 3 * n - m >= 0
    ]
    for _, matrix, g in _criterion7_cases(300):
        for h in (matrix, g):
            results = (
                substitute(h, {"x": tx, "y": ty}),
                substitute(substitute(h, {"x": tx}), {"y": ty}),
                substitute(substitute(h, {"y": ty}), {"x": tx}),
            )
            for n, m, z in points:
                want = evaluate(h, {"x": 3 * n - m, "y": m + 2, "z": z})
                for r in results:
                    assert evaluate(r, {"n": n, "m": m, "z": z}) == want, to_sexpr(h)


def test_substitute_swap_is_simultaneous():
    for _, matrix, _ in _criterion7_cases(100):
        g = substitute(matrix, {"x": var("y"), "y": var("x")})
        for a, b, c in itertools.product(range(-3, 4), repeat=3):
            assert evaluate(g, {"x": a, "y": b, "z": c}) == evaluate(
                matrix, {"x": b, "y": a, "z": c}
            )


def test_substitute_renames_a_capturing_quantifier():
    y = var("y")
    # exists y (y <= 5 and x <= y) holds iff x <= 5; with x := y + 1 the
    # free y must not be captured (that would read "exists y. y + 1 <= y").
    f = exists("y", land(le(y, 5), le(var("x"), y)))
    g = substitute(f, {"x": y + 1})
    assert isinstance(g, P.Exists) and g.v == "w_1"
    assert free_vars(g) == {"y"}
    for n in range(10):
        assert evaluate(g, {"y": n}) == evaluate(f, {"x": n + 1}) == (n <= 4)
    # The new name is free in neither the body nor the images.
    h = forall("y", lor(le(var("w_1"), y), le(var("x"), y)))
    k = substitute(h, {"x": y + var("w_2")})
    assert isinstance(k, P.Forall) and k.v == "w_3"
    for a, b, c in itertools.product(range(4), repeat=3):
        asg = {"y": a, "w_1": b, "w_2": c}
        assert evaluate(k, asg, 8) == evaluate(h, {"x": a + c, "w_1": b}, 8)


def test_evaluate_requires_bindings():
    with pytest.raises(UnboundVariable):
        evaluate(le(var("x"), 0), {})


# ---------------------------------------------------------------------------
# quantifier elimination


def test_eliminate_even_numbers():
    f = exists("x", eq(2 * var("x"), var("y")))
    g = eliminate(f)
    assert free_vars(g) <= {"y"}
    for y in range(0, 20):
        assert evaluate(g, {"y": y}) == (y % 2 == 0)


def test_eliminate_ordering():
    # exists x: y <= x <= z  <=>  y <= z (over naturals).
    f = exists("x", land(le(var("y"), var("x")), le(var("x"), var("z"))))
    g = eliminate(f)
    for y, z in itertools.product(range(8), repeat=2):
        assert evaluate(g, {"y": y, "z": z}) == (y <= z)


def test_eliminate_forall():
    # forall x: x >= y  is true over the naturals iff y = 0.
    f = forall("x", ge(var("x"), var("y")))
    g = eliminate(f)
    assert [evaluate(g, {"y": y}) for y in range(4)] == [True, False, False, False]


def test_eliminate_chinese_remainder():
    f = exists("x", land(dvd(3, var("x") - 1), dvd(5, var("x") - var("y"))))
    g = eliminate(f)
    for y in range(12):
        assert evaluate(g, {"y": y}) is True


def test_cooper_auxiliary_variable_avoids_free_names():
    # Cooper's method works on an auxiliary variable; a free variable that
    # happens to carry the same name must stay free.
    c, x = var("_c"), var("x")
    f = exists("x", land(le(c, x), le(x, c + 4), dvd(3, x + 1)))
    g = eliminate(f)
    assert free_vars(g) == {"_c"}
    for n in range(12):
        assert evaluate(g, {"_c": n}) == evaluate(f, {"_c": n}, domain_bound=20)


def test_equality_shortcut_scales_the_modulus():
    # exists x (2x = y and 2 | x): the pinning equality turns 2 | x into
    # 4 | 2x = y, so y must be a multiple of 4, not merely even.
    f = exists("x", land(eq(2 * var("x"), var("y")), dvd(2, var("x"))))
    g = eliminate(f)
    assert [y for y in range(30) if evaluate(g, {"y": y})] == list(range(0, 30, 4))


def _subtrees(f):
    yield f
    if isinstance(f, (P.Not, P.Exists, P.Forall)):
        yield from _subtrees(f.f)
    elif isinstance(f, (P.And, P.Or)):
        for a in f.args:
            yield from _subtrees(a)


def test_rewrite_keeps_untouched_subtrees_identical():
    # Substitution and Cooper's atom passes hand back every subtree that
    # mentions none of the rewritten variables as the very same object.
    x, y, z, w = var("x"), var("y"), var("z"), var("w")
    free = lor(le(y, 5), lnot(dvd(3, y + z)))
    quant = exists("w", land(le(w, y), dvd(2, w + x)))
    f = land(le(x, y), le(3, x), eq(x + z, 2 * y), dvd(2, x + z), free, quant)
    out = substitute(f, {"x": 2 * z})
    kept = {id(g) for g in _subtrees(out)}
    untouched = [g for g in _subtrees(f) if "x" not in g.fv]
    assert len(untouched) == 5
    for g in untouched:
        assert substitute(g, {"x": 2 * z}) is g and id(g) in kept, to_sexpr(g)

    qf = land(le(x, y), le(3, x), eq(x + z, 2 * y), dvd(2, x + z), free)
    g = P._cooper_one("x", qf, P.DEFAULT_BUDGET)
    arms = g.args if isinstance(g, P.Or) else (g,)
    for arm in arms:
        assert any(h is free for h in _subtrees(arm)), to_sexpr(arm)
    for a, b in itertools.product(range(10), repeat=2):
        asg = {"y": a, "z": b}
        assert evaluate(g, asg) == evaluate(exists("x", qf), asg, domain_bound=30)

    # With no lower bound on x the witnesses are those of the projection to
    # -infinity, which keeps every subtree free of x as well.
    g = P._cooper_one("x", land(le(x, y), dvd(2, x + z), free), P.DEFAULT_BUDGET)
    assert g == lor(land(dvd(2, z), free), land(dvd(2, z + 1), free)), to_sexpr(g)
    for arm in g.args:
        assert arm.args[1] is free, to_sexpr(arm)


def _cooper_atom(rng, x, lean, closed):
    """A random atom on x: a bound (lower with probability ``lean``), an
    equality with |coefficient| > 1, or a (negated) divisibility with
    modulus up to 6; ``closed`` leaves out the other variables."""
    c = rng.choice((1, 2, 3))
    rest = Term(rng.randint(-8, 8))
    if not closed:
        for w in ("y", "z"):
            rest = rest + var(w) * rng.choice((-1, 0, 1))
    k = rng.random()
    if k < 0.55:
        return le(rest - c * x) if rng.random() < lean else le(c * x + rest)
    if k < 0.7:
        return eq(rng.choice((2, 3)) * x * rng.choice((1, -1)) + rest)
    atom = dvd(rng.randint(2, 6), c * x * rng.choice((1, -1)) + rest)
    return lnot(atom) if rng.random() < 0.3 else atom


def test_cooper_step_matches_bounded_evaluation(monkeypatch):
    """``_cooper_one`` against bounded evaluation on bodies that the
    criterion-7 stream rarely builds: coefficients of x in +-{1, 2, 3},
    moduli up to 6, equalities on x with |c| > 1, more lower than upper
    bounds, conjuncts on x alone (whose constant witnesses the step skips)
    and bounds with other free variables (whose witnesses it builds).  A
    constant witness that reaches ``substitute`` satisfies every top-level
    atom on the auxiliary variable alone."""
    rng = random.Random(30)
    bound = 12
    x = var("x")
    substituted = []
    original = P.substitute

    def spy(f, mapping):
        ((u, w),) = mapping.items()
        substituted.append(w)
        if not w.coeffs:
            conj = f.args if isinstance(f, P.And) else (f,)
            closed = [a for a in conj if a.fv == {u} and isinstance(a, (P.Le, P.Dvd, P.Not))]
            assert all(original(a, mapping) is not FALSE for a in closed), (to_sexpr(f), w)
        return original(f, mapping)

    skipped = []
    fails = P._fails

    def skip(tests, w):
        if fails(tests, w):
            skipped.append(w)
            return True
        return False

    monkeypatch.setattr(P, "substitute", spy)
    monkeypatch.setattr(P, "_fails", skip)
    more_lower = 0
    for _ in range(300):
        lean = rng.choice((0.3, 0.8))
        parts = [ge(x, 0), le(x, bound)]
        for _ in range(rng.randint(1, 4)):
            parts.append(_cooper_atom(rng, x, lean, rng.random() < 0.35))
        if rng.random() < 0.4:
            parts.append(lor(_cooper_atom(rng, x, lean, False), _cooper_atom(rng, x, lean, True)))
        body = land(*parts)
        if "x" not in body.fv:
            continue
        sides = [0, 0]
        for a in _atoms(body):
            c = a.t.coeff("x") if isinstance(a, (P.Le, P.Eq)) else 0
            if isinstance(a, P.Eq) and c:
                sides = [sides[0] + 1, sides[1] + 1]
            elif c:
                sides[c > 0] += 1
        more_lower += sides[0] > sides[1]
        g = P._cooper_one("x", body, P.DEFAULT_BUDGET)
        assert g.qf and "x" not in g.fv, to_sexpr(g)
        for a, b in itertools.product(range(6), repeat=2):
            asg = {"y": a, "z": b}
            want = evaluate(exists("x", body), asg, domain_bound=bound)
            assert evaluate(g, asg) == want, (to_sexpr(body), asg)
    assert more_lower >= 50
    assert len([w for w in substituted if w.coeffs]) >= 1000
    assert len([w for w in substituted if not w.coeffs]) >= 200
    assert len(skipped) >= 1000


def test_rewrite_stops_at_the_absorbing_argument(monkeypatch):
    # Substituting x := 5 makes the first conjunct false (the first
    # disjunct true), so the large second argument is never rebuilt: its
    # atoms never reach the substitution leaf.
    calls = []
    atom = P._atom

    def counting(a, t, scale=1):
        calls.append(a)
        return atom(a, t, scale)

    monkeypatch.setattr(P, "_atom", counting)
    x, y = var("x"), var("y")
    large = lor(*[land(le(x, y + i), dvd(3, x + i * y)) for i in range(20)])
    assert substitute(land(le(x, 0), large), {"x": Term(5)}) is FALSE
    assert calls == [le(x, 0)]
    calls.clear()
    assert substitute(lor(ge(x, 1), large), {"x": Term(5)}) is TRUE
    assert calls == [ge(x, 1)]


def test_budget_exceeded(monkeypatch):
    f = exists("x", le(var("x"), var("y")))
    monkeypatch.setenv("MULTIAUTO_QE_BUDGET", "0")
    with pytest.raises(BudgetExceeded) as err:
        eliminate(f)
    assert err.value.stage


def test_budget_env_override(monkeypatch):
    # The budget is read at each call.
    f = exists("x", le(var("x"), var("y")))
    monkeypatch.setenv("MULTIAUTO_QE_BUDGET", "0")
    with pytest.raises(BudgetExceeded):
        eliminate(f)
    monkeypatch.setenv("MULTIAUTO_QE_BUDGET", "100")
    assert eliminate(f) == ge(var("y"), 0)


# ---------------------------------------------------------------------------
# randomized QE differential (small version; the 1000-formula battery is in
# test_acceptance)


def _random_formula(rng, names, depth=0):
    def term():
        t = Term(rng.randint(-4, 4))
        for v in names:
            t = t + var(v) * rng.randint(-2, 2)
        return t

    r = rng.random()
    if depth >= 2 or r < 0.4:
        k = rng.random()
        if k < 0.45:
            return le(term(), 0)
        if k < 0.75:
            return eq(term(), 0)
        return dvd(rng.randint(2, 4), term())
    if r < 0.6:
        return land(_random_formula(rng, names, depth + 1), _random_formula(rng, names, depth + 1))
    if r < 0.8:
        return lor(_random_formula(rng, names, depth + 1), _random_formula(rng, names, depth + 1))
    return lnot(_random_formula(rng, names, depth + 1))


def test_eliminate_preserves_semantics_small():
    rng = random.Random(5)
    for _ in range(80):
        body = _random_formula(rng, ["x", "y"])
        f = exists("x", land(le(var("x"), 30), body))
        g = eliminate(f)
        for y in range(10):
            assert evaluate(f, {"y": y}, domain_bound=31) == evaluate(g, {"y": y})


def test_eliminate_simplifies_a_body_before_descending():
    # x <= 3 and x >= 5 contradict each other, so the exists y beside them
    # is never eliminated.
    x, y = var("x"), var("y")
    inner = exists("y", land(eq(2 * y, x + 1), le(y, x)))
    f = exists("x", land(le(x, 3), land(ge(x, 5), inner)))
    memo = P._Memo(P.DEFAULT_BUDGET)
    assert P._eliminate(f, memo) is FALSE
    assert inner not in memo.elim


def _nested_formula(rng, free, bound, depth):
    """A quantifier over a fresh variable that ranges over 0..bound, whose
    body mixes bounds on every variable in scope with the next level."""
    v = f"v{depth}"
    names = free + [v]
    parts = [_random_formula(rng, names, 1)]
    if rng.random() < 0.6:
        w = rng.choice(names)
        c = rng.randint(0, bound)
        parts.append(le(var(w), c) if rng.random() < 0.5 else ge(var(w), c))
    if depth > 1:
        parts.append(_nested_formula(rng, names, bound, depth - 1))
    rng.shuffle(parts)
    body = (land if rng.random() < 0.5 else lor)(*parts)
    if rng.random() < 0.5:
        return exists(v, land(le(var(v), bound), body))
    return forall(v, lor(lnot(le(var(v), bound)), body))


def test_eliminate_preserves_semantics_nested(monkeypatch):
    # Nested and alternating quantifiers, two or three deep, under bounds
    # that sometimes contradict each other: every quantifier is bounded
    # explicitly, so bounded evaluation is exact.
    #
    # Every formula stays within the budget, also those of qe #1460's
    # shape, a forall over an exists (formula 34, both bounded by 4): it
    # needs the atoms that no natural satisfies folded to false.  A formula
    # over the budget is listed, not left out.
    monkeypatch.setenv("MULTIAUTO_QE_BUDGET", str(10**4))
    rng = random.Random(23)
    bound = 4
    varied = 0
    over = []
    for i in range(200):
        f = _nested_formula(rng, ["z"], bound, rng.randint(2, 3))
        try:
            g = eliminate(f)
        except BudgetExceeded:
            over.append(i)
            continue
        assert g.qf and g.fv <= {"z"}, to_sexpr(g)
        want = [evaluate(f, {"z": z}, domain_bound=bound) for z in range(8)]
        assert [evaluate(g, {"z": z}) for z in range(8)] == want, to_sexpr(f)
        varied += len(set(want)) > 1
    assert over == []
    # The battery is not all constants.
    assert varied >= 40


def test_vector_eval_matches_pointwise():
    rng = random.Random(9)
    xs = np.arange(7)[:, None]
    ys = np.arange(7)[None, :]
    for _ in range(40):
        f = _random_formula(rng, ["x", "y"])
        got = vector_eval(f, {"x": xs, "y": ys})
        for i, j in itertools.product(range(7), repeat=2):
            assert bool(got[i, j]) == evaluate(f, {"x": i, "y": j})


def test_vector_eval_rejects_quantifiers():
    with pytest.raises(ValueError):
        vector_eval(exists("x", le(var("x"), 0)), {})


# ---------------------------------------------------------------------------
# ultimately periodic sets


def test_ups_from_bits_round_trip():
    bits = [True, False, True, True, False, True, True, False]
    u = UltimatelyPeriodicSet.from_bits(bits, 2, 3)
    assert [u.member(i) for i in range(8)] == bits


def test_ups_canonical_minimizes():
    u = UltimatelyPeriodicSet.from_bits([n % 2 == 0 for n in range(20)], 10, 4)
    c = u.canonical()
    assert c.period == 2 and c.threshold == 0
    assert str(c) == "t=0 p=2 low= residues={0}"


def ups_equal(a, b):
    return a.canonical() == b.canonical()


@settings(max_examples=80, deadline=None)
@given(
    bits=st.lists(st.booleans(), min_size=1, max_size=12),
    t=st.integers(0, 8),
    p=st.integers(1, 6),
)
def test_ups_canonical_preserves_membership(bits, t, p):
    pattern = [bits[min(i, len(bits) - 1)] for i in range(t + p)]
    u = UltimatelyPeriodicSet.from_bits(pattern, t, p)
    c = u.canonical()
    assert ups_equal(u, c)
    for n in range(60):
        assert u.member(n) == c.member(n)


def test_solution_set_examples():
    evens = solution_set(exists("k", eq(var("N"), 2 * var("k"))), "N")
    assert str(evens) == "t=0 p=2 low= residues={0}"
    tail = solution_set(ge(var("N"), 5), "N")
    assert [tail.member(n) for n in range(8)] == [False] * 5 + [True] * 3
    empty = solution_set(FALSE, "N")
    assert str(empty) == "t=0 p=1 low= residues={}"


def test_solution_set_rejects_extra_variables():
    with pytest.raises(ValueError):
        solution_set(le(var("N"), var("M")), "N")


# ---------------------------------------------------------------------------
# serialization


def test_to_sexpr_deterministic():
    f = lor(land(le(var("x") + 2 * var("y"), 3), dvd(3, var("x"))), eq(var("y"), 0))
    assert to_sexpr(f) == to_sexpr(f)
    assert "(or" in to_sexpr(f) and "(divides 3" in to_sexpr(f)


def test_node_count_positive():
    assert node_count(TRUE) >= 1
    assert node_count(land(le(var("x"), 0), le(var("y"), 0))) >= 3


# ---------------------------------------------------------------------------
# cached node attributes and per-call memo tables


def _walk(f):
    """(node count, quantifier-free) by a full tree walk."""
    if isinstance(f, (P.Exists, P.Forall)):
        return 1 + _walk(f.f)[0], False
    if isinstance(f, P.Not):
        n, qf = _walk(f.f)
        return 1 + n, qf
    if isinstance(f, (P.And, P.Or)):
        parts = [_walk(a) for a in f.args]
        return 1 + sum(n for n, _ in parts), all(qf for _, qf in parts)
    return 1, True


def _atoms(f):
    if isinstance(f, (P.Exists, P.Forall, P.Not)):
        yield from _atoms(f.f)
    elif isinstance(f, (P.And, P.Or)):
        for a in f.args:
            yield from _atoms(a)
    else:
        yield f


def _reference_nnf(f, neg):
    """Negation normal form by a full rebuild, with no already-normal shortcut."""
    if f is TRUE:
        return FALSE if neg else TRUE
    if f is FALSE:
        return TRUE if neg else FALSE
    if isinstance(f, P.Le):
        return le(-f.t + 1) if neg else f
    if isinstance(f, P.Eq):
        return lor(le(f.t + 1), le(-f.t + 1)) if neg else f
    if isinstance(f, P.Dvd):
        return P.Not(f) if neg else f
    if isinstance(f, P.Not):
        return _reference_nnf(f.f, not neg)
    parts = [_reference_nnf(a, neg) for a in f.args]
    return land(*parts) if isinstance(f, P.And) != neg else lor(*parts)


def test_cached_node_attributes_match_tree_walk():
    for f, free in criterion7_formulas(300):
        matrix = f
        while isinstance(matrix, (P.Exists, P.Forall)):
            matrix = matrix.f
        g = eliminate(f)
        shifted = substitute(g, {free[0]: var(free[0]) + 1})
        for h in (f, matrix, lnot(matrix), g, shifted):
            assert (node_count(h), h.qf) == _walk(h), to_sexpr(h)
            for a in _atoms(h):
                if isinstance(a, (P.Le, P.Eq)):
                    assert a.nkey == (-a.t).coeffs, to_sexpr(a)
            if h.qf:
                ref = _reference_nnf(h, False)
                assert P._nnf(h, False) == ref, to_sexpr(h)
                assert h.nnf == (ref == h), to_sexpr(h)


def test_simplify_memo_matches_fresh_simplify():
    """Random formulas built from shared subformulas, under random contexts,
    simplified through one shared memo's tables, equal fresh ``simplify``
    calls: an entry is keyed on every bound the subformula can read."""
    rng = random.Random(17)
    pool = [_random_formula(rng, ["x", "y"]) for _ in range(14)]
    bounded = [a for f in pool for a in _atoms(f) if isinstance(a, (P.Le, P.Eq))]
    keys = sorted({k for a in bounded for k in (a.t.coeffs, a.nkey)})
    memo = P._Memo(P.DEFAULT_BUDGET)
    for _ in range(400):
        f = (land if rng.random() < 0.6 else lor)(*rng.sample(pool, rng.randint(2, 4)))
        if rng.random() < 0.3:
            f = exists("x", land(f, rng.choice(pool)))
        ctx = {k: rng.randint(-4, 4) for k in rng.sample(keys, rng.randint(0, 4))}
        assert P.simplify(f, dict(ctx), memo) == P.simplify(f, dict(ctx)), (to_sexpr(f), ctx)
    assert memo.simp


def test_eliminate_returns_quantifier_free_input():
    for f, _ in criterion7_formulas(50):
        g = eliminate(f)
        assert eliminate(g) is g


def test_elimination_bytes_golden():
    """Every byte that ``eliminate`` gives on the first 1000 criterion-7
    formulas, alone and relativized as ``solution_set`` hands them over,
    as first recorded: a change to elimination that moves one byte fails."""
    plain, natural = hashlib.sha256(), hashlib.sha256()
    for f, (v,) in criterion7_formulas(1000):
        plain.update(to_sexpr(eliminate(f)).encode() + b"\n")
        natural.update(to_sexpr(eliminate(land(f, ge(var(v), 0)))).encode() + b"\n")
    golden = TESTS / "data" / "golden" / "criterion7-eliminate.txt"
    want = dict(line.split() for line in golden.read_text().splitlines())
    assert {"eliminate": plain.hexdigest(), "eliminate_natural": natural.hexdigest()} == want


def test_budget_exceeded_leaves_no_state_behind(monkeypatch):
    # Formula 40 of the stream nests a forall under an exists; budget 150
    # fails on the outer result after the inner elimination filled the
    # memo tables.
    f, _ = next(itertools.islice(criterion7_formulas(41), 40, None))
    monkeypatch.setenv("MULTIAUTO_QE_BUDGET", "150")
    with pytest.raises(BudgetExceeded) as err:
        eliminate(f)
    assert err.value.stage == "eliminate"
    monkeypatch.delenv("MULTIAUTO_QE_BUDGET")
    again = to_sexpr(eliminate(f))
    code = (
        "import itertools\n"
        "from conftest import criterion7_formulas\n"
        "from multiauto.presburger import eliminate, to_sexpr\n"
        "f, _ = next(itertools.islice(criterion7_formulas(41), 40, None))\n"
        "print(to_sexpr(eliminate(f)))\n"
    )
    fresh = subprocess.run(
        [sys.executable, "-c", code],
        cwd=TESTS,
        env={**os.environ, "PYTHONPATH": str(TESTS.parent / "src")},
        capture_output=True,
        text=True,
        check=True,
    )
    assert fresh.stdout == again + "\n"


@pytest.mark.parametrize("name", ["crosser2", "racer2", "rebounder"])
def test_frontier_and_accept_dumps_golden(capsys, name):
    """Quantifier-free phase formulas, byte for byte as first recorded."""
    argv = ["extract", str(fixture_path(name))]
    for k in range(load_fixture(name).message_bound + 1):
        argv += ["--dump-formula", f"frontier:{k}", "--dump-formula", f"accept:{k}"]
    assert cli.main(argv) == 0
    golden = TESTS / "data" / "golden" / f"{name}.txt"
    assert capsys.readouterr().out == golden.read_text()


REACH_RUN_DUMPS = {
    "crosser2": ("run:1:x:y", "reach:1:x:x", "reach:1:x:y"),
    "racer2": ("run:2:z1:z2", "reach:2:z1:z2", "run:2:z2:z2", "reach:1:o:e"),
    "rebounder": (
        "run:1:f1:f2", "reach:1:f1:f1", "run:1:b1:f2", "reach:1:f2:f2", "run:1:f1:b1",
    ),
}


@pytest.mark.parametrize("name", sorted(REACH_RUN_DUMPS))
def test_reach_and_run_dumps_golden(capsys, name):
    """Reach/Run formulas (with construction names), byte for byte as
    recorded.  Every bound variable has a fixed name, so the dump does not
    depend on what ran before in the process: two runs in a row print the
    same bytes."""
    argv = ["extract", str(fixture_path(name))]
    for stage in REACH_RUN_DUMPS[name]:
        argv += ["--dump-formula", stage]
    golden = (TESTS / "data" / "golden" / f"{name}-reach-run.txt").read_text()
    for _ in range(2):
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == golden


@pytest.mark.parametrize("name", sorted(REACH_RUN_DUMPS))
def test_each_dump_prints_alone_what_it_prints_among_others(capsys, name):
    """A stage's dump does not depend on what else the extraction built:
    each ``run:``/``reach:`` stage dumped alone prints the line it prints
    among the golden's others, and each ``frontier:k``/``accept:k`` stage
    dumped alone prints the lines it prints after all of them."""
    spec = str(fixture_path(name))
    stages = list(REACH_RUN_DUMPS[name])
    for k in range(load_fixture(name).message_bound + 1):
        stages += [f"frontier:{k}", f"accept:{k}"]

    def dump(*stages):
        argv = ["extract", spec]
        for stage in stages:
            argv += ["--dump-formula", stage]
        assert cli.main(argv) == 0
        return capsys.readouterr().out.splitlines()

    def lines_of(lines, stage):
        return [line for line in lines if line.startswith((f"[{stage}]", f"[{stage} "))]

    together = dump(*stages)
    assert all(lines_of(together, stage) for stage in REACH_RUN_DUMPS[name])
    for stage in stages:
        assert lines_of(dump(stage), stage) == lines_of(together, stage), stage


def _dump_formulas(system):
    """Every formula a ``--dump-formula`` stage prints for the system."""
    from multiauto import construction as C

    sc = C.Scope()
    cap = C._run_caps(system)
    for aut in system.automata:
        for s in sorted(aut.states):
            for s2 in sorted(aut.states):
                yield C.run_formula(sc, aut, frozenset(), s, s2, cap).formula
                yield C.reach_formula(sc, aut, frozenset(), s, s2).formula
    for fr in C.phase_frontiers(sc, system, system.message_bound):
        yield fr.position_graph.formula
        yield C.accept_formula(sc, system, fr)


def _holds_at_no_natural(a):
    """An ``<=`` or ``=`` atom that is false at every natural point: its
    constant and coefficients all positive (``=``: all of one sign)."""
    if isinstance(a, P.Eq):
        sign = 1 if a.t.const > 0 else -1
        return a.t.const != 0 and all(c * sign > 0 for _, c in a.t.coeffs)
    return isinstance(a, P.Le) and a.t.const > 0 and all(c > 0 for _, c in a.t.coeffs)


def test_fixture_dumps_hold_no_atom_that_no_natural_satisfies():
    """No ``run:``, ``reach:``, ``frontier:`` or ``accept:`` dump of a
    fixture holds an atom like N + 1 = 0: the smart constructors fold such
    atoms wherever they are built, in a chain, a substitution or an
    elimination."""
    count = 0
    for name in FIXTURE_NAMES:
        for f in _dump_formulas(load_fixture(name)):
            bad = [a for a in _subtrees(f) if _holds_at_no_natural(a)]
            assert not bad, (name, to_sexpr(bad[0]), to_sexpr(f))
            count += 1
    assert count > 100


def test_cli_bytes_parses_fixture_dumps_back():
    """scripts/cli_bytes.py reads a dumped s-expression back into the very
    formula that was printed, for every fixture dump."""
    cli_bytes = _import_cli_bytes()
    count = 0
    for name in FIXTURE_NAMES:
        for f in _dump_formulas(load_fixture(name)):
            assert cli_bytes.parse_sexpr(to_sexpr(f)) == f, (name, to_sexpr(f))
            count += 1
    assert count > 100


def _import_cli_bytes():
    sys.path.insert(0, str(ROOT / "scripts"))
    try:
        import cli_bytes
    finally:
        sys.path.remove(str(ROOT / "scripts"))
    return cli_bytes


def test_cli_bytes_alpha_verdict(tmp_path, capsys):
    """``--against`` passes a Run/Reach dump line whose bound variables are
    renamed and fails one with a changed constant or with a disjunct that
    the smart constructors would fold away."""
    cli_bytes = _import_cli_bytes()
    d, laps, h = var("_d0"), var("_laps"), var("_h3")
    inner = exists("_h3", land(ge(h, 1), eq(d - 2 * h), le(var("p") + h - var("N"))))
    f = exists(["_d0", "_laps"], land(eq(var("T") - d - 3 * laps), ge(laps, 1), inner))
    line = f"[run:1:a:b] {to_sexpr(f)}"
    renamed = line.replace("_d0", "_t7").replace("_laps", "_h9").replace("_h3", "_h1")
    changed = line.replace("(+ (* -1 _laps) 1)", "(+ (* -1 _laps) 2)")
    gained = f"[run:1:a:b] (or {to_sexpr(f)} (= (+ N 1) 0))"
    assert renamed != line and changed != line
    old = tmp_path / "old"
    old.mkdir()
    (old / "x.txt").write_text(f"$ multiauto extract x\n{line}\n")
    for i, (text, bad) in enumerate(((renamed, 0), (changed, 1), (gained, 1))):
        new = tmp_path / f"new{i}"
        new.mkdir()
        (new / "x.txt").write_text(f"$ multiauto extract x\n{text}\n")
        assert cli_bytes.against(new, old) == bad
        verdict = "NOT equal" if bad else "equal"
        assert f"x.txt:2: [run:1:a:b] differs, alpha: {verdict}\n" in capsys.readouterr().out
    # Any difference outside a formula line still fails.
    (new / "x.txt").write_text(f"$ multiauto extract y\n{line}\n")
    assert cli_bytes.against(new, old) == 1
