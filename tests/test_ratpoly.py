"""Exact polynomial ring sanity checks.

``RationalPoly`` keeps integer numerators over one common denominator; the
results are compared against Fraction coefficients, and equality means
identical terms, not closeness.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polyfock import orthopoly
from polyfock.ratpoly import EXPONENT_LIMIT, RationalPoly


def x_and_y():
    x = RationalPoly.variable("x", ("x", "y"))
    y = RationalPoly.variable("y", ("x", "y"))
    return x, y


def test_zero_and_constant():
    z = RationalPoly.zero(("x",))
    assert z.is_zero()
    assert z.total_degree() == -1
    c = RationalPoly.constant(Fraction(3, 2), ("x",))
    assert not c.is_zero()
    assert c.total_degree() == 0
    assert c.evaluate([Fraction(7)]) == Fraction(3, 2)


def test_ring_operations():
    x, y = x_and_y()
    p = (x + y) * (x - y)
    q = x * x - y * y
    assert p == q
    assert (p - q).is_zero()


def test_binomial_cube():
    x, y = x_and_y()
    p = (x + y) * (x + y) * (x + y)
    assert p.coefficient((3, 0)) == 1
    assert p.coefficient((2, 1)) == 3
    assert p.coefficient((1, 2)) == 3
    assert p.coefficient((0, 3)) == 1
    assert p.coefficient((4, 0)) == 0
    assert p.total_degree() == 3


def test_scalar_multiplication_and_negation():
    x, _ = x_and_y()
    p = 3 * x - x.scale(2)
    assert p == x
    assert (-p + x).is_zero()
    half = x.scale(Fraction(1, 2))
    assert half.coefficient((1, 0)) == Fraction(1, 2)


def test_evaluate_is_exact():
    x, y = x_and_y()
    p = x * x * y - y.scale(Fraction(1, 3))
    val = p.evaluate([Fraction(2, 3), Fraction(9, 5)])
    assert val == Fraction(4, 9) * Fraction(9, 5) - Fraction(1, 3) * Fraction(9, 5)


def test_mixed_variable_mismatch_rejected():
    x, _ = x_and_y()
    other = RationalPoly.variable("t", ("t",))
    with pytest.raises(ValueError):
        _ = x + other


def test_structural_equality_ignores_zero_coefficients():
    x, y = x_and_y()
    p = x + y - y
    assert p == x
    assert len(p.terms) == 1


# -- integer numerators against a Fraction-dict reference --------------------

def _ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _ref_scale(a, c):
    return {e: c * v for e, v in a.items() if c * v}


def _assert_canonical(p):
    assert p._den > 0
    assert all(isinstance(c, int) and c for c in p._num.values())
    assert math.gcd(p._den, *p._num.values()) == 1
    if not p._num:
        assert p._den == 1


_coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=12)


@st.composite
def _poly_pairs(draw):
    # Up to 7 variables, so keys span several 30-bit int digits.  Each
    # monomial is drawn as a list of at most 4 variable picks, so the total
    # degree stays at most 4 without filtering.
    nvars = draw(st.integers(1, 7))
    exps = st.lists(st.integers(0, nvars - 1), max_size=4).map(
        lambda picks: tuple(picks.count(r) for r in range(nvars)))
    terms = st.dictionaries(exps, _coeffs, max_size=6)
    return tuple(f"x{i}" for i in range(nvars)), draw(terms), draw(terms)


@settings(max_examples=150, deadline=None)
@given(pair=_poly_pairs(), c=_coeffs)
def test_ring_matches_fraction_reference(pair, c):
    ring, a, b = pair
    ref_a = {e: v for e, v in a.items() if v}
    ref_b = {e: v for e, v in b.items() if v}
    p, q = RationalPoly(ring, a), RationalPoly(ring, b)
    expected = {
        "p": ref_a,
        "p + q": _ref_add(ref_a, ref_b),
        "p - q": _ref_add(ref_a, _ref_scale(ref_b, -1)),
        "-p": _ref_scale(ref_a, -1),
        "p * q": _ref_mul(ref_a, ref_b),
        "p.scale(c)": _ref_scale(ref_a, c),
    }
    got = {"p": p, "p + q": p + q, "p - q": p - q, "-p": -p, "p * q": p * q,
           "p.scale(c)": p.scale(c)}
    for name, poly in got.items():
        _assert_canonical(poly)
        assert poly.terms == expected[name], name
        assert all(type(e) is tuple and len(e) == len(ring) and all(type(c) is int for c in e)
                   for e in poly.terms), name
        rebuilt = RationalPoly(ring, expected[name])
        assert poly == rebuilt and hash(poly) == hash(rebuilt), name
    assert p * q == q * p and hash(p * q) == hash(q * p)
    diff = p - p
    assert diff.is_zero() and diff._den == 1 and diff == RationalPoly.zero(ring)


# -- packed exponent keys --------------------------------------------------

def test_terms_and_hash_follow_the_exponent_tuples():
    ring = ("x", "y", "z")
    # Built in different orders and with different intermediate
    # denominators, the same polynomial has one key set and one hash.
    x, y, z = (RationalPoly.variable(v, ring) for v in ring)
    p = (x * y.scale(Fraction(1, 3)) + z * z * x) * y - z.scale(Fraction(5, 2))
    q = RationalPoly(ring, {(0, 0, 1): Fraction(-5, 2), (1, 1, 2): 1, (1, 2, 0): Fraction(1, 3)})
    expected = {(1, 2, 0): Fraction(1, 3), (1, 1, 2): Fraction(1), (0, 0, 1): Fraction(-5, 2)}
    assert p.terms == q.terms == expected
    assert p == q and hash(p) == hash(q)
    assert p.total_degree() == 4
    assert p.coefficient((1, 1, 2)) == 1 and p.coefficient((2, 1, 1)) == 0
    assert repr(p) == "RationalPoly(-5/2*z + 1/3*x*y^2 + 1*x*y*z^2)"
    value = p.evaluate([Fraction(2), Fraction(3), Fraction(1, 2)])
    assert value == Fraction(-5, 4) + 6 + Fraction(3, 2)


@pytest.mark.parametrize("exps", [(EXPONENT_LIMIT, 0, 0), (0, EXPONENT_LIMIT, 0),
                                  (0, 0, EXPONENT_LIMIT), (1, 2 * EXPONENT_LIMIT, 3)])
def test_constructor_refuses_an_exponent_at_the_field_limit(exps):
    ring = ("x", "y", "z")
    with pytest.raises(ValueError, match=f"below {EXPONENT_LIMIT}"):
        RationalPoly(ring, {exps: 1})
    below = tuple(min(e, EXPONENT_LIMIT - 1) for e in exps)
    assert RationalPoly(ring, {below: 1}).terms == {below: 1}


def test_products_refuse_a_factor_with_a_guard_bit_set():
    ring = ("x", "y", "z")
    top = EXPONENT_LIMIT - 1
    for r in range(len(ring)):
        exps = [1, 2, 3]
        exps[r] = top
        p = RationalPoly(ring, {tuple(exps): 2, (0, 0, 0): 1})
        # Below the limit, a square fits its fields (carrying no bit into the
        # next variable) and is read back exactly.
        square = p * p
        doubled = tuple(2 * e for e in exps)
        assert square.terms == {doubled: 4, tuple(exps): 4, (0, 0, 0): 1}
        assert square.coefficient(doubled) == 4
        assert square.total_degree() == 2 * sum(exps)
        # A factor holding an exponent at or above the limit is refused.
        var = RationalPoly.variable(ring[r], ring)
        at_limit = p * var
        assert at_limit.coefficient(tuple(e + (i == r) for i, e in enumerate(exps))) == 2
        for a, b in ((square, var), (var, square), (at_limit, var), (at_limit, at_limit)):
            with pytest.raises(ValueError, match="field"):
                _ = a * b
        # Sums and scalings of such polynomials stay exact.
        assert (square + at_limit - at_limit) == square
        assert square.scale(Fraction(1, 4)).coefficient(doubled) == 1
    assert RationalPoly.variable("x", ring).coefficient((1 << 20, 0, 0)) == 0


def _decomposition_holds(n, p):
    holds, count = orthopoly.check_laguerre_decomposition(n, p)
    assert count == math.comb(n + p, n)
    return holds


def test_decomposition_detects_a_one_over_nine_factorial_perturbation(monkeypatch):
    # The right-hand side of L_8^{(3)}(t1+t2+t3) has coefficients with
    # denominators up to 8!; a change of 1/9! in one of them must not be lost.
    assert _decomposition_holds(3, 8)
    fold = orthopoly._laguerre_product_sum

    def perturbed(coords, p):
        rhs = fold(coords, p)
        bump = RationalPoly(rhs.variables, {(p, 0, 0): Fraction(1, math.factorial(9))})
        return rhs + bump

    monkeypatch.setattr(orthopoly, "_laguerre_product_sum", perturbed)
    assert not _decomposition_holds(3, 8)
