"""Laguerre polynomials, Laguerre functions, and Hermite functions.

Two parallel tracks are deliberately kept apart:

* exact generalized Laguerre polynomials as :class:`~polyfock.ratpoly.RationalPoly`
  objects, built from the three-term recurrence over the rationals, one
  sum of products per step.  The parameter is an int or a ``Fraction``,
  never a float.  These feed the zero-tolerance identity checks
  (`check_laguerre_*`), where both sides are expanded and compared term by
  term.  Each check builds its recurrences once up to its degree p and
  reads every lower degree from that build: the addition formula and
  telescoping hold at every degree <= p, and ``_decomposition_degrees``
  gives the decomposition's result at each degree;
* plain floating-point evaluators driven by the same recurrences, which are
  what the kernel and symbol code actually calls.

The Hermite functions use the normalized recurrence

    psi_0(t) = pi^(-1/4) exp(-t^2/2),
    psi_1(t) = sqrt(2) t psi_0(t),
    psi_{p+1}(t) = sqrt(2/(p+1)) t psi_p(t) - sqrt(p/(p+1)) psi_{p-1}(t),

so every psi_p comes out unit-normalized in L^2(R) without ever touching
factorials.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .multiindex import _integer, _is_integer, build_index_table
from .ratpoly import RationalPoly, _sum_of_products

ExactScalar = Union[int, Fraction]


# ---------------------------------------------------------------------------
# exact track
# ---------------------------------------------------------------------------

def _parameter(a) -> Fraction:
    """A Laguerre parameter as a Fraction: an int (not a bool) or a Fraction."""
    if isinstance(a, Fraction):
        return a
    if _is_integer(a):
        return Fraction(operator.index(a))
    raise TypeError(f"Laguerre parameter must be an int or a Fraction, got {a!r}")


def _laguerre_in(p: int, a: ExactScalar, s: RationalPoly) -> list[RationalPoly]:
    """All L_k^{(a)}(s) for k = 0..p with s an element of a rational polynomial ring.

    Each step (k+1) L_{k+1} = (2k+1+a) L_k - s L_k - (k+a) L_{k-1} is one
    sum of products, reduced once.
    """
    p, a = _integer(p, "degree"), _parameter(a)
    ring = s.variables
    out = [RationalPoly.constant(1, ring)]
    if p == 0:
        return out
    out.append(_sum_of_products(ring, ((1 + a, ()), (-1, (s,)))))
    for k in range(1, p):
        out.append(_sum_of_products(ring, (
            ((2 * k + 1 + a) / (k + 1), (out[k],)),
            (Fraction(-1, k + 1), (s, out[k])),
            (-(k + a) / (k + 1), (out[k - 1],)),
        )))
    return out


def laguerre_poly(p: int, a: ExactScalar = 0, var: str = "x") -> RationalPoly:
    """Generalized Laguerre polynomial L_p^{(a)} with exact coefficients.

    Satisfies the three-term recurrence
    (k+1) L_{k+1} = (2k+1+a-x) L_k - (k+a) L_{k-1}; the leading coefficient
    is (-1)^p / p!.  The parameter a is an int or a Fraction; anything else
    (a float, a bool, a string) raises TypeError.
    """
    p, a = _integer(p, "degree"), _parameter(a)
    x = RationalPoly.variable(var, (var,))
    return _laguerre_in(p, a, x)[p]


def check_laguerre_of_sum(a: ExactScalar, b: ExactScalar, p: int) -> bool:
    """Exact check of L_q^{(a+b+1)}(x+y) = sum_k L_k^{(a)}(x) L_{q-k}^{(b)}(y) at every q <= p.

    Both sides are built once up to degree p, so all p + 1 degrees cost
    about as much as degree p alone.
    """
    a, b, p = _parameter(a), _parameter(b), _integer(p, "degree")
    ring = ("x", "y")
    x = RationalPoly.variable("x", ring)
    y = RationalPoly.variable("y", ring)
    lhs = _laguerre_in(p, a + b + 1, x + y)
    in_x = _laguerre_in(p, a, x)
    in_y = _laguerre_in(p, b, y)
    return all(
        lhs[q] == _sum_of_products(ring, [(1, (in_x[k], in_y[q - k])) for k in range(q + 1)])
        for q in range(p + 1))


def check_laguerre_telescoping(a: ExactScalar, p: int) -> bool:
    """Exact check of sum_{k<=q} L_k^{(a)}(x) = L_q^{(a+1)}(x) at every q <= p."""
    a, p = _parameter(a), _integer(p, "degree")
    x = RationalPoly.variable("x", ("x",))
    partial = accumulate(_laguerre_in(p, a, x))
    return all(lhs == total for lhs, total in zip(_laguerre_in(p, a + 1, x), partial))


def _laguerre_product_sums(coords: Sequence[RationalPoly], p: int) -> Iterator[RationalPoly]:
    """Yield sum over |k| <= q of prod_r L_{k_r}(t_r) for q = 0..p, folded one coordinate at a time.

    With S_n(b) = sum_{k<=b} L_k(t_n) and
    S_r(b) = sum_{k<=b} L_k(t_r) S_{r+1}(b-k), entry q is S_1(q); this is
    the same polynomial as the summand-by-summand expansion.  Each inner
    level is held as a list while the level above reads it; S_1 comes one
    degree at a time.
    """
    ring = coords[0].variables

    def fold(lag: list[RationalPoly], inner: Iterable[RationalPoly]) -> Iterator[RationalPoly]:
        inner = list(inner)
        for b in range(p + 1):
            yield _sum_of_products(ring, [(1, (lag[k], inner[b - k])) for k in range(b + 1)])

    per_coord = [_laguerre_in(p, 0, c) for c in coords]
    partial = accumulate(per_coord[-1])
    for lag in reversed(per_coord[:-1]):
        partial = fold(lag, partial)
    return partial


def _decomposition_degrees(n: int, p: int) -> list[tuple[bool, int]]:
    """``(identity_holds, summand_count)`` of the decomposition at every degree q = 0..p.

    One build of each side serves all p + 1 degrees.  Entry q compares
    degree q alone, so a fault at one degree fails only its entry.
    """
    n, p = _integer(n, "n", 1), _integer(p, "degree")
    ring = tuple(f"t{r}" for r in range(1, n + 1))
    coords = [RationalPoly.variable(v, ring) for v in ring]
    lhs = _laguerre_in(p, n, _sum_of_products(ring, [(1, (c,)) for c in coords]))
    rhs = _laguerre_product_sums(coords, p)
    degrees = build_index_table(n, p + 1).array.sum(axis=1)
    return [(left == right, int(np.count_nonzero(degrees <= q)))
            for q, (left, right) in enumerate(zip(lhs, rhs))]


def check_laguerre_decomposition(n: int, p: int) -> tuple[bool, int]:
    """Exact check of L_p^{(n)}(t_1+...+t_n) = sum over |k| <= p of prod_r L_{k_r}(t_r).

    The sum runs over every multi-index k in N_0^n with |k| <= p; each
    summand is the product of plain (a=0) Laguerre polynomials in disjoint
    variables.  Returns ``(identity_holds, summand_count)`` so callers can
    compare the count against C(n+p, n) themselves.
    """
    return _decomposition_degrees(n, p)[-1]


# ---------------------------------------------------------------------------
# floating-point track
# ---------------------------------------------------------------------------

def laguerre_eval_all(p_max: int, a: float, x) -> np.ndarray:
    """Stack of L_k^{(a)}(x) for k = 0..p_max, shape (p_max+1,) + x.shape.

    Forward three-term recurrence; x may be real or complex, scalar or array.
    """
    p_max = _integer(p_max, "degree")
    x = np.asarray(x)
    out = np.empty((p_max + 1,) + x.shape, dtype=np.result_type(x.dtype, float))
    out[0] = 1.0
    if p_max >= 1:
        out[1] = 1.0 + a - x
    for k in range(1, p_max):
        out[k + 1] = ((2 * k + 1 + a - x) * out[k] - (k + a) * out[k - 1]) / (k + 1)
    return out


def laguerre_eval(p: int, a: float, x):
    """Generalized Laguerre polynomial L_p^{(a)} at x (scalar or array).

    The recurrence of :func:`laguerre_eval_all`, in the same arithmetic
    order, keeping only the last two rows: equal to its row p bit for bit.
    """
    p = _integer(p, "degree")
    x = np.asarray(x)
    prev = np.empty(x.shape, dtype=np.result_type(x.dtype, float))
    cur = np.ones_like(prev)
    if p >= 1:
        prev, cur = cur, prev
        cur[...] = 1.0 + a - x
    for k in range(1, p):
        # The right side is complete before it overwrites row k - 1.
        prev[...] = ((2 * k + 1 + a - x) * cur - (k + a) * prev) / (k + 1)
        prev, cur = cur, prev
    return cur[()]


def laguerre_fn(p: int, t):
    """Laguerre function ell_p(t) = e^{-t/2} L_p(t)."""
    t = np.asarray(t)
    return np.exp(-t / 2) * laguerre_eval(p, 0.0, t)


def laguerre_fn_all(p_max: int, t) -> np.ndarray:
    """Stack of ell_k(t) for k = 0..p_max."""
    t = np.asarray(t)
    return np.exp(-t / 2) * laguerre_eval_all(p_max, 0.0, t)


def hermite_fn_table(p_max: int, t) -> np.ndarray:
    """Hermite functions psi_0..psi_{p_max} at t, shape (p_max+1,) + t.shape."""
    p_max = _integer(p_max, "degree")
    t = np.asarray(t, dtype=float)
    out = np.empty((p_max + 1,) + t.shape)
    out[0] = math.pi ** -0.25 * np.exp(-t * t / 2)
    if p_max >= 1:
        out[1] = math.sqrt(2.0) * t * out[0]
    for p in range(1, p_max):
        out[p + 1] = (
            math.sqrt(2.0 / (p + 1)) * t * out[p]
            - math.sqrt(p / (p + 1)) * out[p - 1]
        )
    return out


def hermite_fn(p: int, t):
    """Hermite function psi_p(t), unit-normalized in L^2(R)."""
    return hermite_fn_table(p, t)[p]

