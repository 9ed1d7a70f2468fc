"""Laguerre polynomials, Laguerre functions, and Hermite functions.

Two parallel tracks are deliberately kept apart:

* exact generalized Laguerre polynomials as :class:`~polyfock.ratpoly.RationalPoly`
  objects, built from the three-term recurrence over the rationals.  These
  feed the zero-tolerance identity checks (`check_laguerre_*`), where both
  sides are expanded and compared term by term;
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
from fractions import Fraction
from itertools import accumulate
from typing import Sequence, Union

import numpy as np

from .multiindex import _integer, build_index_table
from .ratpoly import RationalPoly

ExactScalar = Union[int, Fraction]


# ---------------------------------------------------------------------------
# exact track
# ---------------------------------------------------------------------------

def _laguerre_in(p: int, a: ExactScalar, s: RationalPoly) -> list[RationalPoly]:
    """All L_k^{(a)}(s) for k = 0..p with s an element of a rational polynomial ring."""
    p = _integer(p, "degree")
    a = Fraction(a)
    ring = s.variables
    one = RationalPoly.constant(1, ring)
    out = [one]
    if p == 0:
        return out
    out.append(RationalPoly.constant(1 + a, ring) - s)
    for k in range(1, p):
        lead = out[k].scale(Fraction(2 * k + 1) + a) - s * out[k]
        tail = out[k - 1].scale(Fraction(k) + a)
        out.append((lead - tail).scale(Fraction(1, k + 1)))
    return out


def laguerre_poly(p: int, a: ExactScalar = 0, var: str = "x") -> RationalPoly:
    """Generalized Laguerre polynomial L_p^{(a)} with exact coefficients.

    Satisfies the three-term recurrence
    (k+1) L_{k+1} = (2k+1+a-x) L_k - (k+a) L_{k-1}; the leading coefficient
    is (-1)^p / p!.
    """
    x = RationalPoly.variable(var, (var,))
    return _laguerre_in(p, a, x)[p]


def check_laguerre_of_sum(a: ExactScalar, b: ExactScalar, p: int) -> bool:
    """Exact check of L_p^{(a+b+1)}(x+y) = sum_k L_k^{(a)}(x) L_{p-k}^{(b)}(y)."""
    ring = ("x", "y")
    x = RationalPoly.variable("x", ring)
    y = RationalPoly.variable("y", ring)
    lhs = _laguerre_in(p, Fraction(a) + Fraction(b) + 1, x + y)[p]
    in_x = _laguerre_in(p, a, x)
    in_y = _laguerre_in(p, b, y)
    rhs = RationalPoly.zero(ring)
    for k in range(p + 1):
        rhs = rhs + in_x[k] * in_y[p - k]
    return (lhs - rhs).is_zero()


def check_laguerre_telescoping(a: ExactScalar, p: int) -> bool:
    """Exact check of sum_{k<=p} L_k^{(a)}(x) = L_p^{(a+1)}(x)."""
    x = RationalPoly.variable("x", ("x",))
    partial = _laguerre_in(p, a, x)
    total = RationalPoly.zero(("x",))
    for poly in partial:
        total = total + poly
    lhs = _laguerre_in(p, Fraction(a) + 1, x)[p]
    return (lhs - total).is_zero()


def _laguerre_product_sum(coords: Sequence[RationalPoly], p: int) -> RationalPoly:
    """sum over |k| <= p of prod_r L_{k_r}(t_r), folded one coordinate at a time.

    With S_n(b) = sum_{k<=b} L_k(t_n) and
    S_r(b) = sum_{k<=b} L_k(t_r) S_{r+1}(b-k), the sum is S_1(p); this is
    the same polynomial as the summand-by-summand expansion.
    """
    per_coord = [_laguerre_in(p, 0, c) for c in coords]
    zero = RationalPoly.zero(coords[0].variables)

    def fold(lag: list[RationalPoly], inner: list[RationalPoly], b: int) -> RationalPoly:
        return sum((lag[k] * inner[b - k] for k in range(b + 1)), zero)

    partial = list(accumulate(per_coord[-1]))
    for lag in reversed(per_coord[1:-1]):
        partial = [fold(lag, partial, b) for b in range(p + 1)]
    return fold(per_coord[0], partial, p) if len(coords) > 1 else partial[p]


def check_laguerre_decomposition(n: int, p: int) -> tuple[bool, int]:
    """Exact check of L_p^{(n)}(t_1+...+t_n) = sum over |k| <= p of prod_r L_{k_r}(t_r).

    The sum runs over every multi-index k in N_0^n with |k| <= p; each
    summand is the product of plain (a=0) Laguerre polynomials in disjoint
    variables.  Returns ``(identity_holds, summand_count)`` so callers can
    compare the count against C(n+p, n) themselves.
    """
    n = _integer(n, "n", 1)
    ring = tuple(f"t{r}" for r in range(1, n + 1))
    coords = [RationalPoly.variable(v, ring) for v in ring]
    total = RationalPoly.zero(ring)
    for c in coords:
        total = total + c
    lhs = _laguerre_in(p, n, total)[p]
    rhs = _laguerre_product_sum(coords, p)
    return (lhs - rhs).is_zero(), len(build_index_table(n, p + 1))


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

