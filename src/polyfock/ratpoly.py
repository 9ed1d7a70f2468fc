"""Exact multivariate polynomials with rational coefficients.

Small dict-backed polynomial ring used as the zero-tolerance side of
identity checks: two expressions agree as polynomials iff their difference
normalizes to the empty term map.

A polynomial is stored as integer numerators over one common positive
denominator.  Every ring operation is one call of the private primitive
``_sum_of_products``, which multiplies out sum_i c_i prod(factors_i) over
the numerators into one dict and reduces it by a single gcd at the end,
instead of normalizing a ``Fraction`` per term or a polynomial per
intermediate step; the exact Laguerre recurrence and the decomposition
fold of :mod:`polyfock.orthopoly` call it directly.  The form is
canonical: no zero numerators, ``_den > 0``, ``gcd(_den, *numerators) ==
1``, and the zero polynomial has ``_den == 1``.  Equality and hashing
therefore compare the stored numbers directly.

Each exponent tuple is stored as one Python int: variable r occupies bits
r*FIELD_BITS .. (r+1)*FIELD_BITS - 1 (variable 0 lowest), so multiplying
two monomials adds two ints.  The top bit of every field is a guard:
exponents given to the constructor must lie below ``EXPONENT_LIMIT``
(2^(FIELD_BITS - 1)), so the sum of two such exponents still fits its
field, and a product (``__mul__``, or a term of ``_sum_of_products`` with
two or more factors) refuses a factor with a guard bit set instead of
letting a field carry into the next.  Overflow is refused with
ValueError, never wrapped.  ``terms`` is the read view as
``{exponent tuple: Fraction}``.

``_rational`` is the library's one parser of exact rationals: every
coefficient here, the exact Laguerre parameter and the exact alpha of the
basis oracle.

Only the ring operations needed by the orthogonal-polynomial checks are
implemented; this is an oracle, not a computer-algebra system.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Iterable, Mapping, Sequence, Union

from .multiindex import _is_integer, _multi_index

Scalar = Union[int, Fraction]

FIELD_BITS = 16
EXPONENT_LIMIT = 1 << (FIELD_BITS - 1)
_FIELD_MASK = (1 << FIELD_BITS) - 1


def _rational(value, label: str = "coefficient") -> Fraction:
    """value as a Fraction: a Fraction or a Python or NumPy integer; the rest raises TypeError."""
    if isinstance(value, Fraction):
        return value
    if _is_integer(value):
        return Fraction(operator.index(value))
    raise TypeError(f"{label} must be an int or a Fraction, got {value!r}")


def _pack(exps: tuple[int, ...]) -> int:
    """The key of an exponent tuple whose entries each fit a field."""
    key = 0
    for e in reversed(exps):
        key = (key << FIELD_BITS) | e
    return key


def _unpack(key: int, n: int) -> tuple[int, ...]:
    return tuple((key >> (FIELD_BITS * r)) & _FIELD_MASK for r in range(n))


def _guard_bits(n: int) -> int:
    """The top bit of each of the n fields."""
    return sum(1 << (FIELD_BITS * r + FIELD_BITS - 1) for r in range(n))


def _sum_of_products(
    variables: tuple[str, ...],
    terms: Iterable[tuple[Scalar, Sequence["RationalPoly"]]],
) -> "RationalPoly":
    """sum_i c_i prod(factors_i) in the ring ``variables``, reduced by one gcd.

    Every product is multiplied out over the integer numerators straight
    into one dict over the lcm of the terms' denominators; no intermediate
    polynomial is normalized.  A term with no factors is the constant c_i.
    Multiplying by c_i never carries, but each later factor refuses a
    partial product or factor with a guard bit set, as ``__mul__`` does.
    """
    terms = [(_rational(c), tuple(factors)) for c, factors in terms]
    for _, factors in terms:
        for f in factors:
            if f.variables != variables:
                raise ValueError(f"mixed variable sets {variables} vs {f.variables}")
    dens = [c.denominator * math.prod(f._den for f in factors) for c, factors in terms]
    den = math.lcm(*dens)
    guard = _guard_bits(len(variables))
    out: dict[int, int] = {}
    for (c, factors), term_den in zip(terms, dens):
        if not c:
            continue
        prod = {0: c.numerator * (den // term_den)}
        for i, f in enumerate(factors):
            if i and (reduce(or_, prod, 0) | reduce(or_, f._num, 0)) & guard:
                raise ValueError(f"product would carry an exponent past its field: a factor "
                                 f"has an exponent of at least {EXPONENT_LIMIT}")
            last = i == len(factors) - 1
            acc = out if last else {}
            get = acc.get
            f_items = f._num.items()
            for e1, c1 in prod.items():
                for e2, c2 in f_items:
                    key = e1 + e2
                    acc[key] = get(key, 0) + c1 * c2
            if not last:
                prod = {e: v for e, v in acc.items() if v}
        if not factors:
            out[0] = out.get(0, 0) + prod[0]
    # Canonical form, in place: no zero numerators, and gcd(den, *out) == 1.
    for e in [e for e, v in out.items() if not v]:
        del out[e]
    g = math.gcd(den, *out.values())
    if g != 1:
        for e in out:
            out[e] //= g
        den //= g
    result = RationalPoly.__new__(RationalPoly)
    result.variables = variables
    result._num = out
    result._den = den
    return result


class RationalPoly:
    """Polynomial in named variables with exact rational coefficients."""

    __slots__ = ("variables", "_num", "_den")

    def __init__(
        self,
        variables: Sequence[str],
        terms: Mapping[tuple[int, ...], Scalar] | None = None,
    ):
        self.variables: tuple[str, ...] = tuple(variables)
        clean: dict[int, Fraction] = {}
        for exps, coeff in (terms or {}).items():
            exps = _multi_index(exps, len(self.variables))
            if any(e >= EXPONENT_LIMIT for e in exps):
                raise ValueError(f"exponents must lie below {EXPONENT_LIMIT}, got {exps}")
            val = _rational(coeff)
            if val:
                clean[_pack(exps)] = val
        den = math.lcm(*(c.denominator for c in clean.values()))
        self._num = {e: c.numerator * (den // c.denominator) for e, c in clean.items()}
        self._den = den

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "RationalPoly":
        return cls(variables)

    @classmethod
    def constant(cls, c: Scalar, variables: Sequence[str]) -> "RationalPoly":
        key = (0,) * len(tuple(variables))
        return cls(variables, {key: c})

    @classmethod
    def variable(cls, name: str, variables: Sequence[str]) -> "RationalPoly":
        variables = tuple(variables)
        exps = [0] * len(variables)
        exps[variables.index(name)] = 1
        return cls(variables, {tuple(exps): 1})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "RationalPoly | Scalar") -> "RationalPoly":
        return _sum_of_products(self.variables, ((1, (self,)), (1, (self._operand(other),))))

    def __sub__(self, other: "RationalPoly | Scalar") -> "RationalPoly":
        return _sum_of_products(self.variables, ((1, (self,)), (-1, (self._operand(other),))))

    def __neg__(self) -> "RationalPoly":
        return self.scale(-1)

    def __mul__(self, other: "RationalPoly | Scalar") -> "RationalPoly":
        if not isinstance(other, RationalPoly):
            return self.scale(other)
        return _sum_of_products(self.variables, ((1, (self, other)),))

    __rmul__ = __mul__

    def scale(self, c: Scalar) -> "RationalPoly":
        return _sum_of_products(self.variables, ((_rational(c), (self,)),))

    def _operand(self, other: "RationalPoly | Scalar") -> "RationalPoly":
        """other as a polynomial; a scalar is parsed as the constant it names."""
        if isinstance(other, RationalPoly):
            return other
        return RationalPoly.constant(_rational(other), self.variables)

    # -- queries -----------------------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        """Nonzero coefficients as ``{exponent tuple: Fraction}`` (a fresh dict)."""
        n = len(self.variables)
        return {_unpack(e, n): Fraction(c, self._den) for e, c in self._num.items()}

    def is_zero(self) -> bool:
        return not self._num

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._num:
            return -1
        n = len(self.variables)
        return max(sum(_unpack(e, n)) for e in self._num)

    def coefficient(self, exps: Iterable[int]) -> Fraction:
        exps = _multi_index(exps, len(self.variables))
        # A product can hold exponents up to the field mask; none lies beyond.
        if any(e > _FIELD_MASK for e in exps):
            return Fraction(0)
        return Fraction(self._num.get(_pack(exps), 0), self._den)

    def evaluate(self, values: Sequence):
        """Evaluate at a point, exact on Fraction inputs.

        Accepts any values supporting arithmetic with Fraction (Fractions,
        ints, floats, complex), one per variable.
        """
        if len(values) != len(self.variables):
            raise ValueError(f"expected {len(self.variables)} values, got {len(values)}")
        total = 0
        for exps, coeff in self.terms.items():
            term = coeff
            for v, e in zip(values, exps):
                if e:
                    term = term * v**e
            total = total + term
        return total

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalPoly):
            return NotImplemented
        return (self.variables == other.variables and self._den == other._den
                and self._num == other._num)

    def __hash__(self):
        return hash((self.variables, self._den, frozenset(self._num.items())))

    def __repr__(self) -> str:
        if not self._num:
            return "RationalPoly(0)"
        terms = self.terms
        bits = []
        for exps in sorted(terms, key=lambda e: (sum(e), e)):
            coeff = terms[exps]
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self.variables, exps)
                if e
            )
            bits.append(f"{coeff}" + (f"*{mono}" if mono else ""))
        return "RationalPoly(" + " + ".join(bits) + ")"
