"""Exact multivariate polynomials with rational coefficients.

Small dict-backed polynomial ring used as the zero-tolerance side of
identity checks: two expressions agree as polynomials iff their difference
normalizes to the empty term map.

A polynomial is stored as integer numerators over one common positive
denominator, so the ring operations multiply and add Python ints and
reduce by a single gcd at the end instead of normalizing a ``Fraction``
per term.  The form is canonical: no zero numerators, ``_den > 0``,
``gcd(_den, *numerators) == 1``, and the zero polynomial has ``_den == 1``.
Equality and hashing therefore compare the stored numbers directly.

Each exponent tuple is stored as one Python int: variable r occupies bits
r*FIELD_BITS .. (r+1)*FIELD_BITS - 1 (variable 0 lowest), so multiplying
two monomials adds two ints.  The top bit of every field is a guard:
exponents given to the constructor must lie below ``EXPONENT_LIMIT``
(2^(FIELD_BITS - 1)), so the sum of two such exponents still fits its
field, and ``__mul__`` refuses a factor with a guard bit set instead of
letting a field carry into the next.  Overflow is refused with
ValueError, never wrapped.  ``terms`` is the read view as
``{exponent tuple: Fraction}``.

Only the ring operations needed by the orthogonal-polynomial checks are
implemented; this is an oracle, not a computer-algebra system.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Iterable, Mapping, Sequence, Union

from .multiindex import _multi_index

Scalar = Union[int, Fraction]

FIELD_BITS = 16
EXPONENT_LIMIT = 1 << (FIELD_BITS - 1)
_FIELD_MASK = (1 << FIELD_BITS) - 1


def _as_fraction(c: Scalar) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficients must be exact rationals, got {type(c).__name__}")


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


def _canonical(variables: tuple[str, ...], num: dict[int, int],
               den: int) -> "RationalPoly":
    """The polynomial num / den; num holds no zeros and den > 0."""
    g = math.gcd(den, *num.values())
    if g != 1:
        num = {e: c // g for e, c in num.items()}
        den //= g
    result = RationalPoly.__new__(RationalPoly)
    result.variables = variables
    result._num = num
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
            val = _as_fraction(coeff)
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

    def _check_ring(self, other: "RationalPoly") -> None:
        if self.variables != other.variables:
            raise ValueError(
                f"mixed variable sets {self.variables} vs {other.variables}"
            )

    def __add__(self, other: "RationalPoly") -> "RationalPoly":
        self._check_ring(other)
        den = math.lcm(self._den, other._den)
        f1, f2 = den // self._den, den // other._den
        out = dict(self._num) if f1 == 1 else {e: c * f1 for e, c in self._num.items()}
        get = out.get
        for exps, coeff in other._num.items():
            # Stored numerators are nonzero, so a zero sum means exps was in out.
            coeff = get(exps, 0) + coeff * f2
            if coeff:
                out[exps] = coeff
            else:
                del out[exps]
        return _canonical(self.variables, out, den)

    def __sub__(self, other: "RationalPoly") -> "RationalPoly":
        return self + (-other)

    def __neg__(self) -> "RationalPoly":
        return _canonical(self.variables, {e: -c for e, c in self._num.items()}, self._den)

    def __mul__(self, other: "RationalPoly | Scalar") -> "RationalPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_ring(other)
        if (reduce(or_, self._num, 0) | reduce(or_, other._num, 0)) & _guard_bits(
                len(self.variables)):
            raise ValueError(f"product would carry an exponent past its field: a factor "
                             f"has an exponent of at least {EXPONENT_LIMIT}")
        out: dict[int, int] = {}
        get = out.get
        other_items = other._num.items()
        for e1, c1 in self._num.items():
            for e2, c2 in other_items:
                key = e1 + e2
                out[key] = get(key, 0) + c1 * c2
        return _canonical(self.variables, {e: c for e, c in out.items() if c},
                          self._den * other._den)

    __rmul__ = __mul__

    def scale(self, c: Scalar) -> "RationalPoly":
        c = _as_fraction(c)
        if not c:
            return _canonical(self.variables, {}, 1)
        return _canonical(self.variables,
                          {e: v * c.numerator for e, v in self._num.items()},
                          self._den * c.denominator)

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
