"""Exact multivariate polynomials with rational coefficients.

Small dict-backed polynomial ring used as the zero-tolerance side of
identity checks: two expressions agree as polynomials iff their difference
normalizes to the empty term map.  Keys are exponent tuples aligned with
``variables``.

A polynomial is stored as integer numerators over one common positive
denominator, so the ring operations multiply and add Python ints and
reduce by a single gcd at the end instead of normalizing a ``Fraction``
per term.  The form is canonical: no zero numerators, ``_den > 0``,
``gcd(_den, *numerators) == 1``, and the zero polynomial has ``_den == 1``.
Equality and hashing therefore compare the stored numbers directly.
``terms`` is the read view as ``{exponents: Fraction}``.

Only the ring operations needed by the orthogonal-polynomial checks are
implemented; this is an oracle, not a computer-algebra system.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Sequence, Union

from .multiindex import _multi_index

Scalar = Union[int, Fraction]


def _as_fraction(c: Scalar) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficients must be exact rationals, got {type(c).__name__}")


def _canonical(variables: tuple[str, ...], num: dict[tuple[int, ...], int],
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
        clean: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in (terms or {}).items():
            key = _multi_index(exps, len(self.variables))
            val = _as_fraction(coeff)
            if val:
                clean[key] = val
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
        out = {e: c * f1 for e, c in self._num.items()}
        for exps, coeff in other._num.items():
            out[exps] = out.get(exps, 0) + coeff * f2
        return _canonical(self.variables, {e: c for e, c in out.items() if c}, den)

    def __sub__(self, other: "RationalPoly") -> "RationalPoly":
        return self + (-other)

    def __neg__(self) -> "RationalPoly":
        return _canonical(self.variables, {e: -c for e, c in self._num.items()}, self._den)

    def __mul__(self, other: "RationalPoly | Scalar") -> "RationalPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_ring(other)
        out: dict[tuple[int, ...], int] = {}
        get = out.get
        other_items = other._num.items()
        for e1, c1 in self._num.items():
            for e2, c2 in other_items:
                key = tuple(map(add, e1, e2))
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
        return {e: Fraction(c, self._den) for e, c in self._num.items()}

    def is_zero(self) -> bool:
        return not self._num

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._num:
            return -1
        return max(sum(e) for e in self._num)

    def coefficient(self, exps: Iterable[int]) -> Fraction:
        return Fraction(self._num.get(_multi_index(exps, len(self.variables)), 0), self._den)

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
