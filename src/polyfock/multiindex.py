"""Lexicographic tables of multi-indices with bounded total degree.

A space of polyanalytic type ``m`` over ``C^n`` decomposes along the
multi-indices ``k`` in ``N_0^n`` with ``|k| = k_1 + ... + k_n <= m - 1``.
This module enumerates that index set in lexicographic order, exposes the
resulting position bijection, and computes its size

    d(n, m) = C(n + m - 1, n),

which is the vector-space dimension showing up in kernel normalizations and
in the width of matrix symbols.

Two things live only here: :func:`_multi_index` parses every multi-index
argument of the library (refusing, not truncating, non-integer entries),
and :attr:`IndexTable.array` is the one exponent array of a table.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np


def _is_integer(value) -> bool:
    """True for Python and NumPy integers; False for bool, floats and the rest."""
    if isinstance(value, bool):
        return False
    try:
        operator.index(value)
    except TypeError:
        return False
    return True


def _multi_index(k, n: int, low: int = 0) -> tuple[int, ...]:
    """k as n Python ints >= low (a bare integer at n = 1).

    Non-integer entries (floats, bools) raise TypeError; a wrong length or
    an entry below ``low`` raises ValueError.
    """
    entries = tuple(k) if np.iterable(k) else (k,)
    if not all(map(_is_integer, entries)):
        raise TypeError(f"multi-index entries must be integers, got {k!r}")
    key = tuple(map(operator.index, entries))
    if len(key) != n or any(c < low for c in key):
        raise ValueError(f"expected a multi-index of {n} integers >= {low}, got {key}")
    return key


def _validate_nm(n: int, m: int) -> None:
    if not (_is_integer(n) and _is_integer(m)):
        raise TypeError(f"n and m must be integers, got n={n!r}, m={m!r}")
    if n < 1 or m < 1:
        raise ValueError(f"n and m must be positive, got n={n}, m={m}")


def dimension(n: int, m: int) -> int:
    """Number of multi-indices k in N_0^n with |k| <= m - 1.

    Equals the binomial coefficient C(n + m - 1, n).  Exact for any
    positive n, m (Python integers never wrap around); the library as a
    whole is exercised for n + m <= 40.
    """
    _validate_nm(n, m)
    return math.comb(n + m - 1, n)


def _enumerate(n: int, budget: int) -> Iterator[tuple[int, ...]]:
    # Recursive descent emits the indices in lexicographic order without
    # materializing the full m**n cube.
    if n == 0:
        yield ()
        return
    for head in range(budget + 1):
        for tail in _enumerate(n - 1, budget - head):
            yield (head,) + tail


@dataclass(frozen=True)
class IndexTable:
    """Ordered multi-index set ``{k : |k| <= m - 1}`` for fixed n, m.

    Built from (n, m) alone; ``indices`` is lexicographically sorted, so
    positions are stable across runs.  ``phi`` maps a 1-based position to
    its multi-index and ``position`` inverts it; both directions are total
    on the table.  ``array`` holds the indices as read-only (d, n) ``intp``
    rows.
    """

    n: int
    m: int
    indices: tuple[tuple[int, ...], ...] = field(init=False)
    _pos: dict[tuple[int, ...], int] = field(init=False, repr=False, compare=False)
    array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _validate_nm(self.n, self.m)
        indices = tuple(_enumerate(self.n, self.m - 1))
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "_pos", {k: j for j, k in enumerate(indices, start=1)})
        array = np.array(indices, dtype=np.intp)
        array.flags.writeable = False
        object.__setattr__(self, "array", array)

    @property
    def d(self) -> int:
        return len(self.indices)

    def phi(self, j: int) -> tuple[int, ...]:
        """Multi-index at 1-based position j."""
        if not 1 <= j <= self.d:
            raise IndexError(f"position {j} outside 1..{self.d}")
        return self.indices[j - 1]

    def position(self, k: Sequence[int]) -> int:
        """1-based position of multi-index k; raises KeyError if absent."""
        key = _multi_index(k, self.n)
        try:
            return self._pos[key]
        except KeyError:
            raise KeyError(f"{key} is not in the table (n={self.n}, m={self.m})") from None

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.indices)


def build_index_table(n: int, m: int) -> IndexTable:
    """Enumerate all k in N_0^n with |k| <= m - 1 in lexicographic order."""
    return IndexTable(n, m)


def index_products(table: IndexTable, factors) -> Iterator:
    """Yield prod_r factors[k_r, ..., r] for each k of the table, in table order.

    ``factors`` has shape (levels, ..., n) with levels >= m: entry
    [p, ..., r] is the degree-p factor on coordinate r.  The product is
    taken left to right over r, so every caller gets the same rounding.
    """
    for k in table:
        prod = factors[k[0], ..., 0]
        for r in range(1, table.n):
            prod = prod * factors[k[r], ..., r]
        yield prod
