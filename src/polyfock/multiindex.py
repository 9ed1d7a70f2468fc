"""Lexicographic tables of multi-indices with bounded total degree.

A space of polyanalytic type ``m`` over ``C^n`` decomposes along the
multi-indices ``k`` in ``N_0^n`` with ``|k| = k_1 + ... + k_n <= m - 1``.
This module enumerates that index set in lexicographic order, exposes the
resulting position bijection, and computes its size

    d(n, m) = C(n + m - 1, n),

which is the vector-space dimension showing up in kernel normalizations and
in the width of matrix symbols.

Three things live only here: :func:`_integer` parses every integer scalar
argument of the library (n and m, orders, degrees, counts, truncations),
:func:`_multi_index` parses every multi-index argument (both refuse, not
truncate, non-integers), and :func:`index_array` builds every exponent
array of bounded total degree, :attr:`IndexTable.array` included.
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


def _integer(value, label: str, low: int = 0) -> int:
    """value as a Python int >= low.

    Bools, floats and other non-integers raise TypeError; a value below
    ``low`` raises ValueError.
    """
    if not _is_integer(value):
        raise TypeError(f"{label} must be an integer, got {value!r}")
    value = operator.index(value)
    if value < low:
        raise ValueError(f"{label} must be >= {low}, got {value}")
    return value


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


def dimension(n: int, m: int) -> int:
    """Number of multi-indices k in N_0^n with |k| <= m - 1.

    Equals the binomial coefficient C(n + m - 1, n).  Exact for any
    positive n, m (Python integers never wrap around); the library as a
    whole is exercised for n + m <= 40.
    """
    n, m = _integer(n, "n", 1), _integer(m, "m", 1)
    return math.comb(n + m - 1, n)


def index_array(n: int, budget: int) -> np.ndarray:
    """The k in N_0^n with |k| <= budget as (count, n) ``intp`` rows, in lexicographic order.

    Built from the last coordinate forward: the rows of one more coordinate
    are every head h in 0..budget in front of every lexicographic tail of
    sum <= budget - h.  numpy's ``nonzero`` of the (head, tail) mask walks
    heads first and tails in their order, so no sort is needed and the full
    (budget + 1)**n cube is never formed.  ``n`` and ``budget`` are trusted
    Python ints >= 0.
    """
    limits = budget - np.arange(budget + 1)[:, None]
    columns, sums = [], np.zeros(1, dtype=np.intp)
    for _ in range(n):
        head, tail = np.nonzero(sums <= limits)
        columns = [head, *(column[tail] for column in columns)]
        sums = head + sums[tail]
    rows = np.empty((len(sums), n), dtype=np.intp)
    for r, column in enumerate(columns):
        rows[:, r] = column
    return rows


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
        object.__setattr__(self, "n", _integer(self.n, "n", 1))
        object.__setattr__(self, "m", _integer(self.m, "m", 1))
        array = index_array(self.n, self.m - 1)
        array.flags.writeable = False
        indices = tuple(map(tuple, array.tolist()))
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "_pos", {k: j for j, k in enumerate(indices, start=1)})
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
    Consecutive indices of the lexicographic table share their leading
    entries, and the partial product of a shared prefix is computed once:
    about half the multiplications of one product per index at n = m = 5,
    with bit-identical results.  At n >= 2 every yielded array is new; at
    n = 1 it is the row factors[k_1, ..., 0] itself.  Either way, no two
    yielded arrays share memory.
    """
    n = table.n
    prefix = [None] * n  # prefix[r]: the product over coordinates 0..r of the last index
    last = None
    for k in table:
        start = 0 if last is None else next(r for r in range(n) if k[r] != last[r])
        for r in range(start, n):
            row = factors[k[r], ..., r]
            prefix[r] = row if r == 0 else prefix[r - 1] * row
        last = k
        yield prefix[-1]
