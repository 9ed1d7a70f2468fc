"""Kernel oracle built from Gaussian monomial moments and Gram-Schmidt.

Nothing here touches the closed-form kernels: the only inputs are the exact
moments of the Gaussian measure (alpha/pi)^n e^{-alpha |z|^2}.  Against
those moments, the monomials z^p conj(z)^q satisfy, coordinate by
coordinate,

    <z^a conj(z)^b, z^c conj(z)^d> = (a+d)! / alpha^(a+d)   if a + d = b + c,
                                     0                      otherwise,

so two monomials are orthogonal unless p1 - q1 = p2 - q2 componentwise.
Gram-Schmidt therefore runs independently inside each such charge class,
always a family of at most C(n+m-1, n) monomials once conj-degree is capped
at m - 1.  Summing B(w) conj(B(z)) over the resulting orthonormal basis
(conj-degree <= m-1, holomorphic degree <= p_max) reproduces the space's
kernel up to a super-geometrically small truncation tail, which is what
makes this an independent check of the closed form.

:func:`build_orthonormal_basis` materializes the basis by exact rational
Gram-Schmidt (alpha rational), where orthogonality is exact and only the
final normalization leaves the rationals; it is the reference the
streamed :func:`kernel_via_basis` is tested against.  The latter runs a
batched float Cholesky on norm-scaled monomials, whose class Gram entries
s!/sqrt((a+b)!(c+d)!) are alpha-free and lie in (0, 1], inverts the whole
stack of class factors by :func:`solve_triangular`, a forward
substitution that solves one row at a time across the stack, and turns
monomial values into basis values by one batched matmul with the inverses.

Sharing input validation with :mod:`polyfock.multiindex` (and the kernels'
point rule and :class:`KernelSpec`), which evaluates nothing, keeps the
oracle independent of the closed forms.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .kernels import KernelSpec, _cpoint
from .multiindex import _integer, _multi_index, build_index_table

_log = logging.getLogger("polyfock")


def _exact_alpha(alpha) -> Fraction:
    """alpha for exact arithmetic: an int or Fraction (not a bool) that KernelSpec accepts."""
    if isinstance(alpha, bool) or not isinstance(alpha, (int, Fraction)):
        raise ValueError(f"exact arithmetic needs a rational alpha, got {alpha!r}")
    return Fraction(KernelSpec(1, 1, alpha).alpha)


def gaussian_monomial_inner(alpha, p1, q1, p2, q2):
    """Moment <z^p1 conj(z)^q1, z^p2 conj(z)^q2> against (alpha/pi)^n e^{-alpha|z|^2}.

    Exact: alpha must be a positive int or Fraction, and the moment is a Fraction.
    """
    alpha = _exact_alpha(alpha)
    n = np.size(p1)
    p1, q1, p2, q2 = (_multi_index(t, n) for t in (p1, q1, p2, q2))
    total = Fraction(1)
    for a, b, c, d in zip(p1, q1, p2, q2):
        if a + d != b + c:
            return Fraction(0)
        s = a + d
        total *= Fraction(math.factorial(s), 1) / alpha ** s
    return total


@dataclass(frozen=True)
class BasisElement:
    """One orthonormal combination of monomials from a single charge class.

    ``monomials`` lists the (p, q) exponent pairs, ``coeffs`` the real
    coefficients; the element evaluates to sum coeffs_i w^{p_i} conj(w)^{q_i}.
    The leading pair (the one Gram-Schmidt introduced last) is (p, q).
    """

    p: tuple[int, ...]
    q: tuple[int, ...]
    monomials: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    coeffs: np.ndarray

    def __call__(self, w):
        w = _cpoint(w, len(self.p))
        total = np.zeros(w.shape[:-1], dtype=complex)
        for (p, q), c in zip(self.monomials, self.coeffs):
            term = np.full(w.shape[:-1], complex(c))
            for r, (pe, qe) in enumerate(zip(p, q)):
                if pe:
                    term = term * w[..., r] ** pe
                if qe:
                    term = term * np.conj(w[..., r]) ** qe
            total = total + term
        return total


def _charge_classes(n: int, m: int, p_max: int):
    """Group monomials (|q| <= m-1, |p| <= p_max) by the charge p - q.

    Returns ``(P, Q, starts)``: exponent arrays of shape (N, n), sorted by
    (charge, |q|, q), and the offsets at which the classes start, with N
    appended.  The class Gram matrices are dense and everything across
    classes is orthogonal.
    """
    ps = build_index_table(n, p_max + 1).array
    qs = build_index_table(n, m).array
    P = np.repeat(ps, len(qs), axis=0)
    Q = np.tile(qs, (len(ps), 1))
    charge = P - Q
    # np.lexsort sorts by its last key first.
    keys = tuple(Q[:, ::-1].T) + (Q.sum(axis=1),) + tuple(charge[:, ::-1].T)
    order = np.lexsort(keys)
    P, Q, charge = P[order], Q[order], charge[order]
    new = np.ones(len(charge), dtype=bool)
    new[1:] = np.any(charge[1:] != charge[:-1], axis=1)
    return P, Q, np.append(np.flatnonzero(new), len(charge))


# Elements per batched array; bounds the memory of the class batches.
_BATCH_ELEMENTS = 1 << 19


def _size_groups(starts: np.ndarray, n: int, width: int = 0):
    """Batches of equal-size classes: yields (k, member rows of shape (batch, k)).

    A class of size k counts as k * max(k * n, width) array elements (its
    Gram index array, or ``width`` values per member); batches hold at most
    ``_BATCH_ELEMENTS`` of them, so memory stays bounded at large
    truncations.
    """
    sizes = np.diff(starts)
    for k in np.unique(sizes):
        k = int(k)
        first = starts[:-1][sizes == k]
        step = max(1, _BATCH_ELEMENTS // (k * max(k * n, width)))
        for lo in range(0, len(first), step):
            yield k, first[lo : lo + step, None] + np.arange(k)


def _log_factorials(top: int) -> np.ndarray:
    """log(k!) for k = 0..top, each rounded once from the exact factorial."""
    return np.array([math.log(math.factorial(k)) for k in range(top + 1)])


def _class_grams(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Gram matrices of norm-scaled class monomials; entries are alpha-free.

    P, Q hold the exponents of classes of k monomials, shape (..., k, n).
    With hat{m} = m / ||m||, the (i, j) entry per coordinate is
    s! / sqrt((a+b)! (c+d)!) with (a, b) from monomial i, (c, d) from
    monomial j and s = a + d = b + c, computed through log-factorials to
    stay in range.  The diagonal is exactly 1.
    """
    log_fact = _log_factorials(P.max(initial=0) + Q.max(initial=0))
    half = 0.5 * log_fact[P + Q].sum(axis=-1)
    cross = log_fact[P[..., :, None, :] + Q[..., None, :, :]].sum(axis=-1)
    return np.exp(cross - half[..., :, None] - half[..., None, :])


def _inverse_norms(P: np.ndarray, Q: np.ndarray, alpha: float) -> np.ndarray:
    """1 / ||z^p conj(z)^q|| = prod_r sqrt(alpha^(p+q) / (p+q)!) per monomial."""
    deg = P + Q
    log_fact = _log_factorials(deg.max(initial=0))
    return np.exp(0.5 * (deg.sum(axis=-1) * math.log(alpha) - log_fact[deg].sum(axis=-1)))


def _powers(x: np.ndarray, top: int) -> np.ndarray:
    """x[:, r] ** e for e = 0..top by cumulative products, shape (n, top+1, len(x))."""
    steps = np.repeat(x.T[:, None, :], top + 1, axis=1)
    steps[:, 0] = 1
    return np.cumprod(steps, axis=1)


def _monomial_values(pow_x, pow_cx, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """x^p conj(x)^q from power tables, shape P.shape[:-1] + (points,)."""
    out = pow_x[0, P[..., 0]] * pow_cx[0, Q[..., 0]]
    for r in range(1, P.shape[-1]):
        out *= pow_x[r, P[..., r]] * pow_cx[r, Q[..., r]]
    return out


def solve_triangular(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L x = b for a stack of lower-triangular factors by forward substitution.

    L has shape (..., k, k) and b (..., k, c).  Row i of x is solved for
    every matrix of the stack at once, from the rows before it, so the
    Python loop runs k times however many factors are stacked.
    """
    x = np.empty(b.shape, dtype=np.result_type(L, b))
    for i in range(L.shape[-1]):
        done = (L[..., i, None, :i] @ x[..., :i, :])[..., 0, :]
        x[..., i, :] = (b[..., i, :] - done) / L[..., i, i, None]
    return x


def _class_factor_exact(members, alpha: Fraction):
    """Rational Gram-Schmidt: orthogonal columns over Q, normalized at the end.

    Runs classical Gram-Schmidt on the raw monomials with Fraction
    arithmetic (inner products from :func:`gaussian_monomial_inner`), so the
    pairwise orthogonality of the output is exact; square roots enter only
    in the final scaling column by column.
    """
    k = len(members)
    G = [[gaussian_monomial_inner(alpha, members[i][0], members[i][1],
                                  members[j][0], members[j][1])
          for j in range(k)] for i in range(k)]
    cols: list[list[Fraction]] = []
    norms2: list[Fraction] = []
    for j in range(k):
        vec = [Fraction(0)] * k
        vec[j] = Fraction(1)
        for i in range(j):
            # <m_j, o_i> with o_i = cols[i]
            proj = sum(G[j][t] * cols[i][t] for t in range(k) if cols[i][t])
            if proj:
                ratio = proj / norms2[i]
                for t in range(k):
                    if cols[i][t]:
                        vec[t] -= ratio * cols[i][t]
        nrm2 = Fraction(0)
        for a in range(k):
            if not vec[a]:
                continue
            nrm2 += vec[a] * sum(G[a][b] * vec[b] for b in range(k) if vec[b])
        if nrm2 <= 0:
            raise ArithmeticError("class Gram matrix is not positive definite")
        cols.append(vec)
        norms2.append(nrm2)
    C = np.zeros((k, k))
    for j in range(k):
        scale = 1 / math.sqrt(norms2[j])
        for i in range(k):
            if cols[j][i]:
                C[i, j] = float(cols[j][i]) * scale
    return C


def build_orthonormal_basis(alpha, n: int, m: int, p_max: int) -> list[BasisElement]:
    """Orthonormal basis of the span of z^p conj(z)^q, |q| <= m-1, |p| <= p_max.

    Exact rational Gram-Schmidt, so alpha must be an int or a Fraction.
    Output order is deterministic: classes sorted by charge, elements by
    conj-degree.
    """
    KernelSpec(n, m, alpha)  # refuses bad (n, m, alpha) before any class is built
    alpha = _exact_alpha(alpha)
    p_max = _integer(p_max, "p_max")
    P, Q, starts = _charge_classes(n, m, p_max)
    out = []
    for lo, hi in zip(starts[:-1], starts[1:]):
        members = list(zip(map(tuple, P[lo:hi].tolist()), map(tuple, Q[lo:hi].tolist())))
        C = _class_factor_exact(members, alpha)
        for j in range(len(members)):
            p, q = members[j]
            out.append(BasisElement(p=p, q=q, monomials=tuple(members[: j + 1]),
                                    coeffs=C[: j + 1, j].copy()))
    return out


def kernel_via_basis(alpha, n: int, m: int, p_max: int, z, w):
    """Truncated kernel sum over the orthonormal basis: sum_B B(w) conj(B(z)).

    Charge classes of equal size are factored together: one batched
    Cholesky of their Gram matrices, one forward substitution that inverts
    the stack of factors (:func:`solve_triangular` against the identity, k
    columns per class however many points there are) and one batched
    matmul turn the norm-scaled monomial values at w and z into
    basis-element values, so elements are never materialized.  Batches are
    capped in size, so large p_max truncations stay affordable.  z and w
    (last axis n, a scalar at n = 1) broadcast over leading axes.  Logs the
    class count, the class-size histogram, the smallest Cholesky pivot, the
    number of solve batches and the largest batch shape (classes, class
    size, columns) to the ``polyfock`` logger at DEBUG level.
    """
    KernelSpec(n, m, alpha)  # refuses bad (n, m, alpha) before any class is built
    p_max = _integer(p_max, "p_max")
    z = _cpoint(z, n)
    w = _cpoint(w, n)
    shape = np.broadcast_shapes(z.shape[:-1], w.shape[:-1])
    z = np.broadcast_to(z, shape + (n,)).reshape(-1, n)
    w = np.broadcast_to(w, shape + (n,)).reshape(-1, n)
    points = z.shape[0]

    P, Q, starts = _charge_classes(n, m, p_max)
    scales = _inverse_norms(P, Q, float(alpha))
    tables = [(_powers(x, p_max), _powers(np.conj(x), m - 1)) for x in (w, z)]

    total = np.zeros(points, dtype=complex)
    pivot = math.inf
    batches, largest = 0, (0, 0, 0)
    for k, rows in _size_groups(starts, n, width=2 * points):
        L = np.linalg.cholesky(_class_grams(P[rows], Q[rows]))
        pivot = min(pivot, float(np.min(np.diagonal(L, axis1=-2, axis2=-1))) ** 2)
        inverse = solve_triangular(L, np.broadcast_to(np.eye(k), L.shape))
        # One matmul for both sides: columns [w points | z points].
        values = np.concatenate([_monomial_values(pow_x, pow_cx, P[rows], Q[rows])
                                 for pow_x, pow_cx in tables], axis=-1)
        values *= scales[rows][..., None]
        elements = inverse @ values
        batches += 1
        largest = max(largest, elements.shape, key=math.prod)
        total += np.sum(elements[..., :points] * np.conj(elements[..., points:]), axis=(0, 1))

    sizes, counts = np.unique(np.diff(starts), return_counts=True)
    _log.debug("kernel_via_basis n=%d m=%d p_max=%d: %d charge classes, class sizes %s, "
               "smallest Cholesky pivot %.3e, %d solve batches, largest batch %s",
               n, m, p_max, len(starts) - 1, dict(zip(sizes.tolist(), counts.tolist())), pivot,
               batches, largest)
    return total.reshape(shape)
