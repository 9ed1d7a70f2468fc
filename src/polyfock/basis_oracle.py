"""Kernel oracle built from Gaussian monomial moments and Gram-Schmidt.

Nothing here touches the closed-form kernels: the only inputs are the exact
moments of the Gaussian measure (alpha/pi)^n e^{-alpha |z|^2}.  Against
those moments, the monomials z^p conj(z)^q satisfy, coordinate by
coordinate,

    <z^a conj(z)^b, z^c conj(z)^d> = (a+d)! / alpha^(a+d)   if a + d = b + c,
                                     0                      otherwise,

so two monomials are orthogonal unless p1 - q1 = p2 - q2 componentwise, and
Gram-Schmidt runs inside each such charge class.  Summing B(w) conj(B(z))
over the resulting orthonormal basis (conj-degree <= m-1, holomorphic
degree <= p_max) reproduces the space's kernel up to a super-geometrically
small truncation tail: an independent check of the closed form.

Both routes read one class enumeration, :func:`_class_charges` as
(c+, c-, level): class c+ - c- holds z^(c+ + s) conj(z)^(c- + s) for the
first C(n+level, n) rows s of :func:`_graded_members`.
:func:`build_orthonormal_basis` materializes the basis by exact rational
Gram-Schmidt (alpha rational); it is the reference the streamed
:func:`kernel_via_basis` is tested against.  The latter never forms a
monomial value: each class adds a phase times a small real quadratic form
in the radial values |z_r|^(2 s_r), through a batched float Cholesky of the
alpha-free norm-scaled class Grams and :func:`solve_triangular`, a forward
substitution over a whole stack of class factors.

Sharing input validation with :mod:`polyfock.multiindex`, the kernels'
point rule, :class:`KernelSpec` and ``ratpoly._rational``, none of which
evaluates anything, keeps the oracle independent of the closed forms.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .kernels import KernelSpec, _cpoint
from .multiindex import _integer, _multi_index, build_index_table, index_array
from .ratpoly import _rational

_log = logging.getLogger("polyfock")


def _exact_alpha(alpha) -> Fraction:
    """alpha for exact arithmetic: a rational (``ratpoly._rational``) that KernelSpec accepts."""
    return KernelSpec(1, 1, _rational(alpha, "alpha")).alpha


def gaussian_monomial_inner(alpha, p1, q1, p2, q2):
    """Moment <z^p1 conj(z)^q1, z^p2 conj(z)^q2> against (alpha/pi)^n e^{-alpha|z|^2}.

    Exact: alpha must be a positive int or Fraction, and the moment is a Fraction.
    """
    alpha = _exact_alpha(alpha)
    n = np.size(p1)
    return _monomial_inner(alpha, *(_multi_index(t, n) for t in (p1, q1, p2, q2)))


def _monomial_inner(alpha: Fraction, p1, q1, p2, q2) -> Fraction:
    """:func:`gaussian_monomial_inner` on arguments it has already checked."""
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


def _class_charges(n: int, m: int, p_max: int):
    """Every charge class as exponents (c+, c-) with disjoint supports, and its level.

    Returns ``(plus, minus, level)``, shapes (N, n), (N, n), (N,).  Class c+ - c-
    holds z^(c+ + s) conj(z)^(c- + s) for |s| <= level = min(m-1-|c-|, p_max-|c+|).
    """
    ps = index_array(n, p_max)
    pairs = [(ps[(ps[:, neg > 0] == 0).all(axis=1)], neg) for neg in build_index_table(n, m).array]
    plus = np.concatenate([p for p, _ in pairs])
    minus = np.concatenate([np.broadcast_to(neg, p.shape) for p, neg in pairs])
    return plus, minus, np.minimum(m - 1 - minus.sum(axis=1), p_max - plus.sum(axis=1))


def _graded_members(n: int, m: int) -> np.ndarray:
    """The s with |s| <= m-1 by (|s|, s), s lexicographic: level K is the first C(n+K, n) rows."""
    members = build_index_table(n, m).array
    return members[np.argsort(members.sum(axis=1), kind="stable")]


# Elements per batched array; bounds the memory of the class batches.
_BATCH_ELEMENTS = 1 << 19


def _coordinate_factors(alpha: float, top: int, m: int):
    """Per-coordinate factors of the class Gram entries and of 1 / ||monomial||.

    For absolute charge a = 0..top and member exponents x, y < m these are
    gram[a, x, y] = (a+x+y)! / sqrt((a+2x)! (a+2y)!), alpha-free and exactly
    1 at x = y, and scale[a, x] = sqrt(alpha^(a+2x) / (a+2x)!), both through
    log-factorials to stay in range.
    """
    # log(k!), each rounded once from the exact factorial
    log_fact = np.array([math.log(math.factorial(k)) for k in range(top + 2 * m - 1)])
    a = np.arange(top + 1)[:, None]
    x = np.arange(m)
    own = log_fact[a + 2 * x]
    gram = np.exp(log_fact[(a + x)[:, :, None] + x] - 0.5 * (own[:, :, None] + own[:, None, :]))
    scale = np.exp(0.5 * ((a + 2 * x) * math.log(alpha) - own))
    return gram, scale


def _powers(x: np.ndarray, top: int) -> np.ndarray:
    """x[:, r] ** e for e = 0..top by cumulative products, shape (n, top+1, len(x))."""
    steps = np.repeat(x.T[:, None, :], top + 1, axis=1)
    steps[:, 0] = 1
    return np.cumprod(steps, axis=1)


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
    """Classical Gram-Schmidt of the monomials over Fractions, normalized at the end.

    Inner products come from :func:`gaussian_monomial_inner`'s unchecked
    core, one per entry of the upper triangle (the Gram is real and
    symmetric), so the columns are exactly orthogonal; a square root enters
    only in each column's scaling.
    """
    k = len(members)
    G = [[Fraction(0)] * k for _ in range(k)]
    for i, a in enumerate(members):
        for j in range(i, k):
            G[i][j] = G[j][i] = _monomial_inner(alpha, *a, *members[j])
    C = np.zeros((k, k))
    cols: list[tuple[list[Fraction], Fraction]] = []
    for j in range(k):
        vec = [Fraction(int(t == j)) for t in range(k)]
        for col, nrm2 in cols:  # subtract the projection of m_j on each o_i = col
            ratio = sum(g * c for g, c in zip(G[j], col)) / nrm2
            vec = [v - ratio * c for v, c in zip(vec, col)]
        nrm2 = sum(v * sum(g * u for g, u in zip(row, vec)) for v, row in zip(vec, G))
        if nrm2 <= 0:
            raise ArithmeticError("class Gram matrix is not positive definite")
        cols.append((vec, nrm2))
        C[:, j] = [float(v) * (1 / math.sqrt(nrm2)) for v in vec]
    return C


def build_orthonormal_basis(alpha, n: int, m: int, p_max: int) -> list[BasisElement]:
    """Orthonormal basis of the span of z^p conj(z)^q, |q| <= m-1, |p| <= p_max.

    Exact rational Gram-Schmidt, so alpha must be an int or a Fraction.  The
    classes are those :func:`kernel_via_basis` reads, listed by the charge
    p - q (lexicographic); a class's elements are listed by (|q|, q), q
    lexicographic, which is :func:`_graded_members` shifted by c-.
    """
    alpha = _exact_alpha(alpha)
    KernelSpec(n, m, alpha)  # refuses bad (n, m) before any class is built
    p_max = _integer(p_max, "p_max")
    plus, minus, level = _class_charges(n, m, p_max)
    members = _graded_members(n, m)
    out = []
    for c in np.lexsort((plus - minus)[:, ::-1].T).tolist():  # last key sorts first
        s = members[: math.comb(n + int(level[c]), n)]
        pairs = list(zip(map(tuple, (plus[c] + s).tolist()), map(tuple, (minus[c] + s).tolist())))
        C = _class_factor_exact(pairs, alpha)
        out.extend(BasisElement(p=p, q=q, monomials=tuple(pairs[: j + 1]), coeffs=C[: j + 1, j].copy())
                   for j, (p, q) in enumerate(pairs))
    return out


def kernel_via_basis(alpha, n: int, m: int, p_max: int, z, w):
    """Truncated kernel sum over the orthonormal basis: sum_B B(w) conj(B(z)).

    A monomial of charge c = c+ - c- and member s is phi_c(z) rho_s(z), with
    phi_c(z) = z^(c+) conj(z)^(c-) and rho_s(z) = prod_r |z_r|^(2 s_r), so
    class c adds phi_c(w) conj(phi_c(z)) (E rho(w)) . (E rho(z)), where
    E = L^{-1} diag(1/||monomial||), L L^T is the norm-scaled class Gram
    matrix and the rho table has d rows shared by all classes.  The classes
    of one level go in batches of capped size through one Cholesky, one
    :func:`solve_triangular` against the identity and one matmul with the
    rho rows.  z and w (last axis n, a scalar at n = 1) broadcast over
    leading axes.  Logs the class and monomial counts, the class-size
    histogram, the smallest Cholesky pivot, the number of solve batches and
    the largest batch shape (classes, class size, columns) to the
    ``polyfock`` logger at DEBUG level.
    """
    KernelSpec(n, m, alpha)  # refuses bad (n, m, alpha) before any class is built
    p_max = _integer(p_max, "p_max")
    z = _cpoint(z, n)
    w = _cpoint(w, n)
    shape = np.broadcast_shapes(z.shape[:-1], w.shape[:-1])
    z = np.broadcast_to(z, shape + (n,)).reshape(-1, n)
    w = np.broadcast_to(w, shape + (n,)).reshape(-1, n)
    points = z.shape[0]

    plus, minus, level = _class_charges(n, m, p_max)
    members = _graded_members(n, m)
    # rho_s at columns [w points | z points]; phi_c(w) conj(phi_c(z)) per
    # coordinate from powers of w conj(z), indexed by c_r + m - 1.
    x = np.concatenate([w, z])
    radial = _powers(x.real ** 2 + x.imag ** 2, m - 1)
    rho = np.prod([radial[r, members[:, r]] for r in range(n)], axis=0)
    u = w * np.conj(z)
    phases = np.concatenate([_powers(np.conj(u), m - 1)[:, :0:-1], _powers(u, p_max)], axis=1)
    charge = plus - minus + (m - 1)
    gram_factor, scale_factor = _coordinate_factors(float(alpha), max(p_max, m - 1), m)

    total, pivot = np.zeros(points, dtype=complex), math.inf
    sizes, batches, largest = {}, 0, (0, 0, 0)
    for K in np.unique(level).tolist():
        k, classes = math.comb(n + K, n), np.flatnonzero(level == K)
        s, sizes[k] = members[:k], len(classes)
        step = max(1, _BATCH_ELEMENTS // max(k * k, m * m, 2 * k * points))
        for lo in range(0, len(classes), step):
            batch = classes[lo : lo + step]
            a = plus[batch] + minus[batch]
            gram, scale, phase = 1.0, 1.0, 1.0
            for r in range(n):
                gram = gram * gram_factor[a[:, r]][:, s[:, None, r], s[:, r]]
                scale = scale * scale_factor[a[:, r]][:, s[:, r]]
                phase = phase * phases[r, charge[batch, r]]
            L = np.linalg.cholesky(gram)
            pivot = min(pivot, float(np.min(np.diagonal(L, axis1=-2, axis2=-1))) ** 2)
            E = solve_triangular(L, np.broadcast_to(np.eye(k), L.shape)) * scale[:, None, :]
            values = (E.reshape(-1, k) @ rho[:k]).reshape(len(batch), k, 2 * points)
            batches += 1
            largest = max(largest, values.shape, key=math.prod)
            quadratic = np.einsum("bkp,bkp->bp", values[..., :points], values[..., points:])
            total += np.sum(phase * quadratic, axis=0)

    _log.debug("kernel_via_basis n=%d m=%d p_max=%d: %d charge classes, %d monomials, "
               "class sizes %s, smallest Cholesky pivot %.3e, %d solve batches, largest batch %s",
               n, m, p_max, len(level), sum(k * c for k, c in sizes.items()), sizes, pivot,
               batches, largest)
    return total.reshape(shape)
