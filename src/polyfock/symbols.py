"""Matrix symbols of vertical Toeplitz operators on the fiber decomposition.

After the fiber decomposition, a vertical operator (multiplication by
g(v) compressed to the fibers) acts xi-by-xi as the d x d matrix

    gamma_g(xi)_{r,s} = 2^{n/2} int g(v) prod_p psi_{phi(r)_p}((xi_p + 2 v_p)/sqrt(2))
                                         prod_p psi_{phi(s)_p}((xi_p + 2 v_p)/sqrt(2)) dv,

a Toeplitz-type compression in the fiber basis.  Horizontal translations
come out as scalar characters e^{-i<xi, a>} I, convolutions as
(Fourier transform of the kernel) I, and the shifted-argument form

    sigma_g(eta) = gamma_g(-eta / sqrt(2))

is carried as a second evaluation route.  For m >= 2 the gamma matrices of
two symbols generally fail to commute, which is what distinguishes the
polyanalytic calculus from the classical m = 1 (scalar) one.

Quadrature: every supported g is a sum of per-axis products,
g(v) = sum_k c_k prod_p f_kp(v_p), so gamma_g(xi) is 2^{n/2} times a sum
over k of Hadamard products of n one-dimensional m x m matrices
M_kp[a, b] = int f_kp(v) psi_a(t) psi_b(t) dv, t = (xi_p + 2v)/sqrt(2),
read at the table's multi-index coordinates.  Substituting t turns every
smooth axis into a textbook Gauss-Hermite integral.  The sign and box kinds
jump at axis-aligned breakpoints, so those axes use composite Gauss-Legendre
panels split exactly at the jumps instead.  The cost is n one-dimensional
quadratures per term rather than one order^n tensor rule.  The direct
route of :func:`sigma_from_gamma` keeps the tensor rule and evaluates g
itself, so it stays an independent check of that factorization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .kernels import _frequency, _real, _rpoint
from .multiindex import IndexTable, _is_integer, _multi_index, index_products
from .orthopoly import hermite_fn_table
from .quadrature import (
    FIBER_ORDER,
    check_rule_budget,
    gauss_hermite_1d,
    legendre_panels,
    place_hermite,
    tensor_rule,
)

# Gauss-Hermite tails are cut where e^{-t^2} has decayed to ~1e-35; the
# Legendre panels for discontinuous axes cover the matching v-interval.
T_CUT = 9.0

KINDS = (
    "constant",
    "polynomial",
    "gaussian-modulated-polynomial",
    "sign-of-coordinate",
    "box-indicator",
)


@dataclass(frozen=True)
class VerticalSymbol:
    """Multiplier g(v) on R^n from the closed family the calculus supports.

    Build through the constructors (:func:`constant`, :func:`polynomial`,
    :func:`gaussian_poly`, :func:`sign`, :func:`box`); ``terms`` holds
    (coefficient, exponent-tuple) pairs for the polynomial kinds.
    """

    n: int
    kind: str
    terms: tuple[tuple[complex, tuple[int, ...]], ...] = ()
    gauss_center: tuple[float, ...] = ()
    gauss_halfwidth: float = 1.0
    axis: int = 0
    lo: tuple[float, ...] = ()
    hi: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown symbol kind {self.kind!r}; expected one of {KINDS}")
        if not (_is_integer(self.n) and _is_integer(self.axis)):
            raise TypeError(f"n and axis must be integers, got n={self.n!r}, axis={self.axis!r}")
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if not 0 <= self.axis < self.n:
            raise ValueError(f"axis {self.axis} outside 0..{self.n - 1}")
        if self.kind == "gaussian-modulated-polynomial":
            h = self.gauss_halfwidth
            if len(self.gauss_center) != self.n or not np.all(np.isfinite(self.gauss_center)):
                raise ValueError(f"gauss_center must be {self.n} finite numbers, "
                                 f"got {self.gauss_center}")
            if not (math.isfinite(h) and h > 0):
                raise ValueError(f"halfwidth must be finite and positive, got {h}")
        if self.kind == "box-indicator":
            lo, hi = self.lo, self.hi
            if len(lo) != self.n or len(hi) != self.n or np.any(np.isnan(lo + hi)):
                raise ValueError(f"box needs {self.n} non-NaN bounds per side, got lo={lo}, hi={hi}")
            if any(a >= b for a, b in zip(lo, hi)):
                raise ValueError(f"box must have lo < hi on every axis, got lo={lo}, hi={hi}")

    # -- evaluation --------------------------------------------------------

    def __call__(self, v) -> np.ndarray:
        v = _rpoint(v, self.n)
        if self.kind == "constant":
            return np.full(v.shape[:-1], self.terms[0][0])
        if self.kind == "polynomial":
            return self._poly(v)
        if self.kind == "gaussian-modulated-polynomial":
            h = self.gauss_halfwidth
            envelope = np.exp(-np.sum((v - self.gauss_center) ** 2, axis=-1) / (2 * h * h))
            return self._poly(v) * envelope
        if self.kind == "sign-of-coordinate":
            return np.sign(v[..., self.axis]).astype(float)
        inside = np.all((v >= self.lo) & (v <= self.hi), axis=-1)
        return inside.astype(float)

    def _poly(self, v: np.ndarray) -> np.ndarray:
        total = np.zeros(v.shape[:-1], dtype=complex)
        for coeff, exps in self.terms:
            term = np.full(v.shape[:-1], coeff, dtype=complex)
            for r, e in enumerate(exps):
                if e:
                    term = term * v[..., r] ** e
            total = total + term
        if np.all(np.isreal([c for c, _ in self.terms])):
            return total.real
        return total

    # -- structure queries used by the quadrature assembly ------------------

    def breakpoints_on_axis(self, axis: int) -> tuple[float, ...]:
        """v-values where g may jump along the given axis (empty if smooth)."""
        if self.kind == "sign-of-coordinate":
            return (0.0,) if axis == self.axis else ()
        if self.kind == "box-indicator":
            return (self.lo[axis], self.hi[axis])
        return ()

    @property
    def is_real(self) -> bool:
        if self.kind in ("sign-of-coordinate", "box-indicator"):
            return True
        return all(complex(c).imag == 0 for c, _ in self.terms)

    def sup_bound(self) -> float | None:
        """Supremum of |g| when available; None for unbounded kinds.

        Exact for constant/sign/box.  The Gaussian-modulated kind is bounded
        but has no closed-form sup, so a dense scan over the envelope's
        effective support is used (adequate for test comparisons, not a
        certified bound).
        """
        if self.kind == "constant":
            return abs(self.terms[0][0])
        if self.kind in ("sign-of-coordinate", "box-indicator"):
            return 1.0
        if self.kind == "polynomial":
            if all(sum(e) == 0 for _, e in self.terms):
                return abs(sum(c for c, _ in self.terms))
            return None
        h = self.gauss_halfwidth
        axes = [np.linspace(ci - 10 * h, ci + 10 * h, 201) for ci in self.gauss_center]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        return float(np.max(np.abs(self(mesh))))

    def conjugate(self) -> "VerticalSymbol":
        if self.kind in ("sign-of-coordinate", "box-indicator"):
            return self
        terms = tuple((complex(c).conjugate(), e) for c, e in self.terms)
        return VerticalSymbol(self.n, self.kind, terms, self.gauss_center,
                              self.gauss_halfwidth, self.axis, self.lo, self.hi)


def constant(c, n: int = 1) -> VerticalSymbol:
    return VerticalSymbol(n, "constant", ((complex(c), (0,) * n),))


def polynomial(terms, n: int = 1) -> VerticalSymbol:
    """Polynomial symbol; ``terms`` is [(coeff, exponents)] or, for n=1, a
    flat coefficient list in ascending degree."""
    norm = _normalize_terms(terms, n)
    return VerticalSymbol(n, "polynomial", norm)


def gaussian_poly(terms, center=0.0, halfwidth: float = 1.0, n: int = 1) -> VerticalSymbol:
    """Polynomial times exp(-|v - center|^2 / (2 halfwidth^2))."""
    return VerticalSymbol(n, "gaussian-modulated-polynomial", _normalize_terms(terms, n),
                          _per_axis(center, n, "center"), float(halfwidth))


def sign(axis: int = 0, n: int = 1) -> VerticalSymbol:
    return VerticalSymbol(n, "sign-of-coordinate", axis=axis)


def box(lo, hi, n: int = 1) -> VerticalSymbol:
    return VerticalSymbol(n, "box-indicator", lo=_per_axis(lo, n, "box bound"),
                          hi=_per_axis(hi, n, "box bound"))


def _per_axis(x, n: int, label: str) -> tuple[float, ...]:
    """x (one number or n numbers) as n floats; complex values raise TypeError."""
    return tuple(np.broadcast_to(_real(x, label), (n,)).tolist())


def _normalize_terms(terms, n: int):
    seq = list(terms)
    if seq and np.isscalar(seq[0]):
        if n != 1:
            raise ValueError("flat coefficient lists are only defined for n = 1")
        seq = [(c, (e,)) for e, c in enumerate(seq)]
    out = [(complex(coeff), _multi_index(exps, n)) for coeff, exps in seq]
    if not out:
        out = [(0j, (0,) * n)]
    return tuple(out)


@dataclass(frozen=True)
class SymbolMatrix:
    """One fiber's d x d matrix at frequency xi."""

    xi: np.ndarray
    entries: np.ndarray

    @property
    def d(self) -> int:
        return self.entries.shape[0]


def _build_v_rule(xi_r: float, breakpoints: Sequence[float], order: int):
    lo = (-math.sqrt(2.0) * T_CUT - xi_r) / 2
    hi = (math.sqrt(2.0) * T_CUT - xi_r) / 2
    if breakpoints:
        cuts = sorted({lo, hi, *(b for b in breakpoints if lo < b < hi)})
        return legendre_panels(cuts, order)
    # t = (xi_r + 2v)/sqrt(2), so v = -xi_r/2 + t/sqrt(2)
    return place_hermite(gauss_hermite_1d(order), -xi_r / 2, math.sqrt(2.0) / 2)


def _psi_product_matrix(table: IndexTable, t: np.ndarray) -> np.ndarray:
    """Matrix [prod_r psi_{phi(j)_r}(t_r)]_{node, j}."""
    psi = hermite_fn_table(table.m - 1, t)  # (m, N, n)
    return np.stack(list(index_products(table, psi)), axis=-1)


def _axis_factors(g: VerticalSymbol) -> list[tuple[complex, list[Callable]]]:
    """g as a sum of per-axis products: [(c_k, [f_k0, ..., f_k,n-1])].

    g(v) = sum_k c_k prod_r f_kr(v_r), where each f_kr maps an array of
    v_r values to real values of the same shape.
    """
    if g.kind == "sign-of-coordinate":
        return [(1.0, [np.sign if r == g.axis else np.ones_like for r in range(g.n)])]
    if g.kind == "box-indicator":
        return [(1.0, [lambda v, a=a, b=b: ((v >= a) & (v <= b)).astype(float)
                       for a, b in zip(g.lo, g.hi)])]
    if g.kind == "gaussian-modulated-polynomial":
        h2 = 2 * g.gauss_halfwidth ** 2
        return [(coeff, [lambda v, e=e, c=c: v ** e * np.exp(-(v - c) ** 2 / h2)
                         for e, c in zip(exps, g.gauss_center)])
                for coeff, exps in g.terms]
    # constant and polynomial: one monomial per term (v^0 = 1)
    return [(coeff, [lambda v, e=e: v ** e for e in exps]) for coeff, exps in g.terms]


def gamma_toeplitz(table: IndexTable, g: VerticalSymbol, xi,
                   order: int | None = None) -> SymbolMatrix:
    """Matrix symbol gamma_g(xi) of the vertical multiplier g.

    entries[r-1, s-1] = 2^{n/2} int g(v) P_r(v) P_s(v) dv with
    P_j(v) = prod_p psi_{phi(j)_p}((xi_p + 2 v_p)/sqrt(2)).  With g split
    into per-axis products (:func:`_axis_factors`), each term is the
    Hadamard product over p of the one-dimensional matrices
    M_p = Psi diag(w f_p(v)) Psi^T, read at rows phi(r)_p and columns
    phi(s)_p.  Every M_p is symmetrized, so a real g gives an exactly
    symmetric matrix.  ``order`` is the Gauss-Hermite order of a smooth
    axis, or the Gauss-Legendre order of each panel of a jump axis.
    """
    if g.n != table.n:
        raise ValueError(f"symbol dimension {g.n} != table dimension {table.n}")
    xi = _frequency(xi, table.n)
    if order is None:
        order = FIBER_ORDER
    rules = []
    for r in range(table.n):
        v, w = _build_v_rule(float(xi[r]), g.breakpoints_on_axis(r), order)
        psi = hermite_fn_table(table.m - 1, (xi[r] + 2 * v) / math.sqrt(2.0))  # (m, N)
        rules.append((v, w, psi))
    columns = table.array.T  # (n, d)
    coeffs, blocks = [], []
    for coeff, factors in _axis_factors(g):
        per_axis = []
        for f, (v, w, psi), cols in zip(factors, rules, columns):
            M = (psi * (w * f(v))) @ psi.T
            per_axis.append(((M + M.T) / 2)[:, cols])  # (m, d)
        coeffs.append(coeff)
        blocks.append(np.stack(per_axis, axis=-1))
    # rows[j, k, s] = prod_p M_kp[phi(j)_p, phi(s)_p]
    rows = np.stack(list(index_products(table, np.stack(blocks, axis=1))))
    entries = 2 ** (table.n / 2) * sum(coeff * rows[:, k] for k, coeff in enumerate(coeffs))
    if g.is_real:
        entries = entries.real.astype(complex)
    return SymbolMatrix(xi=xi, entries=entries)


def sigma_from_gamma(table: IndexTable, g: VerticalSymbol, eta,
                     order: int | None = None, route: str = "via-gamma") -> SymbolMatrix:
    """Shifted-argument symbol sigma_g(eta) = gamma_g(-eta / sqrt(2)).

    route="via-gamma" evaluates exactly that composition.  route="direct"
    computes the equivalent integral
    int g((t + eta/2)/sqrt(2)) prod psi_{phi(r)}(t) prod psi_{phi(s)}(t) dt
    from scratch; the two agree and back each other up.

    The direct route builds a tensor rule.  Before it does,
    :func:`check_rule_budget` counts n + 1 + m n + 3d float64 words per
    node: the rule (n coordinates and a weight), the Hermite table (m
    values per axis), the psi-product matrix P (d reals) and the weighted
    product w g P (d complex numbers).  The temporaries of evaluating g
    itself are not counted.
    """
    eta = _frequency(eta, table.n)
    if route == "via-gamma":
        inner = gamma_toeplitz(table, g, -eta / math.sqrt(2.0), order)
        return SymbolMatrix(xi=eta, entries=inner.entries)
    if route != "direct":
        raise ValueError(f"route must be 'via-gamma' or 'direct', got {route!r}")
    if g.n != table.n:
        raise ValueError(f"symbol dimension {g.n} != table dimension {table.n}")
    if order is None:
        order = FIBER_ORDER

    per_axis = []
    for r in range(table.n):
        # g's argument on this axis is (t + eta_r/2)/sqrt(2); jumps at
        # v = b pull back to t = sqrt(2) b - eta_r/2.
        brk_t = [math.sqrt(2.0) * b - eta[r] / 2 for b in g.breakpoints_on_axis(r)]
        if brk_t:
            cuts = sorted({-T_CUT, T_CUT, *(b for b in brk_t if -T_CUT < b < T_CUT)})
            per_axis.append(legendre_panels(cuts, order))
        else:
            per_axis.append(place_hermite(gauss_hermite_1d(order), 0.0, 1.0))
    check_rule_budget([len(nodes) for nodes, _ in per_axis],
                      table.n + 1 + table.m * table.n + 3 * table.d)
    t, w = tensor_rule(per_axis)
    P = _psi_product_matrix(table, t)
    gv = np.asarray(g((t + eta / 2) / math.sqrt(2.0)))
    entries = P.T @ ((w * gv)[:, None] * P)
    if g.is_real:
        entries = entries.real.astype(complex)
    return SymbolMatrix(xi=eta, entries=entries)


def weyl_symbol(table: IndexTable, a, xi) -> SymbolMatrix:
    """Symbol of the horizontal translation by a: the character e^{-i<xi, a>} I_d."""
    a = _rpoint(a, table.n, "shift")
    xi = _frequency(xi, table.n)
    phase = np.exp(-1j * float(xi @ a))
    return SymbolMatrix(xi=xi, entries=phase * np.eye(table.d, dtype=complex))


def convolution_symbol(table: IndexTable, h_hat: Callable, xi) -> SymbolMatrix:
    """Symbol of a horizontal convolution: scalar h_hat(xi) I_d.

    ``h_hat`` is the normalized Fourier transform
    (2 pi)^{-n/2} int h(x) e^{-i<x, xi>} dx of the convolution kernel.
    """
    xi = _frequency(xi, table.n)
    value = complex(h_hat(xi))
    return SymbolMatrix(xi=xi, entries=value * np.eye(table.d, dtype=complex))


def symbol_compose(a: SymbolMatrix, b: SymbolMatrix) -> SymbolMatrix:
    """Pointwise (same xi) matrix product; operator composition on the fiber."""
    if a.entries.shape != b.entries.shape:
        raise ValueError(f"size mismatch {a.entries.shape} vs {b.entries.shape}")
    if not np.allclose(a.xi, b.xi, rtol=0, atol=1e-12):
        raise ValueError(f"frequency mismatch {a.xi} vs {b.xi}")
    return SymbolMatrix(xi=a.xi, entries=a.entries @ b.entries)
