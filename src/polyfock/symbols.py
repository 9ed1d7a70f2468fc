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

Assembly: every supported g is a sum of per-axis products,
g(v) = sum_k c_k prod_p f_kp(v_p), so gamma_g(xi) is 2^{n/2} times a sum
over k of Hadamard products of n one-dimensional m x m matrices
M_kp[a, b] = int f_kp(v) psi_a(t) psi_b(t) dv, t = (xi_p + 2v)/sqrt(2),
read at the table's multi-index coordinates by one fancy index per axis.
Substituting t turns every smooth axis into a textbook Gauss-Hermite
integral whose nodes, weights and Hermite table do not depend on xi; they
are built once per (m, order) and cached, so a call on a smooth axis only
shifts the nodes and evaluates the f_kp.  The sign and box kinds are
piecewise constant between axis-aligned breakpoints, so a jump axis needs
no rule at all: M_kp is a sum over the jumps of f_kp times
P(T) = int_{-inf}^T psi_a psi_b dt at each breakpoint, and P is closed
form (:func:`_gram_below`).  Jump axes take no order and no cut, at any m.
The cost is one (terms, m, m) matrix per axis rather than one order^n
tensor rule.  The direct route of :func:`sigma_from_gamma` evaluates g
itself on every node of the order^n tensor rule (Gauss-Legendre panels
split at the jumps and cut at ``T_CUT`` on a jump axis), which
:func:`~polyfock.quadrature.stream_pairs` sums in blocks without building
it, so it stays an independent check of that factorization.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
from dataclasses import dataclass, fields, replace
from typing import Callable

import numpy as np

from .kernels import _frequency, _real, _rpoint, _scalar, _shift
from .multiindex import IndexTable, _integer, _multi_index
from .orthopoly import hermite_fn_table
from .quadrature import (
    FIBER_ORDER,
    _check_order,
    check_rule_budget,
    gauss_hermite_1d,
    legendre_panels,
    place_hermite,
    stream_pairs,
)

# The direct sigma route's Legendre panels on a jump axis cover |t| <= T_CUT,
# where e^{-t^2} has decayed to ~1e-35.  psi_{m-1} reaches |t| ~ sqrt(2m),
# so box(-50, 50) misses I by 4e-13 at m = 20 and 2e-2 at m = 40 there
# (ROADMAP item 19).  gamma's jump axes are closed form and need no cut.
T_CUT = 9.0

# The fields each kind reads besides n; every other field must keep its default.
KIND_FIELDS = {
    "polynomial": ("terms",),
    "gaussian-modulated-polynomial": ("terms", "gauss_center", "gauss_halfwidth"),
    "sign-of-coordinate": ("axis",),
    "box-indicator": ("lo", "hi"),
}
KINDS = tuple(KIND_FIELDS)


@dataclass(frozen=True)
class VerticalSymbol:
    """Multiplier g(v) on R^n from the closed family the calculus supports.

    The constructors (:func:`constant`, :func:`polynomial`,
    :func:`gaussian_poly`, :func:`sign`, :func:`box`) only name the kind;
    the fields are parsed here.  ``terms`` holds (coefficient,
    exponent-tuple) pairs for the polynomial kinds.  A constant is a
    degree-0 polynomial.
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
        # every field is parsed here, idempotently: ``replace`` runs this again
        if self.kind not in KINDS:
            raise ValueError(f"unknown symbol kind {self.kind!r}; expected one of {KINDS}")
        n = _integer(self.n, "n", low=1)
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name not in ("n", "kind", *KIND_FIELDS[self.kind]) and not (
                    type(value) is type(f.default) and value == f.default):
                raise ValueError(f"a {self.kind} symbol takes no {f.name}, got {value!r}")
        parsed = {"n": n}
        if self.kind == "sign-of-coordinate":
            parsed["axis"] = _integer(self.axis, "axis")
            if parsed["axis"] >= n:
                raise ValueError(f"axis {self.axis} outside 0..{n - 1}")
        if self.kind in ("polynomial", "gaussian-modulated-polynomial"):
            parsed["terms"] = _normalize_terms(self.terms, n)
        if self.kind == "gaussian-modulated-polynomial":
            parsed["gauss_center"] = _per_axis(self.gauss_center, n, "gauss_center", finite=True)
            parsed["gauss_halfwidth"] = _scalar(self.gauss_halfwidth, "halfwidth", positive=True)
        if self.kind == "box-indicator":
            parsed["lo"], parsed["hi"] = (_per_axis(x, n, "box bound") for x in (self.lo, self.hi))
            if any(a >= b for a, b in zip(parsed["lo"], parsed["hi"])):
                raise ValueError(f"box must have lo < hi on every axis, "
                                 f"got lo={self.lo}, hi={self.hi}")
        for name, value in parsed.items():
            object.__setattr__(self, name, value)

    # -- evaluation --------------------------------------------------------

    def __call__(self, v) -> np.ndarray:
        return self._values(_rpoint(v, self.n))

    def _values(self, v: np.ndarray) -> np.ndarray:
        """g at real points v of shape (..., n), already parsed."""
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
        return total.real if self.is_real else total

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
        """An upper bound on sup |g|; None for unbounded kinds.

        Exact for sign, box, constants and one-term Gaussian symbols.  A
        Gaussian term is bounded by |c_k| prod_r max_v |v|^e e^{-(v - c_r)^2/(2h^2)},
        each maximum at a root of v^2 - c_r v - e h^2; several terms add up.
        """
        if self.kind in ("sign-of-coordinate", "box-indicator"):
            return 1.0
        if self.kind == "polynomial":
            if all(sum(e) == 0 for _, e in self.terms):
                return abs(sum(c for c, _ in self.terms))
            return None
        h2 = self.gauss_halfwidth ** 2

        def peak(e: int, c: float) -> float:
            if e == 0:
                return 1.0
            root = math.sqrt(c * c + 4 * e * h2)  # > |c|, so neither root is 0
            # in logs: |v|^e alone overflows long before the peak does
            return math.exp(max(e * math.log(abs(v)) - (v - c) ** 2 / (2 * h2)
                                for v in ((c - root) / 2, (c + root) / 2)))

        return sum(abs(coeff) * math.prod(peak(e, c) for e, c in zip(exps, self.gauss_center))
                   for coeff, exps in self.terms)

    def conjugate(self) -> "VerticalSymbol":
        if self.kind in ("sign-of-coordinate", "box-indicator"):
            return self
        return replace(self, terms=tuple((complex(c).conjugate(), e) for c, e in self.terms))


def constant(c, n: int = 1) -> VerticalSymbol:
    """The constant symbol c, built as a degree-0 polynomial."""
    return VerticalSymbol(n, "polynomial", ((c, (0,) * _integer(n, "n", low=1)),))


def polynomial(terms, n: int = 1) -> VerticalSymbol:
    """Polynomial symbol; ``terms`` is [(coeff, exponents)] or, for n=1, a
    flat coefficient list in ascending degree."""
    return VerticalSymbol(n, "polynomial", terms)


def gaussian_poly(terms, center=0.0, halfwidth: float = 1.0, n: int = 1) -> VerticalSymbol:
    """Polynomial times exp(-|v - center|^2 / (2 halfwidth^2))."""
    return VerticalSymbol(n, "gaussian-modulated-polynomial", terms, center, halfwidth)


def sign(axis: int = 0, n: int = 1) -> VerticalSymbol:
    return VerticalSymbol(n, "sign-of-coordinate", axis=axis)


def box(lo, hi, n: int = 1) -> VerticalSymbol:
    return VerticalSymbol(n, "box-indicator", lo=lo, hi=hi)


def _per_axis(x, n: int, label: str, finite: bool = False) -> tuple[float, ...]:
    """x (one number or exactly n numbers) as n floats; complex values raise
    TypeError, another shape or a NaN (any non-finite value if ``finite``) ValueError."""
    x = _real(x, label)
    ok = np.isfinite(x) if finite else ~np.isnan(x)
    if x.shape not in ((), (n,)) or not ok.all():
        raise ValueError(f"{label} must be {n} {'finite' if finite else 'non-NaN'} numbers "
                         f"or one, got {x}")
    return tuple(np.broadcast_to(x, (n,)).tolist())


def _normalize_terms(terms, n: int):
    """(complex coefficient, exponents) pairs, () as the zero symbol; a coefficient
    that is no number (a bool, a string) raises TypeError, a non-finite one ValueError."""
    seq = list(terms)
    if seq and np.isscalar(seq[0]):
        if n != 1:
            raise ValueError("flat coefficient lists are only defined for n = 1")
        seq = [(c, (e,)) for e, c in enumerate(seq)]
    coeffs = [c for c, _ in seq]
    if any(isinstance(c, bool) or not isinstance(c, numbers.Number) for c in coeffs):
        raise TypeError(f"coefficients must be numbers, got {coeffs}")
    if not all(cmath.isfinite(c) for c in coeffs):
        raise ValueError(f"coefficients must be finite, got {coeffs}")
    return tuple((complex(c), _multi_index(e, n)) for c, e in seq) or ((0j, (0,) * n),)


@dataclass(frozen=True)
class SymbolMatrix:
    """One fiber's d x d matrix at frequency xi."""

    xi: np.ndarray
    entries: np.ndarray


# (m, order) -> the smooth-axis rule of gamma_toeplitz, keyed by the parsed
# order.  Small: (m + 2) order floats for each pair in use.
@functools.lru_cache(maxsize=64)
def _smooth_axis(m: int, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (offsets, weights, psi) of a smooth gamma axis.

    The axis's Gauss-Hermite rule in t = (xi_r + 2v)/sqrt(2) places its
    nodes at v = -xi_r/2 + t/sqrt(2), so only the shift -xi_r/2 depends on
    xi: the offsets t/sqrt(2), the Lebesgue weights and the Hermite table
    psi at the raw nodes t (shape (m, order)) serve every xi.
    """
    rule = gauss_hermite_1d(order)
    offsets, weights = place_hermite(rule, 0.0, math.sqrt(2.0) / 2)
    psi = hermite_fn_table(m - 1, rule[0])
    for values in (offsets, weights, psi):
        values.flags.writeable = False
    return offsets, weights, psi


# m -> the constants of _gram_below: the derivative matrix D with
# psi' = psi @ D, the Wronskian's divisor 2(b - a), and the diagonal's step
# coefficients sqrt((a - 1)/a), sqrt((a + 1)/a) and 1/sqrt(a/2) for a = 1..m-1.
@functools.lru_cache(maxsize=64)
def _gram_constants(m: int) -> tuple[np.ndarray, ...]:
    k = np.arange(m + 1)
    derivative = np.zeros((m + 2, m + 1))
    derivative[k[1:] - 1, k[1:]] = np.sqrt(k[1:] / 2)
    derivative[k + 1, k] = -np.sqrt((k + 1) / 2)
    gap = 2.0 * (k - k[:, None])
    np.fill_diagonal(gap, 1.0)  # the Wronskian is exactly 0 there
    a = k[1:m]
    out = (derivative, gap, np.sqrt((a - 1) / a), np.sqrt((a + 1) / a), 1 / np.sqrt(a / 2))
    for values in out:
        values.flags.writeable = False
    return out


def _gram_below(m: int, t: np.ndarray) -> np.ndarray:
    """P[j, a, b] = int_{-inf}^{t_j} psi_a psi_b dt for a, b < m, in closed form.

    psi_a'' = (t^2 - 2a - 1) psi_a makes the Wronskian psi_a' psi_b -
    psi_a psi_b' an antiderivative of 2(b - a) psi_a psi_b, with
    psi_a' = sqrt(a/2) psi_{a-1} - sqrt((a+1)/2) psi_{a+1}; that gives every
    entry off the diagonal, exactly symmetric.  The diagonal starts at
    P[0, 0] = erfc(-t)/2 and climbs by integrating d/dt (psi_a psi_{a-1}):
    sqrt(a/2) (P[a, a] - P[a-1, a-1]) = sqrt((a-1)/2) P[a, a-2]
    - sqrt((a+1)/2) P[a+1, a-1] - psi_a psi_{a-1}.
    """
    derivative, gap, lower, upper, scale = _gram_constants(m)
    psi = hermite_fn_table(m + 1, t).T  # (J, m + 2): the last step reads P[m, m - 2]
    p, dp = psi[:, :-1], psi @ derivative
    P = (dp[:, :, None] * p[:, None] - p[:, :, None] * dp[:, None]) / gap
    second = np.diagonal(P, -2, 1, 2)  # P[a + 1, a - 1] for a = 1..m-1
    diagonal = np.empty((len(t), m))  # P[0, 0], then the steps up
    diagonal[:, 0] = [math.erfc(-x) / 2 for x in t]
    diagonal[:, 1:] = -upper * second - p[:, 1:m] * p[:, :m - 1] * scale
    diagonal[:, 2:] += lower[1:] * second[:, :-1]  # P[a, a - 2], absent at a = 1
    k = np.arange(m)
    P = P[:, :m, :m]
    P[:, k, k] = np.cumsum(diagonal, axis=1)
    return P


def _jump_axes(m: int, xi: np.ndarray, g: VerticalSymbol,
               terms: list[tuple[complex, list[Callable]]]) -> dict[int, np.ndarray]:
    """The (T, m, m) matrices int f_kr(v) psi_a(t) psi_b(t) dv,
    t = (xi_r + 2v)/sqrt(2), of each axis r on which g jumps, keyed by r.

    There every f_kr is piecewise constant: c_j between the finite
    breakpoints b_j < b_{j+1} (read at probes between them; b_0 = -inf),
    and it jumps to c_{J+1} = 0 at b_{J+1} = +inf.  So the integral is
    sum_j (c_{j-1} - c_j) P(t_j) / sqrt(2) over j = 1..J+1, with P from
    :func:`_gram_below` and P(+inf) = I; one call serves every axis.  Past
    |t| = 40, e^{-t^2/2} underflows and P(t) is I or 0 in float, so t is
    clipped there; that also takes +inf and a breakpoint whose t overflows.
    """
    jumps, ts = {}, []
    for r in range(g.n):
        breakpoints = g.breakpoints_on_axis(r)
        if not breakpoints:
            continue
        edges = sorted({b for b in breakpoints if math.isfinite(b)})
        probes = np.array([math.nextafter(edges[0], -math.inf)]
                          + [a / 2 + b / 2 for a, b in zip(edges, edges[1:])]
                          + [math.nextafter(edges[-1], math.inf)] if edges else [0.0])
        c = np.stack([factors[r](probes) for _, factors in terms])  # (T, J + 1)
        c[:, :-1] -= c[:, 1:]
        jumps[r] = slice(len(ts), len(ts) + len(edges) + 1), c / math.sqrt(2.0)
        ts += [min(max((float(xi[r]) + 2 * b) / math.sqrt(2.0), -40.0), 40.0)
               for b in edges] + [40.0]
    if not jumps:
        return {}
    P = _gram_below(m, np.array(ts)).reshape(len(ts), m * m)
    return {r: (weights @ P[rows]).reshape(-1, m, m) for r, (rows, weights) in jumps.items()}


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
    # polynomial (constants included): one monomial per term (v^0 = 1)
    return [(coeff, [lambda v, e=e: v ** e for e in exps]) for coeff, exps in g.terms]


def _checked_order(table: IndexTable, g: VerticalSymbol, order) -> int:
    """The parsed order of gamma and direct sigma, refused below m on a smooth axis.

    An order-N Gauss-Hermite axis integrates psi_a psi_b exactly only for
    a + b <= 2N - 1, so psi_{m-1}^2 needs N >= m: at N = m - 1 a constant
    symbol's matrix misses I by 1.  Jump axes are not checked here: gamma
    reads no order there, and direct sigma's Legendre panels take any.
    """
    order = _check_order(FIBER_ORDER if order is None else order)
    if table.m > order and not all(g.breakpoints_on_axis(r) for r in range(table.n)):
        raise ValueError(f"m = {table.m} exceeds the order {order}: an axis without jumps "
                         f"needs a Gauss-Hermite order of at least m")
    return order


def gamma_toeplitz(table: IndexTable, g: VerticalSymbol, xi,
                   order: int | None = None) -> SymbolMatrix:
    """Matrix symbol gamma_g(xi) of the vertical multiplier g.

    entries[r-1, s-1] = 2^{n/2} int g(v) P_r(v) P_s(v) dv with
    P_j(v) = prod_p psi_{phi(j)_p}((xi_p + 2 v_p)/sqrt(2)).  With g split
    into T per-axis products (:func:`_axis_factors`), each term is the
    Hadamard product over p of the one-dimensional matrices M_kp, read at
    rows phi(r)_p and columns phi(s)_p: one fancy index per axis gives its
    (T, d, d) factors, multiplied left to right over p.  Every M_kp is
    symmetrized, so a real g gives an exactly symmetric matrix.

    On a smooth axis M_kp = Psi diag(w f_kp(v)) Psi^T over a Gauss-Hermite
    rule whose nodes, weights and Hermite table do not depend on xi
    (:func:`_smooth_axis`, cached per (m, order)), so a call there only
    shifts the nodes and evaluates the f_kp; the T matrices of an axis are
    one (T, m, m) product.  A jump axis is closed form
    (:func:`_jump_axes`).  ``order`` is only the Gauss-Hermite order of a
    smooth axis; with a smooth axis, m above the order raises ValueError.
    """
    if g.n != table.n:
        raise ValueError(f"symbol dimension {g.n} != table dimension {table.n}")
    xi = _frequency(xi, table.n)
    order = _checked_order(table, g, order)
    terms = _axis_factors(g)
    jumps = _jump_axes(table.m, xi, g, terms)
    S = None  # S[k, j, s] = prod_p M_kp[phi(j)_p, phi(s)_p], left to right over p
    for r, cols in enumerate(table.array.T):
        if r in jumps:
            M = jumps[r]
        else:
            offsets, w, psi = _smooth_axis(table.m, order)
            v = offsets - float(xi[r]) / 2
            values = np.stack([factors[r](v) for _, factors in terms])  # (T, N)
            M = (psi * (w * values)[:, None]) @ psi.T  # (T, m, m)
        M = ((M + M.transpose(0, 2, 1)) / 2)[:, cols[:, None], cols]  # (T, d, d)
        S = M if S is None else S * M
    entries = 2 ** (table.n / 2) * sum(coeff * S[k] for k, (coeff, _) in enumerate(terms))
    if g.is_real:
        entries = entries.real.astype(complex)
    return SymbolMatrix(xi=xi, entries=entries)


def sigma_from_gamma(table: IndexTable, g: VerticalSymbol, eta,
                     order: int | None = None, route: str = "via-gamma") -> SymbolMatrix:
    """Shifted-argument symbol sigma_g(eta) = gamma_g(-eta / sqrt(2)).

    route="via-gamma" evaluates exactly that composition.  route="direct"
    computes the equivalent integral
    int g((t + eta/2)/sqrt(2)) prod psi_{phi(r)}(t) prod psi_{phi(s)}(t) dt
    from scratch; the two agree and back each other up.  Both refuse m
    above the order when g has an axis without jumps, as gamma does.

    The direct route sums the order^n tensor rule through
    :func:`stream_pairs` without building it.  Each coordinate r is a pair
    whose real axis is the route's own 1-D rule t_r (Gauss-Hermite, or
    Gauss-Legendre panels split where g jumps) and whose imaginary axis is
    the single node 0, with the factor F_r[a, b, i, 0] = w_r[i]
    psi_a(t_ri) psi_b(t_ri).  g is evaluated on every node, a block at a
    time, and the (a_1, b_1, ..., a_n, b_n) sum is read out at
    (phi(r), phi(s)).

    Before any table is built, :func:`check_rule_budget` makes three
    counts.  The rule at n + 1 + m n + 3d float64 words per node (the rule,
    the Hermite table and the psi products a built rule would carry)
    bounds the work, as for the other streamed routes.  The m^{2n} complex
    sums and the n factors, m^2 reals per node of their axis, bound the
    memory.  The temporaries of evaluating g itself are not counted.
    """
    eta = _frequency(eta, table.n)
    if route == "via-gamma":
        inner = gamma_toeplitz(table, g, -eta / math.sqrt(2.0), order)
        return SymbolMatrix(xi=eta, entries=inner.entries)
    if route != "direct":
        raise ValueError(f"route must be 'via-gamma' or 'direct', got {route!r}")
    if g.n != table.n:
        raise ValueError(f"symbol dimension {g.n} != table dimension {table.n}")
    order = _checked_order(table, g, order)
    n, m = table.n, table.m

    per_axis = []
    for r in range(n):
        # g's argument on this axis is (t + eta_r/2)/sqrt(2); jumps at
        # v = b pull back to t = sqrt(2) b - eta_r/2.
        brk_t = [math.sqrt(2.0) * b - eta[r] / 2 for b in g.breakpoints_on_axis(r)]
        if brk_t:
            cuts = sorted({-T_CUT, T_CUT, *(b for b in brk_t if -T_CUT < b < T_CUT)})
            per_axis.append(legendre_panels(cuts, order))
        else:
            per_axis.append(place_hermite(gauss_hermite_1d(order), 0.0, 1.0))
    sizes = [len(t) for t, _ in per_axis]
    check_rule_budget(sizes, n + 1 + m * n + 3 * table.d)
    check_rule_budget([m] * (2 * n), 2)
    check_rule_budget([m, m, sum(sizes)], 1)
    factors = []
    for t, w in per_axis:
        psi = hermite_fn_table(m - 1, t)  # (m, N)
        factors.append((w * (psi[:, None] * psi[None, :]))[..., None])
    acc = stream_pairs(lambda points: g._values((points.real + eta / 2) / math.sqrt(2.0)),
                       [t for t, _ in per_axis], [np.zeros(1)] * n, factors)
    ps = table.array
    entries = acc[tuple(k for r in range(n) for k in (ps[:, r, None], ps[None, :, r]))]
    if g.is_real:
        entries = entries.real
    return SymbolMatrix(xi=eta, entries=entries.astype(complex))


def weyl_symbol(table: IndexTable, a, xi) -> SymbolMatrix:
    """Symbol of the horizontal translation by a: the character e^{-i<xi, a>} I_d."""
    a = _shift(a, table.n)
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
    if a.xi.shape != b.xi.shape or not np.allclose(a.xi, b.xi, rtol=0, atol=1e-12):
        raise ValueError(f"frequency mismatch {a.xi} vs {b.xi}")
    return SymbolMatrix(xi=a.xi, entries=a.entries @ b.entries)
