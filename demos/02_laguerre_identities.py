"""
Laguerre identities, exactly
============================

The kernel algebra rests on three polynomial identities, and all three can
be settled in exact rational arithmetic rather than floating point.  This
script prints small instances and then verifies a sweep.
"""

import math
from fractions import Fraction

from polyfock.orthopoly import (
    check_laguerre_decomposition,
    check_laguerre_of_sum,
    check_laguerre_telescoping,
    laguerre_poly,
)

# L_p^{(a)} with Fraction coefficients; leading coefficient (-1)^p / p!
for p in range(4):
    print(f"L_{p}^(1) =", laguerre_poly(p, a=1))
assert laguerre_poly(5, a=1).coefficient((5,)) == Fraction(-1, 120)

# identity 1: the addition formula
#   L_p^(a+b+1)(x + y) = sum_{k=0}^{p} L_k^(a)(x) L_{p-k}^(b)(y)
# checked by expanding both sides in the ring Q[x, y]; one call checks
# every degree p <= 8 from one build of each side
print("\naddition formula, a, b in {0, 1/2, 1, 3}, p <= 8:")
shifts = (0, Fraction(1, 2), 1, 3)
ok = all(check_laguerre_of_sum(a, b, 8) for a in shifts for b in shifts)
print("  exact equality:", ok)
assert ok

# identity 2: partial sums telescope into a raised superscript
#   sum_{k<=p} L_k^(a)(x) = L_p^(a+1)(x), again at every p <= 8
print("\ntelescoping, same shifts:")
ok = all(check_laguerre_telescoping(a, 8) for a in shifts)
print("  exact equality:", ok)
assert ok

# identity 3: the multivariate decomposition behind the kernel's
# sum-of-products form,
#   L_p^(n)(t_1+...+t_n) = sum_{|k| <= p} prod_r L_{k_r}(t_r),
# with exactly C(n+p, n) summands
print("\nmultivariate decomposition:")
for n, p in [(1, 6), (2, 5), (3, 4), (4, 3)]:
    holds, count = check_laguerre_decomposition(n, p)
    print(f"  n={n} p={p}: holds={holds}, {count} summands"
          f" (C({n}+{p},{n}) = {math.comb(n + p, n)})")
    assert holds and count == math.comb(n + p, n)
