"""A tour of Gaussian polynomials: shape, recurrences, and a broken pattern.

The coefficient of q^n in [N+k, N] counts partitions of n into at most k
parts, each at most N.  These polynomials are symmetric, palindromic, and
(at step 1) unimodal.  Substituting q -> q^r keeps the palindrome but
punches zero gaps into the coefficient sequence, so unimodality dies.
"""

from qpartitions import check_gr1, check_gr2, pochhammer_q, qbinom

print("a small triangle of Gaussian polynomials [n, k]:")
for n in range(5):
    for k in range(n + 1):
        print(f"    [{n},{k}] = {qbinom(n, k)}")
print()

print("the q-shifted factorial products recover the quotient definition:")
n, k = 4, 2
lhs = qbinom(n, k) * pochhammer_q(k) * pochhammer_q(n - k)
print(f"    [{n},{k}] * (q;q)_{k} * (q;q)_{n-k} = {lhs}")
print(f"    (q;q)_{n}                    = {pochhammer_q(n)}")
print()

print("both Pascal-style recurrences hold exactly at every step r:")
for step in (1, 2, 3):
    print(f"    step {step}: GR1 {check_gr1(5, 2, step)}, GR2 {check_gr2(5, 2, step)}")
print()

print("symmetry and self-reciprocity:")
poly = qbinom(7, 3)
print(f"    [7,3] = {poly}")
print(f"    [7,4] = {qbinom(7, 4)}")
print(f"    palindromic coefficients: {poly.is_self_reciprocal()}")
print()

print("inflation breaks unimodality (coefficients with zero gaps):")
base = qbinom(3, 1)
inflated = qbinom(3, 1, 2)
print(f"    [3,1] at q   = {base}    unimodal: {base.is_unimodal()}")
print(f"    [3,1] at q^2 = {inflated}    unimodal: {inflated.is_unimodal()}")
print(f"    raw coefficients: {list(inflated.coeffs)}")
