# Salem polynomials of Wehler K3 automorphisms
# ---------------------------------------------
# On U(2) + <-4> the automorphism group is Pi(2) = C2 * C2 * C2; each
# element acts on the Picard lattice with characteristic polynomial
# (t - Nr)(t^2 - A t + 1), and A is pinned to two arithmetic progressions
# by the mod-4 trace law.

from picard3 import (analyze_picard, p_alpha_matrix, salem_poly,
                     symplectic_split, wehler_trace_classes)
from picard3.linalg import char_poly

# The trace law on searched units: trace = 2 mod 4 when det 1,
# trace = 0 mod 4 when det -1.
checked, table = wehler_trace_classes(5)
print(f"trace law verified on {checked} units of Pi(2)")
print("A-values by n:  symplectic (4n+2)^2-2, anti-symplectic (4n)^2+2")
for n, (a_sym, a_anti) in table.items():
    print(f"  n = {n}: {a_sym}, {a_anti}")

# A concrete symplectic example (n = 2): alpha = [[1,2],[4,9]].
alpha = ((1, 2), (4, 9))
datum = salem_poly(alpha)
print("\nalpha =", alpha)
print("symplectic:", symplectic_split(alpha))
print("char poly coefficients:", datum.cubic_coeffs)
print("Salem factor t^2 -", datum.a_value, "t + 1, Salem:", datum.is_salem)

# The cubic agrees with the characteristic polynomial of the actual
# 3x3 action on the Picard lattice:
p = p_alpha_matrix(alpha, 2, -2)
print("matches char(P_alpha):", char_poly(p.matrix) == datum.cubic_coeffs)

# An anti-symplectic example (n = 1): A = 18, the smallest in its family.
print("\nanti-symplectic n=1:", salem_poly(((1, 2), (2, 3))).to_json())

# The full Wehler report, with units searched to bound 12:
print()
print(analyze_picard(2, -2, search_bound=12).render_text())
