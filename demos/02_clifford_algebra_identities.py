# The Clifford algebra of a rank-3 even lattice
# ----------------------------------------------
# Exact multiplication from the rewriting rules, the quaternion structure of
# the even part, the 4x4 matrix representation, and the central element E.

from picard3 import (CliffordElement, EvenCliffordElement, GramParams,
                     OddCliffordElement, alternating_E, clifford_mul,
                     element_E, gram_B, norm, phi_rep, reversal, trace)
from picard3.linalg import det

wehler = GramParams.from_gram(((0, 2, 2), (2, 0, 2), (2, 2, 0)))
print("Gram parameters (a,b,c,s,t,u):",
      (wehler.a, wehler.b, wehler.c, wehler.s, wehler.t, wehler.u))
print("disc =", wehler.disc, " D0 = disc/8 =", wehler.disc_half)

# Generators multiply by v w + w v = <v, w>:
E1, E2, E3 = (CliffordElement.basis(m) for m in (1, 2, 4))
anti = clifford_mul(E2, E3, wehler) + clifford_mul(E3, E2, wehler)
print("E2 E3 + E3 E2 =", anti.coeffs[0], "(the pairing <E2, E3>)")

# The even part is a quaternion order with basis e0 = 1, e1 = E2E3,
# e2 = E3E1, e3 = E1E2.  Reduced trace and norm come from the reversal
# involution; the matrix representation realizes it inside M4(Z).
x = EvenCliffordElement(1, 2, 0, -1)
print("\nx =", x.coords)
print("Tr(x) =", trace(x, wehler), "  Nr(x) =", norm(x, wehler))
print("Phi(x) =", phi_rep(x, wehler))
print("Nr(x)^2 == det Phi(x):", norm(x, wehler) ** 2 == det(phi_rep(x, wehler)))

# The bilinear form Tr(x y*)/2 on the even part has the closed Gram matrix
# gram_B, whose determinant is exactly D0^2.
print("\nQ_B =", gram_B(wehler))
print("det(Q_B) =", det(gram_B(wehler)), "= D0^2 =", wehler.disc_half ** 2)

# The central odd element E commutes with everything, has E* = -E and
# E^2 = -D0.  It is produced twice: by a closed form and by the alternating
# sum over S_3; the two must agree (alternating_E checks this internally).
E = element_E(wehler)
print("\nE =", E.coeffs)
print("E^2 =", clifford_mul(E, E, wehler).coeffs[0], "= -D0")
print("E* = -E:", reversal(E, wehler).coeffs == (-E).coeffs)
alternating_E(wehler)
print("alternating-sum construction agrees with the closed form")

# Odd elements carry the quadratic form N.  A small surprise from the
# appendix of the theory: a lattice whose halved form misses +-1 can still
# have odd Clifford units.
p = GramParams.from_gram(((6, 0, 0), (0, -10, 0), (0, 0, -18)))
alpha = OddCliffordElement(1, 0, 5, 1)      # 5 E2 + E3 + E1E2E3
print("\nN(5 E2 + E3 + E1E2E3) over diag(6,-10,-18):",
      norm(alpha, p))
