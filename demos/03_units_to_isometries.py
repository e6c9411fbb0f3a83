# Clifford units <-> discriminant-kernel isometries
# --------------------------------------------------
# The central correspondence: units of the even/odd Clifford parts map to
# isometries acting trivially on the discriminant group, and every such
# isometry lifts back to a unit, recovered here by exact linear algebra.

from picard3 import (GramParams, clifford_lift, family_unit, h_alpha,
                     p_alpha_matrix, phi_alpha, spinor_norm,
                     unit_search_even, v_set_search)
from picard3.lattice import Lattice, in_discriminant_kernel
from picard3.linalg import adjugate, det, identity, mat_mul, mat_sub

k, l = 2, -2                       # the Wehler family U(2) + <-4>
params = GramParams.family(k, l)
lat = Lattice(params.gram)

# Even units of Cl+ are the integer matrices [[a,b],[c,d]] with
# a - d = c = 0 mod k, b = 0 mod l, det = +-1.  Bounded search:
units = unit_search_even(k, l, 5)
print(f"B_{{{k},{l}}} units with entries <= 5 (mod sign): {len(units)}")

alpha = ((1, 2), (2, 5))           # det 1
u = family_unit(alpha, k, l)
h = h_alpha(u, params)
print("\nalpha =", alpha)
print("h_alpha =", h.matrix)
print("det =", h.det, " in kernel:", h.in_kernel,
      " preserves cone:", h.preserves_cone)

# The kernel test is a one-line integrality criterion, (g - I) Q^-1
# integral, checked in integers as (g - I) adj(Q) = 0 mod det Q:
diff = mat_sub(h.matrix, identity(3))
d = det(lat.gram)
print("(g - I) Q^-1 integral:",
      all(x % d == 0 for row in mat_mul(diff, adjugate(lat.gram)) for x in row))

# phi_alpha = Nr(alpha) * conjugation is always cone-preserving, with
# det = Nr(alpha); on the twisted basis it is the printed ternary matrix.
ph = phi_alpha(u, params)
pa = p_alpha_matrix(alpha, k, l)
print("\nphi_alpha =", ph.matrix)
print("P_alpha   =", pa.matrix, "(same map, the paper basis ordering)")

# Lifting back: solve alpha Ei = det(g) g(Ei) alpha over the right grade.
lift, n = clifford_lift(h, params)
print("\nlift of h_alpha:", lift.coords, " N =", n)

# The odd coset exists only when the halved form represents +-1; the
# family (1,-1) has it, and odd units give determinant -1 kernel isometries.
params11 = GramParams.family(1, -1)
odd = v_set_search(1, -1, 2)[0]
print("\nodd unit of U(1) + <-2>:", odd.coords)
from picard3 import CliffordUnit
hu = h_alpha(CliffordUnit.from_element(odd, params11), params11)
print("h =", hu.matrix, " det =", hu.det, " in kernel:", hu.in_kernel)

# Outside the kernel, lifts still exist over Q; their norms are the spinor
# norm.  The reflection in the <-6> generator of U + <-6>:
lat6 = Lattice(((0, 1, 0), (1, 0, 0), (0, 0, -6)))
params6 = GramParams.from_gram(lat6.gram)
refl = ((1, 0, 0), (0, 1, 0), (0, 0, -1))
print("\nreflection in the <-6> generator:")
print("  in kernel:", in_discriminant_kernel(refl, lat6))
lift6, n6 = clifford_lift(refl, params6)
print("  lift:", lift6.coords, " N =", n6)
print("  spinor norm:", spinor_norm(refl, params6))
