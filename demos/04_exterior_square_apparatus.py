# The exterior square W and the sublattices P+ and P-
# ----------------------------------------------------
# The machinery behind the unit/isometry correspondence, run as
# computations: W = wedge^2 of the even part is U+U+U, it contains two
# orthogonal primitive copies of L(+1) and L(-1), and the two-sided action
# of the even part is scalar on one side of each.

from picard3 import (EvenCliffordElement, GramParams, OddCliffordElement,
                     element_E, mu_matrix, mu_tilde_matrix, norm, p_bases)
from picard3.exterior import (eta_matrix, lambda_minus_matrix,
                              lambda_plus_matrix, mu_of_unit_conjugation,
                              pair_w)
from picard3.isometries import family_unit, g_alpha, unit_search_even
from picard3.linalg import mat_mul, mat_scale

params = GramParams.from_gram(((0, 2, 2), (2, 0, 2), (2, 2, 0)))

# The printed bases of P+ and P-, as integer 6-tuples on (e01, e02, e03,
# e23, e31, e12); construction re-certifies Gram(w+) = Q_L, Gram(w-) = -Q_L,
# orthogonality, and primitivity via Smith normal form.
pb = p_bases(params)
print("w_1^+ =", pb.plus[0])
print("Gram(w+):")
for i in range(3):
    print("  ", [pair_w(pb.plus[i], pb.plus[j]) for j in range(3)])

# mu(x, 1) acts on P+ as the scalar Nr(x)  (and mu(1, x) likewise on P-):
one = EvenCliffordElement(1, 0, 0, 0)
x = EvenCliffordElement(2, 1, -1, 0)
nx = norm(x, params)
lp = lambda_plus_matrix(params)
print("\nNr(x) =", nx)
print("mu(x,1)|P+ == Nr(x) id:",
      mat_mul(mu_matrix(x, one, params), lp) == mat_scale(nx, lp))

# The odd action mu~ goes through the duality iota between wedge^2 of the
# even and odd parts; on P- it is the scalar -Nx, on P+ it is (-Nx) eta_x
# with eta_x(v) = -x^{-1} v x.
y = OddCliffordElement(0, 1, 2, 1)
ny = norm(y, params)
lm = lambda_minus_matrix(params)
mt = mu_tilde_matrix(y, params)
print("\nN(y) =", ny)
print("mu~(y)|P- == -N(y) id:", mat_mul(mt, lm) == mat_scale(-ny, lm))
print("mu~(y)|P+ == -N(y) eta_y:",
      mat_mul(mt, lp) == mat_mul(mat_scale(-ny, lp), eta_matrix(y, params)))

# The central element E acts as the scalar D0 on P+ and -D0 on P-:
mtE = mu_tilde_matrix(element_E(params), params)
print("mu~(E)|P+ == D0 id:",
      mat_mul(mtE, lp) == mat_scale(params.disc_half, lp))

# And the key claim of the correspondence's proof: transporting the
# conjugation action to P+ through lambda+ gives exactly mu(alpha, alpha^-1).
k, l = 2, -2
fam = GramParams(0, l, 0, 0, k, 0)
lamp = lambda_plus_matrix(fam)
for m in unit_search_even(k, l, 3)[:4]:
    u = family_unit(m, k, l)
    lhs = mat_mul(mu_of_unit_conjugation(u.element, fam), lamp)
    rhs = mat_mul(lamp, g_alpha(u, fam))
    print(f"claim holds for alpha = {m}:", lhs == rhs)
