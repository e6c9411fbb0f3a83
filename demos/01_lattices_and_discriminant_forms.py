# Lattices, discriminant groups, and discriminant forms
# ------------------------------------------------------
# A walk through the lattice layer: Gram matrices, exact signatures,
# the finite group A(L) = L^v/L with its Q/2Z-valued quadratic form,
# and the brute-force orthogonal group of that form.

from picard3 import (Lattice, disc, discriminant_form, discriminant_group,
                     form_orthogonal_group, m_n_lattice, represents,
                     signature)

# The Wehler lattice: the Picard lattice of a generic (2,2,2)-hypersurface
# in (P^1)^3.  Its Gram matrix is all off-diagonal 2s.
wehler = Lattice(((0, 2, 2), (2, 0, 2), (2, 2, 0)))
print("Wehler lattice:", wehler.gram)
print("  disc =", disc(wehler), " signature =", signature(wehler))

# Its discriminant group is Z/2 + Z/2 + Z/4 (order 16 = |disc|).
group = discriminant_group(wehler)
print("  A(L) invariant factors:", group.invariant_factors)
print("  generator lifts:", group.generator_lifts)

# The discriminant form takes values in Q/2Z on the diagonal.
form = discriminant_form(wehler)
print("  q-values on generators:", form.values)

# Its isometry group, enumerated by brute force over generator images:
auts = form_orthogonal_group(form)
print("  |O(q(L))| =", len(auts))

# The family U(k) + <2l> is the library's main subject.  For U + <2l>
# with l squarefree, |O(q)| = 2^nu with nu the number of prime factors.
for l in (-2, -3, -6, -10):
    lat = Lattice(((0, 1, 0), (1, 0, 0), (0, 0, 2 * l)))
    print(f"U + <{2 * l}>: |O(q)| =",
          len(form_orthogonal_group(discriminant_form(lat))))

# M_n = U(n) + <-2n> has A(L) = Z/n + Z/n + Z/2n:
for n in (2, 3, 8):
    print(f"M_{n}:", discriminant_group(m_n_lattice(n)).invariant_factors)

# Representability of +-1 by the halved family form decides everything
# downstream: whether the lattice has (-2)-vectors (it represents -1) and
# whether the odd unit coset is nonempty.  Closed form: gcd(k,l) = 1 and
# eps*l a square mod k.
print("\nU(5) + <2> halved represents -1:", represents(5, 1, -1))
print("M_n halved represents +-1 for n >= 2: ",
      [(n, represents(n, -n, 1) or represents(n, -n, -1)) for n in range(2, 6)])
print("so M_n is root-free and its kernel group is all determinant +1.")
