# Congruence subgroups and free groups of large rank
# ---------------------------------------------------
# For M_n = U(n) + <-2n> the kernel group is G_n, the scalar congruence
# classes mod n inside PGL2(Z).  Indices, torsion, and free ranks are all
# finite computations.

from itertools import product

from picard3 import (SubgroupSpec, analyze_picard, delta_n, free_rank,
                     index_gamma_n, index_pi_g_n, negative_pell,
                     prime_power_generator, qr_minus_one, torsion_search)


def order_psl2_zn(n):
    """|PSL2(Z/n)|: the det-1 matrices mod n, counted one by one, up to sign."""
    count = sum((a * d - b * c) % n == 1 for a, b, c, d in product(range(n), repeat=4))
    return count if n == 2 else count // 2


# The classical index formula vs the exhaustive count of PSL2(Z/n):
print("n   [Gamma:Gamma(n)]   |PSL2(Z/n)|")
for n in range(2, 11):
    print(f"{n:<4}{index_gamma_n(n):<19}{order_psl2_zn(n)}")

# delta_n counts square roots of +-1 mod n up to sign; it measures how much
# larger G_n is than the principal congruence subgroup Gamma(n).
print("\nn, delta_n, [Pi:G_n]:")
for n in (2, 3, 4, 5, 8, 13, 16):
    print(f"  {n}: delta = {delta_n(n)}, index = {index_pi_g_n(n)}")

# G_2 contains torsion (the Wehler involutions); G_n for n >= 3 shows none
# in bounded searches, and a torsion-free subgroup of index i in PGL2(Z) is
# free of rank i/12 + 1.
t2 = torsion_search(SubgroupSpec("G_n", n=2), 5)
print("\ntorsion in G_2, entries <= 5:", len(t2), "elements, e.g.",
      (t2[0].a, t2[0].b, t2[0].c, t2[0].d))
for n in (3, 4, 8, 16):
    found = torsion_search(SubgroupSpec("G_n", n=n), 30)
    idx = index_pi_g_n(n)
    rank = free_rank(idx) if not found else None
    print(f"G_{n}: torsion found {len(found)}, index {idx}, free rank {rank}")

# Free rank grows without bound along n = 2^e: rank = 2^(3e-5) + 1.
print("\nranks along n = 2^e:",
      [(2 ** e, free_rank(index_pi_g_n(2 ** e))) for e in (3, 4, 5)])

# The extra generator of G_n over Gamma(n) for prime powers:
for n in (2, 4, 8, 5, 13, 7):
    g = prime_power_generator(n)
    desc = "none (G = Gamma(n))" if g is None else (g.a, g.b, g.c, g.d)
    print(f"G_{n} extra generator: {desc}")

# Anti-symplectic automorphisms of the K3 surface exist iff -1 is a QR
# mod n; the negative Pell equation x^2 - D y^2 = -4 plays the same role
# for rank-2 sublattices.
print("\n-1 QR mod n:", [(n, qr_minus_one(n)) for n in (2, 3, 5, 8, 13)])
print("negative Pell, D=5:", negative_pell(5), " D=3:", negative_pell(3))

# Everything assembled into one report, with units searched to bound 12:
print()
print(analyze_picard(8, -8, search_bound=12).render_text())
