"""Exact-arithmetic automorphism groups of rank-3 Picard lattices.

The discriminant kernel of an even lattice of rank 3 is the unit group of
its Clifford algebra modulo sign; this package computes both sides of that
isomorphism and everything the correspondence touches: discriminant groups
and forms, the even Clifford algebra as a quaternion order, the exterior
square apparatus that proves the isomorphism, congruence subgroups of the
modular group for the U(n) + <-2n> lattices, and Salem polynomials of the
resulting K3 automorphisms.

Everything is exact (ints and Fractions); all values are immutable and all
operations pure, so the API is thread-safe by construction.
"""

from .clifford import (CliffordElement, EvenCliffordElement, GramParams,
                       OddCliffordElement, alternating_E, clifford_mul,
                       element_E, gram_B, norm, phi_rep, reversal, trace)
from .exterior import (PBasis, eta_matrix, lambda_minus_matrix,
                       lambda_plus_matrix, mu_matrix, mu_tilde_matrix, p_bases)
from .isometries import (CliffordUnit, Isometry3, clifford_lift, family_unit,
                         g_alpha, h_alpha, p_alpha_and_unit, p_alpha_matrix,
                         phi_alpha, seeded_units, spinor_norm, unit_product,
                         unit_search_even, v_set_search)
from .lattice import (DiscriminantGroup, FiniteQuadraticForm, Lattice,
                      disc, discriminant_form, discriminant_group,
                      family_lattice, form_orthogonal_group,
                      in_discriminant_kernel, m_n_lattice,
                      preserves_positive_cone, represents, signature)
from .modular import (ModularElement, SubgroupSpec, delta_n, free_rank,
                      g_n_class_witness, index_gamma_n, index_pi_g_n, member,
                      negative_pell, prime_power_generator,
                      provably_torsion_free, qr_minus_one, torsion_search)
from .report import (AutReport, SalemDatum, analyze_picard, salem_poly,
                     symplectic_split, wehler_trace_classes)
from .verify import (clifford_suite, exterior_suite, roundtrip_suite,
                     run_suites)

__version__ = "1.0.0"
