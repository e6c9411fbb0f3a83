"""Top-level K3 semantics for Picard lattices U(k) + <2l>: hypothesis
checks, the automorphism-group description through the discriminant-kernel
isomorphism, the symplectic/anti-symplectic split, and Salem polynomials.

The subject of a report is always the lattice-theoretic group; the K3
surface itself is never modeled (its existence for signature (1,2) forms is
classical).  An M_n report carries the G_n congruence block of
modular.congruence_data (torsion-freeness proved for n >= 3, searched to
TORSION_SEARCH_BOUND below), and congruence_lines prints that block for
both ``analyze`` and ``congruence``.  The abstract structure of the unit
group is reported as bounded evidence, never as a theorem.
"""

from __future__ import annotations

from ._value import Value, check_ints
from .clifford import GramParams
from .isometries import (clifford_lift, h_alpha, p_alpha_and_unit, phi_alpha,
                         unit_search_even)
from .lattice import represents
from .linalg import char_poly, mat
from .modular import (TORSION_SEARCH_BOUND, ModularElement, congruence_data,
                      qr_minus_one)

SCHEMA = "picard3-aut/1"  # the schema tag of the JSON outputs


class SalemDatum(Value):
    """The cubic char.poly. data (t - nr)(t^2 - A t + 1) of a unit.

    A = Tr(alpha)^2 - 2 Nr(alpha).  The quadratic factor is a Salem
    polynomial iff A > 2; for A <= -2 the real spectral radius is the larger
    root of t^2 - |A| t + 1 (reported as not-Salem).
    """

    __slots__ = _fields = ("matrix", "nr", "a_value", "is_salem", "symplectic")

    @property
    def cubic_coeffs(self):
        """Coefficients of (t - nr)(t^2 - A t + 1), descending degree."""
        a, nr = self.a_value, self.nr
        return (1, -(a + nr), 1 + nr * a, -nr)

    def to_json(self) -> dict:
        return {
            "matrix": [list(r) for r in self.matrix],
            "nr": self.nr,
            "A": self.a_value,
            "cubic": list(self.cubic_coeffs),
            "is_salem": self.is_salem,
            "symplectic": self.symplectic,
        }


def salem_poly(alpha) -> SalemDatum:
    """Salem data of a 2x2 integer matrix with det = +-1 (mod +-1)."""
    el = ModularElement.from_matrix(alpha)
    nr = el.det
    a_val = el.trace ** 2 - 2 * nr
    return SalemDatum(el.matrix, nr, a_val, a_val > 2, nr == 1)


def symplectic_split(alpha) -> bool:
    """Symplectic <=> det(alpha) = 1, for units acting on a family lattice."""
    return ModularElement.from_matrix(alpha).det == 1


def wehler_trace_classes(n_max: int):
    """Verify the mod-4 trace law on the Pi(2) units of entries at most 9 and
    tabulate A.

    Returns (units_checked, table) where table[n] = (A_symplectic,
    A_antisymplectic) = ((4n+2)^2 - 2, (4n)^2 + 2) for 1 <= n <= n_max.
    Raises AssertionError if any searched unit violates the trace law.
    """
    check_ints(n_max)
    units = unit_search_even(2, -2, 9)
    checked = 0
    for m in units:
        el = ModularElement.from_matrix(m)
        t = el.trace
        if el.det == 1:
            if (t - 2) % 4 != 0 and (t + 2) % 4 != 0:
                raise AssertionError(f"symplectic trace law fails for {m}")
        else:
            if t % 4 != 0:
                raise AssertionError(f"anti-symplectic trace law fails for {m}")
        checked += 1
    table = {n: ((4 * n + 2) ** 2 - 2, (4 * n) ** 2 + 2)
             for n in range(1, n_max + 1)}
    return checked, table


def congruence_lines(n: int, block: dict) -> list:
    """The text lines of the G_n congruence block (modular.congruence_data)
    that ``analyze`` and ``congruence`` print."""
    t = block["torsion_bounded_search"]
    found, bound = t["found_count"], t["bound"]
    lines = [f"congruence data: [Pi : G_{n}] = {block['index_in_Pi']}, "
             f"delta = {block['delta_n']}",
             f"torsion: FOUND {found} elements (bound {bound}); not a free group"
             if found else f"torsion: none with entries <= {bound} (bounded evidence only)"]
    if block["free_rank"] is not None:
        lines.append(f"free rank (if torsion-free): {block['free_rank']}")
    lines.append(f"presentation: {block['presentation']}")
    return lines


class AutReport(Value):
    """Structured description of Aut(X) for a U(k) + <2l> Picard lattice."""

    __slots__ = _fields = ("k", "l", "is_m_n", "n", "signature", "hypotheses_met",
                           "hypothesis_failures", "root_free", "disc", "group_model",
                           "v_coset_present", "antisymplectic_exists",
                           "image_order_m", "congruence", "samples", "bounds")

    def to_json(self) -> dict:
        out = {
            "schema": SCHEMA,
            "family": {"k": self.k, "l": self.l},
            "signature": list(self.signature),
            "hypotheses_met": self.hypotheses_met,
            "hypothesis_failures": list(self.hypothesis_failures),
            "root_free": self.root_free,
            "disc": self.disc,
            "group_model": self.group_model,
            "v_coset_present": self.v_coset_present,
            "antisymplectic_exists": self.antisymplectic_exists,
            "image_order_m": self.image_order_m,
            "congruence": self.congruence,
            "samples": [s.to_json() for s in self.samples],
            "bounds": self.bounds,
        }
        if self.is_m_n:
            out["family"]["n"] = self.n
        return out

    def render_text(self) -> str:
        lines = []
        fam = f"U({self.k}) + <{2 * self.l}>"
        if self.is_m_n:
            fam += f"  (= M_{self.n})"
        lines.append(f"Picard lattice {fam}, disc = {self.disc}, "
                     f"signature {self.signature}")
        if not self.hypotheses_met:
            lines.append("HYPOTHESES NOT MET: " + "; ".join(self.hypothesis_failures))
        lines.append(f"root-free (no (-2)-vectors): {self.root_free}")
        lines.append(f"group model: {self.group_model}")
        lines.append(f"odd coset (V-set) present: {self.v_coset_present}")
        lines.append(f"anti-symplectic automorphisms exist: {self.antisymplectic_exists}"
                     f"  (image in GL(H^2,0) has order m = {self.image_order_m})")
        if self.congruence is not None:
            lines += congruence_lines(self.n, self.congruence)
        for s in self.samples:
            tag = "salem" if s.is_salem else "not-salem"
            kind = "symplectic" if s.symplectic else "anti-symplectic"
            lines.append(f"sample {list(map(list, s.matrix))}: A = {s.a_value}, "
                         f"{kind}, {tag}")
        lines.append(f"bounds: {self.bounds}")
        return "\n".join(lines)


def _sample_units(k: int, l: int, search_bound: int):
    """Three nontrivial searched units: Salem-bearing ones (A > 2) first,
    then by |trace|."""
    units = [m for m in unit_search_even(k, l, search_bound)
             if m != mat([[1, 0], [0, 1]])]

    def key(m):
        (a, b), (c, d) = m
        t = a + d
        return (t * t - 2 * (a * d - b * c) <= 2, abs(t), m)

    return sorted(units, key=key)[:3]


def analyze_picard(k: int, l: int, search_bound: int = 20) -> AutReport:
    """Assemble the automorphism-group report for U(k) + <2l>.

    Hypothesis violations (signature not (1,2), i.e. l > 0, or a (-2)-vector)
    flag the report instead of raising; k = 0 or l = 0 raises ValueError.
    Every sample automorphism is re-verified on the spot: the ternary matrix
    identity, discriminant-kernel membership, cone preservation, and the
    Clifford lift round trip.
    """
    params = GramParams.family(k, l)
    sig = (2, 1) if l > 0 else (1, 2)   # U(k) is (1, 1); <2l> adds sign(l)
    failures = []
    if sig != (1, 2):
        failures.append(f"signature is {sig}, not (1,2) (need l < 0)")
    plus, minus = represents(k, l, 1), represents(k, l, -1)
    root_free = not minus
    if not root_free:
        failures.append("lattice represents -2: (-2)-curves obstruct Aut = O_Gamma")

    v_present = plus or minus
    antisymplectic = qr_minus_one(abs(k)) or plus

    is_m_n = (l == -k and k >= 2)
    n = k if is_m_n else None
    if is_m_n:
        model = f"G_{n} = B_{{{n},{n}}}^x / {{+-1}} in PGL2(Z)"
    else:
        model = (f"B_{{{k},{l}}}^x / {{+-1}}"
                 + (" with odd coset V" if v_present else " (no odd coset)"))

    congruence = congruence_data(n) if is_m_n else None

    samples = tuple(_verify_sample(m, k, l, params, sig)
                    for m in _sample_units(k, l, search_bound))

    return AutReport(
        k, l, is_m_n, n, sig, not failures, tuple(failures), root_free,
        params.disc, model, v_present, antisymplectic,
        2 if antisymplectic else 1, congruence, samples,
        {"unit_search": search_bound, "torsion_search": TORSION_SEARCH_BOUND})


def _verify_sample(m, k, l, params, sig) -> SalemDatum:
    """Hard checks every report sample must pass (raise on failure); returns
    the sample's Salem datum."""
    p, u = p_alpha_and_unit(m, k, l)  # isometry identity checked on construction
    h = h_alpha(u, params)
    if not h.in_kernel:
        raise AssertionError("sample h_alpha left the discriminant kernel")
    if sig == (1, 2):
        ph = phi_alpha(u, params)
        if not ph.preserves_cone:
            raise AssertionError("sample phi_alpha does not preserve the cone")
    lift, nval = clifford_lift(h, params)
    if nval not in (1, -1):
        raise AssertionError("sample lift is not a unit")
    if lift != u.element:
        raise AssertionError("sample lift round trip failed")
    # salem data equals the characteristic polynomial of P_alpha
    datum = salem_poly(m)
    if char_poly(p.matrix) != datum.cubic_coeffs:
        raise AssertionError("salem coefficients disagree with char(P_alpha)")
    return datum

