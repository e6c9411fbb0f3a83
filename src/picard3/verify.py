"""Seeded property suites: the executable witnesses of the main
correctness claims, shared by the command line driver and the test suite.

Three suites:

* ``clifford``: multiplication, trace/norm, the matrix representation, the
  central element, and the printed Gram matrices, on random Gram tuples.
* ``exterior``: the P+/P- certificates and the two-sided and odd actions
  on the exterior square, on random Gram tuples.
* ``roundtrip``: unit -> isometry -> lift round trips on the U(k) + <2l>
  families, including the ternary matrix identity and cone checks.

Every suite is reproducible from (trials, seed) alone.
"""

from __future__ import annotations

import random

from . import exterior as ext
from .clifford import (DIM, CliffordElement, EvenCliffordElement, GramParams,
                       OddCliffordElement, alternating_E, clifford_mul,
                       element_E, integer_gram_B, integer_mul, norm, phi_rep,
                       reversal, trace)
from .isometries import (clifford_lift, family_unit, g_alpha, h_alpha,
                         p_alpha_and_unit, phi_alpha, seeded_units,
                         unit_product, unit_search_even)
from .linalg import det, mat, mat_mul, mat_scale, mat_vec

FAMILIES = ((1, -1), (2, -2), (3, -3), (2, 3), (5, -7))
GRAM_BOUND = 5   # |entries| of the clifford and exterior suites' Gram tuples
# The monomials 1, E1, ..., E1E2E3 as integer coordinates.
_BASIS = tuple(tuple(int(m == i) for m in range(DIM)) for i in range(DIM))


class SuiteResult:
    """The counts of one suite's checks and its first 20 failure labels."""

    def __init__(self, name: str):
        self.name = name
        self.passed = self.failed = 0
        self.failures = []

    def check(self, ok: bool, label: str):
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(label)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def to_json(self) -> dict:
        return {"suite": self.name, "passed": self.passed,
                "failed": self.failed, "failures": self.failures}


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"picard3:{seed}:{name}")


def _random_params(rng: random.Random) -> GramParams:
    while True:
        p = GramParams(*(rng.randint(-GRAM_BOUND, GRAM_BOUND) for _ in range(6)))
        if p.disc != 0:
            return p


def clifford_suite(trials: int, seed: int) -> SuiteResult:
    rng = _rng(seed, "clifford")
    res = SuiteResult("clifford")
    for _ in range(trials):
        p = _random_params(rng)
        tag = f"params {p}"
        E = element_E(p)
        # E e and e E share the denominator of E: equal integer lists
        res.check(all(integer_mul(E.ints, e, p) == integer_mul(e, E.ints, p)
                      for e in _BASIS), f"E central: {tag}")
        res.check(reversal(E, p) == -E, f"E* = -E: {tag}")
        res.check(clifford_mul(E, E, p) == CliffordElement.scalar(-p.disc_half),
                  f"E^2 = -D0: {tag}")
        # det Q_B = det(2 Q_B) / 16 and D0^2 = disc^2 / 64
        res.check(4 * det(integer_gram_B(p)) == p.disc ** 2, f"det Q_B: {tag}")
        try:
            alternating_E(p)
            res.check(True, "")
        except AssertionError:
            res.check(False, f"alternating E: {tag}")
        for _ in range(10):   # random pairs through Phi per Gram tuple
            x = EvenCliffordElement(*(rng.randint(-4, 4) for _ in range(4)))
            y = EvenCliffordElement(*(rng.randint(-4, 4) for _ in range(4)))
            px = phi_rep(x, p)
            res.check(mat_mul(px, phi_rep(y, p))
                      == phi_rep(clifford_mul(x, y, p), p),
                      f"Phi multiplicative: {tag}")
            res.check(norm(x, p) ** 2 == det(px), f"Nr^2 = det Phi: {tag}")
            res.check(2 * trace(x, p) == sum(px[i][i] for i in range(4)),
                      f"Tr = trace Phi / 2: {tag}")
    return res


def exterior_suite(trials: int, seed: int,
                   actions_per_trial: int = 5) -> SuiteResult:
    rng = _rng(seed, "exterior")
    res = SuiteResult("exterior")
    one = EvenCliffordElement(1, 0, 0, 0)
    for _ in range(trials):
        p = _random_params(rng)
        tag = f"params {p}"
        try:
            ext.p_bases(p)  # gram, orthogonality, primitivity certificates
            res.check(True, "")
        except AssertionError as exc:
            res.check(False, f"P bases: {tag}: {exc}")
            continue
        lp, lm = ext.lambda_plus_matrix(p), ext.lambda_minus_matrix(p)
        for _ in range(actions_per_trial):
            x = EvenCliffordElement(*(rng.randint(-3, 3) for _ in range(4)))
            nx = norm(x, p)
            res.check(mat_mul(ext.mu_matrix(x, one, p), lp)
                      == mat_scale(nx, lp), f"mu(x,1)|P+: {tag}")
            res.check(mat_mul(ext.mu_matrix(one, x, p), lm)
                      == mat_scale(nx, lm), f"mu(1,x)|P-: {tag}")
            while True:
                ox = OddCliffordElement(*(rng.randint(-3, 3) for _ in range(4)))
                nox = norm(ox, p)
                if nox != 0:
                    break
            # ox is integral, so mu~(ox) = mt and eta_ox = eta_t / (-N ox):
            # the P- identity reads mt = -N ox on P-, and in the P+ identity
            # the scale factors cancel
            mt, eta_t = ext.integer_mu_tilde(ox.ints, p), ext.integer_eta(ox.ints, p)
            res.check(mat_mul(mt, lm) == mat_scale(-nox, lm),
                      f"mu~(x)|P-: {tag}")
            res.check(mat_mul(mt, lp) == mat_mul(lp, eta_t),
                      f"mu~(x)|P+ = (-Nx) eta_x: {tag}")
        # functoriality and the scaling law on one random pair
        x1, x2, y1, y2 = (EvenCliffordElement(*(rng.randint(-2, 2) for _ in range(4)))
                          for _ in range(4))
        x12, y21 = clifford_mul(x1, x2, p), clifford_mul(y2, y1, p)
        mm = ext.mu_matrix(x1, y1, p)
        res.check(ext.mu_matrix(x12, y21, p) == mat_mul(mm, ext.mu_matrix(x2, y2, p)),
                  f"mu functorial: {tag}")
        w1 = tuple(rng.randint(-3, 3) for _ in range(6))
        w2 = tuple(rng.randint(-3, 3) for _ in range(6))
        n1, n2 = norm(x1, p), norm(y1, p)
        res.check(ext.pair_w(mat_vec(mm, w1), mat_vec(mm, w2))
                  == n1 * n1 * n2 * n2 * ext.pair_w(w1, w2),
                  f"mu scaling law: {tag}")
        # central element scalars: mu~(E) = mtE / den(E)^2, so
        # mu~(E) = +-D0 = +-disc/8 reads 8 mtE = +-den(E)^2 disc
        E = element_E(p)
        mtE = ext.integer_mu_tilde(E.ints, p)
        d = E.den ** 2 * p.disc
        res.check(mat_scale(8, mat_mul(mtE, lp)) == mat_scale(d, lp),
                  f"mu~(E)|P+ = D0: {tag}")
        res.check(mat_scale(8, mat_mul(mtE, lm)) == mat_scale(-d, lm),
                  f"mu~(E)|P- = -D0: {tag}")
    return res


def roundtrip_suite(trials: int, seed: int) -> SuiteResult:
    """Main-Theorem round trips: ``trials`` seeded units per family."""
    res = SuiteResult("roundtrip")
    for k, l in FAMILIES:
        params = GramParams.family(k, l)
        units = seeded_units(k, l, trials, seed)
        tag = f"family ({k},{l})"
        hs = {}  # h_alpha matrices of the units whose h_alpha succeeded
        for u in units:
            try:  # each map checks its own invariants (norm form, isometry, det, lift)
                h = h_alpha(u, params)
                hs[u] = h.matrix
                lift, n = clifford_lift(h, params)
                ph = phi_alpha(u, params)
            except AssertionError as exc:
                res.check(False, f"unit maps: {tag}: {exc}")
                continue
            res.check(h.in_kernel, f"h_alpha kernel: {tag}")
            res.check(n in (1, -1), f"lift norm: {tag}")
            res.check(lift == u.element, f"lift = +-alpha: {tag}")
            res.check(ph.det == u.norm, f"det phi = N: {tag}")
            if l < 0:   # signature (1, 2)
                res.check(ph.preserves_cone, f"phi in O+: {tag}")
        # homomorphism property and the ternary matrix identity
        rng = _rng(seed, f"roundtrip:{k}:{l}")
        for _ in range(min(trials, 25)):
            u1, u2 = rng.choice(units), rng.choice(units)
            try:  # a unit whose h_alpha failed above fails this check too
                ok = (u1 in hs and u2 in hs and mat_mul(hs[u1], hs[u2])
                      == h_alpha(unit_product(u1, u2, params), params).matrix)
            except AssertionError:
                ok = False
            res.check(ok, f"h homomorphism: {tag}")
        for m in unit_search_even(k, l, 6)[:20]:
            try:
                pal, u = p_alpha_and_unit(m, k, l)  # the isometry identity
                res.check(True, "")
            except ValueError:
                res.check(False, f"P_alpha isometry: {tag}")
                continue
            s = mat([[0, 0, 1], [0, -1, 0], [1, 0, 0]])
            ph = phi_alpha(u, params)
            res.check(mat_mul(mat_mul(s, ph.matrix), s) == pal.matrix,
                      f"P_alpha = phi_alpha: {tag}")
        # Claim 1 round trip through the exterior square
        for m in unit_search_even(k, l, 4)[:10]:
            u = family_unit(m, k, l)
            lam = ext.lambda_plus_matrix(params)
            mm = ext.mu_of_unit_conjugation(u.element, params)
            res.check(mat_mul(mm, lam) == mat_mul(lam, g_alpha(u, params)),
                      f"Claim 1: {tag}")
    return res


ALL_SUITES = {
    "clifford": clifford_suite,
    "exterior": exterior_suite,
    "roundtrip": roundtrip_suite,
}


def run_suites(names, trials: int, seed: int):
    """Run the named suites and return the list of SuiteResult."""
    return [ALL_SUITES[name](trials, seed) for name in names]
