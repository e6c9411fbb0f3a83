"""Seeded property suites: the executable witnesses of the main
correctness claims, shared by the command line driver and the test suite.

Three suites:

* ``clifford``: multiplication, trace/norm, the matrix representation, the
  central element, and the printed Gram matrices, on random Gram tuples.
* ``exterior``: the P+/P- certificates and the two-sided and odd actions
  on the exterior square, on random Gram tuples, each action on P+ or P-
  checked on the basis rows of :func:`exterior.p_bases`.
* ``roundtrip``: unit -> isometry -> lift round trips on the U(k) + <2l>
  families, including the ternary matrix identity and cone checks.

Every suite is reproducible from (trials, seed) alone.  Random integers are
drawn by ``rng.choice`` over a range: it makes the one ``_randbelow`` call
that ``rng.randint`` makes on the same bounds, so it draws the same stream,
at a lower cost.
"""

from __future__ import annotations

import random

from . import exterior as ext
from ._value import check_ints
from .clifford import (DIM, EvenCliffordElement, GramParams,
                       OddCliffordElement, alternating_E, clifford_mul,
                       element_E, integer_gram_B, integer_mul, norm, phi_rep,
                       reversal, trace)
from .isometries import (clifford_lift, family_unit, g_alpha, h_alpha,
                         p_alpha_and_unit, phi_alpha, seeded_units,
                         unit_product, unit_search_even)
from .linalg import det, mat, mat_mul, mat_vec, transpose

FAMILIES = ((1, -1), (2, -2), (3, -3), (2, 3), (5, -7))
GRAM_BOUND = 5   # |entries| of the clifford and exterior suites' Gram tuples
ACTIONS_PER_TRIAL = 5   # random x, ox of the exterior suite per Gram tuple
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


def _draws(rng: random.Random, bound: int, n: int) -> list:
    """n integers drawn as n calls rng.randint(-bound, bound) would draw them."""
    r = range(-bound, bound + 1)
    return [rng.choice(r) for _ in range(n)]


def _random_params(rng: random.Random) -> GramParams:
    while True:
        p = GramParams(*_draws(rng, GRAM_BOUND, 6))
        if p.disc != 0:
            return p


def _scales(m, ws, c, k=1) -> bool:
    """k m w == c w for each basis row w of ws, up to the first mismatch."""
    for w in ws:
        for y, x in zip(mat_vec(m, w), w):
            if k * y != c * x:
                return False
    return True


def clifford_suite(trials: int, seed: int) -> SuiteResult:
    check_ints(trials, seed)
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
        # E^2 = -D0 = -disc/8 for E = E.ints / den reads 8 E.ints^2 = -den^2 disc
        res.check([8 * v for v in integer_mul(E.ints, E.ints, p)]
                  == [-E.den ** 2 * p.disc] + [0] * (DIM - 1), f"E^2 = -D0: {tag}")
        # det Q_B = det(2 Q_B) / 16 and D0^2 = disc^2 / 64
        res.check(4 * det(integer_gram_B(p)) == p.disc ** 2, f"det Q_B: {tag}")
        try:
            alternating_E(p)
            res.check(True, "")
        except AssertionError:
            res.check(False, f"alternating E: {tag}")
        for _ in range(10):   # random pairs through Phi per Gram tuple
            x = EvenCliffordElement(*_draws(rng, 4, 4))
            y = EvenCliffordElement(*_draws(rng, 4, 4))
            px = phi_rep(x, p)
            res.check(mat_mul(px, phi_rep(y, p))
                      == phi_rep(clifford_mul(x, y, p), p),
                      f"Phi multiplicative: {tag}")
            res.check(norm(x, p) ** 2 == det(px), f"Nr^2 = det Phi: {tag}")
            res.check(2 * trace(x, p) == sum(px[i][i] for i in range(4)),
                      f"Tr = trace Phi / 2: {tag}")
    return res


def exterior_suite(trials: int, seed: int) -> SuiteResult:
    check_ints(trials, seed)
    rng = _rng(seed, "exterior")
    res = SuiteResult("exterior")
    one = EvenCliffordElement(1, 0, 0, 0)
    for _ in range(trials):
        p = _random_params(rng)
        tag = f"params {p}"
        try:  # gram, orthogonality, primitivity certificates
            pb = ext.p_bases(p)
            res.check(True, "")
        except AssertionError as exc:
            res.check(False, f"P bases: {tag}: {exc}")
            continue
        plus, minus = pb.plus, pb.minus
        for _ in range(ACTIONS_PER_TRIAL):
            x = EvenCliffordElement(*_draws(rng, 3, 4))
            nx = norm(x, p)
            res.check(_scales(ext.mu_matrix(x, one, p), plus, nx), f"mu(x,1)|P+: {tag}")
            res.check(_scales(ext.mu_matrix(one, x, p), minus, nx), f"mu(1,x)|P-: {tag}")
            while True:
                ox = OddCliffordElement(*_draws(rng, 3, 4))
                nox = norm(ox, p)
                if nox != 0:
                    break
            # ox is integral, so mu~(ox) = mt and eta_ox = eta_t / (-N ox):
            # the P- identity reads mt = -N ox on P-, and in the P+ identity
            # the scale factors cancel: mt w_j = sum_i eta_t[i][j] w_i
            mt, eta_t = ext.integer_mu_tilde(ox.ints, p), ext.integer_eta(ox.ints, p)
            res.check(_scales(mt, minus, -nox), f"mu~(x)|P-: {tag}")
            res.check(all(mat_vec(mt, w) == v
                          for w, v in zip(plus, mat_mul(transpose(eta_t), plus))),
                      f"mu~(x)|P+ = (-Nx) eta_x: {tag}")
        # functoriality and the scaling law on one random pair
        x1, x2, y1, y2 = (EvenCliffordElement(*_draws(rng, 2, 4)) for _ in range(4))
        x12, y21 = clifford_mul(x1, x2, p), clifford_mul(y2, y1, p)
        mm = ext.mu_matrix(x1, y1, p)
        res.check(ext.mu_matrix(x12, y21, p) == mat_mul(mm, ext.mu_matrix(x2, y2, p)),
                  f"mu functorial: {tag}")
        w1, w2 = _draws(rng, 3, 6), _draws(rng, 3, 6)
        n1, n2 = norm(x1, p), norm(y1, p)
        res.check(ext.pair_w(mat_vec(mm, w1), mat_vec(mm, w2))
                  == n1 * n1 * n2 * n2 * ext.pair_w(w1, w2),
                  f"mu scaling law: {tag}")
        # central element scalars: mu~(E) = mtE / den(E)^2, so
        # mu~(E) = +-D0 = +-disc/8 reads 8 mtE = +-den(E)^2 disc
        E = element_E(p)
        mtE = ext.integer_mu_tilde(E.ints, p)
        d = E.den ** 2 * p.disc
        res.check(_scales(mtE, plus, d, 8), f"mu~(E)|P+ = D0: {tag}")
        res.check(_scales(mtE, minus, -d, 8), f"mu~(E)|P- = -D0: {tag}")
    return res


def roundtrip_suite(trials: int, seed: int) -> SuiteResult:
    """Main-Theorem round trips: ``trials`` seeded units per family."""
    check_ints(trials, seed)
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
        lam = ext.lambda_plus_matrix(params)
        for m in unit_search_even(k, l, 4)[:10]:
            u = family_unit(m, k, l)
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
