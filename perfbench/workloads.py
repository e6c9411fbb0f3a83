"""The three workloads: their inputs, the timed operation, and the checks.

Each workload makes its inputs from the seed alone and hands them out in
rounds of (kind, input) pairs; every round holds the same kinds, and no
input is handed out twice in one process.  ``op`` is the only code that is timed.
``check`` and ``final_check`` verify the outputs against the benchmark's
own arithmetic (``numth``) or against properties the paper requires; they
raise ``CheckError`` on a wrong answer.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction

# The timed calls go through the module attributes (cli.main,
# isometries.h_alpha, ...), so that the tracer's rebinding reaches them.
from picard3 import cli, isometries
from picard3.clifford import (CliffordElement, GramParams, OddCliffordElement,
                              clifford_mul, element_E, norm)
from picard3.isometries import CliffordUnit, family_unit

import numth

GOLDEN = 0.6180339887498949


class CheckError(Exception):
    """An output of the program is wrong."""


def _require(ok: bool, what: str):
    if not ok:
        raise CheckError(what)


def _sign_normal(t):
    for x in t:
        if x != 0:
            return tuple(t) if x > 0 else tuple(-v for v in t)
    raise ValueError("zero tuple")


def run_cli(argv):
    """picard3.cli.main(argv) in-process, stdout captured: (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


# ---------------------------------------------------------------- roundtrip

FAMILIES = ((1, -1), (2, -2), (3, -3), (2, 3), (5, -7))
WORD_LENGTHS = (2, 16)  # even units: words of up to this many generators
COORD_CAP = 10 ** 4     # |coordinate| cap, so operations cost about the same
ODD_BOX = 20            # |x2|, |x4| bound for odd units
_NONZERO = [v for v in range(-ODD_BOX, ODD_BOX + 1) if v]


def unit_generators(k: int, l: int):
    """The B_{k,l} matrices [[a, b], [c, d]] with det +-1, other than +-I, up
    to the smallest entry bound that gives both upper and lower triangular
    shapes (b != 0 and c != 0), so that words in them are dense.  The set is
    closed under inverse."""
    bound = 1
    while True:
        gens = set()
        for a in range(-bound, bound + 1):
            for b in range(-bound, bound + 1):
                if b % l:
                    continue
                for c in range(-bound, bound + 1):
                    if c % k:
                        continue
                    for eps in (1, -1):
                        if a == 0:
                            if b * c != -eps:
                                continue
                            ds = range(-bound, bound + 1)
                        elif (eps + b * c) % a:
                            continue
                        else:
                            ds = ((eps + b * c) // a,)
                        for d in ds:
                            if abs(d) <= bound and (a - d) % k == 0:
                                gens.add(_sign_normal((a, b, c, d)))
        gens.discard((1, 0, 0, 1))
        if any(g[1] for g in gens) and any(g[2] for g in gens):
            return sorted(gens)
        bound += 1


def _mul2(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


class _EvenUnits:
    """Distinct even units of U(k) + <2l>: words in B_{k,l} generators.

    A matrix [[a, b], [c, d]] has unit coordinates (d, b/l, (a-d)/k, c/k)
    and norm ad - bc.  A word stops growing before a coordinate would pass
    COORD_CAP; only units with four nonzero coordinates are used.
    """

    grade = "even"

    def __init__(self, k, l, rng):
        self.k, self.l, self.rng = k, l, rng
        self.gens = unit_generators(k, l)
        self.seen = set()

    def next(self):
        k, l, rng = self.k, self.l, self.rng
        for _ in range(100000):
            m, coords = (1, 0, 0, 1), None
            for _ in range(rng.randint(*WORD_LENGTHS)):
                a, b, c, d = _mul2(m, rng.choice(self.gens))
                step = (d, b // l, (a - d) // k, c // k)
                if max(map(abs, step)) > COORD_CAP:
                    break
                m, coords = (a, b, c, d), _sign_normal(step)
            if coords is None or 0 in coords or coords in self.seen:
                continue
            self.seen.add(coords)
            (a, b, c, d) = m
            unit = family_unit(((a, b), (c, d)), k, l)
            return unit, coords, a * d - b * c
        raise RuntimeError(f"no new even unit found for ({k}, {l})")


class _OddUnits:
    """Distinct odd units x4 E1E2E3 + x1 E1 + x2 E2 + x3 E3 of U(k) + <2l>.

    N = k x1 x3 + l x2 (x2 - k x4) = +-1: pick x2, x4 and the sign, then split
    (eps - l x2 (x2 - k x4)) / k as x1 x3.  All four coordinates are nonzero.
    """

    grade = "odd"

    def __init__(self, k, l, rng):
        self.k, self.l, self.rng = k, l, rng
        self.params = GramParams(0, l, 0, 0, k, 0)
        self.seen = set()

    def next(self):
        k, l, rng = self.k, self.l, self.rng
        for _ in range(100000):
            x2, x4 = rng.choice(_NONZERO), rng.choice(_NONZERO)
            eps = rng.choice((1, -1))
            r = eps - l * x2 * (x2 - k * x4)
            if r == 0 or r % k:
                continue
            m = r // k
            divs = [v for v in range(1, min(abs(m), COORD_CAP) + 1) if m % v == 0]
            x1 = rng.choice(divs) * rng.choice((1, -1))
            x3 = m // x1
            coords = _sign_normal((x4, x1, x2, x3))
            if max(map(abs, coords)) > COORD_CAP or coords in self.seen:
                continue
            self.seen.add(coords)
            x4, x1, x2, x3 = coords
            unit = CliffordUnit.from_element(OddCliffordElement(x4, x1, x2, x3),
                                             self.params)
            return unit, coords, k * x1 * x3 + l * x2 * (x2 - k * x4)
        raise RuntimeError(f"no new odd unit found for ({k}, {l})")


class Roundtrip:
    """h_alpha then clifford_lift on the five acceptance families.

    A round is one unit of each (family, grade) slot: an even slot for every
    family, and an odd slot where the odd coset exists.
    """

    name = "roundtrip"
    trace_rounds_per_s = 4
    rss_after_ops = 700

    def __init__(self, seed: int):
        rng = random.Random(f"roundtrip:{seed}")
        self.slots = []
        for k, l in FAMILIES:
            params = GramParams(0, l, 0, 0, k, 0)
            gram = [[0, 0, k], [0, 2 * l, 0], [k, 0, 0]]
            self.slots.append((k, l, params, gram, _EvenUnits(k, l, rng)))
            if numth.represents_unit(k, l, 1) or numth.represents_unit(k, l, -1):
                self.slots.append((k, l, params, gram, _OddUnits(k, l, rng)))

    def warm_up(self):
        for _, inp in self.next_round():
            self.check(inp, self.op(inp))

    def next_round(self):
        """[(slot, input), ...]: one unit per (family, grade) slot."""
        out = []
        for k, l, params, gram, source in self.slots:
            unit, coords, nrm = source.next()
            out.append((f"U({k})+<{2 * l}> {source.grade}",
                        (k, l, params, gram, source.grade, unit, coords, nrm)))
        return out

    @staticmethod
    def op(inp):
        params, unit = inp[2], inp[5]
        h = isometries.h_alpha(unit, params)
        return h, isometries.clifford_lift(h, params)

    @staticmethod
    def check(inp, out):
        k, l, _, gram, grade, _, coords, nrm = inp
        h, (lift, lift_norm) = out
        tag = f"({k}, {l}) {grade} {coords}"
        _require(all(Fraction(x).denominator == 1 for row in h.matrix for x in row),
                 f"h not integral for {tag}")
        g = [[int(x) for x in row] for row in h.matrix]
        _require(numth.mat_mul(numth.mat_mul(numth.transpose(g), gram), g) == gram,
                 f"h^T Q h != Q for {tag}")
        _require(numth.det3(g) == (1 if grade == "even" else -1),
                 f"det h does not match the grade for {tag}")
        dq, adj = numth.det3(gram), numth.adj3(gram)
        diff = [[g[i][j] - (i == j) for j in range(3)] for i in range(3)]
        _require(all(x % dq == 0 for row in numth.mat_mul(diff, adj) for x in row),
                 f"h outside the discriminant kernel for {tag}")
        got = tuple(lift.coords)
        _require(got == coords or got == tuple(-x for x in coords),
                 f"lift {got} is not +-u for {tag}")
        _require(lift_norm == nrm, f"lift norm {lift_norm} != N(u) = {nrm} for {tag}")

    def final_check(self):
        pass


# -------------------------------------------------------------- gram_suites

OWN_GRAM_TUPLES = 4


def dense_gram_tuple(rng):
    """Six nonzero entries in [-5, 5] with nonzero discriminant."""
    while True:
        t = tuple(rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)) for _ in range(6))
        a, b, c, s, tt, u = t
        gram = [[2 * a, u, tt], [u, 2 * b, s], [tt, s, 2 * c]]
        if numth.det3(gram) != 0:
            return t, gram


class GramSuites:
    """verify --suite clifford then --suite exterior, one trial each, on a
    fresh suite seed (so a fresh random Gram tuple) for every round.  Each CLI
    call is timed as its own operation, of kind "clifford" or "exterior"."""

    name = "gram_suites"
    trace_rounds_per_s = 1
    rss_after_ops = 200
    PASSED = {"clifford": 35, "exterior": 25}   # checks per trial, by definition

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"gram_suites:{seed}")
        self.seen = set()

    def _suite_seed(self):
        while True:
            s = self.rng.randrange(10 ** 9)
            if s not in self.seen:
                self.seen.add(s)
                return s

    def warm_up(self):
        for _, inp in self.next_round():
            self.check(inp, self.op(inp))

    def next_round(self):
        s = self._suite_seed()
        return [(suite, (suite, s)) for suite in ("clifford", "exterior")]

    @staticmethod
    def op(inp):
        suite, s = inp
        return run_cli(["verify", "--suite", suite, "--trials", "1", "--seed", str(s),
                        "--format", "json"])

    @classmethod
    def check(cls, inp, out):
        suite, s = inp
        rc, text = out
        tag = f"verify --suite {suite} --seed {s}"
        _require(rc == 0, f"{tag}: exit code {rc}")
        doc = json.loads(text)
        _require(doc["ok"] is True, f"{tag}: not ok")
        _require(len(doc["suites"]) == 1, f"{tag}: {len(doc['suites'])} suites")
        res = doc["suites"][0]
        _require(res["suite"] == suite, f"{tag}: ran {res['suite']}")
        passed = cls.PASSED[suite]
        _require(res["passed"] == passed and res["failed"] == 0,
                 f"{tag}: passed {res['passed']}, failed {res['failed']}, "
                 f"want {passed} and 0")

    def final_check(self):
        """Clifford identities on the benchmark's own dense Gram tuples."""
        rng = random.Random(f"gram_suites:{self.seed}:own tuples")
        for _ in range(OWN_GRAM_TUPLES):
            t, gram = dense_gram_tuple(rng)
            p = GramParams(*t)
            tag = f"Gram tuple {t}"
            gens = [CliffordElement.basis(m) for m in (1, 2, 4)]
            for i in range(3):
                for j in range(3):
                    anti = (clifford_mul(gens[i], gens[j], p)
                            + clifford_mul(gens[j], gens[i], p))
                    _require(anti.coeffs == CliffordElement.scalar(gram[i][j]).coeffs,
                             f"E{i + 1}E{j + 1} + E{j + 1}E{i + 1} != Q_{i + 1}{j + 1}: {tag}")
            x, y, z = (CliffordElement(tuple(rng.randint(-3, 3) for _ in range(8)))
                       for _ in range(3))
            _require(clifford_mul(clifford_mul(x, y, p), z, p).coeffs
                     == clifford_mul(x, clifford_mul(y, z, p), p).coeffs,
                     f"(xy)z != x(yz): {tag}")
            for grade in (x.even_part, y.odd_part), (x.odd_part, z.odd_part):
                a, b = grade
                _require(norm(clifford_mul(a, b, p), p) == norm(a, p) * norm(b, p),
                         f"N(xy) != N(x)N(y): {tag}")
            e = element_E(p)
            disc = numth.det3(gram)
            _require(clifford_mul(e, e, p).coeffs
                     == CliffordElement.scalar(Fraction(-disc, 8)).coeffs,
                     f"E^2 != -disc/8: {tag}")


# --------------------------------------------------------------- analyze_mn

# The common classes share one narrow band, so their operations cost about
# the same: composites have no odd prime factor below 11, and all but the
# primes 1 mod 4 have -1 a non-square mod N, so qr_minus_one scans every
# residue.  Prime powers are too sparse for the band: they come from a wider
# band above it, one per round.
BAND = (60_000, 70_000)
PRIME_POWER_BAND = (60_000, 200_000)
COMMON = ("prime_1_mod_4", "prime_3_mod_4", "two_primes", "three_primes",
          "twice_a_prime")
COMMON_PER_ROUND = 4
WARM_UP_N = (10_007, 10_009)    # below the bands, never timed


def classify(n: int, fac: dict):
    """The class of n: one of COMMON, "prime_power", or None."""
    primes = sorted(fac)
    if len(primes) == 1:
        if fac[primes[0]] > 1:
            return "prime_power"
        return "prime_1_mod_4" if primes[0] % 4 == 1 else "prime_3_mod_4"
    if fac == {2: 1, primes[1]: 1} and primes[1] % 4 == 3:
        return "twice_a_prime"
    if primes[0] >= 11 and any(p % 4 == 3 for p in primes):
        if sum(fac.values()) == 2:
            return "two_primes"
        return "three_primes"
    return None


def prime_powers_in(lo: int, hi: int):
    """All p^e (e >= 2) in [lo, hi], powers of 2 among them."""
    out = []
    p = 2
    while p * p <= hi:
        if numth.factorize(p) == {p: 1}:
            q = p * p
            while q <= hi:
                if q >= lo:
                    out.append(q)
                q *= p
        p += 1
    return sorted(out)


class AnalyzeMn:
    """analyze --n N --format json for distinct N.

    A round is COMMON_PER_ROUND values of N from each class in COMMON, then
    one prime power.  Within a class the N are spread over its band by a
    golden-ratio sequence with a seeded offset, so every run covers the band
    evenly whatever the seed.  A run ends early if the prime powers are used
    up, after len(prime_powers_in(*PRIME_POWER_BAND)) rounds.
    """

    name = "analyze_mn"
    trace_rounds_per_s = 0.2
    rss_after_ops = 63

    def __init__(self, seed: int):
        rng = random.Random(f"analyze_mn:{seed}")
        self.offsets = {c: rng.random() for c in COMMON + ("prime_power",)}
        self.picks = dict.fromkeys(self.offsets, 0)
        self.prime_powers = prime_powers_in(*PRIME_POWER_BAND)
        self.used = set()

    def warm_up(self):
        for n in WARM_UP_N:
            inp = (n, numth.factorize(n))
            self.check(inp, self.op(inp))

    def _pick(self, cls: str):
        pos = (self.offsets[cls] + self.picks[cls] * GOLDEN) % 1.0
        self.picks[cls] += 1
        if cls == "prime_power":
            candidates = self.prime_powers
        else:
            candidates = range(*BAND)
        start = int(pos * len(candidates))
        for i in range(len(candidates)):
            n = candidates[(start + i) % len(candidates)]
            if n in self.used:
                continue
            fac = numth.factorize(n)
            if classify(n, fac) == cls:
                self.used.add(n)
                return n, fac
        return None

    def next_round(self):
        """[(class, (N, factorisation of N)), ...], or None when a class is used up."""
        out = []
        for cls in COMMON * COMMON_PER_ROUND + ("prime_power",):
            picked = self._pick(cls)
            if picked is None:
                return None
            out.append((cls, picked))
        return out

    @staticmethod
    def op(inp):
        return run_cli(["analyze", "--n", str(inp[0]), "--format", "json"])

    @staticmethod
    def check(inp, out):
        n, fac = inp
        rc, text = out
        tag = f"analyze --n {n}"
        _require(rc == 0, f"{tag}: exit code {rc}")
        doc = json.loads(text)
        _require(doc["family"] == {"k": n, "l": -n, "n": n}, f"{tag}: family {doc['family']}")
        _require(doc["disc"] == 2 * n ** 3, f"{tag}: disc {doc['disc']} != 2 N^3")
        _require(doc["signature"] == [1, 2], f"{tag}: signature {doc['signature']}")
        _require(doc["hypotheses_met"] is True, f"{tag}: hypotheses not met")
        _require(doc["root_free"] is True, f"{tag}: not root-free")
        _require(doc["v_coset_present"] is False, f"{tag}: odd coset reported")
        anti = numth.minus_one_is_square(n, fac)
        _require(doc["antisymplectic_exists"] is anti,
                 f"{tag}: antisymplectic_exists {doc['antisymplectic_exists']}, want {anti}")
        _require(doc["image_order_m"] == (2 if anti else 1), f"{tag}: image order")
        cong = doc["congruence"]
        d, idx = numth.delta(n, fac), numth.index_in_pi(n, fac)
        _require(cong["delta_n"] == d, f"{tag}: delta_n {cong['delta_n']}, want {d}")
        _require(cong["index_in_Pi"] == idx,
                 f"{tag}: index_in_Pi {cong['index_in_Pi']}, want {idx}")
        found = cong["torsion_bounded_search"]["found_count"]
        if n > 30:
            _require(found == 0, f"{tag}: torsion found with entries <= 30")
        rank = idx // 12 + 1 if found == 0 and idx % 12 == 0 else None
        _require(cong["free_rank"] == rank, f"{tag}: free_rank {cong['free_rank']}, want {rank}")
        if n > 20:
            _require(doc["samples"] == [], f"{tag}: samples reported")

    def final_check(self):
        pass


WORKLOADS = {w.name: w for w in (Roundtrip, GramSuites, AnalyzeMn)}
