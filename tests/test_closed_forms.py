"""The factorisation-based number theory, the pruned torsion search and the
exact torsion-freeness criterion against the exhaustive scans they replaced
(tests/oracles.py), plus time budgets for the CLI at large n."""

import io
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout
from math import gcd, prod
from pathlib import Path

import pytest

from oracles import (delta_n_scan, g_n_torsion_residues, member_by_kind,
                     provably_torsion_free_by_kind, qr_minus_one_scan,
                     represents_scan, square_root_count_scan,
                     torsion_search_scan, totient_like_index_scan)
from picard3.cli import main
from picard3.lattice import represents
from picard3.linalg import factor, square_root_count
from picard3.modular import (ModularElement, SubgroupSpec, _totient_like_index,
                             delta_n, g_n_class_witness, member,
                             provably_torsion_free, qr_minus_one,
                             torsion_search)
from picard3.report import analyze_picard

ROOT = Path(__file__).resolve().parent.parent
PRIME_POWERS = sorted({p ** e for p in (2, 3, 5, 13) for e in range(1, 18)
                       if 2000 < p ** e <= 10 ** 5})


def _is_prime(p):
    return p > 1 and all(p % q for q in range(2, int(p ** 0.5) + 1))


def test_factor():
    for n in list(range(1, 3000)) + [-360, 10 ** 12, 10000019, 999983 * 1000003]:
        f = factor(n)
        assert prod(p ** e for p, e in f) == abs(n)
        assert [p for p, _ in f] == sorted({p for p, _ in f})
        assert all(e > 0 for _, e in f)
        if abs(n) < 10 ** 6:
            assert all(_is_prime(p) for p, _ in f)
    assert factor(1) == ()
    assert factor(10 ** 12) == ((2, 12), (5, 12))
    with pytest.raises(ValueError):
        factor(0)


def test_m_n_report_factors_n_once():
    n = 99999989    # prime, used by no other test
    assert factor.cache_info().maxsize is not None
    misses = factor.cache_info().misses
    report = analyze_picard(n, -n)
    assert report.congruence["delta_n"] == 2
    assert factor.cache_info().misses == misses + 1


@pytest.mark.parametrize("ns", [range(1, 2001), PRIME_POWERS],
                         ids=["n<=2000", "prime_powers"])
def test_number_theory_matches_scans(ns):
    for n in ns:
        assert delta_n(n) == delta_n_scan(n), n
        assert qr_minus_one(n) == qr_minus_one_scan(n), n
        assert _totient_like_index(n) == totient_like_index_scan(n), n


@pytest.mark.parametrize("ns", [range(1, 2001), PRIME_POWERS],
                         ids=["n<=2000", "prime_powers"])
def test_square_root_count_matches_scan(ns):
    for n in ns:
        for u in (1, -1, 2, -2, 3, -3, 5, -5, 7, -7):
            if gcd(u, n) == 1:
                want = square_root_count_scan(u, n)
                assert square_root_count(u, n) == square_root_count(u, -n) == want, (u, n)


@pytest.mark.parametrize("u, n", [(2, 4), (0, 5), (-3, 9), (6, -10), (1, 0), (0, 0)])
def test_square_root_count_refuses_u_not_prime_to_n(u, n):
    with pytest.raises(ValueError, match="^n must be nonzero and prime to u$"):
        square_root_count(u, n)


def test_represents_matches_scan():
    for k in range(1, 201):
        for kk in (k, -k):
            for l in range(-30, 31):
                if l == 0:
                    continue
                for eps in (1, -1):
                    assert represents(kk, l, eps) == represents_scan(kk, l, eps), \
                        (kk, l, eps)


def _specs():
    for v in range(1, 40):
        for kind in ("Pi_n", "Gamma_n", "G_n"):
            yield SubgroupSpec(kind, n=v)
        yield SubgroupSpec("Gamma0_k", k=v)
    for k in range(1, 13):
        for l in range(-6, 7):
            if l:
                yield SubgroupSpec("B_kl_units", k=k, l=l)


def test_torsion_search_matches_scan():
    specs = list(_specs())
    assert len(specs) == 300
    for spec in specs:
        for bound in (0, 1, 5, 12):
            assert torsion_search(spec, bound) == torsion_search_scan(spec, bound), \
                (spec, bound)


def test_proved_torsion_free_subgroups_have_no_torsion_in_the_box():
    nonzero = [v for v in range(-12, 13) if v]
    specs = [SubgroupSpec(kind, n=n) for n in range(1, 121)
             for kind in ("Pi_n", "Gamma_n", "G_n")]
    specs += [SubgroupSpec("Gamma0_k", k=v) for v in nonzero]
    specs += [SubgroupSpec("B_kl_units", k=k, l=l) for k in nonzero for l in nonzero]
    proved = [spec for spec in specs if provably_torsion_free(spec)]
    assert {spec.kind for spec in proved} == {"Pi_n", "Gamma_n", "G_n", "B_kl_units"}
    # B_{k,l}: every pair but |k| <= 2, and |k| = 3 with 3 not dividing l
    assert len(proved) == 3 * 118 + 448
    for spec in proved:
        for bound in range(31):
            assert torsion_search(spec, bound) == (), (spec, bound)
    for n in (1, 2):
        spec = SubgroupSpec("G_n", n=n)
        assert not provably_torsion_free(spec)
        assert torsion_search(spec, 30)


def _seeded_elements(rng, count):
    """det +-1 elements: short words in [[1, x], [0, 1]] and [[1, 0], [y, 1]]
    with x, y multiples of u, v (members of B_{v,u}^x), every third one times
    a twist t: diag(1, -1), an order-2 swap or a scalar class witness of G_n,
    n <= 12.  Odd-numbered ones take random u, v in 1..12; the others take
    u = v = n for a twist in G_n (so the product lies in G_n), else 1."""
    twists = [(2, ModularElement(1, 0, 0, -1)), (1, ModularElement(0, 1, 1, 0)),
              (1, ModularElement(0, -1, 1, 0))]
    twists += [(n, g_n_class_witness(n, lam, eps)) for n in range(2, 13)
               for lam in range(1, n) for eps in (1, -1)
               if (lam * lam - eps) % n == 0]
    out = []
    for i in range(count):
        n, t = rng.choice(twists) if i % 3 == 0 else (1, ModularElement(1, 0, 0, 1))
        u, v = (rng.randint(1, 12), rng.randint(1, 12)) if i % 2 else (n, n)
        el = t
        for _ in range(rng.randint(1, 3)):
            el = (el * ModularElement(1, u * rng.randint(-3, 3), 0, 1)
                  * ModularElement(1, 0, v * rng.randint(-3, 3), 1))
        out.append(el)
    return out


def test_moduli_rules_match_the_per_kind_rules(rng):
    """member and provably_torsion_free, which read SubgroupSpec.moduli,
    against the congruences written out per kind (tests/oracles.py), on
    every kind with |n|, |k|, |l| <= 12."""
    elements = _seeded_elements(rng, 500)
    assert len(set(elements)) > 400
    nonzero = [v for v in range(-12, 13) if v]
    specs = [SubgroupSpec(kind, n=v) for v in nonzero
             for kind in ("Pi_n", "Gamma_n", "G_n")]
    specs += [SubgroupSpec("Gamma0_k", k=v) for v in nonzero]
    specs += [SubgroupSpec("B_kl_units", k=k, l=l) for k in nonzero for l in nonzero]
    members = dict.fromkeys(("Pi_n", "Gamma_n", "G_n", "Gamma0_k", "B_kl_units"), 0)
    for spec in specs:
        assert provably_torsion_free(spec) == provably_torsion_free_by_kind(spec), spec
        got = [member(el, spec) for el in elements]
        assert got == [member_by_kind(el, spec) for el in elements], spec
        if max(spec.moduli) >= 3:
            members[spec.kind] += sum(got)
    assert min(members.values()) > 100, members
    for el in elements[:50]:
        assert member(el.matrix, SubgroupSpec("G_n", n=3)) == member(
            el, SubgroupSpec("G_n", n=3))


def test_g_n_torsion_residues_vanish_exactly_when_proved():
    for n in range(1, 101):
        residues = g_n_torsion_residues(n)
        assert provably_torsion_free(SubgroupSpec("G_n", n=n)) == (not residues), n
        assert bool(residues) == (n <= 2), n


@pytest.mark.parametrize("argv", [("analyze", "--n", "10000019"),
                                  ("analyze", "--n", "1000000000000"),
                                  ("congruence", "--n", "10000019")])
def test_cli_at_large_n_within_budget(argv):
    t0 = time.monotonic()
    with redirect_stdout(io.StringIO()):
        code = main([*argv, "--format", "json"])
    assert code == 0
    assert time.monotonic() - t0 < 1.0


def _pytest_under_python_O(*files):
    return subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *(str(ROOT / "tests" / f) for f in files)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))})


def test_acceptance_checks_hold_under_python_O():
    # the unit/lift checks of the acceptance criteria; tests/test_source.py
    # checks statically that src/ holds no assert statement
    res = _pytest_under_python_O("test_acceptance.py")
    assert res.returncode == 0, res.stdout + res.stderr
