from fractions import Fraction

import pytest

from picard3 import isometries, report
from picard3.lattice import family_lattice, represents, signature
from picard3.linalg import char_poly, factor, squarefree_part
from picard3.isometries import p_alpha_matrix
from picard3.modular import member, negative_pell, qr_minus_one
from picard3.report import (TORSION_SEARCH_BOUND, analyze_picard,
                            congruence_data, salem_poly, symplectic_split,
                            wehler_trace_classes)
from picard3.verify import (clifford_suite, exterior_suite, roundtrip_suite,
                            run_suites)


def spectral_radius_quadratic(datum):
    """For |A| > 2, |lambda| is the larger root of t^2 - |A| t + 1."""
    if abs(datum.a_value) <= 2:
        return None
    return (1, -abs(datum.a_value), 1)


def test_wehler_report():
    r = analyze_picard(2, -2)
    assert r.hypotheses_met and r.root_free
    assert r.is_m_n and r.n == 2
    assert r.signature == (1, 2) and r.disc == 16
    assert r.congruence["index_in_Pi"] == 6
    assert r.congruence["delta_n"] == 1
    assert r.congruence["torsion_bounded_search"]["found_count"] > 0
    assert r.congruence["free_rank"] is None
    assert "C2 * C2 * C2" in r.congruence["presentation"]
    assert r.antisymplectic_exists and r.image_order_m == 2
    assert not r.v_coset_present
    assert r.samples
    text = r.render_text()
    assert "M_2" in text and "C2 * C2 * C2" in text


def test_report_is_immutable_and_its_dicts_are_its_own():
    r = analyze_picard(2, -2)
    with pytest.raises(AttributeError):
        r.k = 3
    with pytest.raises(AttributeError):
        r.samples.append(r.samples[0])
    # congruence and bounds are plain JSON dicts, built afresh on each call
    fresh = analyze_picard(2, -2)
    r.congruence["torsion_bounded_search"]["found"].clear()
    r.bounds.clear()
    assert analyze_picard(2, -2) == fresh != r


def test_g8_report():
    r = analyze_picard(8, -8)
    assert r.congruence["index_in_Pi"] == 192
    assert r.congruence["free_rank"] == 17
    assert r.congruence["torsion_bounded_search"]["found_count"] == 0
    assert not r.antisymplectic_exists and r.image_order_m == 1


def test_g3_report():
    r = analyze_picard(3, -3)
    assert not r.antisymplectic_exists          # -1 not a QR mod 3
    assert "Gamma(3)" in r.congruence["presentation"]
    assert r.congruence["index_in_Pi"] == 24
    assert r.congruence["free_rank"] == 3


def test_congruence_data_searches_only_where_no_proof_applies(monkeypatch):
    searched = []

    def search(spec, bound):
        searched.append((spec.n, bound))
        return ()

    monkeypatch.setattr(report, "torsion_search", search)
    assert TORSION_SEARCH_BOUND == 30
    for n in range(1, 60):
        data = congruence_data(n)
        assert data["torsion_bounded_search"] == {"bound": 30, "found_count": 0,
                                                  "found": []}
        if n > 2:
            assert data["free_rank"] == data["index_in_Pi"] // 12 + 1
    assert searched == [(1, 30), (2, 30)]
    assert analyze_picard(8, -8).bounds == {"unit_search": 20, "torsion_search": 30}


def test_congruence_data_refuses_non_ints():
    # True was read as n = 1
    for bad in (True, 2.0, Fraction(3)):
        with pytest.raises(TypeError):
            congruence_data(bad)


# Valid calls; each integer argument in turn is replaced by a non-int
# (analyze_picard(2, -3, True) reported the bound True, run_suites(["clifford"],
# True, 0) ran one trial, and factor(12.0) returned ((2, 2), (3.0, 1))).
INT_CALLS = [(isometries.unit_search_even, (2, -3, 2)), (isometries.v_set_search, (2, -3, 2)),
             (isometries.seeded_units, (2, -3, 1, 0)), (wehler_trace_classes, (2,)),
             (represents, (2, -3, 1)), (negative_pell, (2,)), (analyze_picard, (2, -3, 20)),
             (clifford_suite, (1, 0)), (exterior_suite, (1, 0)), (roundtrip_suite, (1, 0)),
             (run_suites, (["clifford"], 1, 0)), (factor, (12,)), (squarefree_part, (12,))]
INT_ARGS = [(f, args, i) for f, args in INT_CALLS for i in range(len(args))
            if type(args[i]) is int]


@pytest.mark.parametrize("bad", (True, 2.0))
@pytest.mark.parametrize("f, args, i", INT_ARGS,
                         ids=[f"{f.__name__}-{i}" for f, _, i in INT_ARGS])
def test_integer_arguments_refuse_bools_and_floats(f, args, i, bad):
    with pytest.raises(TypeError, match="int arguments required"):
        f(*args[:i], bad, *args[i + 1:])


def test_hypothesis_violations_flag_not_raise():
    r = analyze_picard(5, 1)
    assert not r.hypotheses_met
    assert any("signature" in f for f in r.hypothesis_failures)
    # the report's closed-form signature against the lattice's own
    nonzero = [v for v in range(-12, 13) if v]
    for k, l in ([(k, l) for k in nonzero for l in nonzero]
                 + [(65003, -65003), (10 ** 12, -10 ** 12)]):
        r = analyze_picard(k, l, search_bound=0)
        assert r.signature == signature(family_lattice(k, l)), (k, l)
        assert any("signature" in f for f in r.hypothesis_failures) == (l > 0)
    r = analyze_picard(1, -1)       # represents -1: has a (-2)-vector
    assert not r.root_free and not r.hypotheses_met
    with pytest.raises(ValueError):
        analyze_picard(0, 1)
    with pytest.raises(ValueError):
        analyze_picard(1, 0)


def test_report_json_schema():
    j = analyze_picard(2, -2).to_json()
    assert j["schema"] == "picard3-aut/1"
    assert j["family"] == {"k": 2, "l": -2, "n": 2}
    assert set(j) >= {"signature", "root_free", "group_model", "samples",
                      "congruence", "bounds", "v_coset_present"}


def test_symplectic_split():
    assert symplectic_split([[1, 0], [0, 1]])
    assert not symplectic_split([[1, 0], [0, -1]])
    # for n = 3 mod 4 primes every unit is symplectic
    from picard3.isometries import unit_search_even
    for m in unit_search_even(3, -3, 8):
        assert symplectic_split(m)


def test_salem_poly_families():
    for n in range(1, 21):
        s = salem_poly([[1, 2], [2 * n, 4 * n + 1]])
        assert s.nr == 1 and s.a_value == (4 * n + 2) ** 2 - 2
        assert s.is_salem and s.symplectic
        s = salem_poly([[1, 2], [2 * n, 4 * n - 1]])
        assert s.nr == -1 and s.a_value == (4 * n) ** 2 + 2
        assert s.is_salem and not s.symplectic
    ident = salem_poly([[1, 0], [0, 1]])
    assert ident.a_value == 2 and not ident.is_salem
    assert spectral_radius_quadratic(ident) is None


def test_salem_cubic_matches_p_alpha_char_poly():
    for n in range(1, 21):
        for d in (4 * n + 1, 4 * n - 1):
            m = ((1, 2), (2 * n, d))
            s = salem_poly(m)
            p = p_alpha_matrix(m, 2, -2)
            assert char_poly(p.matrix) == s.cubic_coeffs


def test_each_sample_reads_its_membership_once(monkeypatch):
    seen = []

    def counting_member(x, spec):
        seen.append(x)
        return member(x, spec)

    monkeypatch.setattr(isometries, "member", counting_member)
    r = analyze_picard(2, -3)
    assert len(r.samples) == 3
    assert sorted(seen) == sorted(s.matrix for s in r.samples)


def test_each_report_tests_each_representability_once(monkeypatch):
    seen = []

    def counting_represents(k, l, eps):
        seen.append(eps)
        return represents(k, l, eps)

    monkeypatch.setattr(report, "represents", counting_represents)
    # the halved form represents neither of +-1, +1 only, -1 only, and both
    for k, l in ((2, -2), (3, 7), (3, -7), (1, 7)):
        seen.clear()
        analyze_picard(k, l, search_bound=3)
        assert sorted(seen) == [-1, 1], (k, l)


def test_salem_edge_cases():
    s = salem_poly([[-3, 1], [-1, 0]])      # trace -3, det 1: A = 7
    assert s.a_value == 7 and s.is_salem
    assert spectral_radius_quadratic(s) == (1, -7, 1)
    # A = -2 (order-2 element): quadratic factor (t+1)^2, not Salem
    t = salem_poly([[1, 2], [-1, -1]])
    assert t.a_value == -2 and not t.is_salem
    assert spectral_radius_quadratic(t) is None
    assert spectral_radius_quadratic(salem_poly([[1, 0], [0, 1]])) is None


def test_wehler_trace_classes():
    checked, table = wehler_trace_classes(3)
    assert checked > 50
    assert table[1] == (34, 18)
    assert table[2] == (98, 66)


def test_antisymplectic_iff_qr(rng):
    for n in range(2, 51):
        anti = qr_minus_one(n) or represents(n, -n, 1)
        assert anti == qr_minus_one(n)
