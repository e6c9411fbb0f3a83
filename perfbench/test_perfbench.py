"""The benchmark's own tests: its oracles, and that its checks catch wrong answers.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numth  # noqa: E402
import workloads  # noqa: E402
from picard3 import modular  # noqa: E402
from tracer import NAMES, Tracer  # noqa: E402


def test_factorisation_oracles_match_the_scans():
    for n in range(1, 2001):
        fac = numth.factorize(n)
        assert numth.delta(n, fac) == modular.delta_n(n), n
        assert numth.index_in_pi(n, fac) == modular.index_pi_g_n(n), n
        assert numth.minus_one_is_square(n, fac) == modular.qr_minus_one(n), n


def test_adjugate_and_determinant():
    m = [[2, -1, 3], [0, 4, 5], [7, 1, -6]]
    d = numth.det3(m)
    assert numth.mat_mul(m, numth.adj3(m)) == [[d * (i == j) for j in range(3)]
                                               for i in range(3)]


@pytest.mark.parametrize("cls", list(workloads.WORKLOADS.values()))
def test_inputs_are_seeded_and_distinct(cls):
    a, b = cls(5), cls(5)
    rounds = 3 if cls is workloads.AnalyzeMn else 20
    seq_a = [a.next_round() for _ in range(rounds)]
    seq_b = [b.next_round() for _ in range(rounds)]
    key = (lambda inp: inp[:2] + inp[4:5] + inp[6:7]) if cls is workloads.Roundtrip else (lambda inp: inp)
    flat_a = [repr((kind, key(i))) for r in seq_a for kind, i in r]
    assert flat_a == [repr((kind, key(i))) for r in seq_b for kind, i in r]
    assert len(set(flat_a)) == len(flat_a)
    assert len({tuple(kind for kind, _ in r) for r in seq_a}) == 1


def test_analyze_rounds_hold_every_class():
    wl = workloads.AnalyzeMn(3)
    for _ in range(4):
        for cls, (n, fac) in wl.next_round():
            assert workloads.classify(n, fac) == cls
            lo, hi = workloads.PRIME_POWER_BAND if cls == "prime_power" else workloads.BAND
            assert lo <= n < hi
    assert {2 ** 16, 2 ** 17} <= set(workloads.prime_powers_in(*workloads.PRIME_POWER_BAND))


def _roundtrip_case(grade):
    wl = workloads.Roundtrip(2)
    inp = next(i for _, i in wl.next_round() if i[4] == grade)
    return inp, wl.op(inp)


@pytest.mark.parametrize("grade", ["even", "odd"])
def test_roundtrip_check_catches_wrong_answers(grade):
    inp, (h, (lift, n)) = _roundtrip_case(grade)
    workloads.Roundtrip.check(inp, (h, (lift, n)))
    neg = tuple(tuple(-x for x in row) for row in h.matrix)
    swapped = (h.matrix[1], h.matrix[0], h.matrix[2])
    other = SimpleNamespace(coords=tuple(x + (i == 0) for i, x in enumerate(lift.coords)))
    for wrong in [(SimpleNamespace(matrix=neg), (lift, n)),            # det flips
                  (SimpleNamespace(matrix=swapped), (lift, n)),        # not an isometry
                  (h, (other, n)),                                     # lift != +-u
                  (h, (lift, -n))]:                                    # wrong norm
        with pytest.raises(workloads.CheckError):
            workloads.Roundtrip.check(inp, wrong)


def test_roundtrip_check_catches_isometry_outside_the_kernel():
    # on U(2) + <-4>, the swap E1 <-> E3 is an isometry of det -1 that
    # moves the discriminant group
    inp, (h, (lift, n)) = _roundtrip_case("even")
    k, l = 2, -2
    inp = (k, l, None, [[0, 0, k], [0, 2 * l, 0], [k, 0, 0]], "odd") + inp[5:]
    g = SimpleNamespace(matrix=((0, 0, 1), (0, 1, 0), (1, 0, 0)))
    with pytest.raises(workloads.CheckError, match="kernel"):
        workloads.Roundtrip.check(inp, (g, (lift, n)))


def test_gram_suites_check_catches_wrong_answers():
    wl = workloads.GramSuites(1)
    for _, inp in wl.next_round():
        rc, text = wl.op(inp)
        wl.check(inp, (rc, text))
        assert json.loads(text)["suites"][0]["passed"] == wl.PASSED[inp[0]]
        for edit in (lambda d: d["suites"][0].update(passed=d["suites"][0]["passed"] - 1),
                     lambda d: d["suites"][0].update(failed=1),
                     lambda d: d.update(ok=False),
                     lambda d: d["suites"][0].update(suite="roundtrip")):
            bad = json.loads(text)
            edit(bad)
            with pytest.raises(workloads.CheckError):
                wl.check(inp, (rc, json.dumps(bad)))
        with pytest.raises(workloads.CheckError):
            wl.check(inp, (2, text))


def test_gram_suites_final_check_catches_a_wrong_central_element(monkeypatch):
    wl = workloads.GramSuites(1)
    wl.final_check()
    monkeypatch.setattr(workloads, "element_E", lambda p: workloads.CliffordElement.basis(7))
    with pytest.raises(workloads.CheckError, match="E\\^2"):
        wl.final_check()


def test_analyze_check_catches_wrong_answers():
    wl = workloads.AnalyzeMn(1)
    inp = (12_289, numth.factorize(12_289))   # a prime 1 mod 4, below the band
    out = wl.op(inp)
    wl.check(inp, out)
    edits = (lambda d: d["congruence"].update(delta_n=d["congruence"]["delta_n"] + 1),
             lambda d: d["congruence"].update(index_in_Pi=d["congruence"]["index_in_Pi"] * 2),
             lambda d: d["congruence"].update(free_rank=None),
             lambda d: d.update(antisymplectic_exists=False),
             lambda d: d.update(disc=d["disc"] + 2),
             lambda d: d.update(samples=[{}]),
             lambda d: d.update(v_coset_present=True))
    for edit in edits:
        bad = json.loads(out[1])
        edit(bad)
        with pytest.raises(workloads.CheckError):
            wl.check(inp, (out[0], json.dumps(bad)))


def test_tracer_restores_and_counts():
    from picard3 import clifford, isometries
    orig = clifford.clifford_mul
    wl = workloads.Roundtrip(4)
    tr = Tracer()
    assert tr.missing == []
    for _, inp in wl.next_round():
        tr.call(wl.op, inp)
    assert clifford.clifford_mul is orig and isometries.clifford_mul is orig
    m = tr.summary()
    assert len(m) == 3 * len(NAMES) + 9 + 1 == 88
    assert m["isometries.h_alpha.calls_per_op"][0] == 1
    assert m["isometries.clifford_lift.calls_per_op"][0] == 1
    assert m["linalg.kernel_basis.calls_per_op"][0] == 1
    assert m["clifford.clifford_mul.calls_per_op"][0] > 0
    total = sum(v for k, (v, u) in m.items() if k.count(".") == 1 and u == "ms")
    assert total > 0


def test_gated_median_is_taken_per_kind():
    import worker
    # two kinds of different cost: a median over all operations would be
    # decided by where the two clusters meet
    ops = [("cheap", 0.1, 0.020 + i * 1e-5) for i in range(50)]
    ops += [("dear", 0.1, 0.040 + i * 1e-5) for i in range(51)]
    got = worker.timing_summary(ops)["p50_scaled_ms"]
    want = (50 * 20.24 + 51 * 40.25) / 101
    assert abs(got - want) < 1e-9
