import os
import subprocess
import sys
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest

import picard3
from oracles import (determinantal_divisors, inverse, mat_mul_reference,
                     positive_vector, primitive_vector, signature_of,
                     symmetric_diagonalize)
from picard3 import linalg as la


def test_identity_and_mul():
    a = la.mat([[1, 2], [3, 4]])
    assert la.mat_mul(a, la.identity(2)) == a
    assert la.mat_mul(la.identity(2), a) == a
    assert la.transpose(a) == la.mat([[1, 3], [2, 4]])


def test_mat_mul_matches_the_reference(rng):
    # a 4x4 b (inner = cols = 4) takes the unrolled 4x4 product, here on int
    # and Fraction entries for 1-7 rows; otherwise inner dimensions 3 and 6
    # take the unrolled dot products, the others (0 included) the generic
    # one.  mat_vec, on the one column of each cols = 1 case, shares them.
    for inner in range(8):
        for rows in range(1, 8):
            for cols in range(1, 8):
                a = [[rng.randint(-99, 99) for _ in range(inner)] for _ in range(rows)]
                b = [[rng.randint(-99, 99) for _ in range(cols)] for _ in range(inner)]
                af = [[Fraction(x, rng.randint(1, 6)) for x in row] for row in a]
                bf = [[Fraction(x, rng.randint(1, 6)) for x in row] for row in b]
                for x, y in ((a, b), (af, b), (a, bf), (af, bf)):
                    for x2, y2 in ((x, y), (la.mat(x), la.mat(y))):
                        got, want = la.mat_mul(x2, y2), mat_mul_reference(x2, y2)
                        assert got == want, (inner, rows, cols)
                        assert type(got) is tuple and len(got) == rows
                        assert all(type(row) is tuple for row in got)
                        assert [type(v) for row in got for v in row] \
                            == [type(v) for row in want for v in row]
                        if cols == 1 and inner:
                            got = la.mat_vec(x2, tuple(r[0] for r in y2))
                            assert got == tuple(r[0] for r in want)
                            assert [type(v) for v in got] == [type(r[0]) for r in want]


def test_det_small():
    assert la.det(la.mat([[5]])) == 5
    assert la.det(la.mat([[0, 2, 2], [2, 0, 2], [2, 2, 0]])) == 16
    assert la.det(la.mat([[1, 2], [2, 4]])) == 0


def test_inverse_roundtrip(rng):
    for _ in range(50):
        n = rng.randint(1, 5)
        a = la.mat([[Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                     for _ in range(n)] for _ in range(n)])
        if la.det(a) == 0:
            continue
        assert la.mat_mul(a, inverse(a)) == la.identity(n)


def test_inverse_singular():
    with pytest.raises(ValueError):
        inverse(la.mat([[1, 2], [2, 4]]))


def _check_smith(a):
    n, m = len(a), len(a[0]) if a else 0
    d, u, v = la.smith_normal_form(a)
    assert la.mat_mul(la.mat_mul(u, a), v) == d
    assert len(u) == n and len(v) == m
    assert abs(la.det(u)) == 1 and abs(la.det(v)) == 1
    diag = [d[i][i] for i in range(min(n, m))]
    assert all(x >= 0 for x in diag)
    for i in range(len(diag) - 1):
        if diag[i + 1] != 0:
            assert diag[i + 1] % diag[i] == 0
    for i in range(n):
        for j in range(m):
            if i != j:
                assert d[i][j] == 0
    if not any(map(any, a)):
        assert d == a
    # d_1 ... d_k is the gcd of the k x k minors
    assert tuple(prod(diag[:k]) for k in range(1, len(diag) + 1)) \
        == determinantal_divisors(a)


def test_smith_normal_form(rng):
    # every shape up to 6 x 6 (a matrix without rows has no columns either):
    # the empty matrix, n x 0 matrices and the zero matrices
    _check_smith(())
    for n in range(1, 7):
        _check_smith(((),) * n)
        for m in range(1, 7):
            _check_smith(la.mat([[0] * m for _ in range(n)]))
    # on every shape, random entries up to 9, a third of them rank-deficient
    # (the last row a multiple of the first), and entries up to 10**6
    for n in range(1, 7):
        for m in range(1, 7):
            for _ in range(4):
                a = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
                if n > 1 and rng.random() < 1 / 3:
                    a[-1] = [rng.randint(-3, 3) * x for x in a[0]]
                _check_smith(la.mat(a))
                _check_smith(la.mat([[rng.randint(-10 ** 6, 10 ** 6) for _ in range(m)]
                                     for _ in range(n)]))


def _run_within(code, seconds):
    """The stdout of ``code`` run in a fresh interpreter that imports this
    picard3; raises subprocess.TimeoutExpired after ``seconds``."""
    src = str(Path(picard3.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code], check=True, timeout=seconds,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(
                              filter(None, [src, os.environ.get("PYTHONPATH")]))}).stdout


# Two matrices on which an elimination order that swaps each remainder up as
# the new pivot, while row and column passes alternate, blows up its
# coefficients: a 4 x 4 one with six-digit entries (over a minute) and a 6 x 5
# one with one-digit entries (15 s).
SMITH_BLOW_UP = ((-504972, -363937, -783646, 512501), (-169406, 4280, -675000, -811047),
                 (-860508, -958441, -157803, 152179), (925091, -393136, 678670, 604662))
SMITH_BLOW_UP_6X5 = ((5, 6, 3, 8, -9), (-8, 6, 1, -2, -6), (-9, 2, -7, -4, 6),
                     (-6, -2, -5, 5, -7), (-4, -1, 6, 2, -4), (-2, -8, 0, 5, 8))


@pytest.mark.parametrize("a", [SMITH_BLOW_UP, SMITH_BLOW_UP_6X5], ids=["4x4", "6x5"])
def test_smith_normal_form_finishes_fast(a):
    _run_within(f"from picard3.linalg import smith_normal_form; smith_normal_form({a!r})", 1)
    _check_smith(a)


def test_discriminant_form_finishes_fast_on_rank_4_lattices(rng):
    # A(L) of even rank-4 lattices with Gram entries up to 2,000; order |det|
    grams = []
    while len(grams) < 20:
        g = [[0] * 4 for _ in range(4)]
        for i in range(4):
            g[i][i] = 2 * rng.randint(-1000, 1000)
            for j in range(i):
                g[i][j] = g[j][i] = rng.randint(-2000, 2000)
        if la.det(g) != 0:
            grams.append(la.mat(g))
    out = _run_within("from picard3.lattice import Lattice, discriminant_form\n"
                      f"for g in {grams!r}:\n"
                      "    print(discriminant_form(Lattice(g)).group.order)", 5)
    assert [int(x) for x in out.split()] == [abs(la.det(g)) for g in grams]


def test_symmetric_diagonalize(rng):
    for _ in range(100):
        n = rng.randint(1, 5)
        b = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        q = la.mat([[b[i][j] + b[j][i] for j in range(n)] for i in range(n)])
        p, d = symmetric_diagonalize(q)
        assert la.mat_mul(la.mat_mul(la.transpose(p), q), p) == d


def test_signature_and_positive_vector():
    q = la.mat([[0, 0, 2], [0, -4, 0], [2, 0, 0]])
    assert signature_of(q) == (1, 2)
    v = positive_vector(q)
    assert la.vec_dot(v, la.mat_vec(q, v)) > 0


def test_primitive_vector():
    assert primitive_vector((Fraction(2, 3), Fraction(-4, 3), 0)) == (1, -2, 0)
    assert primitive_vector((-2, -4)) == (1, 2)
    with pytest.raises(ValueError):
        primitive_vector((0, 0))
    with pytest.raises(ValueError, match="^the zero vector has no sign class$"):
        la.sign_normalize((0, 0))


def test_char_poly(rng):
    a = la.mat([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    assert la.char_poly(a) == (1, -6, 11, -6)
    assert la.char_poly(la.mat([[5]])) == (1, -5)
    # det(tI - a) at n + 1 points pins the degree-n polynomial
    for _ in range(100):
        n = rng.randint(1, 5)
        a = la.mat([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        c = la.char_poly(a)
        for t in range(-n, 1):
            shifted = [[t * (i == j) - x for j, x in enumerate(row)]
                       for i, row in enumerate(a)]
            assert sum(x * t ** (n - i) for i, x in enumerate(c)) == la.det(shifted)


def test_squarefree_part():
    assert la.squarefree_part(-12) == -3
    assert la.squarefree_part(49) == 1
    assert la.squarefree_part(18) == 2
    assert la.squarefree_part(1) == 1


def test_factor_pairs_matches_box_scan():
    # strides 9, 10 and 12 exceed every bound here
    strides = ((1, 1), (2, 3), (-3, 1), (10, 1), (1, 12), (9, 9))
    for bound in range(-2, 9):
        box = range(-bound, bound + 1)
        for mx, my in strides:
            for m in range(-70, 71):
                scan = [(x, y) for x in box for y in box
                        if x * y == m and x % mx == 0 and y % my == 0]
                got = la.factor_pairs(m, bound, mx, my)
                assert sorted(got) == scan and len(set(got)) == len(got), \
                    (m, bound, mx, my)
