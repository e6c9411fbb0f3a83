"""The generator of src/picard3/_kernels.py, the straight-line Clifford
kernels and unit forms, from the rewriting rules of the Clifford algebra.

    python tests/kernelgen.py          rewrite src/picard3/_kernels.py
    python tests/kernelgen.py --check  exit 1 when it differs from the rules

The rules derive the structure constants as integer polynomials in the
fields (a, b, c, s, t, u) of a Gram tuple; each kernel is written from them
as one Python expression, with the constant coefficients as literals and
the 25 non-constant polynomials read from the tuple k of a lattice.  The
unit-form matrix M of each grade is derived from the same rules; W = D M^-1
(D = disc) is interpolated from exact inverses at 84 Gram tuples, as a
polynomial of total degree <= 3, and M W = D I is then proved as a
polynomial identity, so a wrong degree bound fails here, not at run time.
The script imports nothing of picard3, so it runs even when the module is
missing or broken.
"""

import re
import sys
from itertools import product
from math import factorial, prod
from pathlib import Path

MODULE = Path(__file__).resolve().parents[1] / "src" / "picard3" / "_kernels.py"

# The chart of picard3.clifford: the basis monomials indexed by bitmask,
# bit (i-1) set <=> Ei present, with E3*E1 in slot 5; the even slots
# (e0, e1, e2, e3) = (1, E2E3, E3E1, E1E2) and the odd slots (E1E2E3, E1,
# E2, E3).
DIM = 8
EVEN_MASKS = (0, 6, 5, 3)
ODD_MASKS = (7, 1, 2, 4)
# The generators E1, E2, E3 (as 0, 1, 2) of each monomial; E3E1 in slot 5.
WORDS = ((), (0,), (1,), (0, 1), (2,), (2, 0), (1, 2), (0, 1, 2))
# The structure constants are integer polynomials {monomial: int} in the
# fields (a, b, c, s, t, u) of GramParams, a monomial being the sorted tuple
# of field numbers 0-5: <Ei, Ej> (<Ei, Ei>/2 for i = j) is GRAM_FIELDS[i][j].
GRAM_FIELDS = ((0, 5, 4), (5, 1, 3), (4, 3, 2))
# The product kernels by grade pair, in the order of _kernels.MUL.
MUL_NAMES = ("mul_even_even", "mul_even_odd", "mul_odd_even", "mul_odd_odd")
# The matrix kernels, as (name, left, factor grade, grade acted on): column j
# of name(x, k) is the product of the factor-grade part of x, on the left or
# on the right, with the j-th basis vector of the grade acted on, in the
# chart of the product's grade.
MATRIX_KERNELS = (("phi", True, EVEN_MASKS, EVEN_MASKS),
                  ("right_even", False, EVEN_MASKS, EVEN_MASKS),
                  ("right_odd", False, ODD_MASKS, EVEN_MASKS),
                  ("left_odd", True, ODD_MASKS, ODD_MASKS))
# The unit-form functions by grade, in the order of _kernels.UNIT_FORMS, and
# the monomials x_p x_q (p <= q) of the four unit coordinates, the columns
# of their matrix M.
UNIT_GRADES = (("even", EVEN_MASKS), ("odd", ODD_MASKS))
MONOMIALS = tuple((p, q) for p in range(4) for q in range(p, 4))
# D = disc = det [[2a, u, t], [u, 2b, s], [t, s, 2c]], a polynomial.
DISC = {(0, 1, 2): 8, (3, 4, 5): 2, (0, 3, 3): -2, (1, 4, 4): -2, (2, 5, 5): -2}
# D M^-1 is read off its values at the 84 tuples BASE + e, e >= 0, |e| <= 3:
# each is a strictly diagonally dominant Gram matrix, so D != 0 there.
BASE = (2, 2, 2, 0, 0, 0)
DEGREE = 3

HEADER = '''\
"""The straight-line Clifford kernels and unit forms on the chart of
picard3.clifford.

Generated from the rewriting rules by tests/kernelgen.py; do not edit.
Run ``python tests/kernelgen.py`` to rewrite this file.

constants(a, b, c, s, t, u) is the tuple k of a lattice, the values of the
non-constant structure polynomials.  MUL[2 gx + gy](x, y, k) multiplies the
grade-gx part of x by the grade-gy part of y (0 even, 1 odd) and reads no
other slot; reversal(x, k) reverses x.  phi, right_even, right_odd and
left_odd(x, k) are the 4x4 multiplication matrices of picard3.clifford's
integer_* functions, each reading one grade of x.

UNIT_FORMS[grade](a, b, c, s, t, u) is (M, W) for the units of one grade
("even" or "odd"): row 3i + j of the 10 x 10 matrix M holds the
coefficients, over the monomials x_p x_q (p <= q) of the unit coordinates
x, of the E_{i+1}-coordinate of x E_{j+1} x*, and row 9 those of
N(x) = x x*.  W = D M^-1 with D = disc; M W = D I is proved by the
generator.
"""
'''


def rewrite(word: tuple, mono: tuple, c: int, out: list):
    """Add c * mono times the product of the generators in word to the list
    out of 8 polynomials, reducing to the monomials of WORDS by the
    rewriting rules Ei Ei = <Ei, Ei>/2 and Ei Ej = <Ei, Ej> - Ej Ei."""
    for k in range(len(word) - 1):
        i, j = word[k], word[k + 1]
        if i == j:
            return rewrite(word[:k] + word[k + 2:], mono + (GRAM_FIELDS[i][i],), c, out)
        if i > j:
            rewrite(word[:k] + word[k + 2:], mono + (GRAM_FIELDS[i][j],), c, out)
            return rewrite(word[:k] + (j, i) + word[k + 2:], mono, -c, out)
    if word == (0, 2):  # E1E3 = <E1, E3> - E3E1
        rewrite((), mono + (GRAM_FIELDS[0][2],), c, out)
        c = -c
    poly, mono = out[sum(1 << i for i in word)], tuple(sorted(mono))
    poly[mono] = poly.get(mono, 0) + c


def polynomial_terms(word: tuple) -> tuple:
    """(m, f) for each monomial E_m with polynomial coefficient f != 0 in the
    product of the generators in word; f has no zero coefficient."""
    out = [{} for _ in range(DIM)]
    rewrite(word, (), 1, out)
    return tuple((m, f) for m, f in enumerate(
        {mono: k for mono, k in f.items() if k} for f in out) if f)


def structure_polynomials() -> tuple:
    """(mult, rev): mult[8 m1 + m2] holds the terms (m3, f) of E_m1 * E_m2
    and rev[m] those of the reversal of E_m, by the rewriting rules."""
    mult = tuple(polynomial_terms(WORDS[m1] + WORDS[m2])
                 for m1 in range(DIM) for m2 in range(DIM))
    return mult, tuple(polynomial_terms(w[::-1]) for w in WORDS)


def poly_mul(f: dict, g: dict) -> dict:
    """The product of two polynomials, without zero coefficients."""
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(sorted(m1 + m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def poly_sum(polys) -> dict:
    """The sum of the polynomials, without zero coefficients."""
    out = {}
    for f in polys:
        for m, c in f.items():
            out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def poly_value(f: dict, point) -> int:
    """f at the integer tuple point = (a, b, c, s, t, u)."""
    return sum(c * prod(point[i] for i in m) for m, c in f.items())


def unit_form_matrix(masks) -> list:
    """M for the units on the slots masks, as polynomials: the coefficient
    of x_p x_q in a coordinate of x y x* is that of x_p y x_q* + x_q y x_p*,
    p <= q, where the reversal of a basis monomial is its reversed word.
    AssertionError unless x E_j x* has no E1E2E3 coordinate, x x* is scalar
    and M satisfies the isometry law (check_isometry_law)."""
    def symmetrized(middle):
        out = []
        for p, q in MONOMIALS:
            polys = [{} for _ in range(DIM)]
            for left, right in {(p, q), (q, p)}:
                rewrite(WORDS[masks[left]] + middle + WORDS[masks[right]][::-1], (), 1, polys)
            out.append([{m: c for m, c in f.items() if c} for f in polys])
        return out

    rows = [None] * 10
    for j in range(3):
        terms = symmetrized((j,))
        if any(t[7] for t in terms):
            raise AssertionError("conjugation image left L (x) Q")
        for i in range(3):
            rows[3 * i + j] = [t[1 << i] for t in terms]  # E_{i+1} in slot 2^i
    terms = symmetrized(())
    if any(any(t[1:]) for t in terms):
        raise AssertionError("x x* is not scalar")
    rows[9] = [t[0] for t in terms]
    check_isometry_law(rows)
    return rows


def scaled_inverse(m: list, d: int) -> list:
    """d m^-1 for an invertible integer matrix m, by fraction-free (Bareiss)
    Gauss-Jordan elimination of [m | I], whose divisions are exact: it ends
    in [+-det I | R] with R m = +-det I."""
    n = len(m)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    prev = 1
    for k in range(n):
        r = next(r for r in range(k, n) if a[r][k])
        a[k], a[r] = a[r], a[k]
        p = a[k][k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], a[k])]
        prev = p
    return [[d * x // a[i][i] for x in a[i][n:]] for i in range(n)]


def interpolate(values: dict) -> list:
    """The polynomials f_i of total degree <= DEGREE with
    f_i(BASE + e) = values[e][i], by Newton's forward differences on the
    tuples e; AssertionError unless each has integer coefficients."""
    table = dict(values)
    for i in range(6):  # difference along field i, highest orders first
        for r in range(1, DEGREE + 1):
            for e in sorted((e for e in table if e[i] >= r), key=lambda e: -e[i]):
                lower = table[e[:i] + (e[i] - 1,) + e[i + 1:]]
                table[e] = [x - y for x, y in zip(table[e], lower)]
    scale = factorial(DEGREE)
    basis = {}  # scale times the product of binom(field_i - BASE_i, e_i)
    for e in table:
        basis[e] = {(): scale // prod(map(factorial, e))}
        for i, k in enumerate(e):
            for j in range(k):
                basis[e] = poly_mul(basis[e], {(i,): 1, (): -BASE[i] - j})
    out = [poly_sum({m: diffs[n] * x for m, x in basis[e].items()}
                    for e, diffs in table.items())
           for n in range(len(values[(0,) * 6]))]
    if any(x % scale for f in out for x in f.values()):
        raise AssertionError("an interpolated polynomial is not integral")
    return [{m: x // scale for m, x in f.items()} for f in out]


def scaled_inverse_polynomials(m: list) -> list:
    """W = D M^-1 for the polynomial matrix M, interpolated from its values
    on the tuples BASE + e; AssertionError unless M W = D I as polynomials."""
    values = {}
    for e in product(range(DEGREE + 1), repeat=6):
        if sum(e) <= DEGREE:
            point = tuple(map(sum, zip(BASE, e)))
            w = scaled_inverse([[poly_value(f, point) for f in row] for row in m],
                               poly_value(DISC, point))
            values[e] = [x for row in w for x in row]
    polys = interpolate(values)
    w = [polys[10 * i:10 * i + 10] for i in range(10)]
    check_inverse(m, w)
    return w


def check_inverse(m: list, w: list):
    """AssertionError unless M W = D I as polynomials."""
    for i, row in enumerate(m):
        for j in range(10):
            if poly_sum(poly_mul(f, wk[j]) for f, wk in zip(row, w)) != (DISC if i == j else {}):
                raise AssertionError(f"M W != D I at ({i}, {j})")


def check_isometry_law(m: list):
    """AssertionError unless Q(x)^T G Q(x) = N(x)^2 G as polynomials in the
    fields and the unit coordinates x (variables 6-9), where G is the Gram
    matrix, Q_ij(x) is row 3i + j of M at the monomials x_p x_q and N(x) is
    row 9: conjugation by x scales the quadratic form by N(x)^2."""
    forms = [poly_sum(poly_mul(f, {(6 + p, 6 + q): 1}) for (p, q), f in zip(MONOMIALS, row))
             for row in m]
    gram = [[{(GRAM_FIELDS[i][j],): 1 + (i == j)} for j in range(3)] for i in range(3)]
    n2 = poly_mul(forms[9], forms[9])
    for i, j in product(range(3), repeat=2):
        if poly_sum(poly_mul(poly_mul(forms[3 * k + i], gram[k][l]), forms[3 * l + j])
                    for k, l in product(range(3), repeat=2)) != poly_mul(n2, gram[i][j]):
            raise AssertionError(f"Q^T G Q != N^2 G at ({i}, {j})")


def sum_source(terms) -> str:
    """Python source of the sum of c * f over the terms (c, f): an int c and
    the source f of a product, '' for 1."""
    s = ""
    for c, f in terms:
        s += " - " if c < 0 else " + "
        s += f if abs(c) == 1 and f else f"{abs(c)}*{f}" if f else str(abs(c))
    return (s[3:] if s[1] == "+" else "-" + s[3:]) if s else "0"


def poly_source(f: dict) -> str:
    """Python source of the polynomial f in the fields a, b, c, s, t, u."""
    return sum_source((c, "*".join("abcstu"[i] for i in m)) for m, c in sorted(f.items()))


def matrix_source(name: str, rows: list) -> str:
    """name = the tuple of the rows of polynomials, one row a line."""
    lines = ("(" + ", ".join(map(poly_source, row)) + ")" for row in rows)
    return f"    {name} = (" + f",\n{' ' * (len(name) + 8)}".join(lines) + ")\n"


def function_source(name: str, args: str, value: str, size: dict) -> str:
    """The definition of name(*args) returning value: each argument is
    unpacked into its slots, and a slot that value does not read into _."""
    read = set(re.findall(r"\b[xyk]\d+\b", value))
    lines = [f"def {name}({', '.join(args)}):"]
    for a in args:
        slots = (f"{a}{i}" if f"{a}{i}" in read else "_" for i in range(size[a]))
        lines.append(f"    {', '.join(slots)} = {a}")
    return "\n".join(lines + [f"    return {value}\n"])


def module_source() -> str:
    """The text of src/picard3/_kernels.py."""
    mult, rev = structure_polynomials()
    index = {}  # every kernel reads k in this order
    for terms in mult + rev:
        for _, f in terms:
            if set(f) != {()}:
                index.setdefault(tuple(sorted(f.items())), len(index))

    def term(f, factor):
        """(c, source) of f * factor, with c = f when f is constant."""
        if set(f) == {()}:
            return f[()], factor
        return 1, f"k{index[tuple(sorted(f.items()))]}*{factor}"

    polys = [poly_source(dict(f)) for f in index]
    sources = ["def constants(a, b, c, s, t, u):\n"
               f"    return ({', '.join(polys)},)\n"]
    bodies = []  # (name, arguments, returned expression)
    for name, (gx, gy) in zip(MUL_NAMES, product((EVEN_MASKS, ODD_MASKS), repeat=2)):
        slots = [[] for _ in range(DIM)]
        for m1, m3 in product(gx, range(DIM)):  # x_m1 times a sum over y
            inner = [term(f, f"y{m2}") for m2 in gy
                     for m, f in mult[DIM * m1 + m2] if m == m3]
            if inner:
                slots[m3].append((1, f"x{m1}*({sum_source(inner)})"))
        bodies.append((name, "xyk", f"[{', '.join(map(sum_source, slots))}]"))
    slots = [[term(f, f"x{m}") for m, row in enumerate(rev) for m2, f in row if m2 == m3]
             for m3 in range(DIM)]
    bodies.append(("reversal", "xk", f"[{', '.join(map(sum_source, slots))}]"))
    for name, left, gx, ga in MATRIX_KERNELS:
        rows = [", ".join(sum_source([term(f, f"x{m1}") for m1 in gx for m, f in
                                      mult[DIM * m1 + m2 if left else DIM * m2 + m1]
                                      if m == m3])
                          for m2 in ga)
                for m3 in (EVEN_MASKS if gx == ga else ODD_MASKS)]
        bodies.append((name, "xk", "(" + ", ".join(f"({row})" for row in rows) + ")"))
    size = {"x": DIM, "y": DIM, "k": len(index)}
    sources += [function_source(name, args, value, size) for name, args, value in bodies]
    for grade, masks in UNIT_GRADES:
        m = unit_form_matrix(masks)
        sources.append(f"def unit_forms_{grade}(a, b, c, s, t, u):\n"
                       + matrix_source("m", m)
                       + matrix_source("w", scaled_inverse_polynomials(m))
                       + "    return m, w\n")
    table = ", ".join(f'"{grade}": unit_forms_{grade}' for grade, _ in UNIT_GRADES)
    return "\n\n".join([HEADER] + sources + [f"MUL = ({', '.join(MUL_NAMES)})\n"
                                               f"UNIT_FORMS = {{{table}}}\n"])


def main(argv) -> int:
    if argv not in ([], ["--check"]):
        print(__doc__, file=sys.stderr)
        return 2
    text = module_source()
    if argv:
        if MODULE.is_file() and MODULE.read_text() == text:
            return 0
        print(f"{MODULE} is stale: run python tests/kernelgen.py", file=sys.stderr)
        return 1
    MODULE.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
