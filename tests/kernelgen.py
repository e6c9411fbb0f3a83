"""The generator of src/picard3/_kernels.py, the straight-line Clifford
kernels, from the rewriting rules of the Clifford algebra.

    python tests/kernelgen.py          rewrite src/picard3/_kernels.py
    python tests/kernelgen.py --check  exit 1 when it differs from the rules

The rules derive the structure constants as integer polynomials in the
fields (a, b, c, s, t, u) of a Gram tuple; each kernel is written from them
as one Python expression, with the constant coefficients as literals and
the 25 non-constant polynomials read from the tuple k of a lattice.  The
script imports nothing of picard3, so it runs even when the module is
missing or broken.
"""

import re
import sys
from itertools import product
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

HEADER = '''\
"""The straight-line Clifford kernels on the chart of picard3.clifford.

Generated from the rewriting rules by tests/kernelgen.py; do not edit.
Run ``python tests/kernelgen.py`` to rewrite this file.

constants(a, b, c, s, t, u) is the tuple k of a lattice, the values of the
non-constant structure polynomials.  MUL[2 gx + gy](x, y, k) multiplies the
grade-gx part of x by the grade-gy part of y (0 even, 1 odd) and reads no
other slot; reversal(x, k) reverses x.  phi, right_even, right_odd and
left_odd(x, k) are the 4x4 multiplication matrices of picard3.clifford's
integer_* functions, each reading one grade of x.
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


def sum_source(terms) -> str:
    """Python source of the sum of c * f over the terms (c, f): an int c and
    the source f of a product, '' for 1."""
    s = ""
    for c, f in terms:
        s += " - " if c < 0 else " + "
        s += f if abs(c) == 1 and f else f"{abs(c)}*{f}" if f else str(abs(c))
    return (s[3:] if s[1] == "+" else "-" + s[3:]) if s else "0"


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

    polys = [sum_source((k, "*".join("abcstu"[i] for i in mono)) for mono, k in f)
             for f in index]
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
    return "\n\n".join([HEADER] + sources + [f"MUL = ({', '.join(MUL_NAMES)})\n"])


def main(argv) -> int:
    text = module_source()
    if argv == ["--check"]:
        if MODULE.is_file() and MODULE.read_text() == text:
            return 0
        print(f"{MODULE} is stale: run python tests/kernelgen.py", file=sys.stderr)
        return 1
    if argv:
        print(__doc__, file=sys.stderr)
        return 2
    MODULE.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
