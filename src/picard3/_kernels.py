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


def constants(a, b, c, s, t, u):
    return (a, t, -a, u, b, -b, -u, -b*t, -a*b, -t*u, b*t, s, -s, c, -c, -s*t, a*s, -a*c, -s*u, c*u, -b*c, b*t - s*u, -a*b*c + b*t*t - s*t*u, -b*t + s*u, -t,)


def mul_even_even(x, y, k):
    x0, _, _, x3, _, x5, x6, _ = x
    y0, _, _, y3, _, y5, y6, _ = y
    k0, k1, k2, k3, k4, k5, _, _, k8, k9, k10, k11, _, k13, k14, k15, k16, k17, k18, k19, k20, _, _, _, _ = k
    return [x0*(y0) + x6*(k20*y6 + k19*y5 + k18*y3) + x5*(k15*y6 + k17*y5 + k16*y3) + x3*(k10*y6 + k9*y5 + k8*y3), 0, 0, x0*(y3) + x6*(k14*y5 + k11*y3) + x5*(k13*y6) + x3*(y0 + k1*y5 + k3*y3), 0, x0*(y5) + x6*(k4*y3) + x5*(y0 + k11*y6 + k1*y5) + x3*(k5*y6 + k3*y5), x0*(y6) + x6*(y0 + k11*y6 + k3*y3) + x5*(k1*y6 + k2*y3) + x3*(k0*y5), 0]


def mul_even_odd(x, y, k):
    x0, _, _, x3, _, x5, x6, _ = x
    _, y1, y2, _, y4, _, _, y7 = y
    k0, k1, k2, k3, k4, k5, k6, _, k8, _, _, k11, k12, k13, k14, _, k16, k17, _, k19, k20, k21, _, _, _ = k
    return [0, x0*(y1) + x6*(k20*y7) + x5*(k12*y2 + k14*y4) + x3*(k3*y1 + k4*y2), x0*(y2) + x6*(k19*y7 + k1*y1 + k11*y2 + k13*y4) + x5*(k17*y7 + k1*y2) + x3*(k2*y1), 0, x0*(y4) + x6*(k21*y7 + k6*y1 + k5*y2) + x5*(k16*y7 + k0*y1 + k1*y4) + x3*(k8*y7), 0, 0, x0*(y7) + x6*(k11*y7 + y1) + x5*(y2) + x3*(k3*y7 + y4)]


def mul_odd_even(x, y, k):
    _, x1, x2, _, x4, _, _, x7 = x
    y0, _, _, y3, _, y5, y6, _ = y
    k0, k1, k2, k3, k4, k5, k6, _, k8, _, _, k11, k12, k13, k14, _, k16, k17, _, k19, k20, k21, _, _, _ = k
    return [0, x7*(k20*y6 + k19*y5 + k21*y3) + x1*(y0 + k1*y5) + x2*(k5*y3) + x4*(k13*y5 + k12*y3), x7*(k17*y5 + k16*y3) + x1*(k0*y3) + x2*(y0 + k1*y5 + k3*y3) + x4*(k14*y6 + k1*y3), 0, x7*(k8*y3) + x1*(k2*y5) + x2*(k4*y6 + k6*y5) + x4*(y0 + k11*y6), 0, 0, x7*(y0 + k11*y6 + k3*y3) + x1*(y6) + x2*(y5) + x4*(y3)]


def mul_odd_odd(x, y, k):
    _, x1, x2, _, x4, _, _, x7 = x
    _, y1, y2, _, y4, _, _, y7 = y
    k0, k1, _, k3, k4, _, _, k7, _, k9, _, k11, _, k13, _, k15, k16, _, _, k19, _, _, k22, k23, _ = k
    return [x7*(k22*y7 + k9*y1 + k7*y2) + x1*(k0*y1 + k1*y4) + x2*(k7*y7 + k3*y1 + k4*y2) + x4*(k15*y7 + k11*y2 + k13*y4), 0, 0, x7*(k19*y7 + k1*y1 + k11*y2 + k13*y4) + x1*(y2) + x2*(-y1) + x4*(k13*y7), 0, x7*(k23*y7 + k3*y1 + k4*y2) + x1*(-y4) + x2*(k4*y7) + x4*(k11*y7 + y1), x7*(k16*y7 + k0*y1) + x1*(k0*y7) + x2*(k3*y7 + y4) + x4*(k1*y7 - y2), 0]


def reversal(x, k):
    x0, x1, x2, x3, x4, x5, x6, x7 = x
    _, k1, _, k3, _, _, _, _, _, _, _, k11, _, _, _, _, _, _, _, _, _, _, _, _, k24 = k
    return [x0 + k3*x3 + k1*x5 + k11*x6, x1 + k11*x7, x2 + k24*x7, -x3, x4 + k3*x7, -x5, -x6, -x7]


def phi(x, k):
    x0, _, _, x3, _, x5, x6, _ = x
    k0, k1, k2, k3, k4, k5, _, _, k8, k9, k10, k11, _, k13, k14, k15, k16, k17, k18, k19, k20, _, _, _, _ = k
    return ((x0, k20*x6 + k15*x5 + k10*x3, k19*x6 + k17*x5 + k9*x3, k18*x6 + k16*x5 + k8*x3), (x6, x0 + k11*x6 + k1*x5, k0*x3, k3*x6 + k2*x5), (x5, k11*x5 + k5*x3, x0 + k1*x5 + k3*x3, k4*x6), (x3, k13*x5, k14*x6 + k1*x3, x0 + k11*x6 + k3*x3))


def right_even(x, k):
    x0, _, _, x3, _, x5, x6, _ = x
    k0, k1, k2, k3, k4, k5, _, _, k8, k9, k10, k11, _, k13, k14, k15, k16, k17, k18, k19, k20, _, _, _, _ = k
    return ((x0, k20*x6 + k19*x5 + k18*x3, k15*x6 + k17*x5 + k16*x3, k10*x6 + k9*x5 + k8*x3), (x6, x0 + k11*x6 + k3*x3, k1*x6 + k2*x3, k0*x5), (x5, k4*x3, x0 + k11*x6 + k1*x5, k5*x6 + k3*x5), (x3, k14*x5 + k11*x3, k13*x6, x0 + k1*x5 + k3*x3))


def right_odd(x, k):
    _, x1, x2, _, x4, _, _, x7 = x
    k0, k1, k2, k3, k4, k5, k6, _, k8, _, _, k11, k12, k13, k14, _, k16, k17, _, k19, k20, k21, _, _, _ = k
    return ((x7, k11*x7 + x1, x2, k3*x7 + x4), (x1, k20*x7, k12*x2 + k14*x4, k3*x1 + k4*x2), (x2, k19*x7 + k1*x1 + k11*x2 + k13*x4, k17*x7 + k1*x2, k2*x1), (x4, k21*x7 + k6*x1 + k5*x2, k16*x7 + k0*x1 + k1*x4, k8*x7))


def left_odd(x, k):
    _, x1, x2, _, x4, _, _, x7 = x
    k0, k1, _, k3, k4, _, _, k7, _, k9, _, k11, _, k13, _, k15, k16, _, _, k19, _, _, k22, k23, _ = k
    return ((k22*x7 + k7*x2 + k15*x4, k9*x7 + k0*x1 + k3*x2, k7*x7 + k4*x2 + k11*x4, k1*x1 + k13*x4), (k16*x7 + k0*x1 + k3*x2 + k1*x4, k0*x7, -x4, x2), (k23*x7 + k4*x2 + k11*x4, k3*x7 + x4, k4*x7, -x1), (k19*x7 + k13*x4, k1*x7 - x2, k11*x7 + x1, k13*x7))


def unit_forms_even(a, b, c, s, t, u):
    m = ((1, s, 0, 2*u, b*c, 0, s*u, -a*c, a*s, -a*b + u*u),
         (0, 0, -s, 2*b, 0, 2*b*c - s*s, b*s, -c*u, 0, b*u),
         (0, 0, -2*c, s, 0, -c*s, 2*b*c, -c*t, -2*c*u + s*t, -b*t + s*u),
         (0, t, 0, -2*a, -c*u + s*t, 2*a*c, -2*a*s + t*u, 0, -a*t, -a*u),
         (1, 2*s, t, 0, -b*c + s*s, s*t, b*t, a*c, 0, -a*b),
         (0, 2*c, 0, -t, c*s, c*t, 0, 0, 2*a*c - t*t, -a*s),
         (0, -u, 2*a, 0, -b*t, 0, 2*a*b - u*u, a*t, a*u, 0),
         (0, -2*b, u, 0, -b*s, -2*b*t + s*u, -b*u, -a*s + t*u, 2*a*b, 0),
         (1, 0, 2*t, u, -b*c, c*u, 0, -a*c + t*t, t*u, a*b),
         (1, s, t, u, b*c, -c*u + s*t, -b*t + s*u, a*c, -a*s + t*u, a*b))
    w = ((2*a*b*c - 2*b*t*t, -2*a*c*u + 2*t*t*u, 2*a*b*t + 2*a*s*u, 2*b*c*u + 2*b*s*t, 2*a*b*c - 2*c*u*u, -2*a*b*s + 2*s*u*u, -2*b*c*t + 2*s*s*t, 2*a*c*s + 2*c*t*u, 2*a*b*c - 2*a*s*s, 2*a*b*c + 2*s*t*u),
         (-a*s, -a*t, -a*u, -2*b*t - s*u, t*u, 2*a*b - u*u, -2*s*t, -2*a*c, 2*a*s, -a*s - t*u),
         (2*b*t, -2*t*u, -2*a*b, -b*s, -b*t, -b*u, 2*b*c - s*s, -2*c*u - s*t, s*u, -b*t - s*u),
         (s*t, 2*a*c - t*t, -2*a*s - t*u, -2*b*c, 2*c*u, -2*s*u, -c*s, -c*t, -c*u, -c*u - s*t),
         (2*a, 0, 0, 2*u, -2*a, 0, 2*t, 0, -2*a, 2*a),
         (0, 2*a, 0, 2*b, 0, 0, s, t, -u, u),
         (0, 0, 2*a, s, -t, u, 2*c, 0, 0, t),
         (-2*b, 2*u, 0, 0, 2*b, 0, 0, 2*s, -2*b, 2*b),
         (-s, t, u, 0, 0, 2*b, 0, 2*c, 0, s),
         (-2*c, 0, 2*t, 0, -2*c, 2*s, 0, 0, 2*c, 2*c))
    return m, w


def unit_forms_odd(a, b, c, s, t, u):
    m = ((a*b*c - b*t*t - c*u*u + s*t*u, a*s, 2*b*t - s*u, -2*c*u + s*t, a, 0, 0, -b, -s, -c),
         (-b*c*u - b*s*t + s*s*u, -2*b*t + 2*s*u, b*s, -2*b*c + s*s, u, 2*b, s, 0, 0, 0),
         (-b*c*t + c*s*u, 2*c*u, 2*b*c, c*s, t, s, 2*c, 0, 0, 0),
         (a*c*u - a*s*t, -a*t, 2*a*s - t*u, 2*a*c - t*t, 0, 2*a, 0, u, t, 0),
         (a*b*c - a*s*s, -2*a*s, -b*t, -s*t, -a, 0, -t, b, 0, -c),
         (-a*c*s, -2*a*c, 0, -c*t, 0, t, 0, s, 2*c, 0),
         (a*b*t, a*u, -2*a*b + u*u, t*u, 0, 0, 2*a, 0, u, t),
         (a*b*s, 2*a*b, b*u, s*u, 0, 0, u, 0, 2*b, s),
         (a*b*c, 0, 0, c*u, -a, -u, 0, -b, 0, c),
         (a*b*c, a*s, -b*t + s*u, c*u, a, u, t, b, s, c))
    w = ((2, 0, 0, 0, 2, 0, 0, 0, 2, 2),
         (-s, t, -u, 0, 0, -2*b, 0, 2*c, -2*s, -s),
         (0, 0, 2*a, -s, t, u, -2*c, 0, 2*t, t),
         (0, -2*a, 0, 2*b, -2*u, 0, s, -t, -u, -u),
         (2*b*c, -2*c*u, -2*b*t + 2*s*u, 0, -2*b*c, 2*b*s, 0, -2*c*s, -2*b*c + 2*s*s, 2*b*c),
         (0, 2*a*c, -2*a*s, 2*b*c, 0, -2*b*t, c*s, c*t, c*u - 2*s*t, -c*u),
         (0, 0, 2*a*b, -b*s, b*t, b*u, 2*b*c - s*s, -2*c*u + s*t, s*u, -b*t + s*u),
         (-2*a*c, 0, 2*a*t, -2*c*u, 2*a*c, -2*a*s + 2*t*u, -2*c*t, 0, -2*a*c + 2*t*t, 2*a*c),
         (a*s, -a*t, -a*u, s*u, -t*u, 2*a*b - u*u, s*t, 2*a*c - t*t, -t*u, -a*s),
         (-2*a*b, 2*a*u, 0, -2*b*u, -2*a*b + 2*u*u, 0, -2*b*t, -2*a*s + 2*t*u, 2*a*b, 2*a*b))
    return m, w


MUL = (mul_even_even, mul_even_odd, mul_odd_even, mul_odd_odd)
UNIT_FORMS = {"even": unit_forms_even, "odd": unit_forms_odd}
