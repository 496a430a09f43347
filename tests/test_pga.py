"""Algebra conformance: product tables, encodings, sandwich actions."""

import math

import numpy as np
import pytest

from eqtraffic import pga
from eqtraffic.pga import Pose2
from helpers import (
    compose_pose_oracle,
    decode_point,
    dual,
    encode_line,
    encode_point,
    gp,
    grade,
    inner,
    join,
    line_residual,
    matrix_apply_pose,
    motor_from_pose,
    motor_product,
    pose_compose,
    pose_inverse,
    rand_motor,
    rand_mv,
    rand_pose,
    reverse,
    sandwich,
    wedge,
)

E = np.eye(8)  # the basis blades, E[i] = e_i in canonical order
IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


def translator(a, b):
    return motor_from_pose(Pose2(a, b, 0.0))


def rotor(theta):
    return motor_from_pose(Pose2(0.0, 0.0, theta))


# The two 8x8 basis product tables, transcribed entry by entry.  "0" means the
# product vanishes; a leading "-" flips the sign.
GEOM_ROWS = """
1    e0   e1   e2   e01  e20  e12  e012
e0   0    e01  -e20 0    0    e012 0
e1   -e01 1    e12  -e0  e012 e2   e20
e2   e20  -e12 1    e012 e0   -e1  e01
e01  0    e0   e012 0    0    -e20 0
e20  0    e012 -e0  0    0    e01  0
e12  e012 -e2  e1   e20  -e01 -1   -e0
e012 0    e20  e01  0    0    -e0  0
"""

WEDGE_ROWS = """
1    e0   e1   e2   e01  e20  e12  e012
e0   0    e01  -e20 0    0    e012 0
e1   -e01 0    e12  0    e012 0    0
e2   e20  -e12 0    e012 0    0    0
e01  0    0    e012 0    0    0    0
e20  0    e012 0    0    0    0    0
e12  e012 0    0    0    0    0    0
e012 0    0    0    0    0    0    0
"""


# the blades in pga's component order
BASIS_NAMES = ("1", "e0", "e1", "e2", "e01", "e20", "e12", "e012")


def parse_table(text):
    table = np.zeros((8, 8, 8))
    rows = [line.split() for line in text.strip().splitlines()]
    assert len(rows) == 8 and all(len(r) == 8 for r in rows)
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            sign = 1.0
            if entry.startswith("-"):
                sign, entry = -1.0, entry[1:]
            if entry == "0":
                continue
            table[i, j, BASIS_NAMES.index(entry)] = sign
    return table


def test_geometric_table_matches_reference_exactly():
    assert np.array_equal(pga.GEOM_TABLE, parse_table(GEOM_ROWS))


def test_wedge_table_matches_reference_exactly():
    assert np.array_equal(pga.WEDGE_TABLE, parse_table(WEDGE_ROWS))


def test_geometric_product_basis_cases():
    assert np.array_equal(gp(E[2], E[3]), E[6])         # e1 e2 = e12
    assert np.array_equal(gp(E[1], E[1]), np.zeros(8))  # e0^2 = 0
    assert np.array_equal(gp(E[6], E[6]), -E[0])        # e12^2 = -1


def test_geometric_product_identity():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rand_mv(rng)
        assert np.allclose(gp(x, E[0]), x, rtol=0.0, atol=1e-12)
        assert np.allclose(gp(E[0], x), x, rtol=0.0, atol=1e-12)


def test_geometric_product_associativity():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        a, b, c = rand_mv(rng), rand_mv(rng), rand_mv(rng)
        left, right = gp(gp(a, b), c), gp(a, gp(b, c))
        scale = max(np.max(np.abs(left)), np.max(np.abs(right)), 1.0)
        assert np.max(np.abs(left - right)) <= 1e-12 * scale


def test_wedge_vector_self_annihilation():
    rng = np.random.default_rng(2)
    assert np.array_equal(wedge(E[2], E[2]), np.zeros(8))
    for _ in range(50):
        v = grade(rand_mv(rng), 1)
        assert np.max(np.abs(wedge(v, v))) <= 1e-14


def test_wedge_of_axes_intersects_at_origin():
    x_axis_normal = encode_line(1.0, 0.0, 0.0)  # line x = 0
    y_axis_normal = encode_line(0.0, 1.0, 0.0)  # line y = 0
    p = wedge(x_axis_normal, y_axis_normal)
    assert np.array_equal(p, E[6])  # point (0,0), unit weight
    assert decode_point(p) == (0.0, 0.0)


def test_wedge_intersection_matches_closed_form():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a1, b1, c1 = rng.normal(size=3)
        a2, b2, c2 = rng.normal(size=3)
        det = a1 * b2 - a2 * b1
        if abs(det) < 1e-3:
            continue
        l1 = encode_line(a1, b1, c1, normalize=False)
        l2 = encode_line(a2, b2, c2, normalize=False)
        x, y = decode_point(wedge(l1, l2))
        # closed-form intersection of the two lines
        assert math.isclose(x, (b1 * c2 - b2 * c1) / det, rel_tol=0, abs_tol=1e-9 * max(1, abs(x)))
        assert math.isclose(y, (a2 * c1 - a1 * c2) / det, rel_tol=0, abs_tol=1e-9 * max(1, abs(y)))
        assert abs(line_residual(l1, x, y)) <= 1e-10 * max(1.0, abs(c1))
        assert abs(line_residual(l2, x, y)) <= 1e-10 * max(1.0, abs(c2))


def test_dual_basis_and_involution():
    assert np.array_equal(dual(E[1]), E[6])  # e0 -> e12
    assert np.array_equal(dual(E[0]), E[7])  # 1 -> e012
    rng = np.random.default_rng(4)
    for _ in range(100):
        x = rand_mv(rng)
        assert np.array_equal(dual(dual(x)), x)


def test_join_equals_dual_wedge_dual_exactly():
    """The JOIN_TABLE the model runs is the wedge of the duals, sign for sign."""
    for i in range(8):
        for j in range(8):
            assert np.array_equal(join(E[i], E[j]), pga.JOIN_TABLE[i, j])
    rng = np.random.default_rng(5)
    for _ in range(100):
        a, b = rand_mv(rng), rand_mv(rng)
        via_table = np.einsum("i,j,ijk->k", a, b, pga.JOIN_TABLE)
        assert np.allclose(via_table, join(a, b), rtol=0.0, atol=1e-14)


def test_join_of_two_points_is_their_line():
    line = join(encode_point(0.0, 0.0), encode_point(1.0, 0.0))
    assert np.array_equal(line, E[3])  # e2: the line y = 0
    rng = np.random.default_rng(6)
    for _ in range(100):
        ax, ay, bx, by = rng.normal(0.0, 10.0, size=4)
        line = join(encode_point(ax, ay), encode_point(bx, by))
        assert abs(line_residual(line, ax, ay)) <= 1e-10
        assert abs(line_residual(line, bx, by)) <= 1e-10


def test_join_point_line_is_signed_distance():
    assert math.isclose(join(encode_point(3.0, 4.0), encode_line(1.0, 0.0, 0.0))[0], 3.0, abs_tol=1e-12)
    rng = np.random.default_rng(7)
    for _ in range(200):
        x0, y0 = rng.normal(0.0, 10.0, size=2)
        a, b = rng.normal(size=2)
        if math.hypot(a, b) < 1e-6:
            continue
        c = rng.normal()
        line = encode_line(a, b, c)
        d = join(encode_point(x0, y0), line)
        # only the scalar slot may be populated
        assert np.max(np.abs(d[1:])) <= 1e-12
        assert math.isclose(d[0], line_residual(line, x0, y0), abs_tol=1e-11)


def test_grade_projection():
    assert np.array_equal(grade(E[1] + E[6], 1), E[1])
    assert np.array_equal(grade(5.0 * E[0] + 2.0 * E[7], 3), 2.0 * E[7])
    rng = np.random.default_rng(8)
    for _ in range(100):
        x = rand_mv(rng)
        assert np.array_equal(sum(grade(x, k) for k in range(4)), x)


def test_inner_product_definition():
    assert inner(E[2], E[2]) == 1.0
    assert inner(E[1], E[1]) == 0.0
    assert inner(E[4], E[4]) == 0.0  # e01 carries e0
    rng = np.random.default_rng(9)
    for _ in range(50):
        a, b = rand_mv(rng), rand_mv(rng)
        assert inner(a, b) == inner(b, a)


def test_inner_product_motor_invariance():
    rng = np.random.default_rng(10)
    for _ in range(1000):
        u = rand_motor(rng)
        a, b = rand_mv(rng), rand_mv(rng)
        before = inner(a, b)
        after = inner(sandwich(u, a), sandwich(u, b))
        assert abs(after - before) <= 1e-12 * max(1.0, abs(before))


def test_sandwich_translation():
    assert decode_point(sandwich(translator(2.0, 3.0), encode_point(1.0, 1.0))) == (3.0, 4.0)


def test_sandwich_rotation():
    out = sandwich(rotor(math.pi / 2.0), E[2])  # e1
    assert np.allclose(out, E[3], rtol=0.0, atol=1e-15)  # -> e2


def test_sandwich_fixes_pseudoscalar():
    rng = np.random.default_rng(11)
    for _ in range(50):
        u = rand_motor(rng)
        assert np.allclose(sandwich(u, E[7]), E[7], rtol=0.0, atol=1e-12)


def test_sandwich_linearity():
    rng = np.random.default_rng(12)
    for _ in range(200):
        u = rand_motor(rng)
        x, y = rand_mv(rng), rand_mv(rng)
        alpha, beta = rng.normal(size=2)
        lhs = sandwich(u, alpha * x + beta * y)
        rhs = alpha * sandwich(u, x) + beta * sandwich(u, y)
        scale = max(1.0, np.max(np.abs(lhs)))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


def test_sandwich_general_translation_formula():
    rng = np.random.default_rng(13)
    for _ in range(100):
        a, b = rng.normal(0.0, 10.0, size=2)
        c = rand_mv(rng)
        got = sandwich(translator(a, b), c)
        want = np.array(
            [
                c[0],
                c[1] - a * c[2] - b * c[3],
                c[2],
                c[3],
                c[4] + b * c[6],
                c[5] + a * c[6],
                c[6],
                c[7],
            ]
        )
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_sandwich_general_rotation_formula():
    rng = np.random.default_rng(14)
    for _ in range(100):
        theta = rng.uniform(-math.pi, math.pi)
        ct, st = math.cos(theta), math.sin(theta)
        c = rand_mv(rng)
        got = sandwich(rotor(theta), c)
        want = np.array(
            [
                c[0],
                c[1],
                c[2] * ct - c[3] * st,
                c[2] * st + c[3] * ct,
                c[4] * ct + c[5] * st,
                c[5] * ct - c[4] * st,
                c[6],
                c[7],
            ]
        )
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_transform_matches_matrix_oracle():
    rng = np.random.default_rng(15)
    for _ in range(1000):
        pose = rand_pose(rng)
        px, py = rng.normal(0.0, 20.0, size=2)
        got = decode_point(sandwich(motor_from_pose(pose), encode_point(px, py)))
        want = matrix_apply_pose(pose, px, py)
        assert abs(got[0] - want[0]) <= 1e-12 * max(1.0, abs(want[0]))
        assert abs(got[1] - want[1]) <= 1e-12 * max(1.0, abs(want[1]))


def test_motor_from_pose_components():
    assert np.allclose(motor_from_pose(Pose2(0.0, 0.0, 0.0)), IDENTITY)
    a, b = 3.0, -2.0
    assert np.allclose(motor_from_pose(Pose2(a, b, 0.0)), [1.0, -a / 2.0, b / 2.0, 0.0])


def test_motor_from_pose_moves_origin():
    rng = np.random.default_rng(16)
    for _ in range(100):
        pose = rand_pose(rng)
        got = decode_point(sandwich(motor_from_pose(pose), encode_point(0.0, 0.0)))
        assert math.isclose(got[0], pose.x, abs_tol=1e-10)
        assert math.isclose(got[1], pose.y, abs_tol=1e-10)


def test_motor_inverse_is_reverse():
    a, b = 1.7, -0.4
    assert np.allclose(reverse(translator(a, b)), [1.0, a / 2.0, -b / 2.0, 0.0])
    theta = 0.9
    assert np.allclose(reverse(rotor(theta)), [math.cos(theta / 2), 0.0, 0.0, math.sin(theta / 2)])
    assert np.array_equal(reverse(IDENTITY), IDENTITY)


def test_motor_inverse_roundtrip():
    rng = np.random.default_rng(17)
    for _ in range(200):
        u = rand_motor(rng)
        assert np.max(np.abs(motor_product(u, reverse(u)) - IDENTITY)) <= 1e-12


def test_motor_composition_matches_pose_composition():
    rng = np.random.default_rng(18)
    for _ in range(200):
        g, p = rand_pose(rng), rand_pose(rng)
        m = motor_product(motor_from_pose(g), motor_from_pose(p))
        expect = motor_from_pose(compose_pose_oracle(g, p))
        # motors are double covers: u and -u encode the same transform
        assert min(np.max(np.abs(m - expect)), np.max(np.abs(m + expect))) <= 1e-10


def test_point_encode_decode():
    assert np.array_equal(encode_point(1.0, 2.0), E[5] + 2.0 * E[4] + E[6])
    assert decode_point(2.0 * encode_point(1.0, 2.0)) == (1.0, 2.0)
    assert decode_point(E[6]) == (0.0, 0.0)


def test_encode_line():
    assert np.array_equal(encode_line(0.0, 1.0, 0.0), E[3])
    rng = np.random.default_rng(20)
    for _ in range(50):
        theta = rng.uniform(-math.pi, math.pi)
        line = encode_line(-math.sin(theta), math.cos(theta), 0.0)
        assert abs(line_residual(line, math.cos(theta), math.sin(theta))) <= 1e-12
    # translating a line shifts only its offset: c' = C - A*a - B*b
    for _ in range(50):
        A, B = rng.normal(size=2)
        if math.hypot(A, B) < 1e-6:
            continue
        C, a, b = rng.normal(0.0, 5.0, size=3)
        moved = sandwich(translator(a, b), encode_line(A, B, C, normalize=False))
        assert math.isclose(moved[2], A, abs_tol=1e-12)
        assert math.isclose(moved[3], B, abs_tol=1e-12)
        assert math.isclose(moved[1], C - A * a - B * b, abs_tol=1e-10)


def test_operations_keep_coefficients_finite():
    rng = np.random.default_rng(21)
    for _ in range(100):
        a, b = rand_mv(rng, scale=100.0), rand_mv(rng, scale=100.0)
        u = rand_motor(rng, trans=200.0)
        for out in (gp(a, b), wedge(a, b), join(a, b), dual(a), sandwich(u, a)):
            assert np.all(np.isfinite(out))


def test_pose_wrapping():
    assert Pose2(0.0, 0.0, math.pi).theta == math.pi
    assert Pose2(0.0, 0.0, -math.pi).theta == math.pi
    assert abs(Pose2(0.0, 0.0, 3.0 * math.pi).theta - math.pi) <= 1e-12
    p = Pose2(1.0, 2.0, 0.3)
    assert pose_compose(p, pose_inverse(p)).x == pytest.approx(0.0, abs=1e-12)
    d = pose_compose(pose_inverse(p), Pose2(2.0, 1.0, -0.2))
    assert pose_compose(p, d).x == pytest.approx(2.0, abs=1e-12)
    assert pose_compose(p, d).theta == pytest.approx(-0.2, abs=1e-12)


def test_pose_arrays_round_exactly_as_pose2():
    """The array group law reproduces the scalar reference on Pose2s bit for bit, angles at and
    beyond +-pi included."""
    rng = np.random.default_rng(61)
    raw = np.column_stack([rng.uniform(-1e3, 1e3, (400, 2)), rng.uniform(-7.0, 7.0, 400)])
    raw[:4, 2] = [math.pi, -math.pi, 3.0 * math.pi, 0.0]
    poses = [Pose2(*row) for row in raw]
    a = np.array([(p.x, p.y, p.theta) for p in poses])
    b = a[::-1].copy()
    assert np.array_equal(pga.wrap_angles(raw[:, 2]), a[:, 2])
    composed = [pose_compose(p, q) for p, q in zip(poses, poses[::-1])]
    deltas = [pose_compose(pose_inverse(p), q) for p, q in zip(poses, poses[::-1])]
    assert np.array_equal(pga.compose_poses(a, b), [(p.x, p.y, p.theta) for p in composed])
    assert np.array_equal(pga.pose_deltas(a, b), [(p.x, p.y, p.theta) for p in deltas])
