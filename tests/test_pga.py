"""Algebra conformance: product tables, encodings, sandwich actions."""

import math

import numpy as np
import pytest

from eqtraffic import pga
from eqtraffic.pga import (
    IdealPointError,
    Motor,
    Multivector,
    NonUnitMotorError,
    Pose2,
    decode_point,
    dual,
    encode_line,
    encode_point,
    geometric_product,
    grade_project,
    invariant_inner_product,
    join,
    motor_from_pose,
    sandwich,
    wedge_product,
)
from helpers import (
    compose_pose_oracle,
    line_residual,
    matrix_apply_pose,
    rand_motor,
    rand_mv,
    rand_pose,
)

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
            table[i, j, pga.BASIS_NAMES.index(entry)] = sign
    return table


def test_geometric_table_matches_reference_exactly():
    assert np.array_equal(pga.GEOM_TABLE, parse_table(GEOM_ROWS))


def test_wedge_table_matches_reference_exactly():
    assert np.array_equal(pga.WEDGE_TABLE, parse_table(WEDGE_ROWS))


def test_geometric_product_basis_cases():
    e = Multivector.basis
    assert geometric_product(e(2), e(3)).isclose(e(6))      # e1 e2 = e12
    assert geometric_product(e(1), e(1)).isclose(Multivector.zero())  # e0^2 = 0
    assert geometric_product(e(6), e(6)).isclose(Multivector.scalar(-1.0))  # e12^2 = -1


def test_geometric_product_identity():
    rng = np.random.default_rng(0)
    one = Multivector.scalar(1.0)
    for _ in range(20):
        x = rand_mv(rng)
        assert geometric_product(x, one).isclose(x)
        assert geometric_product(one, x).isclose(x)


def test_geometric_product_associativity():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        a, b, c = rand_mv(rng), rand_mv(rng), rand_mv(rng)
        left = geometric_product(geometric_product(a, b), c)
        right = geometric_product(a, geometric_product(b, c))
        scale = max(np.max(np.abs(left.coeffs)), np.max(np.abs(right.coeffs)), 1.0)
        assert np.max(np.abs(left.coeffs - right.coeffs)) <= 1e-12 * scale


def test_wedge_vector_self_annihilation():
    rng = np.random.default_rng(2)
    e = Multivector.basis
    assert wedge_product(e(2), e(2)).isclose(Multivector.zero())
    for _ in range(50):
        v = grade_project(rand_mv(rng), 1)
        assert np.max(np.abs(wedge_product(v, v).coeffs)) <= 1e-14


def test_wedge_of_axes_intersects_at_origin():
    x_axis_normal = encode_line(1.0, 0.0, 0.0)  # line x = 0
    y_axis_normal = encode_line(0.0, 1.0, 0.0)  # line y = 0
    p = wedge_product(x_axis_normal, y_axis_normal)
    assert p.isclose(Multivector.basis(6))  # point (0,0), unit weight
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
        x, y = decode_point(wedge_product(l1, l2))
        # closed-form intersection of the two lines
        assert math.isclose(x, (b1 * c2 - b2 * c1) / det, rel_tol=0, abs_tol=1e-9 * max(1, abs(x)))
        assert math.isclose(y, (a2 * c1 - a1 * c2) / det, rel_tol=0, abs_tol=1e-9 * max(1, abs(y)))
        assert abs(line_residual(l1, x, y)) <= 1e-10 * max(1.0, abs(c1))
        assert abs(line_residual(l2, x, y)) <= 1e-10 * max(1.0, abs(c2))


def test_dual_basis_and_involution():
    assert dual(Multivector.basis(1)).isclose(Multivector.basis(6))  # e0 -> e12
    assert dual(Multivector.scalar(1.0)).isclose(Multivector.basis(7))  # 1 -> e012
    rng = np.random.default_rng(4)
    for _ in range(100):
        x = rand_mv(rng)
        assert np.array_equal(dual(dual(x)).coeffs, x.coeffs)


def test_join_equals_dual_wedge_dual_exactly():
    rng = np.random.default_rng(5)
    for _ in range(100):
        a, b = rand_mv(rng), rand_mv(rng)
        via_duals = dual(wedge_product(dual(a), dual(b)))
        assert np.array_equal(join(a, b).coeffs, via_duals.coeffs)


def test_join_of_two_points_is_their_line():
    line = join(encode_point(0.0, 0.0), encode_point(1.0, 0.0))
    assert line.isclose(Multivector.basis(3))  # e2: the line y = 0
    rng = np.random.default_rng(6)
    for _ in range(100):
        ax, ay, bx, by = rng.normal(0.0, 10.0, size=4)
        line = join(encode_point(ax, ay), encode_point(bx, by))
        assert abs(line_residual(line, ax, ay)) <= 1e-10
        assert abs(line_residual(line, bx, by)) <= 1e-10


def test_join_point_line_is_signed_distance():
    assert math.isclose(
        join(encode_point(3.0, 4.0), encode_line(1.0, 0.0, 0.0))[0], 3.0, abs_tol=1e-12
    )
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
        assert np.max(np.abs(d.coeffs[1:])) <= 1e-12
        la, lb, lc = line.coeffs[2], line.coeffs[3], line.coeffs[1]
        assert math.isclose(d[0], la * x0 + lb * y0 + lc, abs_tol=1e-11)


def test_grade_projection():
    e = Multivector.basis
    x = e(1) + e(6)
    assert grade_project(x, 1).isclose(e(1))
    assert grade_project(5.0 * Multivector.scalar(1.0) + 2.0 * e(7), 3).isclose(2.0 * e(7))
    rng = np.random.default_rng(8)
    for _ in range(100):
        x = rand_mv(rng)
        total = Multivector.zero()
        for k in range(4):
            total = total + grade_project(x, k)
        assert np.array_equal(total.coeffs, x.coeffs)
    with pytest.raises(ValueError):
        grade_project(x, 4)
    with pytest.raises(ValueError):
        grade_project(x, -1)


def test_inner_product_definition():
    e = Multivector.basis
    assert invariant_inner_product(e(2), e(2)) == 1.0
    assert invariant_inner_product(e(1), e(1)) == 0.0
    assert invariant_inner_product(e(4), e(4)) == 0.0  # e01 carries e0
    rng = np.random.default_rng(9)
    for _ in range(50):
        a, b = rand_mv(rng), rand_mv(rng)
        assert invariant_inner_product(a, b) == invariant_inner_product(b, a)


def test_inner_product_motor_invariance():
    rng = np.random.default_rng(10)
    for _ in range(1000):
        u = rand_motor(rng)
        a, b = rand_mv(rng), rand_mv(rng)
        before = invariant_inner_product(a, b)
        after = invariant_inner_product(sandwich(u, a), sandwich(u, b))
        assert abs(after - before) <= 1e-12 * max(1.0, abs(before))


def test_sandwich_translation():
    t = Motor.translator(2.0, 3.0)
    assert decode_point(sandwich(t, encode_point(1.0, 1.0))) == (3.0, 4.0)


def test_sandwich_rotation():
    r = Motor.rotor(math.pi / 2.0)
    out = sandwich(r, Multivector.basis(2))  # e1
    assert out.isclose(Multivector.basis(3), atol=1e-15)  # -> e2


def test_sandwich_fixes_pseudoscalar():
    rng = np.random.default_rng(11)
    e012 = Multivector.basis(7)
    for _ in range(50):
        u = rand_motor(rng)
        assert sandwich(u, e012).isclose(e012, atol=1e-12)


def test_sandwich_linearity():
    rng = np.random.default_rng(12)
    for _ in range(200):
        u = rand_motor(rng)
        x, y = rand_mv(rng), rand_mv(rng)
        alpha, beta = rng.normal(size=2)
        lhs = sandwich(u, alpha * x + beta * y)
        rhs = alpha * sandwich(u, x) + beta * sandwich(u, y)
        scale = max(1.0, np.max(np.abs(lhs.coeffs)))
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) <= 1e-12 * scale


def test_sandwich_general_translation_formula():
    rng = np.random.default_rng(13)
    for _ in range(100):
        a, b = rng.normal(0.0, 10.0, size=2)
        x = rand_mv(rng)
        c = x.coeffs
        got = sandwich(Motor.translator(a, b), x).coeffs
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
        x = rand_mv(rng)
        c = x.coeffs
        got = sandwich(Motor.rotor(theta), x).coeffs
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


def test_sandwich_rejects_non_unit_motor():
    bad = Motor.identity().coeffs.copy()
    with pytest.raises(NonUnitMotorError):
        Motor(bad * 1.5)


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
    m = motor_from_pose(Pose2(0.0, 0.0, 0.0))
    assert np.allclose(m.coeffs, [1.0, 0.0, 0.0, 0.0])
    a, b = 3.0, -2.0
    m = motor_from_pose(Pose2(a, b, 0.0))
    assert np.allclose(m.coeffs, [1.0, -a / 2.0, b / 2.0, 0.0])


def test_motor_from_pose_moves_origin():
    rng = np.random.default_rng(16)
    for _ in range(100):
        pose = rand_pose(rng)
        got = decode_point(sandwich(motor_from_pose(pose), encode_point(0.0, 0.0)))
        assert math.isclose(got[0], pose.x, abs_tol=1e-10)
        assert math.isclose(got[1], pose.y, abs_tol=1e-10)


def test_motor_inverse_is_reverse():
    a, b = 1.7, -0.4
    t_inv = Motor.translator(a, b).inverse()
    assert np.allclose(t_inv.coeffs, [1.0, a / 2.0, -b / 2.0, 0.0])
    theta = 0.9
    r_inv = Motor.rotor(theta).inverse()
    assert np.allclose(r_inv.coeffs, [math.cos(theta / 2), 0.0, 0.0, math.sin(theta / 2)])
    ident = Motor.identity()
    assert np.array_equal(ident.inverse().coeffs, ident.coeffs)


def test_motor_inverse_roundtrip():
    rng = np.random.default_rng(17)
    one = np.array([1.0, 0.0, 0.0, 0.0])
    for _ in range(200):
        u = rand_motor(rng)
        prod = u @ u.inverse()
        assert np.max(np.abs(prod.coeffs - one)) <= 1e-12


def test_motor_composition_matches_pose_composition():
    rng = np.random.default_rng(18)
    for _ in range(200):
        g, p = rand_pose(rng), rand_pose(rng)
        composed = compose_pose_oracle(g, p)
        m = motor_from_pose(g) @ motor_from_pose(p)
        expect = motor_from_pose(composed)
        # motors are double covers: u and -u encode the same transform
        diff = min(
            np.max(np.abs(m.coeffs - expect.coeffs)),
            np.max(np.abs(m.coeffs + expect.coeffs)),
        )
        assert diff <= 1e-10


def test_motor_pose_roundtrip():
    rng = np.random.default_rng(19)
    for _ in range(200):
        pose = rand_pose(rng)
        back = motor_from_pose(pose).pose()
        assert math.isclose(back.x, pose.x, abs_tol=1e-9)
        assert math.isclose(back.y, pose.y, abs_tol=1e-9)
        assert math.isclose(back.theta, pose.theta, abs_tol=1e-12)


def test_point_encode_decode():
    assert encode_point(1.0, 2.0).isclose(
        Multivector.basis(5) + 2.0 * Multivector.basis(4) + Multivector.basis(6)
    )
    assert decode_point(2.0 * encode_point(1.0, 2.0)) == (1.0, 2.0)
    assert decode_point(Multivector.basis(6)) == (0.0, 0.0)
    with pytest.raises(IdealPointError):
        decode_point(Multivector.basis(4))  # ideal point, zero e12


def test_encode_line():
    assert encode_line(0.0, 1.0, 0.0).isclose(Multivector.basis(3))
    with pytest.raises(ValueError):
        encode_line(0.0, 0.0, 1.0)
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
        raw = encode_line(A, B, C, normalize=False)
        moved = sandwich(Motor.translator(a, b), raw)
        assert math.isclose(moved.coeffs[2], A, abs_tol=1e-12)
        assert math.isclose(moved.coeffs[3], B, abs_tol=1e-12)
        assert math.isclose(moved.coeffs[1], C - A * a - B * b, abs_tol=1e-10)


def test_operations_keep_coefficients_finite():
    rng = np.random.default_rng(21)
    for _ in range(100):
        a, b = rand_mv(rng, scale=100.0), rand_mv(rng, scale=100.0)
        u = rand_motor(rng, trans=200.0)
        for out in (
            geometric_product(a, b),
            wedge_product(a, b),
            join(a, b),
            dual(a),
            sandwich(u, a),
        ):
            assert np.all(np.isfinite(out.coeffs))


def test_pose_wrapping():
    assert Pose2(0.0, 0.0, math.pi).theta == math.pi
    assert Pose2(0.0, 0.0, -math.pi).theta == math.pi
    assert abs(Pose2(0.0, 0.0, 3.0 * math.pi).theta - math.pi) <= 1e-12
    p = Pose2(1.0, 2.0, 0.3)
    assert p.compose(p.inverse()).x == pytest.approx(0.0, abs=1e-12)
    d = p.delta_to(Pose2(2.0, 1.0, -0.2))
    assert p.compose(d).x == pytest.approx(2.0, abs=1e-12)
    assert p.compose(d).theta == pytest.approx(-0.2, abs=1e-12)


def test_pose_arrays_round_exactly_as_pose2():
    """The rollout's array dynamics and the encoder's increments reproduce Pose2 bit for bit,
    angles at and beyond +-pi included."""
    rng = np.random.default_rng(61)
    raw = np.column_stack([rng.uniform(-1e3, 1e3, (400, 2)), rng.uniform(-7.0, 7.0, 400)])
    raw[:4, 2] = [math.pi, -math.pi, 3.0 * math.pi, 0.0]
    poses = [Pose2(*row) for row in raw]
    a = np.array([(p.x, p.y, p.theta) for p in poses])
    b = a[::-1].copy()
    assert np.array_equal(pga.wrap_angles(raw[:, 2]), a[:, 2])
    composed = [p.compose(q) for p, q in zip(poses, poses[::-1])]
    deltas = [p.delta_to(q) for p, q in zip(poses, poses[::-1])]
    assert np.array_equal(pga.compose_poses(a, b), [(p.x, p.y, p.theta) for p in composed])
    assert np.array_equal(pga.pose_deltas(a, b), [(p.x, p.y, p.theta) for p in deltas])
