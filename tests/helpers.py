"""Shared random generators and independent oracles used across the test suite.

The oracles here deliberately avoid the library's algebra paths: rigid
transforms are checked against plain 2x2 rotation matrices, distances against
coordinate formulas.
"""

import math

import numpy as np

from eqtraffic.pga import Motor, Multivector, Pose2


def rand_mv(rng, scale=1.0):
    return Multivector(rng.normal(0.0, scale, size=8))


def rand_pose(rng, trans=50.0):
    return Pose2(
        rng.uniform(-trans, trans),
        rng.uniform(-trans, trans),
        rng.uniform(-math.pi, math.pi),
    )


def rand_motor(rng, trans=50.0):
    return Motor.from_pose(rand_pose(rng, trans=trans))


def rot_matrix(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def matrix_apply_pose(pose, x, y):
    """Independent rigid-transform oracle: R(theta) @ p + t."""
    p = rot_matrix(pose.theta) @ np.array([x, y]) + np.array([pose.x, pose.y])
    return float(p[0]), float(p[1])


def compose_pose_oracle(g, p):
    """SE(2) composition via the matrix oracle."""
    x, y = matrix_apply_pose(g, p.x, p.y)
    return Pose2(x, y, g.theta + p.theta)


def line_residual(line_mv, x, y):
    """a*x + b*y + c for the line encoding [.., c(e0), a(e1), b(e2), ..]."""
    c = line_mv.coeffs
    return c[2] * x + c[3] * y + c[1]


def max_rel_err(actual, expected, floor=1e-12):
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(actual), np.abs(expected)), floor)
    return float(np.max(np.abs(actual - expected) / denom))


def primitive_grad_cases(rng):
    """(name, scalar fn, input arrays) for every registered autodiff primitive.

    Each scalarization is centered around its unperturbed value so the
    finite-difference evaluations stay near zero; this keeps the rounding
    noise of the final reduction out of the difference quotient.
    """
    from eqtraffic import autodiff as ad
    from eqtraffic.layers import DISTANCE_EPS, KEY_MIX, LAYER_NORM_EPS, LINEAR_BASIS, QUERY_MIX
    from eqtraffic.pga import GEOM_TABLE, INNER_INDICES, JOIN_TABLE, WEDGE_TABLE

    def scalarize(x):
        d = ad.data_of(x)
        w = np.linspace(0.5, 1.5, d.size).reshape(d.shape)
        return ad.reduce_sum(ad.reshape(ad.mul(x, w), (-1,)), axis=0)

    a23 = rng.normal(size=(2, 3))
    b3 = rng.normal(size=(3,))
    m34 = rng.normal(size=(3, 4))
    mv = rng.normal(size=(2, 2, 8))
    pos = rng.uniform(0.5, 2.0, size=(2, 3))
    idx = np.array([[0, 2], [3, 1]])
    table = rng.normal(size=(5, 3))
    mask = np.array([[True, False, True], [True, True, True]])
    weight = rng.normal(size=(2, 2, 10))
    mv3 = rng.normal(size=(2, 3, 8))
    inner_weights = np.isin(np.arange(8), INNER_INDICES) / 3.0
    # row 0: e12 weights 3-8 sqrt(eps) either side of 0, where c / (c^2 + eps)
    # still bends away from 1/c; e01/e20 on the same scale keep the features,
    # and so the finite-difference rounding noise, small
    points = rng.normal(size=(2, 4, 8))
    points[0, :, 4:6] *= 3.0 * DISTANCE_EPS**0.5
    points[0, :, 6] = rng.choice([-1.0, 1.0], size=4) * rng.uniform(3.0, 8.0, size=4) * DISTANCE_EPS**0.5

    raw = [
        ("add", lambda v: scalarize(ad.add(v[0], v[1])), [a23, b3]),
        ("sub", lambda v: scalarize(ad.sub(v[0], v[1])), [a23, b3]),
        ("mul", lambda v: scalarize(ad.mul(v[0], v[1])), [a23, b3]),
        ("div", lambda v: scalarize(ad.div(v[0], v[1])), [pos, pos + 1.0]),
        ("neg", lambda v: scalarize(ad.neg(v[0])), [a23]),
        ("matmul", lambda v: scalarize(ad.matmul(v[0], v[1])), [a23, m34]),
        ("reshape", lambda v: scalarize(ad.reshape(v[0], (3, 2))), [a23]),
        ("moveaxis", lambda v: scalarize(ad.moveaxis(v[0], 0, 1)), [a23]),
        ("concat", lambda v: scalarize(ad.concat([v[0], v[1]], axis=0)), [a23, a23 + 1]),
        ("take_slice", lambda v: scalarize(ad.take_slice(v[0], 1, 0, 2)), [a23]),
        ("take_last", lambda v: scalarize(ad.take_last(v[0], [0, 2])), [a23]),
        ("reduce_sum", lambda v: scalarize(ad.reduce_sum(v[0], axis=0)), [a23]),
        ("reduce_mean", lambda v: scalarize(ad.reduce_mean(v[0], axis=1)), [a23]),
        ("relu", lambda v: scalarize(ad.relu(v[0])), [a23]),
        ("sqrt", lambda v: scalarize(ad.sqrt(v[0])), [pos]),
        ("masked_softmax", lambda v: scalarize(ad.masked_softmax(v[0], mask)), [a23]),
        ("log_softmax", lambda v: scalarize(ad.log_softmax(v[0])), [a23]),
        ("gather_last", lambda v: scalarize(ad.gather_last(v[0], np.array([0, 2]))), [a23]),
        ("embedding", lambda v: scalarize(ad.embedding(v[0], idx)), [table]),
        ("bilinear8/geom", lambda v: scalarize(ad.bilinear8(v[0], v[1], GEOM_TABLE)), [mv, mv + 0.3]),
        ("bilinear8/wedge", lambda v: scalarize(ad.bilinear8(v[0], v[1], WEDGE_TABLE)), [mv, mv + 0.3]),
        ("bilinear8/join", lambda v: scalarize(ad.bilinear8(v[0], v[1], JOIN_TABLE)), [mv, mv + 0.3]),
        ("mv_linear", lambda v: scalarize(ad.mv_linear(v[0], v[1], LINEAR_BASIS)), [mv, weight]),
        ("rms_norm/channels",
         lambda v: scalarize(ad.rms_norm(v[0], inner_weights, (-2, -1), LAYER_NORM_EPS)), [mv3]),
        ("rms_norm/last", lambda v: scalarize(ad.rms_norm(v[0], 1.0 / 3.0, -1, LAYER_NORM_EPS)), [a23]),
        ("distance_features/query",
         lambda v: scalarize(ad.distance_features(v[0], QUERY_MIX, DISTANCE_EPS)), [points]),
        ("distance_features/key",
         lambda v: scalarize(ad.distance_features(v[0], KEY_MIX, DISTANCE_EPS)), [points]),
    ]

    # multilinear ops have mathematically exact central differences; their
    # residual FD error is pure rounding, so sample FD-resolvable coordinates
    floors = {"bilinear8/geom": 1e-3, "bilinear8/wedge": 1e-3,
              "bilinear8/join": 1e-3, "mv_linear": 1e-3, "matmul": 1e-3}
    cases = []
    for name, fn, arrays in raw:
        with ad.Tape():
            base_val = float(ad.data_of(fn([ad.Var(a) for a in arrays])))
        cases.append(
            (name, (lambda v, f=fn, c=base_val: ad.sub(f(v), c)), arrays,
             floors.get(name, 0.0))
        )
    return cases
