"""SE(2)-equivariant network primitives on batched multivector channels.

Every function here satisfies L(u x u^{-1}) = u L(x) u^{-1} for motors u (or
produces invariant scalars), which the test suite checks against random
roto-translations.  Inputs are raw arrays [..., C, 8] / [..., C'] or autodiff
Vars.  A layer that owns weights reads them from `p`, a mapping of parameter
names to arrays or Vars (a `ParamStore` or its `as_vars()`), under its `name`
prefix; a bias the mapping lacks is none.
"""

import numpy as np

from . import autodiff as ad
from .pga import COMPONENTS, GEOM_TABLE, GRADES, INNER_INDICES, JOIN_TABLE

LAYER_NORM_EPS = 1e-6
DISTANCE_EPS = 1e-6


def _per_dtype(const: np.ndarray) -> dict:
    """{dtype: const cast to it} for both float dtypes, so a float32 model never promotes."""
    return {np.dtype(t): const.astype(t) for t in (np.float32, np.float64)}


_GEOM_TABLE, _JOIN_TABLE = _per_dtype(GEOM_TABLE), _per_dtype(JOIN_TABLE)
_INNER_MASK = np.isin(np.arange(COMPONENTS), INNER_INDICES).astype(float)
# [c^2, a^2 + b^2, ac, bc] @ mix: the query keeps it, the key gives [-(a^2 + b^2), -c^2, 2ac, 2bc]
QUERY_MIX = np.eye(4)
KEY_MIX = np.array([[0, -1, 0, 0], [-1, 0, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]], dtype=float)


def _build_linear_basis():
    """The 10 componentwise maps spanning equivariant channel mixing.

    Slots 0..3: identity restricted to grade k.  Slots 4..6: left product with
    e0 on grades 0..2.  Slots 7..9: left product with e012 on grades 0..2.
    Layout [10, 8, 8] with B[p, a, b]: input component a -> output component b.
    """
    grade_of = np.array(GRADES)
    basis = np.zeros((10, COMPONENTS, COMPONENTS))
    for k in range(4):
        for a in range(COMPONENTS):
            if grade_of[a] == k:
                basis[k, a, a] = 1.0
    for k in range(3):
        mask = grade_of == k
        basis[4 + k][mask] = GEOM_TABLE[1][mask]  # e0 * <x>_k
        basis[7 + k][mask] = GEOM_TABLE[7][mask]  # e012 * <x>_k
    basis.flags.writeable = False
    return basis


LINEAR_BASIS = _build_linear_basis()
_LINEAR_BASIS = _per_dtype(LINEAR_BASIS)

# Deliberately broken 11th map (scalar -> e1) for negative-control tests: it
# mixes grades in a way no roto-translation commutes with.
_GRADE_MIXING = np.zeros((1, COMPONENTS, COMPONENTS))
_GRADE_MIXING[0, 0, 2] = 1.0
NONEQ_BASIS = np.concatenate([LINEAR_BASIS, _GRADE_MIXING], axis=0)
NONEQ_BASIS.flags.writeable = False


def mlp2(x, p, name: str):
    """Two-layer scalar MLP: x @ w1 + b1 -> relu -> @ w2 + b2."""
    return ad.matmul(ad.relu(ad.matmul(x, p[f"{name}/w1"], p[f"{name}/b1"])), p[f"{name}/w2"], p[f"{name}/b2"])


def eq_linear(x, p, name: str):
    """Equivariant channel mixing by weight[C_out, C_in, 10] over LINEAR_BASIS; the bias
    [C_out], if any, lands on the scalar component."""
    weight = p[f"{name}/weight"]
    return ad.mv_linear(x, weight, _LINEAR_BASIS[ad.data_of(weight).dtype], p.get(f"{name}/bias"))


def noneq_linear(x, weight):
    """Negative control: weight[C_out, C_in, 11] adds a grade-0 -> e1 mixing slot."""
    return ad.mv_linear(x, weight, NONEQ_BASIS)


def geometric_bilinear(w, x, y, z):
    """Concatenate channelwise geometric products with channelwise joins: C -> 2C."""
    for name, arr in (("w", w), ("x", x), ("y", y), ("z", z)):
        if ad.data_of(arr).shape != ad.data_of(w).shape:
            raise ValueError(f"geometric_bilinear operand '{name}' shape mismatch")
    dt = ad.data_of(w).dtype
    return ad.concat([ad.bilinear8(w, x, _GEOM_TABLE[dt]), ad.bilinear8(y, z, _JOIN_TABLE[dt])], axis=-2)


def gated_relu(x):
    """Scale each multivector by relu of its scalar component."""
    return ad.mul(x, ad.relu(ad.take_last(x, [0])))


def eq_layer_norm(x, eps: float = LAYER_NORM_EPS):
    """x / sqrt(mean_c <x_c, x_c> + eps); one shared divisor per token."""
    return ad.rms_norm(x, _INNER_MASK / ad.data_of(x).shape[-2], (-2, -1), eps)


def scalar_layer_norm(s):
    """Standard layer norm over the channel axis, no affine terms: one centred `rms_norm` node."""
    return ad.rms_norm(s, 1.0 / ad.data_of(s).shape[-1], -1, LAYER_NORM_EPS, center=True)


def _attention_terms(mv_q, sq, heads: int, distance_awareness: bool) -> tuple:
    """(query mix, key mix, eps, logit denominator) of `heads` heads over the queries' channels.

    The denominator is the square root of a head's logit row width: 4c inner
    components, 4c distance features when distance-aware, and S/heads scalars.
    """
    c, cs = ad.data_of(mv_q).shape[-2], ad.data_of(sq).shape[-1]
    if c % heads or cs % heads:
        raise ValueError(f"{c} mv channels and {cs} scalar channels do not split into {heads} heads")
    mixes = (QUERY_MIX, KEY_MIX) if distance_awareness else (None, None)
    width = (8 if distance_awareness else 4) * (c // heads) + cs // heads
    return (*mixes, DISTANCE_EPS, float(np.sqrt(width)))


def eq_attention_logits(mv_q, mv_k, sq, sk, heads: int, distance_awareness: bool = True) -> np.ndarray:
    """Pre-softmax invariant logits [..., H, Lq, Lk], the ones `eq_attention` computes, as a plain array."""
    query_mix, key_mix, eps, denom = _attention_terms(mv_q, sq, heads, distance_awareness)
    qf = ad._attention_rows(ad.data_of(mv_q), ad.data_of(sq), heads, query_mix, eps)[0]
    kf = ad._attention_rows(ad.data_of(mv_k), ad.data_of(sk), heads, key_mix, eps)[0]
    return qf @ kf.swapaxes(-1, -2) / denom


def eq_key_rows(mv_k, mv_v, sk, sv, heads: int, distance_awareness: bool = True) -> tuple:
    """The key and value rows (kf, vf) that `eq_attention` attends over, one `ad.key_rows` node.
    They depend on each key alone, so rows built once serve every later query."""
    _query_mix, key_mix, eps, _denom = _attention_terms(mv_k, sk, heads, distance_awareness)
    return ad.key_rows(mv_k, mv_v, sk, sv, heads, key_mix, eps)


def eq_attention(mv_q, sq, rows: tuple, heads: int, mask=None, distance_awareness: bool = True):
    """Scaled dot-product attention of multivector queries over the key and value `rows` of
    `eq_key_rows`, one `ad.mv_attention` node.

    Logits follow the fused construction: concatenate the [s, e1, e2, e12]
    components, the distance-awareness features, and the invariant scalars of
    queries/keys, then take one dot product scaled by the square root of that
    row width.  Values carry all 8 multivector components plus scalars.
    `mask` [..., Lq, Lk] (True = attend) keeps keys per query; rows whose mask
    admits no key yield zero outputs.
    """
    query_mix, _key_mix, eps, denom = _attention_terms(mv_q, sq, heads, distance_awareness)
    return ad.mv_attention(mv_q, sq, *rows, heads, query_mix, eps, denom, mask)


def rms_normalize(x):
    """x / sqrt(mean(x^2) + LAYER_NORM_EPS) over the last axis; no centering, no params."""
    return ad.rms_norm(x, 1.0 / ad.data_of(x).shape[-1], -1, LAYER_NORM_EPS)


def invariant_adapter(mv, s, sandwich: np.ndarray, p, name: str):
    """Residual update of scalars from the agent-frame view of the multivectors.

    `sandwich` [..., 8, 8] holds, per token, the `batch.sandwich_matrix` of
    the motor mapping global coordinates into that token's agent frame; it
    is a constant (never differentiated), built once per forward and shared
    by every block.  The flattened agent-frame components are RMS-normalized
    before the MLP: they are invariant scalars, so the normalization
    preserves invariance while bounding their meters-scale magnitudes.
    """
    local = ad.matmul(mv, sandwich)
    d = ad.data_of(local)
    flat = ad.reshape(local, d.shape[:-2] + (d.shape[-2] * COMPONENTS,))
    return ad.add(s, mlp2(rms_normalize(flat), p, name))


def eq_mlp_block(mv, s, p, name: str):
    """Pre-norm equivariant MLP with geometric bilinears and residual connections.

    Its weights: `expand` (C -> 4C), `mid` (2C -> 2C) and `out` (2C -> C)
    equivariant linears, and the scalar MLP `scalar` (C' -> 2C' -> C').
    """
    c = ad.data_of(mv).shape[-2]
    mv_n = eq_layer_norm(mv)
    s_n = scalar_layer_norm(s)

    expanded = eq_linear(mv_n, p, f"{name}/expand")  # C -> 4C
    mixed = geometric_bilinear(*ad.split(expanded, [c, c, c, c], axis=-2))  # -> 2C
    mixed = gated_relu(eq_linear(mixed, p, f"{name}/mid"))
    mixed = eq_linear(mixed, p, f"{name}/out")       # 2C -> C
    return ad.add(mixed, mv), ad.add(mlp2(s_n, p, f"{name}/scalar"), s)
