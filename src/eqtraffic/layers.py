"""SE(2)-equivariant network primitives on batched multivector channels.

Every function here satisfies L(u x u^{-1}) = u L(x) u^{-1} for motors u (or
produces invariant scalars), which the test suite checks against random
roto-translations.  Inputs are raw arrays [..., C, 8] / [..., C'] or autodiff
Vars; parameters are plain arrays or Vars bundled in small dataclasses.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .pga import COMPONENTS, GEOM_TABLE, GRADES, INNER_INDICES, JOIN_TABLE
from .batch import sandwich_array

LAYER_NORM_EPS = 1e-6
DISTANCE_EPS = 1e-6

_UNIT_SCALAR = np.eye(COMPONENTS)[0]
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

# Deliberately broken 11th map (scalar -> e1) for negative-control tests: it
# mixes grades in a way no roto-translation commutes with.
_GRADE_MIXING = np.zeros((1, COMPONENTS, COMPONENTS))
_GRADE_MIXING[0, 0, 2] = 1.0
NONEQ_BASIS = np.concatenate([LINEAR_BASIS, _GRADE_MIXING], axis=0)
NONEQ_BASIS.flags.writeable = False


@dataclass
class EqLinearParams:
    """weight[C_out, C_in, 10] over LINEAR_BASIS; bias lands on the scalar component."""

    weight: object  # ndarray or Var, [C_out, C_in, 10]
    bias: object = None  # ndarray or Var, [C_out]


@dataclass
class MlpParams:
    """Two-layer scalar MLP: x @ w1 + b1 -> relu -> @ w2 + b2."""

    w1: object
    b1: object
    w2: object
    b2: object


@dataclass
class AttentionConfig:
    heads: int
    mv_per_head: int
    scalar_per_head: int
    distance_awareness: bool = True
    eps: float = DISTANCE_EPS
    causal: bool = False

    def check(self, mv_channels: int, scalar_channels: int) -> None:
        if mv_channels != self.heads * self.mv_per_head:
            raise ValueError(
                f"mv channels {mv_channels} != heads {self.heads} x {self.mv_per_head}"
            )
        if scalar_channels != self.heads * self.scalar_per_head:
            raise ValueError(
                f"scalar channels {scalar_channels} != heads {self.heads} x {self.scalar_per_head}"
            )

    @property
    def logit_denominator(self) -> float:
        c, cs = self.mv_per_head, self.scalar_per_head
        width = 4 * c + 4 * c + cs if self.distance_awareness else 4 * c + cs
        return float(np.sqrt(width))


@dataclass
class AttentionParams:
    mv_q: EqLinearParams
    mv_k: EqLinearParams
    mv_v: EqLinearParams
    s_q: tuple  # (w, b)
    s_k: tuple
    s_v: tuple


@dataclass
class EqMlpBlockParams:
    expand: EqLinearParams  # C -> 4C
    mid: EqLinearParams     # 2C -> 2C
    out: EqLinearParams     # 2C -> C
    scalar: MlpParams       # C' -> hidden -> C'


def affine(x, w, b=None):
    out = ad.matmul(x, w)
    if b is not None:
        out = ad.add(out, b)
    return out


def mlp2(x, p: MlpParams):
    return affine(ad.relu(affine(x, p.w1, p.b1)), p.w2, p.b2)


def eq_linear(x, params, bias=None):
    """Equivariant channel mixing; per-pair action spanned by LINEAR_BASIS."""
    if isinstance(params, EqLinearParams):
        weight, bias = params.weight, params.bias
    else:
        weight = params
    out = ad.mv_linear(x, weight, LINEAR_BASIS)
    if bias is not None:
        c_out = ad.data_of(weight).shape[0]
        bias_mv = ad.mul(ad.reshape(bias, (c_out, 1)), _UNIT_SCALAR)
        out = ad.add(out, bias_mv)
    return out


def noneq_linear(x, weight):
    """Negative control: weight[C_out, C_in, 11] adds a grade-0 -> e1 mixing slot."""
    return ad.mv_linear(x, weight, NONEQ_BASIS)


def geometric_bilinear(w, x, y, z):
    """Concatenate channelwise geometric products with channelwise joins: C -> 2C."""
    for name, arr in (("w", w), ("x", x), ("y", y), ("z", z)):
        if ad.data_of(arr).shape != ad.data_of(w).shape:
            raise ValueError(f"geometric_bilinear operand '{name}' shape mismatch")
    return ad.concat(
        [ad.bilinear8(w, x, GEOM_TABLE), ad.bilinear8(y, z, JOIN_TABLE)], axis=-2
    )


def gated_relu(x):
    """Scale each multivector by relu of its scalar component."""
    return ad.mul(x, ad.relu(ad.take_last(x, [0])))


def eq_layer_norm(x, eps: float = LAYER_NORM_EPS):
    """x / sqrt(mean_c <x_c, x_c> + eps); one shared divisor per token."""
    return ad.rms_norm(x, _INNER_MASK / ad.data_of(x).shape[-2], (-2, -1), eps)


def scalar_layer_norm(s, eps: float = LAYER_NORM_EPS):
    """Standard layer norm over the channel axis, no affine terms."""
    centered = ad.sub(s, ad.reduce_mean(s, axis=-1, keepdims=True))
    return ad.rms_norm(centered, 1.0 / ad.data_of(s).shape[-1], -1, eps)


def distance_features_query(q, eps: float = DISTANCE_EPS):
    """Query-side distance features, [..., C, 8] -> [..., C, 4]."""
    return ad.distance_features(q, QUERY_MIX, eps)


def distance_features_key(k, eps: float = DISTANCE_EPS):
    """Key-side distance features; dotted with the query side they give
    (up to the eps factor) the negative squared distance between encoded points."""
    return ad.distance_features(k, KEY_MIX, eps)


def _heads_mv(x, heads: int):
    d = ad.data_of(x)
    lead, length, c_total = d.shape[:-3], d.shape[-3], d.shape[-2]
    per = c_total // heads
    out = ad.reshape(x, lead + (length, heads, per, COMPONENTS))
    return ad.moveaxis(out, -3, -4)  # [..., H, L, per, 8]


def _heads_scalar(s, heads: int):
    d = ad.data_of(s)
    lead, length, c_total = d.shape[:-2], d.shape[-2], d.shape[-1]
    per = c_total // heads
    out = ad.reshape(s, lead + (length, heads, per))
    return ad.moveaxis(out, -2, -3)  # [..., H, L, per]


def _merge_heads_mv(x):
    d = ad.data_of(x)
    lead = d.shape[:-4]
    heads, length, per = d.shape[-4], d.shape[-3], d.shape[-2]
    out = ad.moveaxis(x, -4, -3)  # [..., L, H, per, 8]
    return ad.reshape(out, lead + (length, heads * per, COMPONENTS))


def _merge_heads_scalar(s):
    d = ad.data_of(s)
    lead = d.shape[:-3]
    heads, length, per = d.shape[-3], d.shape[-2], d.shape[-1]
    out = ad.moveaxis(s, -3, -2)
    return ad.reshape(out, lead + (length, heads * per))


def _flatten_key_query(mv_h, s_h, cfg: AttentionConfig, side: str):
    """Concatenate inner-product components, distance features, and scalars."""
    d = ad.data_of(mv_h)
    lead = d.shape[:-2]
    comps = ad.reshape(ad.take_last(mv_h, INNER_INDICES), lead + (4 * cfg.mv_per_head,))
    pieces = [comps]
    if cfg.distance_awareness:
        feats = (
            distance_features_query(mv_h, cfg.eps)
            if side == "query"
            else distance_features_key(mv_h, cfg.eps)
        )
        pieces.append(ad.reshape(feats, lead + (4 * cfg.mv_per_head,)))
    pieces.append(s_h)
    return ad.concat(pieces, axis=-1)


def _combine_mask(mask, causal: bool, lq: int, lk: int):
    """AND of an optional [..., Lq, Lk] mask with the causal rule, or None.

    Causal: the lq queries are the last lq of the lk key positions, so query
    i sees keys up to position lk - lq + i.
    """
    out = None
    if causal:
        if lq > lk:
            raise ValueError(f"causal attention needs lq <= lk, got {lq}x{lk}")
        out = np.tri(lq, lk, lk - lq, dtype=bool)
    if mask is not None:
        m = np.asarray(mask, dtype=bool)
        out = m if out is None else (m & out)
    return out


def eq_attention_logits(mv_q, mv_k, sq, sk, cfg: AttentionConfig):
    """Pre-softmax invariant logits, [..., H, Lq, Lk]."""
    cfg.check(ad.data_of(mv_q).shape[-2], ad.data_of(sq).shape[-1])
    qf = _flatten_key_query(_heads_mv(mv_q, cfg.heads), _heads_scalar(sq, cfg.heads), cfg, "query")
    kf = _flatten_key_query(_heads_mv(mv_k, cfg.heads), _heads_scalar(sk, cfg.heads), cfg, "key")
    scores = ad.matmul(qf, ad.moveaxis(kf, -1, -2))
    return ad.div(scores, cfg.logit_denominator)


def eq_attention(mv_q, mv_k, mv_v, sq, sk, sv, cfg: AttentionConfig, mask=None):
    """Multivector scaled dot-product attention.

    Logits follow the fused construction: concatenate the [s, e1, e2, e12]
    components, the distance-awareness features, and the invariant scalars of
    queries/keys, then take one dot product scaled by the configured
    denominator.  Values carry all 8 multivector components plus scalars.
    Rows whose mask admits no key yield zero outputs.
    """
    logits = eq_attention_logits(mv_q, mv_k, sq, sk, cfg)
    d = ad.data_of(logits)
    combined = _combine_mask(mask, cfg.causal, d.shape[-2], d.shape[-1])
    if combined is not None and combined.ndim > 2:
        combined = np.expand_dims(combined, -3)  # broadcast across heads
    weights = ad.masked_softmax(logits, combined)

    mv_v_h = _heads_mv(mv_v, cfg.heads)
    sv_h = _heads_scalar(sv, cfg.heads)
    dv = ad.data_of(mv_v_h)
    lead = dv.shape[:-2]
    v_flat = ad.concat(
        [ad.reshape(mv_v_h, lead + (COMPONENTS * cfg.mv_per_head,)), sv_h], axis=-1
    )
    out = ad.matmul(weights, v_flat)

    do = ad.data_of(out)
    lead_q = do.shape[:-1]
    mv_flat, s_out_h = ad.split(
        out, [COMPONENTS * cfg.mv_per_head, cfg.scalar_per_head], axis=-1
    )
    mv_out_h = ad.reshape(mv_flat, lead_q + (cfg.mv_per_head, COMPONENTS))
    return _merge_heads_mv(mv_out_h), _merge_heads_scalar(s_out_h)


def rms_normalize(x, eps: float = LAYER_NORM_EPS):
    """x / sqrt(mean(x^2) + eps) over the last axis; no centering, no params."""
    return ad.rms_norm(x, 1.0 / ad.data_of(x).shape[-1], -1, eps)


def invariant_adapter(mv, s, frames: np.ndarray, mlp: MlpParams):
    """Residual update of scalars from the agent-frame view of the multivectors.

    `frames` holds one motor per token mapping global coordinates into that
    token's agent frame; it is a constant (never differentiated).  The
    flattened agent-frame components are RMS-normalized before the MLP: they
    are invariant scalars, so the normalization preserves invariance while
    bounding their meters-scale magnitudes.
    """
    local = sandwich_array(frames, mv)
    d = ad.data_of(local)
    flat = ad.reshape(local, d.shape[:-2] + (d.shape[-2] * COMPONENTS,))
    return ad.add(s, mlp2(rms_normalize(flat), mlp))


def eq_mlp_block(mv, s, params: EqMlpBlockParams, eps: float = LAYER_NORM_EPS):
    """Pre-norm equivariant MLP with geometric bilinears and residual connections."""
    c = ad.data_of(mv).shape[-2]
    mv_n = eq_layer_norm(mv, eps)
    s_n = scalar_layer_norm(s, eps)

    expanded = eq_linear(mv_n, params.expand)  # C -> 4C
    w, x, y, z = ad.split(expanded, [c, c, c, c], axis=-2)
    mixed = geometric_bilinear(w, x, y, z)     # -> 2C

    mixed = eq_linear(mixed, params.mid)
    s_h = affine(s_n, params.scalar.w1, params.scalar.b1)
    mixed = gated_relu(mixed)
    s_h = ad.relu(s_h)
    mixed = eq_linear(mixed, params.out)       # 2C -> C
    s_h = affine(s_h, params.scalar.w2, params.scalar.b2)

    return ad.add(mixed, mv), ad.add(s_h, s)
