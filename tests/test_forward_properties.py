"""Properties of `forward` over small random configs and gappy scenes: the cached path equals the
full one, packing scenes changes no scene's logits (all three variants), and f64 logits are
invariant under roto-translations of the scene."""

import dataclasses
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from eqtraffic import model as md
from eqtraffic import scene as sc
from helpers import NO_MAP, batch_rows, gappy_scene


def _vocab():
    rng = np.random.default_rng(0)
    trans = {cls: np.column_stack([rng.uniform(0.0, 0.9, 40), rng.uniform(-0.05, 0.05, 40),
                                   rng.uniform(-0.12, 0.12, 40)]) for cls in sc.AGENT_CLASSES}
    return sc.build_kdisk_vocab(trans, k_r=0.05, seed=0, cap=8)


VOCAB = _vocab()
WIDTHS = st.integers(1, 8)


@st.composite
def configs(draw):
    heads = draw(st.integers(1, 2))
    return md.ModelConfig(
        mv_channels=heads * draw(st.integers(1, 8 // heads)),
        scalar_channels=heads * draw(st.integers(1, 8 // heads)), heads=heads,
        blocks=draw(st.integers(0, 2)), vocab_sizes={c: VOCAB.size(c) for c in sc.AGENT_CLASSES},
        map_attention=draw(st.sampled_from(["all", 1, 3])), dtype="f64", seed=draw(st.integers(0, 99)),
        distance_awareness=draw(st.booleans()), include_adapter=draw(st.booleans()),
        input_hidden=draw(WIDTHS), adapter_hidden=draw(WIDTHS), decoder_hidden=draw(WIDTHS),
        rpe_hidden=draw(WIDTHS))


@st.composite
def scenes(draw):
    """A scene of 1-4 agents that start late, pause or stop early; one in four has no map."""
    scene = gappy_scene(draw(st.integers(0, 999)), horizon=draw(st.integers(3, 7)),
                        n_agents=draw(st.integers(1, 4)))
    return dataclasses.replace(scene, **NO_MAP) if draw(st.integers(0, 3)) == 0 else scene


def logits_of(batch, p, cfg, variant):
    out = md.forward(batch, p, cfg) if variant == "geometric" else md.baseline_forward(batch, p, cfg, variant)
    return np.asarray(out)


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(configs(), scenes(), scenes(), st.integers(1, 3), st.floats(-math.pi, math.pi))
def test_forward_properties_over_small_configs(cfg, scene, other, context, angle):
    params = md.init_params(cfg)
    full = md.build_token_batch(scene, VOCAB, cfg)
    logits = logits_of(full, params, cfg, "geometric")

    # cached: the context's rows in one call, then one row per call
    cache, start = {}, 0
    for stop in range(min(context, scene.horizon), scene.horizon + 1):
        rows = batch_rows(md.build_token_batch(scene, VOCAB, cfg, t_end=stop, with_targets=False), start)
        cached = np.asarray(md.forward(rows, params, cfg, cache=cache))
        assert np.max(np.abs(cached - logits[:, start:stop])) <= 1e-12
        start = stop

    # packed with another scene: each scene's valid rows keep their logits, for every variant
    t_end = max(scene.horizon, other.horizon)
    solo = [md.build_token_batch(s, VOCAB, cfg) for s in (scene, other)]
    packed = md.pack_scenes([md.build_token_batch(s, VOCAB, cfg, t_end=t_end) for s in (scene, other)])
    for variant in ("geometric", "rpe", "vanilla"):
        p = params if variant == "geometric" else md.init_params(cfg, variant)
        together = logits_of(packed, p, cfg, variant)
        for g, b in enumerate(solo):
            own = together[g, :b.num_agents, :b.num_steps]
            assert np.max(np.abs(own - logits_of(b, p, cfg, variant))[b.valid], initial=0.0) <= 1e-12, variant

    # f64 end-to-end invariance
    g = (150.0 * math.cos(angle), -80.0 * math.sin(3.0 * angle), angle)
    moved = logits_of(md.build_token_batch(sc.transform_scene(scene, g), VOCAB, cfg), params, cfg, "geometric")
    assert np.max(np.abs(moved - logits)) <= 1e-8 * max(1.0, float(np.max(np.abs(logits))))
