"""The three workloads: what one op is, its inputs, and its correctness gates.

Each workload builds all of its inputs from the run's seed through
`scene.generate_synthetic_scene`, and calls only the library's public entry
points.  `setup()` may run several times; each run rebuilds the same inputs.
"""

import math

import numpy as np

from bootstrap import OUT
from eqtraffic import harness, model, scene

CORPUS_SCENES = 32          # default scenes behind the vocab; also the train/rollout pools
VOCAB_CAP = 64
VOCAB_K_R = 0.003
CROWD = scene.GeneratorConfig(n_agents=32, n_lanes=6)   # A=32, M=96, T=26
CROWD_SCENES = 8

TRAIN_STEPS = 4
TRAIN_SCENES = 4
SCENES_PER_STEP = 2
INIT_LOSS_TOL = 0.2

HORIZON = 16
CONTEXT = 10
N_ROLLOUTS = 2


class Workload:
    """Shared set-up: a default-scene corpus and its capped k-disk vocab."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> np.random.Generator:
        """Builds the corpus and vocab; returns the seed's generator for further inputs."""
        rng = np.random.default_rng(self.seed)
        corpus_seeds = rng.integers(0, 2**31, size=CORPUS_SCENES)
        vocab_seed, self.init_seed, self.op_seed_base = (int(v) for v in rng.integers(0, 2**30, size=3))
        gen = scene.GeneratorConfig()
        self.corpus = [scene.generate_synthetic_scene(gen, int(s)) for s in corpus_seeds]
        self.vocab = scene.build_kdisk_vocab(
            scene.collect_transitions(self.corpus), k_r=VOCAB_K_R, seed=vocab_seed, cap=VOCAB_CAP
        )
        self.vocab_sizes = {c: self.vocab.size(c) for c in scene.AGENT_CLASSES}
        return rng

    def op_seed(self, i: int) -> int:
        return self.op_seed_base + i

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, result) -> str | None:
        """Failure message for one op's result, or None."""
        raise NotImplementedError

    def tokens(self, i: int) -> int:
        raise NotImplementedError

    def final_checks(self) -> list:
        """(name, failure message or None) for the once-per-run gates, run untimed."""
        return []


class Train(Workload):
    """`model.train` on 4 default scenes, 4 steps, fresh f32 init each op."""

    name = "train"

    def setup(self) -> None:
        super().setup()
        self.cfg = model.ModelConfig(vocab_sizes=self.vocab_sizes, dtype="f32", seed=self.init_seed)
        # valid target positions per scene: consecutive observed states
        self.targets = [
            sum(b.t == a.t + 1 for ag in s.agents for a, b in zip(ag.states, ag.states[1:]))
            for s in self.corpus
        ]
        self._first_curve = None

    def _scene_ids(self, i: int) -> list:
        return [(TRAIN_SCENES * i + j) % len(self.corpus) for j in range(TRAIN_SCENES)]

    def op(self, i: int):
        scenes = [self.corpus[k] for k in self._scene_ids(i)]
        _params, curve = model.train(scenes, self.vocab, self.cfg, steps=TRAIN_STEPS,
                                     seed=self.op_seed(i), scenes_per_step=SCENES_PER_STEP)
        return curve

    def check(self, i: int, curve) -> str | None:
        if self._first_curve is None:
            self._first_curve = (i, curve)
        losses = [row[2] for row in curve]
        if not all(math.isfinite(v) for v in losses):
            return f"non-finite loss in {losses}"
        if abs(losses[0] - math.log(VOCAB_CAP)) > INIT_LOSS_TOL:
            return f"first-step loss {losses[0]} is not within {INIT_LOSS_TOL} of ln {VOCAB_CAP}"
        return None

    def tokens(self, i: int) -> int:
        ids = self._scene_ids(i)
        return round(TRAIN_STEPS * SCENES_PER_STEP * sum(self.targets[k] for k in ids) / len(ids))

    def final_checks(self) -> list:
        i, curve = self._first_curve
        again = self.op(i)
        ok = again == curve
        return [("train_repeat_same_seed", None if ok else f"op {i} curve differs on repeat: {curve} vs {again}")]


class Rollout(Workload):
    """`harness.rollout`, sampled, 2 samples of horizon 16 from 10 context steps."""

    name = "rollout"

    def setup(self) -> None:
        super().setup()
        cfg = model.ModelConfig(vocab_sizes=self.vocab_sizes, dtype="f32", seed=self.init_seed)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"rollout_seed{self.seed}.ckpt"
        try:
            model.save_checkpoint(path, model.init_params(cfg), cfg, self.vocab)
            self.params, self.cfg, _manifest = model.load_checkpoint(path)
        finally:
            path.unlink(missing_ok=True)

    def _scene(self, i: int):
        return self.corpus[i % len(self.corpus)]

    def op(self, i: int):
        return harness.rollout(self.params, self.cfg, self._scene(i), self.vocab, HORIZON,
                               mode="sampled", n_rollouts=N_ROLLOUTS, seed=self.op_seed(i),
                               context=CONTEXT)

    def check(self, i: int, rollouts) -> str | None:
        agents = self._scene(i).agents
        for r, ro in enumerate(rollouts):
            for agent, toks in zip(agents, ro.tokens):
                size = self.vocab.size(agent.agent_class)
                if toks.min() < 0 or toks.max() >= size:
                    return f"sample {r}: agent {agent.id} token outside [0, {size}): {toks.tolist()}"
            if not (np.all(np.isfinite(ro.poses)) and np.all(np.isfinite(ro.speeds))):
                return f"sample {r}: non-finite pose or speed"
        return None

    def tokens(self, i: int) -> int:
        return len(self._scene(i).agents) * HORIZON * N_ROLLOUTS

    def final_checks(self) -> list:
        """Greedy-rollout oracle: every token is the argmax of a fresh full forward.

        The forward sees `build_token_batch` of the rolled-out scene cut at
        the step's time, which is all a correct decoder may condition on.
        """
        sc0 = self._scene(0)
        ro = harness.rollout(self.params, self.cfg, sc0, self.vocab, HORIZON, mode="greedy",
                             context=CONTEXT)[0]
        rolled = harness.rollout_to_scene(ro, harness.truncate_scene(sc0, CONTEXT))
        for step in range(HORIZON):
            tb = model.build_token_batch(rolled, self.vocab, self.cfg, t_end=CONTEXT + step,
                                         with_targets=False)
            logits = np.asarray(model.forward(tb, self.params, self.cfg))[:, -1]
            expect = np.argmax(logits, axis=-1)
            if not np.array_equal(expect, ro.tokens[:, step]):
                return [("rollout_greedy_oracle",
                         f"step {step}: tokens {ro.tokens[:, step].tolist()} != argmax {expect.tolist()}")]
        return [("rollout_greedy_oracle", None)]


class AuditCrowd(Workload):
    """`harness.equivariance_audit` under the reference transform on A=32 f64 scenes."""

    name = "audit_crowd"

    def setup(self) -> None:
        rng = super().setup()
        self.cfg = model.ModelConfig(vocab_sizes=self.vocab_sizes, dtype="f64", seed=self.init_seed)
        self.params = model.init_params(self.cfg)
        self.crowd = [scene.generate_synthetic_scene(CROWD, int(s))
                      for s in rng.integers(0, 2**31, size=CROWD_SCENES)]

    def _scene(self, i: int):
        return self.crowd[i % len(self.crowd)]

    def op(self, i: int):
        return harness.equivariance_audit(self.params, self.cfg, self.vocab, [self._scene(i)],
                                          n_transforms=0, include_layers=False)

    def check(self, i: int, report) -> str | None:
        return None if report.passed() else f"audit failed: {report.to_json()}"

    def tokens(self, i: int) -> int:
        s = self._scene(i)
        return 2 * len(s.agents) * s.horizon  # base and transformed forward


WORKLOADS = {w.name: w for w in (Train, Rollout, AuditCrowd)}
