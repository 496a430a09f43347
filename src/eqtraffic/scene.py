"""Scene data model, its state arrays, algebra encodings, action vocabulary, and dynamics.

A scene is a set of agents (pose histories on a shared step grid) plus static
map nodes; `agent_states` reads the histories into arrays.  Actions are local
SE(2) pose increments per step, discretized against a per-class vocabulary
built with a greedy disk-packing pass over observed transitions.
"""

import json
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .pga import COMPONENTS, Pose2, compose_poses, pose_deltas, wrap_angles

AGENT_CLASSES = ("vehicle", "pedestrian", "cyclist")
BOUNDARY_TYPES = ("none", "dashed", "solid", "curb")

AGENT_FEATURE_WIDTH = 3 + len(AGENT_CLASSES)          # speed, length, width, class one-hot
MAP_FEATURE_WIDTH = 4 + 2 * len(BOUNDARY_TYPES)       # length, width, curvature, speed_limit, boundaries


class SceneParseError(ValueError):
    """Malformed scene or vocab JSON; message carries the offending path."""


@dataclass(frozen=True)
class AgentState:
    t: int
    pose: Pose2
    speed: float

    def __post_init__(self):
        if self.speed < 0.0:
            raise ValueError(f"speed must be >= 0, got {self.speed}")


@dataclass(frozen=True)
class Agent:
    id: int
    agent_class: str
    length: float
    width: float
    states: tuple

    def __post_init__(self):
        if self.agent_class not in AGENT_CLASSES:
            raise ValueError(f"unknown agent class '{self.agent_class}'")
        if self.length <= 0 or self.width <= 0:
            raise ValueError("agent length and width must be positive")
        steps = [s.t for s in self.states]
        if any(b <= a for a, b in zip(steps, steps[1:])):
            raise ValueError(f"agent {self.id} states must be strictly increasing in t")
        object.__setattr__(self, "states", tuple(self.states))


@dataclass(frozen=True)
class MapNode:
    pose: Pose2
    length: float
    width: float
    curvature: float
    speed_limit: float
    boundary_left: str
    boundary_right: str

    def __post_init__(self):
        if self.length <= 0:
            raise ValueError("map node length must be positive")
        if self.speed_limit < 0:
            raise ValueError("speed limit must be >= 0")
        for side in (self.boundary_left, self.boundary_right):
            if side not in BOUNDARY_TYPES:
                raise ValueError(f"unknown boundary type '{side}'")


@dataclass(frozen=True)
class Scene:
    agents: tuple
    map_nodes: tuple
    ego_id: int
    horizon: int
    dt: float

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(self.agents))
        object.__setattr__(self, "map_nodes", tuple(self.map_nodes))
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.ego() is None:
            raise ValueError(f"ego id {self.ego_id} not among agents")
        for a in self.agents:
            if a.states and not 0 <= a.states[0].t <= a.states[-1].t < self.horizon:
                raise ValueError(f"agent {a.id} has a state outside [0, {self.horizon})")

    def ego(self):
        for a in self.agents:
            if a.id == self.ego_id:
                return a
        return None


@dataclass
class AgentStates:
    """Agent histories on the step grid as arrays, with optional leading axes (rollout samples);
    poses and speeds are zero where `valid` is False."""

    poses: np.ndarray      # [..., A, T, 3] global (x, y, theta)
    speeds: np.ndarray     # [..., A, T]
    valid: np.ndarray      # [..., A, T] bool
    class_idx: np.ndarray  # [..., A] int
    length: np.ndarray     # [..., A]
    width: np.ndarray      # [..., A]

    def steps(self, start: int, stop: int) -> "AgentStates":
        """Steps start <= t < stop, as views."""
        return AgentStates(self.poses[..., start:stop, :], self.speeds[..., start:stop],
                           self.valid[..., start:stop], self.class_idx, self.length, self.width)


def agent_states(scene: Scene, n_steps: int) -> AgentStates:
    """The one pass from scene objects to arrays: the agents' states with t < n_steps."""
    agents = scene.agents
    poses = np.zeros((len(agents), n_steps, 3))
    speeds = np.zeros((len(agents), n_steps))
    valid = np.zeros((len(agents), n_steps), dtype=bool)
    for a, agent in enumerate(agents):
        kept = [s for s in agent.states if s.t < n_steps]
        ts = [s.t for s in kept]
        poses[a, ts] = np.array([(s.pose.x, s.pose.y, s.pose.theta) for s in kept]).reshape(-1, 3)
        speeds[a, ts] = [s.speed for s in kept]
        valid[a, ts] = True
    return AgentStates(
        poses, speeds, valid,
        class_idx=np.array([AGENT_CLASSES.index(a.agent_class) for a in agents], dtype=np.int64),
        length=np.array([a.length for a in agents], dtype=np.float64),
        width=np.array([a.width for a in agents], dtype=np.float64),
    )


# ---------------------------------------------------------------------------
# encodings
# ---------------------------------------------------------------------------

def encode_pose_array(poses: np.ndarray) -> np.ndarray:
    """Poses [..., 3] (x, y, theta) as multivectors [..., 8].

    Bivectors carry the point, vectors the unit-normal line through (x, y)
    along direction theta: -sin(theta) x + cos(theta) y + (x sin(theta) - y cos(theta)) = 0.
    """
    poses = np.asarray(poses, dtype=np.float64)
    x, y, theta = poses[..., 0], poses[..., 1], poses[..., 2]
    sin, cos = np.sin(theta), np.cos(theta)
    out = np.zeros(poses.shape[:-1] + (COMPONENTS,))
    out[..., 2] = -sin                 # e1: line normal a
    out[..., 3] = cos                  # e2: line normal b
    out[..., 1] = x * sin - y * cos    # e0: line offset c
    out[..., 5] = x                    # e20: point x
    out[..., 4] = y                    # e01: point y
    out[..., 6] = 1.0                  # e12: point weight
    return out


def encode_map_scalars(node: MapNode) -> np.ndarray:
    out = np.zeros(MAP_FEATURE_WIDTH)
    out[0] = node.length
    out[1] = node.width
    out[2] = node.curvature
    out[3] = node.speed_limit
    out[4 + BOUNDARY_TYPES.index(node.boundary_left)] = 1.0
    out[8 + BOUNDARY_TYPES.index(node.boundary_right)] = 1.0
    return out


# ---------------------------------------------------------------------------
# action vocabulary (greedy disk packing over observed transitions)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ActionVocab:
    deltas: dict          # class -> [V, 3] array of (dx, dy, dtheta)
    k_r: float
    w_theta: float
    seed: int
    source_counts: dict = field(default_factory=dict)

    def __post_init__(self):
        for cls, arr in self.deltas.items():
            if cls not in AGENT_CLASSES:
                raise ValueError(f"unknown class '{cls}' in vocab")
            a = np.asarray(arr, dtype=np.float64)
            if a.ndim != 2 or a.shape[1] != 3 or a.shape[0] == 0:
                raise ValueError(f"vocab for '{cls}' must be a nonempty [V, 3] array")
            a = a.copy()
            a.flags.writeable = False
            self.deltas[cls] = a

    def size(self, agent_class: str) -> int:
        return self.deltas[agent_class].shape[0]


def action_distance(a: np.ndarray, b: np.ndarray, w_theta: float) -> np.ndarray:
    """Tokenization metric: sqrt(dx^2 + dy^2 + (w_theta * wrap(dtheta))^2)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    dxy = a[..., :2] - b[..., :2]
    dth = np.arctan2(
        np.sin(a[..., 2] - b[..., 2]), np.cos(a[..., 2] - b[..., 2])
    )
    return np.sqrt((dxy**2).sum(-1) + (w_theta * dth) ** 2)


def build_kdisk_vocab(
    transitions: dict,
    k_r: float,
    seed: int,
    cap: int | None = None,
    w_theta: float = 1.0,
) -> ActionVocab:
    """Greedy cover: shuffle, keep a candidate iff it is > k_r from every kept entry.

    Without a cap every source transition ends up within k_r of some kept
    entry; a binding cap trades coverage for vocabulary size.
    """
    if k_r <= 0:
        raise ValueError("k_r must be positive")
    rng = np.random.default_rng(seed)
    vocab = {}
    counts = {}
    for cls in AGENT_CLASSES:
        arr = np.asarray(transitions.get(cls, np.zeros((0, 3))), dtype=np.float64)
        if arr.size == 0:
            raise ValueError(f"no transitions for class '{cls}'")
        order = rng.permutation(arr.shape[0])
        kept: list[np.ndarray] = []
        for idx in order:
            cand = arr[idx]
            if kept:
                dists = action_distance(np.stack(kept), cand, w_theta)
                if not np.all(dists > k_r):
                    continue
            kept.append(cand)
            if cap is not None and len(kept) >= cap:
                break
        vocab[cls] = np.stack(kept)
        counts[cls] = int(arr.shape[0])
    return ActionVocab(deltas=vocab, k_r=k_r, w_theta=w_theta, seed=seed, source_counts=counts)


def nearest_action(entries: np.ndarray, deltas, w_theta: float, sizes=None) -> np.ndarray:
    """Index of the nearest of the entries [..., V, 3] to each delta [..., 3], lowest on ties;
    with `sizes` only each row's first `sizes` entries compete (a zero-padded table)."""
    dists = action_distance(entries, np.asarray(deltas, dtype=np.float64)[..., None, :], w_theta)
    if sizes is not None:
        dists = np.where(np.arange(dists.shape[-1]) < np.asarray(sizes)[..., None], dists, np.inf)
    return np.argmin(dists, axis=-1)


# ---------------------------------------------------------------------------
# dynamics and frame handling
# ---------------------------------------------------------------------------

def dynamics_step(poses, deltas, dt: float):
    """Advance poses [..., 3] by local pose increments [..., 3] over one step of dt seconds.

    Returns the new poses and speeds [...].  The increment composes in the
    agent frame, so for any motor g, f(g . pose, delta) = g . f(pose, delta)
    holds by construction.  The increment's angle is wrapped first and the
    result rounds as `Pose2.compose` does.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    deltas = np.asarray(deltas, dtype=np.float64)
    dx, dy = deltas[..., 0], deltas[..., 1]
    stepped = compose_poses(np.asarray(poses, dtype=np.float64),
                            np.stack([dx, dy, wrap_angles(deltas[..., 2])], axis=-1))
    return stepped, np.hypot(dx, dy) / dt


def collect_transitions(scenes) -> dict:
    """Local deltas between consecutive recorded steps, pooled over scenes, agents and
    time in that order and keyed by agent class, [N, 3] each."""
    pools: dict[str, list] = {cls: [] for cls in AGENT_CLASSES}
    for scene in scenes:
        states = agent_states(scene, scene.horizon)
        pair = states.valid[:, :-1] & states.valid[:, 1:]
        deltas = pose_deltas(states.poses[:, :-1], states.poses[:, 1:])
        for k, cls in enumerate(AGENT_CLASSES):
            pools[cls].append(deltas[pair & (states.class_idx == k)[:, None]])
    return {cls: np.concatenate(parts or [np.zeros((0, 3))]) for cls, parts in pools.items()}


def transform_scene(scene: Scene, g: Pose2) -> Scene:
    """Apply a rigid transform to every pose in the scene."""
    agents = tuple(
        replace(
            a,
            states=tuple(
                AgentState(s.t, g.compose(s.pose), s.speed) for s in a.states
            ),
        )
        for a in scene.agents
    )
    nodes = tuple(replace(n, pose=g.compose(n.pose)) for n in scene.map_nodes)
    return replace(scene, agents=agents, map_nodes=nodes)


# ---------------------------------------------------------------------------
# synthetic scenes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratorConfig:
    _MAX = 1e6  # bound on every field's magnitude, and on a scene's agent states and map nodes
    n_agents: int = 4
    n_lanes: int = 3
    horizon: int = 26
    dt: float = 0.1
    lane_length: float = 80.0
    seg_len: float = 5.0          # map node spacing along each lane
    curvature_max: float = 0.06
    straight_fraction: float = 0.35
    center_spread: float = 40.0
    speed_noise: float = 0.15     # per-step speed random walk, m/s
    lateral_spread: float = 0.4   # fixed per-agent offset from the centerline, m
    heading_noise: float = 0.01   # per-step heading jitter, rad

    def __post_init__(self):
        for f in fields(self):
            if not abs(getattr(self, f.name)) <= self._MAX:
                raise ValueError(f"{f.name} must be finite and at most {self._MAX:g} in magnitude")
        if self.n_agents < 1 or self.n_lanes < 1 or self.horizon < 2:
            raise ValueError("generator needs >= 1 agent, >= 1 lane, horizon >= 2")
        if self.dt <= 0 or self.seg_len <= 0 or self.lane_length <= 0:
            raise ValueError("dt, seg_len, lane_length must be positive")
        if max(self.n_agents * self.horizon, self.n_lanes * self.lane_length / self.seg_len) > self._MAX:
            raise ValueError(f"a generated scene holds at most {self._MAX:g} agent states and map nodes")


_SPEED_RANGES = {"vehicle": (3.0, 11.0), "pedestrian": (0.6, 1.8), "cyclist": (3.0, 6.5)}
_SIZES = {"vehicle": (4.6, 2.0), "pedestrian": (0.6, 0.6), "cyclist": (1.8, 0.7)}
_CLASS_MIX = (0.7, 0.15, 0.15)
_SPEED_LIMITS = (8.33, 11.11, 13.89, 16.67)


def _lane_pose(start: Pose2, curvature: float, s: float) -> Pose2:
    """Pose at arclength s along a straight or circular lane."""
    if abs(curvature) < 1e-12:
        local = Pose2(s, 0.0, 0.0)
    else:
        phi = curvature * s
        local = Pose2(math.sin(phi) / curvature, (1.0 - math.cos(phi)) / curvature, phi)
    return start.compose(local)


def generate_synthetic_scene(cfg: GeneratorConfig, seed: int) -> Scene:
    """Lane arcs plus agents that follow them with mild, bounded noise."""
    rng = np.random.default_rng(seed)

    lanes = []
    nodes = []
    for _ in range(cfg.n_lanes):
        start = Pose2(
            rng.uniform(-cfg.center_spread, cfg.center_spread),
            rng.uniform(-cfg.center_spread, cfg.center_spread),
            rng.uniform(-math.pi, math.pi),
        )
        if rng.uniform() < cfg.straight_fraction:
            curvature = 0.0
        else:
            curvature = rng.uniform(-cfg.curvature_max, cfg.curvature_max)
        limit = float(rng.choice(_SPEED_LIMITS))
        left, right = rng.choice(BOUNDARY_TYPES), rng.choice(BOUNDARY_TYPES)
        lanes.append((start, curvature, limit))
        n_nodes = max(1, int(cfg.lane_length / cfg.seg_len))
        for k in range(n_nodes):
            s = (k + 0.5) * cfg.seg_len
            nodes.append(
                MapNode(
                    pose=_lane_pose(start, curvature, s),
                    length=cfg.seg_len,
                    width=3.5,
                    curvature=curvature,
                    speed_limit=limit,
                    boundary_left=str(left),
                    boundary_right=str(right),
                )
            )

    agents = []
    for agent_id in range(cfg.n_agents):
        start, curvature, limit = lanes[int(rng.integers(cfg.n_lanes))]
        agent_class = AGENT_CLASSES[int(rng.choice(len(AGENT_CLASSES), p=_CLASS_MIX))]
        lo, hi = _SPEED_RANGES[agent_class]
        target = rng.uniform(lo, min(hi, limit))
        length, width = _SIZES[agent_class]
        offset = rng.uniform(-cfg.lateral_spread, cfg.lateral_spread) if cfg.lateral_spread > 0 else 0.0
        s0 = rng.uniform(0.0, cfg.lane_length * 0.3)

        s_vals = [s0]
        v = target
        speeds = [v]
        for _ in range(cfg.horizon - 1):
            if cfg.speed_noise > 0:
                v = float(np.clip(v + rng.normal(0.0, cfg.speed_noise), 0.3, hi))
            s_vals.append(s_vals[-1] + v * cfg.dt)
            speeds.append(v)

        states = []
        prev_xy = None
        for t in range(cfg.horizon):
            center = _lane_pose(start, curvature, s_vals[t])
            jitter = rng.normal(0.0, cfg.heading_noise) if cfg.heading_noise > 0 else 0.0
            pose = center.compose(Pose2(0.0, offset, jitter))
            if prev_xy is None:
                speed = speeds[0]
            else:
                speed = math.hypot(pose.x - prev_xy[0], pose.y - prev_xy[1]) / cfg.dt
            prev_xy = (pose.x, pose.y)
            states.append(AgentState(t=t, pose=pose, speed=speed))
        agents.append(
            Agent(id=agent_id, agent_class=agent_class, length=length, width=width, states=tuple(states))
        )

    return Scene(
        agents=tuple(agents),
        map_nodes=tuple(nodes),
        ego_id=0,
        horizon=cfg.horizon,
        dt=cfg.dt,
    )


# ---------------------------------------------------------------------------
# serialization (strict JSON schema)
# ---------------------------------------------------------------------------

def _require(obj, keys, path: str, optional=()):
    if not isinstance(obj, dict):
        raise SceneParseError(f"{path}: expected an object, got {type(obj).__name__}")
    for key in keys:
        if key not in obj:
            raise SceneParseError(f"{path}: missing field '{key}'")
    for key in obj:
        if key not in keys and key not in optional:
            raise SceneParseError(f"{path}: unknown field '{key}'")


# bound on every number of a scene or vocab file: UTM-sized coordinates fit, and pose
# differences and their squares stay far from overflow (1e308 and -1e308 gave -inf deltas)
_NUMBER_MAX = 1e9
# bound on a vocab delta's components: two in-range states differ by at most 2√2·_NUMBER_MAX
_DELTA_MAX = 3 * _NUMBER_MAX


def _number(obj: dict, key: str, path: str, bound: float = _NUMBER_MAX) -> float:
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= bound:
        raise SceneParseError(f"{path}.{key}: expected a finite number of magnitude at most "
                              f"{bound:g}, got {value!r:.40}")
    return float(value)


def _integer(obj: dict, key: str, path: str, low: int | None = None,
             high: int | None = None) -> int:
    """An integer in [low, high); JSON floats such as 1.7 or 2.0 are rejected."""
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise SceneParseError(f"{path}.{key}: expected an integer, got {value!r}")
    if not -2**63 <= value < 2**63:
        raise SceneParseError(f"{path}.{key}: {value!r} outside the 64-bit integer range")
    if (low is not None and value < low) or (high is not None and value >= high):
        raise SceneParseError(f"{path}.{key}: {value} outside [{low}, {high})")
    return value


def _list(obj: dict, key: str, path: str) -> list:
    if not isinstance(obj[key], list):
        raise SceneParseError(f"{path}.{key}: expected an array")
    return obj[key]


def scene_to_json(scene: Scene) -> str:
    doc = {
        "dt": scene.dt,
        "horizon": scene.horizon,
        "ego_id": scene.ego_id,
        "agents": [
            {
                "id": a.id,
                "class": a.agent_class,
                "length": a.length,
                "width": a.width,
                "states": [
                    {"t": s.t, "x": s.pose.x, "y": s.pose.y, "theta": s.pose.theta, "speed": s.speed}
                    for s in a.states
                ],
            }
            for a in scene.agents
        ],
        "map": [
            {
                "x": n.pose.x,
                "y": n.pose.y,
                "theta": n.pose.theta,
                "length": n.length,
                "width": n.width,
                "curvature": n.curvature,
                "speed_limit": n.speed_limit,
                "boundary_left": n.boundary_left,
                "boundary_right": n.boundary_right,
            }
            for n in scene.map_nodes
        ],
    }
    return json.dumps(doc, indent=1)


def scene_from_json(text) -> Scene:
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SceneParseError(f"$: invalid JSON ({exc})") from exc
    _require(doc, ("dt", "horizon", "ego_id", "agents", "map"), "$", optional=("meta",))
    horizon = _integer(doc, "horizon", "$", low=1)

    agents, seen_ids = [], set()
    for i, a in enumerate(_list(doc, "agents", "$")):
        path = f"$.agents[{i}]"
        _require(a, ("id", "class", "length", "width", "states"), path)
        agent_id = _integer(a, "id", path)
        if agent_id in seen_ids:
            raise SceneParseError(f"{path}.id: duplicate agent id {agent_id}")
        seen_ids.add(agent_id)
        states = []
        for j, s in enumerate(_list(a, "states", path)):
            spath = f"{path}.states[{j}]"
            _require(s, ("t", "x", "y", "theta", "speed"), spath)
            t = _integer(s, "t", spath, low=0, high=horizon)
            pose = Pose2(*(_number(s, key, spath) for key in ("x", "y", "theta")))
            speed = _number(s, "speed", spath)
            try:
                states.append(AgentState(t=t, pose=pose, speed=speed))
            except ValueError as exc:
                raise SceneParseError(f"{spath}: {exc}") from exc
        length, width = _number(a, "length", path), _number(a, "width", path)
        try:
            agents.append(
                Agent(id=agent_id, agent_class=a["class"], length=length, width=width,
                      states=tuple(states))
            )
        except ValueError as exc:
            raise SceneParseError(f"{path}: {exc}") from exc

    nodes = []
    for i, n in enumerate(_list(doc, "map", "$")):
        path = f"$.map[{i}]"
        _require(
            n,
            ("x", "y", "theta", "length", "width", "curvature", "speed_limit",
             "boundary_left", "boundary_right"),
            path,
        )
        pose = Pose2(*(_number(n, key, path) for key in ("x", "y", "theta")))
        sizes = {key: _number(n, key, path)
                 for key in ("length", "width", "curvature", "speed_limit")}
        try:
            nodes.append(
                MapNode(pose=pose, boundary_left=n["boundary_left"],
                        boundary_right=n["boundary_right"], **sizes)
            )
        except ValueError as exc:
            raise SceneParseError(f"{path}: {exc}") from exc

    ego_id, dt = _integer(doc, "ego_id", "$"), _number(doc, "dt", "$")
    try:
        return Scene(agents=tuple(agents), map_nodes=tuple(nodes), ego_id=ego_id,
                     horizon=horizon, dt=dt)
    except ValueError as exc:
        raise SceneParseError(f"$: {exc}") from exc


def vocab_to_json(vocab: ActionVocab) -> str:
    doc = {
        "k_r": vocab.k_r,
        "w_theta": vocab.w_theta,
        "seed": vocab.seed,
        "classes": {
            cls: {
                "deltas": [list(map(float, row)) for row in vocab.deltas[cls]],
                "source_count": int(vocab.source_counts.get(cls, 0)),
            }
            for cls in vocab.deltas
        },
    }
    return json.dumps(doc, indent=1)


def vocab_from_json(text) -> ActionVocab:
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SceneParseError(f"$: invalid JSON ({exc})") from exc
    _require(doc, ("k_r", "w_theta", "seed", "classes"), "$", optional=("meta",))
    _require(doc["classes"], (), "$.classes", optional=AGENT_CLASSES)
    deltas, counts = {}, {}
    for cls, entry in doc["classes"].items():
        path = f"$.classes.{cls}"
        _require(entry, ("deltas", "source_count"), path)
        for j, row in enumerate(_list(entry, "deltas", path)):
            if not isinstance(row, list) or len(row) != 3:
                raise SceneParseError(f"{path}.deltas[{j}]: expected [dx, dy, dtheta], got {row!r}")
            for k in range(3):
                _number(row, k, f"{path}.deltas[{j}]", _DELTA_MAX)
        deltas[cls] = np.asarray(entry["deltas"], dtype=np.float64)
        counts[cls] = _integer(entry, "source_count", path, low=0)
    k_r, w_theta, seed = _number(doc, "k_r", "$"), _number(doc, "w_theta", "$"), _integer(doc, "seed", "$")
    try:
        return ActionVocab(deltas=deltas, k_r=k_r, w_theta=w_theta, seed=seed, source_counts=counts)
    except ValueError as exc:
        raise SceneParseError(f"$.classes: {exc}") from exc
