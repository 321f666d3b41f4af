"""Seeded synthetic trajectory generators for the k/2-hop reproduction
(paper §6.2).

The paper evaluates on Trucks (Athens concrete trucks), T-Drive (Beijing
taxis) and Brinkhoff network-generated traffic. None are shipped here, so
each is replaced by a seeded synthetic generator with the same structure
(see DESIGN.md §4): `trucks_like` (few objects, long tracks),
`tdrive_like` (many objects, irregular sampling), and `brinkhoff_like`
(a from-scratch network-based movement simulator in the spirit of
Brinkhoff's generator). All build on `convoy_scene`, which plants
ground-truth convoys among independently moving noise objects.
Generators are deterministic in ``seed`` so every store, executor and
oracle sees identical input.
"""
import numpy as np
import pandas as pd


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _waypoint_walk(
    g: np.random.Generator,
    n: int,
    n_timestamps: int,
    area: float,
    speed: np.ndarray,
) -> np.ndarray:
    """Random-waypoint trajectories → positions [T, n, 2].

    Each object heads to a uniform random target at its own speed and
    picks a new target on arrival — the standard mobility model for
    synthetic movement data.
    """
    pos = g.random((n, 2)) * area
    tgt = g.random((n, 2)) * area
    out = np.empty((n_timestamps, n, 2))
    for t in range(n_timestamps):
        out[t] = pos
        d = tgt - pos
        dist = np.hypot(d[:, 0], d[:, 1])
        arrived = dist <= speed
        if arrived.any():
            tgt[arrived] = g.random((int(arrived.sum()), 2)) * area
            d = tgt - pos
            dist = np.hypot(d[:, 0], d[:, 1])
        step = np.minimum(speed, dist) / np.maximum(dist, 1e-9)
        pos = pos + d * step[:, None]
    return out


def convoy_scene(
    *,
    n_objects: int = 60,
    n_timestamps: int = 200,
    n_convoys: int = 3,
    convoy_size: int | list[int] = 4,
    convoy_len: int = 40,
    area: float = 10_000.0,
    eps: float = 10.0,
    speed: float = 30.0,
    presence: float = 1.0,
    seed: int = 0,
):
    """Trajectory dataset with planted ground-truth convoys.

    Noise objects do independent random-waypoint walks over ``area``²;
    each planted convoy is a disjoint group of ``convoy_size`` objects
    that, for ``convoy_len`` consecutive timestamps, rides an anchor
    trajectory with per-member jitter < eps/4 (so the group is always
    one (m,eps)-cluster on its own — a fully connected convoy), and
    moves independently outside that interval. ``presence`` < 1 drops
    random points of non-convoy phases (irregular sampling à la
    T-Drive); convoy members are always present while in a convoy.

    Returns ``(df, truth)``: a (t, oid, x, y) pandas frame and the
    planted convoys as ``[(frozenset(oids), ts, te), ...]``. Mined
    maximal FC convoys must each *contain* its planted convoy (equality
    can be broken by coincidental extra togetherness, which is the point
    of the pattern).
    """
    sizes = (
        list(convoy_size)
        if isinstance(convoy_size, (list, tuple))
        else [convoy_size] * n_convoys
    )
    if len(sizes) != n_convoys:
        raise ValueError("convoy_size list must have n_convoys entries")
    if sum(sizes) > n_objects:
        raise ValueError("not enough objects for the requested convoys")
    g = _rng(seed)
    speeds = speed * (0.5 + g.random(n_objects))
    walks = _waypoint_walk(g, n_objects, n_timestamps, area, speeds)
    anchors = _waypoint_walk(
        g, max(n_convoys, 1), n_timestamps, area, np.full(max(n_convoys, 1), speed)
    )
    truth = []
    in_convoy = np.zeros((n_timestamps, n_objects), dtype=bool)
    next_oid = 0
    for ci in range(n_convoys):
        members = np.arange(next_oid, next_oid + sizes[ci])
        next_oid += sizes[ci]
        max_start = n_timestamps - convoy_len
        s = int(g.integers(0, max_start + 1))
        e = s + convoy_len - 1
        jitter = (g.random((len(members), 2)) - 0.5) * (eps / 2)  # radius ≤ eps/4·√2
        walks[s : e + 1, members] = anchors[s : e + 1, ci][:, None, :] + jitter
        in_convoy[s : e + 1, members] = True
        truth.append((frozenset(int(o) for o in members), s, e))
    present = np.ones((n_timestamps, n_objects), dtype=bool)
    if presence < 1.0:
        present = g.random((n_timestamps, n_objects)) < presence
        present |= in_convoy
    tt, oo = np.nonzero(present)
    df = pd.DataFrame(
        {
            "t": tt.astype(np.int64),
            "oid": oo.astype(np.int64),
            "x": walks[tt, oo, 0],
            "y": walks[tt, oo, 1],
        }
    )
    return df, truth


def trucks_like(*, scale: float = 0.1, n_convoys: int = 4, convoy_len: int = 60, seed: int = 7):
    """Trucks-dataset stand-in: few objects, long tracks, rare convoys.

    Paper's Trucks: 276 day-trajectories of 50 trucks, ~366 k points,
    30 s sampling around Athens. At ``scale=1.0`` this generator matches
    those totals (276 objects × ~1327 timestamps); the default
    ``scale=0.1`` shrinks both axes by √scale.
    """
    f = np.sqrt(scale)
    return convoy_scene(
        n_objects=max(12, int(round(276 * f))),
        n_timestamps=max(60, int(round(1327 * f))),
        n_convoys=n_convoys,
        convoy_size=4,
        convoy_len=convoy_len,
        area=30_000.0,
        eps=100.0,
        speed=300.0,
        seed=seed,
    )


def tdrive_like(*, scale: float = 0.02, n_convoys: int = 6, convoy_len: int = 80, seed: int = 11):
    """T-Drive stand-in: many objects per snapshot, irregular presence.

    Paper's T-Drive: 10 357 taxis over one week of Beijing, ~29 M points
    after interpolation. ``scale=1.0`` ≈ 10 357 objects × 2800
    timestamps; default 0.02 gives ~1465 objects × 396 timestamps with
    15 % dropout — the "clustering cost dominates" regime.
    """
    f = np.sqrt(scale)
    return convoy_scene(
        n_objects=max(30, int(round(10_357 * f))),
        n_timestamps=max(80, int(round(2_800 * f))),
        n_convoys=n_convoys,
        convoy_size=5,
        convoy_len=convoy_len,
        area=40_000.0,
        eps=100.0,
        speed=400.0,
        presence=0.85,
        seed=seed,
    )


# --------------------------- Brinkhoff-like network traffic ----------------


def _network_walk(
    g: np.random.Generator,
    n: int,
    n_timestamps: int,
    n_nodes_x: int,
    n_nodes_y: int,
    node_spacing: float,
    speed: np.ndarray,
    start_node: np.ndarray,
) -> np.ndarray:
    """Grid-road-network trajectories → positions [T, n, 2].

    Objects travel between random grid intersections along Manhattan
    shortest paths (x-leg then y-leg), at per-object speed — the
    defining stressor of Brinkhoff's generator: many objects funneled
    onto shared roads, coincidentally near without forming convoys.
    """
    def node_xy(node: np.ndarray) -> np.ndarray:
        return np.column_stack([node[:, 0], node[:, 1]]).astype(float) * node_spacing

    pos = node_xy(start_node)
    dest = np.column_stack(
        [g.integers(0, n_nodes_x + 1, n), g.integers(0, n_nodes_y + 1, n)]
    )
    out = np.empty((n_timestamps, n, 2))
    for t in range(n_timestamps):
        out[t] = pos
        dxy = node_xy(dest)
        arrived = np.hypot(*(dxy - pos).T) < 1e-9
        if arrived.any():
            na = int(arrived.sum())
            dest[arrived] = np.column_stack(
                [g.integers(0, n_nodes_x + 1, na), g.integers(0, n_nodes_y + 1, na)]
            )
            dxy = node_xy(dest)
        # Manhattan routing: close the x gap first, then the y gap.
        budget = speed.copy()
        dx = dxy[:, 0] - pos[:, 0]
        step_x = np.clip(dx, -budget, budget)
        pos[:, 0] += step_x
        budget -= np.abs(step_x)
        dy = dxy[:, 1] - pos[:, 1]
        step_y = np.clip(dy, -budget, budget)
        pos[:, 1] += step_y
    return out


def brinkhoff_like(
    *,
    scale: float = 0.01,
    n_convoys: int = 5,
    convoy_size: int = 4,
    convoy_len: int = 50,
    seed: int = 13,
):
    """Brinkhoff-generator stand-in: network-based moving objects.

    Reproduces the structure of the paper's Table 4 configuration at a
    reduced scale: a grid road network over a 23572 × 26915 data space,
    ``obj_begin`` objects at t=0 plus ``obj_per_time`` new objects per
    timestamp, each living ~49 timestamps (the paper's 122 M points /
    2.505 M objects). ``scale`` multiplies MaxTime and the object
    counts; the data space is kept at paper size.

    Returns ``(df, truth, properties)`` where ``properties`` mirrors
    Table 4's rows for *this* generated dataset.
    """
    g = _rng(seed)
    width, height = 23_572.0, 26_915.0
    node_spacing = 500.0
    nx, ny = int(width // node_spacing), int(height // node_spacing)
    n_nodes = (nx + 1) * (ny + 1)
    n_edges = nx * (ny + 1) + ny * (nx + 1)
    max_time = max(120, int(round(25_000 * scale)))
    obj_begin = max(20, int(round(5_000 * np.sqrt(scale))))
    # Objects appear over time with geometric lifetimes averaging ~49
    # timestamps, matching the paper's points/object ratio.
    lifetime_mean = 49
    n_total = obj_begin + int(round(100 * np.sqrt(scale))) * max_time // 10
    births = np.concatenate(
        [
            np.zeros(obj_begin, dtype=np.int64),
            g.integers(0, max_time, n_total - obj_begin),
        ]
    )
    lifetimes = np.maximum(8, g.geometric(1.0 / lifetime_mean, n_total))
    deaths = np.minimum(births + lifetimes, max_time)
    speeds = node_spacing / 10 * (0.5 + g.random(n_total))
    start_nodes = np.column_stack(
        [g.integers(0, nx + 1, n_total), g.integers(0, ny + 1, n_total)]
    )
    walks = _network_walk(g, n_total, max_time, nx, ny, node_spacing, speeds, start_nodes)

    # Plant convoys: groups that share birth, route seed and speed; the
    # group rides member 0's network trajectory with small jitter.
    truth = []
    eps_ref = 100.0
    candidates = [i for i in range(n_total) if deaths[i] - births[i] >= convoy_len]
    g.shuffle(candidates)
    used = 0
    for ci in range(n_convoys):
        if used + convoy_size > len(candidates):
            break
        members = np.array(candidates[used : used + convoy_size])
        used += convoy_size
        anchor = members[0]
        s = int(births[anchor])
        e = min(int(deaths[anchor]), s + convoy_len) - 1
        births[members], deaths[members] = s, e + 1
        jitter = (g.random((convoy_size, 2)) - 0.5) * (eps_ref / 2)
        walks[s : e + 1, members] = walks[s : e + 1, anchor][:, None, :] + jitter
        truth.append((frozenset(int(o) for o in members), s, e))

    alive = (np.arange(max_time)[:, None] >= births[None, :]) & (
        np.arange(max_time)[:, None] < deaths[None, :]
    )
    tt, oo = np.nonzero(alive)
    df = pd.DataFrame(
        {
            "t": tt.astype(np.int64),
            "oid": oo.astype(np.int64),
            "x": walks[tt, oo, 0],
            "y": walks[tt, oo, 1],
        }
    )
    properties = {
        "MaxTime": max_time,
        "ObjBegin": obj_begin,
        "data_space_width": width,
        "data_space_height": height,
        "number_of_nodes": n_nodes,
        "number_of_edges": n_edges,
        "moving_objects": n_total,
        "points": len(df),
    }
    return df, truth, properties
