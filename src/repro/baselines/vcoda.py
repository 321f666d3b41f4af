"""VCoDA / VCoDA* — fully-connected convoy discovery via full clustering.

VCoDA (Yoon & Shahabi [25]) first mines all maximal partially-connected
convoys (PCCD) and then validates them down to fully connected convoys
(DCVal). The paper proposes a correction to DCVal; we implement the
corrected semantics directly as the recursive restricted re-mining of
Algorithm 4 — identical to k/2-hop's validation phase — so both
algorithms provably target the same output, and our tests assert they
produce it.

``VCoDA`` = naive O(n²)-DBSCAN clustering (the paper's baseline cost);
``VCoDA*`` = grid-indexed DBSCAN (its optimized re-implementation, the
variant the paper's gain plots are normalized against).
"""
from __future__ import annotations

from repro.baselines.cmc import pccd
from repro.core.convoy import Convoy
from repro.core.validate import validate
from repro.stores.base import TrajectoryStore


def vcoda(
    store: TrajectoryStore, m: int, k: int, eps: float, *, mode: str = "naive"
) -> list[Convoy]:
    """Maximal FC convoys via full clustering + validation."""
    candidates = pccd(store, m, k, eps, mode=mode)
    return validate(store, candidates, m, k, eps)


def vcoda_star(store: TrajectoryStore, m: int, k: int, eps: float) -> list[Convoy]:
    """VCoDA with grid-indexed clustering (the paper's VCoDA*)."""
    return vcoda(store, m, k, eps, mode="grid")

