"""Convoy value type and maximality (antichain) maintenance.

A convoy is an object set plus a closed integer time interval
``[ts, te]``.  ``v`` is a *sub-convoy* of ``w`` iff ``O(v) ⊆ O(w)`` and
``T(v) ⊆ T(w)`` (Definition 5); a set of convoys is kept *maximal* by
dropping strict sub-convoys (Definitions 6/7) — the paper's ``update()``
helper, implemented here as :func:`update` / :func:`antichain`.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering
from typing import Iterable


@total_ordering
@dataclass(frozen=True)
class Convoy:
    """An (object set, lifespan) pair. Immutable, hashable, totally ordered."""

    ts: int
    te: int
    objs: frozenset[int]

    def __post_init__(self) -> None:
        if self.ts > self.te:
            raise ValueError(f"empty lifespan [{self.ts}, {self.te}]")

    def __lt__(self, other: "Convoy") -> bool:
        # By lifespan, then by sorted members: frozenset's own < is the
        # partial subset order, which would leave sorted() lists of
        # convoys in input order.
        return (self.ts, self.te, sorted(self.objs)) < (
            other.ts, other.te, sorted(other.objs)
        )

    @property
    def length(self) -> int:
        """Number of timestamps in the lifespan (te - ts + 1)."""
        return self.te - self.ts + 1

    def is_sub_convoy(self, other: "Convoy") -> bool:
        """True iff self is a (possibly equal) sub-convoy of ``other``."""
        return (
            other.ts <= self.ts
            and self.te <= other.te
            and self.objs <= other.objs
        )

    def __repr__(self) -> str:  # compact, stable for test diffs
        objs = ",".join(str(o) for o in sorted(self.objs))
        return f"Convoy({{{objs}}}, [{self.ts},{self.te}])"


def convoy(objs: Iterable[int], ts: int, te: int) -> Convoy:
    """Convenience constructor used throughout tests."""
    return Convoy(ts=ts, te=te, objs=frozenset(objs))


def update(result: set[Convoy], new: Convoy) -> None:
    """Insert ``new`` into ``result`` keeping it an antichain.

    ``new`` is dropped if it is a sub-convoy of an existing convoy;
    otherwise existing sub-convoys of ``new`` are evicted first. This is
    the paper's ``update()`` (Section 4.5).
    """
    for v in result:
        if new.is_sub_convoy(v):
            return
    result.difference_update([v for v in result if v.is_sub_convoy(new)])
    result.add(new)


def antichain(convoys: Iterable[Convoy]) -> set[Convoy]:
    """Maximal elements of ``convoys`` under the sub-convoy order."""
    out: set[Convoy] = set()
    # Largest first so most insertions are dominance checks, not evictions.
    for v in sorted(set(convoys), key=lambda c: (len(c.objs), c.length), reverse=True):
        update(out, v)
    return out
