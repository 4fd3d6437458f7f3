"""Very-cost-effective bipartition checking.

A vertex is very cost effective when it has strictly more neighbors in the
other side than in its own; a bipartition is very cost effective when every
vertex of both sides is. An isolated vertex can never be (0 < 0 fails), so
it blocks the whole partition.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from .errors import PartitionError
from .graphs import LabeledGraph


class Verdict(Enum):
    VERY_COST_EFFECTIVE = "VeryCostEffective"
    COST_EFFECTIVE_ONLY = "CostEffectiveOnly"
    NOT_COST_EFFECTIVE = "NotCostEffective"


class Bipartition:
    """Two-coloring of vertex ids into sides R and B; both sides nonempty."""

    __slots__ = ("graph_size", "in_b")

    def __init__(self, in_b):
        mask = np.array(in_b, dtype=bool)
        if mask.ndim != 1:
            raise PartitionError("side mask must be one-dimensional")
        if mask.size < 2:
            raise PartitionError("a bipartition needs at least two vertices")
        if mask.all() or not mask.any():
            raise PartitionError("both sides of a bipartition must be nonempty")
        mask.setflags(write=False)
        self.in_b = mask
        self.graph_size = int(mask.size)

    @classmethod
    def from_sides(cls, graph_size: int, r_ids: Iterable[int], b_ids: Iterable[int]) -> "Bipartition":
        r = np.asarray(list(r_ids), dtype=np.int64)
        b = np.asarray(list(b_ids), dtype=np.int64)
        ids = np.concatenate([r, b])
        if ids.size != graph_size:
            raise PartitionError(
                f"sides list {ids.size} vertices but the graph has {graph_size}")
        if ids.size and (ids.min() < 0 or ids.max() >= graph_size):
            raise PartitionError("vertex id out of range")
        if np.unique(ids).size != ids.size:
            raise PartitionError("a vertex appears on more than one side or twice")
        mask = np.zeros(graph_size, dtype=bool)
        mask[b] = True
        return cls(mask)

    @property
    def r_ids(self) -> np.ndarray:
        return np.flatnonzero(~self.in_b)

    @property
    def b_ids(self) -> np.ndarray:
        return np.flatnonzero(self.in_b)

    def side_of(self, v: int) -> str:
        return "B" if self.in_b[v] else "R"

    def swapped(self) -> "Bipartition":
        return Bipartition(~self.in_b)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Bipartition):
            return NotImplemented
        return self.graph_size == other.graph_size and bool((self.in_b == other.in_b).all())

    __hash__ = None

    def __repr__(self) -> str:
        return f"Bipartition(|R|={self.graph_size - int(self.in_b.sum())}, |B|={int(self.in_b.sum())})"


# a vertex's verdict by the sign of inside - outside, plus one; best first
_BY_SIGN = (Verdict.VERY_COST_EFFECTIVE, Verdict.COST_EFFECTIVE_ONLY, Verdict.NOT_COST_EFFECTIVE)
_TEXT_BY_SIGN = tuple(v.value for v in _BY_SIGN)


@dataclass(frozen=True, eq=False)
class VceReport:
    """Neighbour counts for every vertex plus the partition's verdict.

    `inside` and `outside` are read-only int arrays by vertex id: the
    vertex's neighbours on its own side and on the other. The partition
    takes its worst vertex's verdict. `witnesses` lists the vertices that are
    not very cost effective, ascending by id; empty exactly when the verdict
    is VeryCostEffective.
    """

    inside: np.ndarray
    outside: np.ndarray
    partition_verdict: Verdict
    witnesses: tuple[int, ...]

    def _signs(self) -> list[int]:
        return (np.sign(self.inside - self.outside) + 1).tolist()

    def vertex_verdicts(self) -> list[Verdict]:
        """Each vertex's verdict, by id."""
        return list(map(_BY_SIGN.__getitem__, self._signs()))

    def verdict_texts(self) -> list[str]:
        """Each vertex's verdict as its `Verdict.value` text, by id."""
        return list(map(_TEXT_BY_SIGN.__getitem__, self._signs()))


def _validate(g: LabeledGraph, part: Bipartition) -> None:
    if part.graph_size != g.n_vertices:
        raise PartitionError(
            f"partition covers {part.graph_size} vertices but the graph has {g.n_vertices}")


def _inside_counts(g: LabeledGraph, part: Bipartition) -> tuple[np.ndarray, np.ndarray]:
    # the one counting function behind is_vce and check_bipartition: side B
    # counted by the graph, side R as the degree less B, in no |V|^2 temporary
    nb_b = g.degrees_in(part.in_b)
    nb_r = g.degrees() - nb_b
    return np.where(part.in_b, nb_b, nb_r), np.where(part.in_b, nb_r, nb_b)


def check_bipartition(g: LabeledGraph, part: Bipartition) -> VceReport:
    """Full per-vertex report; deterministic, no short-circuiting."""
    _validate(g, part)
    inside, outside = _inside_counts(g, part)
    inside.setflags(write=False)
    outside.setflags(write=False)
    verdict = _BY_SIGN[int(np.sign(inside - outside).max()) + 1]
    witnesses = tuple(np.flatnonzero(inside >= outside).tolist())
    return VceReport(inside, outside, verdict, witnesses)


def is_vce(g: LabeledGraph, part: Bipartition) -> bool:
    """Boolean fast path; agrees with check_bipartition by construction."""
    _validate(g, part)
    inside, outside = _inside_counts(g, part)
    return bool((inside < outside).all())
