"""Vertex cover encoded as mastermind satisfiability.

Given a simple graph G and a budget n, build an instance whose solutions
correspond exactly to vertex covers of size n.  Colors: one per vertex, one
per edge, plus Y (filler that witnesses are built from) and N (a color no
solution may contain).  Guesses:

1. all N, declared (0, 0) - outlaws N everywhere;
2. (Y, Y, Y, N, ..., N), declared (3, 0) - forces the code to start Y, Y, Y
   and caps the payload the other guesses can score against;
3. per edge (a, b): (edge color, color a, color b, N, ..., N), declared
   (0, 2) - exactly two of {edge present, a present, b present} hold, which
   with 4. means every edge meets the chosen vertex set;
4. (Y, Y, Y, v1, ..., v#V, N, ..., N), declared (3, n) - exactly n distinct
   vertex colors appear, and none sits at its own slot.

The standard variant uses code length 3 + 2*#V + #E; the compact variant
drops the spare region for length 3 + #V + #E and needs n != #V or n > 1 so
cover vertices can dodge their own guess-4 slots.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .core import Code, Palette, Score
from .errors import InvalidInputError, PreconditionError, ResourceLimitError
from .solver import MspInstance, ScoredGuess, verify

VARIANTS = ("standard", "compact")

BRUTE_FORCE_VERTEX_LIMIT = 20


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph on vertices 1..vertex_count.

    Edges keep their given order (the reduction's guess order follows it)
    but each pair is normalized to (low, high).  Self-loops and duplicates
    in either orientation are rejected.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not isinstance(self.vertex_count, int) or self.vertex_count < 1:
            raise InvalidInputError(
                f"vertex count must be a positive integer, got {self.vertex_count!r}"
            )
        normalized = []
        seen = set()
        for pair in self.edges:
            a, b = pair
            if a == b:
                raise InvalidInputError(f"self-loop at vertex {a}")
            if not (1 <= a <= self.vertex_count and 1 <= b <= self.vertex_count):
                raise InvalidInputError(f"edge {pair} outside 1..{self.vertex_count}")
            lo, hi = (a, b) if a < b else (b, a)
            if (lo, hi) in seen:
                raise InvalidInputError(f"duplicate edge {pair}")
            seen.add((lo, hi))
            normalized.append((lo, hi))
        object.__setattr__(self, "edges", tuple(normalized))

    @property
    def edge_count(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class ColorMap:
    """How reduction colors line up with the source graph."""

    vertex_color: dict[int, int]  # vertex -> color
    edge_color: dict[int, int]    # 1-based edge index -> color
    yes_color: int
    no_color: int


@dataclass(frozen=True)
class ReductionArtifact:
    instance: MspInstance
    colors: ColorMap
    source: Graph
    cover_size: int
    variant: str


def reduce_vertex_cover(graph: Graph, cover_size: int,
                        variant: str = "standard") -> ReductionArtifact:
    """Encode "does ``graph`` have a vertex cover of size ``cover_size``?"."""
    nv, ne = graph.vertex_count, graph.edge_count
    if not isinstance(cover_size, int) or not 1 <= cover_size <= nv:
        raise InvalidInputError(
            f"cover size must lie in 1..{nv}, got {cover_size!r}"
        )
    if variant not in VARIANTS:
        raise InvalidInputError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if variant == "compact" and not (cover_size != nv or cover_size > 1):
        raise PreconditionError(
            "compact variant requires cover_size != vertex_count or cover_size > 1"
        )

    kappa = nv + ne + 2
    ell = 3 + 2 * nv + ne if variant == "standard" else 3 + nv + ne
    vertex_color = {v: v for v in range(1, nv + 1)}
    edge_color = {i: nv + i for i in range(1, ne + 1)}
    yes = nv + ne + 1
    no = kappa

    guesses = [ScoredGuess((no,) * ell, Score(0, 0)),
               ScoredGuess((yes,) * 3 + (no,) * (ell - 3), Score(3, 0))]
    edge_score = Score(0, 2)  # one object shared by every edge guess
    for i, (a, b) in enumerate(graph.edges, start=1):
        pegs = (edge_color[i], vertex_color[a], vertex_color[b]) + (no,) * (ell - 3)
        guesses.append(ScoredGuess(pegs, edge_score))
    vertex_row = tuple(vertex_color[v] for v in range(1, nv + 1))
    guesses.append(ScoredGuess(
        (yes,) * 3 + vertex_row + (no,) * (ell - 3 - nv), Score(3, cover_size)))

    instance = MspInstance(Palette(kappa), ell, tuple(guesses))
    colors = ColorMap(vertex_color, edge_color, yes, no)
    return ReductionArtifact(instance, colors, graph, cover_size, variant)


def construct_witness(artifact: ReductionArtifact, cover: Iterable[int]) -> Code:
    """Build the canonical solution encoding a given vertex cover.

    The cover must have exactly ``cover_size`` vertices and touch every
    edge.  Edge colors are included exactly when the edge has precisely one
    endpoint in the cover; the remaining room is filled with Y.
    """
    graph = artifact.source
    nv, ne = graph.vertex_count, graph.edge_count
    cover_set = set(cover)
    if len(cover_set) != artifact.cover_size:
        raise InvalidInputError(
            f"cover has {len(cover_set)} vertices, expected {artifact.cover_size}"
        )
    if not all(1 <= v <= nv for v in cover_set):
        raise InvalidInputError("cover contains a vertex outside the graph")
    if not is_vertex_cover(graph, cover_set):
        raise InvalidInputError("given set does not cover every edge")

    cmap = artifact.colors
    yes = cmap.yes_color
    selected = [cmap.edge_color[i]
                for i, (a, b) in enumerate(graph.edges, start=1)
                if (a in cover_set) != (b in cover_set)]
    edge_region = selected + [yes] * (ne - len(selected))

    if artifact.variant == "standard":
        payload = [cmap.vertex_color[v] for v in sorted(cover_set)]
        payload += [yes] * (nv - len(payload))
        code = [yes] * 3 + [yes] * nv + payload + edge_region
    else:
        # shift each cover vertex one slot forward (cyclically) so none sits
        # where guess 4 names it
        region = [yes] * nv
        for v in cover_set:
            region[v % nv] = cmap.vertex_color[v]
        code = [yes] * 3 + region + edge_region
    return tuple(code)


def extract_cover(artifact: ReductionArtifact, witness: Code) -> set[int]:
    """Read the vertex cover off any verified solution of the instance."""
    if not verify(artifact.instance, witness):
        raise InvalidInputError("witness does not satisfy the reduced instance")
    present = set(witness)
    return {v for v, color in artifact.colors.vertex_color.items() if color in present}


def is_vertex_cover(graph: Graph, subset: Iterable[int]) -> bool:
    chosen = set(subset)
    return all(a in chosen or b in chosen for a, b in graph.edges)


def brute_force_vertex_cover(graph: Graph, cover_size: int) -> bool:
    """Decide vertex cover by trying every subset of the requested size.

    Exponential on purpose; refuses graphs beyond BRUTE_FORCE_VERTEX_LIMIT
    vertices.  The independent oracle for the reduction round trip.
    """
    nv = graph.vertex_count
    if nv > BRUTE_FORCE_VERTEX_LIMIT:
        raise ResourceLimitError(
            f"brute force capped at {BRUTE_FORCE_VERTEX_LIMIT} vertices, got {nv}"
        )
    if not isinstance(cover_size, int) or not 1 <= cover_size <= nv:
        raise InvalidInputError(f"cover size must lie in 1..{nv}, got {cover_size!r}")
    return any(is_vertex_cover(graph, subset)
               for subset in combinations(range(1, nv + 1), cover_size))
