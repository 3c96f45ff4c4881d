"""Chimera graph topology, Ising Hamiltonians, gauge and cell symmetries.

The Chimera graph is an L x L grid of K_{4,4} unit cells. Spins are indexed
(cell_x, cell_y, side u in {0,1}, offset k in {0..3}) flattened row-major:

    index = 8 * (cell_y * L + cell_x) + 4 * u + k

Side-0 spins couple to the like-indexed side-0 spin of the row-adjacent cell,
side-1 spins to the like-indexed side-1 spin of the column-adjacent cell.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "CapacityError",
    "FormatError",
    "ChimeraGraph",
    "Hamiltonian",
    "common_graph",
    "build_chimera",
    "truncated_cell",
    "energy",
    "gauge_transform",
    "unit_cell_automorphisms",
    "canonicalize_cell",
    "cell_orbits",
    "enumerate_cell_classes",
    "parse_hamiltonian",
    "format_hamiltonian",
]


class CapacityError(Exception):
    """An instance exceeds the size limits of the requested engine."""


class FormatError(ValueError):
    """A Hamiltonian text file violates the line format or the graph."""


@dataclass(frozen=True)
class ChimeraGraph:
    """Immutable Chimera topology with optional excluded spins.

    `spins` holds the active spin indices in ascending order and `edges` the
    canonical (ascending lexicographic) edge list with i < j in every pair.
    """

    L: int
    K: int
    excluded: frozenset[int]
    spins: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def n_spins(self) -> int:
        return len(self.spins)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def positions(self, labels) -> np.ndarray:
        """Positions in `spins` of an int array of active spin labels."""
        labels = np.asarray(labels, dtype=np.int64)
        spins = np.array(self.spins, dtype=np.int64)
        if not np.isin(labels, spins).all():
            raise ValueError("labels contain non-active spin indices")
        return np.searchsorted(spins, labels)

    @cached_property
    def edge_positions(self) -> np.ndarray:
        """(m, 2) read-only positions in `spins` of every edge's endpoints."""
        pos = np.searchsorted(self.spins, np.array(self.edges, dtype=np.int64))
        pos = pos.reshape(-1, 2)
        pos.flags.writeable = False
        return pos


@dataclass(frozen=True, eq=False)
class Hamiltonian:
    """Ising instance on a Chimera graph: fields h, couplers J, scale alpha.

    E(s) = alpha * (-sum_i h_i s_i - sum_(i,j) J_ij s_i s_j)

    `h` holds one field per active spin in `graph.spins` order and `J` one
    coupler per edge in `graph.edges` order, as read-only float64 arrays.
    Nominal (channel-transmitted) instances have h, J in {-1, +1}; control
    error perturbed instances hold arbitrary finite reals. Instances compare
    by identity.
    """

    graph: ChimeraGraph
    h: np.ndarray
    J: np.ndarray
    alpha: float = 1.0

    def __post_init__(self) -> None:
        for name, size in (("h", self.graph.n_spins), ("J", self.graph.n_edges)):
            values = np.array(getattr(self, name), dtype=np.float64)
            if values.shape != (size,):
                raise ValueError(f"{name} must hold {size} values in graph order, "
                                 f"not shape {values.shape}")
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{name} must be finite")
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        if not math.isfinite(self.alpha):
            raise ValueError("alpha must be finite")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")

    def is_nominal(self) -> bool:
        return bool(np.all(np.abs(self.h) == 1.0) and np.all(np.abs(self.J) == 1.0))

    @staticmethod
    def from_vectors(graph: ChimeraGraph, h: np.ndarray, j: np.ndarray,
                     alpha: float = 1.0) -> "Hamiltonian":
        return Hamiltonian(graph, h, j, alpha)

    @staticmethod
    def uniform(graph: ChimeraGraph, h: float = 1.0, j: float = 1.0,
                alpha: float = 1.0) -> "Hamiltonian":
        return Hamiltonian(graph, np.full(graph.n_spins, float(h)),
                           np.full(graph.n_edges, float(j)), alpha)


def common_graph(Hs: list[Hamiltonian]) -> ChimeraGraph:
    """The one graph of a non-empty batch of Hamiltonians; ValueError if the
    batch is empty or spans several graphs."""
    if not Hs:
        raise ValueError("a batch needs at least one Hamiltonian")
    graph = Hs[0].graph
    if any(H.graph != graph for H in Hs):
        raise ValueError("a batch's Hamiltonians must share one graph")
    return graph


def build_chimera(L: int, excluded: set[int] | frozenset[int] = frozenset(),
                  K: int = 4) -> ChimeraGraph:
    """Build an L x L Chimera graph, dropping excluded spins entirely.

    Excluded spins lose their fields and all incident edges. Edge count with
    no exclusions is 16 L^2 + 8 L (L - 1) for K = 4.
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    if K != 4:
        raise ValueError("only K = 4 cells are supported")
    n_total = 2 * K * L * L
    excluded = frozenset(int(i) for i in excluded)
    for i in excluded:
        if not 0 <= i < n_total:
            raise ValueError(f"excluded spin {i} out of range [0, {n_total})")

    def idx(x: int, y: int, u: int, k: int) -> int:
        return 2 * K * (y * L + x) + K * u + k

    edges: list[tuple[int, int]] = []
    for y in range(L):
        for x in range(L):
            for a in range(K):
                for b in range(K):
                    edges.append((idx(x, y, 0, a), idx(x, y, 1, b)))
            if y + 1 < L:
                for k in range(K):
                    edges.append((idx(x, y, 0, k), idx(x, y + 1, 0, k)))
            if x + 1 < L:
                for k in range(K):
                    edges.append((idx(x, y, 1, k), idx(x + 1, y, 1, k)))
    spins = tuple(s for s in range(n_total) if s not in excluded)
    kept = tuple(
        sorted((min(a, b), max(a, b)) for a, b in edges
               if a not in excluded and b not in excluded)
    )
    return ChimeraGraph(L=L, K=K, excluded=excluded, spins=spins, edges=kept)


def truncated_cell() -> ChimeraGraph:
    """Single unit cell with one spin removed from each side (a K_{3,3})."""
    return build_chimera(1, excluded={3, 7})


# one shared full-cell graph, so its cached edge positions are computed once
_CELL = build_chimera(1)


def energy(H: Hamiltonian, s: np.ndarray) -> float:
    """Ising energy alpha * (-sum h_i s_i - sum J_ij s_i s_j) of a +-1
    vector s in `graph.spins` order."""
    s = np.asarray(s, dtype=np.float64)
    if s.shape != H.h.shape:
        raise ValueError("configuration does not match the graph's spins")
    ij = H.graph.edge_positions
    return float(H.alpha * (-(H.h @ s) - H.J @ (s[ij[:, 0]] * s[ij[:, 1]])))


def gauge_transform(H: Hamiltonian, flip: set[int] | frozenset[int]) -> Hamiltonian:
    """Negate h on the spin labels in `flip` and J on edges with exactly one
    endpoint in `flip`.

    The energy spectrum is preserved: E'(s') = E(s) for s'_i = -s_i on flip.
    """
    sign = np.ones(H.graph.n_spins)
    sign[H.graph.positions(sorted(flip))] = -1.0
    ij = H.graph.edge_positions
    return Hamiltonian(H.graph, sign * H.h, sign[ij[:, 0]] * sign[ij[:, 1]] * H.J,
                       H.alpha)


def unit_cell_automorphisms() -> list[tuple[int, ...]]:
    """All 1152 automorphisms of the K_{4,4} unit cell, as spin permutations.

    Elements are permutations of {0..7}: any permutation within the side-0
    set {0..3}, any within the side-1 set {4..7}, optionally composed with
    the side swap. Group order |S4 x S4 x Z2| = 24 * 24 * 2 = 1152.
    """
    perms: list[tuple[int, ...]] = []
    for p_left in itertools.permutations(range(4)):
        for p_right in itertools.permutations(range(4)):
            perms.append(tuple(p_left) + tuple(4 + r for r in p_right))
            perms.append(tuple(4 + r for r in p_right) + tuple(p_left))
    return perms


def cell_orbits(graph: ChimeraGraph) -> np.ndarray:
    """Canonical (orbit-minimum) word of every coupler word of a single cell.

    Words pack the graph's coupler signs as `_pack_word` does (a negative
    coupler is a 1 bit, edge 0 the most significant), so the result has
    2^n_edges entries. The group is every cell automorphism that maps the
    active spins onto themselves. On the couplers it is generated by the
    adjacent transpositions of each side's active spins and, where the sides
    hold equally many, the swap pairing them in order: every kept element is
    a swap times a side-preserving one, and permuting excluded spins moves no
    edge. Each generator's image of a word is looked up a byte at a time,
    and minima are closed under the generators with pointer jumping.
    """
    if graph.L != 1:
        raise ValueError("cell symmetries need a single unit cell")
    m = graph.n_edges
    E = np.array(graph.edges, dtype=np.intp).reshape(-1, 2)
    index = np.zeros((8, 8), dtype=np.intp)
    index[E[:, 0], E[:, 1]] = index[E[:, 1], E[:, 0]] = np.arange(m)
    sides = [[s for s in graph.spins if s // 4 == u] for u in (0, 1)]
    perms = []
    for side in sides:
        for a, b in zip(side, side[1:]):
            perm = np.arange(8)
            perm[[a, b]] = b, a
            perms.append(perm)
    if len(sides[0]) == len(sides[1]):
        perm = np.arange(8)
        perm[sides[0]], perm[sides[1]] = sides[1], sides[0]
        perms.append(perm)
    # image of word w = hi[w >> 8] | lo[w & 255], as an outer OR over the
    # (high byte, low byte) grid of all 2^m words; bit k holds edge m-1-k
    n_lo = min(m, 8)
    bits = (np.arange(256)[:, None] >> np.arange(8)) & 1
    tables = []
    for perm in perms:
        weights = np.zeros(16, dtype=np.intp)
        weights[:m] = (1 << (m - 1 - index[perm[E[:, 0]], perm[E[:, 1]]]))[::-1]
        tables.append(((bits @ weights[8:])[:1 << (m - n_lo), None],
                       (bits @ weights[:8])[None, :1 << n_lo]))
    # canonical[w] is a word of w's orbit no larger than w, so every step
    # only lowers entries, and an unchanged sum means an unchanged array
    canonical = np.arange(1 << m, dtype=np.int32)
    total = None
    while True:
        for hi, lo in tables:
            np.minimum(canonical, canonical.take((hi | lo).ravel()), out=canonical)
        canonical = canonical.take(canonical)
        previous, total = total, int(canonical.sum(dtype=np.int64))
        if total == previous:
            return canonical.astype(np.int64)


_WORD_WEIGHTS = (1 << np.arange(15, -1, -1)).astype(np.int64)


def _pack_word(signs: np.ndarray) -> np.ndarray:
    """Pack +-1 sign rows into 16-bit ints; +1 -> bit 0, edge 0 is the MSB."""
    bits = (signs < 0).astype(np.int64)
    return bits @ _WORD_WEIGHTS


def _unpack_word(word: int) -> tuple[int, ...]:
    bits = (word >> np.arange(15, -1, -1)) & 1
    return tuple(1 - 2 * int(b) for b in bits)


def canonicalize_cell(H: Hamiltonian) -> int:
    """Canonical word of a nominal single-cell instance under gauge + symmetry.

    Gauge-fixes all fields to +1 (flipping spins with h = -1), then reads the
    orbit minimum of the packed coupler-sign word from `cell_orbits`. Two
    instances canonicalize equal iff related by a gauge and an automorphism.
    """
    if H.graph.L != 1 or H.graph.excluded:
        raise ValueError("canonicalize_cell requires a full single unit cell")
    if not H.is_nominal():
        raise ValueError("canonicalize_cell requires h, J in {-1, +1}")
    ij = H.graph.edge_positions
    return int(cell_orbits(H.graph)[_pack_word(H.J * H.h[ij[:, 0]] * H.h[ij[:, 1]])])


def enumerate_cell_classes() -> tuple[int, dict[int, int], np.ndarray]:
    """Orbit enumeration of all 2^16 gauge-fixed cell coupler words.

    Returns (class count, orbit-size histogram {orbit size: number of
    orbits}, canonical word of every input word). The group is the full
    order-1152 cell automorphism group acting on the 16 coupler signs.
    """
    canonical = cell_orbits(_CELL)
    uniq, counts = np.unique(canonical, return_counts=True)
    hist: dict[int, int] = {}
    for c in counts:
        hist[int(c)] = hist.get(int(c), 0) + 1
    return len(uniq), hist, canonical


def cell_from_word(word: int, alpha: float = 1.0) -> Hamiltonian:
    """Gauge-fixed single-cell instance (all h = +1) with the given word."""
    return Hamiltonian(_CELL, np.ones(_CELL.n_spins),
                       np.array(_unpack_word(word), dtype=np.float64), alpha)


def format_hamiltonian(H: Hamiltonian) -> str:
    """Serialize to the line-oriented text format."""
    lines = [f"chimera L={H.graph.L} K={H.graph.K}"]
    if H.graph.excluded:
        lines.append("exclude " + " ".join(str(i) for i in sorted(H.graph.excluded)))
    lines.append(f"alpha {H.alpha!r}")
    for s, v in zip(H.graph.spins, H.h.tolist()):
        lines.append(f"h {s} {v!r}")
    for (i, j), v in zip(H.graph.edges, H.J.tolist()):
        lines.append(f"J {i} {j} {v!r}")
    return "\n".join(lines) + "\n"


def _finite(text: str, no: int) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise FormatError(f"line {no}: non-finite value {text!r}")
    return value


# tokens on an alpha, h or J line, the directive included
_ENTRY_TOKENS = {"alpha": 2, "h": 3, "J": 4}


def parse_hamiltonian(text: str) -> Hamiltonian:
    """Parse the line-oriented Hamiltonian format.

    Rejects duplicate or missing h/J entries, edges not in the graph,
    non-finite values, a non-positive alpha and malformed lines. Line numbers
    are reported in error messages.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    body = [(no + 1, ln) for no, ln in enumerate(lines) if ln and not ln.startswith("#")]
    if not body:
        raise FormatError("empty Hamiltonian file")
    no, head = body[0]
    parts = head.split()
    if len(parts) != 3 or parts[0] != "chimera":
        raise FormatError(f"line {no}: expected 'chimera L=<int> K=4'")
    try:
        L = int(parts[1].removeprefix("L="))
        K = int(parts[2].removeprefix("K="))
        build_chimera(L, K=K)
    except ValueError as exc:
        raise FormatError(f"line {no}: bad chimera header {head!r}: {exc}") from exc

    excluded: set[int] = set()
    exclude_no = 0
    alpha: float | None = None
    h: dict[int, float] = {}
    J: dict[tuple[int, int], float] = {}
    for no, ln in body[1:]:
        tok = ln.split()
        try:
            if len(tok) != _ENTRY_TOKENS.get(tok[0], len(tok)):
                raise ValueError(f"{tok[0]} takes {_ENTRY_TOKENS[tok[0]]} tokens")
            if tok[0] == "exclude":
                if exclude_no:
                    raise FormatError(f"line {no}: duplicate exclude line")
                excluded = {int(t) for t in tok[1:]}
                exclude_no = no
            elif tok[0] == "alpha":
                if alpha is not None:
                    raise FormatError(f"line {no}: duplicate alpha line")
                alpha = _finite(tok[1], no)
                if alpha <= 0:
                    raise FormatError(f"line {no}: alpha must be positive")
            elif tok[0] == "h":
                i = int(tok[1])
                if i in h:
                    raise FormatError(f"line {no}: duplicate h entry for spin {i}")
                h[i] = _finite(tok[2], no)
            elif tok[0] == "J":
                i, j = int(tok[1]), int(tok[2])
                if i >= j:
                    raise FormatError(f"line {no}: J requires i < j")
                if (i, j) in J:
                    raise FormatError(f"line {no}: duplicate J entry for edge {(i, j)}")
                J[i, j] = _finite(tok[3], no)
            else:
                raise FormatError(f"line {no}: unknown directive {tok[0]!r}")
        except FormatError:
            raise
        except ValueError as exc:
            raise FormatError(f"line {no}: malformed entry {ln!r}") from exc

    try:  # the header is valid, so only the exclude line can fail here
        graph = build_chimera(L, excluded, K)
    except ValueError as exc:
        raise FormatError(f"line {exclude_no}: {exc}") from exc
    if alpha is None:
        raise FormatError("missing alpha line")
    missing_h = set(graph.spins) - set(h)
    extra_h = set(h) - set(graph.spins)
    if missing_h or extra_h:
        raise FormatError(f"h entries missing {sorted(missing_h)}, extra {sorted(extra_h)}")
    missing_j = set(graph.edges) - set(J)
    extra_j = set(J) - set(graph.edges)
    if missing_j or extra_j:
        raise FormatError(f"J entries missing {sorted(missing_j)}, extra {sorted(extra_j)}")
    return Hamiltonian(graph, [h[s] for s in graph.spins],
                       [J[e] for e in graph.edges], alpha)
