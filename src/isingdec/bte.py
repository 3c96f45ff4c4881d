"""Exact Boltzmann inference on Chimera graphs via bucket-tree elimination.

Replaces exhaustive enumeration for instances too large to enumerate.

The forward pass eliminates the spins in order. Bucket v combines the field
and coupler factors whose earliest spin is v with its children's messages
into lam_v over scope (v, separator...), sends msg_v = sum over v of lam_v
to its parent (the separator's earliest spin) and keeps one table,
cond_v = lam_v / msg_v = P(v | separator). Each factor and each message is
scaled so that its largest entry at each temperature is 1; ln Z is the sum
of the logs of those scales (a root's message is its own scale).

The pass runs in linear arithmetic: a product, a pairwise sum and a division
per table entry. Every table it combines is a product of scaled factors and
messages, so its entries are at most 1, and a guard checks that none falls
below the smallest normal float, `np.finfo(float).tiny`; then every number
of the pass, messages included, is a normal float. Where one does, at any
temperature, the pass is abandoned. Each temperature's rows are computed
apart from the others', so a flagged temperature would trip the guard again:
the others run linear again, each flagged row holding a copy of one of them,
and the flagged ones then run in log arithmetic (sums of log tables,
log-add-exp over v).

Only low temperatures trip the guard. A corrupted 4x4 table spans about
52/T nats against a float's 708, and where several messages meet, their
largest entries need not coincide, which adds up to 42/T: the linear pass
holds down to about T = 0.125 there (0.09 on 3x3). Both arithmetics leave
the same tables, cond_v as probabilities, which the other outputs read:
- marginals walk the buckets in reverse order. A bucket's belief
  P(v, separator) is cond_v times its parent's belief marginalized onto the
  separator; it gives <sigma_v> and <sigma_i sigma_j> for the edges whose
  earliest spin is v. So the moments a curve reads (`bte_moment_curves`)
  are of groups of one spin or of an edge's two spins, and any other group
  is refused before any pass;
- sampling draws each spin from cond_v at its already-drawn separator.

Tables carry a leading temperature axis, so a piece of a grid is processed
at once, and one axis per scope spin in elimination order. Broadcasts and
marginals see adjacent axes that play the same part as one run. A broadcast
whose innermost run is short sees that run outermost and runs in C order, so
that numpy's inner loop runs over the long run outside it; a marginal sums
one run at a time as a product with a vector of ones, stacked so that each
BLAS call holds one temperature's rows: BLAS rounds a row differently with
the rows a call holds.

Schedule and memory. The elimination order alone fixes every scope, run and
sum of a pass, so each order walks its scopes once, into the steps of a
forward and a backward pass (`EliminationOrder.schedule`). Each step names
the tables it creates and the tables it reads; a table written in place
keeps its key (lam_v becomes cond_v, then the belief). Programs run the
steps, and the memory plan (`EliminationOrder.plan`) reads from them each
table's lifetime, to give every table an offset such that tables alive at
the same time never share an entry. A thread makes one buffer, the arena,
of the plan's entries per temperature times its largest piece; every pass
it runs (each piece, an abandoned linear attempt, the re-runs) writes its
tables as views of it, at offset times the pass's temperature count, and a
table the plan does not hold raises LookupError. Its size, known before any
table is written, is the thread's peak.

Programs. A pass does not walk the schedule. An arena binds the steps once
per pass size (`_Bound`) into calls whose arguments are views of it, checked
against the plan then, and of a few buffers for the pass's inputs; each
arithmetic makes of them its program (`_bind`), a list of functions and a
list of their arguments, and the linear and log programs share the views.
`_forward` and `_moments` run them: they write the inputs (the log factor
tables and 1/T) into the buffers and call the functions in turn. The arena
keeps what it binds, so a thread binds each program once per batch.

At low temperature many log-pass beliefs hold entries below the smallest
normal float (about 8% of a corrupted 4x4's at T = 0.05), where arithmetic
is several times slower, so the log backward program sets them to 0 as each
belief is made. A belief is a joint distribution summing to 1 and an output
a ratio of sums of its entries, so what the flush drops, less than 2^-1000
in all, can move an output only where its sums cancel below that; the
golden pins at T = 0.03 and 0.05, taken before the flush, keep every bit. The linear pass held no
such entry down to its guard on the grids tried, and does not flush.

Every product and sum of a pass keeps each temperature apart, so a
temperature's values are those of its one-temperature call, whatever piece
it is in, whichever thread runs it, and however many threads there are. So
the engine cuts its work into jobs, one per Hamiltonian and temperature
piece (`_jobs`): a thread per CPU that no other batch holds, within
BUDGET, and the fewest pieces that give every thread one, let the threads'
arenas fit BUDGET at once and keep each piece's largest table within 1 MiB.
A wider piece amortizes the interpreter's time per step over more
temperatures, but once its largest table outgrows a core's cache it only
costs memory: so a 4x4 runs one temperature per pass, and its threads hold
69 MiB of arena each, not that times their share of the grid. One driver
(`_curves`) runs every curve so, a one-Hamiltonian curve as the one-element
batch: each thread keeps the arena of its first job for the others, and the
arenas go when the call returns.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import CapacityError, ChimeraGraph, Hamiltonian, K, common_graph
from .workers import free_cpus, run_calls

__all__ = [
    "EliminationOrder",
    "elimination_order",
    "bte_log_partition_curve",
    "bte_moment_curves",
    "bte_sample",
    "BteEngine",
]

# bytes of arena (8 * n_T * plan entries) that the threads of a batch may hold
# at once, which sets the thread count: on L=4 (69 MiB per temperature) up to
# 33 threads of one-temperature pieces; L=5 (1.65 GiB per temperature) gets
# one thread, and L >= 6 is refused before any table exists.
BUDGET = 9 << 28
# a piece holds at most as many temperatures as keep its largest table
# (8 * 2^(induced width + 1) bytes per temperature) within this many bytes,
# about a core's L2: one thread's ms per temperature by piece size, two
# rounds, on L=4 86-97 at 1, 87-93 at 3, 99 at 6 and 128-133 at 12; on L=3
# 9.3-11 at 1, 5.1-5.2 at 4, 3.8-4.1 at 16 and 3.7-4.8 at 48. So one
# temperature per piece on L=4, 16 on L=3 and 256 on L=2.
_PIECE_BYTES = 1 << 20
_SPIN_VALUES = np.array([-1.0, 1.0])  # table axis index 0 -> spin -1, 1 -> +1
_PAIR_VALUES = np.outer(_SPIN_VALUES, _SPIN_VALUES)
_TINY = np.finfo(float).tiny
# a broadcast runs with its innermost run moved outermost when that run holds
# at most this many entries: on a 4x4's largest tables 7x faster than one op
# in memory order at runs of 2, 2x slower at runs of 16
_SHORT = 4
# arena offsets and sizes are multiples of this many entries per
# temperature, so every table starts on a 64-byte boundary
_ALIGN = 8


@dataclass(frozen=True)
class EliminationOrder:
    """A complete variable order of a graph, the width it induces, the
    entries of all bucket tables one elimination pass keeps per temperature,
    the steps of a pass in this order (schedule) and, made on first use, its
    memory plan."""

    order: tuple[int, ...]
    induced_width: int
    table_entries: int
    schedule: _Schedule = field(repr=False, compare=False)

    @functools.cached_property
    def plan(self) -> _Plan:
        """The arena layout of one forward and backward pass in this order."""
        return _pack(*_lifetimes(self.schedule))

    @functools.cached_property
    def ones(self) -> dict[int, np.ndarray]:
        """Read-only ones, one vector for each run length a backward pass in
        this order sums (prefixes of the longest), by length."""
        sums = [step.run for step in self.schedule.backward if isinstance(step, _Sum)]
        sums += [run for step in self.schedule.backward if isinstance(step, _Read)
                 for runs in step.sums.values() for run in runs]
        ones = np.ones(max((size for _, size, _ in sums), default=0))
        ones.setflags(write=False)
        return {size: ones[:size] for _, size, _ in sums}


@functools.lru_cache(maxsize=8)
def elimination_order(graph: ChimeraGraph) -> EliminationOrder:
    """Deterministic column-major order.

    Cells are processed column by column; within a column all side-0 spins go
    first, then all side-1 spins. Grouping a column's side-0 spins keeps the
    frontier to the side-1 cut plus one cell, so the induced width stays at
    4L on an unexcluded L x L Chimera (well under the 4L+4 bound of
    the per-cell order). The order of a graph is made once per process (for
    the last few graphs), so its schedule and plan are too.
    """
    order: list[int] = []
    L = graph.L
    active = set(graph.spins)
    for x in range(L):
        for u in (0, 1):
            for y in range(L):
                for k in range(K):
                    s = 2 * K * (y * L + x) + K * u + k
                    if s in active:
                        order.append(s)
    ot = tuple(order)
    schedule = _schedule(graph, ot)
    scopes = [step.scope for step in schedule.forward if isinstance(step, _SumOut)]
    return EliminationOrder(order=ot, induced_width=max(map(len, scopes)) - 1,
                            table_entries=sum(1 << len(s) for s in scopes),
                            schedule=schedule)


# ---------------------------------------------------------------------------
# schedule


# plain dataclasses: a frozen one takes about 0.6 ms more to create at import
@dataclass
class _Step:
    """One step of a pass: the tables it creates, as (key, entries per
    temperature) in the order it takes them from the arena, and the keys of
    the earlier tables it reads or writes in place."""

    creates: tuple[tuple[tuple, int], ...]
    reads: tuple[tuple, ...]


@dataclass
class _Enter(_Step):
    """A bucket's factor tables, created from the factors of _factors at
    these indices, then the same-scope products dst = dst op src in place."""

    factors: tuple[int, ...]
    merges: tuple[tuple[tuple, tuple], ...]


@dataclass
class _Broadcast(_Step):
    """out = a op b for reads (a, b) and out one of them or the table created,
    each seen through its view: the runs of out's scope, size 1 where the
    table lacks them. short: whether the innermost run is short, at most
    _SHORT entries with another run outside it."""

    out: tuple
    views: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    short: bool


@dataclass
class _SumOut(_Step):
    """Spin scope[0] summed out of the bucket table (lam, left as cond) into
    the message over scope[1:], with a scratch table of its size."""

    scope: tuple[int, ...]


@dataclass
class _Belief(_Step):
    """A bucket's cond table times the marginal of its parent's belief on the
    separator, in place: reads (cond, down), or (cond,) at a root."""


@dataclass
class _Sum(_Step):
    """One run of a marginal sent down: the read table, seen as (pre, size,
    post) per temperature, summed over its middle axis into the created."""

    run: tuple[int, int, int]


@dataclass
class _Read(_Step):
    """Group reads from a bucket's belief: sums maps the spins of each factor
    of the bucket to the sums that keep them, sum k into the k-th created."""

    sums: dict[frozenset[int], tuple[tuple[int, int, int], ...]]


@dataclass
class _Schedule:
    """The steps of one forward and one backward pass, in the order they run."""

    forward: tuple[_Step, ...]
    backward: tuple[_Step, ...]


def _runs(scope: tuple[int, ...], *parts: tuple[int, ...]) -> tuple:
    """Adjacent axes of scope merged into runs: (membership per part, size),
    where consecutive axes with the same membership in every part merge."""
    keys = zip(*([v in p for v in scope] for p in map(set, parts)))
    return tuple((key, 1 << len(list(axes))) for key, axes in itertools.groupby(keys))


def _sum_steps(scope: tuple[int, ...],
               keep: tuple[int, ...]) -> tuple[tuple[int, int, int], ...]:
    """The sums that keep only `keep` of a table over scope: one per run of
    adjacent dropped axes, innermost first, each over the middle axis of the
    table seen as (pre, size, post) per temperature."""
    runs = _runs(scope, keep)
    shape = [size for _, size in runs]
    steps = []
    for axis in range(len(runs) - 1, -1, -1):
        (kept,), size = runs[axis]
        if not kept:
            steps.append((math.prod(shape[:axis]), size, math.prod(shape[axis + 1:])))
            del shape[axis]
    return tuple(steps)


def _schedule(graph: ChimeraGraph, order: tuple[int, ...]) -> _Schedule:
    """The steps of one forward and backward pass in `order`.

    Bucket v takes the field and coupler factors whose earliest spin is v and
    its children's messages. Tables with the same scope merge in place
    first; then the distinct scopes merge smallest first, so the small
    factors become one small table before the one broadcast that writes the
    bucket table. A marginal that drops no axis is the belief itself. Each
    bucket's group reads get one set of scratch tables, sized for the
    largest of its spin and edge groups.
    """
    pos = {v: t for t, v in enumerate(order)}
    factors: dict[int, list] = {v: [((v,), i)] for i, v in enumerate(graph.spins)}
    for e, (i, j) in enumerate(graph.edges):
        a, b = (i, j) if pos[i] < pos[j] else (j, i)
        factors[a].append(((a, b), graph.n_spins + e))
    pending: dict[int, list] = {v: [] for v in order}  # (scope, message key)
    children: dict[int, list[int]] = {v: [] for v in order}
    buckets: dict[int, tuple] = {}  # (scope, cond key)
    forward: list[_Step] = []
    for v in order:
        keys = [("factor", s) for s, _ in factors[v]]
        merged: dict[tuple[int, ...], tuple] = {}
        merges = []
        for s, key in [(key[1], key) for key in keys] + pending.pop(v):
            if s in merged:
                merges.append((merged[s], key))
            else:
                merged[s] = key
        forward.append(_Enter(tuple((key, 1 << len(key[1])) for key in keys),
                              tuple(itertools.chain(*merges)),
                              tuple(f for _, f in factors[v]), tuple(merges)))
        ordered = sorted(merged.items(), key=lambda it: len(it[0]))
        acc_scope, acc = ordered[0]
        for s, key in ordered[1:]:
            scope = tuple(sorted(set(acc_scope) | set(s), key=pos.__getitem__))
            runs = _runs(scope, acc_scope, s)
            out = acc if scope == acc_scope else key if scope == s else ("acc", scope)
            forward.append(_Broadcast(
                ((out, 1 << len(scope)),) if out not in (acc, key) else (),
                (acc, key), out,
                (tuple(n if k[0] else 1 for k, n in runs),
                 tuple(n if k[1] else 1 for k, n in runs),
                 tuple(n for _, n in runs)),
                len(runs) > 1 and runs[-1][1] <= _SHORT))
            acc_scope, acc = scope, out
        sep = 1 << (len(acc_scope) - 1)
        forward.append(_SumOut(((("msg", v), sep), (("scratch", v), sep)), (acc,),
                               acc_scope))
        buckets[v] = acc_scope, acc
        if len(acc_scope) > 1:
            pending[acc_scope[1]].append((acc_scope[1:], ("msg", v)))
            children[acc_scope[1]].append(v)
    backward: list[_Step] = []
    down: dict[int, tuple] = {}  # key of the marginal sent to each child
    for v in reversed(order):
        scope, cond = buckets[v]
        backward.append(_Belief((), (cond, down.pop(v)) if len(scope) > 1 else (cond,)))
        for c in children[v]:
            down[c] = cond
            for k, run in enumerate(_sum_steps(scope, buckets[c][0][1:])):
                key = ("down", c, k)
                backward.append(_Sum(((key, run[0] * run[2]),), (down[c],), run))
                down[c] = key
        sums = {frozenset(s): _sum_steps(scope, s) for s, _ in factors[v]}
        sizes = itertools.zip_longest(*([pre * post for pre, _, post in r]
                                        for r in sums.values()), fillvalue=0)
        backward.append(_Read(tuple((("read", v, k), max(at_k))
                                    for k, at_k in enumerate(sizes)), (cond,), sums))
    return _Schedule(tuple(forward), tuple(backward))


# ---------------------------------------------------------------------------
# memory plan


@dataclass(frozen=True)
class _Plan:
    """Where every table of a pass lives in its arena.

    slots maps each table's key, in the order the pass first writes the
    tables, to (offset, entries, first, last): its place in entries per
    temperature, both multiples of _ALIGN, and the first and last step of
    the pass that use it. A pass over n temperatures finds the table at
    [offset * n, (offset + entries) * n) of the arena. Tables whose
    lifetimes overlap never share an entry. entries is the arena's size per
    temperature.
    """

    slots: dict[tuple, tuple[int, int, int, int]]
    entries: int


def _lifetimes(schedule: _Schedule) -> tuple[dict[tuple, list[int]], int]:
    """Every table of the schedule's pass: key -> [entries rounded up to
    _ALIGN, first step, last step], in the order the pass creates them; and
    the last step of the forward pass. Steps count from 1."""
    tables: dict[tuple, list[int]] = {}
    for t, step in enumerate(schedule.forward + schedule.backward, 1):
        for key, entries in step.creates:
            tables[key] = [-(-entries // _ALIGN) * _ALIGN, t, t]
        for key in step.reads:
            tables[key][2] = t
    return tables, len(schedule.forward)


def _pack(tables: dict[tuple, list[int]], forward_end: int) -> _Plan:
    """Offsets for the tables of _lifetimes.

    The tables alive when the forward pass ends (the cond tables) are
    stacked from offset 0 in the order the pass writes them, so that an
    abandoned pass touches only the bottom of the arena. The others go
    greedy by size (Pisarchyk and Lee, arXiv:2001.03288): largest first,
    each into the smallest gap that holds it above the cond tables and
    between the tables already placed whose lifetimes overlap its own, or
    else above them all.
    """
    n_steps = max(last for _, _, last in tables.values()) + 1
    floor = np.zeros(n_steps, dtype=np.int64)  # top of the live cond tables
    offsets: dict[tuple, int] = {}
    top = 0
    rest = []
    for key, (entries, first, last) in tables.items():
        if first <= forward_end <= last:
            offsets[key] = top
            top += entries
            np.maximum(floor[first:last + 1], top, out=floor[first:last + 1])
        else:
            rest.append(key)
    rest.sort(key=lambda key: -tables[key][0])
    live: list[list[tuple[int, int]]] = [[] for _ in range(n_steps)]
    for key in rest:
        entries, first, last = tables[key]
        low = int(floor[first:last + 1].max())
        best = gap = None
        for start, end in sorted(set().union(*live[first:last + 1])):
            if start - low >= entries and (gap is None or start - low < gap):
                best, gap = low, start - low
            low = max(low, end)
        offset = offsets[key] = low if best is None else best
        top = max(top, offset + entries)
        for step in range(first, last + 1):
            live[step].append((offset, offset + entries))
    return _Plan({key: (offsets[key], *tables[key]) for key in tables}, top)


class _Arena:
    """One buffer for all passes of one thread over up to n_temps
    temperatures each, handing out the tables of `plan` as views, and the
    steps bound to it, by pass size."""

    def __init__(self, plan: _Plan, n_temps: int):
        self.plan = plan
        size = plan.entries * n_temps
        raw = np.empty(size + _ALIGN)
        start = -(raw.__array_interface__["data"][0] // 8) % _ALIGN
        self.buffer = raw[start:start + size]
        self.bound: dict[int, _Bound] = {}

    def table(self, key: tuple, shape: tuple[int, ...]) -> np.ndarray:
        """The planned table `key` of a pass over shape[0] temperatures, as a
        view of shape `shape` at its offset times shape[0]. Raises LookupError
        for a table the plan does not hold, or holds smaller."""
        n, entries = shape[0], math.prod(shape[1:])
        slot = self.plan.slots.get(key)
        if (slot is None or entries > slot[1]
                or (slot[0] + entries) * n > self.buffer.size):
            raise LookupError(f"table {key} of shape {shape} is outside the memory plan")
        return self.buffer[slot[0] * n:(slot[0] + entries) * n].reshape(shape)

    def steps(self, order: EliminationOrder, n: int) -> _Bound:
        """The steps of passes in `order` over n temperatures, bound to this
        arena at their first use."""
        if n not in self.bound:
            self.bound[n] = _Bound(order, self, n)
        return self.bound[n]


def _jobs(order: EliminationOrder, n_temps: int, n_calls: int,
          cpus: int) -> tuple[int, int]:
    """(threads, piece) for n_calls curves of n_temps temperatures on up to
    `cpus` CPUs. Each curve is cut into pieces of `piece` temperatures (its
    last one shorter): the fewest pieces that give every thread one, let the
    threads' arenas, of one piece each, fit BUDGET at once, and keep a
    piece's largest table within _PIECE_BYTES. Raises
    CapacityError, before any table exists, if one temperature does not
    fit."""
    # every cond table is live when the forward pass ends, so the plan holds
    # at least table_entries: a graph whose tables alone exceed BUDGET is
    # refused before it is planned
    entries = order.table_entries
    if 8 * entries <= BUDGET:
        entries = order.plan.entries
    fit = BUDGET // (8 * entries)  # temperatures of arena that BUDGET holds
    if fit < 1:
        raise CapacityError(f"induced width {order.induced_width}: one temperature "
                            f"needs at least {8 * entries} bytes of tables")
    threads = max(1, min(cpus, fit, n_calls * n_temps))
    # temperatures of the largest table, 2^(width + 1) entries each, that fit
    cap = max(1, _PIECE_BYTES // (8 << (order.induced_width + 1)))
    cuts = max(-(-threads // n_calls), -(-n_temps // min(fit // threads, cap)))
    return threads, max(1, -(-n_temps // cuts))


class _Underflow(Exception):
    """A linear pass left the normal float range at the flagged temperatures."""

    def __init__(self, flags: np.ndarray):
        super().__init__(f"{int(flags.sum())} temperature(s) need log arithmetic")
        self.flags = flags


def _sum_out_linear(lam: np.ndarray, msg: np.ndarray,
                    scratch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Linear sum-out of axis 1 into msg (scratch is unused): lam becomes
    lam / msg; returns msg over the separator scaled to a largest entry of 1
    per temperature, and the log of that scale. Raises _Underflow for the
    temperatures with an entry of lam below the smallest normal float."""
    n = lam.shape[0]
    low = lam.reshape(n, -1).min(axis=1) < _TINY
    if low.any():
        raise _Underflow(low)
    np.add(lam[:, 0], lam[:, 1], out=msg)
    lam /= msg[:, None]
    top = msg.reshape(n, -1).max(axis=1)
    msg /= top.reshape((n,) + (1,) * (msg.ndim - 1))
    return msg, np.log(top)


def _sum_out_log(lam: np.ndarray, msg: np.ndarray,
                 scratch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_sum_out_linear on log tables: msg = ln(e^lam0 + e^lam1), taken as
    max + log1p(exp(-|lam0 - lam1|)) with the difference in scratch, and lam
    becomes exp(lam - msg), the same probabilities. msg stays in logs,
    shifted to a largest entry of 0 per temperature; returns it and the
    shift."""
    n = lam.shape[0]
    a0, a1 = lam[:, 0], lam[:, 1]
    np.maximum(a0, a1, out=msg)
    d = np.subtract(a0, a1, out=scratch)
    np.abs(d, out=d)
    np.negative(d, out=d)
    np.exp(d, out=d)
    np.log1p(d, out=d)
    msg += d
    lam -= msg[:, None]
    np.exp(lam, out=lam)
    top = msg.reshape(n, -1).max(axis=1)
    msg -= top.reshape((n,) + (1,) * (msg.ndim - 1))
    return msg, top


@dataclass(frozen=True)
class _Arithmetic:
    """How tables combine (op), how a spin is summed out (sum_out), the
    ufunc, if any, that turns a log factor table into this arithmetic's in
    place (enter), and the function, if any, that the backward pass calls
    on each belief (flush)."""

    op: np.ufunc
    sum_out: Callable[[np.ndarray, np.ndarray, np.ndarray],
                      tuple[np.ndarray, np.ndarray]]
    enter: np.ufunc | None
    flush: Callable[[np.ndarray, np.ndarray], None] | None


def _flush(belief: np.ndarray, low: np.ndarray) -> None:
    """Set the entries of belief below the smallest normal float to 0,
    with low, of its shape, for their mask."""
    np.less(belief, _TINY, out=low)
    np.copyto(belief, 0.0, where=low)


_LINEAR = _Arithmetic(np.multiply, _sum_out_linear, np.exp, None)
_LOG = _Arithmetic(np.add, _sum_out_log, None, _flush)


def _factors(H: Hamiltonian) -> tuple[np.ndarray, float]:
    """Log field tables in spin order, then log coupler tables in edge order,
    each shifted to a largest entry of 0, to be divided by T, end to end in
    one flat array; and the sum of the shifts."""
    fields = H.alpha * H.h[:, None] * _SPIN_VALUES
    couplers = ((H.alpha * H.J)[:, None, None] * _PAIR_VALUES).reshape(-1, 4)
    bases = np.concatenate([(fields - fields.max(axis=1, keepdims=True)).ravel(),
                            (couplers - couplers.max(axis=1, keepdims=True)).ravel()])
    shift = np.abs(H.alpha * H.h).sum() + np.abs(H.alpha * H.J).sum()
    return bases, shift


def _scaled(sum_out, lnz: np.ndarray, *tables: np.ndarray) -> None:
    """sum_out(*tables), its log scale added to lnz."""
    lnz += sum_out(*tables)[1]


def _bind(calls: list[tuple], arith: _Arithmetic) -> tuple[list, list]:
    """A program: the calls (kind, arguments) of bound steps in one
    arithmetic, as a list of functions and a list of their arguments. A kind
    is a function, or the name of one that depends on the arithmetic; a
    name the arithmetic has no function for drops its calls."""
    functions = {"op": arith.op, "op_c": functools.partial(arith.op, order="C"),
                 "enter": arith.enter, "flush": arith.flush,
                 "sum_out": functools.partial(_scaled, arith.sum_out)}
    kept = [(functions.get(kind, kind), args) for kind, args in calls
            if functions.get(kind, kind) is not None]
    return [fn for fn, _ in kept], [args for _, args in kept]


_SIGNS = {1: _SPIN_VALUES, 2: _PAIR_VALUES.ravel()}


class _Bound:
    """The steps of order.schedule bound to one arena for passes over n
    temperatures: each step as its calls (kind, arguments), every argument a
    view of the arena or of the buffers of this object, made once. The
    programs, one per arithmetic (_bind), share these views.

    A pass's inputs go into the buffers first: bases (the Hamiltonian's log
    factor tables, as _factors gives them), inv_t (1 / T per temperature)
    and lnz (ln Z per T, from the shift up). The forward steps are bound at
    once and keep the cond tables (conds); the backward steps, once per list
    of groups they read (backward). programs holds each program by
    (arithmetic,) for the forward pass and (arithmetic, groups) for the
    backward."""

    def __init__(self, order: EliminationOrder, arena: _Arena, n: int):
        self.order, self.n = order, n
        tables = {key: arena.table(key, (n, e))
                  for step in order.schedule.forward for key, e in step.creates}
        self.conds = {step.reads[0]: tables[step.reads[0]]
                      for step in order.schedule.forward if isinstance(step, _SumOut)}
        n_spins = len(order.order)
        n_factors = sum(len(step.factors) for step in order.schedule.forward
                        if isinstance(step, _Enter))
        self.bases = np.empty(4 * n_factors - 2 * n_spins)
        self.inv_t, self.lnz = np.empty((n, 1)), np.empty(n)
        self.programs: dict[tuple, tuple[list, list]] = {}
        self.backward: dict[tuple, tuple[list, list]] = {}
        self.forward = []
        for step in order.schedule.forward:
            if isinstance(step, _Enter):
                for (key, e), f in zip(step.creates, step.factors):
                    at = 2 * f if f < n_spins else 4 * f - 2 * n_spins
                    self.forward += [(np.multiply, (self.inv_t, self.bases[at:at + e],
                                                    tables[key])),
                                     ("enter", (tables[key], tables[key]))]
                self.forward += [("op", (tables[dst], tables[src], tables[dst]))
                                 for dst, src in step.merges]
            elif isinstance(step, _Broadcast):
                a, b, out = (tables[key].reshape((n,) + view)
                             for key, view in zip(step.reads + (step.out,), step.views))
                if step.short:  # outermost, so the inner loop runs over the next run
                    axes = (0, len(step.views[2]), *range(1, len(step.views[2])))
                    self.forward.append(("op_c", (a.transpose(axes), b.transpose(axes),
                                                  out.transpose(axes))))
                else:
                    self.forward.append(("op", (a, b, out)))
            else:
                msg, scratch = (tables[key] for key, _ in step.creates)
                self.forward.append(("sum_out", (self.lnz,
                                                 tables[step.reads[0]].reshape(n, 2, -1),
                                                 msg, scratch)))

    def program(self, arith: _Arithmetic) -> tuple[list, list]:
        """The forward program in `arith`, bound at its first use."""
        if (arith,) not in self.programs:
            self.programs[arith,] = _bind(self.forward, arith)
        return self.programs[arith,]

    def _sum_run(self, table: np.ndarray, out: np.ndarray, pre: int, size: int,
                 post: int) -> tuple:
        """The call that sets out = table, seen as (pre, size, post) per
        temperature, summed over its middle axis as a product with ones.
        BLAS rounds a row of a matrix-vector product differently with the
        rows the product holds, so the product is a stack of matrices, one
        BLAS call each: each temperature's (pre, size) rows, or each (size,
        post) matrix. A temperature's sums never depend on the others."""
        n, ones = out.shape[0], self.order.ones[size]
        if post == 1:
            return np.matmul, (table.reshape(n, pre, size), ones, out.reshape(n, pre))
        return np.matmul, (ones, table.reshape(n * pre, size, post),
                           out.reshape(n * pre, post))

    def moments(self, arena: _Arena, arith: _Arithmetic,
                groups: tuple[tuple[int, ...], ...]) -> tuple[tuple[list, list], list]:
        """The backward program in `arith` that reads `groups`, the steps
        bound to arena, this object's own, at their first use; and the
        columns it fills: (ks, num, den) per group size, <group ks[j]> =
        num[j] / den[j].

        The backward steps turn each bucket's cond table into its belief in
        place; in log arithmetic, its entries below the smallest normal
        float then become 0. A group is read from the belief of the bucket
        of its earliest spin, whose scope holds the whole group: its last
        sum writes its marginal into a stack of the marginals of its size,
        which the last calls read at once."""
        if groups not in self.backward:
            self.backward[groups] = self._backward_calls(arena, groups)
        calls, reads = self.backward[groups]
        if (arith, groups) not in self.programs:
            self.programs[arith, groups] = _bind(calls, arith)
        return self.programs[arith, groups], reads

    def _backward_calls(self, arena: _Arena,
                        groups: tuple[tuple[int, ...], ...]) -> tuple[list, list]:
        """The calls (kind, arguments) of the backward steps that read
        groups, bound to arena, and the columns they fill."""
        n, schedule = self.n, self.order.schedule
        tables = {**self.conds, **{key: arena.table(key, (n, e))
                                   for step in schedule.backward
                                   for key, e in step.creates}}
        columns: dict[frozenset[int], list[int]] = {}
        for k, g in enumerate(groups):
            columns.setdefault(frozenset(g), []).append(k)
        ks = {size: [k for k, g in enumerate(groups) if len(g) == size]
              for size in (1, 2)}
        margs = {size: np.empty((len(ks[size]), n, 2 ** size)) for size in ks}
        marg = {k: margs[size][j] for size in ks for j, k in enumerate(ks[size])}
        mask = np.empty(n * max(c.shape[1] for c in self.conds.values()), dtype=bool)
        calls = []
        for step in schedule.backward:
            if isinstance(step, _Belief):
                belief = tables[step.reads[0]]
                if len(step.reads) > 1:
                    cond = belief.reshape(n, 2, -1)  # P(v | separator)
                    # times P(separator)
                    calls.append((np.multiply, (cond, tables[step.reads[1]][:, None],
                                                cond)))
                calls.append(("flush", (belief,
                                        mask[:belief.size].reshape(belief.shape))))
            elif isinstance(step, _Sum):
                calls.append(self._sum_run(tables[step.reads[0]],
                                           tables[step.creates[0][0]], *step.run))
            else:
                scratch = [tables[key].reshape(-1) for key, _ in step.creates]
                for g, sums in step.sums.items():
                    if g not in columns:
                        continue
                    first, *rest = columns[g]
                    p = tables[step.reads[0]]
                    for i, (t, (pre, size, post)) in enumerate(zip(scratch, sums), 1):
                        q = (marg[first] if i == len(sums)
                             else t[:n * pre * post].reshape(n, pre * post))
                        calls.append(self._sum_run(p, q, pre, size, post))
                        p = q
                    if not sums:  # the belief is the group's marginal
                        calls.append((np.copyto, (marg[first], p)))
                    calls += [(np.copyto, (marg[k], marg[first])) for k in rest]
        reads = []
        for size, stack in margs.items():
            if ks[size]:
                num, den = np.empty((len(ks[size]), n, 1)), np.empty((len(ks[size]), n))
                # stacked one row each, as the sums' products are
                calls += [(np.matmul, (stack[:, :, None, :], _SIGNS[size], num)),
                          (np.add.reduce, (stack, 2, None, den))]
                reads.append((ks[size], num, den))
        return calls, reads


def _forward(H: Hamiltonian, temps: np.ndarray, order: EliminationOrder,
             arith: _Arithmetic,
             arena: _Arena) -> tuple[dict[tuple, np.ndarray], np.ndarray]:
    """Run the forward program in `arith` of the steps bound to `arena` for
    len(temps) temperatures; returns the cond tables, (n_temps, entries) by
    key, and ln Z per T. The linear arithmetic raises _Underflow where its
    guard fires."""
    steps = arena.steps(order, len(temps))
    steps.bases[:], shift = _factors(H)
    np.divide(1.0, temps, out=steps.inv_t[:, 0])
    np.multiply(shift, steps.inv_t[:, 0], out=steps.lnz)
    for fn, args in zip(*steps.program(arith)):
        fn(*args)
    return steps.conds, steps.lnz.copy()


def _moments(H: Hamiltonian, temps: np.ndarray, order: EliminationOrder,
             arith: _Arithmetic, arena: _Arena,
             groups: list[tuple[int, ...]]) -> np.ndarray:
    """<product of sigma over g>(T) for each group g of one spin or of an
    edge's two spins: (n_temps, len(groups)); the forward program, then the
    backward program that reads groups."""
    _forward(H, temps, order, arith, arena)
    program, reads = arena.steps(order, len(temps)).moments(arena, arith, tuple(groups))
    for fn, args in zip(*program):
        fn(*args)
    out = np.empty((len(temps), len(groups)))
    for ks, num, den in reads:
        out[:, ks] = (num[:, :, 0] / den).T
    return out


def _split(run, temps: np.ndarray, order: EliminationOrder, arena: _Arena):
    """run(temps, order, arith, arena) in linear arithmetic. Where the guard
    flags some temperatures, linear runs again with each flagged row holding
    an unflagged temperature instead, until a run ends; the flagged ones run
    in log arithmetic, and their rows replace those. If it flags all of
    them, the log run's result is returned as it is."""
    low = np.zeros(len(temps), dtype=bool)
    while True:
        try:
            linear = run(np.where(low, temps[~low][0], temps), order, _LINEAR, arena)
            break
        except _Underflow as e:
            low |= e.flags
        if low.all():
            return run(temps, order, _LOG, arena)
    # the re-runs write their tables over the abandoned pass's, in the arena
    if low.any():
        linear[low] = run(temps[low], order, _LOG, arena)
    return linear


def _log_partition(H: Hamiltonian, temps: np.ndarray, order: EliminationOrder,
                   arith: _Arithmetic, arena: _Arena) -> np.ndarray:
    """ln Z per T: the forward program's scales."""
    return _forward(H, temps, order, arith, arena)[1]


def _curves(run, Hs: list[Hamiltonian], temps: np.ndarray,
            shape: tuple[int, ...]) -> np.ndarray:
    """run(H, piece, order, arith, arena) through _split for every H of one
    graph and every temperature piece of _jobs, as one (B, n_temps, *shape)
    array in input order. The jobs, one per (H, piece), run on _jobs's
    threads; each thread makes one arena at its first job of this call and
    keeps it for the others, and the arenas go when the call returns."""
    temps = np.asarray(temps, dtype=float)
    if not np.all(temps > 0):
        raise ValueError("all temperatures must be positive")
    order = elimination_order(common_graph(Hs))
    threads, piece = _jobs(order, len(temps), len(Hs), free_cpus())
    lent = threading.local()

    def job(H: Hamiltonian, i: int) -> np.ndarray:
        if not hasattr(lent, "arena"):
            lent.arena = _Arena(order.plan, min(piece, len(temps)))
        return _split(functools.partial(run, H), temps[i:i + piece], order, lent.arena)

    parts = run_calls([functools.partial(job, H, i) for H in Hs
                       for i in range(0, len(temps), piece)], threads)
    # an empty grid has no piece; the empty first part keeps the shape
    return np.concatenate([np.empty((0,) + shape), *parts]).reshape(
        (len(Hs), len(temps)) + shape)


def bte_moment_curves(Hs: list[Hamiltonian], temps: np.ndarray,
                      groups: list[tuple[int, ...]]) -> np.ndarray:
    """Exact <product of sigma_i over i in g>(T) of every H of one graph, for
    each group g of one spin or of a graph edge's two spins: (B, n_temps,
    len(groups)). ValueError, before any pass, for any other group."""
    graph = common_graph(Hs)
    readable = {(s,) for s in graph.spins} | set(graph.edges)
    groups = list(map(tuple, groups))
    for g in groups:
        if tuple(sorted(g)) not in readable:
            raise ValueError(f"group {g} is not one spin or a graph edge's two spins")
    return _curves(functools.partial(_moments, groups=groups), Hs, temps, (len(groups),))


def bte_log_partition_curve(H: Hamiltonian, temps: np.ndarray) -> np.ndarray:
    """ln Z(T) over a temperature grid, exact up to float rounding."""
    return _curves(_log_partition, [H], temps, ())[0]


def bte_sample(H: Hamiltonian, T: float, n: int,
               rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. exact Boltzmann samples: (n, n_spins) of +-1, graph spin order.

    Forward elimination, then each spin in reverse order is drawn from its
    cond table at the already-drawn separator.
    """
    if not T > 0:
        raise ValueError("T must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    order = elimination_order(H.graph)
    _jobs(order, 1, 1, 1)
    tables, _ = _split(functools.partial(_forward, H), np.array([float(T)]), order,
                       _Arena(order.plan, 1))
    bits: dict[int, np.ndarray] = {}
    for step in reversed(order.schedule.forward):
        if isinstance(step, _SumOut):
            cond = tables[step.reads[0]][0].reshape((2,) * len(step.scope))
            # P(v | separator) per sample, (2, n); (2,) at a root
            p = cond[(slice(None),) + tuple(bits[s] for s in step.scope[1:])]
            bits[step.scope[0]] = (rng.random(n) < p[1]).astype(np.int64)
    return 2 * np.stack([bits[s] for s in H.graph.spins], axis=1) - 1


class BteEngine:
    """Thermal moments by bucket-tree elimination: moment_curves stacks one
    curve per Hamiltonian of one graph in input order, and
    magnetization_curve is its one-element, all-spins case."""

    def check_capacity(self, graph: ChimeraGraph) -> None:
        """CapacityError, before any plan is made, if one temperature's
        tables on graph exceed BUDGET."""
        _jobs(elimination_order(graph), 1, 1, 1)

    def moment_curves(self, Hs: list[Hamiltonian], temps: np.ndarray,
                      groups: list[tuple[int, ...]]) -> np.ndarray:
        return bte_moment_curves(Hs, temps, groups)

    def magnetization_curve(self, H: Hamiltonian, temps: np.ndarray) -> np.ndarray:
        return self.moment_curves([H], temps, [(s,) for s in H.graph.spins])[0]
