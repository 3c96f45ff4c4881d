"""Independent oracles the tests check the package against."""

import itertools

import numpy as np
from scipy.special import comb

from isingdec import exact
from isingdec.core import CapacityError, Hamiltonian
from isingdec.sa import AnnealSchedule, _local_field_tables


def direct_rtot(H_clean, decoder, p_grid, chunk=4096):
    """r_tot(p) by direct enumeration of every corruption pattern.

    Sums p^s (1-p)^(N+M-s) r over all 2^(N+M) flip patterns — the ungrouped
    form of the sector polynomial; feasible only for small graphs. The
    decoder is called on (B, N+M) element matrices and must return one sign
    vector per row.
    """
    clean = np.concatenate([H_clean.h, H_clean.J])
    n_el = len(clean)
    if n_el > 26:
        raise CapacityError(f"2^{n_el} corruption patterns is too many")
    p_grid = np.asarray(p_grid, dtype=float)
    total = np.zeros(len(p_grid))
    codes = np.arange(1 << n_el, dtype=np.int64)
    for start in range(0, len(codes), chunk):
        block = codes[start:start + chunk]
        masks = (block[:, None] >> np.arange(n_el)) & 1
        s = masks.sum(axis=1)
        decoded = decoder(clean * (1 - 2 * masks))
        if decoded.ndim != 2:
            raise ValueError("direct_rtot needs a single-decode decoder")
        r = ((1.0 - decoded) / 2.0).mean(axis=-1)
        weights = np.array([
            p ** s * (1.0 - p) ** (n_el - s) for p in p_grid
        ])
        total += weights @ r
    return total


def elimination_cost(graph, order):
    """(induced width, table entries per temperature) of eliminating the
    spins of graph in order, by clique fill on an adjacency matrix built from
    the edge list: a spin's table spans it and its d remaining neighbours,
    2^(d + 1) entries, and those neighbours then form a clique."""
    index = {s: k for k, s in enumerate(graph.spins)}
    adj = np.zeros((len(index), len(index)), dtype=bool)
    for i, j in graph.edges:
        adj[index[i], index[j]] = adj[index[j], index[i]] = True
    width = entries = 0
    for s in order:
        nbrs = np.flatnonzero(adj[index[s]])
        width = max(width, len(nbrs))
        entries += 2 ** (len(nbrs) + 1)
        adj[np.ix_(nbrs, nbrs)] = True
        adj[nbrs, nbrs] = False
        adj[index[s], :] = adj[:, index[s]] = False
    return width, entries


def map_decoder(graph, alpha=1.0):
    """direct_rtot decoder: MAP signs (B, n) of (B, N+M) element rows, from
    the package's batch energy and MAP kernels."""
    n = graph.n_spins
    return lambda el: exact.batch_map_decode(
        exact.batch_energies(graph, el[:, :n], el[:, n:], alpha), n, alpha)


def mpm_decoder(graph, T, alpha=1.0):
    """direct_rtot decoder: MPM signs (B, n) at temperature T of (B, N+M)
    element rows, from the package's batch energy and MPM kernels."""
    n = graph.n_spins
    return lambda el: exact.batch_mpm_decode_curve(
        exact.batch_energies(graph, el[:, :n], el[:, n:], alpha), n, [T])[:, 0]


def brute_cell_classes(graph):
    """(canonical word of every coupler word, group order) of a single-cell
    graph, the word minimised over every element of its cell group in turn.

    The group is enumerated here: every permutation within side 0 {0..3} and
    within side 1 {4..7}, with and without the side swap, kept when it maps
    the active spins onto themselves. Words pack the coupler signs with edge
    0 as the most significant bit.
    """
    active = set(graph.spins)
    index = {edge: k for k, edge in enumerate(graph.edges)}
    m = graph.n_edges
    weights = 1 << np.arange(m - 1, -1, -1)
    words = np.arange(1 << m, dtype=np.int64)
    bits = (words[:, None] >> np.arange(m - 1, -1, -1)) & 1
    canonical = words.copy()
    order = 0
    for left in itertools.permutations(range(4)):
        for right in itertools.permutations(range(4, 8)):
            for perm in (left + right, right + left):
                if {perm[s] for s in active} != active:
                    continue
                order += 1
                # edge k moves to edge new[k], taking its bit along
                new = [index[tuple(sorted((perm[i], perm[j])))]
                       for i, j in graph.edges]
                np.minimum(canonical, bits @ weights[new], out=canonical)
    return canonical, order


def all_words_sector_means(H_clean, t_decode, chunk=4096):
    """Exact sector means of a nominal all-+1 instance, one decode per
    gauge-fixed coupler word.

    Every corrupted (h, J) pattern gauge-transforms to h = +1 with some
    coupler sign word, and decode signs transform covariantly, so the full
    2^(N+M) channel average reduces to one decode per coupler word plus
    bookkeeping of how many patterns of each sector the word's gauge orbit
    contains. Returns (map_means (S+1,), mpm_means (S+1, n_t_decode)) with
    S = N+M.
    """
    graph = H_clean.graph
    n = len(graph.spins)
    m = len(graph.edges)
    if m > 20:
        raise CapacityError(f"2^{m} coupler words is too many")
    t_decode = np.asarray(t_decode, dtype=float)

    tau = exact.config_matrix(n)                      # (2^n, n) gauges
    edge_parity = (
        (1 - exact._pair_products(graph, graph.edge_positions)) // 2).astype(np.int64)
    neg_h = ((1 - tau).sum(axis=1) // 2).astype(np.int64)     # (2^n,)
    parity_sum = edge_parity.sum(axis=1).astype(np.int64)
    n_el = n + m
    n_sectors = n_el + 1

    words = np.arange(1 << m, dtype=np.int64)
    mpm_acc = np.zeros((len(t_decode), n_sectors))
    map_acc = np.zeros(n_sectors)
    for start in range(0, len(words), chunk):
        block = words[start:start + chunk]
        bits = ((block[:, None] >> np.arange(m)) & 1)
        j_mat = (1 - 2 * bits).astype(np.float64)
        energies = exact.batch_energies(graph, np.ones((len(block), n)), j_mat,
                                        H_clean.alpha)
        mpm_signs = exact.batch_mpm_decode_curve(energies, n, t_decode)
        map_signs = exact.batch_map_decode(energies, n, H_clean.alpha)
        # sector of pattern (tau, word): flipped fields plus flipped couplers
        # of the gauge-transformed word
        s_tot = (neg_h + parity_sum)[None, :] \
            + bits.sum(axis=1, dtype=np.int64)[:, None] \
            - 2 * (bits @ edge_parity.T)                      # (W, 2^n)
        flat = (np.arange(len(block))[:, None] * n_sectors + s_tot).ravel()
        tau_sum = np.zeros((len(block), n, n_sectors))
        for i in range(n):
            weights = np.broadcast_to(tau[:, i], s_tot.shape).ravel()
            tau_sum[:, i, :] = np.bincount(
                flat, weights=weights, minlength=len(block) * n_sectors,
            ).reshape(len(block), n_sectors)
        mpm_acc += np.einsum("wti,wis->ts", mpm_signs, tau_sum)
        map_acc += np.einsum("wi,wis->s", map_signs, tau_sum)

    counts = comb(n_el, np.arange(n_sectors))
    mpm_means = 0.5 - mpm_acc.T / (2.0 * n * counts[:, None])
    map_means = 0.5 - map_acc / (2.0 * n * counts)
    return map_means, mpm_means


def per_update_run_batch(H: Hamiltonian, schedule: AnnealSchedule, n_runs: int,
                         rng: np.random.Generator,
                         checkpoints: np.ndarray | None = None):
    """Anneal n_runs replicas under a shared update sequence.

    All replicas visit the same spin at each update (sequential order) and
    share the temperature schedule; randomness (initial state, acceptance)
    is independent per replica. Returns (final states, snapshot stack) where
    snapshots are taken at the first update whose scheduled temperature is
    <= each checkpoint.

    The sequential chain that `sa._run_batch` reproduces: one numpy step per
    single-spin update, on a run-major (n_runs, n_spins) state.
    """
    h, idx, val = _local_field_tables(H)
    n = H.graph.n_spins
    alpha = H.alpha
    state = rng.integers(0, 2, size=(n_runs, n)) * 2 - 1
    snaps = None
    next_cp = 0
    if checkpoints is not None:
        snaps = np.empty((len(checkpoints), n_runs, n), dtype=np.int8)

    total = schedule.total_updates
    span = schedule.t_end - schedule.t_start
    denom = max(total - 1, 1)
    for u in range(total):
        t_sched = schedule.t_start + span * (u / denom)
        if snaps is not None:
            while next_cp < len(checkpoints) and t_sched <= checkpoints[next_cp]:
                snaps[next_cp] = state
                next_cp += 1
        i = u % n
        local = h[i] + state[:, idx[i]] @ val[i]
        d_energy = 2.0 * alpha * state[:, i] * local
        beta = 1.0 / (alpha * t_sched)
        p_accept = np.exp(-np.maximum(d_energy, 0.0) * beta)
        flip = rng.random(n_runs) < p_accept
        state[flip, i] = -state[flip, i]
    if snaps is not None:
        while next_cp < len(checkpoints):   # checkpoints at/below t_end
            snaps[next_cp] = state
            next_cp += 1
    return state, snaps
