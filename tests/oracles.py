"""Independent oracles the tests check the package against."""

import numpy as np

from isingdec.core import CapacityError


def direct_rtot(H_clean, decoder, p_grid, chunk=4096):
    """r_tot(p) by direct enumeration of every corruption pattern.

    Sums p^s (1-p)^(N+M-s) r over all 2^(N+M) flip patterns — the ungrouped
    form of the sector polynomial; feasible only for small graphs. The
    decoder is called on (B, N+M) element matrices and must return one sign
    vector per row.
    """
    clean = np.concatenate([H_clean.h_vector(), H_clean.j_vector()])
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
