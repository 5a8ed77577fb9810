"""Brute-force analysis of tiny instances: stationary measures, kernel
matrices, spectral gaps, elevation constants, schedule and dense-region
checks.

Canonical ordering: an ensemble of y replicas of length N is the integer
whose bit (a*N + i) is 1 iff sigma_i^a = +1. A single configuration uses the
same rule with y = 1.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .annealer import check, log_cosh_stable
from .energies import DimensionError

MAX_NY_TABLES = 16
MAX_NY_KERNEL = 12

# largest |qbar K - (qbar K)^T| accepted as detailed balance
REVERSIBILITY_TOL = 1e-10
ZERO_ENERGY_TOL = 1e-12  # largest energy counted as zero: the N0 sets and the energy gap B
# entries (512 KB of doubles) in one block of scratch: enumerate_qbar's scores
# and _detailed_balance_error's tiles
BLOCK = 1 << 16
# beta grid of compute_constants' kappa1 fit and spectral-gap bracket
BETA_GRID = np.linspace(2.0, 15.0, 14)
# validate_schedule passes when the criterion trace ends below -SCHEDULE_THRESHOLD
SCHEDULE_THRESHOLD = 10.0
# beta and gamma standing in for the beta -> inf and gamma -> inf limit laws
BETA_LARGE = 50.0
GAMMA_LARGE = 50.0


class SizeLimitError(ValueError):
    pass


class NonReversibleError(RuntimeError):
    """The kernel is not in detailed balance with qbar: a kernel bug."""


def _instance(model, n: int, y: int, limit: int) -> tuple[np.ndarray, np.ndarray]:
    """(energy, tot_e): the model's energy on each of its 2^N configurations and
    the total energy of each of its 2^{Ny} ensembles, after refusing N*y above limit."""
    if n * y > limit:
        raise SizeLimitError(f"N*y = {n * y} exceeds limit {limit}")
    energy = energy_table_of(model, n)
    return energy, total_energy_table(energy, n, y)


def enumerate_configs(n: int) -> np.ndarray:
    """(2^n, n) matrix of +-1 spins; row s has bit i of s at coordinate i."""
    idx = np.arange(2**n, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(n)) & 1
    return (2 * bits - 1).astype(np.int8)


def energy_table_of(model, n: int) -> np.ndarray:
    """Evaluate a model's energy on every configuration of {-1,+1}^N, N = model.n_spins."""
    if n != model.n_spins:
        raise DimensionError(f"N={n} but the model has {model.n_spins} spins")
    if hasattr(model, "table"):
        return np.asarray(model.table, dtype=np.float64)
    configs = enumerate_configs(n)
    return np.array([model.energy(row) for row in configs], dtype=np.float64)


def replica_states(n: int, y: int) -> np.ndarray:
    """(2^{Ny}, y) matrix: per-replica configuration index of each ensemble."""
    idx = np.arange(2 ** (n * y), dtype=np.int64)
    mask = (1 << n) - 1
    return np.stack([(idx >> (a * n)) & mask for a in range(y)], axis=1)


def total_energy_table(energy: np.ndarray, n: int, y: int) -> np.ndarray:
    states = replica_states(n, y)
    return energy[states].sum(axis=1)


def _over_replicas(ufunc, table: np.ndarray, y: int) -> np.ndarray:
    """ufunc of a per-configuration table over the y replicas of every ensemble:
    row s combines the rows of the configurations s >> (a*N), a = 0 .. y-1.

    Replica a's configuration is digit a of the ensemble index in base 2^N,
    so on the index split into y digits, most significant first, replica a's
    rows vary along axis y-1-a: a broadcast of y reshaped copies of the table.
    """
    out = table
    for a in range(1, y):
        out = ufunc(out, table.reshape((-1,) + (1,) * a + table.shape[1:]))
    return out.reshape((-1,) + table.shape[1:])


def fields_table(n: int, y: int) -> np.ndarray:
    """(2^{Ny}, N) int64 matrix of replica field sums sum_a sigma_i^a."""
    return _over_replicas(np.add, enumerate_configs(n).astype(np.int64), y)


def _field_classes(n: int, y: int):
    """(cls, class_fields): each ensemble's field class and the fields of each class.

    An ensemble's fields are 2c - y, c_i being the number of its replicas
    with spin +1 at coordinate i, and its class is sum_i c_i (y+1)^i, so the
    (y+1)^N classes hold every fields vector once: class_fields[cls] is
    fields_table(n, y). A quantity that depends on an ensemble only through
    its fields is computed once per class and gathered with cls.
    """
    up = enumerate_configs(n) > 0
    cls = _over_replicas(np.add, up @ (y + 1) ** np.arange(n, dtype=np.int64), y)
    counts = np.arange((y + 1) ** n, dtype=np.int64)[:, None] // (y + 1) ** np.arange(n) % (y + 1)
    return cls, 2 * counts - y


def _log_cosh_table(gamma: float, y: int) -> np.ndarray:
    """log cosh(gamma f) for the replica fields f in {-y, ..., y}, indexed by f + y."""
    return np.array([log_cosh_stable(gamma * f) for f in range(-y, y + 1)])


def _normalize_log(logw: np.ndarray) -> np.ndarray:
    m = logw.max()
    w = np.exp(logw - m)
    return w / w.sum()


def _field_term(fields: np.ndarray, gamma: float, y: int) -> np.ndarray:
    """sum_i log cosh(gamma f_i) on every row of a fields table."""
    return _log_cosh_table(gamma, y)[fields + y].sum(axis=1)


def _folded_qbar(tot_e: np.ndarray, cls: np.ndarray, class_fields: np.ndarray,
                 beta: float, gamma: float, y: int) -> np.ndarray:
    """qbar proportional to e^{-beta E} prod_i cosh(gamma f_i), its field term
    computed once per field class (_field_classes); mu_0 at beta = 0."""
    return _normalize_log(-beta * tot_e + _field_term(class_fields, gamma, y)[cls])


def _center_scores(gamma_fields: np.ndarray, n: int) -> np.ndarray:
    """(rows, 2^n) matrix of <gamma f, sigma> over the configurations sigma.

    Column c's sum adds the coordinates i = 0, 1, ... in turn, so it doubles
    the columns once per coordinate: c and c + 2^i share the first i terms and
    differ in the sign of the last. These are the sums of
    `gamma_fields @ enumerate_configs(n).T` in a BLAS that accumulates over the
    coordinates in order, but for any number of rows: numpy sends a product
    with one or a few rows to other BLAS kernels, which can round differently.
    """
    scores = np.empty((gamma_fields.shape[0], 2**n))
    first = gamma_fields[:, :1]
    np.subtract(0.0, first, out=scores[:, :1])
    scores[:, 1:2] = first
    for i in range(1, n):
        width, term = 1 << i, gamma_fields[:, i:i + 1]
        np.add(scores[:, :width], term, out=scores[:, width:2 * width])
        np.subtract(scores[:, :width], term, out=scores[:, :width])
    return scores


def enumerate_qbar(model, n: int, y: int, beta: float, gamma: float):
    """qbar two ways: direct sum over Sigma^{y+1} and the folded log-cosh form.

    Returns (qbar_direct, qbar_folded, Z) with Z the direct double sum. Both
    field terms are computed once per field class; the direct route scores
    about BLOCK (class, center) pairs at a time.
    """
    if n > 10:
        raise SizeLimitError("direct route limited to N <= 10")
    _, tot_e = _instance(model, n, y, MAX_NY_TABLES)
    cls, class_fields = _field_classes(n, y)

    # direct: log of the sum over the center sigma of exp(gamma <sigma, fields>)
    logw = np.empty(class_fields.shape[0])
    chunk = max(1, BLOCK >> n)
    for lo in range(0, logw.size, chunk):
        hi = min(lo + chunk, logw.size)
        scores = _center_scores(gamma * class_fields[lo:hi].astype(np.float64), n)
        m = scores.max(axis=1)
        scores -= m[:, None]
        np.exp(scores, out=scores)
        logw[lo:hi] = m + np.log(scores.sum(axis=1))
    logw_direct = logw[cls] - beta * tot_e
    m = logw_direct.max()
    w = np.exp(logw_direct - m)
    total = w.sum()

    qbar_folded = _folded_qbar(tot_e, cls, class_fields, beta, gamma, y)
    return w / total, qbar_folded, float(np.exp(m + math.log(total)))


def build_kernel_matrix(model, n: int, y: int, beta: float, gamma: float,
                        kernel: str = "combined") -> np.ndarray:
    """Row-stochastic single-flip kernel on the 2^{Ny} ensembles."""
    _, tot_e = _instance(model, n, y, MAX_NY_KERNEL)
    nbr, delta_e, delta_h = _flip_tables(tot_e, fields_table(n, y), n, y, gamma)
    moves = _flip_moves(delta_e, delta_h, beta, kernel)
    idx = np.arange(tot_e.size)
    k_mat = np.zeros((idx.size, idx.size))
    k_mat[idx[:, None], nbr] = moves
    k_mat[idx, idx] = 1.0 - k_mat.sum(axis=1)
    return k_mat


def _flip_tables(tot_e: np.ndarray, fields: np.ndarray, n: int, y: int, gamma: float):
    """(S, N*y) tables over the single-flip moves (s, bit): the neighbour
    s ^ (1 << bit), and the changes of the total energy and of
    sum_i log cosh(gamma f_i) that the flip makes. None depends on beta."""
    idx = np.arange(tot_e.size, dtype=np.int64)[:, None]
    bits = np.arange(n * y)
    nbr = idx ^ (1 << bits)
    delta_e = tot_e[nbr] - tot_e[:, None]
    f_old = fields[:, bits % n]
    f_new = f_old - 2 * (2 * ((idx >> bits) & 1) - 1)
    log_cosh = _log_cosh_table(gamma, y)
    return nbr, delta_e, log_cosh[f_new + y] - log_cosh[f_old + y]


def _flip_moves(delta_e: np.ndarray, delta_h: np.ndarray, beta: float, kernel: str) -> np.ndarray:
    """(S, N*y) table of the probability that the kernel flips bit b from state s."""
    if kernel == "combined":
        acc = np.exp(np.minimum(-beta * delta_e + delta_h, 0.0))
    elif kernel == "two-stage":
        acc = np.exp(np.minimum(delta_h, 0.0)) * np.exp(-beta * np.maximum(delta_e, 0.0))
    else:
        raise ValueError(f"unknown kernel {kernel!r}")
    return (1.0 / delta_e.shape[1]) * acc


def replica_swap(n: int, y: int) -> np.ndarray:
    """Index of each ensemble with replicas 0 and 1 exchanged (an involution).

    The total energy and the fields sum_a sigma_i^a are symmetric in the
    replicas, so qbar and both kernels are invariant under this permutation.
    """
    if y < 2:
        raise ValueError("replica_swap needs y >= 2")
    idx = np.arange(2 ** (n * y), dtype=np.int64)
    mask = (1 << n) - 1
    low, high = idx & mask, (idx >> n) & mask
    return idx ^ low ^ high ^ (low << n) ^ (high << n)


def _detailed_balance_error(matrix: np.ndarray, qbar: np.ndarray) -> float:
    """max |qbar_i K_ij - qbar_j K_ji|, or NaN if any term is NaN.

    Tile by tile, so that the transposed read stays in cache: a tile pair's
    four temporaries (the two fluxes, their difference and its absolute value)
    hold BLOCK entries together.
    """
    tile = max(1, math.isqrt(BLOCK // 4))
    worst = 0.0
    for i in range(0, qbar.size, tile):
        for j in range(0, i + 1, tile):
            flux = qbar[i:i + tile, None] * matrix[i:i + tile, j:j + tile]
            back = qbar[j:j + tile, None] * matrix[j:j + tile, i:i + tile]
            worst = np.maximum(worst, np.abs(flux - back.T).max())
    return float(worst)


def stationary_and_gap(matrix: np.ndarray, qbar: np.ndarray):
    """(stationary vector, 1 - psi, spectral gap psi), from the dense kernel.

    Requires the kernel reversible w.r.t. qbar. psi is the second smallest
    eigenvalue of the symmetrised Laplacian D^{1/2} (I - K) D^{-1/2}, whose
    diagonal is the escape rate sum_{j != i} K_ij, so small gaps do not cancel
    in 1 - lambda_2. The whole S x S Laplacian is diagonalised, with no use of
    the replica symmetry: it is the reference that spectral_gaps is checked
    against.
    """
    asym = _detailed_balance_error(matrix, qbar)
    if not asym <= REVERSIBILITY_TOL:
        raise NonReversibleError(f"detailed balance violated by {asym:.3e}")
    sq = np.sqrt(qbar)
    # -sqrt(q_i) K_ij / sqrt(q_j) off the diagonal
    lap = matrix.copy()
    np.fill_diagonal(lap, 0.0)
    escape = lap.sum(axis=1)
    lap *= -sq[:, None]
    lap /= sq
    np.fill_diagonal(lap, escape)
    psi = float(np.linalg.eigvalsh(lap)[1])
    return qbar @ matrix, 1.0 - psi, psi


def _flip_balance_error(moves: np.ndarray, nbr: np.ndarray, qbar: np.ndarray) -> float:
    """max over the moves of |qbar_s K(s, s^b) - qbar_{s^b} K(s^b, s)|, or NaN
    if any term is NaN."""
    flux = qbar[:, None] * moves
    return float(np.abs(flux - flux[nbr, np.arange(nbr.shape[1])]).max())


def _flip_swap_error(moves: np.ndarray, swap: np.ndarray, swapped_bit: np.ndarray) -> float:
    """max over the moves of |K(s, s^b) - K(Ps, Ps^Pb)|, Pb being bit b with
    replicas 0 and 1 exchanged, or NaN if any term is NaN."""
    return float(np.abs(moves - moves[swap[:, None], swapped_bit]).max())


class _FlipGap:
    """stationary_and_gap's psi, from the (S, N*y) moves table of one beta.

    For y >= 2 the Laplacian commutes with replica_swap, which leaves qbar and
    both kernels unchanged, so it splits into an even block, on the fixed
    states f and the sums (e_r + e_Pr)/sqrt 2, and an odd block, on the
    differences (e_r - e_Pr)/sqrt 2, each about half the size; psi is the
    second smallest of their spectra together. At y = 1 every state is fixed
    and the even block is the whole Laplacian.

    Only the even block is diagonalised every time. Its second eigenvalue
    psi_even is psi unless the odd block has an eigenvalue at or below it,
    which a Cholesky factorisation of the odd block minus psi_even * I rules
    out when it succeeds; when it fails, the odd block is diagonalised too.
    At gamma = 0 the replicas are independent and the odd block repeats
    psi_even, so which block gives psi is decided by rounding.

    The block layout depends only on (N, y), so it is built once: states in
    the order fixed, pairs, partners. Each move of a fixed or pair row is one
    entry of the even block, and a pair row's move to a pair or partner is
    also one entry of the odd block: for a pair row r and pair column d at
    most one of d and Pd is a flip neighbour of r, and r's partner never is.
    A fixed row's moves to pairs and partners fall in the upper triangle,
    which eigvalsh does not read, and are not written.

    A call is even_low, the checks and the even block's eigvalsh, then
    odd_psi, the odd block's test. even_low writes into the buffer it is
    given, so two betas' even blocks can be diagonalised on two threads;
    odd_psi writes self.odd, so odd halves run one at a time.
    """

    def __init__(self, nbr: np.ndarray, n: int, y: int):
        size, nbits = nbr.shape
        self.nbr = nbr
        self.swap = replica_swap(n, y) if y >= 2 else None
        idx = np.arange(size)
        swap = idx if self.swap is None else self.swap
        fixed = np.flatnonzero(swap == idx)
        pairs = np.flatnonzero(idx < swap)
        nf, nr = fixed.size, pairs.size
        h = nf + nr
        self.rows = np.concatenate([fixed, pairs])
        self.pairs = pairs
        pos = np.empty(size, dtype=np.int64)
        pos[np.concatenate([self.rows, swap[pairs]])] = idx
        bits = np.arange(nbits)
        self.swapped_bit = np.where(bits < 2 * n, (bits + n) % (2 * n), bits)
        row = np.broadcast_to(pos[:, None], nbr.shape).ravel()
        col = pos[nbr].ravel()
        partner = col >= h
        col = np.where(partner, col - nr, col)
        pair_row = (row >= nf) & (row < h)
        # flat positions in the moves table, in the block and a factor for each
        # entry; a pair row's fixed columns carry sqrt 2: (L_rf + L_Prf) / sqrt 2
        self.even_src = np.flatnonzero(pair_row | (row < nf) & (col < nf))
        self.even_at = row[self.even_src] * h + col[self.even_src]
        self.even_scale = np.where(pair_row[self.even_src] & (col[self.even_src] < nf),
                                   math.sqrt(2.0), 1.0)
        self.odd_src = np.flatnonzero(pair_row & (col >= nf))
        self.odd_at = (row[self.odd_src] - nf) * nr + col[self.odd_src] - nf
        # odd block: (e_r - e_Pr) / sqrt 2, so a pair row's partner columns enter with -1
        self.odd_sign = np.where(partner[self.odd_src], -1.0, 1.0)
        self.even, self.odd = np.zeros((h, h)), np.zeros((nr, nr))

    def __call__(self, moves: np.ndarray, qbar: np.ndarray) -> float:
        return self.odd_psi(moves, qbar, self.even_low(moves, qbar, self.even))

    def _laplacian(self, moves: np.ndarray, qbar: np.ndarray) -> np.ndarray:
        """-sqrt(q_s) K(s, t) / sqrt(q_t) for every move, flattened."""
        sq = np.sqrt(qbar)
        return (moves * -sq[:, None] / sq[self.nbr]).ravel()

    def even_low(self, moves: np.ndarray, qbar: np.ndarray, even: np.ndarray) -> np.ndarray:
        """The two lowest eigenvalues of the even block, after the balance and
        swap checks; the block is written into even, an array shaped like
        self.even, so that two betas' even blocks can be diagonalised at once."""
        asym = _flip_balance_error(moves, self.nbr, qbar)
        if not asym <= REVERSIBILITY_TOL:
            raise NonReversibleError(f"detailed balance violated by {asym:.3e}")
        if self.swap is not None:
            asym = _flip_swap_error(moves, self.swap, self.swapped_bit)
            if not asym <= REVERSIBILITY_TOL:
                raise NonReversibleError(f"kernel not invariant under the swap by {asym:.3e}")
        lap = self._laplacian(moves, qbar)
        np.put(even, self.even_at, lap[self.even_src] * self.even_scale)
        np.fill_diagonal(even, moves.sum(axis=1)[self.rows])
        return np.linalg.eigvalsh(even, UPLO="L")[:2]

    def odd_psi(self, moves: np.ndarray, qbar: np.ndarray, low: np.ndarray) -> float:
        """psi from low, the even block's two lowest eigenvalues (even_low of
        the same moves and qbar), and the odd block, written into self.odd."""
        if self.pairs.size:
            lap = self._laplacian(moves, qbar)
            np.put(self.odd, self.odd_at, lap[self.odd_src] * self.odd_sign)
            if not self._odd_above(moves.sum(axis=1)[self.pairs], low[1]):
                low = np.sort(np.append(low, np.linalg.eigvalsh(self.odd)[0]))
        return float(low[1])

    def _odd_above(self, escape: np.ndarray, level: float) -> bool:
        """Whether every eigenvalue of the odd block exceeds level: the block
        minus level * I has a Cholesky factor. The odd block keeps its escape
        diagonal on return."""
        np.fill_diagonal(self.odd, escape - level)
        try:
            np.linalg.cholesky(self.odd)
            return True
        except np.linalg.LinAlgError:
            return False
        finally:
            np.fill_diagonal(self.odd, escape)


def compute_elevation_m(model, n: int, y: int) -> float:
    """Elevation constant: max over state pairs of the minimal path peak of
    the total replica energy, minus the endpoint energies.

    Minimax-path search: activate ensembles by increasing total energy and
    union with active neighbors; two states' path bottleneck is the threshold
    at which their components merge.
    """
    return _elevation(_instance(model, n, y, MAX_NY_KERNEL)[1], n * y)


def _elevation(weight: np.ndarray, nbits: int) -> float:
    """compute_elevation_m on the total-energy table of the 2^nbits ensembles;
    low[r] is the lowest energy of the component rooted at r."""
    parent, low = list(range(weight.size)), [math.inf] * weight.size
    active = np.zeros(weight.size, dtype=bool)

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    m_best = 0.0
    for v in np.argsort(weight, kind="stable"):
        v = int(v)
        t = low[v] = float(weight[v])
        active[v] = True
        for b in range(nbits):
            u = v ^ (1 << b)
            if not active[u]:
                continue
            ru, rv = find(u), find(v)
            if ru == rv:
                continue
            m_best = max(m_best, t - low[ru] - low[rv])
            parent[ru] = rv
            low[rv] = min(low[rv], low[ru])
    return m_best


@dataclass
class ConvergenceConstants:
    B: float | None
    Bprime: float
    m: float
    kappa1: float
    psi_values: list
    N0: np.ndarray
    tildeN0: np.ndarray
    c: float
    C: float


def _n0_sets(tot_e: np.ndarray, n: int, y: int):
    """Zero-energy ensembles, and those of them with all replicas equal: the
    aligned ensemble of configuration c is c * sum_a 2^{aN}, ascending in c."""
    aligned = np.arange(2**n, dtype=np.int64) * sum(1 << (a * n) for a in range(y))
    return np.flatnonzero(tot_e <= ZERO_ENERGY_TOL), aligned[tot_e[aligned] <= ZERO_ENERGY_TOL]


def _qbars_and_gaps(tot_e: np.ndarray, n: int, y: int, gamma: float, betas, kernel: str):
    """qbar and psi at each beta, from one set of field classes, flip tables and block layout.

    The main thread and one worker diagonalise the even blocks of alternate
    betas at once, each in its own buffer; then the main thread runs the odd
    halves in beta order. So the gaps, and the error raised, are those of
    _FlipGap called at each beta in turn: the error of the lowest failing beta.
    """
    cls, class_fields = _field_classes(n, y)
    qbars = [_folded_qbar(tot_e, cls, class_fields, beta, gamma, y) for beta in betas]
    nbr, delta_e, delta_h = _flip_tables(tot_e, class_fields[cls], n, y, gamma)
    gap = _FlipGap(nbr, n, y)

    def moves(k):
        return _flip_moves(delta_e, delta_h, betas[k], kernel)

    def even_lows(ks, even):
        """{k: even_low at beta k} over ks in turn; an error ends the run as its value."""
        lows = {}
        for k in ks:
            try:
                lows[k] = gap.even_low(moves(k), qbars[k], even)
            except Exception as err:  # re-raised in beta order below
                lows[k] = err
                break
        return lows

    with ThreadPoolExecutor(max_workers=1) as pool:
        odd_ks = pool.submit(even_lows, range(1, len(qbars), 2), np.zeros_like(gap.even))
        lows = even_lows(range(0, len(qbars), 2), gap.even)
        lows.update(odd_ks.result())
    psis = []
    for k, qbar in enumerate(qbars):
        if isinstance(lows[k], Exception):
            raise lows[k]
        psis.append(gap.odd_psi(moves(k), qbar, lows[k]))
    return qbars, psis


def spectral_gaps(model, n: int, y: int, gamma: float, betas,
                  kernel: str = "combined") -> list[float]:
    """The spectral gap psi of the kernel at each beta.

    Each gap is stationary_and_gap's psi, taken from the (S, N*y) table of
    single-flip move probabilities: no S x S kernel is built. The neighbour,
    energy-change and field-change tables and the block layout are built
    once for all betas. The off-diagonal Laplacian entries are the dense
    path's to the bit; the escape rates are summed over the moves, so psi
    can differ from the dense path's in its last bits. For y >= 2 each beta
    costs one eigvalsh of the even replica-exchange block and a Cholesky test
    of the odd one, which is diagonalised only if it may hold psi (_FlipGap).
    Alternate betas' even blocks are diagonalised on two threads at once, and
    the odd tests run one after another in beta order; the gaps, and the error
    of the lowest failing beta, are those of a beta-by-beta loop. With a
    multi-threaded BLAS the two threads compete for its thread pool, so pin
    BLAS to one thread (OPENBLAS_NUM_THREADS=1) for exact-engine work.
    """
    _, tot_e = _instance(model, n, y, MAX_NY_KERNEL)
    return _qbars_and_gaps(tot_e, n, y, gamma, betas, kernel)[1]


def compute_constants(model, n: int, y: int, gamma: float,
                      kernel: str = "combined") -> ConvergenceConstants:
    """Per-instance constants: energy gap B, interaction gap B', elevation m,
    a fitted kappa1, and the spectral-gap bracket [c, C] over BETA_GRID.

    m and the gaps are compute_elevation_m's and spectral_gaps', on this function's tables.
    """
    energy, tot_e = _instance(model, n, y, MAX_NY_KERNEL)
    nonzero = energy[energy > ZERO_ENERGY_TOL]
    b_const = float(nonzero.min()) if nonzero.size else None
    b_prime = log_cosh_stable(gamma * y) - log_cosh_stable(gamma * (y - 2))
    m = _elevation(tot_e, n * y)
    n0, tilde = _n0_sets(tot_e, n, y)
    qbars, psis = _qbars_and_gaps(tot_e, n, y, gamma, BETA_GRID, kernel)

    # kappa1: smallest constant with ||qbar_b1 - qbar_b2||_inf <= kappa1 e^{-b1 B}
    kappa1 = 1.0
    if b_const is not None:
        for b1, prev, cur in zip(BETA_GRID, qbars, qbars[1:]):
            kappa1 = max(kappa1, np.abs(cur - prev).max() * math.exp(b1 * b_const))

    psi_values = [(float(beta), psi) for beta, psi in zip(BETA_GRID, psis)]
    scaled = [psi * math.exp(beta * m) for beta, psi in zip(BETA_GRID, psis)]
    return ConvergenceConstants(B=b_const, Bprime=float(b_prime), m=float(m),
                                kappa1=float(kappa1), psi_values=psi_values,
                                N0=n0, tildeN0=tilde, c=float(min(scaled)), C=float(max(scaled)))


@dataclass
class ScheduleVerdict:
    passed: bool
    weight_sum_grows: bool
    final_value: float
    trailing_slope: float

    def as_dict(self):
        return {
            "verdict": "PASS" if self.passed else "FAIL",
            "final_value": self.final_value,
            "trailing_slope": self.trailing_slope,
            "weight_sum_grows": self.weight_sum_grows,
            "threshold": SCHEDULE_THRESHOLD,
            "note": "finite-horizon proxy for an asymptotic condition",
        }


def validate_schedule(stages, m: float, kappa1: float) -> ScheduleVerdict:
    """Finite-horizon check of the convergence criterion
    -sum_k T_k e^{-beta_k m} + n log kappa1 -> -infinity.

    stages: at least two [beta_k, T_k] pairs, beta_k "real" and T_k "real >= 1"
    (annealer.check's rules); m and kappa1 finite, kappa1 > 0. A ValueError refuses
    any other input. PASS requires the trace to end below -SCHEDULE_THRESHOLD with
    a negative trailing-quarter slope.
    """
    try:
        stages = [(check(f"stage {k} beta", b, "real"), check(f"stage {k} T", t, "real >= 1"))
                  for k, (b, t) in enumerate(stages)]
    except TypeError as err:
        raise ValueError(f"each stage must be a [beta, T] pair: {err}") from err
    if len(stages) < 2:
        raise ValueError(f"a schedule needs at least two stages, got {len(stages)}")
    if not (math.isfinite(m) and math.isfinite(kappa1) and kappa1 > 0):
        raise ValueError(f"m and kappa1 must be finite and kappa1 positive, got {m}, {kappa1}")
    betas, lengths = np.array(stages, dtype=np.float64).T
    weights = lengths * np.exp(-betas * m)
    weight_sum = np.cumsum(weights)
    n_idx = np.arange(1, betas.size + 1, dtype=np.float64)
    trace = -weight_sum + n_idx * math.log(kappa1)
    q = max(2, betas.size // 4)
    tail = trace[-q:]
    slope = float(np.polyfit(np.arange(q), tail, 1)[0])
    passed = bool(trace[-1] < -SCHEDULE_THRESHOLD and slope < 0)
    grows = bool(weight_sum[-1] > weight_sum[max(0, 3 * betas.size // 4) - 1])
    return ScheduleVerdict(passed=passed, weight_sum_grows=grows,
                           final_value=float(trace[-1]), trailing_slope=slope)


def _conditional_linf(law: np.ndarray, ref: np.ndarray) -> float:
    """max |law - ref| between two weight vectors on the same states, each
    normalised to sum 1; NaN when there are no states."""
    if not law.size:
        return math.nan
    return float(np.abs(law / law.sum() - ref / ref.sum()).max())


def limit_distribution_check(model, n: int, y: int, gamma: float) -> dict:
    """Concentration of qbar at beta = BETA_LARGE (on N0, proportional to
    mu_0) and at beta = BETA_LARGE, gamma = GAMMA_LARGE (uniform on the
    aligned zero-energy set). With no zero-energy ensemble both sets are
    empty: the mass outside each is 1.0 and each distance NaN."""
    _, tot_e = _instance(model, n, y, MAX_NY_TABLES)
    cls, class_fields = _field_classes(n, y)
    n0, tilde = _n0_sets(tot_e, n, y)
    qbar = _folded_qbar(tot_e, cls, class_fields, BETA_LARGE, gamma, y)
    mu = _folded_qbar(tot_e, cls, class_fields, 0.0, gamma, y)
    qbar_gg = _folded_qbar(tot_e, cls, class_fields, BETA_LARGE, GAMMA_LARGE, y)
    return {
        "beta_large": BETA_LARGE,
        "gamma": gamma,
        "gamma_large": GAMMA_LARGE,
        "mass_outside_N0": float(1.0 - qbar[n0].sum()),
        "linf_conditional_vs_mu0": _conditional_linf(qbar[n0], mu[n0]),
        "mass_outside_tildeN0_at_gamma_large": float(1.0 - qbar_gg[tilde].sum()),
        "linf_vs_uniform_on_tildeN0": _conditional_linf(qbar_gg[tilde], np.ones(tilde.size)),
        "N0_size": int(n0.size),
        "tildeN0_size": int(tilde.size),
    }


def hamming_table(n: int, center_index: int) -> np.ndarray:
    """Hamming distance of every configuration index to the given one."""
    configs = enumerate_configs(n)
    return np.count_nonzero(configs != configs[center_index], axis=1)


def dense_region_mass(model, n: int, y: int, gamma: float, center_index: int,
                      radius: int) -> float:
    """qbar mass at beta = BETA_LARGE of the event that every replica lies in
    the Hamming ball of the given radius around the center configuration."""
    _, tot_e = _instance(model, n, y, MAX_NY_TABLES)
    qbar = _folded_qbar(tot_e, *_field_classes(n, y), BETA_LARGE, gamma, y)
    event = _over_replicas(np.logical_and, hamming_table(n, center_index) <= radius, y)
    return float(qbar[event].sum())
