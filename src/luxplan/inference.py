"""Recover light configurations from summed sensor readings.

Given per-luminaire contributions x and a reading K, the perfect-sum
search enumerates every on/off configuration whose on-contributions sum to
within epsilon of K (absolute tolerance). Ambiguity is scored with the
Jaccard index against ground truth. Multiple sensors are combined by
intersecting their candidate sets, with a per-luminaire majority vote as
the tie-break and as the fallback when the sets share nothing.

Readings are decoded a batch at a time (DecodeBatch). A batch's candidate
sets are one flat int64 array of configuration indices (bit i set when
luminaire i is on) plus R + 1 row offsets: row r's set is
candidates[offsets[r]:offsets[r + 1]], ascending. Scoring, voting and
fusion are array passes over those two arrays; only perfect_sum wraps
indices in LightConfig.

A batch may be a whole readings file: search_batch bounds its own memory
by matching the rows in chunks, each building the meet-in-the-middle
tables of only the vectors it reads. The candidate sets of every row are
held until the caller is done with them.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .planning import config_sums_batch
from .scene import MAX_LUMINAIRES
from .transport import LightConfig

log = logging.getLogger(__name__)

MAX_SOLVER_BITS = MAX_LUMINAIRES
# bytes of one search_batch row chunk's meet-in-the-middle tables and search
# arrays (see _chunk_bytes); one 24-luminaire vector's tables split in half
# take 160 KB, and at split 6 10 MB
TABLE_BUDGET_BYTES = 16 << 20
_ALL_BITS = (1 << MAX_SOLVER_BITS) - 1


def check_epsilon(epsilon: float) -> None:
    """Reject a tolerance that is not a finite nonnegative number."""
    if not math.isfinite(epsilon):
        raise ValueError(f"epsilon {epsilon} must be finite")
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")


def _validate(values: np.ndarray, targets: np.ndarray, epsilon: float) -> None:
    """Reject what the search cannot answer: a bad epsilon, a non-finite
    target, a non-finite or negative contribution, contributions whose
    total overflows and more than MAX_SOLVER_BITS luminaires."""
    check_epsilon(epsilon)
    bad = ~np.isfinite(targets)
    if bad.any():
        raise ValueError(f"target {targets[bad][0]} must be finite")
    if not np.isfinite(values).all():
        raise ValueError("contributions must be finite")
    if (values < 0).any():
        raise ValueError("contributions must be nonnegative")
    # then no subset sum is infinite, and no search key NaN
    with np.errstate(over="ignore"):
        total = values.sum(axis=-1)
    if not np.isfinite(total).all():
        raise ValueError("contributions must sum to a finite number")
    if values.shape[-1] > MAX_SOLVER_BITS:
        raise ValueError(
            f"{values.shape[-1]} luminaires exceed the solver limit of {MAX_SOLVER_BITS}"
        )


@dataclass(frozen=True)
class PerfectSumQuery:
    """One reading against one contribution vector."""

    contributions: tuple[float, ...]
    target: float
    epsilon: float

    def __post_init__(self) -> None:
        _validate(np.array(self.contributions, dtype=float), np.array([self.target], dtype=float),
                  self.epsilon)


@dataclass(frozen=True, eq=False)
class DecodeBatch:
    """Readings decoded together: row r reads targets[r] against the vector
    values[vector[r]], every row within the one epsilon. values is a (V, n)
    float array, from any array-like of V vectors of n luminaires."""

    values: np.ndarray
    vector: np.ndarray
    targets: np.ndarray
    epsilon: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        object.__setattr__(self, "vector", np.asarray(self.vector, dtype=np.intp))
        object.__setattr__(self, "targets", np.asarray(self.targets, dtype=float))
        if self.values.ndim != 2:
            raise ValueError("a batch's vectors must form a (V, n) array")
        if self.vector.shape != self.targets.shape or self.vector.ndim != 1:
            raise ValueError("a batch needs one vector number per target")
        _validate(self.values, self.targets, self.epsilon)

    @cached_property
    def contributions(self) -> tuple[tuple[float, ...], ...]:
        """The vectors as tuples of floats, which hash; built on first use."""
        return tuple(map(tuple, self.values.tolist()))


@dataclass(eq=False)
class InferenceResult:
    """The candidate sets of a batch's rows (see the module docstring) and,
    when truth was given, each row's Jaccard accuracy."""

    candidates: np.ndarray
    offsets: np.ndarray
    accuracy: np.ndarray | None = None

    @property
    def counts(self) -> np.ndarray:
        return np.diff(self.offsets)

    @property
    def no_solution(self) -> int:
        """How many rows have no candidate."""
        return int(np.count_nonzero(self.counts == 0))


@dataclass(eq=False)
class HalfSums:
    """Meet-in-the-middle tables of V contribution vectors of n luminaires,
    split after the first k.

    lo[v] holds the subset sums of vector v's first k luminaires, indexed
    by low mask. keys[v] holds the subset sums of its other luminaires,
    sorted ascending, as complex keys v + sum*1j: numpy orders complex
    numbers by real part, then imaginary, so the flat keys are every
    vector's table in (vector, sum) order, and neither part is rounded.
    hi_masks[v] holds the configuration bits of each (the high mask shifted
    past the low half). Every sum adds its luminaires in increasing bit
    order starting from 0.0.
    """

    lo: np.ndarray
    keys: np.ndarray
    hi_masks: np.ndarray


def half_sums_batch(values: np.ndarray, k: int | None = None) -> HalfSums:
    """The tables of each row of a (V, n) stack of contribution vectors,
    split after luminaire k (n // 2 by default)."""
    values = np.asarray(values, dtype=float)
    if k is None:
        k = values.shape[-1] // 2
    lo = config_sums_batch(values[:, :k])
    hi = config_sums_batch(values[:, k:])
    hi_masks = hi.argsort(axis=1, kind="stable")
    keys = np.empty(hi.shape, complex)
    keys.real = np.arange(len(hi))[:, None]
    keys.imag = np.take_along_axis(hi, hi_masks, axis=1)
    hi_masks <<= k
    return HalfSums(lo, keys, hi_masks)


def _work(n: int, k: int, rows: int, vectors: int) -> int:
    """The modeled steps of matching rows readings of vectors vectors at
    split k: each vector's 2^(n-k) high sums built and sorted, n-k+1 steps
    each; each row's 2^(k+1) queries formed and binary-searched, n-k+2
    steps each; and, off n // 2, each vector's n // 2 tables for the
    settle."""
    h = n // 2
    settle = vectors * ((1 << h) + (1 << n - h)) if k != h else 0
    return (n - k + 1) * (vectors << n - k) + (n - k + 2) * (rows << k + 1) + settle


def _chunk_bytes(n: int, k: int, rows: int, vectors: int) -> int:
    """The bytes a chunk of rows readings of vectors vectors holds at split
    k, beyond its matches: per row its search arrays, about eight 8-byte
    arrays as long as the low table; per vector its tables, about five
    8-byte arrays as long as the high table, and off n // 2 the settle's."""
    h = n // 2
    settle = 16 << n - h if k != h else 0
    return rows * (64 << k) + vectors * ((40 << n - k) + settle)


def _split(n: int, rows: int, vectors: int, splits: list[int]) -> int:
    """The split among splits of least _work, n // 2 on a tie; n // 2 when
    splits is empty."""
    h = n // 2
    return min(splits, key=lambda k: (_work(n, k, rows, vectors), k != h), default=h)


def search_chunks(vector: np.ndarray, n: int) -> list[tuple[int, int, int]]:
    """search_batch's chunks of rows reading vector[j], sorted by vector:
    (start, stop, split) each.

    The batch's rows per vector pick a split k0, among those at which one
    row and its vector fit TABLE_BUDGET_BYTES. At k0 each chunk takes the
    next rows while they and the tables of the vectors they read fit (at
    least one row a chunk). Each chunk then picks its own split from its
    rows per vector, among those at which it fits.
    """
    budget = TABLE_BUDGET_BYTES
    new = np.diff(vector, prepend=-1) != 0  # a vector's first row
    seen = new.cumsum()  # how many vectors rows 0..i read
    fits = [k for k in range(n + 1) if _chunk_bytes(n, k, 1, 1) <= budget]
    k0 = _split(n, len(vector), int(new.sum()), fits)
    per_row, per_vector = _chunk_bytes(n, k0, 1, 0), _chunk_bytes(n, k0, 0, 1)
    # the bytes of rows 0..i and of their vectors' tables
    held = per_row * np.arange(1, len(vector) + 1) + per_vector * seen
    chunks, a = [], 0
    while a < len(vector):
        # a chunk from row a holds row a's vector's tables anew
        stop = max(a + 1, int(held.searchsorted(budget + held[a] - per_row - per_vector, "right")))
        rows, vectors = stop - a, int(seen[stop - 1] - seen[a]) + 1
        k = _split(n, rows, vectors,
                   [k for k in range(n + 1) if _chunk_bytes(n, k, rows, vectors) <= budget] or [k0])
        chunks.append((a, stop, k))
        a = stop
    return chunks


def _widening(n: int) -> float:
    """How far, relative to M = the vector's total + |target| + epsilon, an
    n-luminaire window must widen at another split to keep every match of
    the split-n // 2 test.

    With u = 2^-53, each table sum adds at most n nonnegative terms left to
    right, so a configuration's two half sums add up to within about
    (n - 1) u M of its exact sum, at either split. If (t - e) - lo <= hi
    holds in floats at split n // 2, then t - e <= lo + hi + u M for that
    split's sums, so t - e <= lo' + hi' + ((2n - 2) u + u) M for the other
    split's; the widened test's two roundings, of ((t - e) - w) and of its
    difference with lo', add at most 3 u M more. (2n + 2) u M thus
    suffices; (4n + 8) u M leaves room for the rounding of M and of the
    product. The upper end is the mirror image.
    """
    return math.ldexp(4 * n + 8, -53)


def _settled(x: np.ndarray, vec: np.ndarray, masks: np.ndarray, low: np.ndarray,
             high: np.ndarray) -> np.ndarray:
    """Which candidate configurations masks[j] of vectors x[vec[j]] pass the
    split-n // 2 window test low[j] - lo <= hi <= high[j] - lo, lo and hi
    the sums of the configuration's two halves."""
    n = x.shape[1]
    h = n // 2
    lo = config_sums_batch(x[:, :h]).ravel()[vec << h | masks & (1 << h) - 1]
    hi = config_sums_batch(x[:, h:]).ravel()[vec << n - h | masks >> h]
    return (low - lo <= hi) & (hi <= high - lo)


def search_batch(batch: DecodeBatch) -> tuple[np.ndarray, np.ndarray]:
    """Every configuration index whose reading matches its row's target
    within epsilon: the flat candidates, each row's ascending, and the row
    offsets.

    Meet in the middle (Horowitz and Sahni, JACM 1974): with a vector's
    luminaires split after the first k, each low-half sum s admits the
    sorted high-half sums in [(target - epsilon) - s, (target + epsilon) -
    s], found by binary search. A reading takes 2^(k+1) searches of the
    2^(n-k) high sums once its vector's tables are built, so a vector read
    by many rows gets a smaller k (see search_chunks). The rows, sorted
    stably by vector, are matched a chunk at a time: a chunk builds the
    tables of the vectors it reads, and all its rows share one pair of
    searchsorted calls on the (vector, sum) keys.

    Every answer is the split-n // 2 search's, bit for bit. Off that
    split, the window is widened by _widening(n) times the vector's total
    plus |target| + epsilon, and each candidate inside it is then settled
    by the split-n // 2 test (_settled).
    """
    values = batch.values
    n = values.shape[1]
    low = batch.targets - batch.epsilon
    high = batch.targets + batch.epsilon
    parts = [np.zeros(0, np.int64)]
    by_vector = batch.vector.argsort(kind="stable")
    for a, stop, k in search_chunks(batch.vector[by_vector], n):
        rows = by_vector[a:stop]
        vec = batch.vector[rows]
        new = np.concatenate(([True], vec[1:] != vec[:-1]))  # a vector's first row
        x = values[vec[new]]
        vec = new.cumsum() - 1  # each row's vector among the chunk's tables
        halves = half_sums_batch(x, k)
        below, above = low[rows], high[rows]
        settle = k != n // 2
        if settle:
            wide = _widening(n) * (x.sum(axis=1)[vec] + np.abs(batch.targets[rows]) + batch.epsilon)
            below, above = below - wide, above + wide
        query = np.empty((len(rows), 1 << k), complex)
        query.real = vec[:, None]
        lo = halves.lo[vec]
        keys = halves.keys.ravel()
        np.subtract(below[:, None], lo, out=query.imag)
        first = keys.searchsorted(query)
        np.subtract(above[:, None], lo, out=query.imag)
        per_low = keys.searchsorted(query, "right")
        del query, lo
        per_low -= first
        per_row = per_low.sum(axis=1)
        per_low = per_low.ravel()
        ends = per_low.cumsum()
        # the matches of (row j, low mask m) are hi_masks.flat[first:last],
        # at positions ends - per_low ... ends - 1 of the chunk's matches
        first = first.ravel() + per_low
        first -= ends
        pos = np.repeat(first, per_low)
        pos += np.arange(len(pos))
        masks = halves.hi_masks.ravel()[pos]
        del pos, first, halves  # the next chunk's tables replace these rather than join them
        masks |= np.repeat(np.tile(np.arange(1 << k), len(vec)), per_low)
        owner = np.repeat(np.arange(len(rows)), per_row)
        if settle:
            keep = _settled(x, vec[owner], masks, low[rows][owner], high[rows][owner])
            owner, masks = owner[keep], masks[keep]
        masks |= rows[owner] << n
        parts.append(masks)
    # one sort puts the rows back in order, each row ascending
    candidates = np.concatenate(parts)
    del parts
    candidates.sort()
    offsets = candidates.searchsorted(np.arange(len(low) + 1) << n)
    candidates &= (1 << n) - 1
    return candidates, offsets


def perfect_sum(query: PerfectSumQuery) -> list[LightConfig]:
    """Every configuration whose reading matches the query, by ascending
    index: search_batch on the one-row batch."""
    batch = DecodeBatch([query.contributions], [0], [query.target], query.epsilon)
    n = len(query.contributions)
    return [LightConfig(m, n) for m in search_batch(batch)[0].tolist()]


def popcount(x: np.ndarray) -> np.ndarray:
    """The number of set bits of each nonnegative int64 entry, as uint8
    (np.bitwise_count needs numpy 2). Sums bits in pairs, nibbles and
    bytes, holding one temporary as large as x."""
    x = np.asarray(x, dtype=np.int64).astype(np.uint64)
    t = x >> np.uint64(1)
    t &= np.uint64(0x5555555555555555)
    x -= t
    np.right_shift(x, np.uint64(2), out=t)
    t &= np.uint64(0x3333333333333333)
    x &= np.uint64(0x3333333333333333)
    x += t
    np.right_shift(x, np.uint64(4), out=t)
    x += t
    x &= np.uint64(0x0F0F0F0F0F0F0F0F)
    x *= np.uint64(0x0101010101010101)
    x >>= np.uint64(56)
    return x.astype(np.uint8)


def _row_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Each row's values added left to right starting from 0.0, as a Python
    loop adds them. np.sum and np.add.reduceat add pairwise, which rounds
    differently; a cumsum along an axis does not, so rows of equal length
    are summed as the columns of one 2-D block."""
    counts = np.diff(offsets)
    sums = np.zeros(len(counts))
    # the distinct nonzero lengths; np.unique without options imports numpy.ma
    lengths = np.sort(counts[counts > 0])
    for k in lengths[np.diff(lengths, prepend=0) > 0].tolist():
        rows = np.flatnonzero(counts == k)
        sums[rows] = values[offsets[rows, None] + np.arange(k)].cumsum(axis=1)[:, -1]
    return sums


def jaccard_rows(truth: np.ndarray, candidates: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Each row's mean Jaccard similarity between its truth's on-set and
    each of its candidates'.

    Two all-off sets count as identical (score 1), and a row without
    candidates scores 0. The result equals, bit for bit, the mean a Python
    loop over the row's candidates computes.
    """
    counts = np.diff(offsets)
    t = np.repeat(np.asarray(truth, dtype=np.int64), counts)
    union = popcount(t | candidates)
    ratio = np.ones(len(t))
    np.divide(popcount(t & candidates), union, out=ratio, where=union > 0)
    acc = _row_sums(ratio, offsets)
    np.divide(acc, counts, out=acc, where=counts > 0)
    return acc


def jaccard_accuracy(truth: LightConfig, candidates: list[int]) -> float:
    """jaccard_rows for one truth and its candidate index list."""
    cands = np.array(candidates, dtype=np.int64)
    return float(jaccard_rows(np.array([truth.index]), cands, np.array([0, len(cands)]))[0])


def infer_reading(batch: DecodeBatch, truth: np.ndarray | None = None) -> InferenceResult:
    """Search every row of the batch and score each row against truth[r]
    when truth is known."""
    candidates, offsets = search_batch(batch)
    accuracy = jaccard_rows(truth, candidates, offsets) if truth is not None else None
    return InferenceResult(candidates=candidates, offsets=offsets, accuracy=accuracy)


def sensor_votes(batch: DecodeBatch, result: InferenceResult) -> np.ndarray:
    """Each row's per-luminaire majority vote over its candidates, as an
    (R, n) int8 array: +1 on, -1 off, 0 abstain.

    Luminaires outside the row's sensor range (x_i == 0) abstain, as do
    exact ties and rows without candidates.
    """
    n = batch.values.shape[1]
    counts = result.counts
    ones = np.zeros((len(counts), n), np.int64)
    full = counts > 0
    if full.any():
        # a row's candidates are one run of the flat array; runs of empty
        # rows are empty, so the nonempty rows' starts delimit every run
        starts = result.offsets[:-1][full]
        for i in range(n):
            ones[full, i] = np.add.reduceat(result.candidates >> i & 1, starts)
    votes = np.sign(2 * ones - counts[:, None]).astype(np.int8)
    votes[batch.values[batch.vector] <= 0] = 0
    return votes


def fuse_votes(votes: np.ndarray, trial: np.ndarray) -> np.ndarray:
    """Combine each trial's sensor votes: a positive sum means on, and a
    tie resolves to off. trial[r] numbers row r's trial from 0; the result
    is each trial's voted configuration index."""
    trial = np.asarray(trial, dtype=np.intp)
    if not len(trial) or votes.shape[0] != len(trial):
        raise ValueError("need at least one vote row, and one trial number per row")
    n = votes.shape[1]
    totals = np.zeros((trial.max() + 1, n), np.int64)
    np.add.at(totals, trial, votes)
    if log.isEnabledFor(logging.DEBUG):
        for row in totals:
            ties = np.flatnonzero(row == 0).tolist()
            if ties:
                log.debug("fuse_votes: ties on luminaires %s resolve to off", ties)
    return (totals > 0) @ (1 << np.arange(n, dtype=np.int64))


def fuse_candidates(
    candidates: np.ndarray,
    offsets: np.ndarray,
    trial: np.ndarray,
    voted: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Combine each trial's sensors by intersecting their candidate sets.

    Rows are sensors, trial[r] numbers row r's trial from 0, and voted[t]
    is trial t's fuse_votes result; a row's candidates must be distinct.
    Every sensor of a trial admits each member of its intersection. A lone
    member is the answer; among several, the one nearest the vote in
    Hamming distance wins, ties to the lowest configuration index. Only an
    empty intersection falls back to the vote. Returns each trial's answer
    and whether its intersection decided it (the "intersection" rule, else
    "vote").
    """
    trial = np.asarray(trial, dtype=np.int64)
    if not len(trial) or len(offsets) != len(trial) + 1:
        raise ValueError("need at least one candidate set, and one trial number per set")
    voted = np.asarray(voted, dtype=np.int64)
    # a mask is common to a trial when each of its rows holds it once
    keys, seen = np.unique(np.repeat(trial << MAX_SOLVER_BITS, np.diff(offsets)) | candidates,
                           return_counts=True)
    owner = keys >> MAX_SOLVER_BITS
    common = seen == np.bincount(trial, minlength=len(voted))[owner]
    keys, owner = keys[common] & _ALL_BITS, owner[common]
    # one sort by (trial, distance to the vote, index); a distance is at
    # most 24, so it takes 5 bits
    ranked = ((owner << 5 | popcount(keys ^ voted[owner])) << MAX_SOLVER_BITS) | keys
    ranked.sort()
    owner = ranked >> (MAX_SOLVER_BITS + 5)
    first = np.flatnonzero(np.diff(owner, prepend=-1))
    fused = voted.copy()
    fused[owner[first]] = ranked[first] & _ALL_BITS
    decided = np.zeros(len(voted), bool)
    decided[owner[first]] = True
    return fused, decided
