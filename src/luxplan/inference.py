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
from .transport import ContributionVector, LightConfig

log = logging.getLogger(__name__)

MAX_SOLVER_BITS = 24
# bytes of one search_batch row chunk's meet-in-the-middle tables, and of
# its search arrays; one 24-luminaire vector's tables take 96 KB
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
    target, a non-finite or negative contribution and more than
    MAX_SOLVER_BITS luminaires."""
    check_epsilon(epsilon)
    bad = ~np.isfinite(targets)
    if bad.any():
        raise ValueError(f"target {targets[bad][0]} must be finite")
    if not np.isfinite(values).all():
        raise ValueError("contributions must be finite")
    if (values < 0).any():
        raise ValueError("contributions must be nonnegative")
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

    @classmethod
    def from_vector(cls, x: ContributionVector, target: float, epsilon: float) -> "PerfectSumQuery":
        return cls(contributions=tuple(float(v) for v in x.values), target=target, epsilon=epsilon)


@dataclass(frozen=True, eq=False)
class DecodeBatch:
    """Readings decoded together: row r reads targets[r] against the vector
    contributions[vector[r]], every row within the one epsilon. All vectors
    have the same number of luminaires."""

    contributions: tuple[tuple[float, ...], ...]
    vector: np.ndarray
    targets: np.ndarray
    epsilon: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "vector", np.asarray(self.vector, dtype=np.intp))
        object.__setattr__(self, "targets", np.asarray(self.targets, dtype=float))
        if self.vector.shape != self.targets.shape or self.vector.ndim != 1:
            raise ValueError("a batch needs one vector number per target")
        _validate(self.values, self.targets, self.epsilon)

    @cached_property
    def values(self) -> np.ndarray:
        """The contributions as a (V, n) array."""
        n = len(self.contributions[0]) if self.contributions else 0
        return np.array(self.contributions, dtype=float).reshape(len(self.contributions), n)


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
    """Meet-in-the-middle tables of V contribution vectors of n luminaires.

    lo[v] holds the subset sums of vector v's low n // 2 luminaires,
    indexed by low mask. hi[v] holds the subset sums of its other
    luminaires, sorted ascending, and hi_masks[v] the configuration bits
    of each (the high mask shifted past the low half). Every sum adds its
    luminaires in increasing bit order starting from 0.0.
    """

    lo: np.ndarray
    hi: np.ndarray
    hi_masks: np.ndarray


def half_sums_batch(values: np.ndarray) -> HalfSums:
    """The tables of each row of a (V, n) stack of contribution vectors."""
    values = np.asarray(values, dtype=float)
    h = values.shape[-1] // 2
    lo = config_sums_batch(values[:, :h])
    hi = config_sums_batch(values[:, h:])
    hi_masks = hi.argsort(axis=1, kind="stable")
    hi.sort(axis=1)
    hi_masks <<= h
    return HalfSums(lo, hi, hi_masks)


def rows_per_chunk(n: int) -> int:
    """How many n-luminaire readings search_batch matches at once: each
    holds about eight 8-byte arrays as long as its vector's low table, and
    its vector's tables take at most five."""
    return max(1, TABLE_BUDGET_BYTES // (64 << n // 2))


def search_batch(batch: DecodeBatch) -> tuple[np.ndarray, np.ndarray]:
    """Every configuration index whose reading matches its row's target
    within epsilon: the flat candidates, each row's ascending, and the row
    offsets.

    Meet in the middle (Horowitz and Sahni, JACM 1974): each low-half sum s
    admits the sorted high-half sums in [(target - epsilon) - s,
    (target + epsilon) - s], found by binary search, so a reading takes
    O(n 2^(n/2)) steps plus one per match once the tables of its vector are
    built. The rows, sorted stably by vector, are matched rows_per_chunk at
    a time: a chunk builds the tables of the vectors it reads, and its rows
    of each vector share one pair of searchsorted calls.
    """
    values = batch.values
    n = values.shape[1]
    low = batch.targets - batch.epsilon
    high = batch.targets + batch.epsilon
    counts = np.zeros(len(low), np.int64)
    parts = [np.zeros(0, np.int64)]
    step = rows_per_chunk(n)
    by_vector = batch.vector.argsort(kind="stable")
    for a in range(0, len(low), step):
        rows = by_vector[a:a + step]
        vec = batch.vector[rows]
        new = np.concatenate(([True], vec[1:] != vec[:-1]))  # a vector's first row
        starts = np.flatnonzero(new).tolist()
        halves = half_sums_batch(values[vec[starts]])
        vec = new.cumsum() - 1  # each row's vector among the chunk's tables
        below = low[rows, None] - halves.lo[vec]
        above = high[rows, None] - halves.lo[vec]
        first = np.empty(below.shape, np.int64)
        last = np.empty(below.shape, np.int64)
        for table, s, e in zip(halves.hi, starts, starts[1:] + [len(vec)]):
            first[s:e] = table.searchsorted(below[s:e])
            last[s:e] = table.searchsorted(above[s:e], "right")
        per_low = last - first
        per_row = per_low.sum(axis=1)
        counts[rows] = per_row
        per_low = per_low.ravel()
        ends = per_low.cumsum()
        # the matches of (row j, low mask m) are hi_masks[vec[j], first:last],
        # at positions ends - per_low ... ends - 1 of the chunk's matches
        last += (vec * halves.hi.shape[1])[:, None]
        pos = np.repeat(last.ravel() - ends, per_low)
        pos += np.arange(len(pos))
        masks = halves.hi_masks.ravel()[pos]
        del pos, halves  # the next chunk's tables replace these rather than join them
        masks |= np.repeat(np.tile(np.arange(1 << n // 2), len(vec)), per_low)
        masks |= np.repeat(rows << n, per_row)
        parts.append(masks)
    # one sort puts the rows back in order, each row ascending
    candidates = np.concatenate(parts)
    del parts
    candidates.sort()
    candidates &= (1 << n) - 1
    offsets = np.zeros(len(low) + 1, np.int64)
    counts.cumsum(out=offsets[1:])
    return candidates, offsets


def perfect_sum_indices(query: PerfectSumQuery) -> list[int]:
    """Every configuration index whose reading matches the query, sorted
    ascending: search_batch on the one-row batch."""
    batch = DecodeBatch((query.contributions,), [0], [query.target], query.epsilon)
    return search_batch(batch)[0].tolist()


def perfect_sum(query: PerfectSumQuery) -> list[LightConfig]:
    """perfect_sum_indices, each index as a LightConfig."""
    n = len(query.contributions)
    return [LightConfig(m, n) for m in perfect_sum_indices(query)]


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
