"""Recover light configurations from summed sensor readings.

Given per-luminaire contributions x and a reading K, the perfect-sum
search enumerates every on/off configuration whose on-contributions sum to
within epsilon of K (absolute tolerance). Ambiguity is scored with the
Jaccard index against ground truth. Multiple sensors are combined by
intersecting their candidate sets, with a per-luminaire majority vote as
the tie-break and as the fallback when the sets share nothing.

A candidate set is a list of configuration indices (bit i set when
luminaire i is on) sorted ascending; only perfect_sum wraps them in
LightConfig.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .planning import config_sums_batch
from .transport import ContributionVector, LightConfig

log = logging.getLogger(__name__)

MAX_SOLVER_BITS = 24
# bytes of meet-in-the-middle tables built at once; one 24-luminaire
# vector's tables take 96 KB
TABLE_BUDGET_BYTES = 16 << 20
# a uint64 configuration index seen as its 8 little-endian bytes
_MASK_BYTES = np.dtype((np.uint8, 8))


@dataclass(frozen=True)
class PerfectSumQuery:
    contributions: tuple[float, ...]
    target: float
    epsilon: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.target) and math.isfinite(self.epsilon)):
            raise ValueError(f"target {self.target} and epsilon {self.epsilon} must be finite")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        if not all(map(math.isfinite, self.contributions)):
            raise ValueError("contributions must be finite")
        if self.contributions and min(self.contributions) < 0:
            raise ValueError("contributions must be nonnegative")
        if len(self.contributions) > MAX_SOLVER_BITS:
            raise ValueError(
                f"{len(self.contributions)} luminaires exceed the solver limit of {MAX_SOLVER_BITS}"
            )

    @classmethod
    def from_vector(cls, x: ContributionVector, target: float, epsilon: float) -> "PerfectSumQuery":
        return cls(contributions=tuple(float(v) for v in x.values), target=target, epsilon=epsilon)


@dataclass(frozen=True)
class VoteVector:
    """Per-luminaire vote from one sensor: +1 on, -1 off, 0 abstain."""

    votes: tuple[int, ...]

    def __post_init__(self) -> None:
        if not {-1, 0, 1}.issuperset(self.votes):
            raise ValueError("votes must be -1, 0, or +1")


@dataclass
class InferenceResult:
    candidates: list[int]
    accuracy: float | None = None
    no_solution: bool = False


@dataclass(eq=False)
class HalfSums:
    """Meet-in-the-middle tables of one contribution vector of n luminaires.

    lo holds the subset sums of the low n // 2 luminaires, indexed by low
    mask, and lo_masks those masks. hi holds the subset sums of the other
    luminaires, sorted ascending, and hi_masks the configuration bits of
    each (the high mask shifted past the low half). Every sum adds its
    luminaires in increasing bit order starting from 0.0.
    """

    lo: np.ndarray
    hi: np.ndarray
    hi_masks: np.ndarray
    lo_masks: np.ndarray


def half_sums_batch(values: np.ndarray) -> list[HalfSums]:
    """The tables of each row of a (V, n) stack of contribution vectors."""
    values = np.asarray(values, dtype=float)
    h = values.shape[-1] // 2
    lo = config_sums_batch(values[:, :h])
    hi = config_sums_batch(values[:, h:])
    order = hi.argsort(axis=1, kind="stable")
    hi.sort(axis=1)
    order <<= h
    lo_masks = np.arange(1 << h)
    return [HalfSums(*row, lo_masks) for row in zip(lo, hi, order)]


def tables_per_batch(n: int) -> int:
    """How many n-luminaire vectors' tables fit TABLE_BUDGET_BYTES."""
    h = n // 2
    return max(1, TABLE_BUDGET_BYTES // (8 * ((1 << h) + 2 * (1 << (n - h)))))


def perfect_sum_indices(query: PerfectSumQuery, halves: HalfSums | None = None) -> list[int]:
    """Every configuration index whose reading matches the target within
    epsilon, sorted ascending.

    Meet in the middle (Horowitz and Sahni, JACM 1974): each low-half sum s
    admits the sorted high-half sums in [target - epsilon - s,
    target + epsilon - s], found by binary search, so a query takes
    O(n 2^(n/2)) steps plus one per match once the tables of its
    contribution vector are built. `halves` are those tables, built by
    half_sums_batch; without them the query builds its own.
    """
    if halves is None:
        (halves,) = half_sums_batch(np.array([query.contributions], dtype=float))
    lo, hi = halves.lo, halves.hi
    first = hi.searchsorted((query.target - query.epsilon) - lo)
    last = hi.searchsorted((query.target + query.epsilon) - lo, "right")
    counts = last - first
    ends = counts.cumsum()
    total = ends[-1]
    if not total:
        return []
    # the matches of low mask m are hi_masks[first[m]:last[m]], at
    # positions ends[m] - counts[m] ... ends[m] - 1 of the result
    last -= ends
    pos = np.repeat(last, counts)
    pos += np.arange(total)
    masks = halves.hi_masks[pos]
    masks |= np.repeat(halves.lo_masks, counts)
    masks.sort()
    return masks.tolist()


def perfect_sum(query: PerfectSumQuery, halves: HalfSums | None = None) -> list[LightConfig]:
    """perfect_sum_indices, each index as a LightConfig."""
    n = len(query.contributions)
    return [LightConfig(m, n) for m in perfect_sum_indices(query, halves)]


def jaccard_accuracy(truth: LightConfig, candidates: list[int]) -> float:
    """Mean Jaccard similarity between the truth's on-set and each
    candidate index's.

    Two all-off sets count as identical (score 1). An empty candidate list
    scores 0 by convention.
    """
    if not candidates:
        log.debug("jaccard_accuracy: no candidates, scoring 0")
        return 0.0
    t = truth.index
    total = 0.0
    for cand in candidates:
        union = (t | cand).bit_count()
        total += (t & cand).bit_count() / union if union else 1.0
    return total / len(candidates)


def infer_reading(
    query: PerfectSumQuery,
    truth: LightConfig | None = None,
    halves: HalfSums | None = None,
) -> InferenceResult:
    """Run the perfect-sum search, on the vector's tables when given, and
    score it when truth is known."""
    candidates = perfect_sum_indices(query, halves)
    accuracy = jaccard_accuracy(truth, candidates) if truth is not None else None
    return InferenceResult(candidates=candidates, accuracy=accuracy, no_solution=not candidates)


def sensor_votes(x: ContributionVector, candidates: list[int]) -> VoteVector:
    """One sensor's per-luminaire majority vote over its candidate indices.

    Luminaires outside the sensor's range (x_i == 0) abstain, as do exact
    ties and empty candidate lists.
    """
    k = len(candidates)
    # row j of the unpacked bytes holds candidate j's bits, luminaire i in
    # column i
    bits = np.unpackbits(np.array(candidates, "<u8").view(_MASK_BYTES), axis=1, count=x.n,
                         bitorder="little")
    ones = bits.sum(axis=0).tolist()
    return VoteVector(votes=tuple((o + o > k) - (o + o < k) if v > 0 else 0
                                  for o, v in zip(ones, x.values.tolist())))


def fuse_candidates(
    candidate_sets: list[list[int]],
    voted: LightConfig,
) -> tuple[LightConfig, str]:
    """Combine sensors by intersecting their sorted candidate index lists.

    Every sensor admits each member of the intersection. A lone member is
    the answer; among several, the one nearest `voted` (the fuse_votes
    result) in Hamming distance wins, ties to the lowest configuration
    index. Only an empty intersection falls back to `voted`. The second
    return value names the rule that decided: "intersection" or "vote".
    """
    if not candidate_sets:
        raise ValueError("need at least one candidate set")
    common, *rest = candidate_sets
    if rest:
        shared = set(rest[0]).intersection(*rest[1:])
        common = [m for m in common if m in shared]
    if not common:
        return voted, "vote"
    v = voted.index
    # common is sorted, so the first minimum is the lowest index
    nearest = min(common, key=lambda m: (m ^ v).bit_count())
    return LightConfig(nearest, voted.n), "intersection"


def fuse_votes(all_votes: list[VoteVector]) -> LightConfig:
    """Combine sensors: positive vote sum means on; ties resolve to off."""
    if not all_votes:
        raise ValueError("need at least one vote vector")
    n = len(all_votes[0].votes)
    if any(len(v.votes) != n for v in all_votes):
        raise ValueError("vote vectors must have equal length")
    totals = list(map(sum, zip(*(v.votes for v in all_votes))))
    if log.isEnabledFor(logging.DEBUG):
        ties = [i for i, total in enumerate(totals) if total == 0]
        if ties:
            log.debug("fuse_votes: ties on luminaires %s resolve to off", ties)
    return LightConfig(sum(1 << i for i, total in enumerate(totals) if total > 0), n)
