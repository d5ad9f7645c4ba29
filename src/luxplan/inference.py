"""Recover light configurations from summed sensor readings.

Given per-luminaire contributions x and a reading K, the perfect-sum
search enumerates every on/off configuration whose on-contributions sum to
within epsilon of K (absolute tolerance). Ambiguity is scored with the
Jaccard index against ground truth. Multiple sensors are combined by
intersecting their candidate sets, with a per-luminaire majority vote as
the tie-break and as the fallback when the sets share nothing.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .planning import config_sums_batch
from .transport import ContributionVector, LightConfig

log = logging.getLogger(__name__)

MAX_SOLVER_BITS = 24
# bytes of meet-in-the-middle tables built at once; one 24-luminaire
# vector's tables take 96 KB
TABLE_BUDGET_BYTES = 16 << 20
# sensor_votes counts on-bits one luminaire at a time in Python up to this
# many (candidate, luminaire) pairs; beyond it one numpy pass, whose fixed
# cost is about 10 us a call, is cheaper
VOTE_LOOP_BITS = 128


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
        if any(v < 0 for v in self.contributions):
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
        if any(v not in (-1, 0, 1) for v in self.votes):
            raise ValueError("votes must be -1, 0, or +1")


@dataclass
class InferenceResult:
    candidates: list[LightConfig]
    accuracy: float | None = None
    no_solution: bool = False


@dataclass(eq=False)
class HalfSums:
    """Meet-in-the-middle tables of one contribution vector of n luminaires.

    lo holds the subset sums of the low n // 2 luminaires, indexed by low
    mask. hi holds the subset sums of the other luminaires, sorted
    ascending, and hi_masks the configuration bits of each (the high mask
    shifted past the low half). Every sum adds its luminaires in
    increasing bit order starting from 0.0.
    """

    lo: np.ndarray
    hi: np.ndarray
    hi_masks: np.ndarray


def half_sums_batch(values: np.ndarray) -> list[HalfSums]:
    """The tables of each row of a (V, n) stack of contribution vectors."""
    values = np.asarray(values, dtype=float)
    h = values.shape[-1] // 2
    lo = config_sums_batch(values[:, :h])
    hi = config_sums_batch(values[:, h:])
    order = hi.argsort(axis=1, kind="stable")
    hi.sort(axis=1)
    order <<= h
    return list(map(HalfSums, lo, hi, order))


def tables_per_batch(n: int) -> int:
    """How many n-luminaire vectors' tables fit TABLE_BUDGET_BYTES."""
    h = n // 2
    return max(1, TABLE_BUDGET_BYTES // (8 * ((1 << h) + 2 * (1 << (n - h)))))


def perfect_sum(query: PerfectSumQuery, halves: HalfSums | None = None) -> list[LightConfig]:
    """Every configuration whose reading matches the target within epsilon.

    Meet in the middle (Horowitz and Sahni, JACM 1974): each low-half sum s
    admits the sorted high-half sums in [target - epsilon - s,
    target + epsilon - s], found by binary search, so a query takes
    O(n 2^(n/2)) steps plus one per match once the tables of its
    contribution vector are built. `halves` are those tables, built by
    half_sums_batch; without them the query builds its own. Results are
    sorted ascending by configuration index.
    """
    n = len(query.contributions)
    if halves is None:
        (halves,) = half_sums_batch(np.array([query.contributions], dtype=float))
    lo, hi = halves.lo, halves.hi
    low, high = query.target - query.epsilon, query.target + query.epsilon
    first = hi.searchsorted(low - lo, "left")
    last = hi.searchsorted(high - lo, "right")
    counts = last - first
    ends = counts.cumsum()
    if not ends[-1]:
        return []
    # the matches of low mask m are hi_masks[first[m]:last[m]], at
    # positions ends[m] - counts[m] ... ends[m] - 1 of the result
    pos = np.arange(ends[-1]) + np.repeat(last - ends, counts)
    masks = np.repeat(np.arange(lo.size), counts) | halves.hi_masks[pos]
    masks.sort()
    return [LightConfig(m, n) for m in masks.tolist()]


def jaccard_accuracy(truth: LightConfig, candidates: list[LightConfig]) -> float:
    """Mean Jaccard similarity between the truth's on-set and each candidate's.

    Two all-off sets count as identical (score 1). An empty candidate list
    scores 0 by convention.
    """
    if not candidates:
        log.debug("jaccard_accuracy: no candidates, scoring 0")
        return 0.0
    t = truth.index
    total = 0.0
    for cand in candidates:
        union = (t | cand.index).bit_count()
        total += (t & cand.index).bit_count() / union if union else 1.0
    return total / len(candidates)


def infer_reading(
    query: PerfectSumQuery,
    truth: LightConfig | None = None,
    halves: HalfSums | None = None,
) -> InferenceResult:
    """Run the perfect-sum search, on the vector's tables when given, and
    score it when truth is known."""
    candidates = perfect_sum(query, halves)
    accuracy = jaccard_accuracy(truth, candidates) if truth is not None else None
    return InferenceResult(candidates=candidates, accuracy=accuracy, no_solution=not candidates)


def sensor_votes(x: ContributionVector, candidates: list[LightConfig]) -> VoteVector:
    """One sensor's per-luminaire majority vote over its candidate set.

    Luminaires outside the sensor's range (x_i == 0) abstain, as do exact
    ties and empty candidate lists.
    """
    k = len(candidates)
    in_range = [v > 0 for v in x.values.tolist()]
    if k * x.n <= VOTE_LOOP_BITS:
        ones = [sum(c.index >> i & 1 for c in candidates) if r else 0 for i, r in enumerate(in_range)]
    else:
        # one pass over all candidates: column i of their unpacked
        # little-endian masks is luminaire i
        masks = np.fromiter(map(attrgetter("index"), candidates), "<u8", k)
        ones = np.unpackbits(masks.view(np.uint8), bitorder="little").reshape(k, 64).sum(axis=0).tolist()
    return VoteVector(votes=tuple((o + o > k) - (o + o < k) if r else 0 for o, r in zip(ones, in_range)))


def fuse_candidates(
    candidate_sets: list[list[LightConfig]],
    voted: LightConfig,
) -> tuple[LightConfig, str]:
    """Combine sensors by intersecting their candidate sets.

    Every sensor admits each member of the intersection. A lone member is
    the answer; among several, the one nearest `voted` (the fuse_votes
    result) in Hamming distance wins, ties to the lowest configuration
    index. Only an empty intersection falls back to `voted`. The second
    return value names the rule that decided: "intersection" or "vote".
    """
    if not candidate_sets:
        raise ValueError("need at least one candidate set")
    common = set.intersection(*({c.index for c in cands} for cands in candidate_sets))
    if not common:
        return voted, "vote"
    nearest = min(common, key=lambda m: ((m ^ voted.index).bit_count(), m))
    return LightConfig(nearest, voted.n), "intersection"


def fuse_votes(all_votes: list[VoteVector]) -> LightConfig:
    """Combine sensors: positive vote sum means on; ties resolve to off."""
    if not all_votes:
        raise ValueError("need at least one vote vector")
    n = len(all_votes[0].votes)
    if any(len(v.votes) != n for v in all_votes):
        raise ValueError("vote vectors must have equal length")
    index = 0
    for i in range(n):
        total = sum(v.votes[i] for v in all_votes)
        if total == 0:
            log.debug("fuse_votes: tie on luminaire %d resolves to off", i)
        if total > 0:
            index |= 1 << i
    return LightConfig(index, n)
