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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter

from .transport import ContributionVector, LightConfig

log = logging.getLogger(__name__)

MAX_SOLVER_BITS = 24


@dataclass(frozen=True)
class PerfectSumQuery:
    contributions: tuple[float, ...]
    target: float
    epsilon: float

    def __post_init__(self) -> None:
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


def _half_sums(values: list[float]) -> tuple[list[float], list[int]]:
    """Subset sums of a short value list, sorted, with aligned masks."""
    pairs = [(0.0, 0)]
    for i, v in enumerate(values):
        pairs += [(s + v, m | (1 << i)) for s, m in pairs]
    pairs.sort(key=itemgetter(0))
    sums, masks = zip(*pairs)
    return list(sums), list(masks)


def perfect_sum(query: PerfectSumQuery) -> list[LightConfig]:
    """Every configuration whose reading matches the target within epsilon.

    Meet in the middle (Horowitz and Sahni, JACM 1974): the sorted subset
    sums of the low half of the luminaires are matched against those of
    the high half by binary search, so a query takes O(n 2^(n/2)) steps
    plus one per match. Results are sorted ascending by configuration index.
    """
    values = list(query.contributions)
    n = len(values)
    h = n // 2
    lo_sums, lo_masks = _half_sums(values[:h])
    hi_sums, hi_masks = _half_sums(values[h:])
    low, high = query.target - query.epsilon, query.target + query.epsilon
    masks: list[int] = []
    for s, m in zip(lo_sums, lo_masks):
        first = bisect_left(hi_sums, low - s)
        last = bisect_right(hi_sums, high - s)
        masks += [m | (hi << h) for hi in hi_masks[first:last]]
    return [LightConfig(m, n) for m in sorted(masks)]


def nearest_sum_configs(query: PerfectSumQuery) -> list[LightConfig]:
    """Configurations minimizing |sum - target|; the opt-in fallback when
    the tolerance window is empty."""
    values = list(query.contributions)
    n = len(values)
    h = n // 2
    lo_sums, lo_masks = _half_sums(values[:h])
    hi_sums, hi_masks = _half_sums(values[h:])
    best = math.inf
    masks: list[int] = []
    for s, m in zip(lo_sums, lo_masks):
        want = query.target - s
        j = bisect_left(hi_sums, want)
        for k in (j - 1, j):
            if 0 <= k < len(hi_sums):
                err = abs(s + hi_sums[k] - query.target)
                if err < best - 1e-15:
                    best = err
                    masks = []
                elif abs(err - best) > 1e-15:
                    continue
                # every high-half subset with this sum ties with it
                tied = hi_masks[bisect_left(hi_sums, hi_sums[k]):bisect_right(hi_sums, hi_sums[k])]
                masks += [m | (hi << h) for hi in tied]
    return [LightConfig(m, n) for m in sorted(set(masks))]


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
    nearest_fallback: bool = False,
) -> InferenceResult:
    """Run the perfect-sum search and score it when truth is known."""
    candidates = perfect_sum(query)
    no_solution = not candidates
    if no_solution and nearest_fallback:
        candidates = nearest_sum_configs(query)
    accuracy = jaccard_accuracy(truth, candidates) if truth is not None else None
    return InferenceResult(candidates=candidates, accuracy=accuracy, no_solution=no_solution)


def sensor_votes(x: ContributionVector, candidates: list[LightConfig]) -> VoteVector:
    """One sensor's per-luminaire majority vote over its candidate set.

    Luminaires outside the sensor's range (x_i == 0) abstain, as do exact
    ties and empty candidate lists.
    """
    votes = []
    for i, in_range in enumerate(x.values > 0):
        if not in_range:
            votes.append(0)
            continue
        ones = sum(c.index >> i & 1 for c in candidates)
        zeros = len(candidates) - ones
        votes.append(1 if ones > zeros else (-1 if zeros > ones else 0))
    return VoteVector(votes=tuple(votes))


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
