"""Score candidate sensor points and choose a minimal sensing set.

A point's distinctness under one door state counts how many of the 2^n
configuration readings are isolated from every other reading by more than
tau lux; only isolated readings can be decoded unambiguously. Candidate
selection is a set cover over application states (configuration, door
state): a candidate covers the states it can isolate.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .scene import DoorState
from .transport import ContributionMatrix

DEFAULT_TAU = 0.01  # lux
# bytes of configuration sums built at once, for the cover's flags and the heatmap's
# counts alike: a distinct live n-luminaire vector takes 8 * 2^n, a chunk at least one
SCORE_BUDGET_BYTES = 16 << 20


@dataclass(frozen=True)
class DistinctnessVector:
    """Per-entry isolation flags at tolerance tau; score is their sum."""

    flags: tuple[int, ...]
    tau: float

    @property
    def score(self) -> int:
        return int(sum(self.flags))


@dataclass(frozen=True)
class StateSpace:
    """The application states a deployment must tell apart."""

    n_luminaires: int
    door_states: tuple[DoorState, ...]

    @property
    def n_configs(self) -> int:
        return 1 << self.n_luminaires

    @property
    def total(self) -> int:
        return self.n_configs * len(self.door_states)

    def state_id(self, config_index: int, door_state_index: int) -> int:
        if not 0 <= config_index < self.n_configs:
            raise ValueError("config index out of range")
        if not 0 <= door_state_index < len(self.door_states):
            raise ValueError("door state index out of range")
        return door_state_index * self.n_configs + config_index

    def unpack(self, state_id: int) -> tuple[int, int]:
        return state_id % self.n_configs, state_id // self.n_configs


class CoverInstance:
    """Set-cover instance as a bool matrix.

    matrix[k, j] is True when candidate cell k covers state ids[j]; rows
    are cells and columns are the universe, with ids ascending.
    CoverInstance(universe, sets) builds one from explicit sets of state
    ids; elements of a set that are outside the universe are ignored.
    """

    __slots__ = ("matrix", "ids")

    def __init__(self, universe: Iterable[int], sets: Sequence[Iterable[int]]) -> None:
        ids = sorted(universe)
        column = {u: j for j, u in enumerate(ids)}
        matrix = np.zeros((len(sets), len(ids)), dtype=bool)
        for k, s in enumerate(sets):
            matrix[k, [column[u] for u in s if u in column]] = True
        self.matrix = matrix
        self.ids = np.array(ids, dtype=np.int64)

    @classmethod
    def _of_matrix(cls, matrix: np.ndarray, ids: np.ndarray) -> "CoverInstance":
        instance = cls.__new__(cls)
        instance.matrix, instance.ids = matrix, ids
        return instance


@dataclass
class CoverSolution:
    chosen: list[int]
    gains: list[int]
    covered: frozenset[int]
    complete: bool


def _isolated_sorted(ordered: np.ndarray, tau: float) -> np.ndarray:
    """Flag entries of rows sorted ascending along the last axis whose gaps
    to both sorted neighbours are more than tau.

    Strict inequality: a gap of exactly tau is not isolated, and a lone
    entry is. The nearest other value is always a sorted neighbour, so
    this equals the all-pairs definition.
    """
    wide = np.diff(ordered, axis=-1) > tau
    isolated = np.ones(ordered.shape, dtype=bool)
    isolated[..., 1:] &= wide
    isolated[..., :-1] &= wide
    return isolated


def _isolated(values: np.ndarray, tau: float) -> np.ndarray:
    """Flag entries along the last axis whose nearest other entry is more
    than tau away: _isolated_sorted on the sorted entries, put back in
    place. The sort need not be stable: equal entries share every flag.
    """
    order = np.argsort(values, axis=-1)
    isolated = _isolated_sorted(np.take_along_axis(values, order, axis=-1), tau)
    flags = np.empty_like(isolated)
    np.put_along_axis(flags, order, isolated, axis=-1)
    return flags


def _check_tau(tau: float) -> None:
    """A tolerance must be a finite number >= 0: a negative one calls
    colliding readings isolated, and NaN or infinity isolates nothing."""
    if not 0 <= tau < math.inf:
        raise ValueError("tau must be nonnegative and finite")


def distinctness_vector(values, tau: float) -> DistinctnessVector:
    """Flag entries whose nearest other entry is more than tau away.

    Strict inequality: a gap of exactly tau is not distinct. A single
    entry is trivially distinct.
    """
    _check_tau(tau)
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1 or vals.size == 0:
        raise ValueError("need a 1-D, nonempty value vector")
    return DistinctnessVector(flags=tuple(_isolated(vals, tau).astype(int).tolist()), tau=tau)


def config_sums_batch(values: np.ndarray) -> np.ndarray:
    """Noiseless readings of every configuration, indexed by config index.

    values has shape (..., n); the result has shape (..., 2^n). Subset-sum
    doubling: entry p sums the contributions whose bit is set in p.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    sums = np.empty(values.shape[:-1] + (1 << n,))
    sums[..., 0] = 0.0
    for i in range(n):
        half = 1 << i
        np.add(sums[..., :half], values[..., i:i + 1], out=sums[..., half:2 * half])
    return sums


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct rows of a 2-D array with at least one column, keyed by
    their bytes, in first-appearance order: each one's first row index,
    each row's number among them and each one's count."""
    rows = np.ascontiguousarray(rows)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, inverse, counts = np.unique(keys, return_index=True, return_inverse=True,
                                          return_counts=True)
    order = np.argsort(first)
    return first[order], np.argsort(order)[inverse], counts[order]


def _per_live_row(values: np.ndarray, reduce) -> np.ndarray:
    """reduce(sums) of each distinct live row of values (..., n), given to
    every row that repeats it; a dead row gets zeros.

    A row is live when none of its entries is 0 (or -0.0): only live rows
    can isolate anything (see distinctness_flags_batch). Live rows hold no
    zero, so their bytes are equal exactly when their values are, and
    dedup runs on the bytes. The distinct live rows go through in chunks of
    SCORE_BUDGET_BYTES of config_sums_batch sums, at least one row a chunk;
    reduce gets a chunk's sums, which it may overwrite, and returns one
    entry per row. Its answer on no rows gives the entries' shape and type.
    """
    n = values.shape[-1]
    rows = np.ascontiguousarray(values).reshape(-1, n)
    live = np.flatnonzero((rows != 0).all(axis=1))
    first, number, _ = _distinct_rows(rows[live])
    distinct = rows[live[first]]
    empty = reduce(config_sums_batch(distinct[:0]))
    # one more entry, left zero, for the dead rows' index of -1
    per_row = np.zeros((len(distinct) + 1,) + empty.shape[1:], dtype=empty.dtype)
    step = max(1, SCORE_BUDGET_BYTES // (8 << n))
    for start in range(0, len(distinct), step):
        chunk = distinct[start:start + step]
        per_row[start:start + len(chunk)] = reduce(config_sums_batch(chunk))
    index = np.full(rows.shape[0], -1, dtype=np.intp)
    index[live] = number
    return per_row[index].reshape(values.shape[:-1] + per_row.shape[1:])


def distinctness_flags_batch(values: np.ndarray, tau: float) -> np.ndarray:
    """Isolation flags for every configuration, batched.

    values has shape (..., n); the result is boolean with shape (..., 2^n).
    Entry p is distinctness_vector(config_sums_batch(x), tau).flags[p] for
    each contribution vector x along the last axis.

    A vector with an entry equal to 0 (or -0.0) isolates nothing, so its
    2^n sums are never built. Adding zero is exact, so configurations p
    and p with that luminaire toggled get the same float through every
    later doubling step: each sum has an equal twin, a gap of 0, which is
    not more than any tau >= 0. Such dead rows are set aside before the
    dedup. The flags are a pure function of x, and door states leave most
    cells' vectors unchanged, so each distinct live vector is flagged once,
    in _per_live_row's chunks, and copied to every row that repeats it.
    """
    _check_tau(tau)
    return _per_live_row(np.asarray(values, dtype=float), lambda sums: _isolated(sums, tau))


def heatmap_scores(matrix: ContributionMatrix, tau: float = DEFAULT_TAU) -> np.ndarray:
    """Distinctness score per (point, door state); int64, shape (P, Q).

    The score is the number of flags distinctness_flags_batch sets for the
    (point, door state) row, but no flag is put back in place: a count
    needs only the sorted sums. The same pass over distinct live rows
    sorts each chunk's sums in place and counts their gaps; a dead row
    scores 0.
    """
    _check_tau(tau)

    def count(sums: np.ndarray) -> np.ndarray:
        sums.sort(axis=-1)
        return np.count_nonzero(_isolated_sorted(sums, tau), axis=-1).astype(np.int64)

    return _per_live_row(matrix.values, count)


def build_cover_instance(matrix: ContributionMatrix, tau: float = DEFAULT_TAU) -> CoverInstance:
    """Cover instance over the (configuration, door state) pairs of the
    matrix's door states.

    State id layout follows StateSpace: door_state_index * 2^n + config_index,
    where door_state_index is the matrix.door_states entry, so a matrix of
    some door states gives those states' true ids. Candidate point k covers
    the states whose reading it isolates.
    """
    flags = distinctness_flags_batch(matrix.values, tau)  # (P, Q, 2^n)
    rows = flags.reshape(flags.shape[0], -1)  # row-major: q major, p minor
    n_configs = flags.shape[-1]
    ids = matrix.door_states.astype(np.int64)[:, None] * n_configs + np.arange(n_configs)
    return CoverInstance._of_matrix(rows, ids.ravel())


def restrict_cover_instance(instance: CoverInstance, keep: Iterable[int]) -> CoverInstance:
    """Project an instance onto a sub-universe (e.g. a single door state).

    keep is any iterable of state ids, such as a range or a frozenset; ids
    outside the instance's universe are ignored. When the kept columns
    form one contiguous run, the result's matrix is a view of the
    instance's.
    """
    ids = instance.ids
    if isinstance(keep, range) and keep.step == 1 and (ids[1:] > ids[:-1]).all():
        # ascending ids in [start, stop) are one run
        columns = slice(*ids.searchsorted([keep.start, keep.stop]).tolist())
    else:
        keep = (np.arange(keep.start, keep.stop, keep.step, dtype=np.int64)
                if isinstance(keep, range) else np.fromiter(keep, dtype=np.int64))
        columns = np.flatnonzero(np.isin(ids, keep))
        if columns.size and columns[-1] - columns[0] + 1 == columns.size:
            columns = slice(columns[0], columns[-1] + 1)
    return CoverInstance._of_matrix(instance.matrix[:, columns], ids[columns])


def greedy_set_cover(instance: CoverInstance) -> CoverSolution:
    """Classic greedy cover: repeatedly take the set with the largest
    uncovered gain, ties broken by the lowest point index.

    Runs on the instance's non-empty part: rows that cover nothing can
    never be taken, and columns no row covers can never be gained, so
    both are dropped first. The kept rows stay in ascending order, so
    ties still go to the lowest point index. Every coverable state ends
    up covered; complete=False says some state is in no set.
    """
    m = instance.matrix
    rows = np.flatnonzero(m.any(axis=1))
    cols = m.any(axis=0)
    sub = m[np.ix_(rows, np.flatnonzero(cols))]
    uncovered = np.ones(sub.shape[1], dtype=bool)
    chosen: list[int] = []
    gains: list[int] = []
    while uncovered.any():  # some kept row covers each uncovered column, so gain > 0
        counts = (sub & uncovered).sum(axis=1)
        best = int(np.argmax(counts))  # argmax returns the first (lowest) index on ties
        chosen.append(int(rows[best]))
        gains.append(int(counts[best]))
        uncovered &= ~sub[best]
    return CoverSolution(
        chosen=chosen,
        gains=gains,
        covered=frozenset(instance.ids[cols].tolist()),
        complete=bool(cols.all()),
    )


def exact_min_cover(instance: CoverInstance, limit: int = 24) -> CoverSolution:
    """Provably minimum cover by branch and bound over element bitmasks.

    Branches on an uncovered element with the fewest covering sets and
    prunes with a counting bound. Elements no set covers are excluded up
    front (complete=False); the cover is then minimum for the rest.
    Refuses universes larger than `limit`.

    The search runs on merged rows and columns. Identical rows become one
    row, named by its lowest cell, with a multiplicity; identical coverable
    columns become one bit, in first-appearance order, with a weight. Set
    sizes, gains and the bound add up weights, and the fail-first key adds
    up multiplicities, so the search takes the same branches in the same
    order as on the whole matrix, less the ones on a later copy of a row:
    such a branch follows its lowest copy's over the same subproblem, so it
    can never find a smaller cover.
    """
    n_ids = instance.ids.size
    if n_ids > limit:
        raise ValueError(f"universe of {n_ids} exceeds exact-solver limit {limit}")
    coverable_columns = instance.matrix.any(axis=0)
    covered = frozenset(instance.ids[coverable_columns].tolist())
    complete = bool(coverable_columns.all())
    if not coverable_columns.any():
        return CoverSolution(chosen=[], gains=[], covered=covered, complete=complete)
    cells = np.flatnonzero(instance.matrix.any(axis=1))
    rows = instance.matrix[cells][:, coverable_columns]
    first, _, multiplicity = _distinct_rows(np.packbits(rows, axis=1))
    cells, rows = cells[first].tolist(), rows[first]
    columns, _, weights = _distinct_rows(np.packbits(rows.T, axis=1))
    merged = rows[:, columns]
    # bit g of a row mask is merged column g
    set_masks = [int.from_bytes(row.tobytes(), "little")
                 for row in np.packbits(merged, axis=1, bitorder="little")]
    # the bits of the merged columns of each weight
    weight_bits = [(int(w), int.from_bytes(np.packbits(weights == w, bitorder="little").tobytes(),
                                           "little"))
                   for w in np.unique(weights)]

    def size(mask: int) -> int:
        return sum(w * (mask & bits).bit_count() for w, bits in weight_bits)

    covering = [np.flatnonzero(column).tolist() for column in merged.T]
    # fail-first: columns by their number of covering rows, copies included,
    # ties to the first
    fewest_first = np.argsort(multiplicity @ merged, kind="stable").tolist()

    # greedy reaches every coverable element, so it seeds the upper bound;
    # on the merged rows it takes the same cells
    best_choice = greedy_set_cover(CoverInstance._of_matrix(rows, np.arange(rows.shape[1]))).chosen
    best_size = len(best_choice)

    max_set_size = max(map(size, set_masks))

    def solve(uncovered: int, chosen: list[int]) -> None:
        nonlocal best_choice, best_size
        if uncovered == 0:
            if len(chosen) < best_size:
                best_size = len(chosen)
                best_choice = list(chosen)
            return
        lower = len(chosen) + math.ceil(size(uncovered) / max_set_size)
        if lower >= best_size:
            return
        pick = next(g for g in fewest_first if uncovered >> g & 1)
        for k in sorted(covering[pick], key=lambda k: size(set_masks[k] & uncovered), reverse=True):
            chosen.append(k)
            solve(uncovered & ~set_masks[k], chosen)
            chosen.pop()

    solve((1 << len(columns)) - 1, [])
    gains = []
    running = 0
    for k in best_choice:
        gains.append(size(set_masks[k] & ~running))
        running |= set_masks[k]
    return CoverSolution(
        chosen=[cells[k] for k in best_choice],
        gains=gains,
        covered=covered,
        complete=complete,
    )


def harmonic_bound(max_set_size: int) -> float:
    """H(k): the greedy cover's approximation guarantee."""
    return sum(1.0 / i for i in range(1, max_set_size + 1)) if max_set_size > 0 else 0.0
