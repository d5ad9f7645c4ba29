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
# counts alike: a distinct live n-luminaire vector takes 8 * 2^n, a chunk at least one.
# A chunk this size and its sort keys fit a core's L2 cache.
SCORE_BUDGET_BYTES = 256 << 10


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
    """Set-cover instance over distinct cell patterns and merged columns.

    ids holds the universe's state ids, one per column of the cells-by-ids
    bool matrix that `matrix` expands on demand: matrix[k, j] is True when
    candidate cell k covers state ids[j]. The instance keeps only that
    matrix's nonempty distinct rows and coverable distinct columns:
    - column[j] is the merged column of ids[j], or -1 when no cell covers it;
      weights[g] counts the ids merged column g stands for, and merged
      columns go in order of their first id;
    - patterns[r, g] says whether row pattern r covers merged column g;
      patterns go in order of their first cell, cells[r], and multiplicity[r]
      counts the cells that share pattern r;
    - cell_pattern[k] is cell k's pattern, or -1 when it covers nothing.

    CoverInstance(universe, sets) builds one from explicit sets of state
    ids, ids ascending; elements of a set outside the universe are ignored.
    """

    __slots__ = ("ids", "column", "weights", "patterns", "cells", "multiplicity", "cell_pattern")

    def __init__(self, universe: Iterable[int], sets: Sequence[Iterable[int]]) -> None:
        ids = np.array(sorted(universe), dtype=np.int64)
        position = {u: j for j, u in enumerate(ids.tolist())}
        matrix = np.zeros((len(sets), len(ids)), dtype=bool)
        for k, s in enumerate(sets):
            matrix[k, [position[u] for u in s if u in position]] = True
        cells = np.arange(len(sets))
        self._merge(ids, np.arange(len(ids)), matrix, cells, np.ones(len(sets), dtype=np.int64),
                    cells)

    @classmethod
    def _merged(cls, *raw) -> "CoverInstance":
        instance = cls.__new__(cls)
        instance._merge(*raw)
        return instance

    def _merge(self, ids: np.ndarray, column: np.ndarray, patterns: np.ndarray, cells: np.ndarray,
               multiplicity: np.ndarray, cell_pattern: np.ndarray) -> None:
        """Set the instance from a raw one with the same fields, whose rows
        may be empty or repeat, whose columns may be uncovered, unnamed or
        repeat, and whose columns need not follow their first id; its rows
        must follow their first cell."""
        # raw columns some id names, by first id, less those no row covers
        raw, first = np.unique(column[column >= 0], return_index=True)
        raw = raw[first.argsort()]
        raw = raw[patterns.any(axis=0)[raw]]
        merged = np.full(patterns.shape[1] + 1, -1, dtype=np.intp)  # the last entry is column -1's
        rows = patterns.take(raw, axis=1)
        if raw.size:
            distinct, number, _ = _distinct_columns(rows)
            merged[raw] = number
            rows = rows.take(distinct, axis=1)
        self.ids, self.column = ids, merged[column]
        self.weights = np.bincount(self.column[self.column >= 0], minlength=rows.shape[1])
        # nonempty rows, identical ones merged onto the first
        live = np.flatnonzero(rows.any(axis=1))
        pattern = np.full(len(rows) + 1, -1, dtype=np.intp)  # the last entry is pattern -1's
        distinct = live[:0]
        if live.size:
            distinct, number, _ = _distinct_rows(np.packbits(rows[live], axis=1))
            pattern[live] = number
            distinct = live[distinct]
        self.patterns, self.cells = rows[distinct], cells[distinct]
        self.multiplicity = np.bincount(pattern[live], weights=multiplicity[live],
                                        minlength=distinct.size).astype(np.int64)
        self.cell_pattern = pattern[cell_pattern]

    @property
    def matrix(self) -> np.ndarray:
        """The cells-by-ids bool matrix, expanded."""
        n_rows, n_columns = self.patterns.shape
        padded = np.zeros((n_rows + 1, n_columns + 1), dtype=bool)  # pattern and column -1 cover nothing
        padded[:n_rows, :n_columns] = self.patterns
        return padded[self.cell_pattern][:, self.column]

    def coverage(self) -> tuple[frozenset[int], bool]:
        """The ids some cell covers, and whether that is all of them."""
        coverable = self.column >= 0
        return frozenset(self.ids[coverable].tolist()), bool(coverable.all())


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
    """Flag entries along the last axis of a C-ordered array of finite
    floats whose nearest other entry is more than tau away; values is
    overwritten with its sorted gaps.

    One sort gives both order and index: each float's key is the float
    with its low ceil(log2 width) bits replaced by the entry's index, so
    keys sort like the values but for values within 2^bits ulps of each
    other. Such a misorder leaves a negative gap, and only those rows are
    sorted again exactly. An entry is isolated when both its gaps (one
    infinite past a row's end) are more than tau: its nearest other value
    is a sorted neighbour, and it has no equal twin, so the order among
    equal values cannot move a flag.
    """
    width = values.shape[-1]
    low = (1 << (width - 1).bit_length()) - 1
    keys = values.view(np.int64) & ~low
    keys |= np.arange(width)
    keys.view(np.float64).sort(axis=-1)
    keys &= low
    keys += np.arange(0, keys.size, width).reshape(keys.shape[:-1] + (1,))
    keys, flat = keys.reshape(-1), values.reshape(-1)
    ordered = flat.take(keys)
    np.subtract(ordered[1:], ordered[:-1], out=flat[:-1])
    gaps = flat.reshape(-1, width)
    gaps[:, -1] = np.inf
    if np.fmin.reduce(flat, initial=0.0) < 0:  # fmin: a gap of inf - inf is NaN
        near_ties = np.flatnonzero((gaps < 0).any(axis=-1))
        exact = ordered.reshape(-1, width)[near_ties].argsort(axis=-1, kind="stable")
        exact += (near_ties * width)[:, None]
        keys.reshape(-1, width)[near_ties] = keys[exact]
        gaps[near_ties, :-1] = np.diff(ordered[exact], axis=-1)
    del ordered
    wide = flat > tau
    isolated = wide.copy()
    isolated[1:] &= wide[:-1]
    flags = np.empty(values.shape, dtype=bool)
    flags.reshape(-1)[keys] = isolated
    return flags


def _check_tau(tau: float) -> None:
    """A tolerance must be a finite number >= 0: a negative one calls
    colliding readings isolated, and NaN or infinity isolates nothing."""
    if not 0 <= tau < math.inf:
        raise ValueError("tau must be nonnegative and finite")


def _check_finite(values: np.ndarray) -> None:
    """Contributions and readings must be finite: a gap to NaN, or between
    two infinite sums, is NaN, and no flag can be read from it."""
    if not np.isfinite(values).all():
        raise ValueError("values must be finite")


def distinctness_vector(values, tau: float) -> DistinctnessVector:
    """Flag entries whose nearest other entry is more than tau away.

    Strict inequality: a gap of exactly tau is not distinct. A single
    entry is trivially distinct.
    """
    _check_tau(tau)
    vals = np.array(values, dtype=float)  # a copy: _isolated overwrites it
    if vals.ndim != 1 or vals.size == 0:
        raise ValueError("need a 1-D, nonempty value vector")
    _check_finite(vals)
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


def _distinct_columns(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_distinct_rows of the columns of a 2-D bool array with at least one
    row and one column. Each column's bits are packed eight rows to a byte
    first, so that only those bytes are transposed."""
    packed = np.zeros((-(-len(m) // 8), m.shape[1]), dtype=np.uint8)
    for bit in range(8):
        rows = m[bit::8].view(np.uint8)
        packed[:len(rows)] |= rows << bit
    return _distinct_rows(packed.T)


def _live_vectors(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct live rows of values (..., n) in first-appearance order,
    and each row's number among them, -1 for a dead row, in values' shape
    less its last axis.

    A row is live when none of its entries is 0 (or -0.0): only live rows
    can isolate anything (see distinctness_flags_batch). Live rows hold no
    zero, so their bytes are equal exactly when their values are, and
    dedup runs on the bytes.
    """
    n = values.shape[-1]
    rows = np.ascontiguousarray(values).reshape(-1, n)
    # a row's n nonzero tests as one n-byte key, compared at once
    nonzero = (rows != 0).view(np.dtype((np.void, n))).ravel()
    live = np.flatnonzero(nonzero == np.void(b"\x01" * n))
    first, number, _ = _distinct_rows(rows[live])
    index = np.full(rows.shape[0], -1, dtype=np.intp)
    index[live] = number
    return rows[live[first]], index.reshape(values.shape[:-1])


def _per_live_row(values: np.ndarray, reduce) -> np.ndarray:
    """reduce(sums) of each distinct live row of values (..., n), given to
    every row that repeats it; a dead row gets zeros.

    The distinct live rows (see _live_vectors) go through in chunks of
    SCORE_BUDGET_BYTES of config_sums_batch sums, at least one row a chunk;
    reduce gets a chunk's sums, which it may overwrite, and returns one
    entry per row. Its answer on no rows gives the entries' shape and type.
    When every row is its own distinct live row, as for build_cover_instance,
    the per-row entries are returned without a copy.
    """
    distinct, index = _live_vectors(values)
    _check_finite(distinct)
    empty = reduce(config_sums_batch(distinct[:0]))
    # one more entry, left zero, for the dead rows' index of -1
    per_row = np.zeros((len(distinct) + 1,) + empty.shape[1:], dtype=empty.dtype)
    step = max(1, SCORE_BUDGET_BYTES // (8 << values.shape[-1]))
    for start in range(0, len(distinct), step):
        chunk = distinct[start:start + step]
        per_row[start:start + len(chunk)] = reduce(config_sums_batch(chunk))
    if len(distinct) == index.size:  # the rows are distinct and live: index is the identity
        return per_row[:-1].reshape(index.shape + per_row.shape[1:])
    return per_row[index]


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

    The cells-by-states flag matrix is never built. Each distinct live
    (cell, door state) vector is flagged once, and cells that see the same
    vector numbers in every door state share one raw row. In each door
    state, the configurations some of its vectors isolate become raw
    columns, one per set of configurations that its vectors all flag alike;
    CoverInstance then merges what still repeats across door states.
    """
    distinct, vector = _live_vectors(matrix.values)  # vector: (P, Q), -1 for dead
    flags = distinctness_flags_batch(distinct, tau)
    n_configs = 1 << matrix.values.shape[-1]
    # cells dead in every door state cover nothing and get no raw row
    cells = np.unique(np.flatnonzero(vector >= 0) // vector.shape[1])
    first, number, counts = _distinct_rows(vector[cells])
    raw_row = np.full(len(vector), -1, dtype=np.intp)
    raw_row[cells] = number
    seen = vector[cells[first]]  # each raw row's vector per door state
    column = np.full((len(matrix.door_states), n_configs), -1, dtype=np.intp)
    blocks, width = [], 0
    for q, vectors in enumerate(seen.T):
        present = flags[np.unique(vectors[vectors >= 0])]
        coverable = np.flatnonzero(present.any(axis=0))
        if coverable.size:
            reps, group, _ = _distinct_columns(present.take(coverable, axis=1))
            column[q, coverable] = width + group
            block = np.zeros((len(flags) + 1, reps.size), dtype=bool)  # vector -1 isolates nothing
            block[:-1] = flags.take(coverable[reps], axis=1)
            blocks.append(block[vectors])
            width += reps.size
    patterns = np.concatenate(blocks, axis=1) if blocks else np.zeros((len(seen), 0), dtype=bool)
    ids = matrix.door_states.astype(np.int64)[:, None] * n_configs + np.arange(n_configs)
    return CoverInstance._merged(ids.ravel(), column.ravel(), patterns, cells[first], counts, raw_row)


def restrict_cover_instance(instance: CoverInstance, keep: Iterable[int]) -> CoverInstance:
    """Project an instance onto a sub-universe (e.g. a single door state).

    keep is any iterable of state ids, such as a range or a frozenset; ids
    outside the instance's universe are ignored. The kept ids keep their
    order; merged columns that lose all their ids go, the rest lose weight,
    and rows left empty or equal are dropped or merged again. An instance
    all of whose ids are kept is returned as it is.
    """
    ids = instance.ids
    if isinstance(keep, range) and keep.step == 1 and (ids[1:] > ids[:-1]).all():
        # ascending ids in [start, stop) are one run
        kept = np.arange(*ids.searchsorted([keep.start, keep.stop]).tolist())
    else:
        keep = (np.arange(keep.start, keep.stop, keep.step, dtype=np.int64)
                if isinstance(keep, range) else np.fromiter(keep, dtype=np.int64))
        kept = np.flatnonzero(np.isin(ids, keep))
    if kept.size == ids.size:
        return instance
    return CoverInstance._merged(ids[kept], instance.column[kept], instance.patterns, instance.cells,
                                 instance.multiplicity, instance.cell_pattern)


def _weighted_counts(patterns: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Each row's sum of the weights of the columns it holds, for weights in
    ascending order: one count per run of equal weights, so that no integer
    copy of patterns is built."""
    counts = np.zeros(len(patterns), dtype=np.int64)
    starts = np.flatnonzero(np.diff(weights, prepend=-1)).tolist()
    for start, stop in zip(starts, starts[1:] + [len(weights)]):
        counts += int(weights[start]) * patterns[:, start:stop].sum(axis=1, dtype=np.int64)
    return counts


def _greedy(patterns: np.ndarray, weights: np.ndarray) -> tuple[list[int], list[int]]:
    """Greedy cover of every column of patterns: the rows taken, in order,
    and their weighted gains. Ties go to the lowest row. Each row's gain is
    counted once and then lowered by the columns each pick covers; the
    columns are put in order of weight for _weighted_counts."""
    by_weight = np.argsort(weights, kind="stable")
    patterns, weights = patterns.take(by_weight, axis=1), weights[by_weight]
    gains = _weighted_counts(patterns, weights)
    uncovered = np.ones(len(weights), dtype=bool)
    picks: list[int] = []
    got: list[int] = []
    while uncovered.any():  # some row covers each column, so the best gain is > 0
        best = int(np.argmax(gains))  # argmax returns the first (lowest) index on ties
        picks.append(best)
        got.append(int(gains[best]))
        newly = patterns[best] & uncovered
        uncovered &= ~newly
        gains -= _weighted_counts(np.compress(newly, patterns, axis=1), weights[newly])
    return picks, got


def greedy_set_cover(instance: CoverInstance) -> CoverSolution:
    """Classic greedy cover: repeatedly take the set with the largest
    uncovered gain, ties broken by the lowest point index.

    Runs on the instance's distinct row patterns over its merged columns:
    a gain adds up the merged columns' weights, so it counts states, and
    the pick is the lowest cell of the first best pattern. Patterns follow
    their first cell, so that is the lowest cell of best gain. Every
    coverable state ends up covered; complete=False says some state is in
    no set.
    """
    picks, gains = _greedy(instance.patterns, instance.weights)
    covered, complete = instance.coverage()
    return CoverSolution(chosen=instance.cells[picks].tolist(), gains=gains, covered=covered,
                         complete=complete)


def exact_min_cover(instance: CoverInstance, limit: int = 24) -> CoverSolution:
    """Provably minimum cover by branch and bound over element bitmasks.

    Branches on an uncovered element with the fewest covering sets and
    prunes with a counting bound. Elements no set covers are excluded up
    front (complete=False); the cover is then minimum for the rest.
    Refuses universes larger than `limit`, counted in state ids.

    The search runs on the instance's merged form: one bit per merged
    column, one row per distinct pattern, named by its lowest cell. Set
    sizes, gains and the bound add up column weights, and the fail-first
    key adds up row multiplicities, so the search takes the same branches
    in the same order as on the whole matrix, less the ones on a later
    copy of a row: such a branch follows its lowest copy's over the same
    subproblem, so it can never find a smaller cover.
    """
    n_ids = instance.ids.size
    if n_ids > limit:
        raise ValueError(f"universe of {n_ids} exceeds exact-solver limit {limit}")
    covered, complete = instance.coverage()
    merged, weights = instance.patterns, instance.weights
    if not weights.size:
        return CoverSolution(chosen=[], gains=[], covered=covered, complete=complete)
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
    fewest_first = np.argsort(instance.multiplicity @ merged, kind="stable").tolist()

    # greedy reaches every coverable element, so it seeds the upper bound
    best_choice = _greedy(merged, weights)[0]
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

    solve((1 << len(weights)) - 1, [])
    gains = []
    running = 0
    for k in best_choice:
        gains.append(size(set_masks[k] & ~running))
        running |= set_masks[k]
    return CoverSolution(
        chosen=instance.cells[best_choice].tolist(),
        gains=gains,
        covered=covered,
        complete=complete,
    )


def harmonic_bound(max_set_size: int) -> float:
    """H(k): the greedy cover's approximation guarantee."""
    return sum(1.0 / i for i in range(1, max_set_size + 1)) if max_set_size > 0 else 0.0
