"""Perfect-sum search, ambiguity scoring, and multi-sensor voting."""
import logging
import math
import tracemalloc
from bisect import bisect_left, bisect_right
from operator import itemgetter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from luxplan import (
    DecodeBatch,
    InferenceResult,
    LightConfig,
    PerfectSumQuery,
    fuse_candidates,
    fuse_votes,
    infer_reading,
    jaccard_accuracy,
    perfect_sum,
    sensor_votes,
)
from luxplan import inference
from luxplan.inference import (
    MAX_SOLVER_BITS,
    half_sums_batch,
    jaccard_rows,
    popcount,
    search_batch,
)
from luxplan.planning import config_sums_batch


def brute_force(values, target, epsilon):
    """Reference enumeration over all 2^n subsets, exact-summed."""
    n = len(values)
    out = []
    for p in range(1 << n):
        s = math.fsum(values[i] for i in range(n) if p >> i & 1)
        if abs(s - target) <= epsilon:
            out.append(p)
    return out


def solve(values, target, epsilon):
    q = PerfectSumQuery(contributions=tuple(values), target=target, epsilon=epsilon)
    return [c.index for c in perfect_sum(q)]


def flat(sets):
    """Candidate sets as the flat candidates and row offsets of a batch."""
    candidates = np.array([m for s in sets for m in s], dtype=np.int64)
    return candidates, np.cumsum([0] + [len(s) for s in sets])


def votes_of(vectors, sets):
    """sensor_votes of rows reading the given vectors with the given
    candidate sets, as tuples."""
    batch = DecodeBatch(tuple(tuple(v) for v in vectors), np.arange(len(vectors)),
                        np.zeros(len(vectors)), 0.0)
    return [tuple(v) for v in sensor_votes(batch, InferenceResult(*flat(sets))).tolist()]


def fuse_one(sets, voted):
    """fuse_candidates of one trial: (answer, rule)."""
    fused, decided = fuse_candidates(*flat(sets), np.zeros(len(sets), np.intp), np.array([voted]))
    return int(fused[0]), "intersection" if decided[0] else "vote"


class TestPerfectSum:
    def test_two_way_ambiguity(self):
        # 2+5 and 3+4 both reach 7
        assert solve([2, 3, 4, 5], 7.0, 0.0) == [0b0110, 0b1001]

    def test_tolerance_window_admits_near_sums(self):
        assert solve([1.0, 1.05, 3.0], 4.0, 0.1) == [0b101, 0b110]

    def test_zero_target_zero_epsilon_gives_empty_subset(self):
        assert solve([2.0, 3.0, 4.0], 0.0, 0.0) == [0]

    def test_no_solution_returns_empty_list(self):
        assert solve([2.0, 4.0], 1.0, 0.1) == []

    def test_results_sorted_by_config_index(self):
        got = solve([1.0] * 6, 2.0, 0.0)
        assert got == sorted(got)
        assert len(got) == 15  # C(6,2) equal pairs

    def test_uniform_values_match_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 13))
            values = rng.uniform(0, 10, size=n).tolist()
            target = float(rng.uniform(0, sum(values)))
            eps = float(rng.choice([0.0, 0.01, 0.5]))
            assert solve(values, target, eps) == brute_force(values, target, eps)

    def test_22_luminaires_recover_the_planted_config(self):
        values = list(np.linspace(1.0, 3.0, 22))
        target = values[0] + values[7] + values[21]
        got = solve(values, target, 1e-9)
        assert (1 << 0 | 1 << 7 | 1 << 21) in got

    def test_matches_brute_force(self):
        # quarter-lux lattice keeps every subset sum exact, so epsilon 0 is
        # well defined in both routes
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(1, 11))
            values = (rng.integers(0, 21, size=n) / 4.0).tolist()
            if rng.random() < 0.5:
                p = int(rng.integers(0, 1 << n))
                target = math.fsum(values[i] for i in range(n) if p >> i & 1)
            else:
                target = float(rng.uniform(0, sum(values) + 1))
            eps = float(rng.choice([0.0, 0.005, 0.1]))
            assert solve(values, target, eps) == brute_force(values, target, eps)

    def test_rejects_negative_epsilon_and_contributions(self):
        with pytest.raises(ValueError):
            PerfectSumQuery(contributions=(1.0,), target=1.0, epsilon=-0.1)
        with pytest.raises(ValueError):
            PerfectSumQuery(contributions=(-1.0,), target=1.0, epsilon=0.0)

    def test_solver_bit_limit(self):
        with pytest.raises(ValueError, match="exceed"):
            PerfectSumQuery(contributions=(1.0,) * 25, target=1.0, epsilon=0.0)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_perfect_sum_equals_brute_force(data):
    # values on a 1/64 lattice: subset sums are exact, so boundary ties at
    # exactly epsilon resolve identically in the solver and the oracle
    n = data.draw(st.integers(min_value=1, max_value=9))
    sixtyfourths = st.integers(min_value=0, max_value=1280)
    values = [v / 64.0 for v in data.draw(st.lists(sixtyfourths, min_size=n, max_size=n))]
    target = data.draw(sixtyfourths) / 64.0
    epsilon = data.draw(st.integers(min_value=0, max_value=128)) / 64.0
    expected = brute_force(values, target, epsilon)
    assert solve(values, target, epsilon) == expected


def bisect_reference(values, target, epsilon):
    """The pure-Python meet-in-the-middle search that per-vector tables
    replaced: both halves' subset sums, built and sorted per query, then
    bisected once per low-half sum."""
    def half_sums(vals):
        pairs = [(0.0, 0)]
        for i, v in enumerate(vals):
            pairs += [(s + v, m | (1 << i)) for s, m in pairs]
        pairs.sort(key=itemgetter(0))
        sums, masks = zip(*pairs)
        return list(sums), list(masks)

    h = len(values) // 2
    lo_sums, lo_masks = half_sums(values[:h])
    hi_sums, hi_masks = half_sums(values[h:])
    low, high = target - epsilon, target + epsilon
    masks = []
    for s, m in zip(lo_sums, lo_masks):
        first = bisect_left(hi_sums, low - s)
        last = bisect_right(hi_sums, high - s)
        masks += [m | (hi << h) for hi in hi_masks[first:last]]
    return sorted(masks)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_perfect_sum_equals_the_bisect_reference(data):
    # values come from a small pool (repeats and zeros) or are drawn fresh;
    # on the 1/64 lattice every sum is exact, so brute force agrees too
    n = data.draw(st.integers(min_value=1, max_value=12), label="n")
    lattice = data.draw(st.booleans(), label="lattice")
    fresh = (st.integers(min_value=0, max_value=640).map(lambda k: k / 64.0) if lattice
             else st.floats(min_value=0.0, max_value=100.0, allow_subnormal=False))
    pool = data.draw(st.lists(fresh, min_size=1, max_size=3), label="pool")
    values = data.draw(st.lists(st.one_of(st.sampled_from(pool + [0.0]), fresh),
                                min_size=n, max_size=n), label="values")
    epsilon = data.draw(st.integers(min_value=0, max_value=64), label="eps") / 64.0
    p = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1), label="p")
    at = 0.0
    for i in range(n):  # the subset sum in the order the tables add it
        if p >> i & 1:
            at += values[i]
    target = at + data.draw(st.sampled_from([-epsilon, 0.0, epsilon]), label="offset")
    query = PerfectSumQuery(contributions=tuple(values), target=target, epsilon=epsilon)
    want = bisect_reference(values, target, epsilon)
    assert [c.index for c in perfect_sum(query)] == want
    if lattice:
        assert want == brute_force(values, target, epsilon)


def one_query_reference(values, target, epsilon):
    """The one-query searchsorted kernel that the batch search replaced:
    the vector's own tables, then one pair of searchsorted calls."""
    values = np.array([values], dtype=float).reshape(1, -1)
    h = values.shape[1] // 2
    lo = config_sums_batch(values[:, :h])[0]
    hi = config_sums_batch(values[:, h:])[0]
    hi_masks = hi.argsort(kind="stable") << h
    hi.sort()
    first = hi.searchsorted((target - epsilon) - lo)
    last = hi.searchsorted((target + epsilon) - lo, "right")
    counts = last - first
    ends = counts.cumsum()
    last -= ends
    pos = np.repeat(last, counts) + np.arange(ends[-1])
    masks = hi_masks[pos] | np.repeat(np.arange(1 << h), counts)
    masks.sort()
    return masks.tolist()


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_batch_search_equals_the_one_query_kernel(data):
    # one to three vectors (often one), rows that share them, targets on a
    # subset sum (at epsilon 0 too), at -0.0 and out of reach; on the 1/64
    # lattice every sum is exact, so brute force agrees too
    n = data.draw(st.integers(min_value=0, max_value=12), label="n")
    lattice = data.draw(st.booleans(), label="lattice")
    fresh = (st.integers(min_value=0, max_value=640).map(lambda k: k / 64.0) if lattice
             else st.floats(min_value=0.0, max_value=100.0, allow_subnormal=False))
    vectors = data.draw(st.lists(st.lists(st.one_of(st.just(0.0), fresh), min_size=n, max_size=n),
                                 min_size=1, max_size=3), label="vectors")
    epsilon = data.draw(st.one_of(st.just(0.0), st.integers(min_value=0, max_value=64).map(
        lambda k: k / 64.0)), label="eps")
    vector, targets = [], []
    for _ in range(data.draw(st.integers(min_value=0, max_value=8), label="rows")):
        v = data.draw(st.integers(min_value=0, max_value=len(vectors) - 1), label="v")
        p = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1), label="p")
        at = 0.0
        for i in range(n):  # the subset sum in the order the tables add it
            if p >> i & 1:
                at += vectors[v][i]
        offset = data.draw(st.sampled_from([-epsilon, 0.0, epsilon]), label="offset")
        vector.append(v)
        targets.append(data.draw(st.sampled_from([at + offset, -0.0, 1e6]) | fresh, label="t"))
    batch = DecodeBatch(tuple(map(tuple, vectors)), vector, targets, epsilon)
    candidates, offsets = search_batch(batch)
    assert offsets[0] == 0 and offsets[-1] == len(candidates)
    exact = [[math.fsum(x[i] for i in range(n) if p >> i & 1) for p in range(1 << n)]
             for x in vectors] if lattice else []
    for r, (v, t) in enumerate(zip(vector, targets)):
        got = candidates[offsets[r]:offsets[r + 1]].tolist()
        assert got == one_query_reference(vectors[v], t, epsilon)
        if lattice:
            assert got == [p for p, s in enumerate(exact[v]) if abs(s - t) <= epsilon]


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_array_and_tuple_batches_decode_alike(data):
    # the same vectors as a (V, n) array and as tuples: equal values, equal
    # hashable contributions, equal answers
    n = data.draw(st.integers(min_value=0, max_value=10), label="n")
    fresh = st.integers(min_value=0, max_value=640).map(lambda k: k / 64.0)
    vectors = data.draw(st.lists(st.lists(fresh, min_size=n, max_size=n), min_size=1,
                                 max_size=3), label="vectors")
    vector = data.draw(st.lists(st.integers(min_value=0, max_value=len(vectors) - 1),
                                max_size=8), label="vector")
    targets = data.draw(st.lists(fresh, min_size=len(vector), max_size=len(vector)),
                        label="targets")
    as_array = DecodeBatch(np.array(vectors).reshape(len(vectors), n), vector, targets, 0.25)
    as_tuples = DecodeBatch(tuple(map(tuple, vectors)), vector, targets, 0.25)
    assert as_array.values.dtype == as_tuples.values.dtype == float
    assert np.array_equal(as_array.values, as_tuples.values)
    assert as_array.contributions == as_tuples.contributions == tuple(
        tuple(map(float, v)) for v in vectors)
    assert hash(as_array.contributions) == hash(as_tuples.contributions)
    assert as_array.contributions is as_array.contributions  # built once
    (c1, o1), (c2, o2) = search_batch(as_array), search_batch(as_tuples)
    assert np.array_equal(c1, c2) and np.array_equal(o1, o2)


def test_batch_vectors_must_form_a_two_dimensional_array():
    with pytest.raises(ValueError, match=r"\(V, n\)"):
        DecodeBatch([1.0, 2.0], [0], [1.0], 0.0)


def test_one_byte_budget_searches_one_row_at_a_time(monkeypatch):
    rng = np.random.default_rng(3)
    values = rng.integers(0, 40, (3, 9)) / 8.0
    vector = rng.integers(0, 3, 50)
    targets = rng.integers(0, 80, 50) / 8.0
    batch = DecodeBatch(tuple(map(tuple, values.tolist())), vector, targets, 0.0)
    want = search_batch(batch)
    assert len(inference.search_chunks(np.sort(vector), 9)) == 1
    # a 24-luminaire vector read by many rows takes several chunks, each
    # within the budget
    chunks = inference.search_chunks(np.zeros(20_000, np.intp), 24)
    assert len(chunks) > 1 and chunks[-1][1] == 20_000
    assert all(inference._chunk_bytes(24, k, stop - a, 1) <= inference.TABLE_BUDGET_BYTES
               for a, stop, k in chunks)
    monkeypatch.setattr(inference, "TABLE_BUDGET_BYTES", 1)
    # nothing fits, so each row is a chunk at today's split
    assert inference.search_chunks(np.sort(vector), 9) == [(j, j + 1, 4) for j in range(50)]
    got = search_batch(batch)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert len(want[0]) > 50


@pytest.mark.parametrize("n", [3, 5])
def test_chunked_search_equals_one_chunk_at_every_budget(monkeypatch, n):
    # three vectors interleaved through the rows, vector 1 read by 16 of
    # them, so that at small budgets its rows span several chunks and
    # chunks start and end inside a vector's rows
    rng = np.random.default_rng(n)
    values = rng.integers(0, 12, (3, n)) / 4.0
    vector = np.array([1, 0, 1, 2, 1, 1, 0, 1, 2, 1, 1, 1, 0, 1, 1, 2, 1, 1, 1, 0, 1, 1, 1, 2])
    targets = np.array([float(values[v] @ rng.integers(0, 2, n)) for v in vector])
    targets[::5] += 0.125  # some rows match nothing
    batch = DecodeBatch(tuple(map(tuple, values.tolist())), vector, targets, 0.0625)
    build = inference.half_sums_batch
    results, sizes = [], []
    for budget in (1, 1500, inference.TABLE_BUDGET_BYTES):
        monkeypatch.setattr(inference, "TABLE_BUDGET_BYTES", budget)
        builds = []
        monkeypatch.setattr(inference, "half_sums_batch",
                            lambda v, k: builds.append((len(v), k)) or build(v, k))
        results.append(search_batch(batch))
        chunks = inference.search_chunks(np.sort(vector), n)
        assert [k for _, _, k in chunks] == [k for _, k in builds]
        assert [a for a, _, _ in chunks] == [0] + [stop for _, stop, _ in chunks[:-1]]
        for (a, stop, k), (vectors, _) in zip(chunks, builds):
            assert vectors == len(set(np.sort(vector)[a:stop].tolist()))
            # a chunk fits the budget, or is one row
            assert stop - a == 1 or inference._chunk_bytes(n, k, stop - a, vectors) <= budget
        sizes.append(len(chunks))
    assert sizes[0] == len(vector) > sizes[1] > sizes[2] == 1
    (candidates, offsets), *others = results
    for got in others:
        assert np.array_equal(got[0], candidates) and np.array_equal(got[1], offsets)
    for r, (v, t) in enumerate(zip(vector.tolist(), targets.tolist())):
        want = one_query_reference(values[v].tolist(), t, 0.0625)
        assert candidates[offsets[r]:offsets[r + 1]].tolist() == want
    assert 0 < np.count_nonzero(np.diff(offsets)) < len(vector)


def test_one_row_batches_keep_the_middle_split():
    # a vector read once gains nothing from a larger high table, so one-row
    # batches (perfect_sum) keep split n // 2 at every n
    for n in range(MAX_SOLVER_BITS + 1):
        assert inference.search_chunks(np.zeros(1, np.intp), n) == [(0, 1, n // 2)]
    # a vector read by many rows gets a smaller low half
    assert inference.search_chunks(np.repeat(np.arange(4), 100), 16) == [(0, 400, 4)]


def reference_chunks(vector, n):
    """The earlier planner that search_chunks replaced: whole vectors' rows
    per chunk while they fit, then as many of the next vector's rows as
    fit, tracked by vector."""
    budget = inference.TABLE_BUDGET_BYTES
    chunk_bytes, split = inference._chunk_bytes, inference._split
    starts = np.flatnonzero(np.diff(vector, prepend=-1))  # each vector's first row
    stops = np.append(starts[1:], len(vector))
    fits = [k for k in range(n + 1) if chunk_bytes(n, k, 1, 1) <= budget]
    k0 = split(n, len(vector), len(starts), fits)
    per_row = chunk_bytes(n, k0, 1, 0)
    per_vector = chunk_bytes(n, k0, 0, 1)
    rows_per_chunk = max(1, (budget - per_vector) // per_row)
    # the bytes of rows 0:stops[r], the tables of vectors 0..r
    whole = stops * per_row + np.arange(1, len(starts) + 1) * per_vector
    chunks, a, r0 = [], 0, 0
    while a < len(vector):
        held = a * per_row + r0 * per_vector  # what whole counts before row a
        r = int(whole.searchsorted(budget + held, "right")) - 1  # the last vector that fits
        if r < r0:
            stop = min(int(stops[r0]), a + rows_per_chunk)
        else:
            stop = int(stops[r])
            if r + 1 < len(starts):
                spare = budget + held - int(whole[r]) - per_vector
                stop += max(0, spare // per_row)
        last = int(starts.searchsorted(stop - 1, "right")) - 1
        rows, vectors = stop - a, last - r0 + 1
        k = split(n, rows, vectors,
                  [k for k in range(n + 1) if chunk_bytes(n, k, rows, vectors) <= budget] or [k0])
        chunks.append((a, stop, k))
        a, r0 = stop, last + int(stop == stops[last])
    return chunks


@pytest.mark.parametrize("budget", [16 << 20, 1 << 20, 256 << 10, 64 << 10])
@given(n=st.integers(min_value=0, max_value=MAX_SOLVER_BITS),
       reads=st.lists(st.integers(min_value=1, max_value=400), max_size=60))
@example(n=24, reads=[])
@settings(max_examples=150, deadline=None)
def test_search_chunks_equal_the_vector_by_vector_planner(budget, n, reads):
    # reads[v] rows read vector v; an empty list is the empty batch
    vector = np.repeat(np.arange(len(reads)), reads)
    with mock.patch.object(inference, "TABLE_BUDGET_BYTES", budget):
        chunks = inference.search_chunks(vector, n)
        assert chunks == reference_chunks(vector, n)
    # the chunks tile the rows
    assert [a for a, _, _ in chunks] + [len(vector)] == [0] + [stop for _, stop, _ in chunks]


def left_to_right(values):
    total = 0.0
    for x in values:
        total += x
    return total


def ulp_neighbours(x):
    return [np.nextafter(x, -math.inf), x, np.nextafter(x, math.inf)]


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_every_split_answers_like_the_one_query_kernel(data):
    # non-dyadic contributions, so sums round; targets at a configuration's
    # sum as each split's tables add it and correctly rounded, each
    # +-epsilon and +-1 ulp. Every split the search could pick, forced through _split,
    # gives the split-n // 2 kernel's candidates row for row
    n = data.draw(st.integers(min_value=0, max_value=10), label="n")
    fresh = st.floats(min_value=0.0, max_value=1000.0, allow_subnormal=False)
    scale = data.draw(st.sampled_from([1e-3, 1.0, 1e3]), label="scale")
    vectors = data.draw(st.lists(st.lists(st.one_of(st.just(0.0), fresh), min_size=n, max_size=n),
                                 min_size=1, max_size=3), label="vectors")
    vectors = [[x * scale / 7 for x in v] for v in vectors]
    epsilon = data.draw(st.sampled_from([0.0, 1e-9, 0.01, 1 / 3]), label="eps")
    vector, targets = [], []
    for _ in range(data.draw(st.integers(min_value=1, max_value=8), label="rows")):
        v = data.draw(st.integers(min_value=0, max_value=len(vectors) - 1), label="v")
        p = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1), label="p")
        on = [vectors[v][i] if p >> i & 1 else 0.0 for i in range(n)]
        # the sum as the tables of each split add it, low half + high half
        splits = [left_to_right(on[:j]) + left_to_right(on[j:]) for j in range(n + 1)]
        exact = data.draw(st.sampled_from(splits + [math.fsum(on)]), label="sum")
        target = data.draw(st.sampled_from(ulp_neighbours(exact + data.draw(
            st.sampled_from([-epsilon, 0.0, epsilon]), label="offset"))), label="ulp")
        vector.append(v)
        targets.append(float(target))
    batch = DecodeBatch(tuple(map(tuple, vectors)), vector, targets, epsilon)
    want = [one_query_reference(vectors[v], t, epsilon) for v, t in zip(vector, targets)]
    for k in range(n + 1):
        with mock.patch.object(inference, "_split", lambda n, rows, vectors, splits: k):
            candidates, offsets = search_batch(batch)
        got = [candidates[offsets[r]:offsets[r + 1]].tolist() for r in range(len(vector))]
        assert got == want, f"split {k}"


def test_24_luminaires_read_1000_times_each_stay_within_the_budget():
    # the tables of a low split are large: each chunk must still fit
    rng = np.random.default_rng(24)
    values = rng.uniform(1, 100, (2, 24)) / 7
    vector = np.repeat([0, 1], 1000)
    targets = rng.uniform(0, 300, len(vector))
    batch = DecodeBatch(tuple(map(tuple, values.tolist())), vector, targets, 0.0)
    chunks = inference.search_chunks(vector, 24)
    assert all(k < 12 for _, _, k in chunks)
    tracemalloc.start()
    try:
        candidates, offsets = search_batch(batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= inference.TABLE_BUDGET_BYTES
    for r in range(0, len(vector), 97):
        want = one_query_reference(values[vector[r]].tolist(), targets[r], 0.0)
        assert candidates[offsets[r]:offsets[r + 1]].tolist() == want


def loop_jaccard(truth, candidates):
    """The per-reading score that jaccard_rows replaced: a Python loop
    that adds the candidates' scores left to right."""
    if not candidates:
        return 0.0
    total = 0.0
    for cand in candidates:
        union = (truth | cand).bit_count()
        total += (truth & cand).bit_count() / union if union else 1.0
    return total / len(candidates)


@pytest.mark.parametrize("seed", [0, 1])
def test_row_accuracy_equals_a_left_to_right_sum_bit_for_bit(seed):
    # rows of 9 to 120 candidates, several of each length, where a pairwise
    # sum (np.sum, np.add.reduceat) rounds differently from a Python loop
    rng = np.random.default_rng(seed)
    lengths = rng.integers(9, 121, 60).tolist() * 2 + [0, 1, 3, 8]
    sets = [sorted(set(rng.integers(0, 1 << 24, k).tolist())) for k in lengths]
    sets[-1] = [0, 5]
    truths = rng.integers(0, 1 << 24, len(sets))
    truths[-1] = 0  # two all-off sets score 1
    candidates, offsets = flat(sets)
    got = jaccard_rows(truths, candidates, offsets).tolist()
    want = [loop_jaccard(int(t), s) for t, s in zip(truths, sets)]
    assert got == want
    ratios = [[(int(t) & c).bit_count() / (int(t) | c).bit_count() for c in s]
              for t, s in zip(truths, sets) if len(s) > 8]
    pairwise = [float(np.sum(r)) / len(r) for r in ratios]
    assert pairwise != [w for w, s in zip(want, sets) if len(s) > 8]


def test_popcount_matches_int_bit_count():
    rng = np.random.default_rng(7)
    x = np.concatenate([rng.integers(0, 2**63 - 1, 2000, dtype=np.int64),
                        rng.integers(0, 1 << 24, 2000), [0, 1, 2**24 - 1, 2**62, 2**63 - 1]])
    assert popcount(x).tolist() == [v.bit_count() for v in x.tolist()]


@pytest.mark.parametrize("n", [0, 1, 5, 6, 13])
def test_batched_tables_equal_tables_built_one_at_a_time(n):
    rng = np.random.default_rng(n)
    values = rng.uniform(0, 5, size=(7, n))
    values[rng.random(values.shape) < 0.3] = 0.0
    values[3] = values[1]
    for k in sorted({n // 2, 0, n}):
        batched = half_sums_batch(values, k)
        assert batched.lo.shape == (7, 1 << k)
        for v, row in enumerate(values):
            alone = half_sums_batch(row[None, :], k)
            for field in ("lo", "hi_masks"):
                got, want = getattr(batched, field)[v], getattr(alone, field)[0]
                assert got.dtype == want.dtype and np.array_equal(got, want)
            # the sorted high sums, keyed by the vector's number
            assert np.array_equal(batched.keys[v].imag, alone.keys[0].imag)
            assert np.all(batched.keys[v].real == v)
            assert np.all(np.diff(batched.keys[v].imag) >= 0)
            assert sorted(batched.hi_masks[v].tolist()) == [m << k for m in range(1 << n - k)]
    assert np.array_equal(half_sums_batch(values).lo, half_sums_batch(values, n // 2).lo)


@pytest.mark.parametrize("target, epsilon", [
    (math.nan, 0.01), (math.inf, 0.01), (-math.inf, 0.01), (1.0, math.nan), (1.0, math.inf),
])
def test_query_rejects_non_finite_target_and_epsilon(target, epsilon):
    with pytest.raises(ValueError, match="finite"):
        PerfectSumQuery(contributions=(1.0, 2.0), target=target, epsilon=epsilon)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("at", [0, 1])
def test_query_rejects_non_finite_contributions(bad, at):
    # a NaN or infinite contribution used to pass the sign check, and the
    # search then matched configurations that leave it off
    values = [1.0, 1.0]
    values[at] = bad
    with pytest.raises(ValueError, match="finite"):
        PerfectSumQuery(contributions=tuple(values), target=1.0, epsilon=0.01)


def test_contributions_whose_total_overflows_are_rejected():
    # a subset sum of inf would turn a search key into inf - inf = NaN,
    # which sorts past every vector's table
    big = np.finfo(float).max / 2
    PerfectSumQuery(contributions=(big, big / 2), target=1.0, epsilon=0.01)
    with pytest.raises(ValueError, match="sum to a finite number"):
        PerfectSumQuery(contributions=(big, big, big), target=1.0, epsilon=0.01)


class TestJaccard:
    def test_worked_ambiguity(self):
        truth = LightConfig.from_index(0b011, 3)
        cands = [0b011, 0b101]
        assert jaccard_accuracy(truth, cands) == pytest.approx(2 / 3, abs=1e-12)

    def test_exact_match_scores_one(self):
        truth = LightConfig.from_index(0b10, 2)
        assert jaccard_accuracy(truth, [truth.index]) == 1.0

    def test_all_off_pair_scores_one(self):
        off = LightConfig.from_index(0, 3)
        assert jaccard_accuracy(off, [off.index]) == 1.0

    def test_empty_candidates_score_zero(self):
        assert jaccard_accuracy(LightConfig.from_index(1, 1), []) == 0.0

    def test_disjoint_sets_score_zero(self):
        truth = LightConfig.from_index(0b01, 2)
        assert jaccard_accuracy(truth, [0b10]) == 0.0

    def test_infer_reading_scores_against_truth(self):
        batch = DecodeBatch(((2.0, 3.0, 4.0, 5.0),), [0, 0], [7.0, 1.0], 0.0)
        result = infer_reading(batch, truth=np.array([0b1001, 0b0001]))
        assert isinstance(result, InferenceResult)
        assert result.candidates.tolist() == [0b0110, 0b1001]
        assert result.offsets.tolist() == [0, 2, 2]
        assert result.no_solution == 1
        # candidates {1,2} and {0,3}: disjoint from truth scores 0, exact hit
        # 1; the unsolved row scores 0
        assert result.accuracy.tolist() == [pytest.approx(0.5, abs=1e-12), 0.0]


class TestVoting:
    def test_single_candidate_votes_its_bits(self):
        assert votes_of([(3.0, 2.0)], [[0b01]]) == [(1, -1)]

    def test_out_of_range_luminaire_abstains(self):
        assert votes_of([(3.0, 2.0, 0.0)], [[0b101]])[0][2] == 0

    def test_split_candidates_abstain(self):
        assert votes_of([(3.0, 2.0)], [[0b01, 0b10]]) == [(0, 0)]

    def test_majority_of_candidates_wins(self):
        assert votes_of([(3.0, 2.0)], [[0b01, 0b10, 0b11]]) == [(1, 1)]

    def test_high_luminaires_vote_like_low_ones(self):
        n = 24
        values = [1.0] * n
        values[5] = 0.0
        top = 1 << 23
        (votes,) = votes_of([values], [[1 << 5, top, top | 1 << 5 | 1]])
        assert votes[23] == 1 and votes[0] == -1 and votes[5] == 0
        assert votes[1:5] + votes[6:23] == (-1,) * 21

    def test_fusion_majority_on(self):
        assert fuse_votes(np.array([[1], [1], [-1]]), [0, 0, 0]).tolist() == [1]

    def test_fusion_tie_resolves_off(self):
        assert fuse_votes(np.array([[1], [-1]]), [0, 0]).tolist() == [0]

    def test_fusion_abstain_plus_off_is_off(self):
        assert fuse_votes(np.array([[-1], [0]]), [0, 0]).tolist() == [0]

    def test_fusion_needs_votes(self):
        with pytest.raises(ValueError):
            fuse_votes(np.zeros((0, 1), np.int8), [])
        with pytest.raises(ValueError):
            fuse_votes(np.ones((2, 1), np.int8), [0])

    def test_fusion_logs_its_ties_once_and_only_at_debug(self, caplog):
        votes = np.array([(1, 0, -1, 0), (-1, 0, 1, 1)])
        with caplog.at_level(logging.INFO, logger="luxplan.inference"):
            fuse_votes(votes, [0, 0])
        assert not caplog.records
        with caplog.at_level(logging.DEBUG, logger="luxplan.inference"):
            assert fuse_votes(votes, [0, 0]).tolist() == [0b1000]
        assert [r.getMessage() for r in caplog.records] == [
            "fuse_votes: ties on luminaires [0, 1, 2] resolve to off"]


@pytest.mark.parametrize("seed", [0, 1 << 30])
def test_vote_counting_paths_match_a_per_luminaire_reference(seed):
    # sensor_votes counts every set in one numpy pass; two independent
    # streams of random sets check it against a per-luminaire count
    rng = np.random.default_rng(seed)
    for _ in range(200):
        n = int(rng.integers(1, 25))
        values = rng.uniform(0, 2, n) * (rng.random(n) < 0.7)
        masks = sorted(set(rng.integers(0, 1 << n, int(rng.integers(0, 40))).tolist()))
        want = []
        for i in range(n):
            ones = sum(m >> i & 1 for m in masks)
            zeros = len(masks) - ones
            want.append(0 if values[i] == 0 or ones == zeros else (1 if ones > zeros else -1))
        assert votes_of([values], [masks]) == [tuple(want)]


class TestCandidateFusion:
    def candidate_sets(self, vectors, truth):
        sets = []
        for v in vectors:
            lux = sum(x for i, x in enumerate(v) if truth >> i & 1)
            sets.append(solve(v, lux, 0.0))
        return sets

    def test_exact_sensor_is_not_outvoted(self):
        # truth "lamp 3 only": the first sensor decodes it exactly, the
        # other two admit 3 candidates each and vote lamp 3 off
        vectors = [(1.0, 2.0, 4.0, 8.0), (1.0, 2.0, 3.0, 3.0), (2.0, 4.0, 6.0, 6.0)]
        sets = self.candidate_sets(vectors, 0b1000)
        (voted,) = fuse_votes(np.array(votes_of(vectors, sets)), [0, 0, 0]).tolist()
        assert voted == 0
        assert fuse_one(sets, voted) == (0b1000, "intersection")

    def test_shared_candidates_go_to_the_one_nearest_the_vote(self):
        sets = [[0b001, 0b011, 0b101, 0b110], [0b011, 0b101, 0b110]]
        assert fuse_one(sets, 0b100) == (0b101, "intersection")
        # 0b011 and 0b101 are one bit from the vote: the lowest index wins
        assert fuse_one(sets, 0b001)[0] == 0b011

    def test_disjoint_sets_fall_back_to_the_vote(self):
        assert fuse_one([[1], [2], []], 3) == (3, "vote")

    def test_needs_a_candidate_set(self):
        with pytest.raises(ValueError):
            fuse_candidates(np.zeros(0, np.int64), np.zeros(1, np.int64), [], np.array([0]))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_scoring_voting_and_fusion_match_a_bit_tuple_reference(data):
    n = data.draw(st.integers(min_value=1, max_value=8))
    config = st.integers(min_value=0, max_value=(1 << n) - 1)
    # small sets over a few luminaires make ties, shared members and all-off common
    truth = data.draw(config)
    sets = data.draw(st.lists(st.lists(config, max_size=6, unique=True).map(sorted),
                              min_size=1, max_size=4))
    values = data.draw(st.lists(st.sampled_from([0.0, 1.5]), min_size=n, max_size=n))
    bits = {p: tuple(p >> i & 1 for i in range(n)) for p in range(1 << n)}

    def on(p):
        return {i for i, b in enumerate(bits[p]) if b}

    def ref_jaccard(t, cands):
        scores = [len(on(t) & on(c)) / len(on(t) | on(c)) if on(t) | on(c) else 1.0
                  for c in cands]
        return sum(scores) / len(scores) if scores else 0.0

    def ref_votes(cands):
        votes = []
        for i in range(n):
            ones = sum(bits[c][i] for c in cands)
            zeros = len(cands) - ones
            votes.append(0 if values[i] == 0 or ones == zeros else (1 if ones > zeros else -1))
        return tuple(votes)

    truth_config = LightConfig.from_index(truth, n)
    for s in sets:
        assert jaccard_accuracy(truth_config, s) == pytest.approx(ref_jaccard(truth, s), abs=1e-12)
    assert jaccard_accuracy(LightConfig.from_index(0, n), [0]) == 1.0

    votes = votes_of([values] * len(sets), sets)
    assert votes == [ref_votes(s) for s in sets]
    sums = [sum(v[i] for v in votes) for i in range(n)]
    (voted,) = fuse_votes(np.array(votes), np.zeros(len(sets), np.intp)).tolist()
    assert bits[voted] == tuple(int(t > 0) for t in sums)

    common = set(sets[0]).intersection(*map(set, sets[1:]))
    fused, rule = fuse_one(sets, voted)
    if not common:
        assert (fused, rule) == (voted, "vote")
    else:
        distance = {c: sum(a != b for a, b in zip(bits[c], bits[voted])) for c in common}
        nearest = min(distance.values())
        assert rule == "intersection"
        assert fused == min(c for c in common if distance[c] == nearest)


def lightconfig_fusion(vectors, candidate_sets):
    """Sensor votes, their majority and the candidate fusion as they were
    computed on lists of LightConfig: per-luminaire vote counts, then a
    Hamming-nearest member of the set intersection keyed by (distance,
    index), or the vote when the sets share nothing."""
    n = len(vectors[0])
    all_votes = []
    for values, cands in zip(vectors, candidate_sets):
        k = len(cands)
        ones = [sum(c.index >> i & 1 for c in cands) for i in range(n)]
        all_votes.append([(o + o > k) - (o + o < k) if v > 0 else 0 for o, v in zip(ones, values)])
    voted = LightConfig(sum(1 << i for i in range(n) if sum(v[i] for v in all_votes) > 0), n)
    common = set.intersection(*({c.index for c in cands} for cands in candidate_sets))
    if not common:
        return voted, "vote"
    nearest = min(common, key=lambda m: ((m ^ voted.index).bit_count(), m))
    return LightConfig(nearest, n), "intersection"


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_index_fusion_matches_the_lightconfig_rule(data):
    # several trials of one batch, their rows interleaved: votes, vote
    # totals and fusion run once over all rows and must answer each trial
    # as the per-trial rule does
    n = data.draw(st.integers(min_value=1, max_value=10), label="n")
    config = st.integers(min_value=0, max_value=(1 << n) - 1)
    rows = data.draw(st.integers(min_value=1, max_value=12), label="rows")
    trial = data.draw(st.lists(st.integers(min_value=0, max_value=3), min_size=rows,
                               max_size=rows), label="trials")
    trial = np.unique(trial, return_inverse=True)[1].ravel()  # numbered from 0
    # few luminaires and a small pool of members make shared members,
    # Hamming ties, split votes and empty sets or intersections common
    pool = data.draw(st.lists(config, min_size=1, max_size=12, unique=True), label="pool")
    member = st.one_of(st.sampled_from(pool), config)
    sets = [sorted(data.draw(st.sets(member, max_size=10), label=f"set {s}")) for s in range(rows)]
    vectors = [data.draw(st.lists(st.sampled_from([0.0, 0.5, 2.0]), min_size=n, max_size=n),
                         label=f"vector {s}") for s in range(rows)]
    candidates, offsets = flat(sets)
    voted = fuse_votes(np.array(votes_of(vectors, sets)), trial)
    fused, decided = fuse_candidates(candidates, offsets, trial, voted)
    for t in range(trial.max() + 1):
        mine = np.flatnonzero(trial == t).tolist()
        want = lightconfig_fusion([vectors[r] for r in mine],
                                  [[LightConfig(m, n) for m in sets[r]] for r in mine])
        assert (LightConfig(int(fused[t]), n), "intersection" if decided[t] else "vote") == want
