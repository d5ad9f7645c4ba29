"""Distinctness scoring and sensor-set covering, checked against oracles."""
import itertools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luxplan import (
    CoverInstance,
    DoorState,
    StateSpace,
    build_cover_instance,
    config_sums_batch,
    distinctness_flags_batch,
    distinctness_vector,
    exact_min_cover,
    greedy_set_cover,
    harmonic_bound,
    heatmap_scores,
    restrict_cover_instance,
)
from luxplan import planning
from luxplan.planning import _isolated
from luxplan.transport import ContributionMatrix


def all_pairs_flags(values, tau):
    """Isolation by the direct definition: compare every value with every other."""
    out = []
    for i, v in enumerate(values):
        gaps = [abs(v - w) for j, w in enumerate(values) if j != i]
        out.append(1 if (not gaps or min(gaps) > tau) else 0)
    return tuple(out)


def exhaustive_min_cover_size(universe, sets):
    coverable = set().union(*sets) & set(universe) if sets else set()
    for k in range(len(sets) + 1):
        for combo in itertools.combinations(range(len(sets)), k):
            if set().union(*(sets[i] for i in combo), set()) >= coverable:
                return k
    return len(sets)


class TestDistinctnessVector:
    def test_unit_gap_flags_only_the_outlier(self):
        d = distinctness_vector([1, 2, 4], tau=1.0)
        assert d.flags == (0, 0, 1)
        assert d.score == 1

    def test_half_gap_flags_everything(self):
        d = distinctness_vector([1, 2, 4], tau=0.5)
        assert d.flags == (1, 1, 1)
        assert d.score == 3

    def test_coincident_values_never_distinct(self):
        assert distinctness_vector([5, 5], tau=0.0).flags == (0, 0)
        assert distinctness_vector([5, 5], tau=3.0).score == 0

    def test_gap_exactly_tau_is_not_distinct(self):
        assert distinctness_vector([0.0, 1.0], tau=1.0).flags == (0, 0)

    def test_single_value_is_distinct(self):
        assert distinctness_vector([7.0], tau=100.0).flags == (1,)

    def test_flags_follow_input_order(self):
        assert distinctness_vector([4, 1, 2], tau=1.0).flags == (1, 0, 0)

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            distinctness_vector([1.0], tau=-0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            distinctness_vector([], tau=0.1)


@given(
    st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=24),
    st.integers(min_value=0, max_value=16),
)
@settings(max_examples=300, deadline=None)
def test_sorted_gap_equals_all_pairs(raw, tau_quarters):
    values = [v / 2.0 for v in raw]  # half-integer lattice forces collisions
    tau = tau_quarters / 4.0
    assert distinctness_vector(values, tau).flags == all_pairs_flags(values, tau)


@given(
    st.lists(st.floats(min_value=0, max_value=50, allow_nan=False), min_size=1, max_size=20),
    st.floats(min_value=0, max_value=5, allow_nan=False),
    st.floats(min_value=0, max_value=5, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_score_is_nonincreasing_in_tau(values, tau1, tau2):
    lo, hi = sorted([tau1, tau2])
    d_lo = distinctness_vector(values, lo)
    d_hi = distinctness_vector(values, hi)
    assert all(a >= b for a, b in zip(d_lo.flags, d_hi.flags))
    assert d_lo.score >= d_hi.score


def fsum_config_readings(x):
    """Every configuration's reading by exact summation, indexed by config."""
    n = len(x)
    return [math.fsum(x[i] for i in range(n) if p >> i & 1) for p in range(1 << n)]


class TestStateDistinctness:
    """Isolation flags over all 2^n readings at one point and door state."""

    @staticmethod
    def flags(x, tau):
        return tuple(int(f) for f in distinctness_flags_batch(np.array(x), tau))

    def test_three_distinct_contributions_resolve_all_states(self):
        assert self.flags([1.0, 2.0, 4.0], tau=0.01) == (1,) * 8

    def test_duplicate_contribution_collapses_pairs(self):
        flags = self.flags([1.0, 1.0, 4.0], tau=0.01)
        assert sum(flags) == 4
        # exactly the states whose readings are 0, 2, 4, 6
        sums = fsum_config_readings([1.0, 1.0, 4.0])
        assert tuple(sums[p] for p in range(8) if flags[p]) == (0.0, 2.0, 4.0, 6.0)

    def test_two_dark_luminaires_kill_every_state(self):
        assert sum(self.flags([0.0, 0.0, 4.0], tau=0.01)) == 0

    def test_single_luminaire(self):
        assert self.flags([10.0], tau=0.01) == (1, 1)

    def test_matches_all_pairs_on_readings(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.integers(0, 8, size=5) / 2.0
            tau = float(rng.choice([0.0, 0.25, 1.0]))
            sums = fsum_config_readings(x)
            assert self.flags(x, tau) == all_pairs_flags(sums, tau)


class TestBatch:
    def test_config_sums_batch_matches_scalar(self):
        rng = np.random.default_rng(9)
        values = rng.uniform(0, 30, size=(4, 3, 5))
        sums = config_sums_batch(values)
        assert sums.shape == (4, 3, 32)
        for i in (0, 3):
            for q in (0, 2):
                expected = fsum_config_readings(values[i, q])
                assert np.allclose(sums[i, q], expected, rtol=1e-12)

    @pytest.mark.parametrize("shape", [(7, 16), (292, 6), (1, 20), (5, 3, 7), (4, 1), (3, 0)])
    def test_config_sums_batch_equals_the_doubling_with_temporaries(self, shape):
        # thirds and square roots are not dyadic, so the sums round, and the
        # in-place steps must round each of them exactly as before
        values = np.sqrt(np.random.default_rng(15).uniform(1, 90, size=shape)) / 3
        expected = np.zeros(shape[:-1] + (1 << shape[-1],))
        for i in range(shape[-1]):
            half = 1 << i
            expected[..., half:2 * half] = expected[..., :half] + values[..., i:i + 1]
        sums = config_sums_batch(values)
        assert sums.shape == expected.shape
        assert sums.tobytes() == expected.tobytes()

    def test_flags_batch_matches_vector_route(self):
        rng = np.random.default_rng(10)
        values = rng.integers(0, 6, size=(6, 2, 4)) / 2.0
        flags = distinctness_flags_batch(values, tau=0.25)
        assert flags.shape == (6, 2, 16)
        for i in range(6):
            for q in range(2):
                d = distinctness_vector(config_sums_batch(values[i, q]), tau=0.25)
                assert tuple(int(f) for f in flags[i, q]) == d.flags

    @pytest.mark.parametrize("rows", [
        # repeated rows, as door states leave most cells' vectors unchanged
        [[1.0, 2.0, 4.0], [1.0, 1.0, 4.0], [1.0, 2.0, 4.0], [0.0, 0.0, 0.0], [1.0, 2.0, 4.0]],
        # byte patterns differ, values compare equal
        [[0.0, 1.0, 3.0], [-0.0, 1.0, 3.0], [0.0, -0.0, 2.0], [0.0, 0.0, 2.0]],
        # nothing to share
        np.random.default_rng(14).uniform(0, 5, size=(7, 4)).tolist(),
    ])
    def test_flags_batch_matches_per_row_vectors(self, rows):
        values = np.array(rows).reshape(len(rows), 1, -1)
        flags = distinctness_flags_batch(values, tau=0.3)
        assert flags.shape == values.shape[:2] + (1 << values.shape[2],)
        for k, row in enumerate(rows):
            d = distinctness_vector(config_sums_batch(np.array(row)), tau=0.3)
            assert tuple(int(f) for f in flags[k, 0]) == d.flags

    def test_heatmap_scores_sum_flags(self):
        rng = np.random.default_rng(12)
        values = rng.uniform(0, 10, size=(5, 3, 4))
        matrix = ContributionMatrix(values=values)
        scores = heatmap_scores(matrix, tau=0.1)
        assert scores.shape == (5, 3)
        flags = distinctness_flags_batch(values, tau=0.1)
        assert np.array_equal(scores, flags.sum(axis=-1))

    def test_aggregate_distinctness_sums_over_door_states(self):
        values = np.array([[[1.0, 2.0, 4.0], [1.0, 1.0, 4.0]]])
        scores = heatmap_scores(ContributionMatrix(values=values), tau=0.01)
        assert scores.tolist() == [[8, 4]]
        assert scores.sum(axis=1).tolist() == [8 + 4]


def unpruned_flags(values, tau):
    """The batch kernel without the exact-zero prune: every row's 2^n sums
    are built and compared, one row at a time."""
    values = np.asarray(values, dtype=float)
    rows = values.reshape(-1, values.shape[-1])
    flags = [_isolated(config_sums_batch(row), tau) for row in rows]
    return np.array(flags).reshape(values.shape[:-1] + (1 << values.shape[-1],))


class TestExactZeroPrune:
    @pytest.mark.parametrize("tau", [-1.0, -0.5, -1e-300, math.nan, math.inf, -math.inf])
    def test_bad_tau_rejected(self, tau):
        # a negative tau would call every colliding reading isolated
        with pytest.raises(ValueError, match="tau must be nonnegative"):
            distinctness_flags_batch(np.array([[1.0, 0.0]]), tau)
        with pytest.raises(ValueError, match="tau must be nonnegative"):
            distinctness_vector([1.0, 2.0], tau)

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_row_with_a_zero_entry_isolates_nothing(self, zero):
        values = np.array([[3.0, zero, 5.0], [3.0, 1.0, 5.0]])
        flags = distinctness_flags_batch(values, tau=0.0)
        assert not flags[0].any()
        assert flags[1].all()
        assert np.array_equal(flags, unpruned_flags(values, 0.0))

    def test_all_rows_zero_and_no_row_zero(self):
        for values in (np.zeros((3, 2, 4)), np.broadcast_to([1.0, 2.0, 4.0, 8.0], (3, 2, 4))):
            assert np.array_equal(distinctness_flags_batch(values, 0.01), unpruned_flags(values, 0.01))


def at_budgets(compute, n):
    """compute() at the default budget, at 1 B (one row a chunk) and at two
    rows a chunk of n-luminaire sums; all three must agree."""
    got = []
    for budget in (planning.SCORE_BUDGET_BYTES, 1, 2 * (8 << n)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(planning, "SCORE_BUDGET_BYTES", budget)
            got.append(compute())
    for result in got[1:]:
        assert result.dtype == got[0].dtype
        assert np.array_equal(result, got[0])
    return got[0]


# half-lux lattice values collide often; tiny and -0.0 entries sit at the prune's edge
any_entry = (st.integers(min_value=0, max_value=8).map(lambda k: k / 2.0)
             | st.sampled_from([-0.0, 1e-300]) | st.floats(0.0, 50.0))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_pruned_flags_equal_the_unpruned_kernel(data):
    n = data.draw(st.integers(min_value=1, max_value=10))
    n_rows = data.draw(st.integers(min_value=1, max_value=6))
    rows = [data.draw(st.lists(any_entry, min_size=n, max_size=n)) for _ in range(n_rows)]
    # plant 0.0 and -0.0 in some rows, and repeat some rows
    for row in rows:
        if data.draw(st.booleans()):
            where = data.draw(st.integers(min_value=0, max_value=n - 1))
            row[where] = data.draw(st.sampled_from([0.0, -0.0]))
    rows += [rows[i] for i in data.draw(st.lists(st.integers(min_value=0, max_value=n_rows - 1), max_size=3))]
    values = np.array(rows).reshape(len(rows), 1, n)
    tau = data.draw(st.sampled_from([0.0, 0.0, 0.01, 0.25, 1.0]))
    flags = at_budgets(lambda: distinctness_flags_batch(values, tau), n)
    assert flags.dtype == bool
    assert np.array_equal(flags, unpruned_flags(values, tau))


# k/64 entries add up exactly, so their sums tie and their gaps can equal tau
dyadic = st.integers(min_value=1, max_value=256).map(lambda k: k / 64.0)


def scores_at_budgets(matrix, tau):
    return at_budgets(lambda: heatmap_scores(matrix, tau), matrix.values.shape[-1])


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_heatmap_scores_equal_the_unpruned_flag_counts(data):
    n = data.draw(st.integers(min_value=1, max_value=8))
    n_points = data.draw(st.integers(min_value=1, max_value=5))
    n_states = data.draw(st.integers(min_value=1, max_value=4))
    kind = data.draw(st.sampled_from(["mixed", "mixed", "all dead", "all live"]))
    entry = st.floats(0.5, 50.0) | dyadic if kind == "all live" else any_entry | dyadic
    values = np.array(data.draw(st.lists(st.lists(st.lists(entry, min_size=n, max_size=n),
                                                   min_size=n_states, max_size=n_states),
                                          min_size=n_points, max_size=n_points)))
    if kind == "all dead":
        values[..., data.draw(st.integers(min_value=0, max_value=n - 1))] = data.draw(
            st.sampled_from([0.0, -0.0]))
    elif kind == "mixed":
        # plant 0.0 and -0.0, and repeat a cell's vector across door states
        for p, q in data.draw(st.lists(st.tuples(st.integers(0, n_points - 1),
                                                 st.integers(0, n_states - 1)), max_size=4)):
            values[p, q, data.draw(st.integers(0, n - 1))] = data.draw(st.sampled_from([0.0, -0.0]))
        for p, q, r in data.draw(st.lists(st.tuples(st.integers(0, n_points - 1),
                                                    st.integers(0, n_states - 1),
                                                    st.integers(0, n_states - 1)), max_size=4)):
            values[p, r] = values[p, q]
    tau = data.draw(st.sampled_from([0.0, 0.01, 1 / 64, 0.25, 1.0]))
    scores = scores_at_budgets(ContributionMatrix(values=values), tau)
    assert scores.dtype == np.int64
    assert scores.shape == (n_points, n_states)
    assert np.array_equal(scores, unpruned_flags(values, tau).sum(-1))


def test_heatmap_scores_of_tied_sums_and_gaps_of_exactly_tau():
    # sums of (1, 2, 3)/64 are 0..6/64 with 3/64 twice: every gap is 1/64
    # but the tie's, so at tau = 1/64 nothing is isolated, and below it all
    # but the tied pair are; (1, 2, 4)/64 has no tie, and (2, 4, 8)/64 has
    # gaps of 2/64
    values = np.array([[[1, 2, 3], [1, 2, 4]], [[2, 4, 8], [1, 2, 3]]]) / 64.0
    matrix = ContributionMatrix(values=values)
    for tau, want in ((0.0, [[6, 8], [8, 6]]), (1 / 128, [[6, 8], [8, 6]]),
                      (1 / 64, [[0, 0], [8, 0]]), (2 / 64, [[0, 0], [0, 0]])):
        scores = scores_at_budgets(matrix, tau)
        assert scores.tolist() == want, tau
        flags = at_budgets(lambda: distinctness_flags_batch(values, tau), 3)
        assert np.array_equal(flags, unpruned_flags(values, tau))
        assert np.array_equal(scores, flags.sum(-1))


def test_heatmap_scores_peak_memory_follows_the_budget(monkeypatch):
    # 48 distinct live 16-luminaire vectors hold 24 MB of sums; at a 2 MB
    # budget a chunk holds 4 of them, and its sums, gaps and flags about
    # 2.25 budgets
    budget = 2 << 20
    monkeypatch.setattr(planning, "SCORE_BUDGET_BYTES", budget)
    rng = np.random.default_rng(7)
    values = rng.uniform(1.0, 100.0, size=(48, 1, 16))
    matrix = ContributionMatrix(values=values)
    tracemalloc.start()
    try:
        scores = heatmap_scores(matrix, 0.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * budget
    assert np.array_equal(scores[:2], unpruned_flags(values[:2], 0.01).sum(-1))


def test_flag_pass_peak_memory_follows_the_budget(monkeypatch):
    # the same 48 vectors: besides the flags held per distinct vector, a
    # chunk's sums, sort order and gaps take about 3 budgets (the sums are
    # sorted in place)
    budget = 2 << 20
    monkeypatch.setattr(planning, "SCORE_BUDGET_BYTES", budget)
    values = np.random.default_rng(7).uniform(1.0, 100.0, size=(48, 1, 16))
    tracemalloc.start()
    try:
        flags = distinctness_flags_batch(values, 0.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * budget + flags.nbytes
    assert np.array_equal(flags[:2], unpruned_flags(values[:2], 0.01))


def test_flag_pass_over_distinct_live_rows_holds_its_flags_once(monkeypatch):
    # the cover's call: every row is its own distinct live vector, so the
    # per-vector flags are the answer, not gathered into a second copy
    budget = 256 << 10
    monkeypatch.setattr(planning, "SCORE_BUDGET_BYTES", budget)
    values = np.random.default_rng(7).uniform(1.0, 100.0, size=(96, 14))
    tracemalloc.start()
    try:
        flags = distinctness_flags_batch(values, 0.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert flags.shape == (96, 1 << 14)
    assert peak < 4 * budget + flags.nbytes < 2 * flags.nbytes
    assert np.array_equal(flags[:2], unpruned_flags(values[:2], 0.01))
    repeated = distinctness_flags_batch(values[[0, 1, 0]], 0.01)
    assert np.array_equal(repeated, flags[[0, 1, 0]])


def sorted_gaps(sums):
    """What _isolated leaves in its sums buffer: each row's gaps in sorted
    order, then an infinite gap past the row's end."""
    gaps = np.full(sums.shape, np.inf)
    gaps[..., :-1] = np.diff(np.sort(sums, axis=-1), axis=-1)
    return gaps


def test_isolation_overwrites_its_sums_with_their_gaps():
    # besides the sums, the kernel holds only their sort keys, the values in
    # sorted order and the flags: about twice the sums' size
    sums = config_sums_batch(np.random.default_rng(7).uniform(1.0, 100.0, size=(4, 16)))
    # reference: the flags of a sorted copy, put back through the order
    order = np.argsort(sums, axis=-1)
    expected = np.empty(sums.shape, dtype=bool)
    np.put_along_axis(expected, order, planning._isolated_sorted(
        np.take_along_axis(sums, order, axis=-1), 0.01), axis=-1)
    gaps = sorted_gaps(sums)
    tracemalloc.start()
    try:
        flags = _isolated(sums, 0.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * sums.nbytes
    assert np.array_equal(sums, gaps)
    assert np.array_equal(flags, expected) and flags.any() and not flags.all()


# entries that tie, sit a few ulps apart, change sign or are -0.0
isolation_entry = (
    st.floats(-100.0, 100.0, allow_nan=False)
    | st.integers(min_value=-64, max_value=64).map(lambda k: k / 64.0)
    | st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.3, 0.1 + 0.2, 1e-300, -1e-300])
    | st.tuples(st.sampled_from([0.3, 1.0, -7.5, 1e6]), st.integers(-3, 3)).map(
        lambda t: t[0] + t[1] * math.ulp(t[0]))
)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_isolation_equals_all_pairs(data):
    width = data.draw(st.integers(min_value=1, max_value=40))
    n_rows = data.draw(st.integers(min_value=1, max_value=4))
    if data.draw(st.booleans()):
        rows = [data.draw(st.lists(isolation_entry, min_size=width, max_size=width))
                for _ in range(n_rows)]
    else:
        # equal contributions summed in another order land a few ulps apart
        n = data.draw(st.integers(min_value=0, max_value=5))
        pool = st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.1, -0.3])
        rows = config_sums_batch([data.draw(st.lists(pool, min_size=n, max_size=n))
                                  for _ in range(n_rows)]).tolist()
    rows += [rows[i] for i in data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=2))]
    sums = np.array(rows)
    # a gap of exactly 1/64 is not isolated at tau = 1/64
    tau = data.draw(st.sampled_from([0.0, 0.0, 1e-12, 1 / 64, 0.25]))
    gaps = sorted_gaps(sums)
    flags = _isolated(sums, tau)
    assert flags.dtype == bool
    assert [tuple(row) for row in flags.astype(int).tolist()] == [
        all_pairs_flags(row, tau) for row in rows]
    assert np.array_equal(sums, gaps)


def near_tie_rows(sums):
    """Rows whose sums, put in the order of _isolated's keys (each sum with
    its low bits replaced by its index), are out of order: the rows it
    sorts again exactly."""
    bits = (sums.shape[-1] - 1).bit_length()
    keys = (sums.view(np.int64) >> bits << bits | np.arange(sums.shape[-1])).view(np.float64)
    ordered = np.take_along_axis(sums, np.argsort(keys, axis=-1), axis=-1)
    return np.flatnonzero((np.diff(ordered, axis=-1) < 0).any(axis=-1))


def test_near_tie_repair_on_the_apartment(apartment_matrix):
    # at 0.165 m a few live vectors have sums within 64 ulps of each other
    live = np.unique(apartment_matrix.values.reshape(-1, 6), axis=0)
    live = live[(live != 0).all(axis=1)]
    sums = config_sums_batch(live)
    assert near_tie_rows(sums).size > 0
    gaps = sorted_gaps(sums)
    for tau in (0.0, 0.01):
        got = sums.copy()
        flags = _isolated(got, tau)
        assert np.array_equal(got, gaps)
        assert [tuple(row) for row in flags.astype(int).tolist()] == [
            all_pairs_flags(row, tau) for row in sums.tolist()]


@pytest.mark.parametrize("bad", [math.nan, -math.nan, math.inf, -math.inf])
def test_non_finite_contributions_rejected(bad):
    values = np.array([[[1.0, bad, 4.0]]])
    with pytest.raises(ValueError, match="must be finite"):
        distinctness_vector(values[0, 0], 0.01)
    with pytest.raises(ValueError, match="must be finite"):
        distinctness_flags_batch(values, 0.01)
    with pytest.raises(ValueError, match="must be finite"):
        heatmap_scores(ContributionMatrix(values=values), 0.01)


@pytest.mark.parametrize("tau", [-1.0, math.nan, math.inf])
def test_heatmap_scores_check_tau_without_live_rows(tau):
    with pytest.raises(ValueError, match="tau must be nonnegative"):
        heatmap_scores(ContributionMatrix(values=np.zeros((3, 2, 4))), tau)


class TestStateSpace:
    def test_totals(self):
        space = StateSpace(n_luminaires=6, door_states=tuple(DoorState((a,)) for a in (0, 45, 90)))
        assert space.n_configs == 64
        assert space.total == 192

    def test_state_id_round_trip(self):
        space = StateSpace(n_luminaires=3, door_states=(DoorState((0,)), DoorState((90,))))
        seen = set()
        for q in range(2):
            for p in range(8):
                sid = space.state_id(p, q)
                assert space.unpack(sid) == (p, q)
                seen.add(sid)
        assert seen == set(range(16))

    def test_bounds_checked(self):
        space = StateSpace(n_luminaires=2, door_states=(DoorState(()),))
        with pytest.raises(ValueError):
            space.state_id(4, 0)
        with pytest.raises(ValueError):
            space.state_id(0, 1)


class TestCoverInstance:
    def test_point_distinguishing_everything_covers_the_universe(self):
        values = np.array([[[1.0, 2.0, 4.0]]])  # one point, one door state
        instance = build_cover_instance(ContributionMatrix(values=values), tau=0.01)
        assert instance.ids.tolist() == list(range(8))
        assert instance.matrix.tolist() == [[True] * 8]

    def test_fully_occluded_point_covers_nothing(self):
        values = np.zeros((1, 2, 3))
        instance = build_cover_instance(ContributionMatrix(values=values), tau=0.01)
        assert instance.ids.tolist() == list(range(16))
        assert instance.matrix.shape == (1, 16)
        assert not instance.matrix.any()

    def test_state_ids_follow_state_space_layout(self):
        # second door state resolves nothing, first resolves everything
        values = np.array([[[1.0, 2.0], [0.0, 0.0]]])
        instance = build_cover_instance(ContributionMatrix(values=values), tau=0.01)
        space = StateSpace(n_luminaires=2, door_states=(DoorState((0,)), DoorState((90,))))
        expected = [space.state_id(p, 0) for p in range(4)]
        assert instance.ids[instance.matrix[0]].tolist() == expected

    def test_ids_name_the_matrix_door_states(self):
        rng = np.random.default_rng(6)
        values = rng.uniform(0.5, 9.0, (3, 4, 2))
        whole = build_cover_instance(ContributionMatrix(values=values), tau=0.01)
        for qs in ([2], [1, 3], [0, 1, 2, 3]):
            part = build_cover_instance(ContributionMatrix(values=values[:, qs], door_states=qs),
                                        tau=0.01)
            assert part.ids.tolist() == [q * 4 + p for q in qs for p in range(4)]
            keep = restrict_cover_instance(whole, part.ids.tolist())
            assert np.array_equal(part.ids, keep.ids)
            assert np.array_equal(part.matrix, keep.matrix)
        with pytest.raises(ValueError, match="one door state per entry"):
            ContributionMatrix(values=values, door_states=[0, 1])

    def test_sets_become_rows_over_ascending_ids(self):
        instance = CoverInstance(universe=frozenset({7, 3, 5}), sets=(frozenset({3, 7, 99}), frozenset()))
        assert instance.ids.tolist() == [3, 5, 7]
        # 99 is outside the universe and is dropped
        assert instance.matrix.tolist() == [[True, False, True], [False, False, False]]

    @pytest.mark.parametrize("keep", [range(8), range(4, 12), range(2, 6), range(6, 30)])
    def test_range_restricts_non_ascending_ids_like_the_id_set(self, keep):
        # door states [3, 1] give ids 12..15 before 4..7, so a range cannot
        # be cut from them as one run
        rng = np.random.default_rng(9)
        values = rng.uniform(0.5, 9.0, (3, 2, 2))
        instance = build_cover_instance(ContributionMatrix(values=values, door_states=[3, 1]),
                                        tau=0.01)
        assert instance.ids.tolist() == [12, 13, 14, 15, 4, 5, 6, 7]
        by_range = restrict_cover_instance(instance, keep)
        by_set = restrict_cover_instance(instance, frozenset(keep))
        assert np.array_equal(by_range.ids, by_set.ids)
        assert np.array_equal(by_range.matrix, by_set.matrix)
        assert by_range.ids.tolist() == [i for i in instance.ids.tolist() if i in keep]

    def test_restrict_takes_any_iterable_of_ids(self):
        instance = CoverInstance(universe=range(6), sets=(frozenset({0, 4}), frozenset({1, 5})))
        for keep in (range(2, 6), frozenset({2, 3, 4, 5}), iter([5, 4, 3, 2]), (k for k in (2, 3, 4, 5, 9))):
            sub = restrict_cover_instance(instance, keep)
            assert sub.ids.tolist() == [2, 3, 4, 5]
            assert sub.matrix.tolist() == [[False, False, True, False], [False, False, False, True]]
        assert restrict_cover_instance(instance, range(0)).matrix.shape == (2, 0)

    def test_restrict_projects_universe_and_sets(self):
        instance = CoverInstance(
            universe=frozenset({0, 1, 2, 3}),
            sets=(frozenset({0, 1}), frozenset({2, 3})),
        )
        sub = restrict_cover_instance(instance, frozenset({1, 2, 42}))
        assert sub.ids.tolist() == [1, 2]
        assert sub.matrix.tolist() == [[True, False], [False, True]]

    @pytest.mark.parametrize("keep", [
        range(8, 16), range(0, 24), range(20, 40), range(3, 4),  # contiguous
        [1, 5, 9, 23], range(0, 24, 3), [2, 3, 7, 8],  # scattered
        range(30, 40), [-5, 99], range(0),  # outside the universe, or nothing
    ])
    def test_restrict_equals_a_column_mask(self, keep):
        rng = np.random.default_rng(31)
        universe = [u for u in range(26) if u not in (4, 17)]  # ids with gaps
        sets = [frozenset(rng.choice(universe, size=9).tolist()) for _ in range(5)]
        instance = CoverInstance(universe=universe, sets=sets)
        columns = np.isin(instance.ids, np.array(list(keep), dtype=np.int64))
        sub = restrict_cover_instance(instance, keep)
        assert np.array_equal(sub.ids, instance.ids[columns])
        assert np.array_equal(sub.matrix, instance.matrix[:, columns])
        assert sub.matrix.shape == (5, int(columns.sum()))


def solution_fields(sol):
    return sol.chosen, sol.gains, sol.covered, sol.complete


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_matrix_and_hand_built_instances_solve_alike(data):
    # flags from contributions on a half-lux lattice, where readings often
    # collide, so rows range from empty to full
    n = data.draw(st.integers(min_value=1, max_value=3))
    n_states = data.draw(st.integers(min_value=1, max_value=3))
    n_points = data.draw(st.integers(min_value=1, max_value=6))
    size = n_points * n_states * n
    halves = data.draw(st.lists(st.integers(min_value=0, max_value=6), min_size=size, max_size=size))
    values = np.array(halves, dtype=float).reshape(n_points, n_states, n) / 2.0
    tau = data.draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))
    built = build_cover_instance(ContributionMatrix(values=values), tau)

    flags = distinctness_flags_batch(values, tau).reshape(n_points, -1)
    n_ids = flags.shape[1]
    outside = st.frozensets(st.integers(min_value=n_ids, max_value=n_ids + 5))
    sets = tuple(frozenset(np.flatnonzero(row).tolist()) | data.draw(outside) for row in flags)
    by_hand = CoverInstance(universe=frozenset(range(n_ids)), sets=sets)

    keep = data.draw(st.frozensets(st.integers(min_value=0, max_value=n_ids + 5)))
    for a, b in ((built, by_hand),
                 (restrict_cover_instance(built, keep), restrict_cover_instance(by_hand, keep))):
        assert solution_fields(greedy_set_cover(a)) == solution_fields(greedy_set_cover(b))
        assert solution_fields(exact_min_cover(a)) == solution_fields(exact_min_cover(b))


def greedy_reference(instance):
    """greedy_set_cover before it dropped empty rows and columns: the full
    matrix, stopping when the best gain is 0."""
    m = instance.matrix
    uncovered = np.ones(m.shape[1], dtype=bool)
    chosen, gains = [], []
    while uncovered.any():
        counts = (m & uncovered).sum(axis=1)
        best = int(np.argmax(counts))
        gain = int(counts[best])
        if gain == 0:
            break
        chosen.append(best)
        gains.append(gain)
        uncovered &= ~m[best]
    return chosen, gains, frozenset(instance.ids[~uncovered].tolist()), not uncovered.any()


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_greedy_equals_the_full_matrix_loop(data):
    n_rows = data.draw(st.integers(min_value=1, max_value=9))
    n_cols = data.draw(st.integers(min_value=0, max_value=14))
    density = data.draw(st.sampled_from([0.1, 0.3, 0.6]))
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    m = rng.random((n_rows, n_cols)) < density
    # empty rows, empty columns and duplicate rows (equal gains tie)
    m[rng.random(n_rows) < 0.3] = False
    m[:, rng.random(n_cols) < 0.2] = False
    for k in np.flatnonzero(rng.random(n_rows) < 0.3):
        m[k] = m[rng.integers(n_rows)]
    ids = np.sort(rng.choice(4 * n_cols + 1, size=n_cols, replace=False))
    instance = CoverInstance(universe=frozenset(ids.tolist()),
                             sets=[frozenset(ids[row].tolist()) for row in m])
    keep = frozenset(data.draw(st.lists(st.sampled_from(ids.tolist()), max_size=n_cols)) if n_cols else ())
    for inst in (instance, restrict_cover_instance(instance, keep)):
        assert solution_fields(greedy_set_cover(inst)) == greedy_reference(inst)


class TestGreedy:
    def test_hand_traceable_instance(self):
        instance = CoverInstance(
            universe=frozenset({1, 2, 3}),
            sets=(frozenset({1, 2}), frozenset({2, 3}), frozenset({3})),
        )
        sol = greedy_set_cover(instance)
        assert sol.chosen == [0, 1]
        assert sol.gains == [2, 1]
        assert sol.complete and sol.covered == frozenset({1, 2, 3})

    def test_single_set_covers_all(self):
        instance = CoverInstance(universe=frozenset({1, 2}), sets=(frozenset({1, 2}),))
        sol = greedy_set_cover(instance)
        assert sol.chosen == [0] and sol.complete

    def test_ties_break_to_the_lowest_index(self):
        instance = CoverInstance(
            universe=frozenset({1, 2}),
            sets=(frozenset({1}), frozenset({2}), frozenset({1})),
        )
        sol = greedy_set_cover(instance)
        assert sol.chosen == [0, 1]

    def test_uncoverable_elements_leave_cover_incomplete(self):
        instance = CoverInstance(
            universe=frozenset({1, 2, 99}),
            sets=(frozenset({1}), frozenset({2})),
        )
        sol = greedy_set_cover(instance)
        assert not sol.complete
        assert sol.covered == frozenset({1, 2})
        assert len(sol.chosen) == 2

    def test_instance_without_rows_covers_nothing(self):
        sol = greedy_set_cover(CoverInstance(universe=frozenset({1, 2}), sets=()))
        assert (sol.chosen, sol.covered, sol.complete) == ([], frozenset(), False)

    def test_covered_is_union_of_chosen(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            n_el = int(rng.integers(1, 15))
            sets = tuple(
                frozenset(int(e) for e in rng.choice(n_el, size=rng.integers(0, n_el + 1), replace=False))
                for _ in range(rng.integers(1, 8))
            )
            instance = CoverInstance(universe=frozenset(range(n_el)), sets=sets)
            sol = greedy_set_cover(instance)
            union = frozenset().union(*(sets[k] for k in sol.chosen)) if sol.chosen else frozenset()
            assert sol.covered == union
            assert sol.complete == (union == frozenset(range(n_el)))


class TestExact:
    def test_known_minimum_two(self):
        instance = CoverInstance(
            universe=frozenset({1, 2, 3}),
            sets=(frozenset({1, 2}), frozenset({2, 3}), frozenset({3}), frozenset({1, 3})),
        )
        sol = exact_min_cover(instance)
        assert len(sol.chosen) == 2
        assert sol.complete

    def test_disjoint_singletons_need_one_each(self):
        sets = tuple(frozenset({i}) for i in range(5))
        instance = CoverInstance(universe=frozenset(range(5)), sets=sets)
        sol = exact_min_cover(instance)
        assert len(sol.chosen) == 5

    def test_uncoverable_part_reported(self):
        instance = CoverInstance(
            universe=frozenset({0, 1, 7}),
            sets=(frozenset({0, 1}),),
        )
        sol = exact_min_cover(instance)
        assert not sol.complete
        assert sol.covered == frozenset({0, 1})
        assert sol.chosen == [0]

    def test_universe_limit_enforced(self):
        instance = CoverInstance(universe=frozenset(range(30)), sets=(frozenset(range(30)),))
        with pytest.raises(ValueError, match="limit"):
            exact_min_cover(instance, limit=24)

    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            n_el = int(rng.integers(1, 10))
            n_sets = int(rng.integers(1, 7))
            sets = []
            for _ in range(n_sets):
                size = int(rng.integers(0, n_el + 1))
                sets.append(frozenset(int(e) for e in rng.choice(n_el, size=size, replace=False)))
            sets = tuple(sets)
            instance = CoverInstance(universe=frozenset(range(n_el)), sets=sets)
            sol = exact_min_cover(instance)
            assert len(sol.chosen) == exhaustive_min_cover_size(range(n_el), sets)
            covered = frozenset().union(*(sets[k] for k in sol.chosen)) if sol.chosen else frozenset()
            assert covered >= frozenset().union(*sets, frozenset())

    def test_greedy_within_harmonic_bound(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            n_el = int(rng.integers(1, 12))
            sets = tuple(
                frozenset(int(e) for e in rng.choice(n_el, size=rng.integers(1, n_el + 1), replace=False))
                for _ in range(rng.integers(1, 9))
            )
            universe = frozenset().union(*sets)
            instance = CoverInstance(universe=universe, sets=sets)
            greedy = greedy_set_cover(instance)
            exact = exact_min_cover(instance)
            max_size = max(len(s) for s in sets)
            assert len(greedy.chosen) <= harmonic_bound(max_size) * len(exact.chosen)
            assert len(greedy.chosen) >= len(exact.chosen)


def dense_exact_reference(instance, limit=24):
    """exact_min_cover before it merged rows and columns: branch and bound
    over one bit per coverable column and one mask per row."""
    n_ids = instance.ids.size
    if n_ids > limit:
        raise ValueError(f"universe of {n_ids} exceeds exact-solver limit {limit}")
    coverable_columns = instance.matrix.any(axis=0)
    m = instance.matrix[:, coverable_columns]
    width = m.shape[1]
    set_masks = [int.from_bytes(row.tobytes(), "little")
                 for row in np.packbits(m, axis=1, bitorder="little")]
    coverable = (1 << width) - 1
    covering = [np.flatnonzero(column).tolist() for column in m.T]
    best_choice = greedy_reference(instance)[0] if width else []
    best_size = len(best_choice)
    max_set_size = max((mask.bit_count() for mask in set_masks), default=0)

    def solve(uncovered, chosen):
        nonlocal best_choice, best_size
        if uncovered == 0:
            if len(chosen) < best_size:
                best_size = len(chosen)
                best_choice = list(chosen)
            return
        lower = len(chosen) + math.ceil(uncovered.bit_count() / max_set_size)
        if lower >= best_size:
            return
        pick_sets = min((covering[j] for j in range(width) if uncovered >> j & 1), key=len)
        for k in sorted(pick_sets, key=lambda k: (set_masks[k] & uncovered).bit_count(), reverse=True):
            chosen.append(k)
            solve(uncovered & ~set_masks[k], chosen)
            chosen.pop()

    solve(coverable, [])
    gains = []
    running = 0
    for k in best_choice:
        new = set_masks[k] | running
        gains.append((new ^ running).bit_count())
        running = new
    return best_choice, gains, frozenset(instance.ids[coverable_columns].tolist()), width == n_ids


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_merged_exact_equals_the_dense_search(data):
    n_rows = data.draw(st.integers(min_value=0, max_value=12))
    n_cols = data.draw(st.integers(min_value=0, max_value=16))
    density = data.draw(st.sampled_from([0.1, 0.25, 0.4, 0.6]))
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    m = rng.random((n_rows, n_cols)) < density
    # repeated rows and repeated columns, and some empty ones
    for k in np.flatnonzero(rng.random(n_rows) < 0.4):
        m[k] = m[rng.integers(n_rows)]
    for j in np.flatnonzero(rng.random(n_cols) < 0.4):
        m[:, j] = m[:, rng.integers(n_cols)]
    m[rng.random(n_rows) < 0.1] = False
    m[:, rng.random(n_cols) < 0.1] = False
    ids = np.sort(rng.choice(3 * n_cols + 1, size=n_cols, replace=False))
    instance = CoverInstance(universe=frozenset(ids.tolist()),
                             sets=[frozenset(ids[row].tolist()) for row in m])
    assert solution_fields(exact_min_cover(instance, limit=64)) == dense_exact_reference(instance, 64)


def test_fail_first_counts_repeated_rows():
    # rows 2 and 3 are copies. Counting rows, element 3 (one covering row)
    # is branched on first and the search finds [1, 2]; counting distinct
    # rows, element 2 would tie with it and come first, giving [2, 1].
    sets = (frozenset({0, 1}), frozenset({1, 3}), frozenset({0, 2}), frozenset({0, 2}))
    instance = CoverInstance(universe=frozenset(range(4)), sets=sets)
    assert greedy_set_cover(instance).chosen == [0, 1, 2]
    assert dense_exact_reference(instance)[0] == [1, 2]
    assert solution_fields(exact_min_cover(instance)) == dense_exact_reference(instance)


def dense_instance(values, door_states, tau):
    """The cover instance as the whole cells-by-states flag matrix and its
    state ids, as build_cover_instance made it before it merged anything."""
    flags = distinctness_flags_batch(values, tau)
    ids = np.asarray(door_states, dtype=np.int64)[:, None] * flags.shape[-1] + np.arange(flags.shape[-1])
    return SimpleNamespace(matrix=flags.reshape(len(values), -1), ids=ids.ravel())


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_compact_instance_equals_the_dense_flag_matrix(data):
    # cells draw their vectors from a small pool of half-lux vectors, so
    # vectors repeat across cells and door states, and readings collide;
    # dead vectors hold a 0.0 or -0.0 entry; door states come in any order
    n = data.draw(st.integers(min_value=1, max_value=3))
    n_points = data.draw(st.integers(min_value=1, max_value=8))
    door_states = data.draw(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=4,
                                     unique=True))
    halves = st.integers(min_value=1, max_value=6).map(lambda k: k / 2.0)
    pool = data.draw(st.lists(st.lists(halves, min_size=n, max_size=n), min_size=1, max_size=4))
    for vector in data.draw(st.lists(st.sampled_from(pool), max_size=2)):
        dead = list(vector)
        dead[data.draw(st.integers(min_value=0, max_value=n - 1))] = data.draw(
            st.sampled_from([0.0, -0.0]))
        pool.append(dead)
    picks = data.draw(st.lists(st.integers(min_value=0, max_value=len(pool) - 1),
                               min_size=n_points * len(door_states),
                               max_size=n_points * len(door_states)))
    values = np.array(pool)[picks].reshape(n_points, len(door_states), n)
    tau = data.draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))
    built = build_cover_instance(ContributionMatrix(values=values, door_states=door_states), tau)
    dense = dense_instance(values, door_states, tau)
    assert np.array_equal(built.ids, dense.ids)
    assert np.array_equal(built.matrix, dense.matrix)

    ids = dense.ids.tolist()
    keep = data.draw(st.one_of(
        st.frozensets(st.sampled_from(ids + [-1, 99])),
        st.builds(range, st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=40))))
    columns = np.isin(dense.ids, np.array(list(keep), dtype=np.int64))
    restricted = restrict_cover_instance(built, keep)
    dense_restricted = SimpleNamespace(matrix=dense.matrix[:, columns], ids=dense.ids[columns])
    assert np.array_equal(restricted.ids, dense_restricted.ids)
    assert np.array_equal(restricted.matrix, dense_restricted.matrix)
    for instance, reference in ((built, dense), (restricted, dense_restricted)):
        assert solution_fields(greedy_set_cover(instance)) == greedy_reference(reference)
        limit = reference.ids.size
        assert solution_fields(exact_min_cover(instance, limit)) == dense_exact_reference(reference, limit)


def test_cover_build_peak_memory_stays_compact():
    # 2,000 cells x 4 door states x 12 luminaires, drawn from 5 live vectors
    # and 2 dead ones: the dense cells-by-states matrix would take 32.8 MB
    rng = np.random.default_rng(11)
    pool = rng.uniform(1.0, 50.0, size=(5, 12))
    dead = pool[:2].copy()
    dead[0, 3], dead[1, 0] = 0.0, -0.0
    values = np.concatenate([pool, dead])[rng.integers(0, 7, size=(2000, 4))]
    tracemalloc.start()
    try:
        instance = build_cover_instance(ContributionMatrix(values=values), 0.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000
    dense = dense_instance(values, range(4), 0.01)
    assert dense.matrix.nbytes == 32_768_000
    assert np.array_equal(instance.ids, dense.ids)
    assert np.array_equal(instance.matrix, dense.matrix)


class TestHarmonicBound:
    def test_values(self):
        assert harmonic_bound(0) == 0.0
        assert harmonic_bound(1) == 1.0
        assert harmonic_bound(3) == pytest.approx(1 + 1 / 2 + 1 / 3)

    def test_monotone(self):
        assert harmonic_bound(10) > harmonic_bound(9)


class TestApartmentPlanning:
    def test_open_door_state_has_a_full_score_cell(self, apartment_scores):
        assert apartment_scores[:, 8].max() == 64

    def test_total_score_bounded_by_state_count(self, apartment_scores):
        totals = apartment_scores.sum(axis=1)
        assert totals.max() <= 576

    def test_open_door_universe_needs_one_sensor(self, apartment, apartment_matrix):
        from luxplan.scene import enumerate_door_states

        instance = build_cover_instance(apartment_matrix, tau=0.01)
        space = StateSpace(
            n_luminaires=apartment.n_luminaires,
            door_states=tuple(enumerate_door_states(apartment)),
        )
        keep = frozenset(space.state_id(p, 8) for p in range(64))
        sol = greedy_set_cover(restrict_cover_instance(instance, keep))
        assert sol.complete
        assert len(sol.chosen) == 1

    def test_open_door_range_restricts_like_the_state_id_set(self, apartment, apartment_matrix):
        from luxplan.scene import enumerate_door_states, open_door_state_index

        instance = build_cover_instance(apartment_matrix, tau=0.01)
        space = StateSpace(
            n_luminaires=apartment.n_luminaires,
            door_states=tuple(enumerate_door_states(apartment)),
        )
        q_open = open_door_state_index(apartment)
        by_set = restrict_cover_instance(
            instance, frozenset(space.state_id(p, q_open) for p in range(space.n_configs)))
        by_range = restrict_cover_instance(
            instance, range(q_open * space.n_configs, (q_open + 1) * space.n_configs))
        assert np.array_equal(by_range.ids, by_set.ids)
        assert np.array_equal(by_range.matrix, by_set.matrix)
        assert solution_fields(greedy_set_cover(by_range)) == solution_fields(greedy_set_cover(by_set))
