"""``normalize_scores(..., "rank")`` against a reference tie loop."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.importance import normalize_scores


def reference_rank(scores: np.ndarray) -> np.ndarray:
    """Average ranks scaled to [0, 1], one tie run at a time."""
    values = np.asarray(scores, dtype=np.float64)
    peak = np.abs(values).max()
    if peak > 0:
        values = np.round(values / peak, 9)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    sorted_values = values[order]
    start = 0
    for stop in range(1, len(values) + 1):
        if stop == len(values) or sorted_values[stop] != sorted_values[start]:
            ranks[order[start:stop]] = 0.5 * (start + stop - 1)
            start = stop
    if len(values) == 1:
        return np.ones(1)
    return ranks / (len(values) - 1)


#: Few distinct values, so most draws contain ties.
tie_heavy = st.lists(st.sampled_from([0.0, 1.0, 2.5, 7.0, 1e6]),
                     min_size=1, max_size=40).map(np.array)
wide = st.lists(st.floats(min_value=-1e9, max_value=1e9,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=40).map(np.array)


def _assert_same(values: np.ndarray) -> None:
    got = normalize_scores(values, "rank")
    assert np.array_equal(got, reference_rank(values))


class TestRankMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(tie_heavy)
    def test_ties(self, values):
        _assert_same(values)

    @settings(max_examples=60, deadline=None)
    @given(wide)
    def test_arbitrary(self, values):
        _assert_same(values)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
           st.integers(min_value=1, max_value=30))
    def test_all_equal(self, value, size):
        values = np.full(size, value)
        _assert_same(values)
        if size > 1:
            assert np.all(normalize_scores(values, "rank") == 0.5)

    def test_one_element(self):
        _assert_same(np.array([3.0]))
        _assert_same(np.array([0.0]))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=2,
                    max_size=30),
           st.lists(st.floats(min_value=-1e-12, max_value=1e-12),
                    min_size=30, max_size=30))
    def test_ties_only_after_rounding(self, levels, noise):
        # Distinct floats that collapse to one value at 1e-9 relative
        # precision must tie exactly as in the reference.
        values = 1.0 + np.asarray(levels, dtype=np.float64) \
            + np.asarray(noise[:len(levels)])
        assert len(np.unique(np.round(values / values.max(), 9))) \
            <= len(np.unique(values))
        _assert_same(values)
