"""Property tests: random parameters against the brute-force oracles."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from farey_index import autocorr_sums, lu_count_table, partial_index_sums, stats

from conftest import brute_autocorr, brute_lu, brute_partial


@settings(max_examples=40, deadline=None)
@given(
    q=st.integers(1, 40),
    lags=st.lists(st.integers(1, 200), min_size=1, max_size=4),
    ks=st.lists(st.integers(1, 8), min_size=1, max_size=4),
    ts=st.lists(
        st.fractions(min_value=0, max_value=1, max_denominator=15).filter(lambda t: t > 0),
        min_size=1,
        max_size=4,
    ),
    workers=st.integers(1, 6),
    block=st.sampled_from((2, 5, stats._BLOCK)),
)
def test_multi_parameter_walks_property(q, lags, ks, ts, workers, block):
    # small blocks put block ends, and lags past a block, inside F_Q
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stats.os, "cpu_count", lambda: 1)
        patch.setattr(stats, "_BLOCK", block)
        assert autocorr_sums(q, lags, ts, workers) == brute_autocorr(q, lags, ts)
        assert lu_count_table(q, ks, ts, workers) == brute_lu(q, ks, ts)
        assert partial_index_sums(q, [0] + ts, workers) == brute_partial(q, [0] + ts)
