"""The shared-nothing fork_map driver: ordering, errors, re-entrancy.

``fork_map``'s state parameter is named ``shared`` (a ``state``
parameter would shadow the module-level :func:`repro.parallel.state`
helper inside the function body), and the process-global ``_STATE``
dict fails fast on nested use instead of silently corrupting the outer
call's worker state.
"""

import pytest

from repro import parallel

fork_only = pytest.mark.skipif(
    not parallel.fork_available(),
    reason="no fork start method on this platform",
)


def _echo_shared(item):
    """Worker task: proves the state() helper resolves inside workers."""
    return (item, parallel.state().get("key"))


def _nested_call(item):
    """Worker task that illegally re-enters fork_map."""
    parallel.fork_map(_echo_shared, [1, 2, 3], 2, shared={"key": "inner"})
    return item


@fork_only
class TestForkMap:
    def test_shared_dict_reaches_workers_via_state(self):
        results = parallel.fork_map(
            _echo_shared, [10, 20, 30], 2, shared={"key": "value"}
        )
        assert results == [(10, "value"), (20, "value"), (30, "value")]

    def test_results_in_input_order_on_uneven_inputs(self):
        # 13 items over 3 workers: non-divisible on purpose, and the
        # interleaved chunks come back out of order.
        results = parallel.fork_map(
            _echo_shared, list(range(13)), 3, shared={"key": "p"}
        )
        assert results == [(i, "p") for i in range(13)]

    def test_worker_exception_propagates_and_guard_is_released(self):
        with pytest.raises(ValueError, match="boom"):
            parallel.fork_map(_boom, [1, 2, 3, 4], 2, shared={"key": "x"})
        assert not parallel._ACTIVE
        assert parallel.state() == {}
        assert parallel.fork_map(_echo_shared, [3, 4], 2) == [
            (3, None),
            (4, None),
        ]

    def test_state_cleared_and_guard_released_after_run(self):
        parallel.fork_map(_echo_shared, [1, 2], 2, shared={"key": "v"})
        assert parallel.state() == {}
        assert not parallel._ACTIVE
        # A follow-up call is fine: the guard only rejects *nested* use.
        assert parallel.fork_map(
            _echo_shared, [3, 4], 2, shared={"key": "w"}
        ) == [(3, "w"), (4, "w")]

    def test_nested_call_from_worker_raises(self):
        with pytest.raises(RuntimeError, match="nested fork_map"):
            parallel.fork_map(_nested_call, [1, 2], 2, shared={})

    def test_concurrent_call_in_same_process_raises(self):
        parallel._ACTIVE = True
        try:
            with pytest.raises(RuntimeError, match="nested fork_map"):
                parallel.fork_map(_echo_shared, [1, 2], 2, shared={})
        finally:
            parallel._ACTIVE = False

    def test_serial_fallback_ignores_the_guard(self):
        # jobs<=1 (and single-item) calls return None before touching
        # the shared state, so they stay legal even mid-fork_map.
        parallel._ACTIVE = True
        try:
            assert parallel.fork_map(_echo_shared, [1, 2], 1) is None
            assert parallel.fork_map(_echo_shared, [1], 8) is None
        finally:
            parallel._ACTIVE = False


class TestChunkPlan:
    """Balanced interleaved chunking (the old pool.map default left an
    oversized or undersized last chunk on non-divisible inputs)."""

    def test_sizes_never_differ_by_more_than_one(self):
        for count in range(1, 40):
            for parts in range(1, 12):
                sizes = [len(c) for c in parallel.chunk_plan(count, parts)]
                assert sum(sizes) == count
                assert max(sizes) - min(sizes) <= 1, (count, parts, sizes)

    def test_ten_over_four_is_3_3_2_2(self):
        sizes = [len(c) for c in parallel.chunk_plan(10, 4)]
        assert sizes == [3, 3, 2, 2]

    def test_indices_are_interleaved(self):
        # Consecutive items have correlated cost (progen programs grow
        # with the seed), so item i goes to chunk i % parts.
        assert parallel.chunk_plan(10, 4) == [
            [0, 4, 8],
            [1, 5, 9],
            [2, 6],
            [3, 7],
        ]

    def test_more_parts_than_items_drops_empties(self):
        chunks = parallel.chunk_plan(3, 8)
        assert chunks == [[0], [1], [2]]

    def test_every_index_exactly_once(self):
        for count, parts in [(17, 4), (100, 7), (5, 5)]:
            seen = sorted(i for c in parallel.chunk_plan(count, parts) for i in c)
            assert seen == list(range(count))


def _boom(item):
    raise ValueError(f"boom on {item}")


def test_state_helper_not_shadowed():
    """The module-level helper is callable and returns the live dict —
    the old ``state`` parameter shadowed it inside fork_map's body."""
    assert parallel.state() is parallel._STATE
    import inspect

    params = inspect.signature(parallel.fork_map).parameters
    assert "shared" in params and "state" not in params
