"""Tests for the core<->engine co-simulation driver and the scheduler."""

import warnings

import numpy as np
import pytest

from repro.config import SpZipConfig
from repro.dcl import Entry, MarkerQueue, NEVER, RoundRobinScheduler, \
    pack_range
from repro.engine import (
    INPUT_QUEUE,
    ROWS_QUEUE,
    DriveRequest,
    EngineStall,
    Feed,
    Fetcher,
    csr_traversal,
    drive,
)
from repro.engine.driver import DriveResult
from repro.graph import CsrGraph
from repro.memory import AddressSpace


def tiny_fetcher(**kwargs):
    g = CsrGraph(np.array([0, 2, 4, 5, 7]),
                 np.array([1, 2, 0, 2, 3, 1, 2], dtype=np.uint32))
    space = AddressSpace()
    space.alloc_array("offsets", g.offsets, "adjacency")
    space.alloc_array("rows", g.neighbors, "adjacency")
    return Fetcher.from_program(csr_traversal(row_elem_bytes=4), space,
                                SpZipConfig(), **kwargs)


class TestFeed:
    def test_of_accepts_ints_tuples_entries_feeds(self):
        assert Feed.of(5) == Feed(5, False)
        assert Feed.of((6, True)) == Feed(6, True)
        assert Feed.of(Entry(7, False)) == Feed(7, False)
        assert Feed.of(Feed(8, True)) == Feed(8, True)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            Feed(1).value = 2


class TestDriveRequest:
    def test_normalizes_feed_spellings(self):
        req = DriveRequest(feeds={"q": [5, (6, True), Entry(7)]},
                           consume=["out"])
        assert req.feeds["q"] == (Feed(5), Feed(6, True), Feed(7))
        assert req.consume == ("out",)

    def test_frozen(self):
        req = DriveRequest()
        with pytest.raises(AttributeError):
            req.max_cycles = 5

    def test_rejects_bad_dequeue_rate(self):
        with pytest.raises(ValueError):
            DriveRequest(dequeues_per_cycle=0)

    @pytest.mark.parametrize("max_cycles", [0, -1])
    def test_rejects_nonpositive_cycle_budget(self, max_cycles):
        with pytest.raises(ValueError, match="max_cycles"):
            DriveRequest(max_cycles=max_cycles)


class TestDriveResult:
    def test_values_filters_markers(self):
        result = DriveResult(cycles=1, outputs={
            "q": [Entry(1), Entry(0, True), Entry(2)]})
        assert result.values("q") == [1, 2]

    def test_chunks_group_by_markers(self):
        result = DriveResult(cycles=1, outputs={
            "q": [Entry(1), Entry(2), Entry(0, True), Entry(3),
                  Entry(0, True)]})
        assert result.chunks("q") == [[1, 2], [3]]

    def test_trailing_values_form_final_chunk(self):
        result = DriveResult(cycles=1, outputs={
            "q": [Entry(1), Entry(0, True), Entry(9)]})
        assert result.chunks("q") == [[1], [9]]

    def test_unknown_queue_empty(self):
        result = DriveResult(cycles=1, outputs={})
        assert result.values("nope") == []
        assert result.chunks("nope") == []


class TestDrive:
    def test_slow_consumer_still_completes(self):
        f = tiny_fetcher()
        result = drive(f, DriveRequest(
            feeds={INPUT_QUEUE: [pack_range(0, 5)]},
            consume=[ROWS_QUEUE], dequeues_per_cycle=1))
        assert result.chunks(ROWS_QUEUE) == [[1, 2], [0, 2], [3], [1, 2]]

    def test_no_feeds_drains_immediately(self):
        f = tiny_fetcher()
        result = drive(f, DriveRequest(consume=[ROWS_QUEUE]))
        assert result.outputs[ROWS_QUEUE] == []

    def test_cycle_budget_enforced(self):
        f = tiny_fetcher()
        with pytest.raises(EngineStall):
            drive(f, DriveRequest(feeds={INPUT_QUEUE: [pack_range(0, 5)]},
                                  consume=[ROWS_QUEUE], max_cycles=3))

    def test_result_carries_scheduler_stats(self):
        result = drive(tiny_fetcher(), DriveRequest(
            feeds={INPUT_QUEUE: [pack_range(0, 5)]},
            consume=[ROWS_QUEUE]))
        assert result.issued == sum(result.fires_by_op.values()) > 0
        assert result.cycles == result.issued + result.idle_cycles
        assert 0.0 < result.activity_factor <= 1.0

    @pytest.mark.parametrize("feed, consume", [("inptu", ROWS_QUEUE),
                                               (INPUT_QUEUE, "rowz")])
    def test_unknown_queue_rejected_before_running(self, feed, consume):
        f = tiny_fetcher()
        with pytest.raises(ValueError) as err:
            drive(f, DriveRequest(feeds={feed: [pack_range(0, 5)]},
                                  consume=[consume]))
        bad = feed if feed != INPUT_QUEUE else consume
        message = str(err.value)
        assert repr(bad) in message
        assert repr(INPUT_QUEUE) in message and repr(ROWS_QUEUE) in message
        assert f.cycle == 0


class TestRemovedShim:
    """The pre-typed keyword form is gone: DriveRequest or TypeError."""

    def test_keyword_form_raises_type_error(self):
        # The legacy keyword parameters no longer exist, so the call
        # signature itself rejects them.
        with pytest.raises(TypeError):
            drive(tiny_fetcher(),
                  feeds={INPUT_QUEUE: [pack_range(0, 5)]},
                  consume=[ROWS_QUEUE], dequeues_per_cycle=1)

    def test_positional_feeds_dict_raises_type_error(self):
        with pytest.raises(TypeError, match="DriveRequest"):
            drive(tiny_fetcher(), {INPUT_QUEUE: [pack_range(0, 5)]})
        # The old three-argument spelling fails on arity alone.
        with pytest.raises(TypeError):
            drive(tiny_fetcher(),
                  {INPUT_QUEUE: [pack_range(0, 5)]}, [ROWS_QUEUE])

    def test_missing_request_raises_type_error(self):
        with pytest.raises(TypeError):
            drive(tiny_fetcher())

    def test_request_form_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            drive(tiny_fetcher(), DriveRequest(
                feeds={INPUT_QUEUE: [pack_range(0, 5)]},
                consume=[ROWS_QUEUE]))


class TestFromProgram:
    def test_from_program_equivalent_to_manual_wiring(self):
        g = CsrGraph(np.array([0, 2, 4, 5, 7]),
                     np.array([1, 2, 0, 2, 3, 1, 2], dtype=np.uint32))
        space = AddressSpace()
        space.alloc_array("offsets", g.offsets, "adjacency")
        space.alloc_array("rows", g.neighbors, "adjacency")
        manual = Fetcher(SpZipConfig(), space)
        manual.load_program(csr_traversal(row_elem_bytes=4))
        built = Fetcher.from_program(csr_traversal(row_elem_bytes=4),
                                     space, SpZipConfig())
        req = DriveRequest(feeds={INPUT_QUEUE: [pack_range(0, 5)]},
                           consume=[ROWS_QUEUE])
        assert drive(manual, req).cycles == drive(built, req).cycles


class TestRoundRobinScheduler:
    class FakeOp:
        def __init__(self, name, ready_answers):
            self.name = name
            self._answers = list(ready_answers)
            self.fired = 0

        def ready(self, engine):
            return self._answers.pop(0) if self._answers else False

        def fire(self, engine):
            self.fired += 1

    def test_round_robin_fairness(self):
        a = self.FakeOp("a", [True] * 10)
        b = self.FakeOp("b", [True] * 10)
        sched = RoundRobinScheduler([a, b])
        picks = [sched.pick(None).name for _ in range(4)]
        assert picks == ["a", "b", "a", "b"]

    def test_skips_unready_operators(self):
        a = self.FakeOp("a", [False, False])
        b = self.FakeOp("b", [True, True])
        sched = RoundRobinScheduler([a, b])
        assert sched.pick(None).name == "b"
        assert sched.pick(None).name == "b"

    def test_idle_cycles_tracked(self):
        a = self.FakeOp("a", [False, True])
        sched = RoundRobinScheduler([a])
        assert sched.pick(None) is None
        assert sched.pick(None) is a
        assert sched.idle_cycles == 1
        assert sched.activity_factor() == 0.5

    def test_fires_by_op_accounting(self):
        a = self.FakeOp("a", [True] * 5)
        b = self.FakeOp("b", [True] * 5)
        never = self.FakeOp("never", [])
        sched = RoundRobinScheduler([a, never, b])
        for _ in range(4):
            sched.pick(None)
        assert sched.fires_by_op == {"a": 2, "b": 2, "never": 0}
        assert sched.issued == 4

    def test_pick_sole_matches_pick_accounting(self):
        a = self.FakeOp("a", [False] * 10)
        b = self.FakeOp("b", [True] * 10)
        sched = RoundRobinScheduler([a, b])
        op = sched.pick_sole(None)
        assert op is b
        assert sched.issued == 1
        assert sched.fires_by_op == {"a": 0, "b": 1}
        # pointer advanced past b: next pick scans a first again
        assert sched.pick(None) is b

    def test_pick_sole_refuses_contended_cycles(self):
        a = self.FakeOp("a", [True] * 4)
        b = self.FakeOp("b", [True] * 4)
        sched = RoundRobinScheduler([a, b])
        assert sched.pick_sole(None) is None
        assert sched.issued == 0
        assert sched.idle_cycles == 0  # caller falls back to pick()

    def test_pick_sole_none_when_nothing_ready(self):
        a = self.FakeOp("a", [False])
        sched = RoundRobinScheduler([a])
        assert sched.pick_sole(None) is None
        assert sched.idle_cycles == 0

    def test_skip_idle_books_both_counters(self):
        sched = RoundRobinScheduler([self.FakeOp("a", [True])])
        sched.pick(None)
        sched.skip_idle(7)
        assert sched.idle_cycles == 7
        assert sched.skipped_idle_cycles == 7
        assert sched.activity_factor() == pytest.approx(1 / 8)

    def test_skip_idle_rejects_negative(self):
        sched = RoundRobinScheduler([])
        with pytest.raises(ValueError):
            sched.skip_idle(-1)

    def test_next_ready_cycle_defaults_to_never(self):
        assert RoundRobinScheduler([]).next_ready_cycle(None) == NEVER


class TestQueueReservations:
    def test_reserved_space_blocks_direct_push(self):
        q = MarkerQueue("q", capacity_bytes=8, elem_bytes=4)
        assert q.reserve(entries=2)
        assert not q.try_push(1)  # all space promised

    def test_reserved_push_consumes_reservation(self):
        q = MarkerQueue("q", capacity_bytes=8, elem_bytes=4)
        q.reserve(entries=1)
        q.push(7, reserved=True)
        assert q.reserved_bytes == 0
        assert len(q) == 1

    def test_reserved_push_without_reserve_rejected(self):
        q = MarkerQueue("q", capacity_bytes=8, elem_bytes=4)
        with pytest.raises(OverflowError):
            q.push(7, reserved=True)

    def test_reserve_fails_when_full(self):
        q = MarkerQueue("q", capacity_bytes=4, elem_bytes=4)
        q.push(1)
        assert not q.reserve(entries=1)
