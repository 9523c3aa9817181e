"""Shared engine machinery: time-multiplexed execution + the access unit.

Both SpZip engines (fetcher, compressor) are the same machine (Figs
10/12): a scratchpad of queues, a set of operator contexts sharing a few
functional units, a round-robin scheduler, and a memory port.  They
differ in which operator kinds they host and where their memory port
enters the hierarchy (fetcher -> its core's L2; compressor -> the LLC).

The **access unit** (AU) is where decoupling comes from: it accepts up to
``au_outstanding_lines`` in-flight requests and delivers their responses
*in order* as they complete, so a traversal keeps many misses in flight
while earlier data drains into queues.  Shallow queues throttle this —
responses stall when their output queue is full — which is exactly the
scratchpad-size sensitivity of Fig 21.

Execution
---------

The engine runs **event-driven**: it executes exactly the cycles of the
literal hardware loop *that do work*.  Operator readiness in this model
changes only at discrete events (a fire, an in-order AU delivery, a
core enqueue/dequeue); the single time-driven event is the AU's next
completion.  Whenever a cycle does no work, the loop jumps the clock
straight to that completion (booking the skipped cycles as scheduler
idle), and when exactly one context is runnable it fires it in bounded
bursts without re-running the full cycle machinery.

The loop is **cycle-identical** to the per-cycle reference in
``tests/oracles/engine.py`` (every cycle delivers, picks, and advances
the clock): same cycle counts, same per-operator fire counts, same
idle/activity statistics, same queue high-water marks — enforced by the
randomized equivalence suite in ``tests/test_engine_equivalence.py``.
The only observable difference is deadlock detection: the reference
spins 10k cycles before raising :class:`EngineStall`, while the event
loop proves "no future event" and raises immediately.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import SpZipConfig
from repro.dcl.operators import NEVER, Operator
from repro.dcl.program import Program
from repro.dcl.queue import Entry, MarkerQueue
from repro.dcl.scheduler import RoundRobinScheduler
from repro.memory.address import AddressSpace

#: Memory port signature: (addr, nbytes, write) -> latency cycles.
MemPort = Callable[[int, int, bool], int]

#: Upper bound on consecutive sole-context fires before the event core
#: re-enters the full scheduling loop (bounded bursts).
BURST_CYCLES = 256


@dataclass
class _InflightRequest:
    complete_at: int
    operator: Operator
    entries: List[Entry]
    out_queues: Sequence[MarkerQueue]


class EngineStall(RuntimeError):
    """The engine made no progress for too long (deadlock guard)."""


class SpZipEngine:
    """Time-multiplexed DCL execution engine."""

    #: operator kinds this engine type may host; subclasses narrow it.
    allowed_kinds: Optional[frozenset] = None

    def __init__(self, config: SpZipConfig, space: AddressSpace,
                 mem_port: Optional[MemPort] = None,
                 mem_latency: int = 20) -> None:
        self.config = config
        self.space = space
        self._mem_port = mem_port
        self._flat_latency = mem_latency
        self.cycle = 0
        self.queues: Dict[str, MarkerQueue] = {}
        self.operators: List[Operator] = []
        self.scheduler: Optional[RoundRobinScheduler] = None
        self._inflight: Deque[_InflightRequest] = deque()
        self.program: Optional[Program] = None
        # Statistics.
        self.mem_reads = 0
        self.mem_bytes_read = 0
        self.mem_writes = 0
        self.mem_bytes_written = 0
        self.burst_fires = 0

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_program(cls, program: Program, space: AddressSpace,
                     config: Optional[SpZipConfig] = None, *,
                     mem_port: Optional[MemPort] = None,
                     mem_latency: Optional[int] = None) -> "SpZipEngine":
        """Build a fully wired engine in one step.

        This is the public construction surface: hardware parameters
        (``config``), the address space the program's regions resolve
        against, and the memory port (or a flat latency) all land here,
        and the program is validated and installed before the engine is
        returned.  ``mem_latency=None`` keeps the engine type's default
        (fetchers model an L2-side port, compressors an LLC-side one, so
        their defaults differ).
        """
        kwargs: Dict[str, object] = {"mem_port": mem_port}
        if mem_latency is not None:
            kwargs["mem_latency"] = mem_latency
        engine = cls(config or SpZipConfig(), space, **kwargs)
        engine.load_program(program)
        return engine

    # -- configuration (memory-mapped I/O in hardware) -------------------------

    def load_program(self, program: Program) -> None:
        """Validate and install a DCL program (Sec III-B, configure)."""
        program.validate(self.config, self.allowed_kinds)
        self.queues, self.operators = program.instantiate(
            self.config, self._resolve_addr)
        self.scheduler = RoundRobinScheduler(self.operators)
        self._inflight.clear()
        self.program = program

    def _resolve_addr(self, base) -> int:
        if isinstance(base, str):
            return self.space.region(base).base
        return int(base)

    # -- core-facing queue interface (enqueue/dequeue instructions) -----------

    def enqueue(self, queue: str, value: int, marker: bool = False) -> bool:
        """Core-side push; returns False when the queue is full."""
        return self.queues[queue].try_push(value, marker)

    def dequeue(self, queue: str) -> Optional[Entry]:
        """Core-side pop; None when empty (core would retry/spin)."""
        return self.queues[queue].try_pop()

    # -- memory services used by operators --------------------------------------

    def _charge(self, addr: int, nbytes: int, write: bool) -> int:
        if write:
            self.mem_writes += 1
            self.mem_bytes_written += nbytes
        else:
            self.mem_reads += 1
            self.mem_bytes_read += nbytes
        if self._mem_port is not None:
            return self._mem_port(addr, nbytes, write)
        return self._flat_latency

    def mem_read_elems(self, addr: int, count: int,
                       elem_bytes: int) -> np.ndarray:
        """Functional load of ``count`` elements (latency charged at issue)."""
        if count == 0:
            return np.empty(0, dtype=np.uint64)
        values = self.space.load_elems(addr, count,
                                       np.dtype(f"u{elem_bytes}"))
        return values

    def mem_read_charged(self, addr: int, count: int,
                         elem_bytes: int) -> np.ndarray:
        """Functional load that also charges the memory port (for units
        like the MQU that access memory synchronously, outside the AU)."""
        values = self.mem_read_elems(addr, count, elem_bytes)
        if count:
            self._charge(addr, count * elem_bytes, write=False)
        return values

    def mem_write_bytes(self, addr: int, data: bytes) -> None:
        """Functional store through the engine's memory port."""
        self.space.store(addr, data)
        self._charge(addr, len(data), write=True)

    # -- access unit -------------------------------------------------------------

    def au_can_issue(self) -> bool:
        return len(self._inflight) < self.config.au_outstanding_lines

    def au_next_free_cycle(self) -> int:
        """Lower bound on when a full AU frees a slot (head completion)."""
        if self._inflight \
                and len(self._inflight) >= self.config.au_outstanding_lines:
            return self._inflight[0].complete_at
        return self.cycle

    def next_event_cycle(self) -> Optional[int]:
        """Cycle at which time alone next changes engine state.

        Delivery is in order, so the head of the in-flight FIFO gates
        everything behind it; with nothing in flight there is no
        time-driven event at all (``None``) and only external agents can
        unblock the engine.
        """
        if self._inflight:
            return self._inflight[0].complete_at
        return None

    def au_issue(self, operator: Operator, addr: int, nbytes: int,
                 entries: List[Entry],
                 out_queues: Sequence[MarkerQueue]) -> None:
        """Queue a memory request; its entries deliver when it completes."""
        latency = self._charge(addr, nbytes, write=False) if nbytes else 0
        self._inflight.append(_InflightRequest(self.cycle + latency,
                                               operator, entries,
                                               out_queues))

    def stage_passthrough(self, operator: Operator, entry: Entry) -> None:
        """Forward an entry (marker passthrough) in request order."""
        self._inflight.append(_InflightRequest(self.cycle, operator,
                                               [entry],
                                               operator.out_queues))

    def _deliver(self) -> Tuple[bool, bool]:
        """Drain completed AU responses, in order, up to FU throughput.

        Responses always fit: issuing operators reserved their output
        space up front (credit-based flow control), so the in-order FIFO
        can never block head-of-line.

        Returns ``(pushed, popped)``: whether any entry was delivered,
        and whether any completed request was retired (entry-less
        prefetch requests retire without delivering, which still frees
        an AU slot — a state change the event core must see as work).
        """
        pushed = False
        popped = False
        budget = self.config.fu_bytes_per_cycle
        while self._inflight and budget > 0:
            head = self._inflight[0]
            if head.complete_at > self.cycle:
                break
            while head.entries and budget > 0:
                entry = head.entries.pop(0)
                for queue in head.out_queues:
                    queue.push(entry.value, entry.marker, reserved=True)
                pushed = True
                budget -= 1
            if head.entries:
                break
            self._inflight.popleft()
            popped = True
        return pushed, popped

    # -- execution -----------------------------------------------------------------

    def tick(self) -> bool:
        """Advance one cycle; returns True only if *state changed*.

        State changes are a delivery, a retired request, or a fire.
        ``False`` means the cycle was provably a no-op and every cycle
        until the next AU completion would be too — the signal the
        event-driven loops skip on.  (Waiting on in-flight memory is
        not a change; the per-cycle reference in
        ``tests/oracles/engine.py`` counts it as progress for its
        stall guard.)
        """
        if self.scheduler is None:
            raise RuntimeError("no program loaded")
        pushed, popped = self._deliver()
        op = self.scheduler.pick(self)
        if op is not None:
            op.fire(self)
        self.cycle += 1
        return pushed or popped or op is not None

    def run(self, max_cycles: int = 10_000_000) -> int:
        """Run until fully drained; returns cycles spent.

        Event-driven: idle stretches are skipped and sole contexts fire
        in bursts.  Cycle-identical to the per-cycle reference; see the
        module docstring for the argument.  Two invariants carry the
        proof:

        * a cycle that does no work leaves every queue, context, and AU
          slot untouched, so every subsequent cycle before the next AU
          head completion is also a no-op — jump straight there;
        * a ready operator implies the engine is not drained (readiness
          requires a non-empty input queue or pending internal state),
          so a burst never needs per-cycle drain checks.
        """
        if self.scheduler is None:
            raise RuntimeError("no program loaded")
        start = self.cycle
        scheduler = self.scheduler
        while not self.is_drained():
            worked = False
            inflight = self._inflight
            if inflight and inflight[0].complete_at <= self.cycle:
                pushed, popped = self._deliver()
                worked = pushed or popped
            op = scheduler.pick(self)
            if op is not None:
                op.fire(self)
                worked = True
            self.cycle += 1
            if self.cycle - start > max_cycles:
                raise EngineStall(f"exceeded {max_cycles} cycles")
            if op is not None:
                # Bounded burst: while this is the only runnable context
                # and no delivery is due, repeated picks are predictable.
                burst = 0
                while burst < BURST_CYCLES:
                    inflight = self._inflight
                    if inflight \
                            and inflight[0].complete_at <= self.cycle:
                        break
                    sole = scheduler.pick_sole(self)
                    if sole is None:
                        break
                    sole.fire(self)
                    self.cycle += 1
                    burst += 1
                    if self.cycle - start > max_cycles:
                        raise EngineStall(
                            f"exceeded {max_cycles} cycles")
                self.burst_fires += burst
                continue
            if worked:
                continue
            # Idle cycle: nothing can happen before the next AU event.
            target = self.next_event_cycle()
            bound = scheduler.next_ready_cycle(self)
            if bound < (target if target is not None else NEVER):
                target = bound
            if target is None or target >= NEVER:
                raise EngineStall(
                    "engine idle with nothing in flight "
                    "(output queue never drained?)")
            delta = target - self.cycle
            if delta > 0:
                scheduler.skip_idle(delta)
                self.cycle = target
                if self.cycle - start > max_cycles:
                    raise EngineStall(f"exceeded {max_cycles} cycles")
        return self.cycle - start

    def is_drained(self) -> bool:
        """No in-flight requests, no operator work, internal queues empty.

        Output queues (consumed by the core) may still hold data.
        """
        if self._inflight:
            return False
        if any(not op.done(self) for op in self.operators):
            return False
        outputs = set(self.program.output_queues()) if self.program else set()
        return all(q.is_empty or name in outputs
                   for name, q in self.queues.items())


def engine_stats(engine: "SpZipEngine") -> Dict[str, object]:
    """One-glance summary of an engine run (debug/report helper)."""
    scheduler = engine.scheduler
    queues = {
        name: {"pushed": q.total_pushed,
               "high_water_bytes": q.high_water_bytes}
        for name, q in engine.queues.items()
    }
    return {
        "cycles": engine.cycle,
        "mem_reads": engine.mem_reads,
        "mem_bytes_read": engine.mem_bytes_read,
        "mem_writes": engine.mem_writes,
        "mem_bytes_written": engine.mem_bytes_written,
        "operator_fires": dict(scheduler.fires_by_op)
        if scheduler else {},
        "activity_factor": scheduler.activity_factor()
        if scheduler else 0.0,
        "idle_cycles": scheduler.idle_cycles if scheduler else 0,
        "skipped_idle_cycles": scheduler.skipped_idle_cycles
        if scheduler else 0,
        "queues": queues,
    }
