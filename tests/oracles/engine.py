"""Per-cycle engine reference: the literal hardware loops.

The frozen reference the event-driven engine core is held against.
Every simulated cycle delivers due access-unit responses, asks the
scheduler for one ready context, advances the clock and lets the core
enqueue/dequeue — even when nothing can possibly happen.  The paper's
scheduler reports ~33% activity, so most of these cycles are
interpreter time spent proving idleness; the event loops in
:mod:`repro.engine` skip them and must stay cycle-identical to this.

The loops are functions over an engine (or a multicore traversal) and
are never called by ``src/``:

* :func:`tick` — one engine cycle with the reference progress rule
  (waiting on in-flight memory counts as progress);
* :func:`run` — the :meth:`SpZipEngine.run` reference loop;
* :func:`drive_loop` / :func:`drive` — the :func:`repro.engine.drive`
  reference loop, and the same loop wrapped into a
  :class:`~repro.engine.DriveResult`;
* :func:`run_multicore` / :func:`step_core` — the
  :class:`~repro.engine.MulticoreTraversal` global loop.

The one documented divergence is deadlock detection: these loops spin
10k no-progress cycles before raising :class:`EngineStall`, while the
event loops prove "no future event" and raise at once.

Users: ``tests/test_engine_equivalence.py`` and
``benchmarks/perf_smoke.py`` (which times ``drive`` against
:func:`drive`).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.dcl.queue import Entry
from repro.engine import DriveRequest, DriveResult, EngineStall, SpZipEngine
from repro.engine.driver import Feed
from repro.engine.multicore import CoreState, MulticoreTraversal


def tick(engine: SpZipEngine) -> bool:
    """Advance one cycle; returns True if any work happened."""
    if engine.scheduler is None:
        raise RuntimeError("no program loaded")
    progressed, _popped = engine._deliver()
    op = engine.scheduler.pick(engine)
    if op is not None:
        op.fire(engine)
        progressed = True
    elif engine._inflight:
        progressed = True  # waiting on memory is progress
    engine.cycle += 1
    return progressed


def run(engine: SpZipEngine, max_cycles: int = 10_000_000) -> int:
    """Per-cycle reference loop (the literal hardware behaviour)."""
    start = engine.cycle
    idle = 0
    while not engine.is_drained():
        if tick(engine):
            idle = 0
        else:
            idle += 1
            if idle > 10_000:
                raise EngineStall(
                    f"engine made no progress for {idle} cycles "
                    f"(output queue never drained?)")
        if engine.cycle - start > max_cycles:
            raise EngineStall(f"exceeded {max_cycles} cycles")
    return engine.cycle - start


def drive_loop(engine: SpZipEngine, request: DriveRequest
               ) -> Tuple[int, Dict[str, List[Entry]]]:
    """Per-cycle reference drive loop; returns ``(cycles, outputs)``."""
    pending: Dict[str, List[Feed]] = {
        name: list(items) for name, items in request.feeds.items()
    }
    outputs: Dict[str, List[Entry]] = {name: [] for name in request.consume}
    dequeues_per_cycle = request.dequeues_per_cycle
    max_cycles = request.max_cycles
    start = engine.cycle
    idle = 0
    while True:
        progressed = False
        # Core enqueues (one enqueue instruction per input queue per cycle).
        for name, items in pending.items():
            if items and engine.enqueue(name, items[0].value,
                                        items[0].marker):
                items.pop(0)
                progressed = True
        # Engine runs a cycle.
        if tick(engine):
            progressed = True
        # Core dequeues.
        budget = dequeues_per_cycle
        for name in outputs:
            while budget > 0:
                entry = engine.dequeue(name)
                if entry is None:
                    break
                outputs[name].append(entry)
                budget -= 1
                progressed = True
        finished = (not any(pending.values()) and engine.is_drained()
                    and all(engine.queues[name].is_empty
                            for name in outputs))
        if finished:
            break
        idle = 0 if progressed else idle + 1
        if idle > 10_000:
            raise EngineStall("core/engine co-simulation stalled")
        if engine.cycle - start > max_cycles:
            raise EngineStall(f"exceeded {max_cycles} cycles")
    return engine.cycle - start, outputs


def drive(engine: SpZipEngine, request: DriveRequest) -> DriveResult:
    """:func:`drive_loop` wrapped into a :class:`DriveResult`.

    The per-run scheduler deltas are computed here rather than through
    ``drive``'s own bookkeeping, so a slip there cannot hide itself.
    """
    scheduler = engine.scheduler
    if scheduler is None:
        raise RuntimeError("no program loaded")
    fires0 = dict(scheduler.fires_by_op)
    issued0 = scheduler.issued
    idle0 = scheduler.idle_cycles
    skipped0 = scheduler.skipped_idle_cycles
    cycles, outputs = drive_loop(engine, request)
    issued = scheduler.issued - issued0
    idle = scheduler.idle_cycles - idle0
    return DriveResult(
        cycles=cycles,
        outputs=outputs,
        fires_by_op={name: count - fires0.get(name, 0)
                     for name, count in scheduler.fires_by_op.items()
                     if count - fires0.get(name, 0)},
        issued=issued,
        idle_cycles=idle,
        skipped_idle_cycles=scheduler.skipped_idle_cycles - skipped0,
        activity_factor=issued / (issued + idle) if issued + idle else 0.0,
    )


def run_multicore(traversal: MulticoreTraversal, max_cycles: int) -> int:
    """Per-cycle reference global loop over dealt chunks."""
    cycle = 0
    idle_streak = 0
    while True:
        progressed = False
        active = 0
        for core_id, core in enumerate(traversal.cores):
            if step_core(traversal, core_id, core, cycle):
                progressed = True
            if core.current is not None or core.chunks \
                    or not core.fetcher.is_drained():
                active += 1
        cycle += 1
        if active == 0:
            break
        idle_streak = 0 if progressed else idle_streak + 1
        if idle_streak > 10_000:
            raise EngineStall("multicore traversal stalled")
        if cycle > max_cycles:
            raise EngineStall(f"exceeded {max_cycles} cycles")
    return cycle


def step_core(traversal: MulticoreTraversal, core_id: int,
              core: CoreState, cycle: int) -> bool:
    """One core, one cycle, with the reference progress rule."""
    progressed = False
    # Start the next chunk when the previous one fully drained.
    if core.current is None and core.fetcher.is_drained() \
            and traversal._outputs_empty(core):
        chunk = traversal._next_chunk(core_id, core)
        if chunk is not None:
            traversal.feed(core.fetcher, chunk)
            core.current = chunk
            progressed = True
    if tick(core.fetcher):
        progressed = True
    # Core-side dequeues.
    budget = traversal.dequeues_per_cycle
    for name in traversal.consume_queues:
        while budget > 0:
            entry = core.fetcher.dequeue(name)
            if entry is None:
                break
            budget -= 1
            progressed = True
            if entry.marker:
                core.markers += 1
            else:
                core.elements += 1
            if traversal.on_entry is not None:
                traversal.on_entry(core_id, name, entry)
    if core.current is not None and core.fetcher.is_drained() \
            and traversal._outputs_empty(core):
        core.current = None
        core.finish_cycle = cycle
    return progressed
