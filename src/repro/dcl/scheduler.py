"""Round-robin dataflow scheduler (paper Sec III-B, "Scheduler").

Each cycle the scheduler picks one *ready* operator context: its input
queue has an element, its output queues have space, and its functional
unit can accept work (all folded into ``Operator.ready``).  A round-robin
pointer provides fairness among ready contexts, exactly as in the paper.

The event-driven engine core (``repro.engine.base``) adds two fast-path
entry points that preserve the per-cycle accounting exactly:

* :meth:`RoundRobinScheduler.skip_idle` books the idle cycles that
  skip-ahead elides, so ``activity_factor`` keeps meaning "fraction of
  simulated cycles with an operator firing" whether or not those idle
  cycles were individually executed;
* :meth:`RoundRobinScheduler.pick_sole` is the bounded-burst pick: it
  returns an operator only when it is the *only* ready context, with the
  same pointer movement and fire accounting :meth:`pick` would have done.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.dcl.operators import NEVER, Operator


class RoundRobinScheduler:
    """Picks at most one ready operator per cycle, round-robin."""

    def __init__(self, operators: List[Operator]) -> None:
        self.operators = list(operators)
        self._next = 0
        self.issued = 0
        self.idle_cycles = 0
        #: idle cycles that skip-ahead jumped over without executing
        #: (always <= idle_cycles; the remainder were scanned one by one).
        self.skipped_idle_cycles = 0
        self.fires_by_op: Dict[str, int] = {op.name: 0
                                            for op in self.operators}

    def pick(self, engine) -> Optional[Operator]:
        """Return the next ready operator, advancing the pointer."""
        n = len(self.operators)
        for step in range(n):
            op = self.operators[(self._next + step) % n]
            if op.ready(engine):
                self._next = (self._next + step + 1) % n
                self.issued += 1
                self.fires_by_op[op.name] += 1
                return op
        self.idle_cycles += 1
        return None

    def pick_sole(self, engine) -> Optional[Operator]:
        """Pick an operator only if it is the *only* ready context.

        Used by the event core's bounded bursts: when one context is
        runnable and nothing else can intervene, repeated ``pick`` calls
        are predictable, so the burst loop fires the context directly.
        Returns ``None`` (with *no* idle accounting — the caller falls
        back to :meth:`pick` for the contended cycle) when zero or
        several operators are ready.  On success the pointer and fire
        counters move exactly as :meth:`pick` would have moved them.
        """
        found: Optional[Operator] = None
        for op in self.operators:
            if op.ready(engine):
                if found is not None:
                    return None
                found = op
        if found is None:
            return None
        self._next = (self.operators.index(found) + 1) \
            % len(self.operators)
        self.issued += 1
        self.fires_by_op[found.name] += 1
        return found

    def skip_idle(self, cycles: int) -> None:
        """Account ``cycles`` idle cycles elided by skip-ahead.

        The per-cycle reference (``tests/oracles/engine.py``) calls
        :meth:`pick` once per idle cycle (each incrementing
        ``idle_cycles``); the event loops jump those cycles in one step
        and book them here so activity statistics stay identical to the
        reference.
        """
        if cycles < 0:
            raise ValueError("cannot skip a negative cycle count")
        self.idle_cycles += cycles
        self.skipped_idle_cycles += cycles

    def next_ready_cycle(self, engine) -> int:
        """Earliest lower bound on any context becoming ready.

        ``engine.cycle`` when something is ready now; the access unit's
        next completion when a context is blocked only on AU occupancy;
        :data:`~repro.dcl.operators.NEVER` when every context waits on
        queue state that only another agent (a response delivery, a core
        enqueue/dequeue) can change.
        """
        return min((op.ready_at(engine) for op in self.operators),
                   default=NEVER)

    def activity_factor(self) -> float:
        """Fraction of cycles with an operator firing (paper: ~33%).

        Skipped idle cycles are part of the denominator — the event
        loops report the same factor as the per-cycle reference.
        """
        total = self.issued + self.idle_cycles
        return self.issued / total if total else 0.0
