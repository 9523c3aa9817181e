"""Layer probes: time each layer of the program from outside.

A :class:`Probe` rebinds a layer's public functions — wherever the
program's modules hold a reference to them — to timing wrappers, and
restores the originals on :meth:`Probe.uninstall`.  Nothing under
``src/`` changes.  For every wrapped layer it records

* ``self_s``: seconds inside the layer's calls minus the seconds spent
  in nested calls of other wrapped layers (a per-thread call stack), so
  the self times of one process add up to at most its wall time;
* ``calls``: how many wrapped calls entered the layer;

plus the work counts the hooks below collect at the same boundaries
(cache hits and bytes, bytes hashed, cycles simulated, ...).  Counting
work that costs time of its own (re-pickling to count hashed bytes) is
charged to ``probe.overhead_s``, not to the layer that made the call.

Pool workers forked by the program inherit the installed wrappers.
Each worker writes its cumulative state to ``probe-<pid>.json`` in the
probe directory after every ``execute_group`` call; the process that
installed the probe writes its own with :meth:`Probe.dump`, and
:func:`merge_states` sums them.

``profile_layer`` additionally runs that one layer's outermost calls
under :mod:`cProfile` and dumps ``profile-<pid>.pstats`` beside the
probe state (see :func:`merge_profiles`).
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import inspect
import json
import os
import pickle
import pstats
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``module:attr`` or ``module:Class.method``.

    ``layer`` None marks a hook-only target (counted, not timed).
    ``before(probe, args, kwargs)`` runs ahead of the call and its
    return value reaches ``after(probe, args, kwargs, result, token)``
    (async targets take ``before`` only).
    ``flush`` makes forked workers dump their state after each call.
    """

    layer: Optional[str]
    path: str
    before: Optional[Callable] = None
    after: Optional[Callable] = None
    flush: bool = False


# -- counting hooks ----------------------------------------------------------

def _cache_get_before(_probe, args, _kwargs):
    return args[0].corrupt_dropped


def _cache_get_after(probe, args, _kwargs, result, corrupt_before):
    cache, key = args[0], args[1]
    probe.add("cache.corrupt_dropped",
              cache.corrupt_dropped - corrupt_before)
    if result is None:
        probe.add("cache.misses", 1)
        return
    probe.add("cache.hits", 1)
    try:
        probe.add("cache.bytes_read", os.path.getsize(cache._path(key)))
    except OSError:
        pass


def _cache_put_after(probe, args, _kwargs, _result, _token):
    cache, key = args[0], args[1]
    try:
        probe.add("cache.bytes_written", os.path.getsize(cache._path(key)))
    except OSError:
        pass


def _digest_after(probe, args, _kwargs, _result, _token):
    # artifact_digest hashes the protocol-4 pickle of its argument.
    probe.add("fingerprint.bytes_hashed",
              len(pickle.dumps(args[0], protocol=4)))


def _timing_after(probe, _args, _kwargs, _result, _token):
    probe.add("timing.cells", 1)


def _drive_after(probe, _args, _kwargs, result, _token):
    probe.add("engine.cycles_simulated", int(result.cycles))


def _executor_run_before(probe, _args, _kwargs):
    # Pool workers fork after this point and inherit the timestamp.
    probe.dispatch_started = time.monotonic()


def _group_before(_probe, _args, _kwargs):
    return time.monotonic()


def _group_after(probe, _args, _kwargs, _result, started):
    probe.add("executor.groups", 1)
    # Queue wait: from the dispatching executor's run() entry to the
    # group's start in a pool worker (0 for in-process groups).
    if probe.dispatch_started is not None and \
            os.getpid() != probe.root_pid:
        probe.add("executor.queue_wait_s",
                  max(0.0, started - probe.dispatch_started))


def _telemetry_after(probe, args, _kwargs, _result, _token):
    record = args[1]
    if record.status == "failed":
        probe.add("executor.failed", 1)
    if record.kind == "profile" and record.retries:
        probe.add("executor.retries", int(record.retries))


def _batch_submit_before(probe, args, _kwargs):
    # GroupBatcher.submit(profile_key, request, key): the cell starts
    # waiting for its batch to dispatch.
    probe.batch_submitted[args[3]] = time.monotonic()


def _dispatch_cells_before(probe, args, _kwargs):
    # ServeApp._dispatch_cells(cells) is the batcher's dispatch hook.
    now = time.monotonic()
    cells = args[1]
    probe.add("serve.batch_wait_s", sum(
        now - probe.batch_submitted.pop(key, now) for _req, key in cells))
    probe.add("serve.batched_cells", len(cells))
    probe.add("serve.batches", 1)


# -- the layer map -----------------------------------------------------------

def _targets() -> List[Target]:
    return [
        Target("graph.load", "repro.graph.datasets:load"),
        Target("graph.load", "repro.graph.datasets:load_preprocessed"),
        Target("apps.build", "repro.apps:build_workload"),
        Target("stages.streams", "repro.stages.streams:generate_streams"),
        Target("stages.streams",
               "repro.stages.streams:generate_streams_partitioned"),
        Target("stages.replay", "repro.stages.replay:replay_streams"),
        Target("stages.compress", "repro.stages.compress:compress_streams"),
        Target("stages.timing", "repro.stages.timing:price_staged",
               after=_timing_after),
        Target("stages.timing", "repro.stages.timing:assemble_profiles"),
        Target("jobs.cache", "repro.jobs.cache:ResultCache.get",
               before=_cache_get_before, after=_cache_get_after),
        Target("jobs.cache", "repro.jobs.cache:ResultCache.put",
               after=_cache_put_after),
        Target("jobs.fingerprint",
               "repro.jobs.fingerprint:stage_fingerprint"),
        Target("jobs.fingerprint",
               "repro.jobs.fingerprint:stream_fingerprint"),
        Target("jobs.fingerprint", "repro.jobs.fingerprint:job_fingerprint"),
        Target("jobs.fingerprint", "repro.jobs.fingerprint:artifact_digest",
               after=_digest_after),
        Target("jobs.executor", "repro.jobs.executor:JobExecutor.run",
               before=_executor_run_before),
        Target("jobs.executor", "repro.jobs.executor:execute_group",
               before=_group_before, after=_group_after, flush=True),
        Target("jobs.executor",
               "repro.jobs.telemetry:TelemetryWriter.record",
               after=_telemetry_after),
        Target("engine", "repro.engine.driver:drive", after=_drive_after),
        Target("runtime.traffic", "repro.sim.runner:Runner.profiles"),
        Target("harness.report", "repro.harness.report:generate_report"),
        Target("serve.parse", "repro.serve.protocol:parse_price"),
        Target("serve.parse", "repro.serve.protocol:parse_sweep"),
        Target("serve.parse", "repro.serve.protocol:parse_delta"),
        Target("serve.delta_apply", "repro.graph.datasets:apply_delta"),
        Target("serve.dispatch",
               "repro.serve.pool:ProcessBackend.run_group"),
        Target(None, "repro.serve.batching:GroupBatcher.submit",
               before=_batch_submit_before),
        Target(None, "repro.serve.app:ServeApp._dispatch_cells",
               before=_dispatch_cells_before),
    ]


#: Every timed layer, in pipeline order (the ranked table's universe).
#: ``startup`` is the program's import time in a fresh process, which
#: the benchmark's child records itself.
LAYERS: Tuple[str, ...] = ("startup",) + tuple(dict.fromkeys(
    t.layer for t in _targets() if t.layer)) + ("harness",)


def _resolve(path: str):
    """(owner object, attribute name) for ``module:attr[.attr]``."""
    module_name, _sep, qualname = path.partition(":")
    owner = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Probe:
    """Installs layer wrappers and accumulates their measurements."""

    def __init__(self, out_dir: Optional[str] = None,
                 profile_layer: Optional[str] = None) -> None:
        if profile_layer is not None and profile_layer not in LAYERS:
            raise ValueError(f"unknown layer {profile_layer!r}; "
                             f"choose from {', '.join(LAYERS)}")
        self.out_dir = out_dir
        self.profile_layer = profile_layer
        self.root_pid = os.getpid()
        self.dispatch_started: Optional[float] = None
        self._patches: List[Tuple[object, str, object]] = []
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.layers: Dict[str, List[float]] = {}
        self.counters: Counter = Counter()
        self._local = threading.local()
        # Re-entrant: a signal handler may dump while the interrupted
        # thread holds the lock.
        self._lock = threading.RLock()
        self._profiler: Optional[cProfile.Profile] = None
        self.batch_submitted: Dict[str, float] = {}

    def _stack(self) -> list:
        if os.getpid() != self.pid:
            # A forked worker starts with its parent's totals and call
            # stack; it reports only its own work.
            self._reset()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, layer: str, self_s: float) -> None:
        """Add one call of ``self_s`` seconds to ``layer``."""
        with self._lock:
            entry = self.layers.setdefault(layer, [0.0, 0])
            entry[0] += self_s
            entry[1] += 1

    def add(self, name: str, value: float) -> None:
        """Add to a counter (thread-safe)."""
        with self._lock:
            self.counters[name] += value

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, target: Target, fn):
        if inspect.iscoroutinefunction(fn):
            return self._wrap_async(target, fn)
        probe = self
        layer = target.layer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = probe._stack()
            token = target.before(probe, args, kwargs) \
                if target.before else None
            outermost = layer == probe.profile_layer and \
                all(frame[1] != layer for frame in stack)
            frame = [0.0, layer]
            stack.append(frame)
            if outermost:
                probe._profile().enable()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                if outermost:
                    probe._profile().disable()
                stack.pop()
            hook_s = 0.0
            if target.after is not None:
                hook_start = time.perf_counter()
                target.after(probe, args, kwargs, result, token)
                hook_s = time.perf_counter() - hook_start
                probe.add("probe.overhead_s", hook_s)
            probe.record(layer, elapsed - frame[0])
            if stack:
                stack[-1][0] += elapsed + hook_s
            if target.flush and os.getpid() != probe.root_pid:
                probe.dump()
            return result

        # lru_cache'd functions keep their cache controls reachable.
        for name in ("cache_clear", "cache_info"):
            if hasattr(fn, name):
                setattr(wrapper, name, getattr(fn, name))
        return wrapper

    def _wrap_async(self, target: Target, fn):
        probe = self
        layer = target.layer

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            if target.before is not None:
                target.before(probe, args, kwargs)
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                if layer is not None:
                    # Awaiting interleaves with other tasks, so async
                    # layers record elapsed time and stay off the stack.
                    probe.record(layer, time.perf_counter() - start)

        return wrapper

    def _profile(self) -> cProfile.Profile:
        if self._profiler is None:
            self._profiler = cProfile.Profile()
        return self._profiler

    # -- install / uninstall -----------------------------------------------

    def install(self) -> "Probe":
        """Wrap every target and the harness experiment functions."""
        for target in _targets():
            owner, attr = _resolve(target.path)
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            wrapper = self._wrap(target, original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            # Rebind every module-level reference (``from x import f``
            # copies the binding) so all call sites see the wrapper.
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("repro") \
                        and getattr(module, attr, None) is original:
                    self._patch(module, attr, wrapper)
        from repro.harness.experiments import EXPERIMENTS
        harness = Target("harness", "repro.harness.experiments:EXPERIMENTS")
        for name, fn in list(EXPERIMENTS.items()):
            self._patch(EXPERIMENTS, name, self._wrap(harness, fn))
        return self

    def _patch(self, owner, attr: str, value) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every original binding (reverse patch order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- state --------------------------------------------------------------

    def state(self) -> Dict[str, object]:
        """Layers, counters, and this process's stage counters."""
        stages = sys.modules.get("repro.stages")
        with self._lock:
            return {"pid": os.getpid(),
                    "layers": {k: list(v) for k, v in self.layers.items()},
                    "counters": dict(self.counters),
                    "stages": stages.stage_counters() if stages else {}}

    def dump(self) -> None:
        """Write this process's cumulative state (and pstats)."""
        if self.out_dir is None:
            return
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, f"probe-{os.getpid()}.json")
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(self.state(), handle)
        os.replace(tmp, path)
        if self._profiler is not None:
            self._profiler.dump_stats(os.path.join(
                self.out_dir, f"profile-{os.getpid()}.pstats"))


def merge_states(out_dir: str) -> Dict[str, object]:
    """Sum every process's probe state found in ``out_dir``."""
    layers: Dict[str, List[float]] = {}
    counters: Counter = Counter()
    stages: Counter = Counter()
    processes = 0
    for name in sorted(os.listdir(out_dir)):
        if not (name.startswith("probe-") and name.endswith(".json")):
            continue
        with open(os.path.join(out_dir, name)) as handle:
            state = json.load(handle)
        processes += 1
        for layer, (self_s, calls) in state["layers"].items():
            entry = layers.setdefault(layer, [0.0, 0])
            entry[0] += self_s
            entry[1] += calls
        counters.update(state["counters"])
        stages.update(state["stages"])
    return {"layers": layers, "counters": dict(counters),
            "stages": dict(stages), "processes": processes}


def diff_states(after: Dict[str, object], before: Dict[str, object]
                ) -> Dict[str, object]:
    """``after`` minus ``before`` (two :func:`merge_states` results)."""
    layers = {layer: [self_s - before["layers"].get(layer, (0.0, 0))[0],
                      calls - before["layers"].get(layer, (0.0, 0))[1]]
              for layer, (self_s, calls) in after["layers"].items()}
    counters = Counter(after["counters"])
    counters.subtract(before["counters"])
    stages = Counter(after["stages"])
    stages.subtract(before["stages"])
    return {"layers": layers, "counters": dict(counters),
            "stages": dict(stages), "processes": after["processes"]}


def merge_profiles(out_dir: str, dest: str) -> Optional[pstats.Stats]:
    """Merge every ``profile-<pid>.pstats`` in ``out_dir`` into ``dest``."""
    paths = sorted(os.path.join(out_dir, name)
                   for name in os.listdir(out_dir)
                   if name.startswith("profile-")
                   and name.endswith(".pstats"))
    if not paths:
        return None
    stats = pstats.Stats(paths[0], stream=sys.stderr)
    for path in paths[1:]:
        stats.add(path)
    stats.dump_stats(dest)
    return stats
