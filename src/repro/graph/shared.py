"""Shared memory-mapped graph arrays for process pools.

Profiling workers used to pay for every :class:`~repro.graph.csr.CsrGraph`
twice: a workload shipped through a process pool pickled the whole
offsets/neighbors/values arrays into the task payload, and a worker that
rebuilt its own graphs regenerated them from scratch per process.  This
module gives both paths one content-addressed, memory-mapped store:

* :meth:`GraphStore.put_array` spills an array to ``<root>/<digest>.npy``
  exactly once (atomic ``os.replace`` publish, so concurrent writers of
  the same content race benignly);
* :meth:`GraphStore.load_array` opens it with ``np.load(mmap_mode="r")``
  — every process on the machine then shares the same page-cache pages
  instead of holding a private copy;
* ``CsrGraph.__reduce__`` consults :func:`active_graph_store`: with a
  store active, a pickled graph is just three store paths plus its
  digest (bytes, not megabytes), and unpickling maps the arrays back in;
* :func:`cached_graph` backs the dataset registry, so pool workers map
  the dispatcher's generated graphs instead of regenerating them.

The store is activated by :class:`~repro.stages.StagePricer` whenever its
result cache has an on-disk root (the jobs executor and the serve
backends both arrange that), and :func:`release_graphs` drops the mapped
segments at pool teardown.  With no store active everything degrades to
the old inline-pickle behaviour — same bytes, same tests.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
from typing import Callable, Dict, Optional

import numpy as np

from repro.graph.csr import CsrGraph

_ACTIVE: Optional["GraphStore"] = None


class GraphStore:
    """Content-addressed ``.npy`` array store with memmap reads."""

    def __init__(self, root: str) -> None:
        os.makedirs(root, exist_ok=True)
        self.root = root
        # path -> mapped array; one mapping per file per process.
        self._open: Dict[str, np.ndarray] = {}
        #: Published graphs dropped because an array would not map.
        self.corrupt_dropped = 0

    # -- arrays -----------------------------------------------------------

    def put_array(self, array: np.ndarray) -> str:
        """Persist ``array`` (idempotent); returns its store path."""
        array = np.ascontiguousarray(array)
        digest = hashlib.blake2b(digest_size=16)
        digest.update(str(array.dtype).encode())
        digest.update(str(array.shape).encode())
        digest.update(array.tobytes())
        path = os.path.join(self.root, digest.hexdigest() + ".npy")
        if not os.path.exists(path):
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    np.save(handle, array)
                os.replace(tmp, path)
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise
        return path

    def load_array(self, path: str) -> np.ndarray:
        """Map a stored array read-only (memoized per process)."""
        array = self._open.get(path)
        if array is None:
            array = np.load(path, mmap_mode="r")
            self._open[path] = array
        return array

    # -- whole graphs -----------------------------------------------------

    def _manifest_path(self, key: str) -> str:
        digest = hashlib.blake2b(key.encode(),
                                 digest_size=16).hexdigest()
        return os.path.join(self.root, f"graph-{digest}.json")

    def put_graph(self, key: str, graph: CsrGraph) -> None:
        """Publish a named graph: arrays plus a small manifest."""
        manifest = {
            "offsets": self.put_array(graph.offsets),
            "neighbors": self.put_array(graph.neighbors),
            "values": None if graph.values is None
            else self.put_array(graph.values),
            "digest": graph.content_digest(),
        }
        path = self._manifest_path(key)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(manifest, handle)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def get_graph(self, key: str) -> Optional[CsrGraph]:
        """Map a named graph back in, or None if never published.

        A manifest whose arrays no longer map (pruned: ``OSError``;
        truncated: ``ValueError``) is a counted miss.  It and the
        arrays that fail to map are unlinked, since ``put_array`` never
        overwrites, so the caller's rebuild republishes them.
        """
        path = self._manifest_path(key)
        try:
            with open(path) as handle:
                manifest = json.load(handle)
        except (OSError, ValueError):
            return None
        arrays = (manifest["offsets"], manifest["neighbors"],
                  manifest["values"])
        try:
            return _rebuild_graph(*arrays, manifest["digest"],
                                  store=self)
        except (OSError, ValueError):
            self.corrupt_dropped += 1
            broken = [a for a in arrays if a and not self._maps(a)]
            for stale in [path] + broken:
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(stale)
            return None

    def _maps(self, path: str) -> bool:
        try:
            self.load_array(path)
            return True
        except (OSError, ValueError):
            return False

    def release(self) -> None:
        """Drop this process's mappings.

        Only the store's references are dropped — a mapping still held
        by a live graph stays valid (numpy closes the underlying mmap
        when the last array referencing it is collected); forcing the
        segments closed here would turn later reads into crashes.
        """
        self._open.clear()

    @property
    def open_segments(self) -> int:
        return len(self._open)


def enable_graph_store(root: str) -> GraphStore:
    """Activate the process-wide store rooted at ``root``.

    Re-activating the same root keeps the existing store (and its
    mappings); a different root replaces it.
    """
    global _ACTIVE
    if _ACTIVE is None or _ACTIVE.root != root:
        _ACTIVE = GraphStore(root)
    return _ACTIVE


def active_graph_store() -> Optional[GraphStore]:
    return _ACTIVE


def disable_graph_store() -> None:
    """Deactivate and release the process-wide store (tests)."""
    global _ACTIVE
    if _ACTIVE is not None:
        _ACTIVE.release()
    _ACTIVE = None


def release_graphs() -> None:
    """Drop the active store's mappings (pool teardown)."""
    if _ACTIVE is not None:
        _ACTIVE.release()


def cached_graph(key: str, build: Callable[[], CsrGraph]) -> CsrGraph:
    """Fetch a named graph from the active store, else build + publish.

    With no store active this is just ``build()`` — the dataset
    registry's lru_cache keeps per-process memoization either way.
    """
    store = _ACTIVE
    if store is None:
        return build()
    graph = store.get_graph(key)
    if graph is None:
        graph = build()
        store.put_graph(key, graph)
    return graph


def _rebuild_graph(offsets_path: str, neighbors_path: str,
                   values_path: Optional[str], digest: str,
                   store: Optional[GraphStore] = None) -> CsrGraph:
    """Unpickle/manifest target: map arrays, skip re-validation."""
    owner = store if store is not None else _ACTIVE
    if owner is None:
        # Receiving process never enabled a store (e.g. spawn worker
        # before its pricer initializes): map directly, untracked.
        load = lambda path: np.load(path, mmap_mode="r")  # noqa: E731
    else:
        load = owner.load_array
    graph = CsrGraph(load(offsets_path), load(neighbors_path),
                     None if values_path is None else load(values_path),
                     check=False)
    graph._digest = digest
    graph._store_paths = (offsets_path, neighbors_path, values_path)
    return graph


def _reduce_graph(graph: CsrGraph):
    """``CsrGraph.__reduce__`` body (lives here to keep csr.py lean).

    With a store active the pickle payload is three paths + digest;
    otherwise the arrays ride along inline exactly as before.
    """
    store = _ACTIVE
    if store is None:
        return (_rebuild_inline, (graph.offsets, graph.neighbors,
                                  graph.values, graph._digest))
    paths = getattr(graph, "_store_paths", None)
    if paths is not None and os.path.dirname(paths[0]) != store.root:
        paths = None  # memoized under a different (possibly gone) root
    if paths is None:
        paths = (store.put_array(graph.offsets),
                 store.put_array(graph.neighbors),
                 None if graph.values is None
                 else store.put_array(graph.values))
        graph._store_paths = paths
    return (_rebuild_graph, (*paths, graph.content_digest()))


def _rebuild_inline(offsets: np.ndarray, neighbors: np.ndarray,
                    values: Optional[np.ndarray],
                    digest: Optional[str]) -> CsrGraph:
    graph = CsrGraph(offsets, neighbors, values, check=False)
    graph._digest = digest
    return graph


def graph_digest_of_payload(payload: bytes) -> str:
    """Unpickle a graph payload and return its content digest.

    Module-level so fork *and* spawn pool workers can import it by
    reference — the cross-process identity check of the shared-graph
    regression tests.
    """
    import pickle
    graph = pickle.loads(payload)
    return graph.content_digest()
