"""In-memory span recorder that times calls into the program's layers.

The recorder wraps public functions of ``repro`` from outside: each call
becomes one span ``[name, start_ns, end_ns, parent, launch, amount]``,
where ``parent`` is the index of the enclosing span (-1 at top level) and
``amount`` is an optional size (bytes written).  Spans stay in memory;
the benchmark ships them from the child to the parent, which writes them
as JSONL when the run ends.  Wrappers are installed in a forked child
only, so untraced launches run the program unmodified.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: (module, class or None, attribute, span name, amount function).
#: Every layer the benchmark reports; names follow the ``src/repro``
#: module that owns the function.
LAYER_FUNCTIONS: Tuple[tuple, ...] = (
    ("repro.workloads.harness", None, "run_vm", "engine.run_vm", None),
    ("repro.workloads.harness", "Workload", "load", "loader.load", None),
    ("repro.persist.manager", "PersistentCacheSession", "on_process_start",
     "persist.open_revive", None),
    ("repro.persist.manager", "PersistentCacheSession", "on_exit",
     "persist.write_back", None),
    ("repro.persist.database", "CacheDatabase", "lookup",
     "database.lookup", None),
    ("repro.persist.database", "CacheDatabase", "open_sidecar",
     "database.open_sidecar", None),
    ("repro.persist.database", "CacheDatabase", "store",
     "database.store", None),
    ("repro.persist.database", "CacheDatabase", "store_sidecar",
     "database.store_sidecar", None),
    ("repro.persist.cachefile", "PersistentCache", "from_bytes",
     "cachefile.decode", None),
    ("repro.persist.cachefile", "PersistentCache", "to_bytes",
     "cachefile.encode", None),
    ("repro.persist.storage", "FileStorage", "write_atomic",
     "storage.write", lambda args, kwargs: len(args[2])),
    ("repro.persist.storage", "FileStorage", "read_bytes",
     "storage.read", None),
    ("repro.persist.sharedstore", "SharedBodyStore", "lookup",
     "sharedstore.lookup", None),
    ("repro.persist.sharedstore", "SharedBodyStore", "publish",
     "sharedstore.publish", None),
    ("repro.vm.trace", "TraceSelector", "select", "trace.select", None),
    ("repro.vm.translator", "Translator", "translate",
     "translator.translate", None),
    ("repro.vm.compile", "TraceCompiler", "prepare", "compile.prepare", None),
    ("repro.vm.compile", "TraceCompiler", "bind", "compile.bind", None),
    ("repro.vm.compile", "TraceCompiler", "compile_region",
     "compile.region", None),
    ("repro.vm.codecache", "CodeCache", "insert", "codecache.insert", None),
    ("repro.vm.codecache", "CodeCache", "flush", "codecache.flush", None),
)


class SpanRecorder:
    """Collects spans of one process; single-threaded use only."""

    def __init__(self, launch: int = 0) -> None:
        self.spans: List[list] = []
        self.launch = launch
        self._stack: List[int] = []

    def wrap(
        self,
        name: str,
        fn: Callable,
        amount: Optional[Callable] = None,
    ) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, self.launch,
                    amount(args, kwargs) if amount is not None else 0]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self, table: Sequence[tuple] = LAYER_FUNCTIONS) -> Callable:
        """Wrap every function in ``table``; returns an undo callable."""
        undo = []
        for module_name, class_name, attr, name, amount in table:
            owner = _resolve(module_name, class_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(name, raw.__func__, amount))
            else:
                wrapped = self.wrap(name, raw, amount)
            setattr(owner, attr, wrapped)
            undo.append((owner, attr, raw))

        def restore() -> None:
            for owner, attr, raw in reversed(undo):
                setattr(owner, attr, raw)

        return restore


def _resolve(module_name: str, class_name: Optional[str]):
    import importlib

    module = importlib.import_module(module_name)
    return module if class_name is None else getattr(module, class_name)


def install_memory_counter() -> Dict[str, int]:
    """Count ``AddressSpace.read_word``/``write_word`` calls.

    Kept apart from the span recorder: the counting wrappers slow an
    execution-bound launch by about a third, so they run in their own
    pass and never inside a timed or traced launch.
    """
    from repro.loader.mapper import AddressSpace

    counts = {"reads": 0, "writes": 0}
    read_word = AddressSpace.read_word
    write_word = AddressSpace.write_word

    def counted_read(space, addr):
        counts["reads"] += 1
        return read_word(space, addr)

    def counted_write(space, addr, value):
        counts["writes"] += 1
        return write_word(space, addr, value)

    AddressSpace.read_word = counted_read
    AddressSpace.write_word = counted_write
    return counts


def self_times(spans: Sequence[Sequence]) -> List[int]:
    """Each span's duration minus the part of it its children cover.

    ``spans`` are rows of ``[name, start, end, parent, ...]`` with parent
    indices into the same sequence.  Children are clipped to the parent
    interval and overlapping children are counted once.
    """
    children: Dict[int, List[Tuple[int, int]]] = {}
    for row in spans:
        parent = row[3]
        if parent >= 0:
            children.setdefault(parent, []).append((row[1], row[2]))
    result = []
    for index, row in enumerate(spans):
        start, end = row[1], row[2]
        covered = 0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append(end - start - covered)
    return result
