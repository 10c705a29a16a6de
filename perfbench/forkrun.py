"""Run one function in a fresh ``os.fork()`` child and collect its result.

Every launch the benchmark makes (priming, native reference, timed) goes
through :func:`in_child`, so each starts from the parent's memory image
and none can warm the next one in-process.  The child pickles its return
value over a pipe; the parent reads the pipe to EOF (a payload larger than
the pipe buffer would otherwise block the child), then reaps the child
with ``os.wait4`` to get its exit status and ``ru_maxrss``.
"""

from __future__ import annotations

import gc
import os
import pickle
import select
import signal
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class ChildResult:
    """What one forked launch produced."""

    #: True when the child returned normally and exited 0.
    ok: bool
    #: The child's return value (None when ``ok`` is false).
    value: Any
    #: Why the launch failed: "" when ok, else "exit N", "signal N",
    #: "timeout" or the child's traceback.
    error: str
    #: Peak resident set of the child in MB (``ru_maxrss`` is KiB on Linux).
    maxrss_mb: float


def in_child(fn: Callable[[], Any], timeout_s: float = 120.0) -> ChildResult:
    """Call ``fn()`` in a forked child; never raises for child failures.

    A child that raises, exits nonzero, dies from a signal or outlives
    ``timeout_s`` (it is then SIGKILLed) yields ``ok=False``.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    # Frozen objects are never scanned by the child's collector, so its
    # garbage collections do not copy-on-write the parent's heap.
    gc.freeze()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        os.close(read_fd)
        code = 0
        try:
            payload = pickle.dumps(("value", fn()), pickle.HIGHEST_PROTOCOL)
        except BaseException:  # report everything, the child exits anyway
            payload = pickle.dumps(("error", traceback.format_exc()))
            code = 1
        try:
            view = memoryview(payload)
            while view:
                view = view[os.write(write_fd, view):]
        finally:
            os._exit(code)
    os.close(write_fd)
    chunks = []
    timed_out = False
    deadline = time.monotonic() + timeout_s
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                timed_out = True
                os.kill(pid, signal.SIGKILL)
                break
            ready, _, _ = select.select([read_fd], [], [], left)
            if not ready:
                continue
            chunk = os.read(read_fd, 1 << 20)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(read_fd)
        _, status, rusage = os.wait4(pid, 0)
    maxrss_mb = rusage.ru_maxrss / 1024.0
    if timed_out:
        return ChildResult(False, None, "timeout", maxrss_mb)
    if os.WIFSIGNALED(status):
        return ChildResult(
            False, None, "signal %d" % os.WTERMSIG(status), maxrss_mb
        )
    kind, value = _decode(b"".join(chunks))
    code = os.WEXITSTATUS(status)
    if kind == "error":
        return ChildResult(False, None, value, maxrss_mb)
    if code != 0 or kind != "value":
        return ChildResult(False, None, "exit %d" % code, maxrss_mb)
    return ChildResult(True, value, "", maxrss_mb)


def _decode(blob: bytes) -> tuple:
    # Only bytes our own forked child wrote reach here.
    if not blob:
        return "missing", None
    try:
        return pickle.loads(blob)
    except (pickle.UnpicklingError, EOFError, ValueError):
        return "missing", None


def check_child(result: ChildResult, what: str) -> Any:
    """The value of a set-up launch, or RuntimeError naming the failure."""
    if not result.ok:
        raise RuntimeError("%s failed: %s" % (what, result.error))
    return result.value

