"""Filesystem seam for the persistence layer.

Every byte the persistent-cache subsystem reads from or writes to disk
goes through a :class:`FileStorage` object.  Production code uses the
default instance; the fault-injection harness
(:mod:`repro.testing.faultfs`) substitutes a shim that can flip bytes,
truncate reads, fail the Nth write with ``ENOSPC``/``EIO``, or simulate a
process kill between the tmp-file write and the rename.

Crash consistency contract (what the rest of the system relies on):

* :meth:`FileStorage.write_atomic` never exposes a partially written
  file at the destination path.  Data is written to ``<path>.tmp`` in
  fixed-size chunks, flushed and fsync'd, and then renamed over the
  destination.  A crash or IO error at any point leaves the destination
  either absent or holding its previous complete contents.
* :meth:`FileStorage.lock` provides an advisory exclusive lock (via
  ``flock``) so concurrent sessions accumulating into one database
  serialize their read-modify-write of the index.

All primitive operations (``_open_write``, ``_write``, ``_fsync``,
``_rename``) are separate methods precisely so the fault shim can
override them one at a time.
"""

from __future__ import annotations

import contextlib
import os

try:  # POSIX advisory locking; degraded to a no-op where unavailable.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None

#: Atomic writes are chunked so mid-write faults (``ENOSPC`` on the Nth
#: write, power loss) leave a *partial* tmp file, as on real hardware.
WRITE_CHUNK_BYTES = 1024

#: Suffix of the not-yet-renamed half of an atomic write.  A leftover
#: ``.tmp`` file is the signature of an interrupted write-back; ``fsck``
#: reports them and recovery ignores them.
TMP_SUFFIX = ".tmp"


class StorageError(OSError):
    """A storage operation failed (base for injected IO faults too)."""


class FileStorage:
    """Direct filesystem access with atomic write-replace semantics."""

    # -- reads ---------------------------------------------------------------

    def read_bytes(self, path: str) -> bytes:
        with open(path, "rb") as handle:
            return handle.read()

    # -- atomic writes -------------------------------------------------------

    def write_atomic(self, path: str, data: bytes) -> None:
        """Write ``data`` to ``path`` so it appears all-or-nothing.

        The destination is replaced only by the final rename; any failure
        before that leaves the previous file intact (and possibly a
        partial ``<path>.tmp`` for post-mortem inspection — never cleaned
        up here, exactly like a real crash).
        """
        tmp_path = path + TMP_SUFFIX
        handle = self._open_write(tmp_path)
        try:
            for start in range(0, len(data), WRITE_CHUNK_BYTES):
                self._write(handle, data[start : start + WRITE_CHUNK_BYTES])
            if not data:
                self._write(handle, b"")
            handle.flush()
            self._fsync(handle)
        finally:
            handle.close()
        self._rename(tmp_path, path)

    # Primitive operations, individually overridable by the fault shim.

    def _open_write(self, path: str):
        return open(path, "wb")

    def _write(self, handle, chunk: bytes) -> None:
        handle.write(chunk)

    def _fsync(self, handle) -> None:
        try:
            os.fsync(handle.fileno())
        except (OSError, ValueError):  # pragma: no cover - exotic fs
            pass

    def _rename(self, src: str, dst: str) -> None:
        os.replace(src, dst)

    # -- namespace operations ------------------------------------------------

    def exists(self, path: str) -> bool:
        return os.path.exists(path)

    def remove(self, path: str) -> None:
        os.remove(path)

    def rename(self, src: str, dst: str) -> None:
        os.replace(src, dst)

    def listdir(self, path: str):
        return sorted(os.listdir(path))

    def makedirs(self, path: str) -> None:
        os.makedirs(path, exist_ok=True)

    def move_aside(self, src: str, dst: str) -> None:
        """Move ``src`` (if present) to ``dst``, or to the first free
        ``dst.N`` — quarantine never overwrites earlier evidence."""
        self.makedirs(os.path.dirname(dst))
        destination = dst
        serial = 0
        while self.exists(destination):
            serial += 1
            destination = "%s.%d" % (dst, serial)
        if self.exists(src):
            self.rename(src, destination)

    def file_size(self, path: str) -> int:
        return os.path.getsize(path)

    def stat_signature(self, path):
        """A cheap change-detection token for ``path``, or None if absent.

        Two calls returning the same token mean the file was not replaced
        in between (atomic write-replace always changes it); the shared
        body store uses this to revalidate its in-memory shard cache
        without re-reading and re-CRCing the file on every lookup.
        """
        try:
            status = os.stat(path)
        except OSError:
            return None
        return (status.st_mtime_ns, status.st_size)

    # -- locking -------------------------------------------------------------

    @contextlib.contextmanager
    def lock(self, path: str):
        """Hold an exclusive advisory lock on ``path`` (created empty)."""
        handle = open(path, "a+b")
        try:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            yield
        finally:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
            handle.close()


#: Shared default used when callers do not inject their own storage.
DEFAULT_STORAGE = FileStorage()
