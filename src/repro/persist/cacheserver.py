"""The per-host cache-server daemon: one warm pool for a session fleet.

The shared body store (:mod:`repro.persist.sharedstore`) already gives
every database on a host one content-addressed pool — but through the
filesystem: every reader pays a ``stat`` (and, on change, a full
CRC-verified re-parse) per lookup, and every writer serializes on
per-shard ``flock``\\ s.  That is fine for a handful of sessions and
exactly the contention ShareJIT's centralized cache manager removes for
fleets.  This module promotes the store to a **long-lived per-host
daemon**: one process memory-maps the whole pool once and serves body
lookups and publishes to hundreds of concurrent sessions over a unix
socket (localhost TCP where unix sockets are unavailable).

Design:

* **hot-shard index** — the daemon loads every shard of the current
  keytag into memory at startup and keeps it current through its own
  publishes; warm readers are served straight from the dict, skipping
  stat+CRC revalidation entirely.
* **request batching** — one frame carries a whole publish batch or a
  whole shard's worth of lookup results, so a session's chatter with
  the daemon is O(shards touched), not O(bodies).
* **cost-aware eviction** — with a byte cap, the daemon ranks victims
  by ``(cost_us, stamp)``: the bodies cheapest to recompile and coldest
  go first (the ``cost_us`` admission field PCSS1 records per body).
* **write-back** — the flock store stays the source of truth.  A
  flusher thread periodically publishes dirty bodies to the shard files
  through :meth:`SharedBodyStore.publish` (lock → merge → atomic
  rename), so daemonless readers, ``cache gc`` and ``cache fsck`` keep
  working unchanged, and a daemon crash loses at most the unflushed
  tail — never a byte of an existing shard.
* **silent fallback** — the client (:mod:`repro.persist.daemon`) treats
  every transport failure as "no daemon": it degrades to the flock
  store mid-session without surfacing an error.

Wire protocol (PCSD1) — length-prefixed, CRC-framed, symmetric for
requests and responses::

    offset  size  field
    0       4     magic "PCSD"
    4       2     u16 protocol_version (1)
    6       2     u16 reserved (must be 0)
    8       4     u32 payload_len
    12      4     u32 CRC-32 of the payload
    16      n     payload

    payload:
    0       4     u32 header_len
    4       h     header JSON: {"op": str, "meta": {...},
                                "records": [[digest, offset, size,
                                             stamp, cost_us], ...]}
    4+h     p     body pool (concatenated blobs the records index)

Directory records are the PCSS1 body rows, packed and parsed by the same
codec (:func:`repro.persist.frame.pack_body_rows`): four-element records
(written before compile costs were tracked) parse with cost 0.  A reader
rejects a frame on any magic/version/reserved/CRC/bounds mismatch — one
detectable failure per flipped byte — and the connection is torn down
rather than resynchronized (the client falls back to the flock store).

Requests carry the client's ``vm``/``host`` stamps in ``meta``; the
daemon serves exactly one ``(vm_version, host_tag)`` pool and answers a
mismatch with an ``error`` frame (``key-mismatch``), which the client
treats as "no daemon" — the file path then addresses its own keytag.

Ops: ``ping`` → ``pong`` (health + stats), ``lookup`` (by ``digests``
list or whole shard ``prefix``) → ``bodies``, ``publish`` (records +
``touch`` list) → ``published`` (PublishResult counts), ``flush`` →
``flushed``, ``stats`` → ``stats``, ``shutdown`` → ``bye``.  Unknown
ops answer ``error``/``unsupported-op`` so a newer client degrades
cleanly against an older daemon.
"""

from __future__ import annotations

import json
import os
import socket
import struct
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.persist.frame import (
    PREAMBLE,
    FrameError,
    crc32,
    load_json,
    pack_body_rows,
    unpack_body_rows,
)
from repro.persist.sharedstore import SharedBodyStore
from repro.persist.storage import FileStorage

FRAME_MAGIC = b"PCSD"
PROTOCOL_VERSION = 1

#: Same preamble shape as PCSS1/PCS1/PCC2: magic, version, reserved,
#: then (payload length, payload CRC) instead of the file formats'
#: (header length, header CRC) — a frame is one self-contained payload.
FRAME_PREAMBLE = PREAMBLE

#: Upper bound on one frame's payload: far above any real publish batch
#: (whole warm pools are a few MiB) but small enough that a garbage
#: length field cannot make the reader allocate gigabytes.
MAX_PAYLOAD_BYTES = 64 * 1024 * 1024

#: Default daemon socket filename, inside the store directory itself so
#: ``daemon://DIR`` needs only one path for both the socket and the
#: flock-store fallback.
SOCKET_NAME = "daemon.sock"

#: How often the flusher thread writes dirty bodies back to the shards.
DEFAULT_FLUSH_INTERVAL_S = 2.0


class DaemonProtocolError(FrameError):
    """Raised when a PCSD frame is malformed; ``section`` is
    ``"preamble"``, ``"payload"``, ``"header"`` or ``"records"``."""


# -- frame serialization ------------------------------------------------------


def pack_frame(
    op: str,
    meta: Optional[Dict[str, object]] = None,
    entries: Optional[Dict[str, tuple]] = None,
) -> bytes:
    """Serialize one message: op + meta + ``{digest: (blob, stamp[,
    cost_us])}`` → framed bytes.  Two-tuple values pack with cost 0,
    mirroring :func:`repro.persist.sharedstore.pack_shard`."""
    records, pool = pack_body_rows(entries or {})
    header = {"op": op, "meta": meta or {}, "records": records}
    header_blob = json.dumps(header, sort_keys=True).encode()
    payload = b"".join(
        [struct.pack("<I", len(header_blob)), header_blob, pool]
    )
    return (
        FRAME_PREAMBLE.pack(
            FRAME_MAGIC, PROTOCOL_VERSION, 0, len(payload), crc32(payload)
        )
        + payload
    )


def _check_preamble(blob: bytes) -> Tuple[int, int]:
    """Validate a frame preamble; returns ``(payload_len, payload_crc)``.

    Runs before the payload length is trusted, so a garbage stream can
    neither pass as a frame nor make a reader wait on (or allocate) a
    fictitious multi-megabyte body.
    """
    magic, version, reserved, payload_len, payload_crc = (
        FRAME_PREAMBLE.unpack_from(blob, 0)
    )
    if magic != FRAME_MAGIC:
        raise DaemonProtocolError("bad magic", section="preamble")
    if version != PROTOCOL_VERSION:
        raise DaemonProtocolError(
            "unsupported protocol version %r" % version, section="preamble"
        )
    if reserved != 0:
        raise DaemonProtocolError("bad reserved field", section="preamble")
    if payload_len > MAX_PAYLOAD_BYTES:
        raise DaemonProtocolError("oversized payload", section="preamble")
    return payload_len, payload_crc


def parse_frame(blob: bytes):
    """Verify and split a frame into ``(op, meta, entries)``.

    ``entries`` maps digest → ``(blob, stamp, cost_us)``; four-element
    records (the pre-cost PCSS1 shape) parse with cost 0.  Raises
    :class:`DaemonProtocolError` naming the damaged section on any
    magic, version, CRC, framing or type mismatch.
    """
    if len(blob) < FRAME_PREAMBLE.size:
        raise DaemonProtocolError(
            "frame too short for preamble", section="preamble"
        )
    payload_len, payload_crc = _check_preamble(blob)
    if len(blob) != FRAME_PREAMBLE.size + payload_len:
        raise DaemonProtocolError("truncated frame", section="payload")
    payload = blob[FRAME_PREAMBLE.size:]
    if crc32(payload) != payload_crc:
        raise DaemonProtocolError("payload checksum mismatch",
                                  section="payload")
    if len(payload) < 4:
        raise DaemonProtocolError("payload too short", section="payload")
    (header_len,) = struct.unpack_from("<I", payload, 0)
    if 4 + header_len > len(payload):
        raise DaemonProtocolError("truncated header", section="header")
    header = load_json(payload[4 : 4 + header_len], "header", dict,
                       DaemonProtocolError)
    op = header.get("op")
    meta = header.get("meta", {})
    records = header.get("records", [])
    if not isinstance(op, str) or not isinstance(meta, dict) or not (
        isinstance(records, list)
    ):
        raise DaemonProtocolError("malformed header fields",
                                  section="header")
    entries = unpack_body_rows(records, payload[4 + header_len:], "records",
                               DaemonProtocolError)
    return op, meta, entries


def read_frame(sock: socket.socket) -> Optional[bytes]:
    """Read one complete frame off ``sock``; None on clean EOF.

    The preamble is validated before the payload is read.  A connection
    that dies mid-frame raises :class:`DaemonProtocolError` — the stream
    cannot be resynchronized.
    """
    preamble = _recv_exact(sock, FRAME_PREAMBLE.size, allow_eof=True)
    if preamble is None:
        return None
    payload_len, _payload_crc = _check_preamble(preamble)
    return preamble + _recv_exact(sock, payload_len)


def _recv_exact(sock, size, allow_eof=False):
    chunks = []
    remaining = size
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 16))
        if not chunk:
            if allow_eof and remaining == size:
                return None
            raise DaemonProtocolError("connection closed mid-frame",
                                      section="payload")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks) if chunks or not allow_eof else b""


def write_frame(sock: socket.socket, frame: bytes) -> None:
    sock.sendall(frame)


# -- addressing ---------------------------------------------------------------


def default_socket_path(store_dir: str) -> str:
    """Where a store's daemon listens by convention: inside the store."""
    return os.path.join(store_dir, SOCKET_NAME)


def resolve_address(spec: str):
    """Parse an address spec into ``("unix", path)`` or
    ``("tcp", (host, port))``.

    ``tcp://HOST:PORT`` selects TCP explicitly; any other spec is a
    unix-socket path.  On platforms without ``AF_UNIX`` a path spec
    raises — callers there must use the TCP form.
    """
    if spec.startswith("tcp://"):
        rest = spec[len("tcp://"):]
        host, _, port = rest.rpartition(":")
        try:
            return "tcp", (host or "127.0.0.1", int(port))
        except ValueError as exc:
            raise DaemonProtocolError(
                "bad tcp address %r" % spec, section="preamble"
            ) from exc
    if not hasattr(socket, "AF_UNIX"):  # pragma: no cover - non-unix host
        raise DaemonProtocolError(
            "unix sockets unavailable; use tcp://HOST:PORT",
            section="preamble",
        )
    return "unix", spec


def connect(spec: str, timeout_s: float) -> socket.socket:
    """Open a connected client socket to ``spec`` (caller closes)."""
    kind, address = resolve_address(spec)
    if kind == "tcp":
        return socket.create_connection(address, timeout=timeout_s)
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(timeout_s)
    try:
        sock.connect(address)
    except OSError:
        sock.close()
        raise
    return sock


# -- the daemon ---------------------------------------------------------------


@dataclass
class ServerStats:
    """Lifetime counters of one daemon, for ``ping``/``stats``."""

    connections: int = 0
    requests: int = 0
    lookups: int = 0
    hits: int = 0
    misses: int = 0
    publishes: int = 0
    published: int = 0
    refreshed: int = 0
    evicted: int = 0
    admission_skipped: int = 0
    flushes: int = 0
    flushed_bodies: int = 0
    flush_errors: int = 0
    bad_frames: int = 0

    def to_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


class CacheServer:
    """One per-host daemon serving a shared body store to a fleet.

    Thread model: an accept thread hands each connection to its own
    handler thread; every hot-index mutation happens under one lock
    (the index is a dict — contention is nanoseconds, not flocks).  A
    flusher thread writes dirty bodies back to the shard files every
    ``flush_interval_s``; the final flush happens at :meth:`stop`.

    The daemon process is itself just a client of the flock protocol:
    concurrent direct publishers, ``cache gc`` and ``cache fsck`` stay
    correct, and killing the daemon -9 at any instant can only lose the
    unflushed tail of recent publishes — never corrupt a shard.
    """

    def __init__(
        self,
        directory: str,
        vm_version: str,
        address: Optional[str] = None,
        max_bytes: Optional[int] = None,
        flush_interval_s: float = DEFAULT_FLUSH_INTERVAL_S,
        storage: Optional[FileStorage] = None,
        publish_min_cost_us: Optional[int] = None,
        clock=time.time,
    ):
        self.directory = directory
        self.store = SharedBodyStore(
            directory,
            vm_version=vm_version,
            storage=storage,
            publish_min_cost_us=publish_min_cost_us,
            clock=clock,
        )
        self.vm_version = vm_version
        self.host_tag = self.store.host_tag
        self.address = address or default_socket_path(directory)
        #: Memory cap on hot-index body bytes; eviction ranks by
        #: (cost_us, stamp): cheapest to recompile and coldest first.
        self.max_bytes = max_bytes
        self.flush_interval_s = flush_interval_s
        self.clock = clock
        self.stats = ServerStats()
        #: digest → (blob, stamp, cost_us): the hot-shard index.
        self._hot: Dict[str, Tuple[bytes, int, int]] = {}
        self._hot_bytes = 0
        #: Digests published over the socket but not yet written back.
        self._dirty: Dict[str, bytes] = {}
        self._dirty_costs: Dict[str, int] = {}
        #: Already-flushed digests whose stamps need a disk refresh.
        self._touched: set = set()
        self._lock = threading.RLock()
        self._shutdown = threading.Event()
        self._listener: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []
        self.load_hot_index()

    # -- hot index -----------------------------------------------------------

    def load_hot_index(self) -> int:
        """(Re)load every current-keytag shard into memory; entry count."""
        with self._lock:
            self._hot.clear()
            self._hot_bytes = 0
            for digest, record in self.store.iter_entries():
                self._hot[digest] = record
                self._hot_bytes += len(record[0])
            return len(self._hot)

    def hot_entries(self) -> Dict[str, Tuple[bytes, int, int]]:
        """Snapshot of the hot index (tests and introspection)."""
        with self._lock:
            return dict(self._hot)

    def dirty_count(self) -> int:
        with self._lock:
            return len(self._dirty)

    def _evict_for_cap(self) -> int:
        """Evict hot bodies until the cap fits (caller holds the lock).

        Ranking is ``(cost_us, stamp, digest)`` ascending: of two cold
        bodies the cheaper recompile goes first, and a cheap body goes
        before an expensive one even when more recently used — the
        CacheManager policy the ``cost_us`` field exists for.  An
        evicted body that was never flushed is dropped from the
        write-back set too: it reads as cleanly absent everywhere.
        """
        if self.max_bytes is None or self._hot_bytes <= self.max_bytes:
            return 0
        ranked = sorted(
            (record[2], record[1], digest)
            for digest, record in self._hot.items()
        )
        evicted = 0
        for _cost, _stamp, digest in ranked:
            if self._hot_bytes <= self.max_bytes:
                break
            record = self._hot.pop(digest)
            self._hot_bytes -= len(record[0])
            self._dirty.pop(digest, None)
            self._dirty_costs.pop(digest, None)
            self._touched.discard(digest)
            evicted += 1
        return evicted

    # -- request handling ----------------------------------------------------

    def handle_frame(self, raw: bytes) -> bytes:
        """One request frame in, one response frame out (socketless).

        This is the daemon's whole state machine; the socket layer only
        moves bytes.  Tests drive it directly.
        """
        try:
            op, meta, entries = parse_frame(raw)
        except DaemonProtocolError as exc:
            self.stats.bad_frames += 1
            return pack_frame("error", {"reason": "bad-frame: %s" % exc})
        self.stats.requests += 1
        if op == "ping" or op == "stats":
            reply_meta = {
                "pid": os.getpid(),
                "vm": self.vm_version,
                "host": self.host_tag,
                "directory": self.directory,
                "entries": len(self._hot),
                "hot_bytes": self._hot_bytes,
                "dirty": len(self._dirty),
                "stats": self.stats.to_dict(),
            }
            if not self._key_matches(meta):
                return pack_frame(
                    "error", {"reason": "key-mismatch", "vm": self.vm_version,
                              "host": self.host_tag}
                )
            return pack_frame("pong" if op == "ping" else "stats", reply_meta)
        if not self._key_matches(meta):
            return pack_frame(
                "error", {"reason": "key-mismatch", "vm": self.vm_version,
                          "host": self.host_tag}
            )
        if op == "lookup":
            return self._handle_lookup(meta)
        if op == "publish":
            return self._handle_publish(meta, entries)
        if op == "flush":
            result = self.flush()
            return pack_frame("flushed", {
                "ok": result is not None,
                "published": result.published if result else 0,
                "refreshed": result.refreshed if result else 0,
            })
        if op == "shutdown":
            self._shutdown.set()
            return pack_frame("bye", {"pid": os.getpid()})
        return pack_frame("error", {"reason": "unsupported-op: %s" % op})

    def _key_matches(self, meta: Dict[str, object]) -> bool:
        """One daemon serves one (vm_version, host_tag) pool; a client
        keyed differently must fall back to its own file pool."""
        return (
            meta.get("vm", self.vm_version) == self.vm_version
            and meta.get("host", self.host_tag) == self.host_tag
        )

    def _handle_lookup(self, meta: Dict[str, object]) -> bytes:
        prefix = meta.get("prefix")
        digests = meta.get("digests")
        found: Dict[str, Tuple[bytes, int, int]] = {}
        with self._lock:
            if isinstance(prefix, str):
                self.stats.lookups += 1
                for digest, record in self._hot.items():
                    if digest.startswith(prefix):
                        found[digest] = record
                if found:
                    self.stats.hits += 1
                else:
                    self.stats.misses += 1
            for digest in digests if isinstance(digests, list) else ():
                self.stats.lookups += 1
                record = self._hot.get(digest)
                if record is None:
                    # Heal from disk once: a body published directly to
                    # the files (mixed fleet) is adopted into the hot
                    # index on first miss instead of recompiling forever.
                    blob = self.store.lookup(digest)
                    if blob is not None:
                        record = (blob, int(self.clock()), 0)
                        self._hot[digest] = record
                        self._hot_bytes += len(blob)
                if record is not None:
                    found[digest] = record
                    self.stats.hits += 1
                else:
                    self.stats.misses += 1
        return pack_frame("bodies", {"count": len(found)}, found)

    def _handle_publish(self, meta, entries) -> bytes:
        touch = meta.get("touch")
        touch = touch if isinstance(touch, list) else []
        now = int(self.clock())
        floor = self.store.publish_min_cost_us
        published = refreshed = skipped = 0
        with self._lock:
            self.stats.publishes += 1
            for digest in sorted(entries):
                blob, _stamp, cost_us = entries[digest]
                # Same admission rule — and the same check order — as
                # the flock store: a body cheaper to recompute than to
                # store is skipped before presence is even considered,
                # so daemon and file publish counts match field for
                # field.
                if floor > 0 and cost_us < floor:
                    skipped += 1
                    continue
                existing = self._hot.get(digest)
                if existing is None:
                    self._hot[digest] = (blob, now, cost_us)
                    self._hot_bytes += len(blob)
                    self._dirty[digest] = blob
                    if cost_us:
                        self._dirty_costs[digest] = cost_us
                    published += 1
                elif existing[1] != now:
                    self._hot[digest] = (existing[0], now, existing[2])
                    self._touched.add(digest)
                    refreshed += 1
            for digest in touch:
                existing = self._hot.get(
                    digest if isinstance(digest, str) else ""
                )
                if existing is None:
                    continue  # touch of an absent digest: no-op
                if existing[1] != now:
                    self._hot[digest] = (existing[0], now, existing[2])
                    refreshed += 1
                self._touched.add(digest)
            evicted = self._evict_for_cap()
        self.stats.published += published
        self.stats.refreshed += refreshed
        self.stats.evicted += evicted
        self.stats.admission_skipped += skipped
        return pack_frame("published", {
            "published": published,
            "refreshed": refreshed,
            "evicted": evicted,
            "admission_skipped": skipped,
        })

    # -- write-back ----------------------------------------------------------

    def flush(self):
        """Write dirty bodies and stamp refreshes back to the shards.

        Returns the store's PublishResult, or None when a storage
        failure deferred the write-back (the dirty set is kept and the
        next flush retries — the daemon keeps serving from memory
        either way).
        """
        with self._lock:
            if not self._dirty and not self._touched:
                return _EMPTY_PUBLISH
            dirty = dict(self._dirty)
            costs = dict(self._dirty_costs)
            touched = set(self._touched)
        try:
            result = self.store.publish(dirty, touch=touched, costs=costs)
        except OSError:
            self.stats.flush_errors += 1
            return None
        with self._lock:
            for digest in dirty:
                if self._dirty.get(digest) is dirty[digest]:
                    self._dirty.pop(digest, None)
                    self._dirty_costs.pop(digest, None)
            self._touched -= touched
        self.stats.flushes += 1
        self.stats.flushed_bodies += result.published
        return result

    def _flusher(self) -> None:
        while not self._shutdown.wait(self.flush_interval_s):
            self.flush()

    # -- socket serving ------------------------------------------------------

    def start(self) -> str:
        """Bind, listen and serve on background threads; the address."""
        self._listener = self._bind()
        self._listener.listen(128)
        self._listener.settimeout(0.2)
        acceptor = threading.Thread(
            target=self._accept_loop, name="pcsd-accept", daemon=True
        )
        flusher = threading.Thread(
            target=self._flusher, name="pcsd-flush", daemon=True
        )
        self._threads = [acceptor, flusher]
        acceptor.start()
        flusher.start()
        return self.address

    def serve_forever(self) -> None:
        """Foreground entry point (the CLI): start, block, clean stop."""
        self.start()
        try:
            while not self._shutdown.wait(0.2):
                pass
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def stop(self) -> None:
        """Flush and tear the daemon down (idempotent)."""
        self._shutdown.set()
        for thread in self._threads:
            if thread is not threading.current_thread():
                thread.join(timeout=5)
        self._threads = []
        if self._listener is not None:
            try:
                self._listener.close()
            finally:
                self._listener = None
            kind, address = resolve_address(self.address)
            if kind == "unix":
                try:
                    os.unlink(address)
                except OSError:
                    pass
        self.flush()

    def _bind(self) -> socket.socket:
        kind, address = resolve_address(self.address)
        if kind == "tcp":
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind(address)
            # Port 0 means "pick one": rewrite the address so clients
            # (and the CLI banner) see the real endpoint.
            host, port = sock.getsockname()[:2]
            self.address = "tcp://%s:%d" % (host, port)
            return sock
        self.store.storage.makedirs(os.path.dirname(address) or ".")
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.bind(address)
        except OSError:
            # A leftover socket file from a dead daemon blocks bind.
            # Distinguish live from stale by connecting: refused means
            # stale (unlink and claim), accepted means already served.
            try:
                probe = connect(self.address, timeout_s=0.5)
            except OSError:
                os.unlink(address)
                sock.bind(address)
                return sock
            probe.close()
            sock.close()
            raise OSError(
                "a daemon is already serving %s" % self.address
            )
        return sock

    def _accept_loop(self) -> None:
        while not self._shutdown.is_set():
            try:
                conn, _peer = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            self.stats.connections += 1
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,),
                name="pcsd-conn", daemon=True,
            )
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        """Frames in, frames out, until EOF, damage or shutdown.

        A malformed stream gets a best-effort ``error`` frame and the
        connection is closed — resynchronizing a CRC-framed stream is
        not possible, and the client's fallback path is cheap.
        """
        conn.settimeout(30.0)
        try:
            while not self._shutdown.is_set():
                try:
                    raw = read_frame(conn)
                except DaemonProtocolError as exc:
                    self.stats.bad_frames += 1
                    try:
                        write_frame(conn, pack_frame(
                            "error", {"reason": "bad-frame: %s" % exc}
                        ))
                    except OSError:
                        pass
                    return
                except (socket.timeout, OSError):
                    return
                if raw is None:
                    return
                reply = self.handle_frame(raw)
                try:
                    write_frame(conn, reply)
                except OSError:
                    return
        finally:
            try:
                conn.close()
            except OSError:
                pass


#: ``flush()`` with nothing to do still reports success: distinguish
#: "no work" from "storage failed" without overloading None.
@dataclass
class _EmptyPublish:
    published: int = 0
    refreshed: int = 0
    evicted: int = 0
    shards_written: int = 0
    admission_skipped: int = 0


_EMPTY_PUBLISH = _EmptyPublish()
