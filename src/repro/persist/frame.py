"""The sectioned-CRC frame every persistent cache file format uses.

PCC2 cache files, PCS1 sidecars, PCSS1 shards and PCRL1 replay logs
share one layout (all integers little-endian; ``docs/cache-format.md``)::

    offset  size  field
    0       4     magic
    4       2     u16 format_version
    6       2     u16 feature flags (0 where a format defines none)
    8       4     u32 header_len
    12      4     u32 CRC-32 of the header JSON
    16      n     header JSON: format keys + "sections": {name: [size, crc]}
    16+n    ...   the sections' payloads, in the format's order
    end-4   4     u32 CRC-32 of bytes [0, end-4)   (whole-file check)

Section checks run before the whole-file check, so a single flipped
byte is attributed to the section holding it (:attr:`FrameError.section`)
rather than to an anonymous whole-file mismatch.

The content-keyed body pool of PCSS1 shards and PCSD1 wire frames is
indexed by one row shape, ``[digest, offset, size, stamp, cost_us]``
(:func:`pack_body_rows` / :func:`unpack_body_rows`).
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Dict, Sequence, Tuple

#: Fixed-size binary preamble: magic, version, feature flags, header
#: length, header CRC.
PREAMBLE = struct.Struct("<4sHHII")
TRAILER = struct.Struct("<I")


class FrameError(Exception):
    """A malformed frame.

    ``section`` names where the damage was detected: one of the format's
    section names, ``"preamble"`` or ``"trailer"`` (framing damage), or
    ``""`` when no section can be attributed.
    """

    def __init__(self, message: str, section: str = ""):
        super().__init__(message)
        self.section = section


def crc32(blob) -> int:
    return zlib.crc32(blob) & 0xFFFFFFFF


def pack_sectioned(magic: bytes, version: int, flags: int, header: dict,
                   sections: Sequence[Tuple[str, bytes]]) -> bytes:
    """Frame ``sections`` (``(name, payload)`` in file order) behind a
    header carrying ``header``'s keys plus the section table."""
    table = {name: [len(data), crc32(data)] for name, data in sections}
    header_blob = json.dumps(dict(header, sections=table),
                             sort_keys=True).encode()
    parts = [
        PREAMBLE.pack(magic, version, flags & 0xFFFF, len(header_blob),
                      crc32(header_blob)),
        header_blob,
    ]
    parts.extend(payload for _, payload in sections)
    running = 0
    for part in parts:
        running = zlib.crc32(part, running)
    parts.append(TRAILER.pack(running & 0xFFFFFFFF))
    return b"".join(parts)


def unpack_sectioned(blob: bytes, magic: bytes, version: int,
                     names: Sequence[str], error_cls=FrameError,
                     supported_flags: int = 0):
    """Verify ``blob`` and split it into ``(flags, header, payloads)``.

    ``payloads`` maps each of ``names`` to its bytes.  Any damage raises
    ``error_cls`` naming the section that holds it; checks run preamble,
    magic, version, flags, header, section table, each section in order,
    trailing garbage, then the whole-file CRC.
    """
    if len(blob) < PREAMBLE.size + TRAILER.size:
        raise error_cls("file too short for preamble", "preamble")
    found, found_version, flags, header_len, header_crc = (
        PREAMBLE.unpack_from(blob, 0)
    )
    if found != magic:
        raise error_cls("bad magic", "preamble")
    if found_version != version:
        raise error_cls("unsupported format version %r" % found_version,
                        "header")
    if flags & ~supported_flags:
        raise error_cls("unsupported feature flags 0x%04x"
                        % (flags & ~supported_flags), "header")
    offset = PREAMBLE.size + header_len
    if offset + TRAILER.size > len(blob):
        raise error_cls("truncated header", "header")
    header_blob = blob[PREAMBLE.size:offset]
    if crc32(header_blob) != header_crc:
        raise error_cls("header checksum mismatch", "header")
    header = load_json(header_blob, "header", dict, error_cls)
    table = header.get("sections")
    if not isinstance(table, dict):
        raise error_cls("missing section table", "header")
    payloads: Dict[str, bytes] = {}
    for name in names:
        try:
            size, crc = table[name]
            size = int(size)
        except (KeyError, TypeError, ValueError) as exc:
            raise error_cls("bad section table entry for %s" % name,
                            "header") from exc
        if size < 0 or offset + size + TRAILER.size > len(blob):
            raise error_cls("truncated %s section" % name, name)
        payload = blob[offset:offset + size]
        if crc32(payload) != crc:
            raise error_cls("%s checksum mismatch" % name, name)
        payloads[name] = payload
        offset += size
    if offset != len(blob) - TRAILER.size:
        raise error_cls("trailing garbage after %s"
                        % names[-1].replace("_", " "), "trailer")
    (file_crc,) = TRAILER.unpack_from(blob, offset)
    if crc32(memoryview(blob)[:offset]) != file_crc:
        raise error_cls("whole-file checksum mismatch", "trailer")
    return flags, header, payloads


def load_json(blob: bytes, section: str, kind, error_cls=FrameError):
    """Decode one JSON section, which must hold a ``kind`` value."""
    try:
        value = json.loads(blob)
    except ValueError as exc:
        raise error_cls("bad %s JSON" % section, section) from exc
    if not isinstance(value, kind):
        raise error_cls("bad %s JSON" % section, section)
    return value


def verify(parse, blob: bytes) -> Dict[str, str]:
    """Best-effort damage map of ``parse(blob)`` for fsck: empty when
    healthy, otherwise ``{section: reason}``."""
    try:
        parse(blob)
    except FrameError as exc:
        return {exc.section or "preamble": str(exc)}
    return {}


# -- body-pool rows -----------------------------------------------------------


def pack_body_rows(entries: Dict[str, tuple]):
    """``{digest: (blob, stamp[, cost_us])}`` → ``(rows, pool)``, rows in
    digest order.  Two-tuple values pack with cost 0: an unmeasured body
    is treated as free to recompute."""
    pool = bytearray()
    rows = []
    for digest in sorted(entries):
        record = entries[digest]
        blob, stamp = record[0], record[1]
        cost_us = int(record[2]) if len(record) > 2 else 0
        rows.append([digest, len(pool), len(blob), int(stamp), cost_us])
        pool += blob
    return rows, pool


def unpack_body_rows(rows, pool: bytes, section: str, error_cls=FrameError,
                     widths=(4, 5)) -> Dict[str, Tuple[bytes, int, int]]:
    """Rows + pool → ``{digest: (blob, stamp, cost_us)}``.

    ``widths`` are the row lengths the format allows.  Four-field rows
    (written before compile costs were tracked) read as cost 0;
    three-field rows (the sidecar's unstamped directory) as stamp 0 too.
    """
    entries: Dict[str, Tuple[bytes, int, int]] = {}
    try:
        for row in rows:
            if len(row) not in widths:
                raise ValueError("row of %d fields" % len(row))
            digest, offset, size, stamp, cost_us = (*row, 0, 0)[:5]
            if (
                not isinstance(digest, str)
                or offset < 0
                or size < 0
                or offset + size > len(pool)
            ):
                raise error_cls("record out of bounds in %s" % section,
                                section)
            entries[digest] = (
                pool[offset:offset + size], int(stamp), int(cost_us)
            )
    except (TypeError, ValueError) as exc:
        raise error_cls("malformed %s: %s" % (section, exc), section) from exc
    return entries
