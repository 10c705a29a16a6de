"""The shared sectioned-CRC frame codec and golden bytes of every format.

``tests/golden/`` holds one file per cache format, written from the
fixed content below by the hand-rolled serializers that preceded
:mod:`repro.persist.frame`.  Today's writers must reproduce those bytes
exactly (so no format version moves), and today's readers must parse
them back to the same values.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.persist import cachefile
from repro.persist.cachefile import (
    FEATURE_RELOCATABLE,
    CacheFileError,
    PersistedExit,
    PersistedReloc,
    PersistedTrace,
    PersistentCache,
)
from repro.persist.cacheserver import (
    DaemonProtocolError,
    pack_frame,
    parse_frame,
)
from repro.persist.frame import (
    PREAMBLE,
    FrameError,
    pack_body_rows,
    pack_sectioned,
    unpack_body_rows,
    unpack_sectioned,
    verify,
)
from repro.persist.keys import MappingKey
from repro.persist.sharedstore import SharedStoreError, pack_shard, parse_shard
from repro.persist.sidecar import CompiledBodyStore, SidecarError
from repro.replay.log import ReplayLog, ReplayLogError

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
GOLDEN_VM = "golden-vm-1"
GOLDEN_HOST = "golden-host|marshal4"

#: sha256 of each golden file, recorded when the fixtures were written.
GOLDEN_SHA256 = {
    "pcc2.cache":
        "24a1e3e8a5c03bad1a521d19f69061d0a68232ce0c0d8c00e116f35df8ef1241",
    "pcs1.pcs":
        "b85514737cabba2486d570914a2fd88fb61c47ccd39e84d771e5860ecf7f082b",
    "pcss1.pcs":
        "b84ecd20d99006845729ed3cc76fd9c0d311485da8e891b75fdb8119216e92cb",
    "pcrl1.pcrl":
        "ec08a222c33caa27cb3cb801ce7e98dfdc5d375332ddb81ae60347a097081221",
    "pcsd1.frame":
        "8bb4c2d32f821c7b9e988695dc4bc2827cebc1d5da2b76489d61a9c5454ca8ae",
}


# -- fixed content ------------------------------------------------------------


def golden_cache() -> PersistentCache:
    cache = PersistentCache(
        vm_version=GOLDEN_VM, tool_identity="golden-tool",
        app_path="/bin/golden", generation=3,
        feature_flags=FEATURE_RELOCATABLE,
    )
    cache.image_keys = {
        "/bin/golden": MappingKey("/bin/golden", 0x400000, 0x2000,
                                  "ab" * 8, 17),
        "/lib/libgolden.so": MappingKey("/lib/libgolden.so", 0x7F0000,
                                        0x1000, "cd" * 8, 18),
    }
    traces = [
        PersistedTrace(
            entry=0x400100, image_path="/bin/golden", image_offset=0x100,
            n_insts=3, code=bytes(range(24)),
            exits=[PersistedExit(0, 2, 0x400200, "/bin/golden", 0x200),
                   PersistedExit(2, 2, None)],
            relocs=[PersistedReloc(1, "/lib/libgolden.so", 0x40)],
            liveness=[1, 3, 7],
        ),
        PersistedTrace(
            entry=0x7F0040, image_path="/lib/libgolden.so",
            image_offset=0x40, n_insts=2, code=b"\xee" * 16,
            exits=[PersistedExit(1, 1, 0x7F0080, "/lib/libgolden.so",
                                 0x80)],
        ),
    ]
    for trace in traces:
        trace.data_size = len(trace.build_data_blob())
    cache.traces = traces
    return cache


def golden_sidecar() -> CompiledBodyStore:
    return CompiledBodyStore(
        vm_version=GOLDEN_VM, host_tag=GOLDEN_HOST,
        entries={"00aa" * 8: b"first-body", "ff01" * 8: b"\x00second\xff"},
    )


def golden_shard_entries() -> dict:
    # One pre-cost two-tuple: it packs (and parses back) with cost 0.
    return {
        "ab01" * 8: (b"body-one", 1700000000, 250),
        "ab02" * 8: (b"body-two!", 1700000005),
    }


def golden_log() -> ReplayLog:
    return ReplayLog(
        meta={"workload": "dice", "input": "short", "pid": 4242,
              "layout_seed": 7},
        events=[["v", 6, 99], ["s", 2], ["t", "yield", 2], ["n", 3]],
        baseline={"exit_status": 0, "output_b64": "aGk=",
                  "stats": {"cycles": 12.5}},
    )


GOLDEN_FRAME_META = {"vm": GOLDEN_VM, "host": GOLDEN_HOST,
                     "touch": ["cd03" * 8]}


WRITERS = {
    "pcc2.cache": lambda: golden_cache().to_bytes(),
    "pcs1.pcs": lambda: golden_sidecar().to_bytes(),
    "pcss1.pcs": lambda: pack_shard(GOLDEN_VM, GOLDEN_HOST,
                                    golden_shard_entries()),
    "pcrl1.pcrl": lambda: golden_log().to_bytes(),
    "pcsd1.frame": lambda: pack_frame("publish", GOLDEN_FRAME_META,
                                      golden_shard_entries()),
}


def golden(name: str) -> bytes:
    with open(os.path.join(GOLDEN_DIR, name), "rb") as handle:
        return handle.read()


# -- golden bytes -------------------------------------------------------------


class TestGoldenBytes:
    @pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
    def test_fixture_digest_is_pinned(self, name):
        assert hashlib.sha256(golden(name)).hexdigest() == GOLDEN_SHA256[name]

    @pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
    def test_writer_reproduces_the_fixture(self, name):
        blob = WRITERS[name]()
        assert hashlib.sha256(blob).hexdigest() == GOLDEN_SHA256[name]
        assert blob == golden(name)

    def test_pcc2_parses_to_equal_values(self):
        cachefile._PARSE_MEMO.clear()
        parsed = PersistentCache.from_bytes(golden("pcc2.cache"))
        expected = golden_cache()
        assert (parsed.vm_version, parsed.tool_identity, parsed.app_path,
                parsed.generation, parsed.feature_flags) == (
            expected.vm_version, expected.tool_identity, expected.app_path,
            expected.generation, expected.feature_flags)
        assert parsed.image_keys == expected.image_keys
        assert parsed.traces == expected.traces

    def test_pcs1_parses_to_equal_values(self):
        parsed = CompiledBodyStore.from_bytes(golden("pcs1.pcs"))
        expected = golden_sidecar()
        assert (parsed.vm_version, parsed.host_tag) == (GOLDEN_VM, GOLDEN_HOST)
        assert parsed.entries == expected.entries

    def test_pcss1_parses_to_equal_values(self):
        vm_version, host_tag, entries = parse_shard(golden("pcss1.pcs"))
        assert (vm_version, host_tag) == (GOLDEN_VM, GOLDEN_HOST)
        assert entries == {
            "ab01" * 8: (b"body-one", 1700000000, 250),
            "ab02" * 8: (b"body-two!", 1700000005, 0),
        }

    def test_pcrl1_parses_to_equal_values(self):
        parsed = ReplayLog.from_bytes(golden("pcrl1.pcrl"))
        expected = golden_log()
        assert parsed.meta == expected.meta
        assert parsed.events == expected.events
        assert parsed.baseline == expected.baseline

    def test_pcsd1_parses_to_equal_values(self):
        op, meta, entries = parse_frame(golden("pcsd1.frame"))
        assert (op, meta) == ("publish", GOLDEN_FRAME_META)
        assert entries == {
            "ab01" * 8: (b"body-one", 1700000000, 250),
            "ab02" * 8: (b"body-two!", 1700000005, 0),
        }


# -- the codec ----------------------------------------------------------------


MAGIC = b"TEST"
NAMES = ("alpha", "beta")


def sample(flags: int = 0) -> bytes:
    return pack_sectioned(MAGIC, 3, flags, {"note": "x"}, [
        ("alpha", b"A" * 10), ("beta", bytearray(b"B" * 6)),
    ])


def parse(blob: bytes, supported_flags: int = 0):
    return unpack_sectioned(blob, MAGIC, 3, NAMES, FrameError, supported_flags)


def spans(blob: bytes) -> dict:
    """Byte ranges of the header and each section of a sample frame."""
    header_len = PREAMBLE.unpack_from(blob, 0)[3]
    start = PREAMBLE.size + header_len
    table = json.loads(blob[PREAMBLE.size:start])["sections"]
    result = {"header": (PREAMBLE.size, start)}
    for name in NAMES:
        result[name] = (start, start + table[name][0])
        start += table[name][0]
    return result


def flipped(blob: bytes, offset: int) -> bytes:
    damaged = bytearray(blob)
    damaged[offset] ^= 0xFF
    return bytes(damaged)


class TestCodec:
    def test_round_trip(self):
        flags, header, payloads = parse(sample())
        assert flags == 0 and header["note"] == "x"
        assert header["sections"]["alpha"][0] == 10
        assert payloads == {"alpha": b"A" * 10, "beta": b"B" * 6}

    def test_attribution_order(self):
        """Preamble fields, then the header, then each section in file
        order, then the trailer: one flip, one named section."""
        blob = sample()
        expected = {0: "preamble", 4: "header", 6: "header",
                    len(blob) - 1: "trailer"}
        for section, (start, end) in spans(blob).items():
            expected[start] = expected[end - 1] = section
        for offset, section in expected.items():
            with pytest.raises(FrameError) as excinfo:
                parse(flipped(blob, offset))
            assert excinfo.value.section == section, offset

    def test_section_checks_run_before_the_whole_file_crc(self):
        # A damaged section also breaks the whole-file CRC; the section
        # must still be the one named.
        blob = sample()
        start, _end = spans(blob)["beta"]
        assert verify(parse, flipped(blob, start)) == {
            "beta": "beta checksum mismatch"
        }

    def test_truncation_and_trailing_garbage(self):
        blob = sample()
        with pytest.raises(FrameError) as excinfo:
            parse(blob[:PREAMBLE.size + 3])
        assert excinfo.value.section == "preamble"
        with pytest.raises(FrameError) as excinfo:
            parse(blob[:-5])
        assert excinfo.value.section == "beta"
        with pytest.raises(FrameError) as excinfo:
            parse(blob[:-4] + b"junk" + blob[-4:])
        assert excinfo.value.section == "trailer"

    def test_unknown_flags_are_rejected(self):
        assert parse(sample(flags=0x1), supported_flags=0x1)[0] == 0x1
        with pytest.raises(FrameError) as excinfo:
            parse(sample(flags=0x2), supported_flags=0x1)
        assert excinfo.value.section == "header"
        assert "0x0002" in str(excinfo.value)
        # Formats without flags reject any bit in the field.
        with pytest.raises(FrameError):
            parse(sample(flags=0x1))

    def test_error_class_is_the_callers(self):
        with pytest.raises(SidecarError):
            unpack_sectioned(b"", MAGIC, 3, NAMES, SidecarError)

    def test_format_errors_share_the_frame_base(self):
        for error_cls in (CacheFileError, SidecarError, SharedStoreError,
                          ReplayLogError, DaemonProtocolError):
            assert issubclass(error_cls, FrameError)

    def test_verify_maps_healthy_and_damaged(self):
        assert verify(parse, sample()) == {}
        assert set(verify(parse, sample()[:3])) == {"preamble"}


class TestLegacyPcc1:
    def test_legacy_magic_is_an_unsupported_version(self):
        blob = cachefile.LEGACY_MAGIC + golden("pcc2.cache")[4:]
        with pytest.raises(CacheFileError) as excinfo:
            PersistentCache.from_bytes(blob)
        assert excinfo.value.section == "header"
        assert "unsupported format version 1" in str(excinfo.value)

    def test_short_legacy_blob_is_a_preamble_error(self):
        with pytest.raises(CacheFileError) as excinfo:
            PersistentCache.from_bytes(cachefile.LEGACY_MAGIC + b"\0" * 4)
        assert excinfo.value.section == "preamble"


class TestBodyRows:
    def test_round_trip_fills_missing_cost(self):
        rows, pool = pack_body_rows({"b": (b"yy", 5), "a": (b"x", 4, 9)})
        assert rows == [["a", 0, 1, 4, 9], ["b", 1, 2, 5, 0]]
        assert unpack_body_rows(rows, bytes(pool), "directory") == {
            "a": (b"x", 4, 9), "b": (b"yy", 5, 0),
        }

    def test_short_rows_read_as_zero(self):
        assert unpack_body_rows([["a", 0, 1, 4]], b"x", "directory") == {
            "a": (b"x", 4, 0),
        }
        assert unpack_body_rows([["b", 1, 2]], b"xyy", "directory",
                                widths=(3,)) == {"b": (b"yy", 0, 0)}

    def test_row_width_is_the_formats(self):
        # Shards and daemon frames never carry unstamped rows; the
        # sidecar's directory never carries stamped ones.
        with pytest.raises(FrameError):
            unpack_body_rows([["b", 1, 2]], b"xyy", "directory")
        with pytest.raises(FrameError):
            unpack_body_rows([["a", 0, 1, 4, 0]], b"x", "directory",
                             widths=(3,))

    @pytest.mark.parametrize("row", [
        ["a", 0, 9, 1, 0],          # past the pool
        ["a", -1, 1, 1, 0],         # negative offset
        [7, 0, 1, 1, 0],            # digest not a string
        ["a", 0],                   # too few fields
        ["a", 0, 1, 1, 0, 0],       # too many fields
        ["a", "0", 1, 1, 0],        # wrong type
    ])
    def test_bad_rows_name_the_section(self, row):
        with pytest.raises(FrameError) as excinfo:
            unpack_body_rows([row], b"xyz", "records", DaemonProtocolError)
        assert isinstance(excinfo.value, DaemonProtocolError)
        assert excinfo.value.section == "records"
