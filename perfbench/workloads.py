"""The launch workloads, the forked launch itself and its references.

Each workload names a set of programs (a generated executable plus one
input), how they are primed in set-up, which persistent-cache state one
launch gets, and which steady-state invariants every launch must meet.
All launches map images with ``FixedLayout``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from forkrun import ChildResult, check_child, in_child
from hostspeed import probe
from spans import SpanRecorder, install_memory_counter

from repro.loader.layout import FixedLayout
from repro.persist.database import CacheDatabase
from repro.persist.manager import PersistenceConfig
from repro.persist.sharedstore import SharedBodyStore
from repro.vm.engine import VM_VERSION
from repro.workloads import harness
from repro.workloads.gui import build_gui_suite
from repro.workloads.spec2k import build_suite

#: Upper bound on one launch; a child still running is SIGKILLed and
#: the launch counts as failed.
LAUNCH_TIMEOUT_S = 60.0

#: Priming launches allowed per program before gui_warm gives up on
#: reaching zero translations and zero host compiles.
MAX_PRIMING_LAUNCHES = 4


class SteadyStateError(RuntimeError):
    """A launch broke an invariant its workload relies on."""


@dataclass
class Program:
    """One generated executable with the input a launch passes it."""

    name: str
    workload: harness.Workload
    input_name: str


@dataclass
class LaunchOutcome:
    """What a forked launch reports back to the parent."""

    program: str
    seconds: float
    instructions: int
    output_digest: str
    exit_status: int
    stats: object
    report: Dict[str, object]
    spans: List[list] = field(default_factory=list)
    memory: Optional[Dict[str, int]] = None
    #: Host-speed probe around the call (see hostspeed).
    probe_s: float = 0.0


def reset_memos() -> None:
    """Empty the in-process memos a fresh ``repro run`` process starts without."""
    from repro.isa import encoding
    from repro.persist import cachefile
    from repro.vm import compile as vm_compile
    from repro.vm import translator

    vm_compile._FACTORIES.clear()
    cachefile._PARSE_MEMO.clear()
    encoding._DECODE_MEMO.clear()
    encoding._BODY_MEMO.clear()
    translator._EXIT_STUB_MEMO.clear()


def run_launch(
    program: Program,
    make_config: Callable[[], PersistenceConfig],
    trace: bool = False,
    count_memory: bool = False,
    launch_id: int = 0,
) -> LaunchOutcome:
    """Body of one forked launch: time the public ``run_vm`` call."""
    reset_memos()
    config = make_config()
    layout = FixedLayout()
    # Instrument only after set-up, so every span lies inside run_vm.
    recorder = None
    if trace:
        recorder = SpanRecorder(launch_id)
        recorder.install()
    memory = install_memory_counter() if count_memory else None
    before = probe()
    start = time.perf_counter()
    result = harness.run_vm(
        program.workload, program.input_name,
        persistence=config, layout=layout,
    )
    seconds = time.perf_counter() - start
    after = probe()
    return LaunchOutcome(
        program=program.name,
        seconds=seconds,
        instructions=result.instructions,
        output_digest=hashlib.sha256(result.output).hexdigest(),
        exit_status=result.exit_status,
        stats=result.stats,
        report=result.persistence_report,
        spans=recorder.spans if recorder is not None else [],
        memory=dict(memory) if memory is not None else None,
        probe_s=(before + after) / 2,
    )


def launch(program, make_config, **kwargs) -> ChildResult:
    return in_child(
        lambda: run_launch(program, make_config, **kwargs),
        timeout_s=LAUNCH_TIMEOUT_S,
    )


def dir_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(root, name))
            except FileNotFoundError:
                pass
    return total


# -- native references --------------------------------------------------------


def reference_key(program: Program) -> str:
    """Digest of everything a native run depends on."""
    wl = program.workload
    hasher = hashlib.sha256()
    hasher.update(wl.image.to_bytes())
    for path in sorted(wl.store._images):
        hasher.update(wl.store._images[path].to_bytes())
    for module in wl.modules:
        hasher.update(module.to_bytes())
    hasher.update(repr(wl.input(program.input_name).to_args()).encode())
    hasher.update(b"FixedLayout")
    return hasher.hexdigest()


def native_references(programs: List[Program], cache_dir: str) -> Dict[str, tuple]:
    """``(output digest, exit status, instructions)`` per program.

    Computed by ``run_native`` in one forked child and cached on disk by
    :func:`reference_key`, so the slow native runs happen once per
    checkout.  A reference never comes from the VM.
    """
    os.makedirs(cache_dir, exist_ok=True)
    refs: Dict[str, tuple] = {}
    missing = []
    for program in programs:
        key = reference_key(program)
        path = os.path.join(cache_dir, key + ".json")
        try:
            with open(path) as handle:
                refs[program.name] = tuple(json.load(handle))
        except (FileNotFoundError, ValueError):
            missing.append((program, path))
    if missing:

        def compute():
            out = []
            for program, _path in missing:
                result = harness.run_native(
                    program.workload, program.input_name, layout=FixedLayout()
                )
                out.append((
                    hashlib.sha256(result.output).hexdigest(),
                    result.exit_status,
                    result.instructions,
                ))
            return out

        values = check_child(in_child(compute, timeout_s=600.0), "native run")
        for (program, path), value in zip(missing, values):
            refs[program.name] = value
            tmp = path + ".tmp"
            with open(tmp, "w") as handle:
                json.dump(list(value), handle)
            os.replace(tmp, path)
    return refs


# -- workloads ----------------------------------------------------------------


def _gui_programs() -> List[Program]:
    apps, _store = build_gui_suite()
    return [Program(name, app, "startup") for name, app in sorted(apps.items())]


class LaunchWorkload:
    """Base: no priming, one private database per launch."""

    name = ""
    #: Nominal raw seconds of one round on the reference host; sets how
    #: many rounds ``--seconds`` buys.
    round_s: float
    #: Untraced rounds a run makes at least.  Every workload gets more
    #: than ten launches, so the tail percentile has ten beyond it; the
    #: fsync-bound ones get more, because a round's median moves about
    #: 6-15% with the host's disk.
    min_rounds: int

    def __init__(self, root: str):
        self.root = root
        self.programs: List[Program] = []
        #: ``(wall seconds, probe seconds)`` of every set-up step.
        self.setup_steps: List[tuple] = []

    def prime_launch(self, program, make_config) -> LaunchOutcome:
        """One forked priming launch, timed from the parent."""
        start = time.perf_counter()
        child = launch(program, make_config)
        wall = time.perf_counter() - start
        outcome = check_child(child, "priming %s" % program.name)
        self.setup_steps.append((wall, outcome.probe_s))
        return outcome

    def generate(self) -> None:
        raise NotImplementedError

    def prime(self) -> None:
        """Priming launches (forked) that bring the state to steady."""

    def launch_dir(self, launch_id: int) -> Optional[str]:
        """A directory for one launch's private state, or None."""
        return None

    def make_config(self, program: Program, launch_dir: Optional[str]):
        raise NotImplementedError

    def check(self, program: Program, outcome: LaunchOutcome) -> None:
        """Raise SteadyStateError when ``outcome`` is not steady."""

    def state_bytes(self) -> int:
        """Bytes of shared on-disk state one round reads or writes."""
        return 0


class GuiCold(LaunchWorkload):
    """First launch on a new host: every trace translated and
    host-compiled, then written back and published."""

    name = "gui_cold"
    round_s = 7.0
    min_rounds = 8

    def __init__(self, root):
        super().__init__(root)
        self._used_dirs = set()

    def generate(self):
        self.programs = _gui_programs()

    def launch_dir(self, launch_id):
        path = os.path.join(self.root, "launch-%d" % launch_id)
        if path in self._used_dirs or os.path.exists(path):
            raise SteadyStateError("gui_cold launch dir reused: %s" % path)
        self._used_dirs.add(path)
        return path

    def make_config(self, program, launch_dir):
        def config():
            store = SharedBodyStore(
                os.path.join(launch_dir, "store"), vm_version=VM_VERSION
            )
            db = CacheDatabase(
                os.path.join(launch_dir, "db"), shared_store=store
            )
            return PersistenceConfig(database=db)

        return config

    def check(self, program, outcome):
        report = outcome.report
        if report["cache_found"] or outcome.stats.traces_from_persistent:
            raise SteadyStateError("gui_cold %s found a cache" % program.name)
        if report["shared_hits"] or report["sidecar_hits"]:
            raise SteadyStateError(
                "gui_cold %s revived compiled bodies" % program.name
            )


class GuiWarm(LaunchWorkload):
    """Same-input warm start (paper Fig. 5a): every trace and compiled body
    revived from the app's own database."""

    name = "gui_warm"
    round_s = 1.0
    min_rounds = 4

    def generate(self):
        self.programs = _gui_programs()

    def _db_dir(self, program):
        return os.path.join(self.root, "db-" + program.name)

    def prime(self):
        for program in self.programs:
            make = self.make_config(program, None)
            for _ in range(MAX_PRIMING_LAUNCHES):
                outcome = self.prime_launch(program, make)
                if self._steady(outcome):
                    break
            else:
                raise SteadyStateError(
                    "gui_warm %s still translates or compiles after %d"
                    " priming launches" % (program.name, MAX_PRIMING_LAUNCHES)
                )

    def make_config(self, program, launch_dir):
        path = self._db_dir(program)
        return lambda: PersistenceConfig(database=CacheDatabase(path))

    @staticmethod
    def _steady(outcome):
        return (
            outcome.stats.traces_translated == 0
            and outcome.report["sidecar_host_compiles"] == 0
        )

    def check(self, program, outcome):
        if not self._steady(outcome):
            raise SteadyStateError(
                "gui_warm %s translated %d traces, %d host compiles"
                % (program.name, outcome.stats.traces_translated,
                   outcome.report["sidecar_host_compiles"])
            )

    def state_bytes(self):
        return sum(dir_bytes(self._db_dir(p)) for p in self.programs)


class SpecCross(LaunchWorkload):
    """Cross-input reuse (paper Fig. 6): reference inputs read-only against
    a database primed with train; execution-bound."""

    name = "spec_cross"
    round_s = 8.0
    min_rounds = 1

    def __init__(self, root):
        super().__init__(root)
        self._compiles: Dict[str, int] = {}

    def generate(self):
        suite = build_suite()
        self.programs = [
            Program("%s/%s" % (bench, inp), wl, inp)
            for bench, wl in sorted(suite.items())
            for inp in sorted(wl.inputs)
            if inp != "train"
        ]

    def _db_dir(self, program):
        return os.path.join(self.root, "db-" + program.workload.name)

    def prime(self):
        done = set()
        for program in self.programs:
            bench = program.workload.name
            if bench in done:
                continue
            done.add(bench)
            train = Program(bench + "/train", program.workload, "train")
            path = self._db_dir(program)
            outcome = self.prime_launch(
                train,
                lambda: PersistenceConfig(database=CacheDatabase(path)),
            )
            if not outcome.report["written"]:
                raise SteadyStateError("spec_cross %s not written" % bench)

    def make_config(self, program, launch_dir):
        path = self._db_dir(program)
        return lambda: PersistenceConfig(
            database=CacheDatabase(path), readonly=True
        )

    def check(self, program, outcome):
        compiles = outcome.report["sidecar_host_compiles"]
        first = self._compiles.setdefault(program.name, compiles)
        if compiles != first:
            raise SteadyStateError(
                "spec_cross %s host compiles moved %d -> %d"
                % (program.name, first, compiles)
            )
        if not outcome.report["cache_found"]:
            raise SteadyStateError("spec_cross %s found no cache" % program.name)

    def state_bytes(self):
        benches = {p.workload.name: p for p in self.programs}
        return sum(dir_bytes(self._db_dir(p)) for p in benches.values())


class GuiShared(LaunchWorkload):
    """Cross-database reuse through the per-host body pool: a fresh private
    database per launch, every body from the flock store."""

    name = "gui_shared"
    round_s = 2.5
    min_rounds = 8

    def __init__(self, root):
        super().__init__(root)
        self.store_dir = os.path.join(root, "store")
        self.body_counts: Dict[str, int] = {}
        self._stamp = int(time.time())

    def _store(self):
        """A store handle whose LRU clock reads one second past the last.

        The pool refreshes a body's stamp only when the second changed
        since its last touch.  Launches here follow each other within a
        fraction of a second, so with the wall clock the number of shard
        rewrites would depend on launch timing; launches seconds apart,
        as on a real host, refresh every body they revive.
        """
        self._stamp += 1
        stamp = self._stamp
        return SharedBodyStore(
            self.store_dir, vm_version=VM_VERSION, clock=lambda: stamp
        )

    def generate(self):
        self.programs = _gui_programs()

    def prime(self):
        for program in self.programs:
            donor = os.path.join(self.root, "donor-" + program.name)

            def config(donor=donor, store=self._store()):
                return PersistenceConfig(
                    database=CacheDatabase(donor, shared_store=store)
                )

            outcome = self.prime_launch(program, config)
            self.body_counts[program.name] = (
                outcome.report["sidecar_host_compiles"]
                + outcome.report["shared_hits"]
            )

    def launch_dir(self, launch_id):
        return os.path.join(self.root, "launch-%d" % launch_id)

    def make_config(self, program, launch_dir):
        store = self._store()
        return lambda: PersistenceConfig(
            database=CacheDatabase(
                os.path.join(launch_dir, "db"), shared_store=store
            )
        )

    def check(self, program, outcome):
        report = outcome.report
        want = self.body_counts[program.name]
        if (
            report["sidecar_host_compiles"]
            or report["shared_hits"] != want
            or report["shared_touch_refreshes"] != want
        ):
            raise SteadyStateError(
                "gui_shared %s: %d host compiles, %d shared hits, %d stamp"
                " refreshes (want 0, %d, %d)"
                % (program.name, report["sidecar_host_compiles"],
                   report["shared_hits"], report["shared_touch_refreshes"],
                   want, want)
            )

    def state_bytes(self):
        return dir_bytes(self.store_dir)


WORKLOADS = {cls.name: cls for cls in (GuiCold, GuiWarm, SpecCross, GuiShared)}
