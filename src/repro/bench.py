"""Wall-clock benchmark harness for the dispatch tiers.

Times *host* wall-clock seconds — not simulated cycles — for the same
workload families the cycle-level benchmarks regenerate from the paper.
Every family is one :class:`Family` record in :data:`FAMILIES`: its
name, the two timed modes (baseline first), the untimed setup that
builds its :class:`Sweep`, its table title and columns, its ``--check``
gate with a one-line verdict, and the extra per-corpus lines its table
carries.  :func:`run_wallclock` measures the selected records,
:func:`render` prints them, and ``repro bench`` (``repro.cli``) is a
loop over the two plus each measured record's gate, so adding a family
touches this module only.  Each setup function's docstring describes
its family's configuration and what its extras report.

Every family with a per-workload runner also reports per-mode
time-to-first-output (``<mode>_ttfo_s``, minimum over probe
repetitions) and the contender/baseline ratio (``ttfo_ratio_x``).  The
probe times one run of one workload (the first, unless the family names
another) through the family's own runner, so it reuses the databases
and stores the sweep's setup built.  Programs that never write fall
back to time-to-exit.

Methodology: each family is timed as a full sweep (every workload in
the family, sequentially) under each mode.  Sweeps run ``warmup``
untimed repetitions first — standard JIT-benchmark practice, here
amortizing the host ``compile()`` of trace closures, which the factory
memo (:mod:`repro.vm.compile`) shares across runs exactly like the
paper's persistent code cache shares translations across executions —
then ``reps`` timed repetitions, interleaved across the two modes.  The
headline score is the trimmed mean (the highest rep dropped, since
timing noise only inflates); per-mode minima and the max-over-min
spread are reported alongside so a surprising headline can be
sanity-checked against run-to-run noise without rerunning.  Before
timing, one run per mode is compared field-for-field (output, exit
status, every :class:`VMStats` counter) so a reported speedup can never
come from divergent behavior.

The result dictionary is also written as ``BENCH_wallclock.json`` at
the repository root by :func:`run_wallclock` when ``out_path`` is given
(the CLI and the benchmark suite both do).  A selective run (``--family
X``) merges into the existing file instead of clobbering it: families
measured this invocation are refreshed, families measured by earlier
invocations are preserved, and the recorded fig5a ``gate`` block is
recomputed over the merged set — so a quick single-family rerun never
erases the rest of the recorded trajectory.  ``--check`` gates only the
families measured in the invocation; merged rows are printed, never
gated.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import shutil
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import format_table
from repro.persist.database import CacheDatabase
from repro.persist.manager import PersistenceConfig
from repro.vm.compile import clear_code_object_cache
from repro.vm.engine import VMConfig
from repro.workloads.harness import FirstOutputTimer, run_vm
from repro.workloads.gui import build_gui_suite
from repro.workloads.oracle import PHASES, build_oracle
from repro.workloads.spec2k import build_suite

#: The acceptance gate: compiled dispatch must beat interpreted dispatch
#: by at least this factor (wall-clock) on the fig5a GUI workload.
GATE_WORKLOAD = "fig5a_gui"
GATE_THRESHOLD_X = 1.5

_MODES = ("interpreted", "compiled")

#: One workload run of a sweep: ``(name, workload, input_name)``.
Item = Tuple[str, object, str]


@dataclass
class Sweep:
    """One family's timed unit of work, built by its untimed setup.

    ``run(mode, item, output_timer=None)`` runs one workload; calling
    the sweep runs every item in order and hands the results to
    ``post(mode, results)`` (per-mode counters for the extras).  With
    ``cold`` set the in-process factory memo is cleared before every
    sweep and every TTFO probe, so each pays the first-run-of-a-process
    host ``compile()`` cost.  The TTFO probe times one run of ``probe``
    (default: the first item).  ``batch`` replaces the per-item loop
    for a family that cannot run item by item (the forked fleet); such
    a family has no probe.  ``extras()`` is called once after timing
    and its keys join the family dict.
    """

    run: Optional[Callable[..., object]] = None
    items: Sequence[Item] = ()
    cold: bool = False
    post: Optional[Callable[[str, list], None]] = None
    extras: Optional[Callable[[], Dict[str, object]]] = None
    probe: Optional[Item] = None
    batch: Optional[Callable[[str], list]] = None

    def __call__(self, mode: str) -> list:
        if self.batch is not None:
            return self.batch(mode)
        if self.cold:
            clear_code_object_cache()
        results = [self.run(mode, item) for item in self.items]
        if self.post is not None:
            self.post(mode, results)
        return results

    def ttfo(self, mode: str) -> float:
        """Seconds from dispatch start to the probe's first written
        byte (time-to-exit for a program that never writes)."""
        if self.cold:
            clear_code_object_cache()
        timer = FirstOutputTimer()
        start = time.perf_counter()
        self.run(mode, self.probe or self.items[0], timer)
        stamp = timer.first_output_s
        if stamp is None:
            stamp = time.perf_counter()
        return stamp - start


def _result_signature(result) -> tuple:
    """Everything observable about a run, for cross-tier comparison."""
    return (result.output, result.exit_status, vars(result.stats))


def _sweep_stats(samples: List[float]) -> Dict[str, float]:
    """Headline statistics for one mode's timed repetitions.

    ``min`` stays the headline (least-noise: host noise only ever
    inflates a rep).  The trimmed mean (highest rep dropped, given
    enough reps) and the max-over-min spread are reported alongside so
    a surprising headline is auditable against run-to-run noise.
    """
    ordered = sorted(samples)
    trimmed = ordered[:-1] if len(ordered) >= 3 else ordered
    return {
        "min_s": ordered[0],
        "trimmed_mean_s": sum(trimmed) / len(trimmed),
        "spread_pct": (
            100.0 * (ordered[-1] - ordered[0]) / ordered[0]
            if ordered[0] > 0 else 0.0
        ),
    }


def _measure_family(
    sweep: Callable[[str], list],
    warmup: int,
    reps: int,
    modes: Tuple[str, str] = _MODES,
) -> Dict[str, object]:
    """Time ``sweep`` under two modes; first mode is the baseline."""
    baseline, contender = modes
    signatures = {mode: [_result_signature(r) for r in sweep(mode)]
                  for mode in modes}
    identical = signatures[baseline] == signatures[contender]
    for _ in range(warmup):
        for mode in modes:
            sweep(mode)
    # Reps are interleaved (i, c, i, c, ...) so slow host-frequency /
    # load drift hits both modes equally instead of biasing whichever
    # mode happens to be timed last; the cycle collector is paused during
    # timed reps so its pauses cannot land in one mode's window.
    times: Dict[str, List[float]] = {mode: [] for mode in modes}
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(reps):
            for mode in modes:
                start = time.perf_counter()
                sweep(mode)
                times[mode].append(time.perf_counter() - start)
    finally:
        if gc_was_enabled:
            gc.enable()
    stats = {mode: _sweep_stats(times[mode]) for mode in modes}
    family: Dict[str, object] = {
        "speedup_x": stats[baseline]["min_s"] / stats[contender]["min_s"],
        "speedup_trimmed_x": (
            stats[baseline]["trimmed_mean_s"]
            / stats[contender]["trimmed_mean_s"]
        ),
        "identical_results": identical,
    }
    for mode in modes:
        family["%s_s" % mode] = stats[mode]["min_s"]
        family["%s_trimmed_s" % mode] = stats[mode]["trimmed_mean_s"]
        family["%s_spread_pct" % mode] = stats[mode]["spread_pct"]
        family["reps_%s_s" % mode] = times[mode]
    return family


def _config(mode: str) -> VMConfig:
    return VMConfig(dispatch_mode=mode)


def _compiled(_mode: str) -> VMConfig:
    return VMConfig(dispatch_mode="compiled")


def _sweep(
    items: Sequence[Item],
    config: Callable[[str], VMConfig] = _config,
    persistence: Optional[
        Callable[[str, str], Optional[PersistenceConfig]]
    ] = None,
    **fields,
) -> Sweep:
    """A :class:`Sweep` whose runner is :func:`run_vm` with
    ``config(mode)`` and ``persistence(mode, name)`` (none by default)."""

    def run(mode: str, item: Item, output_timer=None):
        name, workload, input_name = item
        return run_vm(
            workload, input_name,
            persistence=persistence(mode, name) if persistence else None,
            vm_config=config(mode),
            output_timer=output_timer,
        )

    return Sweep(run, items, **fields)


def _gui_apps() -> List[Item]:
    apps, _store = build_gui_suite()
    return [(name, app, "startup") for name, app in sorted(apps.items())]


def _prime(apps: Sequence[Item], scratch_dir: str, prefix: str):
    """Per-app databases, each populated by one cold compiled run
    (untimed setup)."""
    databases = {}
    for name, app, input_name in apps:
        db = CacheDatabase(os.path.join(scratch_dir, prefix + name))
        run_vm(app, input_name, persistence=PersistenceConfig(database=db),
               vm_config=_config("compiled"))
        databases[name] = db
    return databases


def _report_sum(results: list, key: str) -> int:
    return sum(r.persistence_report[key] for r in results)


def _fig5a_gui(scratch_dir: str) -> Sweep:
    """Warm same-input persistent-cache GUI startup (Figure 5(a)).

    The headline configuration for the compiled dispatch tier: warm runs
    revive every trace from the persistent cache and spend their time
    executing, which is exactly what trace-compiled dispatch
    accelerates.
    """
    apps = _gui_apps()
    databases = _prime(apps, scratch_dir, "fig5a-")
    return _sweep(
        apps,
        persistence=lambda mode, name: PersistenceConfig(
            database=databases[name]
        ),
    )


def _fig2b_gui(scratch_dir: str) -> Sweep:
    """Plain GUI startup, no persistence (Figure 2(b))."""
    return _sweep(_gui_apps())


def _headline_spec(scratch_dir: str) -> Sweep:
    """SPEC2K INT Train sweep plus the Oracle phases, no persistence."""
    oracle = build_oracle()
    items = [(name, wl, "train") for name, wl in sorted(build_suite().items())]
    items.extend(("oracle", oracle, phase) for phase in PHASES)
    return _sweep(items)


def _sidecar_cold_warm(scratch_dir: str) -> Sweep:
    """Cold vs. warm host-compile cost of the compiled-body sidecar.

    Both modes run the compiled tier against a warm per-app trace
    database, so no translation happens and the tiers' simulated work is
    identical.  ``cold`` clears the in-process factory memo and disables
    the sidecar before each sweep — every trace pays a fresh host
    ``compile()``, the first-run-of-a-new-process cost.  ``warm`` also
    clears the memo but revives every factory from the on-disk sidecar.
    The wall-clock gap is exactly the host-compile work the sidecar
    removes; the per-mode host-compile counts are reported so CI can
    assert the warm path performs zero host ``compile()`` calls.
    """
    apps = _gui_apps()
    databases = _prime(apps, scratch_dir, "sidecar-")
    host_compiles = {"cold": 0, "warm": 0}

    def post(mode: str, results: list) -> None:
        host_compiles[mode] = _report_sum(results, "sidecar_host_compiles")

    return _sweep(
        apps,
        config=_compiled,
        persistence=lambda mode, name: PersistenceConfig(
            database=databases[name], sidecar=(mode == "warm")
        ),
        cold=True,
        post=post,
        extras=lambda: {
            "host_compiles_cold": host_compiles["cold"],
            "host_compiles_warm": host_compiles["warm"],
        },
    )


def _shared_store(scratch_dir: str) -> Sweep:
    """Cross-database body reuse through the per-host shared store.

    The cross-application configuration the paper's Figure 9/10
    measures, one level up.  Setup (untimed): for each GUI app, a donor
    database attached to one shared store
    (:mod:`repro.persist.sharedstore`) runs the app cold, publishing
    every compiled body.  The timed sweeps then run each app against a
    *consumer* database that never saw any workload (empty, read-only,
    so it stays cold across repetitions): ``isolated`` detaches the
    store and pays every host ``compile()``; ``shared`` revives every
    body the donors published.  The host-compile and shared-hit counts
    per mode are reported so CI can assert the cross-database warm path
    performs zero host ``compile()`` calls.
    """
    from repro.persist.sharedstore import SharedBodyStore
    from repro.vm.engine import VM_VERSION

    apps = _gui_apps()
    shared = SharedBodyStore(
        os.path.join(scratch_dir, "shared-store"), vm_version=VM_VERSION
    )
    consumers = {}
    for name, app, input_name in apps:
        donor = CacheDatabase(
            os.path.join(scratch_dir, "shared-donor-" + name),
            shared_store=shared,
        )
        clear_code_object_cache()
        # Donor cold run: populates its trace cache, its private
        # sidecar, and — the point — the shared per-host pool (untimed).
        run_vm(app, input_name,
               persistence=PersistenceConfig(database=donor),
               vm_config=_config("compiled"))
        consumers[name] = CacheDatabase(
            os.path.join(scratch_dir, "shared-consumer-" + name)
        )
    host_compiles = {"isolated": 0, "shared": 0}
    shared_hits = {"isolated": 0, "shared": 0}

    def post(mode: str, results: list) -> None:
        host_compiles[mode] = _report_sum(results, "sidecar_host_compiles")
        shared_hits[mode] = _report_sum(results, "shared_hits")

    return _sweep(
        apps,
        config=_compiled,
        persistence=lambda mode, name: PersistenceConfig(
            database=consumers[name],
            readonly=True,
            shared_store=(shared if mode == "shared" else None),
        ),
        cold=True,
        post=post,
        extras=lambda: {
            "host_compiles_isolated": host_compiles["isolated"],
            "host_compiles_shared": host_compiles["shared"],
            "shared_hits_shared": shared_hits["shared"],
        },
    )


def _fleet_worker(task: tuple) -> dict:
    """Pool entry point: one fleet member's warm session.

    Runs in a forked child.  The inherited in-memory code-object memo
    is cleared so every revive comes from a store — the child is a
    stand-in for a fresh process attaching to the per-host pool — and
    the shared-store spec string is resolved *here*, giving each member
    its own daemon connection (or its own flock-store fallback).
    """
    _mode, _index, db_dir, store_spec = task
    gc.disable()
    from repro.persist.daemon import resolve_shared_store
    from repro.vm.engine import VM_VERSION

    clear_code_object_cache()
    apps, _store = build_gui_suite()
    name, app = sorted(apps.items())[0]
    result = run_vm(
        app, "startup",
        persistence=PersistenceConfig(
            database=CacheDatabase(db_dir),
            readonly=True,
            shared_store=resolve_shared_store(store_spec, VM_VERSION),
        ),
        vm_config=_config("compiled"),
    )
    report = result.persistence_report
    return {
        "output": result.output,
        "exit_status": result.exit_status,
        "stats": vars(result.stats),
        "host_compiles": report["sidecar_host_compiles"],
        "shared_hits": report["shared_hits"],
        "transport": report["shared_transport"],
    }


def _payload_result(payload: dict):
    """Rehydrate a worker payload into a ``_result_signature``-able
    shape (the signature reads ``output``/``exit_status``/``stats``)."""
    import types

    return types.SimpleNamespace(
        output=payload["output"],
        exit_status=payload["exit_status"],
        stats=types.SimpleNamespace(**payload["stats"]),
    )


def _payload_signature(payload: dict) -> tuple:
    return _result_signature(_payload_result(payload))


def _lookup_latencies(store, digests, passes: int = 3) -> List[float]:
    """Per-lookup wall clock (µs) over ``passes`` sweeps of ``digests``.

    Multiple passes are the point of the comparison: the flock store
    pays a ``stat`` on *every* pass (its revalidation is per-lookup),
    while the daemon client pays one RPC per shard prefix on the first
    pass and serves later passes from its prefix cache — the hot-shard
    index made client-side.
    """
    samples: List[float] = []
    for _ in range(passes):
        for digest in digests:
            start = time.perf_counter_ns()
            store.lookup(digest)
            samples.append((time.perf_counter_ns() - start) / 1000.0)
    return samples


def _percentile(samples: List[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))]


def _fleet_warmup(scratch_dir: str) -> Sweep:
    """A fleet of warm sessions against one per-host pool: daemon vs
    flock transport.

    Setup (untimed): a donor database runs the first GUI app cold,
    publishing every compiled body to a shared store, and an in-process
    :class:`~repro.persist.cacheserver.CacheServer` starts on that
    store.  Each timed sweep then forks ``REPRO_FLEET_SESSIONS``
    (default 8) real processes, each a never-warmed read-only consumer
    database attaching to the pool — over the flock files (``flock``
    mode) or over the daemon socket (``daemon`` mode).  Both modes must
    be bit-identical and compile nothing; the daemon's win is the
    lookup path, reported as p50/p99 per-lookup latency in the extras
    alongside a fallback probe (a ``daemon://`` session against the
    stopped daemon must silently produce the flock result) and a final
    fsck.  The sweep is a forked batch, so the family has no TTFO probe:
    its headline is the fleet wall clock plus the per-lookup latencies,
    and the extras stop the server, so a later probe would only measure
    the fallback path anyway.
    """
    import multiprocessing

    from repro.persist.cacheserver import CacheServer
    from repro.persist.daemon import DaemonBackedStore
    from repro.persist.sharedstore import SharedBodyStore
    from repro.vm.engine import VM_VERSION

    try:
        fleet = max(1, int(os.environ.get("REPRO_FLEET_SESSIONS", "8")))
    except ValueError:
        fleet = 8
    store_dir = os.path.join(scratch_dir, "fleet-store")
    shared = SharedBodyStore(store_dir, vm_version=VM_VERSION)
    apps, _store = build_gui_suite()
    name, app = sorted(apps.items())[0]
    donor = CacheDatabase(
        os.path.join(scratch_dir, "fleet-donor"), shared_store=shared
    )
    clear_code_object_cache()
    run_vm(app, "startup", persistence=PersistenceConfig(database=donor),
           vm_config=_config("compiled"))
    server = CacheServer(store_dir, vm_version=VM_VERSION)
    server.start()
    context = multiprocessing.get_context("fork")
    specs = {"flock": store_dir, "daemon": "daemon://" + store_dir}
    host_compiles = {"flock": 0, "daemon": 0}
    shared_hits = {"flock": 0, "daemon": 0}
    transports: Dict[str, str] = {}
    reference_sig: Dict[str, tuple] = {}

    def sweep(mode: str) -> list:
        tasks = [
            (mode, index,
             os.path.join(scratch_dir, "fleet-%s-%d" % (mode, index)),
             specs[mode])
            for index in range(fleet)
        ]
        pool = context.Pool(processes=fleet)
        try:
            payloads = pool.map(_fleet_worker, tasks)
        finally:
            pool.close()
            pool.join()
        host_compiles[mode] = sum(p["host_compiles"] for p in payloads)
        shared_hits[mode] = sum(p["shared_hits"] for p in payloads)
        transports[mode] = payloads[0]["transport"]
        reference_sig[mode] = _payload_signature(payloads[0])
        return [_payload_result(p) for p in payloads]

    def extras() -> Dict[str, object]:
        digests = [digest for digest, _record in shared.iter_entries()]
        flock_lat = _lookup_latencies(
            SharedBodyStore(store_dir, vm_version=VM_VERSION), digests
        )
        client = DaemonBackedStore(store_dir, VM_VERSION)
        daemon_alive = client.transport == "daemon"
        daemon_lat = _lookup_latencies(client, digests)
        client.close()
        server.stop()
        # Fallback probe: the daemon is gone now, so a ``daemon://``
        # session must silently degrade to the flock files and still
        # produce the exact flock-mode result with zero host compiles.
        fallback = _fleet_worker(
            ("fallback", 0,
             os.path.join(scratch_dir, "fleet-fallback-0"),
             specs["daemon"])
        )
        fallback_ok = (
            fallback["transport"] == "file"
            and fallback["host_compiles"] == 0
            and _payload_signature(fallback) == reference_sig.get("flock")
        )
        fsck_clean = SharedBodyStore(
            store_dir, vm_version=VM_VERSION
        ).fsck().clean
        return {
            "fleet_processes": fleet,
            "fleet_host_compiles_flock": host_compiles["flock"],
            "fleet_host_compiles_daemon": host_compiles["daemon"],
            "fleet_shared_hits_daemon": shared_hits["daemon"],
            "daemon_transport_used": transports.get("daemon", ""),
            "daemon_alive": daemon_alive,
            "flock_lookup_p50_us": _percentile(flock_lat, 0.50),
            "flock_lookup_p99_us": _percentile(flock_lat, 0.99),
            "daemon_lookup_p50_us": _percentile(daemon_lat, 0.50),
            "daemon_lookup_p99_us": _percentile(daemon_lat, 0.99),
            "lookup_samples": len(daemon_lat),
            "fallback_ok": fallback_ok,
            "fsck_clean": fsck_clean,
        }

    return Sweep(batch=sweep, extras=extras)


def _record_overhead(scratch_dir: str) -> Sweep:
    """Recording cost on plain GUI startup (acceptance: under 10%).

    ``plain`` runs with no persistence session at all; ``record``
    attaches a recording session (:mod:`repro.replay`; no database: the
    log is captured in memory, which is all the per-syscall cost there
    is — the baseline snapshot and write-out happen at store/access
    time, outside the 10% criterion).  Results must be identical:
    recording never alters the run it observes.
    """
    return _sweep(
        _gui_apps(),
        config=_compiled,
        persistence=lambda mode, name: (
            PersistenceConfig(record=True) if mode == "record" else None
        ),
    )


def _indirect_heavy(scratch_dir: str) -> Sweep:
    """Indirect-branch-bound corpora, no persistence.

    Each corpus (alternating two-target pair, rotating three-target
    cycle, megamorphic eight-target table) keeps one ``callr`` dispatch
    site hot with a different dynamic target population, so the
    polymorphic IC chain (:mod:`repro.vm.compile`) is exercised at every
    depth — including overflow, where the megamorphic corpus must
    degrade to the dispatcher path rather than thrash.  The compiled
    run's per-corpus IC counters are reported so the chains' engagement
    is auditable (and CI-gateable) rather than inferred from the speedup
    alone.
    """
    from repro.workloads.indirect import build_indirect_suite

    corpora = [(name, wl, "run")
               for name, wl in sorted(build_indirect_suite().items())]
    ic_per_corpus: Dict[str, Dict[str, object]] = {}

    def post(mode: str, results: list) -> None:
        if mode != "compiled":
            return
        for (name, _wl, _input), result in zip(corpora, results):
            ics = result.ic_stats
            ic_per_corpus[name] = {
                "hits": ics.hits,
                "misses": ics.misses,
                "hit_rate": ics.hit_rate,
                "promotions": ics.promotions,
                "depth_hits": list(ics.depth_hits),
            }

    def extras() -> Dict[str, object]:
        return {
            "ic_per_corpus": ic_per_corpus,
            "ic_hits": sum(c["hits"] for c in ic_per_corpus.values()),
            "ic_misses": sum(c["misses"] for c in ic_per_corpus.values()),
        }

    return _sweep(corpora, post=post, extras=extras)


def _trace_linking(scratch_dir: str) -> Sweep:
    """Chain-heavy corpora: linked vs. unlinked compiled dispatch.

    The corpora are jmp relays and a branchy detour loop
    (:mod:`repro.workloads.chains`), no persistence.  Both modes run the
    *compiled* tier: ``nolink`` disables the chain trampoline
    (``trace_linking=False``, the one-closure-call-per-trace baseline),
    ``linked`` enables direct-exit linking plus superblock fusion.  Both
    execute identical simulated work (the trampoline and the fused
    regions are host-side only), so ``identical_results`` compares
    nolink against linked, and ``oracle_identical`` additionally pins
    the linked tier against the interpreted oracle — a linked speedup
    can never come from skipped simulation.  The linked run's per-corpus
    link/region counters are reported so CI can gate on the machinery
    actually engaging (zero bounces, fused regions) rather than on the
    speedup alone.
    """
    from repro.workloads.chains import build_chain_suite

    corpora = [(name, wl, "run")
               for name, wl in sorted(build_chain_suite().items())]
    oracle_sigs = [
        _result_signature(
            run_vm(workload, input_name,
                   vm_config=VMConfig(dispatch_mode="interpreted"))
        )
        for _name, workload, input_name in corpora
    ]
    link_per_corpus: Dict[str, Dict[str, object]] = {}
    oracle_identical = {"value": True}

    def post(mode: str, results: list) -> None:
        if mode != "linked":
            return
        for (name, _wl, _input), oracle_sig, result in zip(
            corpora, oracle_sigs, results
        ):
            link_per_corpus[name] = result.link_stats.to_dict()
            if _result_signature(result) != oracle_sig:
                oracle_identical["value"] = False

    def extras() -> Dict[str, object]:
        return {
            "oracle_identical": oracle_identical["value"],
            "link_per_corpus": link_per_corpus,
            "link_bounces": sum(
                c["link_bounces"] for c in link_per_corpus.values()
            ),
            "regions_fused": sum(
                c["regions_fused"] for c in link_per_corpus.values()
            ),
            "chained_exits": sum(
                c["chained_exits"] for c in link_per_corpus.values()
            ),
        }

    return _sweep(
        corpora,
        config=lambda mode: VMConfig(
            dispatch_mode="compiled", trace_linking=(mode == "linked")
        ),
        post=post,
        extras=extras,
    )


#: Queue depth for the tiered_warmup family: deep enough that the gate
#: corpus's cold burst (~300 traces per app) never overflows into the
#: queue-full synchronous fallback — overflow is correct but puts
#: compiles back on the TTFO path, which is what the family measures.
_WARMUP_QUEUE_DEPTH = 2048

#: ``repro prewarm --jobs`` values the tiered_warmup extras sweep.
_PREWARM_JOBS_SWEEP = (1, 2, 4)

#: Headroom for the core-aware monotonicity check: when extra jobs
#: cannot buy real parallelism (job count above the machine's core
#: count), the sweep only has to stay within this factor of the
#: previous job count's wall clock — wide enough for scheduler and
#: fork overhead on an oversubscribed single-core host, tight enough
#: that pathological cross-process contention (e.g. a store lock
#: livelock) still fails the gate.
_PREWARM_NOISE_X = 1.5


def _tiered_warmup(scratch_dir: str) -> Sweep:
    """Cold startup corpus: synchronous vs. background compilation.

    Each repetition clears the in-process factory memo, so every sweep
    pays the full cold-start cost under both modes.  Total wall clock is
    expected to be roughly equal — background mode still compiles
    everything, just off the critical path (and drains its queue before
    the run returns) — which is exactly why the family's gate reads the
    TTFO probe, not the sweep time.  The interpreted oracle pins the
    background tier's observable behavior; the extras carry the
    ``repro prewarm`` jobs sweep and the warm-run verification.
    """
    from repro.persist.prewarm import run_prewarm, verify_warm
    from repro.workloads.warmup import GATE_APP, warmup_corpus

    apps = warmup_corpus()

    def config(mode: str) -> VMConfig:
        return VMConfig(
            compile_mode=mode, compile_queue_depth=_WARMUP_QUEUE_DEPTH
        )

    # Background vs. the interpreted oracle: a TTFO win can never come
    # from divergent simulation (identical_results already pins
    # background against sync; this pins both against the reference
    # tier).
    gate_app = apps[GATE_APP]
    oracle_sig = _result_signature(
        run_vm(gate_app, "default",
               vm_config=VMConfig(dispatch_mode="interpreted"))
    )
    clear_code_object_cache()
    background_sig = _result_signature(
        run_vm(gate_app, "default", vm_config=config("background"))
    )
    oracle_identical = background_sig == oracle_sig
    clear_code_object_cache()
    probe_result = run_vm(gate_app, "default", vm_config=config("background"))
    queue_stats = probe_result.queue_stats.to_dict()

    def extras() -> Dict[str, object]:
        cpu_count = os.cpu_count() or 1
        sweep_rows: List[Dict[str, object]] = []
        monotonic = True
        previous: Optional[Dict[str, object]] = None
        for jobs in _PREWARM_JOBS_SWEEP:
            db_dir = os.path.join(scratch_dir, "prewarm-j%d" % jobs)
            store_dir = os.path.join(scratch_dir, "prewarm-store-j%d" % jobs)
            shutil.rmtree(db_dir, ignore_errors=True)
            shutil.rmtree(store_dir, ignore_errors=True)
            report = run_prewarm(
                db_dir, jobs=jobs, corpus="warmup",
                shared_store_dir=store_dir,
            )
            row: Dict[str, object] = {
                "jobs": jobs,
                "wall_s": report.wall_s,
                "compiled": report.compiled,
                "admitted": report.admitted,
            }
            if previous is not None:
                # Core-aware monotonicity: more jobs must help when they
                # map to real cores, and must stay within noise headroom
                # when they cannot (single-core hosts, jobs > cores).
                if min(jobs, cpu_count) > min(previous["jobs"], cpu_count):
                    row["monotonic_ok"] = report.wall_s < previous["wall_s"]
                else:
                    row["monotonic_ok"] = (
                        report.wall_s
                        <= previous["wall_s"] * _PREWARM_NOISE_X
                    )
                monotonic = monotonic and row["monotonic_ok"]
            sweep_rows.append(row)
            previous = {"jobs": jobs, "wall_s": report.wall_s}
        warm_host_compiles = verify_warm(
            os.path.join(scratch_dir, "prewarm-j%d" % _PREWARM_JOBS_SWEEP[0]),
            "warmup",
            os.path.join(
                scratch_dir, "prewarm-store-j%d" % _PREWARM_JOBS_SWEEP[0]
            ),
        )
        return {
            "oracle_identical": oracle_identical,
            "cpu_count": cpu_count,
            "queue": queue_stats,
            "prewarm_jobs_sweep": sweep_rows,
            "jobs_monotonic_ok": monotonic,
            "prewarm_warm_host_compiles": warm_host_compiles,
        }

    # The TTFO gate reads the gate app (named, not merely sorted first),
    # cold both sides.
    return _sweep(
        [(name, app, "default") for name, app in sorted(apps.items())],
        config=config,
        cold=True,
        extras=extras,
        probe=(GATE_APP, gate_app, "default"),
    )


def _transparency(scratch_dir: str) -> Sweep:
    """The anti-instrumentation corpus under attack-grade scrutiny.

    The timed sweep is plain interpreted vs. compiled dispatch over the
    whole adversarial suite.  The extras carry the actual transparency
    audit:

    * every workload's full signature (output, exit status, every
      VMStats counter) under compiled, linked, and background-compile
      dispatch against the interpreted oracle;
    * the self-observing workloads (everything but the clock probe)
      byte-compared against the *native* oracle — their outputs fold
      every code byte they read and every self-write they observe, so
      ``stale_reads`` counts runs where the VM let a stale byte
      through;
    * per-churner ``smc_invalidations`` (a churner that triggers zero
      invalidations means the SMC detector never saw its stores);
    * a warm restart of the self-observing corpus over all three
      persistence transports (sidecar, shared flock store, cache-server
      daemon), each warm output compared byte-for-byte against the cold
      run — a revived trace must not resurrect pre-SMC code.

    The clock probe is timed but exempt from the native comparison and
    the warm-restart check by design: its output embeds raw
    ``SYS_CLOCK`` deltas, which legitimately differ native vs. VM (the
    probe *detects* the DBI's cost — transparency here means the deltas
    are bit-identical across all four VM tiers, which the oracle check
    enforces) and cold vs. warm (persisted traces change the cost of a
    run; that is the point of the cache).
    """
    from repro.persist.cacheserver import CacheServer
    from repro.persist.daemon import resolve_shared_store
    from repro.persist.sharedstore import SharedBodyStore
    from repro.vm.engine import VM_VERSION
    from repro.workloads.adversarial import (
        CHURN_WORKLOADS,
        PERSISTED_WORKLOADS,
        build_adversarial_suite,
    )
    from repro.workloads.harness import run_native

    suite = build_adversarial_suite()
    ordered = sorted(suite.items())

    tier_configs = {
        "compiled": VMConfig(dispatch_mode="compiled", trace_linking=False),
        "linked": VMConfig(dispatch_mode="compiled", trace_linking=True),
        "background": VMConfig(
            dispatch_mode="compiled", compile_mode="background",
            compile_queue_depth=512,
        ),
    }

    def extras() -> Dict[str, object]:
        oracle_failures: List[str] = []
        stale_reads = 0
        churn_smc: Dict[str, int] = {}
        for name, wl in ordered:
            native = run_native(wl, "run")
            clear_code_object_cache()
            oracle = run_vm(
                wl, "run", vm_config=VMConfig(dispatch_mode="interpreted")
            )
            oracle_sig = _result_signature(oracle)
            if name != "timer" and (
                (oracle.output, oracle.exit_status)
                != (native.output, native.exit_status)
            ):
                stale_reads += 1
            for tier, config in tier_configs.items():
                clear_code_object_cache()
                result = run_vm(wl, "run", vm_config=config)
                if _result_signature(result) != oracle_sig:
                    oracle_failures.append("%s/%s" % (name, tier))
                elif name != "timer" and (
                    (result.output, result.exit_status)
                    != (native.output, native.exit_status)
                ):
                    stale_reads += 1
            if name in CHURN_WORKLOADS:
                churn_smc[name] = oracle.stats.smc_invalidations

        # Warm restart over all three transports: the adversarial
        # corpus's code observations must survive persistence.
        store_dir = os.path.join(scratch_dir, "transparency-store")
        shared = SharedBodyStore(store_dir, vm_version=VM_VERSION)
        warm_failures: List[str] = []
        warm_preloaded = 0
        server = CacheServer(store_dir, vm_version=VM_VERSION)
        server.start()
        try:
            daemon_store = resolve_shared_store(
                "daemon://" + store_dir, VM_VERSION
            )
            for name in PERSISTED_WORKLOADS:
                wl = suite[name]
                db_dir = os.path.join(scratch_dir, "transparency-" + name)
                donor = CacheDatabase(db_dir, shared_store=shared)
                clear_code_object_cache()
                cold = run_vm(
                    wl, "run",
                    persistence=PersistenceConfig(database=donor,
                                                  sidecar=True),
                    vm_config=_config("compiled"),
                )
                cold_sig = (cold.output, cold.exit_status)
                warm_configs = {
                    "sidecar": PersistenceConfig(
                        database=CacheDatabase(db_dir, shared_store=shared),
                        sidecar=True,
                    ),
                    "shared": PersistenceConfig(
                        database=CacheDatabase(db_dir), readonly=True,
                        shared_store=shared,
                    ),
                    "daemon": PersistenceConfig(
                        database=CacheDatabase(db_dir), readonly=True,
                        shared_store=daemon_store,
                    ),
                }
                for transport, persistence in warm_configs.items():
                    clear_code_object_cache()
                    warm = run_vm(
                        wl, "run", persistence=persistence,
                        vm_config=_config("compiled"),
                    )
                    warm_preloaded += warm.stats.traces_from_persistent
                    if (warm.output, warm.exit_status) != cold_sig:
                        warm_failures.append("%s/%s" % (name, transport))
                        stale_reads += 1
        finally:
            server.stop()

        return {
            "oracle_identical": not oracle_failures,
            "oracle_failures": oracle_failures,
            "stale_reads": stale_reads,
            "churn_smc": churn_smc,
            "smc_ok": all(count > 0 for count in churn_smc.values())
            and set(churn_smc) == set(CHURN_WORKLOADS),
            "warm_identical": not warm_failures,
            "warm_failures": warm_failures,
            "warm_preloaded": warm_preloaded,
        }

    return _sweep(
        [(name, wl, "run") for name, wl in ordered], cold=True, extras=extras
    )


# -- the family table ---------------------------------------------------------

#: A table cell: the family dict → its text.  A ``KeyError`` (a row
#: merged from an older results file) renders ``-``.
Cell = Callable[[Dict[str, object]], str]

#: A ``--check`` gate: ``(family, --check-threshold or None)`` →
#: ``(passed, one-line verdict)``.
Gate = Callable[[Dict[str, object], Optional[float]],
                Tuple[bool, str]]


@dataclass(frozen=True)
class Family:
    """Everything ``repro bench`` knows about one family."""

    name: str
    #: The two timed modes, baseline first.
    modes: Tuple[str, str]
    #: ``scratch_dir`` → the family's :class:`Sweep` (untimed setup).
    setup: Callable[[str], Sweep]
    #: Families sharing a title print as rows of one table.
    title: str
    columns: Tuple[Tuple[str, Cell], ...]
    gate: Optional[Gate] = None
    #: Extra lines printed after the tables (per-corpus counters).
    notes: Optional[Callable[[Dict[str, object]], List[str]]] = None


def _cell(fmt: str, *keys: str) -> Cell:
    return lambda family: fmt % tuple(family[key] for key in keys)


def _seconds(mode: str) -> Tuple[str, Cell]:
    return ("%s_s" % mode, _cell("%.3f", "%s_s" % mode))


def _ttfo(baseline: str, contender: str) -> Tuple[str, Cell]:
    return ("ttfo_s", _cell("%.3f/%.3f", "%s_ttfo_s" % baseline,
                            "%s_ttfo_s" % contender))


_SPEEDUP = ("speedup_x", _cell("%.2f", "speedup_x"))
_IDENTICAL = ("identical", _cell("%s", "identical_results"))
_ORACLE_IDENTICAL = ("identical", lambda f: str(
    f["identical_results"] and f["oracle_identical"]
))

_TIER_COLUMNS = (
    _seconds("interpreted"),
    _seconds("compiled"),
    _SPEEDUP,
    ("spread", _cell("%.0f%%/%.0f%%", "interpreted_spread_pct",
                     "compiled_spread_pct")),
    _ttfo("interpreted", "compiled"),
    _IDENTICAL,
)
_TIER_TITLE = "Wall-clock dispatch benchmark: interpreted vs. compiled"


def _pass(family: Dict[str, object], *conditions: bool) -> bool:
    return bool(family["identical_results"] and all(conditions))


def _gate_fig5a(f, threshold):
    # The gate reads the trimmed mean, not the best rep: a single lucky
    # repetition must not pass (or fail) the acceptance bar.  An
    # explicit --check-threshold overrides it (the CI smoke uses 1.0:
    # merely "not slower", robust to shared-runner noise).
    if threshold is None:
        threshold = GATE_THRESHOLD_X
    trimmed = f.get("speedup_trimmed_x", f["speedup_x"])
    return _pass(f, trimmed >= threshold), (
        "speedup %.2fx trimmed %.2fx (threshold %.1fx) identical=%s"
        % (f["speedup_x"], trimmed, threshold, f["identical_results"])
    )


def _gate_sidecar(f, _threshold):
    return _pass(f, f["host_compiles_warm"] == 0), (
        "host compiles cold=%d warm=%d"
        % (f["host_compiles_cold"], f["host_compiles_warm"])
    )


def _gate_shared_store(f, _threshold):
    # A database that never ran a workload performs zero host compile()s
    # when another database on the host already published the bodies —
    # and the isolated control actually paid them, so zero means
    # something.
    return _pass(
        f,
        f["host_compiles_shared"] == 0,
        f["host_compiles_isolated"] > 0,
        f["shared_hits_shared"] > 0,
    ), (
        "host compiles isolated=%d shared=%d (shared hits %d)"
        % (f["host_compiles_isolated"], f["host_compiles_shared"],
           f["shared_hits_shared"])
    )


def _record_overhead_pct(f) -> float:
    return 100.0 * (f["record_s"] / f["plain_s"] - 1.0)


def _gate_record(f, _threshold):
    overhead = _record_overhead_pct(f)
    return _pass(f, overhead < 10.0), (
        "%.1f%% (cap 10%%), identical=%s" % (overhead, f["identical_results"])
    )


#: The corpora the IC chains must hit on.  Megamorphic is deliberately
#: excluded: its callr site cycles more targets than the chain holds, so
#: a near-zero hit rate there is the designed behavior.
_IC_GATED = ("alternating_pair", "rotating_3")


def _gate_indirect(f, _threshold):
    per = f.get("ic_per_corpus") or {}
    rates = [per.get(name, {}).get("hit_rate", 0.0) for name in _IC_GATED]
    return _pass(f, all(rate > 0.0 for rate in rates)), (
        "identical=%s %s" % (f["identical_results"], " ".join(
            "%s=%.1f%%" % (name, 100.0 * rate)
            for name, rate in zip(_IC_GATED, rates)
        ))
    )


def _gate_linking(f, _threshold):
    # Bit-identical to the no-link tier AND the interpreted oracle, every
    # stable-chain exit resolved in cache, fusion engaged.
    return _pass(
        f, f["oracle_identical"], f["link_bounces"] == 0,
        f["regions_fused"] > 0,
    ), (
        "identical=%s oracle=%s bounces=%d regions=%d"
        % (f["identical_results"], f["oracle_identical"],
           f["link_bounces"], f["regions_fused"])
    )


def _gate_warmup(f, _threshold):
    # Background compilation reaches first output in at most 60% of the
    # synchronous cold TTFO without changing one observable, the
    # prewarm jobs sweep scales core-awarely, and a prewarmed store
    # leaves the warm run nothing to compile.
    ratio = f.get("ttfo_ratio_x", 1.0)
    return _pass(
        f, f["oracle_identical"], ratio <= 0.6,
        f["prewarm_warm_host_compiles"] == 0, f["jobs_monotonic_ok"],
    ), (
        "ttfo ratio %.2f (cap 0.60) warm compiles=%d jobs monotonic=%s "
        "identical=%s oracle=%s"
        % (ratio, f["prewarm_warm_host_compiles"], f["jobs_monotonic_ok"],
           f["identical_results"], f["oracle_identical"])
    )


def _gate_fleet(f, _threshold):
    # The fleet wall clock itself is not gated: on a loaded single-core
    # runner, N-process spawn noise dwarfs the lookup path either way.
    return _pass(
        f, f["daemon_alive"], f["fleet_host_compiles_daemon"] == 0,
        f["daemon_lookup_p50_us"] < f["flock_lookup_p50_us"],
        f["fallback_ok"], f["fsck_clean"],
    ), (
        "%d procs, host compiles flock=%d daemon=%d, lookup p50 "
        "%.1f/%.1fus p99 %.1f/%.1fus (flock/daemon), fallback=%s fsck=%s "
        "identical=%s"
        % (f["fleet_processes"], f["fleet_host_compiles_flock"],
           f["fleet_host_compiles_daemon"], f["flock_lookup_p50_us"],
           f["daemon_lookup_p50_us"], f["flock_lookup_p99_us"],
           f["daemon_lookup_p99_us"], f["fallback_ok"], f["fsck_clean"],
           f["identical_results"])
    )


def _gate_transparency(f, _threshold):
    return _pass(
        f, f["oracle_identical"], f["stale_reads"] == 0, f["smc_ok"],
        f["warm_identical"], f["warm_preloaded"] > 0,
    ), (
        "identical=%s oracle=%s stale reads=%d churn invalidations=%d "
        "warm=%s (preloaded %d)"
        % (f["identical_results"], f["oracle_identical"], f["stale_reads"],
           sum((f.get("churn_smc") or {}).values()), f["warm_identical"],
           f["warm_preloaded"])
    )


def _notes_indirect(f) -> List[str]:
    lines = ["indirect_heavy inline-cache chains (compiled tier):"]
    for corpus, ic in sorted((f.get("ic_per_corpus") or {}).items()):
        lines.append(
            "  %-17s hit rate %5.1f%%  hits/overflow/misses %d/%d/%d  "
            "promotions %d  depth hits %s"
            % (corpus, 100.0 * ic["hit_rate"], ic["hits"],
               # .get: merged JSON may predate the megamorphic tier.
               ic.get("overflow_hits", 0), ic["misses"],
               ic["promotions"], ic["depth_hits"])
        )
    return lines


def _notes_linking(f) -> List[str]:
    lines = ["trace_linking chain corpora (linked compiled tier):"]
    for corpus, link in sorted((f.get("link_per_corpus") or {}).items()):
        lines.append(
            "  %-10s direct hops %-7d region entries/hops %d/%d  "
            "fused %d  bounces %d"
            % (corpus, link["link_direct_hops"], link["region_entries"],
               link["region_hops"], link["regions_fused"],
               link["link_bounces"])
        )
    return lines


def _notes_warmup(f) -> List[str]:
    queue = f.get("queue") or {}
    lines = [
        "tiered_warmup queue (gate app, cold): enqueued %d  off-path %d  "
        "interpreted runs %d  full-queue syncs %d  backlog high-water %d"
        % (queue.get("enqueued", 0), queue.get("compiled_offpath", 0),
           queue.get("interpreted_runs", 0),
           queue.get("queue_full_syncs", 0),
           queue.get("backlog_high_water", 0)),
        "prewarm cold-sweep wall clock (%d cores):" % f.get("cpu_count", 1),
    ]
    for row in f.get("prewarm_jobs_sweep") or []:
        lines.append(
            "  --jobs %d  %.2fs  compiled %d  admitted %d%s"
            % (row["jobs"], row["wall_s"], row["compiled"], row["admitted"],
               "" if row.get("monotonic_ok", True) else "  (regressed)")
        )
    return lines


def _notes_transparency(f) -> List[str]:
    lines = ["transparency SMC churners (interpreted oracle):"]
    for corpus, count in sorted((f.get("churn_smc") or {}).items()):
        lines.append("  %-15s invalidations %d" % (corpus, count))
    lines.extend("  oracle divergence: %s" % failure
                 for failure in f.get("oracle_failures") or [])
    lines.extend("  warm divergence: %s" % failure
                 for failure in f.get("warm_failures") or [])
    return lines


#: Every ``repro bench`` family, in run and print order.
FAMILIES: Dict[str, Family] = {family.name: family for family in (
    Family("fig5a_gui", _MODES, _fig5a_gui, _TIER_TITLE, _TIER_COLUMNS,
           gate=_gate_fig5a),
    Family("fig2b_gui", _MODES, _fig2b_gui, _TIER_TITLE, _TIER_COLUMNS),
    Family("headline_spec", _MODES, _headline_spec, _TIER_TITLE,
           _TIER_COLUMNS),
    Family(
        "sidecar_cold_warm", ("cold", "warm"), _sidecar_cold_warm,
        "Compiled-body sidecar: cold vs. warm host compile()",
        (_seconds("cold"), _seconds("warm"), _SPEEDUP,
         ("host_compiles", _cell("%d/%d", "host_compiles_cold",
                                 "host_compiles_warm")),
         _ttfo("cold", "warm"), _IDENTICAL),
        gate=_gate_sidecar,
    ),
    Family(
        "shared_store", ("isolated", "shared"), _shared_store,
        "Shared per-host store: DB-A warms DB-B",
        (_seconds("isolated"), _seconds("shared"), _SPEEDUP,
         ("host_compiles", _cell("%d/%d", "host_compiles_isolated",
                                 "host_compiles_shared")),
         ("shared_hits", _cell("%d", "shared_hits_shared")),
         _ttfo("isolated", "shared"), _IDENTICAL),
        gate=_gate_shared_store,
    ),
    Family(
        "indirect_heavy", _MODES, _indirect_heavy, _TIER_TITLE,
        _TIER_COLUMNS, gate=_gate_indirect, notes=_notes_indirect,
    ),
    Family(
        "record_overhead", ("plain", "record"), _record_overhead,
        "Recording overhead: plain vs. record-enabled runs",
        (_seconds("plain"), _seconds("record"),
         ("overhead", lambda f: "%.1f%%" % _record_overhead_pct(f)),
         _ttfo("plain", "record"), _IDENTICAL),
        gate=_gate_record,
    ),
    Family(
        "trace_linking", ("nolink", "linked"), _trace_linking,
        "Trace linking + superblock fusion (trimmed-mean speedup)",
        (_seconds("nolink"), _seconds("linked"),
         ("speedup_x", _cell("%.2f", "speedup_trimmed_x")),
         ("bounces", _cell("%d", "link_bounces")),
         ("regions", _cell("%d", "regions_fused")),
         _ttfo("nolink", "linked"), _ORACLE_IDENTICAL),
        gate=_gate_linking, notes=_notes_linking,
    ),
    Family(
        # The headline is TTFO, not sweep time: background compilation
        # drains its queue before a run returns, so total wall clock is
        # a wash by design.
        "tiered_warmup", ("sync", "background"), _tiered_warmup,
        "Tiered warm-up: background compile queue (time-to-first-output)",
        (("sync_ttfo_s", _cell("%.3f", "sync_ttfo_s")),
         ("bg_ttfo_s", _cell("%.3f", "background_ttfo_s")),
         ("ttfo_ratio", _cell("%.2f", "ttfo_ratio_x")),
         ("warm_compiles", _cell("%d", "prewarm_warm_host_compiles")),
         ("jobs_mono", _cell("%s", "jobs_monotonic_ok")),
         _ORACLE_IDENTICAL),
        gate=_gate_warmup, notes=_notes_warmup,
    ),
    Family(
        "fleet_warmup", ("flock", "daemon"), _fleet_warmup,
        "Fleet warm-up: flock store vs. cache-server daemon "
        "(per-lookup p50 flock/daemon)",
        (_seconds("flock"), _seconds("daemon"),
         ("procs", _cell("%d", "fleet_processes")),
         ("host_compiles", _cell("%d/%d", "fleet_host_compiles_flock",
                                 "fleet_host_compiles_daemon")),
         ("lookup_p50_us", _cell("%.1f/%.1f", "flock_lookup_p50_us",
                                 "daemon_lookup_p50_us")),
         ("fallback", _cell("%s", "fallback_ok")), _IDENTICAL),
        gate=_gate_fleet,
    ),
    Family(
        # The headline is the audit, not the sweep time: oracle identity
        # across dispatch tiers, zero stale code-byte reads, engaged SMC
        # detection, bit-identical warm restarts over every transport.
        "transparency", _MODES, _transparency,
        "Transparency under attack: anti-instrumentation corpus",
        (_seconds("interpreted"), _seconds("compiled"),
         ("stale_reads", _cell("%d", "stale_reads")),
         ("smc_inval", lambda f: "%d" % sum(
             (f.get("churn_smc") or {}).values())),
         ("warm", _cell("%s", "warm_identical")),
         _ttfo("interpreted", "compiled"), _ORACLE_IDENTICAL),
        gate=_gate_transparency, notes=_notes_transparency,
    ),
)}


def render(workloads: Dict[str, Dict[str, object]]) -> List[str]:
    """The text tables, then the extra lines, for every recorded family.

    Families print in table order; rows merged from an older results
    file print too, with ``-`` for any cell whose keys they lack.
    """
    tables: Dict[str, Tuple[List[str], List[Dict[str, str]]]] = {}
    notes: List[str] = []
    for name, record in FAMILIES.items():
        family = workloads.get(name)
        if family is None:
            continue
        headers, rows = tables.setdefault(
            record.title,
            (["workload"] + [header for header, _ in record.columns], []),
        )
        row = {"workload": name}
        for header, cell in record.columns:
            try:
                row[header] = cell(family)
            except KeyError:
                row[header] = "-"
        rows.append(row)
        if record.notes is not None:
            try:
                notes.extend(record.notes(family))
            except KeyError:
                pass
    return [
        format_table(rows, columns=headers, title=title)
        for title, (headers, rows) in tables.items()
    ] + notes


def _merge_existing(
    out_path: str, results: Dict[str, object]
) -> Dict[str, object]:
    """Merge this invocation's families into an existing results file.

    A selective ``--family`` run used to rewrite ``out_path`` wholesale,
    silently discarding every family measured by earlier invocations.
    Instead: families measured now win, families only present on disk
    are preserved, and ``host``/``config`` describe the current
    invocation (the old ones described runs being replaced anyway).  An
    absent or unparsable file degrades to a plain write.
    """
    try:
        with open(out_path) as handle:
            previous = json.load(handle)
    except (OSError, ValueError):
        return results
    merged_workloads = dict(previous.get("workloads") or {})
    merged_workloads.update(results["workloads"])
    merged = dict(results)
    merged["workloads"] = merged_workloads
    return merged


def _measure(record: Family, scratch_dir: str, warmup: int,
             reps: int) -> Dict[str, object]:
    """One family's dict: timing, extras, then the TTFO probe."""
    sweep = record.setup(scratch_dir)
    family = _measure_family(sweep, warmup, reps, modes=record.modes)
    if sweep.extras is not None:
        family.update(sweep.extras())
    if sweep.run is None:
        return family
    baseline, contender = record.modes
    for mode in record.modes:
        family["%s_ttfo_s" % mode] = min(
            sweep.ttfo(mode) for _ in range(max(2, reps))
        )
    baseline_ttfo = family["%s_ttfo_s" % baseline]
    if baseline_ttfo > 0:
        family["ttfo_ratio_x"] = (
            family["%s_ttfo_s" % contender] / baseline_ttfo
        )
    return family


def run_wallclock(
    scratch_dir: str,
    warmup: int = 2,
    reps: int = 3,
    families: Optional[Tuple[str, ...]] = None,
    out_path: Optional[str] = None,
) -> Dict[str, object]:
    """Run the wall-clock suite; return (and optionally write) results.

    Args:
        scratch_dir: Writable directory for the persistent-cache
            databases and stores the families' setups build.
        warmup: Untimed repetitions per family per mode.
        reps: Timed repetitions per family per mode.
        families: Subset of :data:`FAMILIES` names to run (default: all).
        out_path: When given, the result dict is merged into the JSON
            file there.
    """
    selected = families if families is not None else tuple(FAMILIES)
    unknown = [name for name in selected if name not in FAMILIES]
    if unknown:
        raise ValueError("unknown bench families: %s" % ", ".join(unknown))

    workloads = {
        name: _measure(FAMILIES[name], scratch_dir, warmup, reps)
        for name in selected
    }
    results: Dict[str, object] = {
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "config": {"warmup_reps": warmup, "timed_reps": reps},
        "workloads": workloads,
    }
    if out_path is not None:
        results = _merge_existing(out_path, results)
    # The recorded gate reads the merged set, so a selective rerun that
    # skipped the gate workload still records the last measured gate
    # numbers.
    merged_workloads = results["workloads"]
    gate: Dict[str, object] = {
        "workload": GATE_WORKLOAD,
        "threshold_x": GATE_THRESHOLD_X,
    }
    results["gate"] = gate
    if GATE_WORKLOAD in merged_workloads:
        family = merged_workloads[GATE_WORKLOAD]
        passed, _verdict = _gate_fig5a(family, None)
        gate["speedup_x"] = family["speedup_x"]
        gate["speedup_trimmed_x"] = family.get(
            "speedup_trimmed_x", family["speedup_x"]
        )
        gate["pass"] = passed

    if out_path is not None:
        payload = json.dumps(results, indent=2, sort_keys=True) + "\n"
        with open(out_path, "w") as handle:
            handle.write(payload)
    return results


def default_output_path() -> str:
    """``BENCH_wallclock.json`` at the repository root (next to src/)."""
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.join(os.path.dirname(os.path.dirname(here)),
                        "BENCH_wallclock.json")
