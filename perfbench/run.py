#!/usr/bin/env python3
"""Fork-per-launch persistent-cache benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload gui_warm --seed 1 --seconds 12 --trace 0

One process generates the workload, primes its persistent-cache state,
then runs every launch in a fresh ``os.fork()`` child, one at a time (a
closed loop with one client).  The parent never executes guest code.
With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` it reports per-layer metrics from spans recorded
around calls into ``repro``'s public functions.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, ".out")

#: Set-up is repeated this many times per run; setup_s is the median.
SETUP_REPEATS = 3


#: Launch-time spans reported as self time rather than inclusive time.
SELF_TIME_SPANS = {
    "engine.run_vm": "engine.exec_self_s",
    "persist.open_revive": "persist.open_revive_s",
    "persist.write_back": "persist.write_back_s",
}

#: Inclusive busy-time metrics: span name -> metric name.
BUSY_SPANS = {
    "loader.load": "loader.load_s",
    "database.lookup": "database.lookup_s",
    "database.open_sidecar": "database.open_sidecar_s",
    "cachefile.decode": "cachefile.decode_s",
    "database.store": "database.store_s",
    "database.store_sidecar": "database.store_sidecar_s",
    "cachefile.encode": "cachefile.encode_s",
    "storage.write": "storage.write_s",
    "storage.read": "storage.read_s",
    "sharedstore.lookup": "sharedstore.lookup_s",
    "sharedstore.publish": "sharedstore.publish_s",
    "trace.select": "trace.select_s",
    "translator.translate": "translator.translate_s",
    "compile.prepare": "compile.prepare_s",
    "compile.bind": "compile.bind_s",
    "compile.region": "compile.region_s",
    "codecache.insert": "codecache.insert_s",
}

#: Call-count metrics: span name -> metric name.
COUNT_SPANS = {
    "storage.write": "storage.writes",
    "storage.read": "storage.reads",
    "sharedstore.lookup": "sharedstore.lookups",
    "trace.select": "trace.selected",
    "codecache.insert": "codecache.inserts",
    "codecache.flush": "codecache.flushes",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no repro sources at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print("perfbench: unknown workload %r (have: %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    work = os.path.join(OUT, "work-%d" % os.getpid())
    settle()
    try:
        result = run(WORKLOADS[args.workload], args, work)
    except RuntimeError as exc:  # failed set-up or steady-state check
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        settle()
    print(json.dumps(result))
    return 0


def settle() -> None:
    """Flush dirty data and pending discards before the next measurement.

    On an ext4 mounted with ``discard``, deleting files queues TRIMs that
    the next fsync waits behind: a launch right after a deletion wrote
    about 20% slower.  Every deletion the benchmark makes is followed by
    a sync outside any timed region.
    """
    os.sync()


def run(workload_cls, args, work) -> dict:
    from hostspeed import normalize, probe
    from workloads import native_references

    setup_times = []
    for repeat in range(SETUP_REPEATS):
        root = os.path.join(work, "setup-%d" % repeat)
        os.makedirs(root)
        workload = workload_cls(root)
        before = probe()
        start = time.perf_counter()
        workload.generate()
        generate_s = time.perf_counter() - start
        workload.setup_steps.append((generate_s, (before + probe()) / 2))
        workload.prime()
        setup_times.append(sum(
            normalize(wall, probe_s) for wall, probe_s in workload.setup_steps
        ))
        if repeat < SETUP_REPEATS - 1:
            shutil.rmtree(root)
        settle()
    print("setup_s samples: %s" % " ".join("%.3f" % t for t in setup_times))
    references = native_references(workload.programs, os.path.join(OUT, "refs"))
    loop = timed_loop(workload, references, args)
    if args.trace:
        return trace_result(workload, args, loop)
    return e2e_result(loop, statistics.median(setup_times))


class Loop:
    """What the timed loop measured; times are host-speed normalized."""

    def __init__(self, tally):
        self.tally = tally
        #: traced flag -> program -> normalized launch seconds.
        self.samples = {False: {}, True: {}}
        #: traced flag -> ok LaunchOutcomes.
        self.outcomes = {False: [], True: []}
        #: Normalized parent-side seconds per untraced launch, fork to
        #: reap, and the raw sum for the human-readable report.
        self.iteration_s = []
        self.raw_s = 0.0
        self.round_bytes = []
        self.peak_rss_mb = 0.0
        self.rounds = 0
        self.next_launch_id = 0


def loop_rounds(workload, args) -> int:
    """Rounds in the timed loop, fixed before it starts.

    Whole rounds covering about ``--seconds`` at the workload's nominal
    round time, and at least the workload's ``min_rounds`` untraced.  A
    fixed count means both sides of a comparison do the same work and
    every run has the same sample count.  Trace runs alternate untraced
    and traced rounds, so they need an even count.
    """
    rounds = max(1, math.ceil(args.seconds / workload.round_s))
    if args.trace:
        return 2 * math.ceil(rounds / 2)
    return max(rounds, workload.min_rounds)


def timed_loop(workload, references, args) -> Loop:
    """Closed loop: whole rounds, each in seed-shuffled order.

    With ``--trace 1`` rounds alternate untraced and traced launches, so
    the tracing overhead is measured under the same conditions.  Launch
    directories are removed only after the loop: deleting one launch's
    freshly synced files slowed the next launch's writes by about 20%.
    """
    from hostspeed import normalize, probe
    from stats import Tally
    from workloads import dir_bytes, launch

    rng = random.Random(args.seed)
    loop = Loop(Tally(references))
    round_dirs = []
    for round_index in range(loop_rounds(workload, args)):
        order = list(workload.programs)
        rng.shuffle(order)
        traced = bool(args.trace) and round_index % 2 == 1
        round_dirs.append([])
        for program in order:
            began = time.perf_counter()
            launch_dir = workload.launch_dir(loop.next_launch_id)
            child = launch(
                program, workload.make_config(program, launch_dir),
                trace=traced, launch_id=loop.next_launch_id,
            )
            wall = time.perf_counter() - began
            loop.next_launch_id += 1
            if launch_dir is not None:
                round_dirs[-1].append(launch_dir)
            loop.peak_rss_mb = max(loop.peak_rss_mb, child.maxrss_mb)
            outcome = loop.tally.add(program.name, child)
            probe_s = outcome.probe_s if outcome is not None else probe()
            if not traced:
                loop.iteration_s.append(normalize(wall, probe_s))
                loop.raw_s += wall
            if outcome is None:
                continue
            workload.check(program, outcome)
            loop.samples[traced].setdefault(program.name, []).append(
                normalize(outcome.seconds, outcome.probe_s)
            )
            loop.outcomes[traced].append(outcome)
        loop.rounds += 1
    shared = workload.state_bytes()
    for dirs in round_dirs:
        loop.round_bytes.append(shared + sum(dir_bytes(d) for d in dirs))
        for path in dirs:
            shutil.rmtree(path, ignore_errors=True)
    settle()
    return loop


def metric(value, unit):
    return {"value": value, "unit": unit}


def e2e_result(loop, setup_s) -> dict:
    from hostspeed import normalize
    from stats import geomean_of_medians, tail

    tally = loop.tally
    samples = loop.samples[False]
    outcomes = loop.outcomes[False]
    pooled = [s for values in samples.values() for s in values]
    tail_value, tail_pct, tail_n = tail(pooled)
    launch_s = sum(normalize(o.seconds, o.probe_s) for o in outcomes)
    instructions = sum(o.instructions for o in outcomes)
    launches = len(loop.iteration_s)
    raw_p50 = geomean_of_medians(_raw_samples(outcomes))
    print("launches: %d untraced in %d rounds; tail p%.1f of %d"
          % (launches, loop.rounds, tail_pct, tail_n))
    print("raw (not normalized): launch_p50_s %.4f, launches_per_s %.3f"
          % (raw_p50, launches / loop.raw_s))
    for name in sorted(samples):
        print("  %-24s median %.4f s over %d"
              % (name, statistics.median(samples[name]), len(samples[name])))
    for name, reason in tally.failures:
        print("  FAILED %s: %s" % (name, reason.strip().splitlines()[-1]))
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            "launch_p50_s": metric(geomean_of_medians(samples), "s"),
            "launch_tail_s": metric(tail_value, "s"),
            "launches_per_s": metric(launches / sum(loop.iteration_s), "1/s"),
            "guest_minst_per_s": metric(
                instructions / launch_s / 1e6, "Minst/s"
            ),
            "setup_s": metric(setup_s, "s"),
            "ok_ratio": metric(
                (tally.attempted - tally.failed) / tally.attempted, "ratio"
            ),
            "peak_rss_mb": metric(loop.peak_rss_mb, "MB"),
            "pcache_bytes": metric(
                int(statistics.median(loop.round_bytes)), "bytes"
            ),
        },
    }


def _raw_samples(outcomes) -> dict:
    raw = {}
    for outcome in outcomes:
        raw.setdefault(outcome.program, []).append(outcome.seconds)
    return raw


def trace_result(workload, args, loop) -> dict:
    from hostspeed import normalize
    from spans import self_times
    from stats import geomean_of_medians
    from workloads import launch

    tally = loop.tally
    traced = loop.outcomes[True]
    busy = {name: 0.0 for name in list(BUSY_SPANS.values())
            + list(SELF_TIME_SPANS.values())}
    counts = {name: 0 for name in COUNT_SPANS.values()}
    bytes_written = 0
    os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
    trace_path = os.path.join(
        OUT, "traces", "%s-seed%d.jsonl" % (workload.name, args.seed)
    )
    with open(trace_path, "w") as handle:
        for outcome in traced:
            selfs = self_times(outcome.spans)
            for index, (row, self_ns) in enumerate(zip(outcome.spans, selfs)):
                name, start, end, parent, launch_id, amount = row
                handle.write(json.dumps({
                    "launch": launch_id, "program": outcome.program,
                    "index": index, "name": name, "start_ns": start,
                    "end_ns": end, "parent": parent, "self_ns": self_ns,
                    "amount": amount, "probe_s": outcome.probe_s,
                }) + "\n")
                if name in SELF_TIME_SPANS:
                    busy[SELF_TIME_SPANS[name]] += normalize(
                        self_ns / 1e9, outcome.probe_s)
                if name in BUSY_SPANS:
                    busy[BUSY_SPANS[name]] += normalize(
                        (end - start) / 1e9, outcome.probe_s)
                if name in COUNT_SPANS:
                    counts[COUNT_SPANS[name]] += 1
                if name == "storage.write":
                    bytes_written += amount
    print("spans: %s" % os.path.relpath(trace_path))

    # The memory layer is counted in its own untimed pass: counting
    # wrappers on every load/store would distort the traced times.
    memory = {"reads": 0, "writes": 0}
    for offset, program in enumerate(workload.programs):
        launch_dir = workload.launch_dir(loop.next_launch_id + offset)
        child = launch(program, workload.make_config(program, launch_dir),
                       count_memory=True)
        outcome = tally.add(program.name, child)
        if launch_dir is not None:
            shutil.rmtree(launch_dir, ignore_errors=True)
        if outcome is not None:
            memory["reads"] += outcome.memory["reads"]
            memory["writes"] += outcome.memory["writes"]
    programs = len(workload.programs)
    read_cost, write_cost = calibrate_memory()

    n = len(traced)

    def per(total):
        return total / n

    def report_sum(key):
        return sum(int(o.report[key]) for o in traced)

    def ratio(part, whole):
        return part / whole if whole else 0.0

    revived = report_sum("preloaded")
    translated = sum(o.stats.traces_translated for o in traced)
    metrics = {}
    for name, total in sorted(busy.items()):
        metrics[name] = metric(per(total), "s")
    for name, total in sorted(counts.items()):
        metrics[name] = metric(per(total), "count")
    metrics.update({
        "storage.bytes_written": metric(per(bytes_written), "bytes"),
        "sharedstore.hit_ratio": metric(ratio(
            report_sum("shared_hits"),
            report_sum("shared_hits") + report_sum("shared_misses"),
        ), "ratio"),
        "sharedstore.touch_refreshes": metric(
            per(report_sum("shared_touch_refreshes")), "count"),
        "compile.host_compiles": metric(
            per(report_sum("sidecar_host_compiles")), "count"),
        "persist.traces_revived": metric(per(revived), "count"),
        "persist.revive_ratio": metric(
            ratio(revived, revived + translated), "ratio"),
        "persist.invalidations": metric(
            per(report_sum("invalidated")), "count"),
        "persist.degraded": metric(
            per(report_sum("fallback_jit_only")), "count"),
        "engine.vm_entries": metric(
            per(sum(o.stats.vm_entries for o in traced)), "count"),
        "link.bounces": metric(per(report_sum("link_bounces")), "count"),
        "link.regions_fused": metric(
            per(report_sum("regions_fused")), "count"),
        "ic.hit_ratio": metric(ratio(
            report_sum("ic_hits"),
            report_sum("ic_hits") + report_sum("ic_misses"),
        ), "ratio"),
        "memory.reads": metric(memory["reads"] / programs, "count"),
        "memory.writes": metric(memory["writes"] / programs, "count"),
        "memory.est_s": metric(
            (memory["reads"] * read_cost + memory["writes"] * write_cost)
            / programs, "s"),
        "tracing.overhead_ratio": metric(
            geomean_of_medians(loop.samples[True])
            / geomean_of_medians(loop.samples[False]) - 1.0, "ratio"),
    })
    leaders = sorted(
        ((v["value"], k) for k, v in metrics.items()
         if v["unit"] == "s" and k != "memory.est_s"),
        reverse=True,
    )[:5]
    print("traced launches: %d; leading layers (s/launch): %s" % (
        n, ", ".join("%s %.4f" % (k, v) for v, k in leaders)))
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def calibrate_memory(calls: int = 200_000) -> tuple:
    """Normalized seconds per ``read_word``/``write_word`` call.

    A microloop in a forked child like every launch; the empty-loop time
    is subtracted so only the call itself is charged.
    """
    from forkrun import check_child, in_child
    from hostspeed import normalize, probe

    def measure():
        from repro.loader.mapper import AddressSpace

        space = AddressSpace()
        base = 0x1000_0000
        space.map_anonymous(base, 1 << 16, name="calibrate")
        read_word, write_word = space.read_word, space.write_word
        addrs = [base + 8 * (i % 4096) for i in range(calls)]
        clock = time.perf_counter
        before = probe()
        t0 = clock()
        for addr in addrs:
            pass
        t1 = clock()
        for addr in addrs:
            read_word(addr)
        t2 = clock()
        for addr in addrs:
            write_word(addr, addr)
        t3 = clock()
        probe_s = (before + probe()) / 2
        empty = t1 - t0
        return (normalize((t2 - t1 - empty) / calls, probe_s),
                normalize((t3 - t2 - empty) / calls, probe_s))

    return check_child(in_child(measure), "memory calibration")


if __name__ == "__main__":
    sys.exit(main())
