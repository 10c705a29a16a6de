"""The wall-clock harness's result file accumulates across invocations.

``run_wallclock`` records a *trajectory*: each family's numbers stay in
``BENCH_wallclock.json`` until that family is re-measured.  A selective
``--family`` invocation used to rewrite the file wholesale, silently
discarding every family measured earlier — these tests pin the merge
semantics (preserve untouched families, refresh re-run ones, recompute
the gate over the merged set, degrade to a plain write on a missing or
corrupt file).
"""

import json

import pytest

from repro.bench import (
    GATE_WORKLOAD,
    _merge_existing,
    run_wallclock,
)


def _fake_results(**families):
    return {
        "host": {"python": "x", "platform": "y"},
        "config": {"warmup_reps": 0, "timed_reps": 1},
        "workloads": dict(families),
    }


class TestMergeExisting:
    def test_missing_file_degrades_to_plain_write(self, tmp_path):
        results = _fake_results(fam_a={"speedup_x": 1.0})
        merged = _merge_existing(str(tmp_path / "absent.json"), results)
        assert merged == results

    def test_corrupt_file_degrades_to_plain_write(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text("{not json")
        results = _fake_results(fam_a={"speedup_x": 1.0})
        assert _merge_existing(str(path), results) == results

    def test_untouched_families_preserved(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(_fake_results(
            fam_old={"speedup_x": 3.0}, fam_both={"speedup_x": 1.0},
        )))
        merged = _merge_existing(str(path), _fake_results(
            fam_both={"speedup_x": 2.0}, fam_new={"speedup_x": 9.0},
        ))
        workloads = merged["workloads"]
        assert workloads["fam_old"] == {"speedup_x": 3.0}   # preserved
        assert workloads["fam_both"] == {"speedup_x": 2.0}  # refreshed
        assert workloads["fam_new"] == {"speedup_x": 9.0}   # added

    def test_host_and_config_describe_current_invocation(self, tmp_path):
        path = tmp_path / "bench.json"
        stale = _fake_results(fam_old={})
        stale["host"] = {"python": "ancient", "platform": "other-box"}
        path.write_text(json.dumps(stale))
        merged = _merge_existing(str(path), _fake_results(fam_new={}))
        assert merged["host"] == {"python": "x", "platform": "y"}


class TestRunWallclockMerge:
    """End-to-end: two invocations into one file, nothing lost."""

    @pytest.fixture(scope="class")
    def merged_file(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("bench-merge")
        out_path = str(tmp_path / "bench.json")
        # First invocation stands in for an earlier full run that
        # measured the gate family (fabricated numbers keep this fast).
        seed = {
            "host": {"python": "old"},
            "config": {"warmup_reps": 9, "timed_reps": 9},
            "workloads": {
                GATE_WORKLOAD: {
                    "speedup_x": 2.5,
                    "identical_results": True,
                    "interpreted_s": 0.5,
                    "compiled_s": 0.2,
                },
            },
            "gate": {"workload": GATE_WORKLOAD, "threshold_x": 1.5},
        }
        with open(out_path, "w") as handle:
            json.dump(seed, handle)
        results = run_wallclock(
            scratch_dir=str(tmp_path / "scratch"),
            warmup=0,
            reps=1,
            families=("indirect_heavy",),
            out_path=out_path,
        )
        with open(out_path) as handle:
            return results, json.load(handle)

    def test_selective_rerun_preserves_other_families(self, merged_file):
        results, on_disk = merged_file
        assert GATE_WORKLOAD in on_disk["workloads"]
        assert "indirect_heavy" in on_disk["workloads"]
        assert on_disk["workloads"][GATE_WORKLOAD]["speedup_x"] == 2.5

    def test_returned_results_match_file(self, merged_file):
        results, on_disk = merged_file
        assert results == on_disk

    def test_gate_recomputed_over_merged_set(self, merged_file):
        """The gate family wasn't re-run, but its preserved numbers
        still drive the recorded gate verdict."""
        _results, on_disk = merged_file
        gate = on_disk["gate"]
        assert gate["workload"] == GATE_WORKLOAD
        assert gate["speedup_x"] == 2.5
        assert gate["pass"] is True

    def test_rerun_family_carries_ic_counters(self, merged_file):
        _results, on_disk = merged_file
        family = on_disk["workloads"]["indirect_heavy"]
        assert family["identical_results"] is True
        per = family["ic_per_corpus"]
        assert per["alternating_pair"]["hit_rate"] > 0.8
        assert per["rotating_3"]["hit_rate"] > 0.8


# -- --check verdicts ---------------------------------------------------------


def _timed(baseline, contender, **extra):
    """A synthetic, fully populated passing family dict for one mode pair."""
    family = {
        "speedup_x": 2.0,
        "speedup_trimmed_x": 2.0,
        "identical_results": True,
        "ttfo_ratio_x": 0.5,
    }
    for mode, seconds in ((baseline, 1.0), (contender, 0.5)):
        family["%s_s" % mode] = seconds
        family["%s_trimmed_s" % mode] = seconds
        family["%s_spread_pct" % mode] = 5.0
        family["reps_%s_s" % mode] = [seconds]
        family["%s_ttfo_s" % mode] = seconds / 10
    family.update(extra)
    return family


def _ic(hit_rate):
    return {"hits": 90, "misses": 10, "hit_rate": hit_rate,
            "promotions": 3, "depth_hits": [80, 10, 0, 0]}


def _link():
    return {"link_direct_hops": 100, "region_entries": 4, "region_hops": 60,
            "regions_fused": 1, "link_bounces": 0, "chained_exits": 50}


PASSING = {
    "fig5a_gui": _timed("interpreted", "compiled"),
    "fig2b_gui": _timed("interpreted", "compiled"),
    "headline_spec": _timed("interpreted", "compiled"),
    "sidecar_cold_warm": _timed(
        "cold", "warm", host_compiles_cold=10, host_compiles_warm=0,
    ),
    "shared_store": _timed(
        "isolated", "shared", host_compiles_isolated=10,
        host_compiles_shared=0, shared_hits_shared=10,
    ),
    "indirect_heavy": _timed(
        "interpreted", "compiled",
        ic_per_corpus={"alternating_pair": _ic(0.9), "rotating_3": _ic(0.9),
                       "megamorphic": _ic(0.1)},
        ic_hits=270, ic_misses=30,
    ),
    "record_overhead": _timed("plain", "record", record_s=1.05),
    "trace_linking": _timed(
        "nolink", "linked", oracle_identical=True,
        link_per_corpus={"relay": _link(), "detour": _link()},
        link_bounces=0, regions_fused=2, chained_exits=100,
    ),
    "tiered_warmup": _timed(
        "sync", "background", ttfo_ratio_x=0.3, oracle_identical=True,
        cpu_count=2,
        queue={"enqueued": 10, "compiled_offpath": 10, "interpreted_runs": 5,
               "queue_full_syncs": 0, "backlog_high_water": 4},
        prewarm_jobs_sweep=[
            {"jobs": 1, "wall_s": 2.0, "compiled": 10, "admitted": 10},
            {"jobs": 2, "wall_s": 1.5, "compiled": 10, "admitted": 10,
             "monotonic_ok": True},
        ],
        jobs_monotonic_ok=True, prewarm_warm_host_compiles=0,
    ),
    "fleet_warmup": _timed(
        "flock", "daemon", fleet_processes=4, fleet_host_compiles_flock=0,
        fleet_host_compiles_daemon=0, fleet_shared_hits_daemon=40,
        daemon_transport_used="daemon", daemon_alive=True,
        flock_lookup_p50_us=20.0, flock_lookup_p99_us=40.0,
        daemon_lookup_p50_us=5.0, daemon_lookup_p99_us=10.0,
        lookup_samples=120, fallback_ok=True, fsck_clean=True,
    ),
    "transparency": _timed(
        "interpreted", "compiled", oracle_identical=True, oracle_failures=[],
        stale_reads=0, churn_smc={"churn_hot": 3, "churn_region": 2},
        smc_ok=True, warm_identical=True, warm_failures=[],
        warm_preloaded=12,
    ),
}

#: (family, keys overriding its passing dict, extra CLI args, exit code).
#: The exit codes were recorded from the hand-written per-family gates
#: the family table replaced; ungated conditions pin exit 0.
VERDICTS = [
    ("fig5a_gui", {}, [], 0),
    ("fig5a_gui", {"identical_results": False}, [], 1),
    ("fig5a_gui", {"speedup_trimmed_x": 1.2}, [], 1),
    ("fig5a_gui", {"speedup_trimmed_x": 1.2}, ["--check-threshold", "1.0"], 0),
    ("fig5a_gui", {"speedup_trimmed_x": 0.9}, ["--check-threshold", "1.0"], 1),
    ("fig5a_gui", {"speedup_x": 0.5}, [], 0),
    ("fig2b_gui", {}, [], 0),
    ("fig2b_gui", {"identical_results": False}, [], 0),
    ("headline_spec", {}, [], 0),
    ("headline_spec", {"identical_results": False}, [], 0),
    ("sidecar_cold_warm", {}, [], 0),
    ("sidecar_cold_warm", {"identical_results": False}, [], 1),
    ("sidecar_cold_warm", {"host_compiles_warm": 1}, [], 1),
    ("sidecar_cold_warm", {"host_compiles_cold": 0}, [], 0),
    ("shared_store", {}, [], 0),
    ("shared_store", {"identical_results": False}, [], 1),
    ("shared_store", {"host_compiles_shared": 1}, [], 1),
    ("shared_store", {"host_compiles_isolated": 0}, [], 1),
    ("shared_store", {"shared_hits_shared": 0}, [], 1),
    ("indirect_heavy", {}, [], 0),
    ("indirect_heavy", {"identical_results": False}, [], 1),
    ("indirect_heavy", {"ic_per_corpus": {
        "alternating_pair": _ic(0.0), "rotating_3": _ic(0.9)}}, [], 1),
    ("indirect_heavy", {"ic_per_corpus": {
        "alternating_pair": _ic(0.9), "rotating_3": _ic(0.0)}}, [], 1),
    ("indirect_heavy", {"ic_per_corpus": {
        "alternating_pair": _ic(0.9)}}, [], 1),
    ("indirect_heavy", {"ic_per_corpus": {
        "alternating_pair": _ic(0.9), "rotating_3": _ic(0.9),
        "megamorphic": _ic(0.0)}}, [], 0),
    ("record_overhead", {}, [], 0),
    ("record_overhead", {"identical_results": False}, [], 1),
    ("record_overhead", {"record_s": 1.2}, [], 1),
    ("trace_linking", {}, [], 0),
    ("trace_linking", {"identical_results": False}, [], 1),
    ("trace_linking", {"oracle_identical": False}, [], 1),
    ("trace_linking", {"link_bounces": 1}, [], 1),
    ("trace_linking", {"regions_fused": 0}, [], 1),
    ("trace_linking", {"speedup_trimmed_x": 1.0}, [], 0),
    ("tiered_warmup", {}, [], 0),
    ("tiered_warmup", {"identical_results": False}, [], 1),
    ("tiered_warmup", {"oracle_identical": False}, [], 1),
    ("tiered_warmup", {"ttfo_ratio_x": 0.7}, [], 1),
    ("tiered_warmup", {"ttfo_ratio_x": 0.6}, [], 0),
    ("tiered_warmup", {"prewarm_warm_host_compiles": 1}, [], 1),
    ("tiered_warmup", {"jobs_monotonic_ok": False}, [], 1),
    ("tiered_warmup", {"ttfo_ratio_x": 0.7},
     ["--check-threshold", "1.0"], 1),
    ("fleet_warmup", {}, [], 0),
    ("fleet_warmup", {"identical_results": False}, [], 1),
    ("fleet_warmup", {"daemon_alive": False}, [], 1),
    ("fleet_warmup", {"fleet_host_compiles_daemon": 1}, [], 1),
    ("fleet_warmup", {"fleet_host_compiles_flock": 3}, [], 0),
    ("fleet_warmup", {"daemon_lookup_p50_us": 20.0}, [], 1),
    ("fleet_warmup", {"daemon_lookup_p50_us": 25.0}, [], 1),
    ("fleet_warmup", {"fallback_ok": False}, [], 1),
    ("fleet_warmup", {"fsck_clean": False}, [], 1),
    ("transparency", {}, [], 0),
    ("transparency", {"identical_results": False}, [], 1),
    ("transparency", {"oracle_identical": False,
                      "oracle_failures": ["checksum/linked"]}, [], 1),
    ("transparency", {"stale_reads": 1}, [], 1),
    ("transparency", {"smc_ok": False}, [], 1),
    ("transparency", {"warm_identical": False,
                      "warm_failures": ["checksum/daemon"]}, [], 1),
    ("transparency", {"warm_preloaded": 0}, [], 1),
]


def _fake_run_wallclock(workloads):
    """A ``run_wallclock`` stand-in returning canned families."""

    def fake(scratch_dir, warmup=2, reps=3, families=None, out_path=None):
        results = _fake_results(**workloads)
        fig5a = workloads.get(GATE_WORKLOAD)
        results["gate"] = {"workload": GATE_WORKLOAD, "threshold_x": 1.5}
        if fig5a is not None:
            trimmed = fig5a.get("speedup_trimmed_x", fig5a["speedup_x"])
            results["gate"].update(
                speedup_x=fig5a["speedup_x"], speedup_trimmed_x=trimmed,
                **{"pass": fig5a["identical_results"] and trimmed >= 1.5},
            )
        return results

    return fake


def _bench_check(monkeypatch, tmp_path, workloads, argv):
    import repro.bench
    from repro.cli import main

    monkeypatch.setattr(repro.bench, "run_wallclock",
                        _fake_run_wallclock(workloads))
    return main(["bench", "--check", "--out", str(tmp_path / "bench.json")]
                + argv)


class TestCheckVerdicts:
    @pytest.mark.parametrize(
        "name,override,extra_args,expected", VERDICTS,
        ids=["%s-%d" % (row[0], i) for i, row in enumerate(VERDICTS)],
    )
    def test_exit_code(self, monkeypatch, tmp_path, name, override,
                       extra_args, expected):
        family = dict(PASSING[name], **override)
        code = _bench_check(monkeypatch, tmp_path, {name: family},
                            ["--family", name] + extra_args)
        assert code == expected

    def test_every_family_has_a_passing_row(self, monkeypatch, tmp_path):
        assert _bench_check(monkeypatch, tmp_path, PASSING, []) == 0

    def test_stale_merged_row_not_gated(self, monkeypatch, tmp_path, capsys):
        """A failing row merged from an earlier run must not fail a
        selective --check of another family, but is still printed."""
        stale = dict(PASSING["sidecar_cold_warm"], host_compiles_warm=3)
        code = _bench_check(
            monkeypatch, tmp_path,
            {"fig2b_gui": PASSING["fig2b_gui"], "sidecar_cold_warm": stale},
            ["--family", "fig2b_gui"],
        )
        assert code == 0
        assert "sidecar_cold_warm" in capsys.readouterr().out

    def test_stale_merged_gate_row_not_gated(self, monkeypatch, tmp_path):
        stale = dict(PASSING[GATE_WORKLOAD], identical_results=False)
        code = _bench_check(
            monkeypatch, tmp_path,
            {"indirect_heavy": PASSING["indirect_heavy"],
             GATE_WORKLOAD: stale},
            ["--family", "indirect_heavy"],
        )
        assert code == 0


class TestRender:
    def test_older_row_renders_missing_cells_as_dash(self):
        from repro.bench import render

        text = "\n".join(render({"sidecar_cold_warm": {
            "cold_s": 1.0, "warm_s": 0.5, "speedup_x": 2.0,
            "identical_results": True,
        }}))
        row = next(line for line in text.splitlines()
                   if line.startswith("sidecar_cold_warm"))
        assert row.split() == ["sidecar_cold_warm", "1.000", "0.500",
                               "2.00", "-", "-", "True"]

    def test_unknown_family_rows_are_skipped(self):
        from repro.bench import render

        assert render({"retired_family": {"speedup_x": 1.0}}) == []
