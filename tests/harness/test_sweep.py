"""Tests for the parallel sweep engine and its persistent result cache.

Covers the ISSUE 3 acceptance points: cache hit/miss behaviour,
corrupt-record recovery, concurrent-writer safety, and the determinism
contract — a cold serial run, a cached run and a parallel run of the same
figure must return bit-identical results.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys

import pytest

from repro.harness import experiment, figures, sweep
from repro.harness.sweep import Plan, ResultCache, RunSpec


# ---------------------------------------------------------------------------
# Result codec
# ---------------------------------------------------------------------------

class TestResultCodec:
    def test_scalars_round_trip(self):
        for value in (None, True, False, 0, -7, 3.141592653589793, 1e-300, "x", ""):
            assert sweep.normalize_result(value) == value

    def test_float_bits_survive_json(self):
        value = 0.1 + 0.2  # not representable as "0.3"
        assert sweep.normalize_result(value) == value

    def test_tuples_are_restored(self):
        value = {"series": [(1, 2.5), (3, 4.5)], "single": (0,)}
        restored = sweep.normalize_result(value)
        assert restored == value
        assert isinstance(restored["series"][0], tuple)
        assert isinstance(restored["single"], tuple)

    def test_non_string_dict_keys_are_restored(self):
        value = {1500: {"median_us": 1.2}, 9000: {"median_us": 7.2}}
        restored = sweep.normalize_result(value)
        assert restored == value
        assert all(isinstance(key, int) for key in restored)

    def test_throughput_result_round_trips(self):
        result = experiment.ThroughputResult(
            duration_ps=2_000_000,
            link_rate_bps=10_000_000_000,
            per_flow_goodput_bps=[1.5e9, 9.2e9],
            utilization=0.87,
            trimmed_packets=12,
            dropped_packets=0,
        )
        restored = sweep.normalize_result(result)
        assert isinstance(restored, experiment.ThroughputResult)
        assert restored == result
        assert restored.sorted_goodputs_gbps() == result.sorted_goodputs_gbps()

    def test_reserved_marker_key_round_trips(self):
        value = {"__repro__": "not a tag, just data"}
        assert sweep.normalize_result(value) == value

    def test_unsupported_types_are_rejected(self):
        with pytest.raises(TypeError):
            sweep.encode_result({"bad": {1, 2, 3}})

    def test_canonical_params_is_order_insensitive(self):
        a = sweep.canonical_params({"x": 1, "y": (2, 3)})
        b = sweep.canonical_params({"y": (2, 3), "x": 1})
        assert a == b


# ---------------------------------------------------------------------------
# Persistent cache
# ---------------------------------------------------------------------------

def _cheap_spec(samples: int = 50) -> RunSpec:
    return RunSpec(
        "fig12", figures._figure12_run,
        dict(packet_sizes=(1500, 9000), samples=samples, seed=1),
    )


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec = _cheap_spec()
        hit, _ = cache.lookup_spec(spec)
        assert not hit and cache.misses == 1
        result = spec.execute()
        cache.store_spec(spec, result)
        assert cache.stores == 1
        hit, value = cache.lookup_spec(spec)
        assert hit and cache.hits == 1
        assert value == sweep.normalize_result(result)

    def test_key_depends_on_experiment_kwargs_and_fingerprint(self):
        base = _cheap_spec(samples=50)
        assert base.cache_key() == _cheap_spec(samples=50).cache_key()
        assert base.cache_key() != _cheap_spec(samples=51).cache_key()
        renamed = RunSpec("other", base.fn, dict(base.kwargs))
        assert base.cache_key() != renamed.cache_key()
        assert base.cache_key() != base.cache_key(fingerprint="deadbeef")

    def test_fingerprint_covers_package_source(self):
        fingerprint = sweep.code_fingerprint()
        assert len(fingerprint) == 64
        assert fingerprint == sweep.code_fingerprint()  # memoized, stable

    def test_corrupt_record_recovers_as_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec = _cheap_spec()
        cache.store_spec(spec, spec.execute())
        path = cache._path(spec.cache_key())
        for garbage in ("{not json", json.dumps({"experiment": "fig12"}), ""):
            with open(path, "w") as fh:
                fh.write(garbage)
            hit, _ = cache.lookup_spec(spec)
            assert not hit
            assert not os.path.exists(path)  # corrupt record was dropped
            cache.store_spec(spec, spec.execute())  # cache heals itself
        hit, _ = cache.lookup_spec(spec)
        assert hit

    def test_unwritable_cache_degrades_to_no_op(self, tmp_path):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory")
        cache = ResultCache(str(blocked))
        spec = _cheap_spec()
        cache.store_spec(spec, spec.execute())  # must not raise
        assert cache.stores == 0
        hit, _ = cache.lookup_spec(spec)
        assert not hit

    def test_concurrent_writers_never_corrupt_records(self, tmp_path):
        """Several processes hammering the same record stay readable."""
        script = (
            "import sys\n"
            "sys.path.insert(0, sys.argv[2])\n"
            "from repro.harness.sweep import ResultCache, RunSpec\n"
            "from repro.harness import figures\n"
            "spec = RunSpec('fig12', figures._figure12_run,\n"
            "    dict(packet_sizes=(1500, 9000), samples=50, seed=1))\n"
            "cache = ResultCache(sys.argv[1])\n"
            "result = spec.execute()\n"
            "for _ in range(25):\n"
            "    cache.store_spec(spec, result)\n"
            "    hit, value = cache.lookup_spec(spec)\n"
            "    assert hit and value == result, 'read back a corrupt record'\n"
        )
        src = os.path.join(os.path.dirname(figures.__file__), "..", "..")
        processes = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(tmp_path), os.path.abspath(src)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
            for _ in range(4)
        ]
        for process in processes:
            _out, err = process.communicate(timeout=120)
            assert process.returncode == 0, err.decode()
        # afterwards the record is a single valid JSON file
        cache = ResultCache(str(tmp_path))
        hit, value = cache.lookup_spec(_cheap_spec())
        assert hit and value == sweep.normalize_result(_cheap_spec().execute())
        leftovers = [f for f in os.listdir(tmp_path) if ".tmp." in f]
        assert leftovers == []

    def test_prune_reclaims_only_old_records(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec = _cheap_spec()
        cache.store_spec(spec, spec.execute())
        path = cache._path(spec.cache_key())
        assert cache.prune() == 0  # fresh record survives
        os.utime(path, (1, 1))  # pretend it is decades old
        stale_tmp = tmp_path / "deadbeef.tmp.123"
        stale_tmp.write_text("{}")
        os.utime(stale_tmp, (1, 1))
        assert cache.prune() == 2
        assert not os.path.exists(path) and not stale_tmp.exists()

    def test_hits_keep_records_young(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec = _cheap_spec()
        cache.store_spec(spec, spec.execute())
        path = cache._path(spec.cache_key())
        os.utime(path, (1, 1))
        hit, _ = cache.lookup_spec(spec)  # refreshes mtime
        assert hit
        assert cache.prune() == 0

    def test_maybe_prune_is_throttled_by_stamp(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.maybe_prune()
        stamp = tmp_path / ".last-prune"
        assert stamp.exists()
        spec = _cheap_spec()
        cache.store_spec(spec, spec.execute())
        os.utime(cache._path(spec.cache_key()), (1, 1))
        cache.maybe_prune()  # stamp is fresh: no walk, record survives
        assert os.path.exists(cache._path(spec.cache_key()))

    def test_default_cache_honors_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(sweep.CACHE_DIR_ENV, str(tmp_path))
        cache = sweep.default_cache()
        assert cache is not None and cache.root == str(tmp_path)
        monkeypatch.setenv(sweep.NO_CACHE_ENV, "1")
        assert sweep.default_cache() is None


# ---------------------------------------------------------------------------
# Determinism: cold vs cached vs parallel
# ---------------------------------------------------------------------------

class TestDeterminism:
    def test_cold_cached_and_parallel_runs_are_bit_identical(self, tmp_path):
        plan = figures.figure10_plan(long_flows=2)
        cache = ResultCache(str(tmp_path))

        cold = sweep.run_plan(plan, jobs=1, cache=None)
        populating = sweep.run_plan(plan, jobs=1, cache=cache)
        cached = sweep.run_plan(plan, jobs=1, cache=cache)
        parallel = sweep.run_plan(
            plan, jobs=2, cache=ResultCache(str(tmp_path / "fresh"))
        )

        assert cold == populating == cached == parallel
        assert cache.hits == len(plan.specs)  # third run was all disk hits

    def test_parallel_codec_figure_is_bit_identical(self, tmp_path):
        # fig12's result exercises int dict keys through worker pickling
        plan = figures.figure12_plan(samples=200)
        serial = sweep.run_plan(plan, cache=None)
        parallel = sweep.run_plan(plan, jobs=2, cache=None)
        assert serial == parallel
        assert list(serial) == [1500, 9000]

    def test_run_specs_reports_sources_in_order(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        specs = [_cheap_spec(50), _cheap_spec(60)]
        sweep.run_specs([specs[0]], cache=cache)
        seen = []
        sweep.run_specs(
            specs, cache=cache,
            on_result=lambda spec, index, source: seen.append((index, source)),
        )
        assert sorted(seen) == [(0, "cache"), (1, "run")]

    def test_failing_spec_raises_with_experiment_name(self):
        spec = RunSpec("boom", _always_failing, {})
        with pytest.raises(RuntimeError, match="boom"):
            sweep.run_specs([spec], cache=None)

    def test_completed_runs_are_persisted_before_a_later_spec_fails(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        good, bad = _cheap_spec(), RunSpec("boom", _always_failing, {})
        with pytest.raises(RuntimeError, match="boom"):
            sweep.run_specs([good, bad], cache=cache)
        hit, _ = cache.lookup_spec(good)  # the finished run survived
        assert hit

    def test_duplicate_specs_in_one_batch_simulate_once(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        specs = [_cheap_spec(70), _cheap_spec(70), _cheap_spec(70)]
        seen = []
        values = sweep.run_specs(
            specs, cache=cache,
            on_result=lambda _s, index, source: seen.append((index, source)),
        )
        assert values[0] == values[1] == values[2]
        assert cache.stores == 1  # one simulation, fanned out to all three
        assert sorted(seen) == [(0, "run"), (1, "run"), (2, "run")]


def _always_failing():
    raise ValueError("injected failure")


# ---------------------------------------------------------------------------
# Figure plan registry
# ---------------------------------------------------------------------------

class TestFigurePlans:
    def test_every_plan_yields_executable_picklable_specs(self):
        for name, builder in figures.FIGURE_PLANS.items():
            plan = builder()
            assert isinstance(plan, Plan) and plan.specs, name
            for spec in plan.specs:
                # kwargs must canonicalize (stable cache keys) ...
                sweep.canonical_params(spec.kwargs)
                # ... and the unit fn must be picklable for worker processes
                assert pickle.loads(pickle.dumps(spec.fn)) is spec.fn, name

    def test_sweep_figures_decompose_per_point(self):
        assert len(figures.figure16_plan().specs) == 16  # 4 sender counts x 4 protos
        assert len(figures.figure17_plan().specs) == 24  # 4 configs x 6 windows
        assert len(figures.scaling_plan().specs) == 3    # one per k
