"""Tests for model persistence and the command-line interface."""

import json

import numpy as np
import pytest

from repro.core.lite import LITE, LITEConfig
from repro.core.necs import NECSConfig
from repro.core.persistence import load_lite, save_lite
from repro.cli import main as cli_main
from repro.sparksim import CLUSTER_C
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def tiny_lite():
    from repro.experiments.collect import collect_training_runs

    wls = [get_workload(n) for n in ("WordCount", "PageRank")]
    runs = collect_training_runs(
        workloads=wls, clusters=[CLUSTER_C], scales=("train0",), confs_per_cell=3, seed=2,
    )
    cfg = LITEConfig(
        necs=NECSConfig(epochs=2, max_tokens=48, mlp_hidden=16, conv_filters=8),
        n_candidates=6,
    )
    return LITE(cfg).offline_train(runs)


class TestPersistence:
    def test_roundtrip_predictions_identical(self, tiny_lite, tmp_path):
        path = save_lite(tiny_lite, tmp_path / "lite.pkl")
        loaded = load_lite(path)
        d = get_workload("PageRank").data_spec("valid").features()
        a = tiny_lite.recommend("PageRank", d, CLUSTER_C, rng=np.random.default_rng(1))
        b = loaded.recommend("PageRank", d, CLUSTER_C, rng=np.random.default_rng(1))
        assert a.conf == b.conf
        assert a.predicted_time_s == pytest.approx(b.predicted_time_s)

    def test_untrained_refused(self, tmp_path):
        with pytest.raises(ValueError):
            save_lite(LITE(), tmp_path / "x.pkl")

    def test_garbage_file_rejected(self, tmp_path):
        bad = tmp_path / "bad.pkl"
        import pickle

        bad.write_bytes(pickle.dumps({"something": "else"}))
        with pytest.raises(ValueError):
            load_lite(bad)

    def test_version_guard(self, tiny_lite, tmp_path):
        import pickle

        path = tmp_path / "future.pkl"
        path.write_bytes(pickle.dumps({"format": "repro-lite", "version": 99, "lite": tiny_lite}))
        with pytest.raises(ValueError, match="version"):
            load_lite(path)


class TestPersistenceFailureModes:
    """Corrupt files, old versions, and crashes mid-save."""

    def _recommend(self, lite):
        d = get_workload("PageRank").data_spec("valid").features()
        return lite.recommend("PageRank", d, CLUSTER_C, rng=np.random.default_rng(9))

    def test_truncated_pickle_is_a_clear_valueerror(self, tiny_lite, tmp_path):
        path = save_lite(tiny_lite, tmp_path / "lite.pkl")
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ValueError, match="corrupt or truncated"):
            load_lite(path)

    def test_garbage_bytes_are_a_clear_valueerror(self, tmp_path):
        bad = tmp_path / "bad.pkl"
        bad.write_bytes(b"\x00not a pickle at all")
        with pytest.raises(ValueError, match="corrupt or truncated"):
            load_lite(bad)

    def _aged_payload(self, tiny_lite, version, strip, add=None):
        """A payload as an older build would have written it."""
        import pickle

        clone = pickle.loads(pickle.dumps(tiny_lite))
        for attr in strip:
            delattr(clone, attr)
        for attr, value in (add or {}).items():
            setattr(clone, attr, value)
        return pickle.dumps({"format": "repro-lite", "version": version, "lite": clone})

    def test_v2_payload_is_migrated_not_rejected(self, tiny_lite, tmp_path):
        from repro.obs.drift import DriftMonitor

        path = tmp_path / "v2.pkl"
        path.write_bytes(self._aged_payload(
            tiny_lite, 2, strip=("drift", "_recommend_seq")))
        loaded = load_lite(path)
        assert isinstance(loaded.drift, DriftMonitor)
        # The chain runs v2->3->4->5: the transient v4 shared RNG must
        # not survive into the per-app substream world.
        assert not hasattr(loaded, "_recommend_rng")
        assert loaded._recommend_seq == {}
        # The migrated system serves, records drift and updates normally.
        rec = self._recommend(loaded)
        assert rec.predicted_time_s > 0
        run = get_workload("PageRank").run(
            rec.conf, CLUSTER_C, scale="train0", seed=0)
        loaded.feedback(run)
        assert loaded.drift.total_recorded > 0

    def test_v3_payload_gains_the_substream_counters(self, tiny_lite, tmp_path):
        path = tmp_path / "v3.pkl"
        path.write_bytes(self._aged_payload(tiny_lite, 3, strip=("_recommend_seq",)))
        loaded = load_lite(path)
        assert not hasattr(loaded, "_recommend_rng")
        assert loaded._recommend_seq == {}
        # The RNG fix holds for migrated systems too: successive
        # default-rng recommends draw fresh candidates.
        d = get_workload("PageRank").data_spec("valid").features()
        a = loaded.recommend("PageRank", d, CLUSTER_C)
        b = loaded.recommend("PageRank", d, CLUSTER_C)
        assert [c for c, _ in a.ranking] != [c for c, _ in b.ranking]

    def test_v4_shared_rng_is_replaced_by_substreams(self, tiny_lite, tmp_path):
        path = tmp_path / "v4.pkl"
        path.write_bytes(self._aged_payload(
            tiny_lite, 4, strip=("_recommend_seq",),
            add={"_recommend_rng": np.random.default_rng(0)}))
        loaded = load_lite(path)
        assert not hasattr(loaded, "_recommend_rng")
        # Substreams re-derive from (seed, app, seq): a migrated v4
        # checkpoint recommends exactly like a freshly loaded v5 one.
        fresh = load_lite(save_lite(tiny_lite, tmp_path / "v5.pkl"))
        a = self._recommend(loaded)
        b = self._recommend(fresh)
        assert a.conf == b.conf

    def test_v5_config_rebuilt_with_parallel_substrate_fields(
        self, tiny_lite, tmp_path
    ):
        import pickle
        from dataclasses import fields

        from repro.core.necs import NECSConfig

        # The fields v6 added (and later builds removed again) are not in
        # a v5 NECSConfig; a v5 estimator has no serving snapshot.
        clone = pickle.loads(pickle.dumps(tiny_lite))
        if hasattr(clone.estimator, "_serving_snapshot"):
            del clone.estimator._serving_snapshot
        path = tmp_path / "v5.pkl"
        path.write_bytes(pickle.dumps(
            {"format": "repro-lite", "version": 5, "lite": clone}))
        loaded = load_lite(path)
        cfg = loaded.config.necs
        # Rebuilt with exactly the current field set, values kept.
        assert cfg is not clone.config.necs
        assert set(vars(cfg)) == {f.name for f in fields(NECSConfig)}
        assert cfg == tiny_lite.config.necs
        # Both references must point at the one rebuilt config.
        assert loaded.estimator.config is cfg
        assert loaded.estimator._serving_snapshot is None
        # And the migrated system serves through the float32 fast path.
        rec = self._recommend(loaded)
        assert rec.predicted_time_s > 0
        assert loaded.estimator._serving_snapshot is not None

    def test_v8_config_with_removed_engine_fields(self, tiny_lite, tmp_path):
        import os
        import pickle
        import subprocess
        import sys
        from pathlib import Path

        import repro

        # A v8 checkpoint written before the data-parallel engine, the
        # reference-path flags and the float64 serving switch were deleted
        # still carries those fields in its NECSConfig's __dict__.  They
        # must be inert: a tenant saved with serving_dtype="float64" now
        # serves the float32 tower like every other.
        clone = pickle.loads(pickle.dumps(tiny_lite))
        stale = {"train_workers": 2, "train_shard_rows": 16,
                 "dedup_templates": False, "batched_gcn": False,
                 "serving_dtype": "float64"}
        for name, value in stale.items():
            object.__setattr__(clone.config.necs, name, value)
        stale_path = save_lite(clone, tmp_path / "stale.pkl")
        old = load_lite(stale_path)
        new = load_lite(save_lite(tiny_lite, tmp_path / "clean.pkl"))
        assert old.estimator.config.train_workers == 2

        def totals(rec):
            return np.array([t for _, t in rec.ranking])

        a, b = self._recommend(old), self._recommend(new)
        assert a.conf == b.conf
        np.testing.assert_array_equal(totals(a), totals(b))

        # The adaptive update runs the one training engine: same weights,
        # same rankings afterwards.
        wl = get_workload("PageRank")
        run = wl.run(a.conf, CLUSTER_C, scale="train0", seed=5)
        assert old.feedback(run, update_now=True)
        assert new.feedback(run, update_now=True)
        sd_old = old.estimator.network.state_dict()
        sd_new = new.estimator.network.state_dict()
        assert sd_old.keys() == sd_new.keys()
        for key in sd_old:
            np.testing.assert_array_equal(sd_old[key], sd_new[key])
        np.testing.assert_array_equal(
            totals(self._recommend(old)), totals(self._recommend(new)))

        # ... and never starts a worker pool: in a fresh interpreter, the
        # load, recommend and update leave multiprocessing unimported.
        script = "\n".join([
            "import sys",
            "from repro.core.persistence import load_lite",
            "from repro.sparksim import CLUSTER_C",
            "from repro.workloads import get_workload",
            f"lite = load_lite({str(stale_path)!r})",
            "wl = get_workload('PageRank')",
            "data = wl.data_spec('valid').features()",
            "conf = lite.recommend('PageRank', data, CLUSTER_C).conf",
            "run = wl.run(conf, CLUSTER_C, scale='train0', seed=5)",
            "assert lite.feedback(run, update_now=True)",
            "assert 'multiprocessing' not in sys.modules",
        ])
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr

    def test_v6_global_drift_becomes_keyed_with_detector(self, tiny_lite, tmp_path):
        import pickle

        from repro.obs.drift import DriftMonitor, KeyedDriftMonitor, TaskSwitchDetector

        # Age a v6 checkpoint: a plain global DriftMonitor carrying data,
        # no detector, no transfer ledger, a config predating the
        # switch/transfer fields.
        clone = pickle.loads(pickle.dumps(tiny_lite))
        old = DriftMonitor(window=clone.config.drift_window,
                           min_samples=clone.config.drift_min_samples)
        old.record(np.array([10.0, 20.0]), np.array([11.0, 19.0]))
        old.record(np.array([5.0]), np.array([5.5]))
        clone.drift = old
        del clone.task_switch
        del clone.last_transfer
        for name in ("drift_max_apps", "switch_detection", "switch_auto_update",
                     "switch_context_window", "switch_baseline_window",
                     "switch_min_baseline", "switch_z_threshold",
                     "switch_std_floor", "transfer_top_k",
                     "transfer_max_instances", "transfer_min_similarity"):
            delattr(clone.config, name)
        path = tmp_path / "v6.pkl"
        path.write_bytes(pickle.dumps(
            {"format": "repro-lite", "version": 6, "lite": clone}))

        loaded = load_lite(path)
        # The keyed monitor inherits the old aggregate window verbatim.
        assert isinstance(loaded.drift, KeyedDriftMonitor)
        assert loaded.drift.stats().n == 3
        assert loaded.drift.total_recorded == 3
        assert loaded.drift.apps() == []          # v6 never recorded app keys
        # Detector installed fresh from the (defaulted) config.
        assert isinstance(loaded.task_switch, TaskSwitchDetector)
        assert loaded.last_transfer is None
        assert loaded.config.switch_detection is False
        assert loaded.config.transfer_top_k == 2
        # The migrated system round-trips through the v7 writer...
        again = load_lite(save_lite(loaded, tmp_path / "v7.pkl"))
        assert again.drift.stats().n == 3
        assert again.drift.total_recorded == 3
        # ...and records per-app drift from post-migration feedback.
        rec = self._recommend(loaded)
        run = get_workload("PageRank").run(
            rec.conf, CLUSTER_C, scale="train0", seed=0)
        loaded.feedback(run)
        assert loaded.drift.apps() == ["PageRank"]

    def test_non_advancing_migration_is_refused(self, tiny_lite, tmp_path, monkeypatch):
        from repro.core import persistence

        # A buggy migration that forgets to bump "version" must surface
        # as an error naming the stuck version, not hang the loader.
        monkeypatch.setitem(persistence._MIGRATIONS, 4, lambda payload: dict(payload))
        path = tmp_path / "v4.pkl"
        path.write_bytes(self._aged_payload(tiny_lite, 4, strip=("_recommend_seq",)))
        with pytest.raises(ValueError, match=r"version 4 did not advance"):
            load_lite(path)

    def test_crash_mid_save_keeps_previous_checkpoint(self, tiny_lite, tmp_path):
        path = save_lite(tiny_lite, tmp_path / "lite.pkl")
        before = self._recommend(load_lite(path))

        def crash(_tmp):
            raise RuntimeError("simulated crash mid-save")

        with pytest.raises(RuntimeError, match="simulated crash"):
            save_lite(tiny_lite, path, _pre_replace_hook=crash)
        after = self._recommend(load_lite(path))
        assert before.conf == after.conf
        assert before.predicted_time_s == pytest.approx(after.predicted_time_s)
        # No half-written tmp siblings survive the crash.
        assert [p.name for p in tmp_path.iterdir()] == ["lite.pkl"]


class TestCLI:
    def test_workloads_listing(self, capsys):
        assert cli_main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "PageRank" in out and "Terasort" in out

    def test_run_command(self, capsys):
        code = cli_main([
            "run", "--app", "WordCount", "--scale", "train0",
            "--set", "spark.executor.cores=4",
        ])
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_run_failure_exit_code(self, capsys):
        code = cli_main([
            "run", "--app", "WordCount", "--cluster", "C",
            "--set", "spark.executor.memory=32",
        ])
        assert code == 1
        assert "FAILED" in capsys.readouterr().out

    def test_bad_knob_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["run", "--app", "WordCount", "--set", "spark.bogus=1"])

    def test_train_and_recommend_roundtrip(self, tmp_path, capsys):
        model = tmp_path / "model.pkl"
        code = cli_main([
            "train", "--cluster", "C", "--apps", "WordCount", "PageRank",
            "--confs-per-cell", "3", "--epochs", "2", "--out", str(model),
        ])
        assert code == 0
        assert model.exists()
        capsys.readouterr()

        code = cli_main([
            "recommend", "--model", str(model), "--app", "PageRank",
            "--scale", "valid", "--candidates", "5", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["app"] == "PageRank"
        assert "spark.executor.cores" in payload["conf"]
        assert payload["ranking_overhead_s"] < 2.0

    def test_recommend_cold_start(self, tiny_lite, tmp_path, capsys):
        model = tmp_path / "m.pkl"
        save_lite(tiny_lite, model)
        code = cli_main([
            "recommend", "--model", str(model), "--app", "Terasort",
            "--scale", "valid", "--candidates", "5",
        ])
        assert code == 0
        assert "recommended configuration" in capsys.readouterr().out
