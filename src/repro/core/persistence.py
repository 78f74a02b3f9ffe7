"""Saving and loading trained LITE systems.

A trained LITE bundles numpy weights (NECS), fitted scikit-style objects
(tokenizer, DAG encoder, scalers, per-knob forests) and stage templates.
Everything is plain Python/numpy, so a pickle with a version/format guard
is a faithful serialisation; `save_lite`/`load_lite` wrap it with
validation so a loaded system is immediately usable.

Crash safety: saves go through :func:`repro.utils.atomic.atomic_overwrite`
(tmp file + fsync + ``os.replace``), so a process dying mid-save — even
between the write and the rename — leaves the previous checkpoint intact.
Loads distinguish three failure modes with clear errors: corrupt or
truncated bytes (``ValueError``, never a raw ``EOFError``), a file that
is not a LITE checkpoint at all, and a version from a *newer* build.
Older supported versions are migrated forward in place instead of being
rejected.
"""

from __future__ import annotations

import pickle
from pathlib import Path
from typing import Callable, Dict, Optional, Union

from ..obs.drift import DriftMonitor
from ..utils.atomic import atomic_overwrite
from ..utils.rng import derive
from .lite import LITE, LITEConfig

FORMAT = "repro-lite"
# v2: LITE grew the encoded-template cache, probe-overhead ledger and
# retained feedback corpus; NECSEstimator grew the version counter.  v1
# pickles would deserialise without those attributes and fail at runtime.
# v3: LITE grew the drift monitor (rolling predicted-vs-actual window,
# recorded by ``feedback`` and read by ``drift_stats``/``should_update``).
# v4: LITE grew the per-instance recommendation RNG (the fix for the
# fresh-identically-seeded-generator-per-call bug).
# v5: the single shared recommendation RNG became per-app derived
# substreams (``_recommend_seq`` counters) so concurrent tenants draw
# independent, deterministic candidate sequences; the ``_recommend_rng``
# attribute is gone.
# v6: NECSConfig grew the parallel-substrate knobs (``train_workers``,
# ``train_shard_rows``, ``serving_dtype``).  The config is a *frozen*
# dataclass, so a v5 checkpoint's instance is rebuilt field-by-field with
# the new defaults instead of patched with setattr.
# v7: the global DriftMonitor became a KeyedDriftMonitor (per-app windows
# behind the same aggregate), LITE grew the TaskSwitchDetector and the
# transfer warm-start config/ledger.  A v6 monitor's window contents and
# lifetime count carry over into the aggregate; its pairs carried no app
# key, so the per-app windows start empty.
# v8: fitted trees became flat node arrays.  The candidate generator's 16
# per-knob forests of ``_Node`` graphs (each tree also pickling its own
# ``np.random.Generator``) became one node-array set with a root offset
# per tree.
VERSION = 8


def save_lite(
    lite: LITE,
    path: Union[str, Path],
    _pre_replace_hook: Optional[Callable[[Path], None]] = None,
) -> Path:
    """Serialise a trained LITE system to ``path``, atomically.

    Raises ``ValueError`` for untrained systems — persisting an empty model
    is almost certainly a bug at the call site.  An exception anywhere in
    the save (including ``_pre_replace_hook``, the chaos harness's crash
    injection point) leaves any previous checkpoint at ``path`` intact.
    """
    if not lite.trained:
        raise ValueError("refusing to save an untrained LITE system")
    path = Path(path)
    payload = {
        "format": FORMAT,
        "version": VERSION,
        "lite": lite,
    }
    with atomic_overwrite(path, mode="wb", pre_replace_hook=_pre_replace_hook) as fh:
        pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
    return path


# ----------------------------------------------------------------------
# Version migrations: each entry upgrades a payload one version forward;
# load_lite chains them until the payload reaches VERSION.
# ----------------------------------------------------------------------
def _ensure_config_defaults(config: LITEConfig, defaults: Dict[str, object]) -> None:
    for name, value in defaults.items():
        if not hasattr(config, name):
            setattr(config, name, value)


def _migrate_v2_to_v3(payload: Dict[str, object]) -> Dict[str, object]:
    """v2 -> v3: install the drift monitor a v2 LITE never had."""
    lite = payload["lite"]
    _ensure_config_defaults(lite.config, {
        "drift_window": 256,
        "drift_min_samples": 10,
        "drift_rel_err_threshold": 0.35,
        "drift_p_threshold": 0.01,
    })
    if not hasattr(lite, "drift"):
        lite.drift = DriftMonitor(
            window=lite.config.drift_window,
            min_samples=lite.config.drift_min_samples,
            rel_err_threshold=lite.config.drift_rel_err_threshold,
            p_threshold=lite.config.drift_p_threshold,
        )
    return {**payload, "version": 3}


def _migrate_v3_to_v4(payload: Dict[str, object]) -> Dict[str, object]:
    """v3 -> v4: install the per-instance recommendation RNG."""
    lite = payload["lite"]
    if not hasattr(lite, "_recommend_rng"):
        lite._recommend_rng = derive(lite.config.seed, "recommend")
    return {**payload, "version": 4}


def _migrate_v4_to_v5(payload: Dict[str, object]) -> Dict[str, object]:
    """v4 -> v5: shared recommend RNG -> per-app derived substreams."""
    lite = payload["lite"]
    # The old generator's position is deliberately dropped: substreams are
    # re-derived from (seed, app, seq), so a migrated checkpoint recommends
    # exactly like a freshly trained one.
    if hasattr(lite, "_recommend_rng"):
        del lite._recommend_rng
    if not hasattr(lite, "_recommend_seq"):
        lite._recommend_seq = {}
    return {**payload, "version": 5}


def _migrate_v5_to_v6(payload: Dict[str, object]) -> Dict[str, object]:
    """v5 -> v6: rebuild the frozen NECSConfig with the new field set.

    ``LITE.config.necs`` and ``NECSEstimator.config`` are the same object
    in a live system, so both references are pointed at the rebuilt one.
    The serving snapshot is derived state and starts empty.
    """
    from dataclasses import fields

    from .necs import NECSConfig

    lite = payload["lite"]
    old = lite.config.necs
    rebuilt = NECSConfig(
        **{f.name: getattr(old, f.name, f.default) for f in fields(NECSConfig)}
    )
    lite.config.necs = rebuilt
    lite.estimator.config = rebuilt
    if not hasattr(lite.estimator, "_serving_snapshot"):
        lite.estimator._serving_snapshot = None
    return {**payload, "version": 6}


def _migrate_v6_to_v7(payload: Dict[str, object]) -> Dict[str, object]:
    """v6 -> v7: keyed drift monitor + task-switch detector + transfer config.

    The old global monitor's rolling window and lifetime count are copied
    into the keyed monitor's aggregate; per-app windows start empty (v6
    never recorded app keys).  The detector starts fresh and the transfer
    ledger empty — both accrue from post-migration feedback only.
    """
    from ..obs.drift import REL_ERR_FLOOR_S, KeyedDriftMonitor, TaskSwitchDetector

    lite = payload["lite"]
    _ensure_config_defaults(lite.config, {
        "drift_max_apps": 32,
        "switch_detection": False,
        "switch_auto_update": True,
        "switch_context_window": 5,
        "switch_baseline_window": 20,
        "switch_min_baseline": 8,
        "switch_z_threshold": 4.0,
        "switch_std_floor": 0.02,
        "transfer_top_k": 2,
        "transfer_max_instances": 200,
        "transfer_min_similarity": 0.0,
    })
    def as_keyed(old):
        if isinstance(old, KeyedDriftMonitor):
            return old
        keyed = KeyedDriftMonitor(
            window=old.window,
            min_samples=old.min_samples,
            rel_err_threshold=old.rel_err_threshold,
            p_threshold=old.p_threshold,
            rel_err_floor_s=getattr(old, "rel_err_floor_s", REL_ERR_FLOOR_S),
            max_apps=lite.config.drift_max_apps,
        )
        keyed._predicted.extend(old._predicted)
        keyed._actual.extend(old._actual)
        keyed.total_recorded = old.total_recorded
        return keyed

    lite.drift = as_keyed(lite.drift)
    if not hasattr(lite, "task_switch"):
        lite.task_switch = TaskSwitchDetector(
            context_window=lite.config.switch_context_window,
            baseline_window=lite.config.switch_baseline_window,
            min_baseline=lite.config.switch_min_baseline,
            z_threshold=lite.config.switch_z_threshold,
            std_floor=lite.config.switch_std_floor,
            max_apps=lite.config.drift_max_apps,
        )
    if not hasattr(lite, "last_transfer"):
        lite.last_transfer = None
    return {**payload, "version": 7}


def _migrate_v7_to_v8(payload: Dict[str, object]) -> Dict[str, object]:
    """v7 -> v8: flatten the candidate generator's ``_Node`` forests.

    Every v7 tree's root graph becomes preorder node arrays (root at 0),
    so each tree's offset in the concatenation is its root.  Idempotent:
    a generator that already holds node arrays is left as it is.
    """
    from ..ml.tree import FlatTrees

    acg = payload["lite"].candidate_generator
    forests = acg.__dict__.pop("models_", None)
    if forests is not None:
        trees = [tree._root.flatten() for forest in forests for tree in forest.trees_]
        acg.nodes_, offsets = FlatTrees.concat(trees)
        acg.roots_ = offsets.reshape(len(forests), -1)
    return {**payload, "version": 8}


_MIGRATIONS: Dict[int, Callable[[Dict[str, object]], Dict[str, object]]] = {
    2: _migrate_v2_to_v3,
    3: _migrate_v3_to_v4,
    4: _migrate_v4_to_v5,
    5: _migrate_v5_to_v6,
    6: _migrate_v6_to_v7,
    7: _migrate_v7_to_v8,
}


def load_lite(path: Union[str, Path]) -> LITE:
    """Load a LITE system saved by :func:`save_lite`.

    Raises ``ValueError`` (with the failure mode spelled out) for corrupt
    or truncated files, files that are not LITE checkpoints, and versions
    newer than this build; versions with a registered migration are
    upgraded transparently.
    """
    path = Path(path)
    try:
        with path.open("rb") as fh:
            payload = pickle.load(fh)
    except (EOFError, pickle.UnpicklingError, AttributeError, IndexError) as exc:
        raise ValueError(
            f"{path} is corrupt or truncated (not a readable LITE checkpoint): {exc}"
        ) from exc
    if not isinstance(payload, dict) or payload.get("format") != FORMAT:
        raise ValueError(f"{path} is not a saved LITE system")
    version = payload.get("version")
    while version != VERSION:
        migrate = _MIGRATIONS.get(version)
        if migrate is None:
            raise ValueError(
                f"unsupported LITE format version {version} "
                f"(this build reads versions {sorted(_MIGRATIONS)} via "
                f"migration, writes version {VERSION})"
            )
        payload = migrate(payload)
        new_version = payload.get("version")
        # A migration that fails to advance the version would spin this
        # loop forever (or re-run other migrations ad infinitum); surface
        # the buggy migration instead of hanging the loader.
        if not isinstance(new_version, int) or new_version <= version:
            raise ValueError(
                f"migration from LITE format version {version} did not "
                f"advance the payload (got {new_version!r}); refusing to "
                f"loop on a non-advancing migration"
            )
        version = new_version
    lite = payload["lite"]
    if not isinstance(lite, LITE) or not lite.trained:
        raise ValueError(f"{path} does not contain a trained LITE system")
    return lite
