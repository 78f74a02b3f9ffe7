"""Spark configuration: the 16 performance-aware knobs of paper Table IV.

Each knob carries a type, a default (Spark's shipped default), a tuning
range, and a unit.  :class:`SparkConf` is an immutable-ish mapping of knob
name -> value with validation, vectorisation (for learners) and round-trip
from vectors (for tuners that act in R^D).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

Number = Union[int, float, bool]


@dataclass(frozen=True)
class KnobSpec:
    """Specification of a single configuration knob."""

    name: str
    description: str
    kind: str  # "int" | "float" | "bool"
    default: Number
    low: float
    high: float
    unit: str = ""

    def validate(self, value: Number) -> Number:
        if self.kind == "bool":
            return bool(value)
        if self.kind == "int":
            v = int(round(float(value)))
        else:
            v = float(value)
        if not self.low <= v <= self.high:
            raise ValueError(
                f"{self.name}={v} out of range [{self.low}, {self.high}] {self.unit}"
            )
        return v

    def clip(self, value: Number) -> Number:
        """Clamp into range (used when tuners propose out-of-range values)."""
        v = float(np.clip(float(value), self.low, self.high))
        if self.kind == "bool":
            return bool(round(v))
        return int(round(v)) if self.kind == "int" else v

    def sample(self, rng: np.random.Generator) -> Number:
        if self.kind == "bool":
            return bool(rng.integers(0, 2))
        v = rng.uniform(self.low, self.high)
        return int(round(v)) if self.kind == "int" else float(v)

    def to_unit(self, value: Number) -> float:
        """Map a value to [0, 1] for distance computations."""
        if self.kind == "bool":
            return float(bool(value))
        if self.high == self.low:
            return 0.0
        return (float(value) - self.low) / (self.high - self.low)

    def from_unit(self, u: float) -> Number:
        if self.kind == "bool":
            return bool(u >= 0.5)
        v = self.low + float(np.clip(u, 0.0, 1.0)) * (self.high - self.low)
        v = min(max(v, self.low), self.high)  # guard float round-off at the ends
        return int(round(v)) if self.kind == "int" else float(v)


#: The 16 knobs of Table IV.  Ranges follow the public Spark docs and the
#: cluster scale of the paper's testbed.
KNOB_SPECS: Tuple[KnobSpec, ...] = (
    KnobSpec("spark.default.parallelism", "Number of RDD partitions", "int", 8, 2, 512),
    KnobSpec("spark.driver.cores", "Number of cores used by the driver process", "int", 1, 1, 8),
    KnobSpec("spark.driver.maxResultSize", "Size cap of serialized results per action", "int", 1024, 64, 4096, "MB"),
    KnobSpec("spark.driver.memory", "Heap memory for the driver", "int", 1, 1, 16, "GB"),
    KnobSpec("spark.executor.cores", "Number of cores per executor", "int", 1, 1, 16),
    KnobSpec("spark.executor.memory", "Heap memory per executor", "int", 1, 1, 32, "GB"),
    KnobSpec("spark.executor.memoryOverhead", "Off-heap memory per executor", "int", 384, 256, 4096, "MB"),
    KnobSpec("spark.executor.instances", "Initial number of executors", "int", 2, 1, 64),
    KnobSpec("spark.files.maxPartitionBytes", "Max bytes per partition when reading files", "int", 128, 16, 512, "MB"),
    KnobSpec("spark.memory.fraction", "Fraction of heap for execution and storage", "float", 0.6, 0.3, 0.9),
    KnobSpec("spark.memory.storageFraction", "Storage share exempt from eviction", "float", 0.5, 0.1, 0.9),
    KnobSpec("spark.reducer.maxSizeInFlight", "Concurrent map-output fetch per reduce task", "int", 48, 8, 128, "MB"),
    KnobSpec("spark.shuffle.file.buffer", "In-memory buffer per shuffle output stream", "int", 32, 16, 256, "KB"),
    KnobSpec("spark.shuffle.compress", "Compress map output files", "bool", True, 0, 1),
    KnobSpec("spark.shuffle.spill.compress", "Compress data spilled during shuffles", "bool", True, 0, 1),
    KnobSpec("spark.rdd.compress", "Compress serialized cached partitions", "bool", False, 0, 1),
)

KNOB_NAMES: Tuple[str, ...] = tuple(spec.name for spec in KNOB_SPECS)
KNOB_BY_NAME: Dict[str, KnobSpec] = {spec.name: spec for spec in KNOB_SPECS}
NUM_KNOBS = len(KNOB_SPECS)

KNOB_LOWS = np.array([spec.low for spec in KNOB_SPECS], dtype=np.float64)
KNOB_HIGHS = np.array([spec.high for spec in KNOB_SPECS], dtype=np.float64)
_KINDS = tuple(spec.kind for spec in KNOB_SPECS)
_ROUNDED = np.array([kind != "float" for kind in _KINDS])


def canonical_matrix(matrix: np.ndarray) -> np.ndarray:
    """Canonical knob vectors for the rows of an ``(n, 16)`` matrix.

    Every value is clipped into its knob's range, then int and bool knobs
    are rounded half-to-even (``np.rint``, like ``round``), so bools hold
    0/1.  The whole matrix is range-checked once: clipping puts every
    number, infinities included, in range, so the check is for NaN, which
    raises ``ValueError``.  Each returned row equals ``to_vector()`` of the
    conf :meth:`SparkConf.from_matrix` builds from it, and the function is
    idempotent.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] != NUM_KNOBS:
        raise ValueError(f"expected a matrix of shape (n, {NUM_KNOBS}), got {matrix.shape}")
    clipped = np.minimum(np.maximum(matrix, KNOB_LOWS), KNOB_HIGHS)
    out_of_range = np.isnan(clipped)
    if out_of_range.any():
        row, col = np.argwhere(out_of_range)[0]
        raise ValueError(
            f"{KNOB_NAMES[col]}={matrix[row, col]} in row {row} out of range "
            f"[{KNOB_LOWS[col]}, {KNOB_HIGHS[col]}]"
        )
    return np.where(_ROUNDED, np.rint(clipped), clipped)


class SparkConf:
    """A full assignment of the 16 knobs.

    Unspecified knobs take Spark defaults.  Instances hash/compare by value
    so they can key memoisation caches.
    """

    __slots__ = ("_values",)

    def __init__(self, values: Optional[Mapping[str, Number]] = None):
        assignment: Dict[str, Number] = {spec.name: spec.default for spec in KNOB_SPECS}
        if values:
            for name, value in values.items():
                spec = KNOB_BY_NAME.get(name)
                if spec is None:
                    raise KeyError(f"unknown knob {name!r}")
                assignment[name] = spec.validate(value)
        object.__setattr__(self, "_values", assignment)

    # ------------------------------------------------------------------
    @staticmethod
    def default() -> "SparkConf":
        return SparkConf()

    @staticmethod
    def random(rng: np.random.Generator) -> "SparkConf":
        return SparkConf({spec.name: spec.sample(rng) for spec in KNOB_SPECS})

    @staticmethod
    def from_vector(vector: Sequence[float]) -> "SparkConf":
        """Build a conf from a length-16 numeric vector (bools as 0/1).

        Values are clipped into range, so tuner outputs are always legal.
        """
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (NUM_KNOBS,):
            raise ValueError(f"expected vector of shape ({NUM_KNOBS},), got {vector.shape}")
        return SparkConf.from_matrix(vector[None, :])[0]

    @staticmethod
    def from_matrix(matrix: np.ndarray) -> List["SparkConf"]:
        """One conf per row of an ``(n, 16)`` matrix (bools as 0/1).

        The rows are made canonical by :func:`canonical_matrix` (clip,
        round, one range check), so they need no per-knob validation.
        """
        canonical = canonical_matrix(matrix)
        columns = [
            canonical[:, j].astype(np.int64).tolist() if kind == "int"
            else (canonical[:, j] != 0.0).tolist() if kind == "bool"
            else canonical[:, j].tolist()
            for j, kind in enumerate(_KINDS)
        ]
        return [SparkConf._trusted(dict(zip(KNOB_NAMES, row))) for row in zip(*columns)]

    @staticmethod
    def _trusted(values: Dict[str, Number]) -> "SparkConf":
        """Wrap a complete, already-validated assignment without re-checking it."""
        conf = object.__new__(SparkConf)
        object.__setattr__(conf, "_values", values)
        return conf

    @staticmethod
    def from_unit_vector(unit: Sequence[float]) -> "SparkConf":
        """Build a conf from a vector in [0, 1]^16."""
        unit = np.asarray(unit, dtype=np.float64)
        if unit.shape != (NUM_KNOBS,):
            raise ValueError(f"expected vector of shape ({NUM_KNOBS},), got {unit.shape}")
        return SparkConf({spec.name: spec.from_unit(u) for spec, u in zip(KNOB_SPECS, unit)})

    # ------------------------------------------------------------------
    def get(self, name: str) -> Number:
        return self._values[name]

    def __getitem__(self, name: str) -> Number:
        return self._values[name]

    def with_updates(self, updates: Mapping[str, Number]) -> "SparkConf":
        merged = dict(self._values)
        merged.update(updates)
        return SparkConf(merged)

    def to_vector(self) -> np.ndarray:
        """Numeric encoding in knob-registry order (bools as 0/1)."""
        return np.array([float(self._values[name]) for name in KNOB_NAMES])

    def to_unit_vector(self) -> np.ndarray:
        return np.array(
            [KNOB_BY_NAME[name].to_unit(self._values[name]) for name in KNOB_NAMES]
        )

    def as_dict(self) -> Dict[str, Number]:
        return dict(self._values)

    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        return isinstance(other, SparkConf) and self._values == other._values

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._values.items())))

    def digest(self) -> int:
        """Process-stable checksum of the assignment.

        Unlike ``hash()``, this does not depend on ``PYTHONHASHSEED``, so
        noise seeds and cache keys derived from it are reproducible across
        interpreter runs.
        """
        import zlib

        canonical = ";".join(f"{k}={self._values[k]}" for k in sorted(self._values))
        return zlib.adler32(canonical.encode())

    def __repr__(self) -> str:
        short = {name.split(".")[-1]: v for name, v in self._values.items()}
        return f"SparkConf({short})"
