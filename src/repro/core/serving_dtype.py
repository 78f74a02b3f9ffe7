"""The sanctioned serving-dtype boundary (DESIGN.md §15).

Training is float64 end-to-end — REP104 lints any float32 creeping into
the numeric stack, because a half-precision gradient step silently
degrades convergence.  Serving is different: ``predict_encoded`` only
runs the tower MLP forward, and a float32 cast of the *frozen* weights
halves memory traffic for a bounded, testable rounding error.  This
module is the **only** place allowed to perform that cast (it alone is
REP104-whitelisted; see ``repro.analysis.astlint.SERVING_DTYPE_FILES``),
so the lint keeps guarding the training path while serving gets its fast
path.

Everything here is a *snapshot* keyed by the estimator's model version:
optimizer steps rebind the weight arrays and bump the version, so a
snapshot never observes a half-updated network — the version check in
``NECSEstimator._tower_snapshot`` rebuilds it instead.
"""

from __future__ import annotations

import threading
from typing import Optional

import numpy as np

__all__ = ["DTYPE_REL_ERR_BOUND", "TowerSnapshot", "cast_array"]

#: Max relative error the float32 tower may show against the float64
#: taped forward (the test oracle); rankings may differ only between
#: candidates whose float64 totals lie within this bound of each other.
DTYPE_REL_ERR_BOUND = 1e-5


def cast_array(arr: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """Cast to the float32 serving dtype (``None`` passes through)."""
    if arr is None:
        return None
    return np.ascontiguousarray(arr, dtype=np.float32)


class TowerSnapshot:
    """Inference-ready float32 copy of a tower MLP at one model version.

    Holds ``(weight, bias, activation)`` triples cast to float32, plus a
    thread-local scratch-buffer dict for the fused kernel, so concurrent
    ranking threads never share output buffers.  Instances are immutable
    after construction; staleness is detected by comparing ``version``
    against the estimator's (check-then-swap on the estimator attribute is
    benign — any freshly built snapshot for the current version is valid).
    """

    def __init__(self, mlp, version: int):
        self.version = version
        self.layers = [
            (cast_array(weight), cast_array(bias), activation)
            for weight, bias, activation in mlp.inference_layers()
        ]
        self._scratch = threading.local()

    def forward(self, feats: np.ndarray) -> np.ndarray:
        """Fused forward; returns a float64 copy (caller-owned)."""
        from ..nn.fused import fused_forward

        buffers = getattr(self._scratch, "buffers", None)
        if buffers is None:
            buffers = {}
            self._scratch.buffers = buffers
        out = fused_forward(self.layers, feats, buffers)
        # The fused output aliases scratch memory; the float64 cast hands
        # the caller an owned array.
        return np.array(out, dtype=np.float64)
