"""Autograd-aware AST lint (rules REP101-REP106).

The :mod:`repro.nn` substrate records gradients on a dynamic tape; the
classic way to silently corrupt an experiment is to step around that tape
with raw numpy.  This lint walks Python source with :class:`ast.NodeVisitor`
and flags the patterns that bite this codebase:

- ``REP101`` raw ``.data`` access in model code (reads bypass the tape);
- ``REP102`` in-place mutation of ``.data`` / ``.grad`` (corrupts recorded
  closures that captured the buffer);
- ``REP103`` unseeded numpy RNG (legacy ``np.random.*`` global state, or
  ``np.random.default_rng()`` with no seed);
- ``REP104`` float32 dtypes (the engine is float64 end-to-end);
- ``REP105`` bare ``except:``;
- ``REP106`` ``Tensor(x.numpy())`` where ``x.detach()`` states the intent.

Files that *implement* the tape legitimately touch ``.data``; they are
whitelisted via :data:`SUBSTRATE_FILES` and only lose the REP101/REP102
rules — everything else still applies to them.  Similarly, the serving
fast path deliberately trades precision for throughput inside one module
(:data:`SERVING_DTYPE_FILES`): that dtype boundary loses only REP104, so
float32 leaking anywhere *else* — in particular into the training path —
still fires.
"""

from __future__ import annotations

import ast
from pathlib import PurePosixPath
from typing import List, Optional, Sequence, Set, Tuple

from .diagnostics import Diagnostic, apply_suppressions, noqa_lines

#: Module paths (suffix match) allowed to touch Tensor internals: these files
#: implement the autodiff tape, the optimizers and parameter IO.
SUBSTRATE_FILES: Tuple[str, ...] = (
    "repro/nn/tensor.py",
    "repro/nn/functional.py",
    "repro/nn/optim.py",
    "repro/nn/module.py",
)

#: Module paths (suffix match) that *are* the float32 serving boundary: all
#: dtype casting for the serving fast path is concentrated here so the rest
#: of the codebase stays float64.  These files lose only REP104.
SERVING_DTYPE_FILES: Tuple[str, ...] = (
    "repro/core/serving_dtype.py",
)

#: Legacy numpy global-RNG entry points (all draw from unseeded process state
#: unless np.random.seed was called, which is itself flagged).
LEGACY_RANDOM_FUNCS: Set[str] = {
    "rand", "randn", "randint", "random", "random_sample", "ranf", "sample",
    "choice", "shuffle", "permutation", "uniform", "normal", "standard_normal",
    "binomial", "poisson", "beta", "gamma", "exponential", "seed", "get_state",
    "set_state",
}

_NUMPY_NAMES = {"np", "numpy"}


def _attr_chain(node: ast.AST) -> Optional[List[str]]:
    """Return the dotted-name chain of an attribute expression, if simple.

    ``np.random.rand`` -> ["np", "random", "rand"]; anything with calls or
    subscripts inside returns None.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return None


def _is_substrate(path: str) -> bool:
    norm = PurePosixPath(path.replace("\\", "/")).as_posix()
    return any(norm.endswith(suffix) for suffix in SUBSTRATE_FILES)


def _is_serving_dtype(path: str) -> bool:
    norm = PurePosixPath(path.replace("\\", "/")).as_posix()
    return any(norm.endswith(suffix) for suffix in SERVING_DTYPE_FILES)


class _LintVisitor(ast.NodeVisitor):
    def __init__(self, path: str, substrate: bool, dtype_boundary: bool = False):
        self.path = path
        self.substrate = substrate
        self.dtype_boundary = dtype_boundary
        self.diagnostics: List[Diagnostic] = []
        #: (lineno, col) of ``.data``/``.grad`` attribute nodes already
        #: reported as mutations, so REP101 does not double-report them.
        self._mutation_sites: Set[Tuple[int, int]] = set()

    # ------------------------------------------------------------------
    def _emit(self, rule_id: str, node: ast.AST, message: str) -> None:
        self.diagnostics.append(
            Diagnostic(
                rule_id,
                message,
                path=self.path,
                line=getattr(node, "lineno", None),
                col=getattr(node, "col_offset", None),
            )
        )

    # ------------------------------------------------------------------
    # REP102: in-place mutation of .data / .grad
    # ------------------------------------------------------------------
    def _tensor_buffer_attr(self, node: ast.AST) -> Optional[ast.Attribute]:
        """Return the ``x.data``/``x.grad`` attribute inside a store target."""
        if isinstance(node, ast.Attribute) and node.attr in ("data", "grad"):
            return node
        if isinstance(node, ast.Subscript):
            value = node.value
            if isinstance(value, ast.Attribute) and value.attr in ("data", "grad"):
                return value
        return None

    def _check_mutation(self, targets: Sequence[ast.AST]) -> None:
        if self.substrate:
            return
        for target in targets:
            attr = self._tensor_buffer_attr(target)
            if attr is None:
                continue
            self._mutation_sites.add((attr.lineno, attr.col_offset))
            kind = "subscript-assignment to" if isinstance(target, ast.Subscript) else "assignment to"
            self._emit(
                "REP102", target,
                f"{kind} `.{attr.attr}` mutates a tensor buffer the autodiff "
                f"tape may have captured",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        self._check_mutation(node.targets)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_mutation([node.target])
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # REP101: raw .data reads outside the substrate
    # ------------------------------------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            not self.substrate
            and node.attr == "data"
            and isinstance(node.ctx, ast.Load)
            and (node.lineno, node.col_offset) not in self._mutation_sites
        ):
            self._emit(
                "REP101", node,
                "raw `.data` access in model code bypasses the autodiff tape",
            )
        # REP104: np.float32 attribute
        chain = _attr_chain(node)
        if (
            not self.dtype_boundary
            and chain
            and chain[0] in _NUMPY_NAMES
            and chain[-1] in ("float32", "single")
        ):
            self._emit("REP104", node, f"`{'.'.join(chain)}` mixes float32 into a float64 engine")
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # REP103 / REP104 / REP106: call patterns
    # ------------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        chain = _attr_chain(node.func)
        if chain and len(chain) >= 2 and chain[0] in _NUMPY_NAMES and chain[1] == "random":
            tail = chain[2] if len(chain) > 2 else None
            if tail in LEGACY_RANDOM_FUNCS:
                self._emit(
                    "REP103", node,
                    f"legacy global-state RNG `{'.'.join(chain)}` is unseeded "
                    f"and order-dependent",
                )
            elif tail in ("default_rng", "SeedSequence") and not node.args and not node.keywords:
                self._emit(
                    "REP103", node,
                    f"`{'.'.join(chain)}()` without a seed draws OS entropy; "
                    f"pass an explicit seed",
                )

        # REP104: astype("float32") / dtype="float32"
        if not self.dtype_boundary:
            if isinstance(node.func, ast.Attribute) and node.func.attr == "astype":
                for arg in node.args:
                    if isinstance(arg, ast.Constant) and arg.value == "float32":
                        self._emit("REP104", arg, 'astype("float32") mixes float32 into a float64 engine')
            for kw in node.keywords:
                if kw.arg == "dtype" and isinstance(kw.value, ast.Constant) and kw.value.value == "float32":
                    self._emit("REP104", kw.value, 'dtype="float32" mixes float32 into a float64 engine')

        # REP106: Tensor(x.numpy()) -> x.detach()
        func_name = chain[-1] if chain else None
        if func_name == "Tensor" and len(node.args) == 1 and not node.keywords:
            arg = node.args[0]
            if (
                isinstance(arg, ast.Call)
                and isinstance(arg.func, ast.Attribute)
                and arg.func.attr == "numpy"
                and not arg.args
            ):
                self._emit(
                    "REP106", node,
                    "Tensor(x.numpy()) re-wraps the live buffer; use x.detach()",
                )
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # REP105: bare except
    # ------------------------------------------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._emit("REP105", node, "bare `except:` hides real failures")
        self.generic_visit(node)


def lint_source(source: str, path: str = "<string>") -> List[Diagnostic]:
    """Lint one Python source string; returns unsuppressed diagnostics."""
    tree = ast.parse(source, filename=path)
    visitor = _LintVisitor(
        path,
        substrate=_is_substrate(path),
        dtype_boundary=_is_serving_dtype(path),
    )
    visitor.visit(tree)
    return apply_suppressions(visitor.diagnostics, noqa_lines(source))


def lint_file(path) -> List[Diagnostic]:
    """Lint one file on disk."""
    from pathlib import Path

    text = Path(path).read_text(encoding="utf-8")
    return lint_source(text, path=str(path))
