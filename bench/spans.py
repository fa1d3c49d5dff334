"""Spans around the public functions of each matw layer, installed from outside.

The package itself carries no instrumentation, so the traced run wraps the
functions named in TRACED in every module namespace that binds them: a
`from .linalg import operator_norm_stack` in `sparse` binds its own name,
and wrapping only `matw.linalg` would miss those calls. A class is traced
through its `__init__`, a method on the class that defines it. A name that
no longer exists is reported as absent instead of failing the run.

Spans stay in memory as [name, start, end, parent span, operation id] and
are written out once the run ends. Self time is a span's duration minus the
durations of its direct child spans, which never overlap because the program
is single threaded.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

TRACED = (
    "dyadic.average_tree",
    "linalg.operator_norm_stack", "linalg.psd_power_stack", "linalg.psd_power",
    "linalg.operator_norm",
    "weights.generate_weight", "weights.MatrixWeight", "weights.a2_characteristic",
    "weights.ainfty_characteristic", "weights.fujii_wilson_constant",
    "haar.analyze", "haar.synthesize", "haar.sw_norm_squared", "haar.s3w_norm_squared",
    "opnorm.estimate_operator_norm", "opnorm.apply_form",
    "sparse.build_sparse_family", "sparse.verify_sparseness", "sparse.verify_domination",
    "sparse.verify_type1_trace_bound", "sparse.verify_type2_weak_bound",
    "sparse.verify_maximality", "sparse.certify", "sparse.recheck_certificate",
    "sweep.run_record",
)
# matrices decomposed per call: the stack height, or one for a single matrix
ROW_COUNTED = ("linalg.operator_norm_stack", "linalg.psd_power_stack",
               "linalg.psd_power", "linalg.operator_norm")
# counted, not timed: the direction set behind each A-infinity evaluation
OBSERVED = ("weights.ainfty_directions",)
RECHECK = "sparse.recheck_certificate"


class Recorder:
    """In-memory spans and counters for one traced pass over a workload."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1  # -1 while setting up, then the index of the running operation
        self.rows = dict.fromkeys(ROW_COUNTED, 0)
        self.estimates = self.iters = self.converged = 0
        self.dirs_evaluated = self.dirs_distinct = 0
        self.nodes = self.generations = 0
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ installing

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "matw" or n.startswith("matw.")]
        for target in TRACED + OBSERVED:
            layer, attr = target.split(".")
            module = sys.modules.get(f"matw.{layer}")
            obj = getattr(module, attr, None) if module else None
            if inspect.isclass(obj):
                self._patch(obj, "__init__", self._wrap(target, obj.__init__))
            elif callable(obj):
                wrapped = self._wrap(target, obj)
                for namespace in modules:
                    for key, value in list(vars(namespace).items()):
                        if value is obj:
                            self._patch(namespace, key, wrapped)
            else:
                owners = [cls for cls in vars(module).values()
                          if inspect.isclass(cls) and cls.__module__ == module.__name__
                          and callable(cls.__dict__.get(attr))] if module else []
                for cls in owners:
                    self._patch(cls, attr, self._wrap(target, cls.__dict__[attr]))
                if not owners:
                    self.absent.append(target)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def __enter__(self) -> "Recorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _wrap(self, name: str, fn):
        rec = self
        if name in OBSERVED:
            @functools.wraps(fn)
            def observed(*args, **kwargs):
                result = fn(*args, **kwargs)
                rec._observe(name, result)
                return result
            return observed

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, rec.stack[-1] if rec.stack else -1, rec.op]
            rec.stack.append(len(rec.spans))
            rec.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                rec.stack.pop()
            rec._count(name, args, result)
            return result
        return traced

    # -------------------------------------------------------------- counting

    def _count(self, name: str, args: tuple, result) -> None:
        if name in self.rows:
            stack = args[0] if args else None
            self.rows[name] += stack.shape[0] if getattr(stack, "ndim", 2) == 3 else 1
        elif name == "opnorm.estimate_operator_norm":
            self.estimates += 1
            self.iters += int(result.iters)
            self.converged += bool(result.converged)
        elif name == "sparse.build_sparse_family":
            # the family an operation produces; the recheck's own rebuild is a check
            if not any(self.spans[i][0] == RECHECK for i in self.stack):
                self.nodes += len(result.nodes)
                self.generations += len(result.generations)

    def _observe(self, name: str, directions) -> None:
        kept = []
        for v in directions:
            if all(abs(float(v @ u)) < 1.0 - 1e-12 for u in kept):
                kept.append(v)
        self.dirs_evaluated += len(directions)
        self.dirs_distinct += len(kept)

    # --------------------------------------------------------------- metrics

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics; names of absent functions are left out."""
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        child: dict[int, float] = {}
        for name, start, end, parent, _ in self.spans:
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start)
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + (end - start)
        own: dict[str, float] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            own[name] = own.get(name, 0.0) + (end - start) - child.get(index, 0.0)
        out: dict[str, float] = {}
        for name in TRACED:
            if name in self.absent:
                continue
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.total_s"] = total.get(name, 0.0)
            out[f"{name}.self_s"] = own.get(name, 0.0)
            if name in self.rows:
                out[f"{name}.rows"] = self.rows[name]
        opnorm_s = total.get("opnorm.estimate_operator_norm", 0.0)
        out["opnorm.iters"] = self.iters
        out["opnorm.s_per_iter"] = _ratio(opnorm_s, self.iters)
        out["opnorm.converged_frac"] = _ratio(self.converged, self.estimates)
        if "weights.ainfty_directions" not in self.absent:
            out["weights.ainfty.distinct_dir_frac"] = _ratio(self.dirs_distinct,
                                                             self.dirs_evaluated)
        out["sparse.nodes"] = self.nodes
        out["sparse.generations"] = self.generations
        out["sparse.norm_stack_calls_per_node"] = _ratio(
            calls.get("linalg.operator_norm_stack", 0), self.nodes)
        return out

    def dump(self) -> dict:
        """Spans with names replaced by indices into `names`, for compact output."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {"names": names, "fields": ["name", "start", "end", "parent", "op"],
                "spans": [[index[n], a, b, p, o] for n, a, b, p, o in self.spans]}


def _ratio(num: float, den: float) -> float:
    """num / den, and 0 where the layer did no work on this workload."""
    return num / den if den else 0.0
