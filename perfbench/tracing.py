"""Span tracing around the library's public functions, from outside the library.

``Tracer.install`` wraps each target function at every binding site: the
defining module's attribute and every ``from ... import`` copy held by any
``adjinv`` module.  Each call records a span (name, start, end, parent span,
op id) in memory; ``uninstall`` puts every original function back.  Spans are
turned into per-layer counts and times by ``Tracer.summary``.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter

# Public functions wrapped, by module of definition.
TARGETS = {
    "minors": ("minor", "det", "principal_minor_sum", "char_poly_coeffs", "adjugate"),
    "index_sets": ("enumerate_containing", "enumerate_k_subsets"),
    "elimination": ("integerize", "det_pairs", "rank_pairs"),
    "matrices": ("multiply", "rank", "power", "replace_column", "replace_row"),
    "drazin": ("index_of", "drazin_inverse", "group_inverse", "drazin_times_a"),
    "pinv": ("mp_inverse", "mp_inverse_columns", "mp_inverse_rows", "projector_p", "projector_q"),
    "solvers": ("lsq_solve", "lsq_solve_row_system", "drazin_solve"),
    "matrix_io": ("parse_matrix_text", "parse_matrix_file", "format_output", "format_matrix",
                  "matrix_tokens"),
    "_parallel": ("parallel_map",),
    "golden": ("run_all",),
    "cli": ("main",),
}

WRAPPED = "__perfbench_original__"


def _bits(q) -> int:
    return max(abs(q.numerator).bit_length(), q.denominator.bit_length())


def ledger_bits(result) -> int:
    """Largest bit length in a result's numerator matrix and denominator."""
    nums = result.numerators
    scalars = [s for i in range(nums.rows) for s in nums.row(i)] + [result.denominator]
    return max(max(_bits(s.re), _bits(s.im)) for s in scalars)


def bareiss_updates(n: int) -> int:
    """Inner-loop updates of an order-n Bareiss determinant: sum of k^2, k < n."""
    return (n - 1) * n * (2 * n - 1) // 6


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.op_id = -1
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        with self._lock:
            sid = len(self.names)
            self.names.append(name)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self.parents.append(stack[-1] if stack else -1)
            self.ops.append(self.op_id)
        stack.append(sid)
        self.starts[sid] = perf_counter()
        return sid

    def _close(self, sid: int) -> None:
        self.ends[sid] = perf_counter()
        self._stack().pop()

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def maximum(self, name: str, value: int) -> None:
        with self._lock:
            if value > self.counters[name]:
                self.counters[name] = value

    def _adopt(self, fn, parent: int):
        """Run ``fn`` on a worker thread as a child of span ``parent``."""

        def adopted(item):
            stack = self._stack()
            if stack:
                return fn(item)
            stack.append(parent)
            try:
                return fn(item)
            finally:
                stack.pop()

        return adopted

    def _counted(self, iterator):
        for item in iterator:
            self.count("index_sets.subsets_yielded")
            yield item

    def _wrap(self, module: str, fn):
        name = f"{module}.{fn.__name__}"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if fn.__name__ in ("det_pairs", "rank_pairs"):
                rows = args[0]
                bits = max((max(abs(re).bit_length(), abs(im).bit_length())
                            for r in rows for re, im in r), default=0)
                tracer.maximum("elimination.operand_bits_max", bits)
                if fn.__name__ == "det_pairs":
                    tracer.count("elimination.bareiss_ops", bareiss_updates(args[1]))
            sid = tracer._open(name)
            try:
                if module == "_parallel":
                    args = (tracer._adopt(args[0], sid),) + args[1:]
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if module == "index_sets":
                return tracer._counted(result)
            if module in ("pinv", "drazin") and hasattr(result, "numerators"):
                tracer.maximum(f"{module}.ledger_bits_max", ledger_bits(result))
            return result

        setattr(wrapper, WRAPPED, fn)
        return wrapper

    # -- install / uninstall --------------------------------------------------------------

    def install(self) -> None:
        import adjinv.cli  # noqa: F401  (binds cli and golden before scanning)

        replacement = {}
        for module, fnames in TARGETS.items():
            mod = sys.modules[f"adjinv.{module}"]
            for fname in fnames:
                original = getattr(mod, fname)
                replacement[id(original)] = (original, self._wrap(module, original))
        for _, mod in _adjinv_modules():
            for attr, value in list(vars(mod).items()):
                hit = replacement.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._installed.append((mod, attr, value))

    def uninstall(self) -> None:
        while self._installed:
            mod, attr, original = self._installed.pop()
            setattr(mod, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- summaries -------------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Duration minus the union of the child spans' intervals."""
        children: dict[int, list[int]] = defaultdict(list)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent].append(sid)
        out = [e - s for s, e in zip(self.starts, self.ends)]
        for parent, kids in children.items():
            covered = 0.0
            cur_start = cur_end = None
            for kid in sorted(kids, key=self.starts.__getitem__):
                s, e = self.starts[kid], self.ends[kid]
                if cur_end is None or s > cur_end:
                    if cur_end is not None:
                        covered += cur_end - cur_start
                    cur_start, cur_end = s, e
                else:
                    cur_end = max(cur_end, e)
            if cur_end is not None:
                covered += cur_end - cur_start
            out[parent] -= covered
        return out

    def summary(self) -> tuple[dict[str, int], dict[str, float]]:
        """Per-name call counts and summed self times."""
        selfs = self.self_times()
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for sid, name in enumerate(self.names):
            calls[name] += 1
            self_s[name] += selfs[sid]
        return calls, self_s

    def outermost_s(self, names) -> float:
        """Summed duration of spans in ``names`` with no ancestor in ``names``."""
        names = set(names)
        total = 0.0
        for sid, name in enumerate(self.names):
            if name not in names:
                continue
            parent = self.parents[sid]
            while parent >= 0 and self.names[parent] not in names:
                parent = self.parents[parent]
            if parent < 0:
                total += self.ends[sid] - self.starts[sid]
        return total

    def write(self, path) -> None:
        """Write every span as [name index, start_ns, end_ns, parent, op]."""
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        t0 = self.starts[0] if self.starts else 0.0
        spans = [
            [index[n], round((s - t0) * 1e9), round((e - t0) * 1e9), p, o]
            for n, s, e, p, o in zip(self.names, self.starts, self.ends, self.parents, self.ops)
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": table, "counters": dict(self.counters), "spans": spans}, handle)


def _adjinv_modules():
    return [(name, mod) for name, mod in list(sys.modules.items())
            if mod is not None and (name == "adjinv" or name.startswith("adjinv."))]


def installed_wrappers() -> list[str]:
    """Names of adjinv module attributes that are still tracing wrappers."""
    found = []
    for modname, mod in _adjinv_modules():
        for attr, value in list(vars(mod).items()):
            if callable(value) and hasattr(value, WRAPPED):
                found.append(f"{modname}.{attr}")
    return found
