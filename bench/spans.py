"""Outside-in tracing of ultracon's layers for the benchmark's traced runs.

The tracer wraps the public functions of each package module without
touching the package source.  ``theorems`` and other modules import names
directly (``from .algebra import quotient``), so a wrapper is installed at
every ``ultracon`` module binding of a function, and methods are replaced
in their class dictionary (aliases such as ``Partition.__and__`` included).

Spans are recorded only while an op is running.  Each span holds the
wrapped function, start and end (``perf_counter_ns``), the index of its
parent span (-1 at the top of an op) and the op id.  They stay in memory
and are written out when the run ends; self time is a span's duration
minus the durations of its child spans.
"""

import json
import sys
import time

# (label, module under ultracon, qualified name); classes are traced
# through __init__ so subclass construction via super() is counted too.
TARGETS = (
    ("algebra.Algebra", "algebra", "Algebra.__init__"),
    ("algebra.direct_product", "algebra", "direct_product"),
    ("algebra.quotient", "algebra", "quotient"),
    ("algebra.kernel", "algebra", "kernel"),
    ("algebra.is_homomorphism", "algebra", "is_homomorphism"),
    ("congruence.Congruence", "congruence", "Congruence.__init__"),
    ("congruence.principal_congruence", "congruence", "principal_congruence"),
    ("congruence.con_lattice", "congruence", "con_lattice"),
    ("congruence.Partition.meet", "congruence", "Partition.meet"),
    ("congruence.Partition.join", "congruence", "Partition.join"),
    ("congruence.Partition.from_matrix", "congruence", "Partition.from_matrix"),
    ("constructions.dstar", "constructions", "dstar"),
    ("constructions.product_congruence", "constructions", "product_congruence"),
    ("constructions.ultraproduct", "constructions", "ultraproduct"),
    ("constructions.induced_congruence", "constructions", "induced_congruence"),
    ("theorems.verify_thm1", "theorems", "verify_thm1"),
    ("theorems.verify_thm2", "theorems", "verify_thm2"),
    ("theorems.coordinatewise_quotient_map", "theorems", "coordinatewise_quotient_map"),
    ("theorems.congruence_on_ultraproduct", "theorems", "congruence_on_ultraproduct"),
    ("iso.find_isomorphism", "iso", "find_isomorphism"),
    ("report.to_json", "theorems", "VerificationReport.to_json"),
)

# Counts made at the same boundaries: (counter name, unit).
COUNTERS = (
    ("constructions.relation_bytes", "B"),
    ("algebra.Algebra.entries", "count"),
    ("report.bytes", "B"),
)


def _count_entries(counters, args, result):
    # args[0] is the freshly validated algebra
    counters["algebra.Algebra.entries"] += sum(len(t) for t in args[0].tables.values())


def _count_relation_bytes(counters, args, result):
    # computed, not measured: the |P| x |P| int64 agreement-mask matrix
    counters["constructions.relation_bytes"] += 8 * result.size * result.size


def _count_report_bytes(counters, args, result):
    counters["report.bytes"] += len(result)


POST = {
    "algebra.Algebra": _count_entries,
    "constructions.dstar": _count_relation_bytes,
    "constructions.product_congruence": _count_relation_bytes,
    "report.to_json": _count_report_bytes,
}


class Tracer:
    """Span recorder; set ``op`` to the current op id while an op runs."""

    def __init__(self):
        self.op = None
        self.spans = []
        self.counters = {name: 0 for name, _ in COUNTERS}
        self._stack = []

    def install(self) -> None:
        """Wrap every target at every binding."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "ultracon" or name.startswith("ultracon.")]
        for idx, (label, modname, qualname) in enumerate(TARGETS):
            module = sys.modules["ultracon." + modname]
            owner_name, _, attr = qualname.rpartition(".")
            post = POST.get(label)
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(idx, raw.__func__, post))
                else:
                    wrapped = self._wrap(idx, raw, post)
                scopes = [owner]
            else:
                raw = getattr(module, attr)
                wrapped = self._wrap(idx, raw, post)
                scopes = modules
            found = 0
            for scope in scopes:
                for key, value in list(vars(scope).items()):
                    if value is raw:
                        setattr(scope, key, wrapped)
                        found += 1
            if not found:
                raise RuntimeError(f"no binding of {label} found to trace")

    def _wrap(self, idx, fn, post):
        spans = self.spans
        stack = self._stack
        counters = self.counters
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            sid = len(spans)
            span = [idx, clock(), 0, stack[-1] if stack else -1, op]
            spans.append(span)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if post is not None:
                post(counters, args, result)
            return result

        return traced

    def layer_metrics(self) -> dict:
        """{label: (calls, total_s, self_s)} over every recorded span."""
        n = len(TARGETS)
        calls = [0] * n
        total = [0] * n
        own = [0] * n
        child = [0] * len(self.spans)
        for idx, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for sid, (idx, start, end, _, _) in enumerate(self.spans):
            calls[idx] += 1
            total[idx] += end - start
            own[idx] += end - start - child[sid]
        return {label: (calls[i], total[i] / 1e9, own[i] / 1e9)
                for i, (label, _, _) in enumerate(TARGETS)}

    def write(self, path, meta: dict) -> None:
        """All spans as JSON: times in ns from the first span's start."""
        origin = self.spans[0][1] if self.spans else 0
        rows = [[idx, start - origin, end - origin, parent, op]
                for idx, start, end, parent, op in self.spans]
        data = dict(meta, names=[label for label, _, _ in TARGETS],
                    columns=["name", "start_ns", "end_ns", "parent", "op"], spans=rows)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"))
