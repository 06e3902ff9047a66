"""Span tracing for the benchmark's traced mode.

The tracer wraps the public entry points of each zzlie layer by replacing
attributes on their classes and modules; nothing in the package changes.
Each wrapped call records a span (name, start, end, parent) in flat arrays
kept in memory.  Self time is computed from the spans afterwards: a span's
duration minus the part its child spans cover.
"""

from __future__ import annotations

from array import array
from collections import Counter
from time import perf_counter

from zzlie import classify, cli, verify, virmodules
from zzlie.algebras import AlgebraSpec
from zzlie.linsolve import LinearSystem
from zzlie.poly import MultiPoly


def _count_items(tracer, args, report):
    tracer.counters["verify.items"] += report.checked_count


def _count_rejected(tracer, args, ok):
    tracer.systems[id(args[0])] = args[0]
    if ok is False:
        tracer.counters["linsolve.rejected"] += 1


def _count_admitted(tracer, args, eq):
    if not eq["skipped"]:
        tracer.counters["classify.admitted"] += 1


def _count_skipped(tracer, args, solution):
    tracer.counters["classify.skipped"] += solution.skipped


def targets():
    """(owner, attribute, span name, result hook) for every wrapped entry point.

    ``MultiPoly.__rmul__``/``__radd__`` are aliases of ``__mul__``/``__add__``
    and are wrapped separately.  ``cli`` imported ``structure_table`` and
    ``table_to_json`` by name, so they are wrapped on ``cli`` to keep the
    table export out of ``cli.main``'s self time.
    """
    return [
        (MultiPoly, "__mul__", "poly.mul", None),
        (MultiPoly, "__rmul__", "poly.mul", None),
        (MultiPoly, "__add__", "poly.add", None),
        (MultiPoly, "__radd__", "poly.add", None),
        (AlgebraSpec, "basis_bracket", "algebras.basis_bracket", None),
        (AlgebraSpec, "in_domain", "algebras.in_domain", None),
        (cli, "structure_table", "algebras.structure_table", None),
        (cli, "table_to_json", "algebras.table_to_json", None),
        (verify, "check_antisymmetry", "verify.sweep", _count_items),
        (verify, "check_jacobi", "verify.sweep", _count_items),
        (verify, "check_grading", "verify.sweep", _count_items),
        (verify, "find_diagonal_isomorphism", "verify.isomorphism", None),
        (LinearSystem, "add_equation", "linsolve.add_equation", _count_rejected),
        (classify, "recurrence_equation", "classify.recurrence_equation", _count_admitted),
        (classify, "solve_c_window", "classify.solve", _count_skipped),
        (classify, "check_impossibility", "classify.impossibility", None),
        (virmodules, "act", "virmodules.act", None),
        (virmodules, "check_module_axiom", "virmodules.axiom", None),
        (virmodules, "find_intertwiner", "virmodules.intertwine", None),
        (cli, "main", "cli.main", None),
    ]


class Tracer:
    """Installs span-recording wrappers and restores the originals."""

    def __init__(self):
        self.names = []
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counters = Counter()
        self.systems = {}
        self.originals = []
        self._wrappers = []
        for owner, attr, name, hook in targets():
            original = owner.__dict__[attr]
            self.originals.append((owner, attr, original))
            self._wrappers.append(self._wrap(original, name, hook))

    def clear(self):
        """Drop recorded spans and counters; wrappers stay usable."""
        for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del arr[:]
        self.counters.clear()
        self.systems.clear()

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, fn, name, hook):
        nid = self._name_id(name)
        stack = self._stack
        starts, ends = self.span_start, self.span_end
        add_name, add_parent = self.span_name.append, self.span_parent.append
        add_start, add_end = starts.append, ends.append
        push, pop = stack.append, stack.pop
        clock = perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(starts)
            add_name(nid)
            add_parent(stack[-1])
            add_start(0.0)
            add_end(0.0)
            push(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                starts[idx] = t0
                ends[idx] = t1
                pop()
            if hook is not None:
                hook(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        for (owner, attr, _), wrapper in zip(self.originals, self._wrappers):
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in self.originals:
            setattr(owner, attr, original)

    def restored(self):
        """True when every wrapped attribute holds its original object again."""
        return all(owner.__dict__[attr] is original for owner, attr, original in self.originals)

    def span_stats(self):
        """name -> (calls, inclusive seconds, self seconds), from the spans."""
        n = len(self.span_name)
        child = [0.0] * n
        dur = [e - s for s, e in zip(self.span_start, self.span_end)]
        for idx, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += dur[idx]
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for idx in range(n):
            nid = self.span_name[idx]
            calls[nid] += 1
            total[nid] += dur[idx]
            own[nid] += dur[idx] - child[idx]
        return {name: (calls[i], total[i], own[i]) for i, name in enumerate(self.names)}

    def write_spans(self, path):
        """Write the recorded spans as CSV: name, start, end, parent row."""
        base = self.span_start[0] if self.span_start else 0.0
        with open(path, "w") as fh:
            fh.write("span,name,start_s,end_s,parent\n")
            for idx in range(len(self.span_name)):
                fh.write(
                    f"{idx},{self.names[self.span_name[idx]]},"
                    f"{self.span_start[idx] - base:.9f},{self.span_end[idx] - base:.9f},"
                    f"{self.span_parent[idx]}\n"
                )

    def layer_metrics(self):
        """The per-layer metrics of the spans and counters recorded so far."""
        stats = self.span_stats()

        def calls(name):
            return stats.get(name, (0, 0.0, 0.0))[0]

        def incl(name):
            return stats.get(name, (0, 0.0, 0.0))[1]

        def own(name):
            return stats.get(name, (0, 0.0, 0.0))[2]

        items = self.counters["verify.items"]
        admitted = self.counters["classify.admitted"]
        skipped = self.counters["classify.skipped"]
        systems = self.systems.values()
        return {
            "poly.mul.calls": (calls("poly.mul"), "count"),
            "poly.add.calls": (calls("poly.add"), "count"),
            "poly.self_s": (own("poly.mul") + own("poly.add"), "s"),
            "algebras.basis_bracket.calls": (calls("algebras.basis_bracket"), "count"),
            "algebras.basis_bracket.self_s": (own("algebras.basis_bracket"), "s"),
            "algebras.in_domain.calls": (calls("algebras.in_domain"), "count"),
            "algebras.in_domain.s": (incl("algebras.in_domain"), "s"),
            "verify.sweep.s": (incl("verify.sweep"), "s"),
            "verify.sweep.self_s": (own("verify.sweep"), "s"),
            "verify.items": (items, "count"),
            "verify.brackets_per_item": (
                calls("algebras.basis_bracket") / items if items else 0.0, "ratio"
            ),
            "verify.isomorphism.s": (incl("verify.isomorphism"), "s"),
            "linsolve.add_equation.calls": (calls("linsolve.add_equation"), "count"),
            "linsolve.add_equation.s": (incl("linsolve.add_equation"), "s"),
            "linsolve.rejected": (self.counters["linsolve.rejected"], "count"),
            "linsolve.rank": (sum(s.rank() for s in systems), "count"),
            "linsolve.fill_terms": (
                sum(len(row) for s in systems for row, _, _ in s.pivots.values()), "count"
            ),
            "classify.solve.s": (incl("classify.solve"), "s"),
            "classify.solve.self_s": (own("classify.solve"), "s"),
            "classify.recurrence_equation.calls": (calls("classify.recurrence_equation"), "count"),
            "classify.admit_ratio": (
                admitted / (admitted + skipped) if admitted + skipped else 0.0, "ratio"
            ),
            "classify.impossibility.s": (incl("classify.impossibility"), "s"),
            "virmodules.act.calls": (calls("virmodules.act"), "count"),
            "virmodules.act.s": (incl("virmodules.act"), "s"),
            "virmodules.axiom.self_s": (own("virmodules.axiom"), "s"),
            "virmodules.intertwine.s": (incl("virmodules.intertwine"), "s"),
            "cli.main.calls": (calls("cli.main"), "count"),
            "cli.main.self_s": (own("cli.main"), "s"),
        }
