"""Per-layer tracing by wrapping the public functions of each tilecohom module.

`Tracer.install()` replaces every traced function in every `tilecohom.*`
namespace that holds it (the package `__init__` re-exports names, and
`groups`/`dirlimit` import `exactalg` names directly), and `uninstall()` puts
the originals back.  Each call records a span (op id, span id, parent span id,
name, start, end) in memory; self time is the span's duration minus the time
covered by its traced children.  Extra per-call statistics are computed after
the span closes and charged to no layer.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# (module, attribute) for functions; (module, class, attribute) for methods.
# The metric name is "<module>.<name>", with IntMatrix.__mul__ named "IntMatrix.mul".
TRACED = (
    ("cli", "run_command"),
    ("tilings", "load_spec"), ("tilings", "builtin"), ("tilings", "validate_spec"),
    ("complexes", "build_chain_complex"), ("complexes", "homology"),
    ("complexes", "substitution_homology_maps"),
    ("spectral", "e2_page"), ("spectral", "d2_image"), ("spectral", "einf_page"),
    ("spectral", "rigid_hull_cohomology"), ("spectral", "hull_cohomology"),
    ("groups", "homology_presentation"), ("groups", "cokernel_structure"),
    ("groups", "induced_hom"), ("groups", "subgroup_structure"), ("groups", "quotient_by"),
    ("dirlimit", "direct_limit"), ("dirlimit", "eventual_data"),
    ("dirlimit", "stable_rank_mod_p"),
    ("exactalg", "smith_normal_form"), ("exactalg", "solve_in_lattice"),
    ("exactalg", "kernel_basis"), ("exactalg", "inverse_unimodular"),
    ("exactalg", "determinant"),
    ("exactalg", "IntMatrix", "__mul__"), ("exactalg", "IntMatrix", "mul_vector"),
)

STATUSES = ("exact", "verified_profile", "undetermined")


def _metric_name(entry):
    if len(entry) == 3:
        return "%s.%s.%s" % (entry[0], entry[1], entry[2].strip("_"))
    return "%s.%s" % entry


def _max_bits(*matrices):
    return max((abs(x).bit_length() for m in matrices for x in m.entries), default=0)


class Tracer:
    """Collects spans and per-function totals; one instance per traced run."""

    def __init__(self, max_spans=300_000):
        self.max_spans = max_spans
        self.spans = []
        self.dropped = 0
        self.op_id = 0
        self.calls = {}
        self.self_s = {}
        self.passes = 0
        self.snf = {"max_dim": 0, "in_max_bits": 0, "out_max_bits": 0}
        self.distinct = {"exactalg.smith_normal_form": 0, "groups.homology_presentation": 0}
        self.status = dict.fromkeys(STATUSES, 0)
        self._seen = {name: set() for name in self.distinct}
        self._stack = []  # [span id, child time] per open span
        self._next_id = 0
        self._restore = []

    # -- statistics hooks, run after the span has closed -------------------

    def _after_snf(self, args, result):
        (a,) = args
        self._seen["exactalg.smith_normal_form"].add((a.rows, a.cols, a.entries))
        s = self.snf
        s["max_dim"] = max(s["max_dim"], a.rows, a.cols)
        s["in_max_bits"] = max(s["in_max_bits"], _max_bits(a))
        s["out_max_bits"] = max(s["out_max_bits"], _max_bits(result.U, result.S, result.V))

    def _after_presentation(self, args, result):
        self._seen["groups.homology_presentation"].add(
            tuple((m.rows, m.cols, m.entries) for m in args))

    def _after_limit(self, args, result):
        self.status[result.status] += 1

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn, after):
        calls, self_s, stack, spans = self.calls, self.self_s, self._stack, self.spans
        calls.setdefault(name, 0)
        self_s.setdefault(name, 0.0)

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                calls[name] += 1
                self_s[name] += end - start - frame[1]
                if len(spans) < self.max_spans:
                    spans.append((self.op_id, span_id, parent[0] if parent else None,
                                  name, start, end))
                else:
                    self.dropped += 1
                if parent is not None:
                    parent[1] += end - start
            if after is not None:
                after(args, result)
                if parent is not None:
                    parent[1] += perf_counter() - end
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        import tilecohom  # noqa: F401  (loads every submodule)

        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "tilecohom" or name.startswith("tilecohom.")}
        hooks = {"exactalg.smith_normal_form": self._after_snf,
                 "groups.homology_presentation": self._after_presentation,
                 "dirlimit.direct_limit": self._after_limit}
        for entry in TRACED:
            name = _metric_name(entry)
            owner = modules["tilecohom." + entry[0]]
            if len(entry) == 3:
                owner = getattr(owner, entry[1])
            attr = entry[-1]
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, hooks.get(name))
            if len(entry) == 3:
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    # -- bookkeeping -------------------------------------------------------

    def end_pass(self):
        """Close one pass over the op list: per-pass distinct inputs are summed."""
        self.passes += 1
        for name, seen in self._seen.items():
            self.distinct[name] += len(seen)
            seen.clear()

    def metrics(self):
        """Per-pass counts and self times, plus the extra statistics."""
        n = max(self.passes, 1)
        out = {}
        for name in self.calls:
            out[name + ".calls"] = self.calls[name] / n
            out[name + ".self_s"] = self.self_s[name] / n
        for name, distinct in self.distinct.items():
            calls = self.calls.get(name, 0)
            out[name + ".distinct_ratio"] = distinct / calls if calls else 0.0
        for stat, value in self.snf.items():
            out["exactalg.smith_normal_form." + stat] = value
        for status, count in self.status.items():
            out["dirlimit.direct_limit.status." + status] = count / n
        return out

    def write_spans(self, path, argvs):
        """JSON lines: a header (column names, op argv by index, dropped span
        count), then one span per line; a span's op is [pass, op index]."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"columns": ["op", "span", "parent", "name", "start", "end"],
                                 "argv": argvs, "dropped": self.dropped}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
