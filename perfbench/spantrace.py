"""Span tracing of charforge's layers, from outside the package.

Each traced function is replaced, wherever a module binds it, by a wrapper
that records one span per call: function, start, end, parent span, whether it
raised, and a few counts taken from its arguments or result. Spans stay in
memory and are reduced to per-layer metrics when the run ends.

Replacing by identity rather than by name matters: optimize.py imports
close_group by name, so patching charforge.groups.close_group alone would
miss every closure the optimizer makes.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, function) pairs; the module is also the layer the span belongs to
TRACED = (
    ("groups", "close_group"),
    ("groups", "element_of"),
    ("characters", "character_table"),
    ("characters", "class_matrices"),
    ("characters", "central_idempotents"),
    ("characters", "isotypic_projectors"),
    ("characters", "verify_orthogonality"),
    ("algebra", "convolve"),
    ("algebra", "decompose_element"),
    ("optimize", "optimize"),
    ("optimize", "build_word_table"),
    ("optimize", "equivalence_check"),
    ("circuits", "circuit_unitary"),
    ("circuits", "embed_gate"),
    ("statevector", "sv_run"),
    ("statevector", "run_gates"),
    ("statevector", "marginal_probabilities"),
    ("statevector", "sample_histogram"),
    ("statevector", "expectation_of_state"),
    ("tableau", "tableau_run"),
    ("tableau", "apply_gate"),
    ("tableau", "measure_symbolic"),
    ("claims", "run_claims"),
)

LAYERS = ("groups", "characters", "algebra", "optimize", "circuits",
          "statevector", "tableau", "claims")


def _body_len(c) -> int:
    return len(c.body_and_suffix()[0])


# counts recorded per span: fn(args, kwargs, result) -> tuple
def _close_counts(a, k, g):
    return (g.order, len(g.classes), g.cayley.itemsize)


def _run_gates_counts(a, k, psi):
    return (a[0].n_qubits, _body_len(a[0]))


def _sample_counts(a, k, h):
    return (h.shots,)


def _tableau_counts(a, k, h):
    return (_body_len(a[0]),)


def _measure_counts(a, k, out):
    return (out[2] - a[2],)  # coins spent: next_coin out minus in


def _table_counts(a, k, t):
    return (t.k,)


def _orth_counts(a, k, rep):
    return (rep.max_residual(),)


def _optimize_counts(a, k, out):
    c, report = a[0], out[1]
    closed = sum(1 for s in report.segments if s.status != "skipped-cap")
    return (report.segments_found, closed, len(c.gates) - len(out[0].gates))


_COUNTS = {
    "close_group": _close_counts,
    "run_gates": _run_gates_counts,
    "sample_histogram": _sample_counts,
    "tableau_run": _tableau_counts,
    "measure_symbolic": _measure_counts,
    "character_table": _table_counts,
    "verify_orthogonality": _orth_counts,
    "optimize": _optimize_counts,
}


class Tracer:
    """Install with `with Tracer(extra_modules) as tr:`; spans accumulate in
    tr.spans as [fid, start, end, parent, raised, counts]."""

    def __init__(self, extra_modules=()):
        self.extra_modules = list(extra_modules)
        self.names: list[tuple[str, str]] = []
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _wrap(self, fid: int, fn, counts):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [fid, 0.0, 0.0, stack[-1] if stack else -1, False, None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[2] = clock()
                span[4] = True
                stack.pop()
                raise
            span[2] = clock()
            stack.pop()
            if counts is not None:
                span[5] = counts(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "charforge" or name.startswith("charforge."))]
        mods += self.extra_modules
        for mod_name, fn_name in TRACED:
            home = sys.modules.get(f"charforge.{mod_name}")
            fn = getattr(home, fn_name, None) if home is not None else None
            if fn is None:
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            fid = len(self.names)
            self.names.append((mod_name, fn_name))
            wrapper = self._wrap(fid, fn, _COUNTS.get(fn_name))
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, fn))
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()
        return False


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb_computed"):
        return "MB"
    if ".us_per_gate." in name:
        return "us"
    if name.endswith("gbps_computed"):
        return "GB/s"
    if name.endswith("_residual_max"):
        return "abs"
    if name.endswith("_yield"):
        return "ratio"
    return "count"


def layer_metrics(tr: Tracer, timed_wall_s: float) -> dict[str, float]:
    """Reduce spans to the per-layer metrics named in BENCHMARK.json."""
    names = tr.names
    fid_of = {fn: i for i, (_, fn) in enumerate(names)}
    spans = tr.spans
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]

    calls = defaultdict(int)
    total = defaultdict(float)
    failed = defaultdict(int)
    self_by_layer = defaultdict(float)
    top_level = 0.0
    for i, s in enumerate(spans):
        fn = names[s[0]][1]
        dur = s[2] - s[1]
        calls[fn] += 1
        total[fn] += dur
        failed[fn] += s[4]
        self_by_layer[names[s[0]][0]] += dur - child_time[i]
        if s[3] < 0:
            top_level += dur

    def spans_of(fn):
        fid = fid_of.get(fn)
        return [s for s in spans if s[0] == fid] if fid is not None else []

    def outer_time(fns):
        """Time in spans of fns not nested inside another span of fns."""
        ids = {fid_of[f] for f in fns if f in fid_of}
        return sum(s[2] - s[1] for s in spans
                   if s[0] in ids and (s[3] < 0 or spans[s[3]][0] not in ids))

    def under(span, fid):
        p = span[3]
        while p >= 0:
            if spans[p][0] == fid:
                return True
            p = spans[p][3]
        return False

    m: dict[str, float] = {}
    closes = spans_of("close_group")
    ok_closes = [s for s in closes if not s[4]]
    m["groups.close_calls"] = len(closes)
    m["groups.close_s"] = total["close_group"]
    m["groups.close_failed"] = failed["close_group"]
    m["groups.elements"] = sum(s[5][0] for s in ok_closes)
    m["groups.element_of_calls"] = calls["element_of"]
    m["groups.element_of_s"] = total["element_of"]
    m["groups.cayley_mb_computed"] = max(
        (s[5][0] ** 2 * s[5][2] / 1e6 for s in ok_closes), default=0.0)

    m["characters.table_calls"] = calls["character_table"]
    m["characters.table_s"] = total["character_table"]
    m["characters.class_matrices_s"] = total["class_matrices"]
    m["characters.classes"] = sum(s[5][0] for s in spans_of("character_table") if not s[4])
    m["characters.idempotents_s"] = outer_time(("central_idempotents", "isotypic_projectors"))
    m["characters.orth_residual_max"] = max(
        (s[5][0] for s in spans_of("verify_orthogonality") if not s[4]), default=0.0)

    opt = [s for s in spans_of("optimize") if not s[4]]
    closed = sum(s[5][1] for s in opt)
    opt_fid = fid_of.get("optimize")
    closes_from_opt = sum(1 for s in closes if under(s, opt_fid))
    m["optimize.segments"] = sum(s[5][0] for s in opt)
    m["optimize.segments_closed"] = closed
    m["optimize.closure_yield"] = closed / closes_from_opt if closes_from_opt else 0.0
    m["optimize.word_table_s"] = total["build_word_table"]
    m["optimize.gates_removed"] = sum(s[5][2] for s in opt)
    m["optimize.equivalence_calls"] = calls["equivalence_check"]
    m["optimize.equivalence_s"] = total["equivalence_check"]

    m["statevector.sample_calls"] = calls["sample_histogram"]
    m["statevector.shots"] = sum(s[5][0] for s in spans_of("sample_histogram") if not s[4])
    m["statevector.sample_s"] = total["sample_histogram"]
    m["statevector.marginal_s"] = total["marginal_probabilities"]
    m["statevector.expectation_calls"] = calls["expectation_of_state"]
    m["statevector.expectation_s"] = total["expectation_of_state"]
    runs = [s for s in spans_of("run_gates") if not s[4]]
    m["statevector.gates_applied"] = sum(s[5][1] for s in runs)
    m["statevector.run_gates_s"] = total["run_gates"]
    for n in (16, 20):
        at_n = [s for s in runs if s[5][0] == n]
        gates = sum(s[5][1] for s in at_n)
        m[f"statevector.us_per_gate.n{n}"] = (
            sum(s[2] - s[1] for s in at_n) / gates * 1e6 if gates else 0.0)
    # each gate reads and writes the whole complex128 state once
    moved = sum(2 * 16 * (1 << s[5][0]) * s[5][1] for s in runs)
    run_s = sum(s[2] - s[1] for s in runs)
    m["statevector.gbps_computed"] = moved / run_s / 1e9 if run_s else 0.0

    tab = spans_of("tableau_run")
    m["tableau.runs"] = len(tab)
    m["tableau.gates_applied"] = sum(s[5][0] for s in tab if not s[4])
    m["tableau.gate_s"] = outer_time(("apply_gate",))
    m["tableau.measure_calls"] = calls["measure_symbolic"]
    m["tableau.measure_s"] = total["measure_symbolic"]
    m["tableau.coins"] = sum(s[5][0] for s in spans_of("measure_symbolic") if not s[4])
    m["tableau.failed"] = failed["tableau_run"]

    m["algebra.convolve_calls"] = calls["convolve"]
    m["algebra.convolve_s"] = total["convolve"]
    m["algebra.decompose_s"] = total["decompose_element"]
    m["claims.run_s"] = total["run_claims"]
    m["circuits.unitary_s"] = total["circuit_unitary"]
    m["circuits.embed_calls"] = calls["embed_gate"]
    m["circuits.embed_s"] = total["embed_gate"]

    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_by_layer[layer]
    m["trace.spans"] = len(spans)
    m["trace.remainder_s"] = timed_wall_s - top_level
    return m
