"""Per-call spans and counts at multiseg's module boundaries.

`Tracer.install()` rebinds the traced public functions in every loaded
multiseg module namespace that holds them (and the two render methods on
GrothExpr), so calls between modules go through a wrapper that records a
span (name, start, end, parent, item) and counts.  `uninstall()` puts the
originals back.  Nothing in the package itself is edited.

Self time of a span is its duration minus the time covered by its child
spans; summed per module it says where an item's time went.  Spans stay in
memory; at most SPAN_CAP spans of the high-volume names are kept (their
counts and times are always complete), and `dump()` returns everything for
writing out at the end of a run.
"""

from __future__ import annotations

import sys
import time

SPAN_CAP = 50_000
MODULES = ("cli", "paramfile", "params", "resolve", "groth", "ladders",
           "core", "signs", "wedges", "outside")
# names whose calls can run into the millions
HOT = {"groth.canonical_word", "groth.induce", "groth.jac_theta", "groth.jac_left",
       "groth.jac_right", "ladders.peel_left", "ladders.peel_right"}


def _terms(expr) -> int:
    return len(expr.terms)


def _peak(tr, args, result):
    n = _terms(result)
    if n > tr.peak_terms:
        tr.peak_terms = n


def _jac_theta(tr, args, result):
    tr.counts["groth.jac_theta.terms_in"] += _terms(args[2])
    tr.counts["groth.jac_theta.terms_out"] += _terms(result)
    _peak(tr, args, result)


def _induce(tr, args, result):
    tr.counts["groth.induce.terms_out"] += _terms(result)
    _peak(tr, args, result)


def _count(counter, size):
    def measure(tr, args, result):
        tr.counts[counter] += size(args, result)
    return measure


# (module, attribute, span name, measure); a class attribute is "Class.attr"
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("cli", "_emit", "cli.render.emit", None),
    ("groth", "GrothExpr.to_json", "cli.render.to_json", None),
    ("groth", "GrothExpr.__str__", "cli.render.str", None),
    ("paramfile", "parse_parameter_file", "paramfile.parse_parameter_file", None),
    ("params", "dominate", "params.dominate",
     _count("params.dominate.peel_points", lambda a, r: len(r[1]))),
    ("resolve", "resolve_param", "resolve.resolve_param",
     _count("resolve.resolve_param.steps", lambda a, r: len(r.trace))),
    ("resolve", "verify_cancellation", "resolve.verify_cancellation",
     _count("resolve.verify_cancellation.checks", lambda a, r: len(r["checks"]))),
    ("groth", "jac_theta_seq", "groth.jac_theta_seq", _peak),
    ("groth", "jac_theta", "groth.jac_theta", _jac_theta),
    ("groth", "jac_left", "groth.jac_left", _peak),
    ("groth", "jac_right", "groth.jac_right", _peak),
    ("groth", "induce", "groth.induce", _induce),
    ("groth", "canonical_word", "groth.canonical_word",
     _count("groth.canonical_word.atoms", lambda a, r: len(a[0]))),
    ("ladders", "peel_left", "ladders.peel_left", None),
    ("ladders", "peel_right", "ladders.peel_right", None),
    ("ladders", "trunc_ladder", "ladders.trunc_ladder", None),
    ("core", "mw_dual", "core.mw_dual", _count("core.mw_dual.segments_in", lambda a, r: len(a[0]))),
    ("core", "parse_multisegment", "core.parse_multisegment", None),
    ("signs", "z_sets", "signs.z_sets", None),
    ("signs", "theta_ratio_WU", "signs.theta_ratio_WU", None),
    ("wedges", "check_nilpotent", "wedges.check_nilpotent", None),
    ("wedges", "check_theta_sign", "wedges.check_theta_sign", None),
    ("wedges", "subset_complex_homology", "wedges.subset_complex_homology", None),
)
SPAN_NAMES = tuple(t[2] for t in TARGETS)
COUNT_NAMES = ("params.dominate.peel_points", "resolve.resolve_param.steps",
               "resolve.verify_cancellation.checks", "groth.jac_theta.terms_in",
               "groth.jac_theta.terms_out", "groth.induce.terms_out",
               "groth.canonical_word.atoms", "core.mw_dual.segments_in")


def module_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def is_traced(fn) -> bool:
    return getattr(fn, "_perfbench_traced", False)


def traced_names() -> list:
    """Names of traced targets currently bound to a wrapper anywhere in multiseg."""
    found = []
    for modname, mod in list(sys.modules.items()):
        if modname == "multiseg" or modname.startswith("multiseg."):
            found += [f"{modname}.{k}" for k, v in vars(mod).items() if is_traced(v)]
    groth = sys.modules.get("multiseg.groth")
    if groth is not None:
        found += [f"GrothExpr.{k}" for k, v in vars(groth.GrothExpr).items() if is_traced(v)]
    return found


class Tracer:
    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}  # calls, total, self
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.peak_terms = 0
        self.spans: list = []      # (id, name, start, end, parent, item)
        self.stack: list = []      # [span id, time covered by children]
        self.next_id = 0
        self.hot_kept = 0
        self.item = None
        self.outside_s = 0.0       # item time not under any traced span
        self._undo: list = []

    # ---------------------------------------------------------- wrapping
    def _wrap(self, name: str, fn, measure):
        stat = self.stats[name]
        stack, spans, clock = self.stack, self.spans, time.perf_counter
        hot = name in HOT
        tr = self

        def wrapper(*args, **kwargs):
            sid = tr.next_id
            tr.next_id = sid + 1
            keep = not hot or tr.hot_kept < SPAN_CAP
            if hot and keep:
                tr.hot_kept += 1
            frame = [sid, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[1]
                if keep:
                    spans.append((sid, name, t0, t1, parent, tr.item))
            if measure is not None:
                measure(tr, args, result)
            return result

        wrapper._perfbench_traced = True
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        mods = {k: v for k, v in sys.modules.items()
                if k == "multiseg" or k.startswith("multiseg.")}
        for modname, attr, name, measure in TARGETS:
            home = sys.modules["multiseg." + modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = vars(cls)[meth]
                setattr(cls, meth, self._wrap(name, orig, measure))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(home, attr)
            wrapper = self._wrap(name, orig, measure)
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    # ---------------------------------------------------------- results
    def module_self(self) -> dict:
        out = dict.fromkeys(MODULES, 0.0)
        for name, (_, _, self_s) in self.stats.items():
            out[module_of(name)] += self_s
        out["outside"] += self.outside_s
        return out

    def merge(self, child: dict, item, wall_s: float) -> None:
        """Fold a child process's dump() into this tracer; the part of the
        child's wall time outside cli.main (interpreter start, import,
        exit) counts as outside."""
        for name, (calls, total, self_s) in child["stats"].items():
            st = self.stats[name]
            st[0] += calls
            st[1] += total
            st[2] += self_s
        for name, value in child["counts"].items():
            self.counts[name] += value
        self.peak_terms = max(self.peak_terms, child["peak_terms"])
        self.outside_s += max(0.0, wall_s - child["stats"]["cli.main"][1])
        base = self.next_id
        for sid, name, t0, t1, parent, _ in child["spans"]:
            self.spans.append((base + sid, name, t0, t1, base + parent if parent >= 0 else -1, item))
        self.next_id = base + child["next_id"]

    def dump(self) -> dict:
        return {"stats": self.stats, "counts": self.counts, "peak_terms": self.peak_terms,
                "spans": self.spans, "next_id": self.next_id,
                "spans_dropped": self.next_id - len(self.spans)}
