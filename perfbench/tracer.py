"""Outside-in span tracing of the wshm layers.

The program itself has no tracing.  :class:`Tracer` wraps the public
functions of each layer from outside and installs each wrapper in every
``wshm`` namespace that holds the wrapped object (``diagnostics`` imports
from ``operators`` and ``ideals``; ``cli`` imports from ``diagnostics`` and
``operators``).  Spans stay in memory with their parent's id and are written
out once, after the run.

``algebra`` and ``spaces`` are deliberately not wrapped: they run inside
every caller, and wrapping ``GaussianRational`` arithmetic would distort it.
Their cost shows in their callers' self time.  ``posreg`` and ``parsing`` are
not wrapped either: no workload spends measurable time in them.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (group, module, attribute path).  A group's ``s`` metric is the summed self
# time of its spans: a span's duration minus the part its wrapped children
# cover.
TARGETS = (
    ("ideals.level_data", "wshm.ideals", "GradedIdeal.level_data"),
    ("exact_linalg.rref", "wshm.exact_linalg", "rref"),
    ("exact_linalg.kernel_basis", "wshm.exact_linalg", "kernel_basis"),
    ("exact_linalg.solve", "wshm.exact_linalg", "solve"),
    ("exact_linalg.mat_mul", "wshm.exact_linalg", "mat_mul"),
    ("operators.realization", "wshm.operators", "ModuleRealization.__init__"),
    ("operators.project_to_complement", "wshm.operators", "ModuleRealization.project_to_complement"),
    ("operators.mult_blocks", "wshm.operators", "mult_blocks"),
    ("operators.adjoint_blocks", "wshm.operators", "adjoint_blocks"),
    ("operators.compose", "wshm.operators", "compose"),
    ("operators.float", "wshm.operators", "GradedOperator.onb_block"),
    ("operators.float", "wshm.operators", "GradedOperator.norm"),
    ("operators.float", "wshm.operators", "GradedOperator.singular_values"),
    ("operators.float", "wshm.operators", "pn_split"),
    ("diagnostics.report", "wshm.diagnostics", "normality_report"),
    ("diagnostics.report", "wshm.diagnostics", "qweights_report"),
    ("diagnostics.report", "wshm.diagnostics", "section5_report"),
    ("cli.emit", "wshm.diagnostics", "DiagnosticsReport.to_json"),
)


def _rref_attrs(args, kwargs):
    rows = args[0]
    return {"rows": len(rows), "nnz": sum(len(r) for r in rows)}


def _level_data_key(args, kwargs):
    ideal, ell = args[0], args[1]
    return (repr(ideal), ell)


def _mult_blocks_key(args, kwargs):
    realization, p, K = args
    return (id(realization), str(p), K)


# Per-call attributes: counters summed per group, and a key whose distinct
# values give the group's ``reuse`` ratio (distinct / calls).
_ATTRS = {"exact_linalg.rref": _rref_attrs}
_KEYS = {"ideals.level_data": _level_data_key, "operators.mult_blocks": _mult_blocks_key}


class Tracer:
    """Records spans ``(call, id, parent, name, group, start, end, self_s,
    attrs, key)``; ``call`` is the index of the traced ``main`` call."""

    def __init__(self):
        self.call = 0
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span id, summed child duration]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, group: str, name: str, fn):
        attrs_of = _ATTRS.get(group)
        key_of = _KEYS.get(group)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = attrs_of(args, kwargs) if attrs_of else None
            key = key_of(args, kwargs) if key_of else None
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                spans.append(
                    (self.call, sid, parent, name, group, t0, t1, t1 - t0 - frame[1], attrs, key)
                )

        return wrapper

    def install(self) -> None:
        """Replace every target, in every ``wshm`` namespace holding it."""
        namespaces = [m for n, m in sorted(sys.modules.items()) if n == "wshm" or n.startswith("wshm.")]
        for group, module, path in TARGETS:
            owner_name, _, attr = path.rpartition(".")
            owner = sys.modules[module]
            if owner_name:
                owner = getattr(owner, owner_name)
            original = owner.__dict__[attr]
            wrapped = self._wrap(group, f"{module[5:]}.{path}", original)
            holders = [owner] if owner_name else [
                ns for ns in namespaces if ns.__dict__.get(attr) is original
            ]
            for holder in holders:
                setattr(holder, attr, wrapped)
                self._patches.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def layer_metrics(self, call: int) -> dict[str, float]:
        """Per-group calls, self time, counters and reuse of one traced call."""
        groups = {
            group: {"calls": 0, "s": 0.0, "keys": set()}
            for group, _, _ in TARGETS
        }
        for c, _, _, _, group, _, _, self_s, attrs, key in self.spans:
            if c != call:
                continue
            g = groups[group]
            g["calls"] += 1
            g["s"] += self_s
            if key is not None:
                g["keys"].add(key)
            for a, v in (attrs or {}).items():
                g[a] = g.get(a, 0) + v
        out: dict[str, float] = {}
        for group, g in groups.items():
            out[f"{group}.calls"] = g["calls"]
            out[f"{group}.s"] = g["s"]
            if group in _KEYS:
                out[f"{group}.reuse"] = len(g["keys"]) / g["calls"] if g["calls"] else 0.0
            for a in ("rows", "nnz") if group in _ATTRS else ():
                out[f"{group}.{a}"] = g.get(a, 0)
        return out

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as f:
            for call, sid, parent, name, _, t0, t1, self_s, attrs, _ in self.spans:
                rec = {"call": call, "id": sid, "parent": parent, "name": name,
                       "start": t0, "end": t1, "self_s": self_s}
                if attrs:
                    rec.update(attrs)
                f.write(json.dumps(rec) + "\n")
