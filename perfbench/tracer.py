"""In-memory span tracer that wraps kfglab's public functions from outside.

Spans record name, start, end and parent; an optional hook stores a count
measured at the same boundary (bytes of the assembled matrices, modes
computed or requested).  Nothing under src/ changes: `install` replaces the
function in every kfglab module that holds it, because several modules
import their dependencies by name (cli imports `eigenmodes`, `evolve`,
`local_fields`; verify imports `assemble_kinetic`, `global_summary`, ...),
and `uninstall` puts the originals back.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter


def _kinetic_bytes(args, kwargs, out) -> dict:
    return {"bytes_out": out.l_dof.nbytes + out.sym.nbytes}


def _modes_computed(args, kwargs, out) -> dict:
    return {"modes_computed": out.count + len(out.diagnostics)}


def _modes_used(args, kwargs, out) -> dict:
    coeffs = args[1] if len(args) > 1 else kwargs["coefficients"]
    return {"modes_used": max(int(c[0]) for c in coeffs) + 1 if coeffs else 0}


def _advance_name(self, *args, **kwargs) -> str:
    kind = "static" if self.system.is_static else "driven"
    return f"evolution.advance_{kind}"


def _suite_name(name, *args, **kwargs) -> str:
    return f"verify.{name}"


# (module, attribute, span name or name function, count hook)
TARGETS = (
    ("kfglab.config", "load_config", "config.load", None),
    ("kfglab.config", "system_from_config", "config.load", None),
    ("kfglab.config", "initial_state_from_config", "config.load", None),
    ("kfglab.bc", "bc_realization", "bc.realization", None),
    ("kfglab.bc", "enumerate_confining_solutions", "bc.enumerate_confining", None),
    ("kfglab.operators", "build_closure", "operators.build_closure", None),
    ("kfglab.operators", "assemble_kinetic", "operators.assemble_kinetic", _kinetic_bytes),
    ("kfglab.operators", "eigenmodes", "operators.eigenmodes", _modes_computed),
    ("kfglab.operators", "synthesize_state", "operators.synthesize_state", _modes_used),
    ("kfglab.evolution", "CayleyPropagator.__init__", "evolution.propagator_init", None),
    ("kfglab.evolution", "CayleyPropagator.advance", _advance_name, None),
    ("kfglab.evolution", "evolve", "evolution.evolve", None),
    ("kfglab.observables", "global_summary", "observables.global_summary", None),
    ("kfglab.observables", "local_fields", "observables.local_fields", None),
    ("kfglab.cli", "cmd_evolve", "cli.cmd_evolve", None),
    ("kfglab.verify", "run_suite", _suite_name, None),
)


class Tracer:
    """Collects spans while installed; single-threaded by design."""

    def __init__(self):
        # each span: [name, start, end, parent index, counts or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if hook is not None:
                rec[4] = hook(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        for module_name, attr, name, hook in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(original, name, hook))
                continue
            original = getattr(module, attr)
            traced = self._wrap(original, name, hook)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "kfglab" or mod_name.startswith("kfglab."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, traced)

    def _patch(self, owner, key, value) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    def write(self, path: Path) -> None:
        """Write every span (name, start, end, parent, counts) as gzipped JSON."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "counts"],
                       "spans": self.spans}, fh)


def layer_stats(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, busy (inclusive) and self time, durations and
    summed counts.  Self time subtracts the direct children's durations,
    which nest inside the parent and do not overlap."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    stats: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": [],
                 "counts": defaultdict(float)}
    )
    for i, (name, start, end, _, counts) in enumerate(spans):
        s = stats[name]
        s["calls"] += 1
        s["busy_s"] += end - start
        s["self_s"] += end - start - child[i]
        s["durations"].append(end - start)
        for key, value in (counts or {}).items():
            s["counts"][key] += value
    return stats
