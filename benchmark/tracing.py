"""Module-level tracing of greyrisk from outside the package.

Tracer.install finds, at run time, every function that a greyrisk module
defines and replaces it, in every greyrisk module namespace that refers to
it, with a wrapper. Each wrapped call is counted. A call that crosses into
another module (or comes from outside greyrisk) opens a span; a call within
the module whose span is open is only counted, so its time stays in that
span. Spans stay in memory as (parent, "module.function", start, end) until
they are written out.

A span's self time is its duration minus the duration of its child spans,
which always belong to other modules.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import re
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

# Time metrics of single functions: (module, function-name pattern).
FUNCTION_TIMES = {
    "ranking.rank_s": ("ranking", r"^rank"),
    "ranking.superiority_s": ("ranking", r"superiority"),
    "ranking.classify_s": ("ranking", r"^classify"),
    "io.fingerprint_s": ("io", r"fingerprint"),
    "io.load_s": ("io", r"^load"),
    "io.render_s": ("io", r"^(emit|render)"),
    "model.validate_s": ("model", r"^validate"),
}
FUNCTION_CALLS = {
    "incidence.local_volume_calls": ("incidence", r"^local_volume"),
    "model.validate_calls": ("model", r"^validate"),
}
MODULE_SELF_TIMES = ("normalize", "incidence", "weighting", "cli", "pipeline")
MODULE_CALLS = ("ranking", "normalize", "incidence", "weighting")


PACKAGE = "greyrisk"


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float] | None] = []
        self.calls: Counter[str] = Counter()
        self._stack: list[tuple[str, int]] = []  # (module, span index) of open spans

    def _wrap(self, fn, module: str, key: str):
        spans, calls, stack = self.spans, self.calls, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[key] += 1
            if stack and stack[-1][0] == module:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1][1] if stack else -1
            stack.append((module, index))
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (parent, key, start, end)

        return traced

    def install(self) -> None:
        """Wrap every function of every module of the package."""
        pkg = importlib.import_module(PACKAGE)
        for info in pkgutil.walk_packages(pkg.__path__, PACKAGE + "."):
            importlib.import_module(info.name)
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(obj, short, f"{short}.{attr}"))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)][1])

    def mark(self) -> int:
        """Start one measured call: reset the call counts, return its first span index."""
        self.calls.clear()
        return len(self.spans)

    def metrics(self, first: int, last: int) -> dict[str, float]:
        """Per-layer metrics of spans[first:last] and of the calls counted since mark()."""
        spans = self.spans[first:last]
        self_time = [end - start for _, _, start, end in spans]
        for parent, _, start, end in spans:
            if parent >= first:
                self_time[parent - first] -= end - start
        by_key: Counter[str] = Counter()
        for (_, key, _, _), t in zip(spans, self_time):
            by_key[key] += t

        def total(counter, module, pattern=""):
            return sum(v for k, v in counter.items()
                       if k.partition(".")[0] == module and re.search(pattern, k.partition(".")[2]))

        out = {name: float(total(by_key, *spec)) for name, spec in FUNCTION_TIMES.items()}
        out.update({f"{m}.self_s": float(total(by_key, m)) for m in MODULE_SELF_TIMES})
        out.update({name: total(self.calls, *spec) for name, spec in FUNCTION_CALLS.items()})
        out.update({f"{m}.calls": total(self.calls, m) for m in MODULE_CALLS})
        return out

    def write(self, path: Path) -> None:
        """Write every recorded span as CSV: index, parent, function, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,parent,function,start_s,end_s\n")
            for k, (parent, key, start, end) in enumerate(self.spans):
                fh.write(f"{k},{parent},{key},{start!r},{end!r}\n")
