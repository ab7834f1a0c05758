"""Outside-in span recorder for the traced benchmark run.

While a ``Tracer`` is active, each listed function of ``pwvae`` is replaced
by a wrapper that records one span per call: the function, its start and
end (``perf_counter_ns``) and the span that was open when it was called.
The package's modules import each other's functions by name
(``from .nvdm import elbo``), so a function is replaced at every module
attribute that binds it, not only where it is defined.  Methods are
replaced on their class.  Leaving the ``with`` block restores every
binding.  Spans stay in memory; ``summary`` reduces them and
``write_tsv`` writes them out once the benchmark has finished.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass


@dataclass
class FunctionStats:
    calls: int = 0
    self_ns: int = 0


class Tracer:
    """Records one span per call to each target while active.

    ``targets`` are (module, qualified name) pairs inside the package,
    such as ("nvdm", "elbo") or ("tensor", "Tape.backward").
    """

    def __init__(self, package: str, targets):
        self.package = package
        self.names = [f"{module}.{qualname}" for module, qualname in targets]
        self.targets = list(targets)
        # (name index, start ns, end ns, parent span index or -1)
        self.spans: list[tuple[int, int, int, int]] = []
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, index: int, fn):
        spans, open_spans = self.spans, self._open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = open_spans[-1] if open_spans else -1
            slot = len(spans)
            spans.append((index, 0, 0, parent))
            open_spans.append(slot)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                open_spans.pop()
                spans[slot] = (index, start, end, parent)

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in list(sys.modules.items()) if m is not None and (name == self.package or name.startswith(self.package + "."))]
        try:
            for index, (module_name, qualname) in enumerate(self.targets):
                owner = sys.modules[f"{self.package}.{module_name}"]
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                wrapper = self._wrap(index, original)
                if isinstance(owner, type):
                    self._patch(owner, attr, wrapper)
                    continue
                bound = [(m, key) for m in modules for key, value in vars(m).items() if value is original]
                for module, key in bound:
                    self._patch(module, key, wrapper)
        except BaseException:
            self._unpatch()
            raise
        return self

    def _unpatch(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __exit__(self, exc_type, exc, tb):
        self._unpatch()
        return False

    def summary(self) -> dict[str, FunctionStats]:
        """Calls and self time per target name.

        Self time is a span's duration minus the durations of its direct
        children, which all lie inside it.
        """
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        stats = {name: FunctionStats() for name in self.names}
        for slot, (index, start, end, _) in enumerate(self.spans):
            s = stats[self.names[index]]
            s.calls += 1
            s.self_ns += end - start - child_ns[slot]
        return stats

    def starts(self, name: str) -> list[tuple[int, int]]:
        """(start ns, parent span) of every span of one target, in call order."""
        index = self.names.index(name)
        return [(start, parent) for i, start, _, parent in self.spans if i == index]

    def write_tsv(self, path: str, header: str = "") -> None:
        with open(path, "w", encoding="utf-8") as fh:
            if header:
                fh.write(f"# {header}\n")
            fh.write("span\tname\tstart_ns\tend_ns\tparent\n")
            for slot, (index, start, end, parent) in enumerate(self.spans):
                fh.write(f"{slot}\t{self.names[index]}\t{start}\t{end}\t{parent}\n")
