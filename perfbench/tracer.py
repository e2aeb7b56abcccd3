"""In-memory span tracer that wraps functions at the module attribute
their caller looks up.

A wrapped call records one span: name, optional tag, start, end and the
index of the span that was open when it began (its parent). Spans stay in
memory until the run ends. A target that no longer exists is reported as
absent instead of failing, so a refactor that moves or renames a function
leaves the benchmark running and says what it lost.
"""

from __future__ import annotations

import functools
import importlib
import json
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Optional

Tagger = Callable[[tuple, dict], Any]


@dataclass(frozen=True)
class Target:
    module: str  # module whose attribute the caller looks up
    attr: str
    span: str  # span name, e.g. "layers.conv2d_forward"
    tagger: Optional[Tagger] = None  # derives a tag from the call's arguments


class Tracer:
    def __init__(self) -> None:
        # each span is [name, tag, start, end, parent index or -1]
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def install(self, targets: list[Target]) -> None:
        for target in targets:
            where = f"{target.module}.{target.attr}"
            try:
                module = importlib.import_module(target.module)
            except ImportError:
                self.absent.append(where)
                continue
            original = getattr(module, target.attr, None)
            if not callable(original):
                self.absent.append(where)
                continue
            setattr(module, target.attr, self._wrap(original, target.span, target.tagger))
            self._patched.append((module, target.attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _open(self, name: str, tag: Any) -> list:
        record = [name, tag, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _wrap(self, fn: Callable, name: str, tagger: Optional[Tagger]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag = None
            if tagger is not None:
                try:
                    tag = tagger(args, kwargs)
                except Exception:  # a changed signature loses the tag, not the run
                    tag = None
            record = self._open(name, tag)
            record[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                self._stack.pop()

        return traced

    @contextmanager
    def span(self, name: str, tag: Any = None):
        """A span around benchmark-side code, parent of the calls inside it."""
        record = self._open(name, tag)
        record[2] = perf_counter()
        try:
            yield
        finally:
            record[3] = perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [end - start for _, _, start, end, _ in self.spans]
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write_jsonl(self, path) -> None:
        """One JSON object per span, times in seconds from the first span."""
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, tag, start, end, parent) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "tag": tag,
                            "start": round(start - origin, 9),
                            "end": round(end - origin, 9),
                            "parent": parent,
                        }
                    )
                    + "\n"
                )
