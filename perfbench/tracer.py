"""Spans around calls into the syncround modules, recorded from outside.

The tracer replaces a public function by a timing wrapper at every
``syncround`` module that binds the name: ``rounding`` calls the
``eigh`` it imported from ``spectral``, not ``spectral.eigh``, so
patching only the defining module would miss most calls.  Each span
records its name, start, end, parent span and thread; spans are kept
in memory and written out at the end.  Self time is a span's duration
minus the durations of its children, which by construction run on the
same thread.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# spans of this name hold the tracer's own input hashing; they are
# subtracted from their parent's self time and reported nowhere
DIGEST_SPAN = "trace.digest"


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "thread")

    def __init__(self, span_id, name, start, parent, thread):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread


def array_digest(*arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(np.asarray(a))
        h.update(str((a.dtype, a.shape)).encode())
        h.update(a.tobytes())
    return h.digest()


class Tracer:
    """Records spans while installed; restores every binding on ``remove``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.digests: dict[str, list[bytes]] = defaultdict(list)
        self.observed: dict[str, list[float]] = defaultdict(list)
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(
            next(self._ids),
            name,
            time.perf_counter(),
            stack[-1] if stack else -1,
            threading.get_ident(),
        )
        self.spans.append(span)
        stack.append(span.id)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def wrap(self, name: str, fn, digest=None, observe=None):
        """Timing wrapper for ``fn``.

        ``digest(args, kwargs)`` returns bytes identifying the input, for
        distinct-input ratios; ``observe(args, kwargs, result)`` returns
        a number recorded per call.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                if digest is not None:
                    inner = self._open(DIGEST_SPAN)
                    try:
                        self.digests[name].append(digest(args, kwargs))
                    finally:
                        self._close(inner)
                result = fn(*args, **kwargs)
                if observe is not None:
                    self.observed[name].append(float(observe(args, kwargs, result)))
                return result
            finally:
                self._close(span)

        return wrapper

    def install(self, module_name: str, attr: str, name: str, **options) -> int:
        """Wrap ``module_name.attr`` at every syncround module binding it.

        Returns the number of bindings replaced; 0 when the function does
        not exist, so a later refactor that removes it reads as zero work.
        """
        owner = sys.modules.get(module_name)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            return 0
        wrapper = self.wrap(name, original, **options)
        count = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == "syncround" or mod_name.startswith("syncround.")
            ):
                continue
            if getattr(mod, attr, None) is original:
                self._patched.append((mod, attr, original))
                setattr(mod, attr, wrapper)
                count += 1
        return count

    def install_mapping(self, mapping: dict, name: str) -> None:
        """Wrap every value of a dispatch dict (such as the CLI's runners)."""
        for key, original in list(mapping.items()):
            self._patched.append((mapping, key, original))
            mapping[key] = self.wrap(name, original)

    def remove(self) -> None:
        for target, attr, original in reversed(self._patched):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._patched.clear()

    # -- aggregation ----------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Summed self seconds per span name."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += (s.end - s.start) - child_time[s.id]
        return out

    def durations(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += s.end - s.start
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for s in self.spans:
            out[s.name] += 1
        return out

    def write(self, path) -> None:
        """Write every span as one JSON document (times in seconds)."""
        threads = {t: i for i, t in enumerate(dict.fromkeys(s.thread for s in self.spans))}
        doc = {
            "fields": ["id", "name", "start", "end", "parent", "thread"],
            "spans": [
                [s.id, s.name, s.start, s.end, s.parent, threads[s.thread]]
                for s in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
