"""In-memory span recorder that wraps layer entry points from outside.

The program under test is never edited: :meth:`Tracer.wrap` swaps an
attribute of a module, class or instance for a timing wrapper and
:meth:`Tracer.restore` puts every original back.  Spans nest on one
stack (the serve loop is single-threaded), so a span's self time is its
duration minus its children's, and the self times of a tree add up to
its root's duration exactly.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

_MISSING = object()


class Tracer:
    """Spans as ``[name, start, end, parent, run_id]`` rows, kept in
    memory until the run writes them out once."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.run_id: Optional[str] = None
        self.missing_hooks: List[str] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        top = self._stack.pop()
        if top != index:
            raise RuntimeError(
                f"span {self.spans[index][0]!r} closed out of order "
                f"(innermost open span is {self.spans[top][0]!r})"
            )

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    # -- patching ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, generator: bool = False) -> None:
        """Time every call of ``owner.attr`` as a span called *name*.

        With ``generator=True`` the callable returns an iterator and each
        ``next()`` on it is one span, so time spent by the consumer
        between pulls is not charged to the producer.  A hook whose
        target no longer exists is skipped and listed in
        :attr:`missing_hooks`.
        """
        if owner is None or not hasattr(owner, attr):
            label = f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}"
            self.missing_hooks.append(label)
            print(f"perfbench: no hook target {label}", file=sys.stderr)
            return
        raw = vars(owner).get(attr, _MISSING)
        target = getattr(owner, attr)
        if generator:

            @functools.wraps(target)
            def wrapper(*args, **kwargs):
                return self._pull(name, target(*args, **kwargs))

        else:

            @functools.wraps(target)
            def wrapper(*args, **kwargs):
                index = self.open(name)
                try:
                    return target(*args, **kwargs)
                finally:
                    self.close(index)

        if isinstance(raw, (classmethod, staticmethod)):
            wrapper = staticmethod(wrapper)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, raw))

    def _pull(self, name: str, iterator):
        iterator = iter(iterator)
        while True:
            index = self.open(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self.close(index)
            yield item

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> Dict[Tuple[str, str], List[float]]:
        """``(root name, span name) -> [self seconds, calls]``.

        The root is the outermost span of each tree (``setup`` or the
        serve loop), so setup and serve work on the same layer stay
        apart."""
        child_time: Dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        roots: Dict[int, str] = {}
        out: Dict[Tuple[str, str], List[float]] = defaultdict(lambda: [0.0, 0])
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            roots[i] = name if parent is None else roots[parent]
            row = out[(roots[i], name)]
            row[0] += (end - start) - child_time[i]
            row[1] += 1
        return dict(out)

    def inclusive(self, name: str) -> float:
        """Total duration of every span called *name*."""
        return sum(end - start for n, start, end, _, _ in self.spans if n == name)

    def records(self) -> List[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "run_id": r}
            for n, s, e, p, r in self.spans
        ]
