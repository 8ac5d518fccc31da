"""Wall-clock spans placed around calls into the program's layers.

Nothing here edits the program: entering a :class:`Tracer` window
replaces the public methods its plan names with thin wrappers on their
classes, and leaving the window puts the originals back.

Two kinds of wrapper exist:

* **timed** — a span: start and end stamps, the caller's span as parent.
  Self time (a span's duration minus the part its child spans cover) is
  accumulated per ``(layer, parent layer)`` pair as each span closes, so
  per-tick layers that open millions of spans cost no memory.  Spans of
  *recorded* layers (the coarse ones: campaign jobs, restores, store
  writes, fleet calls) are also kept as ``(name, start, end, parent,
  run id)`` tuples and written out when the benchmark ends.
* **counted** — calls made many times per tick (``Variable.get``/``set``,
  ``ControlWordTable.consult``) are only counted, per enclosing layer.

A root frame covers the traced window, so the per-layer self times plus
the root's own time (``unattributed``) sum exactly to the window's wall
time.  The timed wrappers' own cost is measured once (:func:`calibrate`)
and moved out of the layers into a separate ``wrapper`` share, which
keeps that sum intact.

Counting wrappers cost more than the calls they count, so a window
either times or counts: a timing window installs no counted wrappers,
and a counting window runs the same plan with :func:`zero_clock`, so
its spans only mark which layer a counted call was made in.
"""

from __future__ import annotations

import functools
import inspect
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from perfbench.common import median

ROOT = "unattributed"
WRAPPER = "wrapper"

#: Counted call names a tracer can tell apart.
MAX_COUNTED = 4

# Frame slots: start ns, child ns, timed children, layer index, recorded
# span id (-1 for unrecorded layers), and the counted calls made inside
# (None until the first one, then one slot per counted name).
_START, _CHILD, _KIDS, _LAYER, _SPAN, _COUNTS = range(6)
# Accumulator slots per (layer, parent layer): self ns, spans, timed
# children, then the counted calls made inside, per counted name.
_NS, _CALLS, _ACC_KIDS, _ACC_COUNTS = range(4)


class Tracer:
    """Span stack, per-layer accumulators and the recorded span list."""

    def __init__(self, clock=time.perf_counter_ns, plan=(), probes=None) -> None:
        self.clock = clock
        self.plan = list(plan)
        self.probes = probes
        self.layers: List[str] = [ROOT]
        self._index: Dict[str, int] = {ROOT: 0}
        self.counted_names: List[str] = []
        self.pairs: Dict[Tuple[int, int], List[int]] = {}
        self.spans: List[Optional[Tuple[str, int, int, int, str]]] = []
        self._span_stack: List[int] = [-1]
        self.stack: List[list] = []
        self.run_id = ""
        self.wall_ns = 0
        self._patches: List[Tuple[Any, str, Any]] = []

    def layer(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.layers)
            self.layers.append(name)
        return self._index[name]

    # -- the window ----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        if self.probes is not None:
            self.probes.install(self)
        self.install(self.plan)
        self.stack.append([self.clock(), 0, 0, 0, -1, None])
        return self

    def __exit__(self, *exc) -> None:
        end = self.clock()
        self.uninstall()
        root = self.stack.pop()
        if self.stack:
            raise RuntimeError("span stack not empty at the end of the window")
        self.wall_ns += end - root[_START]
        self._close(root, end - root[_START], 0)

    def _close(self, frame: list, duration: int, parent_layer: int) -> None:
        key = (frame[_LAYER], parent_layer)
        acc = self.pairs.get(key)
        if acc is None:
            acc = self.pairs[key] = [0] * (3 + MAX_COUNTED)
        acc[_NS] += duration - frame[_CHILD]
        acc[_CALLS] += 1
        acc[_ACC_KIDS] += frame[_KIDS]
        counts = frame[_COUNTS]
        if counts is not None:
            for i, count in enumerate(counts):
                acc[_ACC_COUNTS + i] += count

    def _push(self, layer: int, record: bool) -> list:
        span = -1
        if record:
            span = len(self.spans)
            self.spans.append(None)
            self._span_stack.append(span)
        frame = [self.clock(), 0, 0, layer, span, None]
        self.stack.append(frame)
        return frame

    def _pop(self, frame: list) -> None:
        end = self.clock()
        if self.stack.pop() is not frame:
            raise RuntimeError("spans closed out of order")
        duration = end - frame[_START]
        parent = self.stack[-1]
        parent[_CHILD] += duration
        parent[_KIDS] += 1
        self._close(frame, duration, parent[_LAYER])
        span = frame[_SPAN]
        if span >= 0:
            self._span_stack.pop()
            self.spans[span] = (
                self.layers[frame[_LAYER]],
                frame[_START],
                end,
                self._span_stack[-1],
                self.run_id,
            )

    def span(self, name: str, record: bool = True) -> "_Span":
        """A context-manager span, for the benchmark's own call sites."""
        return _Span(self, self.layer(name), record)

    # -- wrappers ------------------------------------------------------------

    def timed(self, name: str, fn, record: bool = False):
        """*fn* wrapped in a span of layer *name*."""
        layer = self.layer(name)
        push, pop = self._push, self._pop
        if record or inspect.iscoroutinefunction(fn):
            if inspect.iscoroutinefunction(fn):

                @functools.wraps(fn)
                async def async_wrapper(*args, **kwargs):
                    frame = push(layer, record)
                    try:
                        return await fn(*args, **kwargs)
                    finally:
                        pop(frame)

                return async_wrapper

            @functools.wraps(fn)
            def recorded_wrapper(*args, **kwargs):
                frame = push(layer, record)
                try:
                    return fn(*args, **kwargs)
                finally:
                    pop(frame)

            return recorded_wrapper

        # The per-tick path: the same steps as _push/_pop, inlined.
        clock = self.clock
        stack = self.stack
        close = self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [clock(), 0, 0, layer, -1, None]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                if stack.pop() is not frame:
                    raise RuntimeError("spans closed out of order")
                duration = end - frame[0]
                parent = stack[-1]
                parent[1] += duration
                parent[2] += 1
                close(frame, duration, parent[3])

        return wrapper

    def counted(self, name: str, fn):
        """*fn* wrapped to count its calls inside the enclosing span."""
        if name not in self.counted_names:
            if len(self.counted_names) == MAX_COUNTED:
                raise ValueError(f"at most {MAX_COUNTED} counted names")
            self.counted_names.append(name)
        slot = self.counted_names.index(name)
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            top = stack[-1]
            counts = top[_COUNTS]
            if counts is None:
                counts = top[_COUNTS] = [0] * MAX_COUNTED
            counts[slot] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner: Any, attr: str, wrapper) -> None:
        """Replace ``owner.attr`` until :meth:`uninstall`."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self, plan: Iterable[Tuple[Any, str, str, str]]) -> "Tracer":
        """Wrap each ``(owner, attribute, kind, layer)`` of *plan*.

        *kind* is ``"timed"``, ``"recorded"`` (a timed layer whose spans
        are kept) or ``"counted"``.
        """
        for owner, attr, kind, name in plan:
            original = owner.__dict__[attr]
            if kind == "counted":
                wrapper = self.counted(name, original)
            else:
                wrapper = self.timed(name, original, record=kind == "recorded")
            self.patch(owner, attr, wrapper)
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def _select(self, name: str, parents: Optional[Sequence[str]]):
        """The accumulators of *name*'s spans, under *parents* if given."""
        layer = self._index.get(name)
        if layer is None:
            return []
        wanted = None
        if parents is not None:
            wanted = {self._index[p] for p in parents if p in self._index}
        return [
            (lay, acc)
            for (lay, parent), acc in self.pairs.items()
            if lay == layer and (wanted is None or parent in wanted)
        ]

    def self_ns(
        self,
        name: str,
        parents: Optional[Sequence[str]] = None,
        overhead: Optional["Overhead"] = None,
    ) -> float:
        """Self ns of *name*'s spans (only those under *parents*, if given).

        With *overhead* the calibrated wrapper cost is taken out: each
        span's inside share and each child span's outside share.
        """
        total = 0.0
        for layer, acc in self._select(name, parents):
            total += acc[_NS]
            if overhead is not None:
                total -= overhead.cost(acc, root=layer == 0)
        return total

    def calls_of(self, name: str, parents: Optional[Sequence[str]] = None) -> int:
        return sum(acc[_CALLS] for _layer, acc in self._select(name, parents))

    def count_of(self, name: str, within: Optional[Sequence[str]] = None) -> int:
        """Counted calls of *name* made directly inside *within* layers."""
        if name not in self.counted_names:
            return 0
        slot = _ACC_COUNTS + self.counted_names.index(name)
        layers = within if within is not None else self.layers
        return sum(acc[slot] for layer in layers for _l, acc in self._select(layer, None))

    def layer_self_ns(self, overhead: Optional["Overhead"] = None) -> Dict[str, float]:
        """Self ns per layer (the root as ``unattributed``).

        With *overhead* the wrapper cost moves to a :data:`WRAPPER`
        entry; either way the values sum to :attr:`wall_ns`.
        """
        out = {name: self.self_ns(name, overhead=overhead) for name in self.layers}
        if overhead is not None:
            out[WRAPPER] = sum(
                overhead.cost(acc, root=layer == 0)
                for (layer, _parent), acc in self.pairs.items()
            )
        return out

    def span_records(self) -> List[Tuple[str, int, int, int, str]]:
        return [span for span in self.spans if span is not None]


class _Span:
    __slots__ = ("tracer", "layer", "record", "frame")

    def __init__(self, tracer: Tracer, layer: int, record: bool) -> None:
        self.tracer = tracer
        self.layer = layer
        self.record = record

    def __enter__(self) -> "_Span":
        self.frame = self.tracer._push(self.layer, self.record)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer._pop(self.frame)


class Overhead:
    """Calibrated cost of a timed wrapper, in ns per span.

    ``inside`` is the part it adds inside its own span, ``outside`` the
    part it adds to its parent's span.
    """

    def __init__(self, inside: float, outside: float) -> None:
        self.inside = inside
        self.outside = outside

    def cost(self, acc: Sequence[int], root: bool = False) -> float:
        """The wrapper ns inside one accumulator's spans."""
        spans = 0 if root else acc[_CALLS]
        return spans * self.inside + acc[_ACC_KIDS] * self.outside


def zero_clock() -> int:
    """The clock of a counting window: spans mark layers, time nothing."""
    return 0


def _noop(*_args) -> None:
    return None


def calibrate(calls: int = 100_000, repeats: int = 5) -> Overhead:
    """Measure the per-tick timed wrapper's own cost on an empty function.

    Each figure is the median over *repeats* loops of *calls* calls.
    """
    clock = time.perf_counter_ns
    inside: List[float] = []
    outside: List[float] = []
    arg = object()
    for _ in range(repeats):
        start = clock()
        for _ in range(calls):
            _noop(arg)
        bare = (clock() - start) / calls

        tracer = Tracer()
        timed = tracer.timed("calibrate", _noop)
        with tracer:
            start = clock()
            for _ in range(calls):
                timed(arg)
            wrapped = (clock() - start) / calls
        measured = tracer.self_ns("calibrate") / calls
        inside.append(measured - bare)
        outside.append(wrapped - measured)
    return Overhead(median(inside), median(outside))
