"""Outside-in tracing: wrap library functions without editing them.

A :class:`Tracer` replaces each target of a table (module + qualified
name) by a wrapper that records calls and time, then puts the originals
back. Module-level functions are replaced in *every* ``repro`` module
that holds the same object, because ``from .strings import f`` copies
the binding: patching only the defining module would miss those callers.
Methods are replaced on their class, which every importer shares.

Each target has a mode:

* ``span``  - one span per call (start, duration, parent, op id), kept
  in memory and exported as Chrome trace-event JSON;
* ``timed`` - call count, inclusive and self time, aggregated (for
  per-step methods called tens of thousands of times);
* ``count`` - call count only (for leaf functions called millions of
  times, where a clock read per call would dwarf the call itself).

Self time is a frame's duration minus the part its timed children
cover. A layer groups targets; its time counts only outermost frames,
so a layer whose targets call each other is not counted twice.
"""

from __future__ import annotations

import importlib
import inspect
import os
import pkgutil
import sys
import threading
from dataclasses import dataclass, field
from time import perf_counter

MODES = ("span", "timed", "count")


@dataclass(frozen=True)
class Target:
    """One function or method to wrap."""

    module: str
    qualname: str
    layer: str
    mode: str = "timed"


@dataclass
class TargetStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class LayerStats:
    total_s: float = 0.0
    depth: int = 0


@dataclass
class Span:
    name: str
    span_id: int
    parent: int
    op_id: int
    start: float
    duration: float = 0.0
    args: dict = field(default_factory=dict)


class Tracer:
    """Installs wrappers for a target table and collects what they see."""

    def __init__(self, targets, *, package: str = "repro") -> None:
        self.targets = list(targets)
        self.package = package
        self.stats: dict[Target, TargetStats] = {}
        self.layers: dict[str, LayerStats] = {}
        #: target -> reason it could not be wrapped.
        self.absent: dict[Target, str] = {}
        #: target -> number of bindings replaced (modules + classes).
        self.bindings: dict[Target, int] = {}
        self.spans: list[Span] = []
        #: ``self`` of the last call of each method target, for reading
        #: the public counters of the objects the program built.
        self.last_self: dict[str, object] = {}
        self._patches: list[tuple[object, str, object]] = []
        # Frame stack: [child seconds, span id or 0]. Only the thread
        # that installed the tracer keeps frames; calls from other
        # threads are counted but not timed.
        self._frames: list[list] = []
        self._span_stack: list[int] = [0]
        self._next_span = 1
        self._op_id = 0
        self._thread = None
        self.epoch = perf_counter()

    # -- install / uninstall --------------------------------------------
    def install(self) -> "Tracer":
        self._thread = threading.get_ident()
        # Import the whole package first, so that every module holding a
        # copy of a target exists now and gets patched (and restored).
        _import_package(self.package)
        for target in self.targets:
            if target.mode not in MODES:
                raise ValueError(f"unknown trace mode {target.mode!r}")
            self.stats[target] = TargetStats()
            self.layers.setdefault(target.layer, LayerStats())
            try:
                owner, attr, original = _resolve(target)
            except (ImportError, AttributeError) as exc:
                self.absent[target] = f"{type(exc).__name__}: {exc}"
                continue
            if isinstance(owner, type):
                raw = owner.__dict__.get(attr)
                if not inspect.isfunction(raw):
                    self.absent[target] = (
                        f"{target.qualname} is not a plain method defined on its class"
                    )
                    continue
                self._patch(owner, attr, self._wrap(target, raw, method=True))
                self.bindings[target] = 1
            else:
                wrapper = self._wrap(target, original, method=False)
                count = 0
                for module in _package_modules(self.package):
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, name, wrapper)
                            count += 1
                self.bindings[target] = count
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- operations -------------------------------------------------------
    def op(self, name: str, **args):
        """Context manager for one operation (one run or one add): a
        root span whose id every span inside it carries."""
        return _OpScope(self, name, args)

    # -- wrappers ---------------------------------------------------------
    def _wrap(self, target: Target, original, *, method: bool):
        stats = self.stats[target]
        layer = self.layers[target.layer]
        if target.mode == "count":

            def counted(*args, **kwargs):
                stats.calls += 1
                return original(*args, **kwargs)

            return _named(counted, original)

        make_span = target.mode == "span"
        enter, leave = self._enter, self._leave
        if inspect.isgeneratorfunction(original):
            # Time each resumption: a generator does its work in next(),
            # not in the call that creates it.
            def timed_generator(*args, **kwargs):
                stats.calls += 1
                iterator = original(*args, **kwargs)
                while True:
                    frame = enter(layer, None)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        leave(frame, stats, layer)
                        return
                    except BaseException:
                        leave(frame, stats, layer)
                        raise
                    leave(frame, stats, layer)
                    yield item

            return _named(timed_generator, original)

        name = target.layer
        key = target.qualname
        last_self = self.last_self

        def timed(*args, **kwargs):
            stats.calls += 1
            if method and args:
                last_self[key] = args[0]
            frame = enter(layer, name if make_span else None)
            try:
                return original(*args, **kwargs)
            finally:
                leave(frame, stats, layer)

        return _named(timed, original)

    def _enter(self, layer: LayerStats, span_name):
        if threading.get_ident() != self._thread:
            return None
        layer.depth += 1
        span = None
        if span_name is not None:
            span = Span(
                name=span_name,
                span_id=self._next_span,
                parent=self._span_stack[-1],
                op_id=self._op_id or self._next_span,
                start=0.0,
            )
            self._next_span += 1
            self._span_stack.append(span.span_id)
        frame = [0.0, span, perf_counter()]
        self._frames.append(frame)
        return frame

    def _leave(self, frame, stats: TargetStats, layer: LayerStats) -> None:
        if frame is None:
            return
        elapsed = perf_counter() - frame[2]
        frames = self._frames
        frames.pop()
        if frames:
            frames[-1][0] += elapsed
        stats.total_s += elapsed
        stats.self_s += elapsed - frame[0]
        layer.depth -= 1
        if layer.depth == 0:
            layer.total_s += elapsed
        span = frame[1]
        if span is not None:
            span.start = frame[2]
            span.duration = elapsed
            span.args["self_s"] = elapsed - frame[0]
            self._span_stack.pop()
            self.spans.append(span)

    # -- export -----------------------------------------------------------
    def chrome_trace(self) -> dict:
        """Chrome trace-event JSON of every recorded span."""
        pid = os.getpid()
        events = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": "perfbench"},
            }
        ]
        for span in sorted(self.spans, key=lambda s: (s.start, s.span_id)):
            events.append(
                {
                    "name": span.name,
                    "cat": "perfbench",
                    "ph": "X",
                    "ts": round((span.start - self.epoch) * 1e6, 3),
                    "dur": round(span.duration * 1e6, 3),
                    "pid": pid,
                    "tid": 0,
                    "args": {
                        "span_id": span.span_id,
                        "parent": span.parent,
                        "op_id": span.op_id,
                        **span.args,
                    },
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def layer_total(self, layer: str) -> float:
        stats = self.layers.get(layer)
        return stats.total_s if stats is not None else 0.0

    def layer_calls(self, layer: str) -> int:
        return sum(
            stats.calls for target, stats in self.stats.items() if target.layer == layer
        )


class _OpScope:
    def __init__(self, tracer: Tracer, name: str, args: dict) -> None:
        self.tracer = tracer
        self.name = name
        self.args = args
        self.span: Span | None = None

    def __enter__(self) -> Span:
        tracer = self.tracer
        self.stats = TargetStats()
        self.layer = LayerStats()
        self.frame = tracer._enter(self.layer, self.name)
        self.span = self.frame[1]
        tracer._op_id = self.span.span_id
        self.span.args.update(self.args)
        return self.span

    def __exit__(self, *exc) -> None:
        self.tracer._leave(self.frame, self.stats, self.layer)
        self.tracer._op_id = 0


def _named(wrapper, original):
    wrapper.__name__ = getattr(original, "__name__", wrapper.__name__)
    wrapper.__qualname__ = getattr(original, "__qualname__", wrapper.__qualname__)
    wrapper.__doc__ = getattr(original, "__doc__", None)
    wrapper.__wrapped__ = original
    return wrapper


def _resolve(target: Target):
    """``(owner, attribute, original)`` for a target, or raise."""
    module = importlib.import_module(target.module)
    parts = target.qualname.split(".")
    owner = module
    for part in parts[:-1]:
        owner = getattr(owner, part)
    original = getattr(owner, parts[-1])
    if not callable(original):
        raise AttributeError(f"{target.qualname} is not callable")
    return owner, parts[-1], original


def _import_package(package: str) -> None:
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, prefix=package + "."):
        try:
            importlib.import_module(info.name)
        except ImportError:
            continue  # an optional dependency is missing: nothing to patch


def _package_modules(package: str):
    prefix = package + "."
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == package or name.startswith(prefix))
    ]
