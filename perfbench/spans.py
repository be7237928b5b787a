"""Outside-in tracing of the roundfold layers.

`Tracer.install` replaces every public function of every `roundfold.*` module
on every module attribute that binds it (modules import names directly, so
`census.validate_page` and `pages.validate_page` are both wrapped).  Nothing
inside the package is edited.  Spans are not kept one by one: each finished
span is folded into a per (caller, callee) record of calls, inclusive seconds
and self seconds, so a census with millions of calls uses constant memory.

A span's self time is its duration minus the durations of its child spans.
A few hooks read the page argument of chosen calls to count work by page
size, as the census counters and the encoding growth curve need.
"""

from __future__ import annotations

import inspect
import sys
import time

PACKAGE = "roundfold"
ROOT = "<root>"


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def _page_s(graph) -> int:
    return sum(1 for v in graph.vertices if v.kind.value != "boundary")


def _closed_genus(graph) -> int | None:
    """Handle count of a closed page without saddle_b pieces (the
    orientable_closed_page shape), else None."""
    kinds = [v.kind.value for v in graph.vertices]
    if "boundary" in kinds or "saddle_b" in kinds:
        return None
    return kinds.count("saddle_p") // 2


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # frames: [callee key, inclusive seconds of children]
        self.records: dict[str, dict[str, list]] = {}  # callee -> caller -> [calls, incl, self]
        self.counters: dict[str, float] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- counters fed by hooks ------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _skeleton(self, args, result, dur):
        s = _page_s(args[0])
        self.count(f"census.skeletons.s{s}")
        if not result.ok:
            codes = {v.code for v in result.violations}
            reason = "disconnected" if "disconnected" in codes else "other"
            self.count(f"census.skeletons_rejected.{reason}.s{s}")

    def _twist_candidate(self, args, result, dur):
        self.count(f"census.twist_candidates.s{_page_s(args[0])}")

    def _census_class(self, args, result, dur):
        self.count(f"census.classes.s{_page_s(args[0].page)}")

    def _encoding(self, args, result, dur):
        g = _closed_genus(args[0])
        if g is not None:
            self.count(f"pages.encode.g{g:02d}.calls")
            self.count(f"pages.encode.g{g:02d}.s", dur)

    def _hooks_for(self, binding: str, layer: str, name: str):
        hooks = []
        if binding == "census":
            hooks += {
                "validate_page": [self._skeleton],
                "canonical_page_encoding": [self._twist_candidate],
                "canonical_form": [self._census_class],
            }.get(name, [])
        if layer == "pages" and name == "canonical_page_encoding":
            hooks.append(self._encoding)
        if layer in ("jsonio", "render"):
            counter = f"{layer}.bytes_out"

            def text_bytes(args, result, dur):
                if isinstance(result, str):
                    self.count(counter, len(result.encode("utf-8")))

            hooks.append(text_bytes)
        return tuple(hooks)

    # -- wrapping -------------------------------------------------------------

    def _run_hooks(self, hooks, args, result, dur) -> None:
        # hook time is charged to nobody: it is added to the parent's children
        t0 = time.perf_counter()
        for hook in hooks:
            hook(args, result, dur)
        if self.stack:
            self.stack[-1][1] += time.perf_counter() - t0

    def _wrap(self, fn, binding: str):
        layer = _short(fn.__module__)
        key = f"{layer}.{fn.__name__}"
        hooks = self._hooks_for(binding, layer, fn.__name__)
        stack = self.stack
        push, pop = stack.append, stack.pop
        clock = time.perf_counter
        by_caller = self.records.setdefault(key, {})  # caller -> [calls, incl, self]
        tracer = self

        def record(dur: float, child: float, new_call: bool) -> None:
            if stack:
                parent = stack[-1]
                parent[1] += dur
                caller = parent[0]
            else:
                caller = ROOT
            rec = by_caller.get(caller)
            if rec is None:
                rec = by_caller[caller] = [0, 0.0, 0.0]
            rec[0] += new_call
            rec[1] += dur
            rec[2] += dur - child

        if inspect.isgeneratorfunction(fn):

            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                first = True
                try:
                    while True:
                        frame = [key, 0.0]
                        push(frame)
                        start = clock()
                        try:
                            value = next(gen)
                        except StopIteration:
                            return
                        finally:
                            dur = clock() - start
                            pop()
                            record(dur, frame[1], first)
                            first = False
                        yield value
                finally:
                    gen.close()

            gen_wrapper.__wrapped__ = fn
            return gen_wrapper

        def wrapper(*args, **kwargs):
            frame = [key, 0.0]
            push(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                pop()
                # record() inlined: this path runs once per traced call
                if stack:
                    parent = stack[-1]
                    parent[1] += dur
                    caller = parent[0]
                else:
                    caller = ROOT
                rec = by_caller.get(caller)
                if rec is None:
                    rec = by_caller[caller] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
            if hooks:
                tracer._run_hooks(hooks, args, result, dur)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        prefix = PACKAGE + "."
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(prefix))
        ]
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__name__.startswith("_") or not obj.__module__.startswith(prefix):
                    continue
                self._saved.append((mod, name, obj))
                setattr(mod, name, self._wrap(obj, _short(mod.__name__)))

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._saved):
            setattr(mod, name, obj)
        self._saved.clear()

    def report(self) -> dict:
        return {
            "records": [
                [caller, callee, *rec]
                for callee, by_caller in sorted(self.records.items())
                for caller, rec in sorted(by_caller.items())
            ],
            "counters": dict(sorted(self.counters.items())),
        }
