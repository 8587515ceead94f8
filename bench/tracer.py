"""Spans and counters around calls into endogrow's public functions.

Installed only in a traced child process.  Nothing in the program is
edited: the tracer rebinds each wrapped function's name in every
``endogrow.*`` module that holds it (``products`` calls ``mat_mul`` through
its own module global, for example) and patches methods on the concrete
group and endomorphism classes.

Three kinds of wrapper, cheapest last:

* span: timed, and kept as a span record (name, start, end, parent span,
  operation id) written out when the run ends;
* timed: timed and nested like a span, but only summed, because it is
  called hundreds of thousands of times (``mat_mul``, ``word_length``,
  ``apply``);
* count: only counted (``multiply``, ``check``, ``action_of``,
  ``exact_length``).

Self time of a timed call is its duration minus the time its timed
children cover.  Total time of a name counts only its outermost calls, so
recursion (``exact_growth_rate`` on products) is not counted twice.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# class name -> the kind label the group or endo reports
GROUP_KINDS = {
    "FreeAbelian": "free_abelian",
    "Free": "free",
    "Heisenberg": "heisenberg",
    "DirectProduct": "direct_product",
    "FreeProduct": "free_product",
    "Semidirect": "semidirect",
    "AbelianQuotient": "abelian_quotient",
}
ENDO_KINDS = {
    "WordEndo": "words",
    "MatrixEndo": "matrix",
    "HeisenbergEndo": "heisenberg",
    "SemidirectEndo": "semidirect",
    "ProductEndo": "product",
    "QuotientEndo": "quotient",
}


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.stack = []  # [name, start, child_time, span_index]
        self.depth = defaultdict(int)
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)  # work counts other than calls
        self.spans = []
        self.op = None

    # -- frames ---------------------------------------------------------------

    def enter(self, name, span):
        index = None
        if span:
            parent = next((f[3] for f in reversed(self.stack) if f[3] is not None), None)
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self.op])
        self.depth[name] += 1
        self.calls[name] += 1
        frame = [name, time.perf_counter(), 0.0, index]
        self.stack.append(frame)
        return frame

    def leave(self, frame, labels=()):
        end = time.perf_counter()
        self.stack.pop()
        name, start, child, index = frame
        duration = end - start
        self.depth[name] -= 1
        self.self_time[name] += duration - child
        if self.depth[name] == 0:
            self.total[name] += duration
            for label in labels:
                self.total[label] += duration
        if self.stack:
            self.stack[-1][2] += duration
        if index is not None:
            self.spans[index][1] = start - self.t0
            self.spans[index][2] = end - self.t0
        return duration

    @contextmanager
    def op_span(self, op_id):
        """The span of one benchmark operation; its children carry its id."""
        self.op = op_id
        frame = self.enter("op", True)
        try:
            yield
        finally:
            self.leave(frame)
            self.op = None

    # -- wrappers -------------------------------------------------------------

    def timed(self, fn, name, span=False, label=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer.enter(name, span)
            labels = ()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                tracer.leave(frame, (label(args),) if label else ())
                raise
            if label:
                labels = (label(args),)
            duration = tracer.leave(frame, labels)
            if after is not None:
                after(tracer, args, result, duration)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, fn, name):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- report ---------------------------------------------------------------

    def report(self):
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_time),
            "counts": dict(self.counts),
            "spans": self.spans,
        }


def _multiplies(tracer):
    return sum(v for k, v in tracer.calls.items() if k.startswith("multiply."))


def _after_word_apply(tracer, args, result, duration):
    tracer.counts["growth.letters"] += len(result)


def install():
    """Wrap the public functions and methods of the endogrow modules loaded
    so far (importing the package loads all but ``cli``); returns the Tracer."""
    import endogrow  # noqa: F401

    tracer = Tracer()
    modules = [m for n, m in sys.modules.items() if n == "endogrow" or n.startswith("endogrow.")]

    def rebind(module_name, attr, wrapper_for):
        if module_name not in sys.modules:
            return
        original = getattr(sys.modules[module_name], attr)
        wrapped = wrapper_for(original)
        for module in modules:
            if module.__dict__.get(attr) is original:
                setattr(module, attr, wrapped)

    rows = lambda args: args[0].rows  # noqa: E731
    endo_kind = lambda args: ENDO_KINDS.get(type(args[0]).__name__, "other")  # noqa: E731

    def enumerate_wrapper(fn):
        entered = []  # multiply count at entry of each active call

        def after(tracer, args, census, duration):
            kind = GROUP_KINDS.get(type(args[0]).__name__, type(args[0]).__name__)
            if _multiplies(tracer) == entered[-1]:
                # multiplied nothing: answered from the program's own cache
                tracer.counts["ball.enumerate.cache_hits"] += 1
                return
            tracer.counts[f"ball.elements.{kind}"] += census.counts[-1]
            tracer.total[f"ball.enumerate.work_s.{kind}"] += duration

        inner = tracer.timed(fn, "ball.enumerate", span=True, after=after)

        def wrapper(*args, **kwargs):
            entered.append(_multiplies(tracer))
            try:
                return inner(*args, **kwargs)
            finally:
                entered.pop()

        return wrapper

    rebind("endogrow.cli", "main", lambda f: tracer.timed(f, "cli.main", span=True))
    rebind("endogrow.specio", "parse_instance", lambda f: tracer.timed(f, "specio.parse", span=True))
    rebind("endogrow.laws", "run_law", lambda f: tracer.timed(
        f, "laws.run_law", span=True, label=lambda a: f"laws.run_law.{a[0]}"))
    rebind("endogrow.growth", "growth_table", lambda f: tracer.timed(
        f, "growth.growth_table", span=True, label=lambda a: f"growth.growth_table.{endo_kind(a)}"))
    rebind("endogrow.growth", "exact_growth_rate",
           lambda f: tracer.timed(f, "growth.exact_growth_rate", span=True))
    rebind("endogrow.growth", "distortion_rate",
           lambda f: tracer.timed(f, "growth.distortion_rate", span=True))
    rebind("endogrow.ball", "enumerate_ball", enumerate_wrapper)
    rebind("endogrow.ball", "distortion_profile",
           lambda f: tracer.timed(f, "ball.distortion_profile", span=True))
    rebind("endogrow.ball", "exact_length", lambda f: tracer.counted(f, "ball.exact_length"))
    rebind("endogrow.intmat", "char_poly", lambda f: tracer.timed(
        f, "intmat.char_poly", span=True, label=lambda a: f"intmat.char_poly.n{rows(a)}"))
    rebind("endogrow.intmat", "smith_normal_form", lambda f: tracer.timed(
        f, "intmat.smith", span=True, label=lambda a: f"intmat.smith.n{rows(a)}"))
    rebind("endogrow.intmat", "spectral_radius", lambda f: tracer.timed(
        f, "intmat.spectral_radius", span=True, label=lambda a: f"intmat.spectral_radius.n{rows(a)}"))
    rebind("endogrow.intmat", "mat_mul", lambda f: tracer.timed(f, "intmat.mat_mul"))

    from endogrow.endos import Endomorphism
    from endogrow.groups import Group

    for module in modules:
        for cls in list(vars(module).values()):
            if not isinstance(cls, type) or cls.__module__ != module.__name__:
                continue
            if issubclass(cls, Group) and cls is not Group:
                kind = GROUP_KINDS.get(cls.__name__, cls.__name__)
                if "multiply" in cls.__dict__:
                    cls.multiply = tracer.counted(cls.multiply, f"multiply.{kind}")
                if "check" in cls.__dict__:
                    cls.check = tracer.counted(cls.check, "groups.check")
                if "action_of" in cls.__dict__:
                    cls.action_of = tracer.counted(cls.action_of, "products.action_of")
                if "word_length" in cls.__dict__:
                    cls.word_length = tracer.timed(cls.word_length, "groups.word_length")
            if issubclass(cls, Endomorphism) and "apply" in cls.__dict__:
                after = _after_word_apply if cls.__name__ == "WordEndo" else None
                cls.apply = tracer.timed(cls.apply, "endos.apply", after=after)
    return tracer
