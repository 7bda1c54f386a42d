"""In-memory spans around the package's public calls, for the traced run.

The benchmark opens one root span per request.  Calls inside the package are
caught by replacing, for the length of the traced pass, the module attributes
the package looks up at call time: ``cli`` and ``registry`` import their
callees by name, and ``sum_adaptive``/``sum_fixed`` look up
``engine.tail_bound`` as a global.  No file under ``src/`` changes.

A span is ``[id, name, start_ns, end_ns, parent_id, request_id, attrs]``.
Self time is a span's duration minus the durations of its direct children,
which nest inside it because the client is single-threaded.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

# identities check function in cli -> the check id its span is named after
_IDENTITY_CHECKS = {
    "check_convolution": "convolution",
    "check_weighted_convolution": "weighted-convolution",
    "check_binomial_transform": "binomial-transform",
    "check_sign_split": "sign-split",
    "check_lemma1": "arcsin-split",
    "check_lemma2": "derivative-forms",
    "check_harmonic_integral": "harmonic-integral",
}
IDENTITY_IDS = tuple(_IDENTITY_CHECKS.values())


def _sum_attrs(args, kwargs, result, error):
    """Family, digits and terms of a sum_adaptive/sum_fixed call."""
    spec, ctx = args[0], args[2] if len(args) > 2 else kwargs.get("ctx")
    attrs = {"family": spec.family, "digits": getattr(ctx, "digits", None)}
    if result is not None:
        attrs["terms"] = result.terms_used
    partial = getattr(error, "partial", None)
    if partial is not None:
        attrs["terms"] = partial.terms_used
    return attrs


class Tracer:
    """Records spans while installed; a request's spans share its id."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._next_id = 0
        self.request_id = None

    @contextmanager
    def span(self, name, **attrs):
        span = self._open(name, attrs)
        try:
            yield span[6]
        finally:
            self._close(span)

    def _open(self, name, attrs):
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        span = [self._next_id, name, time.perf_counter_ns(), None, parent, self.request_id, attrs]
        self._stack.append(span)
        return span

    def _close(self, span):
        span[3] = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append(span)

    def _wrap(self, fn, name, attrs_of=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, {})
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                span[6]["error"] = type(exc).__name__
                raise
            finally:
                if attrs_of is not None:
                    span[6].update(attrs_of(args, kwargs, result, error))
                self._close(span)
        return traced

    @contextmanager
    def installed(self):
        """Replace the looked-up module attributes; restore them on exit."""
        from cbcseries import cli, closedforms, engine, expressions, registry

        plan = [
            (cli, "main", "cli.main", None),
            (registry, "run_example", "registry.run_example", None),
            (engine, "tail_bound", "engine.tail_bound", None),
            (engine, "sum_adaptive", "engine.sum_adaptive", _sum_attrs),
            (closedforms, "closed_value", "closedforms.closed_value", None),
            (expressions, "evaluate", "expressions.evaluate", None),
            (registry, "sum_adaptive", "engine.sum_adaptive", _sum_attrs),
            (registry, "sum_fixed", "engine.sum_fixed", _sum_attrs),
            (registry, "closed_value", "closedforms.closed_value", None),
            (registry, "evaluate", "expressions.evaluate", None),
            (cli, "sum_adaptive", "engine.sum_adaptive", _sum_attrs),
            (cli, "sum_fixed", "engine.sum_fixed", _sum_attrs),
            (cli, "closed_value", "closedforms.closed_value", None),
        ]
        plan += [(cli, fn, f"identities.{ident}", None) for fn, ident in _IDENTITY_CHECKS.items()]
        saved = []
        try:
            for module, attr, name, attrs_of in plan:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, attrs_of))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def children_index(spans):
    """parent id -> list of child spans."""
    out = {}
    for span in spans:
        out.setdefault(span[4], []).append(span)
    return out


def duration_ns(span) -> int:
    return span[3] - span[2]


def self_ns(span, children) -> int:
    return duration_ns(span) - sum(duration_ns(c) for c in children.get(span[0], ()))
