"""Spans and counting inputs for the traced run.

Everything here lives outside the program: spans are recorded at the
benchmark's own call sites into gmdinfo's layers, and counts come from
inputs the program cannot tell apart from ordinary ones -- a subclass of
each model's own class that counts ``cdf``/``sf``/``quantile`` calls and
points, and a callable wrapper that counts integrand evaluations.
"""

import contextlib
import json
import time

import numpy as np

COUNTED_METHODS = ("cdf", "sf", "quantile")


class Tracer:
    """In-memory spans (id, name, start_ns, end_ns, parent id, op id).

    Spans nest through a stack, so a span opened inside another records
    it as its parent.  They are written out once, when the run ends.
    """

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name: str, op: str = None):
        rec = {"id": len(self.spans), "name": name, "start_ns": time.perf_counter_ns(),
               "end_ns": None, "parent": self._stack[-1] if self._stack else None,
               "op": op}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    def self_ms_by_name(self) -> dict:
        """Per span name, total duration minus the time its child spans cover."""
        child_ns = [0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child_ns[rec["parent"]] += rec["end_ns"] - rec["start_ns"]
        out = {}
        for rec in self.spans:
            own = rec["end_ns"] - rec["start_ns"] - child_ns[rec["id"]]
            out[rec["name"]] = out.get(rec["name"], 0.0) + own / 1e6
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


class ModelCounter:
    """Calls per counted model method, and points evaluated over all of them."""

    def __init__(self):
        self.calls = dict.fromkeys(COUNTED_METHODS, 0)
        self.points = 0


def counting_model(model, counter: ModelCounter):
    """A copy of ``model`` whose class subclasses the model's own and counts calls."""
    base = type(model)

    def counted(name):
        plain = getattr(base, name)

        def method(self, x):
            counter.calls[name] += 1
            counter.points += int(np.size(x))
            return plain(self, x)

        method.__name__ = method.__qualname__ = name
        return method

    attrs = {name: counted(name) for name in COUNTED_METHODS}
    attrs.update(__module__=base.__module__, __qualname__=base.__qualname__,
                 __doc__=base.__doc__)
    clone = object.__new__(type(base.__name__, (base,), attrs))
    clone.__dict__.update(model.__dict__)
    return clone


class CountingIntegrand:
    """Wraps a scalar integrand and counts its evaluations."""

    def __init__(self, f):
        self.f = f
        self.evals = 0

    def __call__(self, x):
        self.evals += 1
        return self.f(x)
