"""In-memory spans around calls into geowidth's layers.

The library is not edited: ``instrument`` replaces its public functions and
methods, inside the benchmark's own process, by wrappers that open a span
on entry and close it on return.  A span records its name, start, end and
parent span.  Spans stay in memory until the run ends; ``save`` writes them
out once.

A span's self time is its duration minus the part of that interval its
child spans cover, so the self times of a well-nested tree add up to the
duration of its root.
"""

from __future__ import annotations

import functools
import math
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Span store with a stack of open spans (single-threaded)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        #: (vertices, edges) of the largest MetricTree built while tracing
        self.largest_tree = None
        self._stack = [-1]

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self.open(self.intern(name))
        try:
            yield i
        finally:
            self.close(i)

    def adopt(self, parent: int, path) -> None:
        """Append the spans another process saved to ``path`` under the
        span ``parent``; perf_counter is CLOCK_MONOTONIC on Linux, so both
        processes share one clock."""
        import numpy as np

        with np.load(path) as spans:
            base = len(self.start)
            ids = [self.intern(str(n)) for n in spans["names"]]
            for nid, par in zip(spans["name"].tolist(), spans["parent"].tolist()):
                self.name.append(ids[nid])
                self.parent.append(parent if par < 0 else base + par)
            self.start.extend(spans["start"].tolist())
            self.end.extend(spans["end"].tolist())

    def save(self, path) -> None:
        """Write every span once, as compressed arrays (numpy .npz)."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def self_times(parent, start, end) -> array:
    """Self time of every span: duration minus the union of its children's
    intervals, clipped to the span.

    One pass in index order.  Spans are appended when they open, so the
    children of a span come in order of their start; the pass checks that.
    """
    n = len(start)
    covered = array("d", bytes(8 * n))
    run_lo = array("d", bytes(8 * n))
    run_hi = array("d", [-math.inf]) * n
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        if start[i] < run_lo[p]:
            raise ValueError(f"span {i} starts before an earlier sibling")
        a, b = max(start[i], start[p]), min(end[i], end[p])
        if b <= a:
            continue
        if a > run_hi[p]:
            if run_hi[p] > -math.inf:
                covered[p] += run_hi[p] - run_lo[p]
            run_lo[p], run_hi[p] = a, b
        elif b > run_hi[p]:
            run_hi[p] = b
    out = array("d", bytes(8 * n))
    for i in range(n):
        tail = run_hi[i] - run_lo[i] if run_hi[i] > -math.inf else 0.0
        out[i] = (end[i] - start[i]) - covered[i] - tail
    return out


def summarize(tracer: Tracer) -> dict:
    """Per span name: calls, summed self time and summed duration (seconds)."""
    selfs = self_times(tracer.parent, tracer.start, tracer.end)
    k = len(tracer.names)
    calls, self_s, total_s = [0] * k, [0.0] * k, [0.0] * k
    start, end = tracer.start, tracer.end
    for i, nid in enumerate(tracer.name):
        calls[nid] += 1
        self_s[nid] += selfs[i]
        total_s[nid] += end[i] - start[i]
    names = tracer.names
    return {
        "calls": Counter(dict(zip(names, calls))),
        "self_s": Counter(dict(zip(names, self_s))),
        "total_s": Counter(dict(zip(names, total_s))),
    }


def durations(tracer: Tracer, name: str) -> list[float]:
    nid = tracer._ids.get(name)
    return [tracer.end[i] - tracer.start[i] for i, n in enumerate(tracer.name) if n == nid]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


# ---------------------------------------------------------------------------
# wrapping geowidth's public functions and methods


def _wrap(tracer: Tracer, fn, name: str, before=None, after=None, failed=None):
    nid = tracer.intern(name)
    open_, close = tracer.open, tracer.close

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if before is not None:
            before(args)
        i = open_(nid)
        try:
            result = fn(*args, **kwargs)
        except Exception:
            if failed is not None:
                tracer.counters[failed] += 1
            raise
        finally:
            close(i)
        if after is not None:
            after(result)
        return result

    traced.__wrapped_original__ = fn
    return traced


def _wrap_generator(tracer: Tracer, fn, name: str, counter: str):
    """Each step of the generator is one span; yielded items are counted."""
    nid = tracer.intern(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        gen = fn(*args, **kwargs)

        def steps():
            while True:
                i = tracer.open(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.close(i)
                tracer.counters[counter] += 1
                yield item

        return steps()

    traced.__wrapped_original__ = fn
    return traced


def _replace_everywhere(original, replacement) -> None:
    """Rebind every geowidth module attribute that refers to ``original``.

    Modules import each other's functions by name (``from .equivariant
    import energy``), so the module that defines a function is not the only
    place that has to see the wrapper.
    """
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "geowidth" or modname.startswith("geowidth.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions and methods of every geowidth layer."""
    import geowidth.cli  # noqa: F401  (loads every module whose bindings are rebound)
    from geowidth import conjugacy, equivariant, harmonic, isometries, serialization, spaces, words

    counters = tracer.counters

    def method(cls, attr, name, **hooks):
        setattr(cls, attr, _wrap(tracer, getattr(cls, attr), name, **hooks))

    def function(module, attr, name, **hooks):
        original = getattr(module, attr)
        _replace_everywhere(original, _wrap(tracer, original, name, **hooks))

    # spaces
    for cls in (spaces.EuclideanSpace, spaces.HyperbolicPlane, spaces.MetricTree, spaces.CayleyTree):
        method(cls, "dist", f"spaces.{cls.model}.dist")
        method(cls, "geodesic_point", f"spaces.{cls.model}.geodesic_point")
        method(cls, "random_point", "spaces.random_point")

    def remember_tree(args):
        # the largest tree is rebuilt later under tracemalloc for its peak
        if tracer.largest_tree is None or len(args[1]) >= len(tracer.largest_tree[0]):
            tracer.largest_tree = (list(args[1]), list(args[2]))

    method(spaces.MetricTree, "__init__", "spaces.tree_build", before=remember_tree)
    for attr in ("triangle_defect", "quadrilateral_defect", "convexity_defect"):
        function(spaces, attr, "spaces.defects")

    # isometries
    for cls, family in (
        (isometries.EuclideanIsometry, "euclidean"),
        (isometries.HyperbolicIsometry, "hyperbolic"),
        (isometries.TreeAutomorphism, "tree"),
        (isometries.CayleyTranslation, "cayley"),
    ):
        method(cls, "__init__", f"isometries.{family}.init")
        method(cls, "apply", "isometries.apply")
        method(cls, "compose", "isometries.compose")
        method(cls, "inverse", "isometries.inverse")

    def count_letters(args):
        counters["isometries.evaluate.letters"] += len(args[1])

    method(
        isometries.Representation,
        "evaluate",
        "isometries.evaluate",
        before=count_letters,
        failed="isometries.evaluate.failed",
    )

    # equivariant
    method(equivariant.EquivariantMap, "__init__", "equivariant.map_init")
    function(equivariant, "homotopy_width_inf", "equivariant.width_inf")
    function(equivariant, "homotopy_width_2_detailed", "equivariant.width_2")
    function(equivariant, "convexity_report", "equivariant.convexity_report")
    function(equivariant, "length", "equivariant.length_energy")
    function(equivariant, "energy", "equivariant.length_energy")

    # harmonic
    def count_sweeps(result):
        counters["harmonic.relax.sweeps"] += result.iterations
        counters["harmonic.relax.converged"] += int(result.converged)

    function(harmonic, "relax", "harmonic.relax", after=count_sweeps)
    function(harmonic, "estimate_width_constant", "harmonic.estimate")
    function(harmonic, "check_not_boundary_fixing", "harmonic.precondition")

    # words
    _replace_everywhere(
        words.enumerate_ball,
        _wrap_generator(tracer, words.enumerate_ball, "words.enumerate_ball", "words.enumerate_ball.words"),
    )
    function(words, "multiply", "words.multiply")
    function(words, "conjugate", "words.conjugate")

    # conjugacy
    def count_solve(cert):
        counters["conjugacy.enumerated"] += cert.enumerated
        counters["conjugacy.solved_conjugate"] += int(cert.verdict == conjugacy.VERDICT_CONJUGATE)

    function(conjugacy, "solve", "conjugacy.solve", after=count_solve)
    function(conjugacy, "free_group_oracle", "conjugacy.oracle")
    function(conjugacy, "verify", "conjugacy.verify")

    # serialization (reached through the CLI)
    function(serialization, "load_map", "serialization.load")
    function(serialization, "load_representation", "serialization.load")
