"""In-memory spans around the public functions of the ``qree`` modules.

``Tracer`` replaces each public function of ``qmat``, ``renyi``,
``sepstates``, ``statezoo``, ``spinchain`` and ``entscan`` by a wrapper,
attribute by attribute, so a name one module re-exports from another
(``entscan.ree``, ``sepstates.eig_hermitian``, ``renyi.eig_hermitian``)
is traced where the caller looks it up.  A span is named after the module
that defines the function, ``<layer>.<function>``.

A span records its name, start, end, parent span, request and thread.
Parents are tracked per thread, since a sweep runs its points on worker
threads.  Each ``entscan.monogamy`` or ``sepstates.sample_upper_bound``
call that is not already inside a request starts a new one.

``numpy.linalg.eigh`` and ``eigvalsh`` are counted, not spanned: calls,
and matrices (a stacked call on ``(B, d, d)`` counts ``B``), both in total
and under each span name open at the time of the call.

Usage::

    tracer = Tracer()
    with tracer:          # wrappers installed only inside the block
        ...
    tracer.write(path)    # spans as JSON lines
"""

from __future__ import annotations

import inspect
import itertools
import json
import math
import threading
import time
from collections import defaultdict

import numpy as np

import qree
from qree import entscan, qmat, renyi, sepstates, spinchain, statezoo

TRACED_MODULES = (qmat, renyi, sepstates, statezoo, spinchain, entscan)
REQUEST_ROOTS = {"entscan.monogamy", "sepstates.sample_upper_bound"}
KERNELS = ("eigh", "eigvalsh")


def layer_name(fn) -> str:
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"


class _ThreadState(threading.local):
    def __init__(self):
        self.stack: list[tuple[int, str, int | None]] = []  # (span, name, request)
        self.spans: list[tuple] | None = None
        self.kernel: dict | None = None


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = _ThreadState()
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._all_spans: list[list[tuple]] = []
        self._all_kernel: list[dict] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------
    def __enter__(self) -> "Tracer":
        for module in TRACED_MODULES:
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or not fn.__module__.startswith(qree.__name__ + ".")):
                    continue
                self._patch(module, attr, self._span_wrapper(fn))
        for kernel in KERNELS:
            self._patch(np.linalg, kernel,
                        self._kernel_wrapper(kernel, getattr(np.linalg, kernel)))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _state(self) -> _ThreadState:
        local = self._local
        if local.spans is None:
            local.spans = []
            local.kernel = defaultdict(int)
            with self._lock:
                self._all_spans.append(local.spans)
                self._all_kernel.append(local.kernel)
        return local

    # -- wrappers ----------------------------------------------------------
    def _span_wrapper(self, fn):
        name = layer_name(fn)
        annotate = ANNOTATE.get(name)
        clock = time.perf_counter
        thread_id = threading.get_ident

        def traced(*args, **kwargs):
            st = self._state()
            span_id = next(self._ids)
            if st.stack:
                parent, _, request = st.stack[-1]
            else:
                parent, request = None, None
            if request is None and name in REQUEST_ROOTS:
                request = next(self._requests)
            st.stack.append((span_id, name, request))
            notes = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    notes = annotate(args, kwargs, result)
                return result
            finally:
                end = clock()
                st.stack.pop()
                st.spans.append((span_id, name, start, end, parent, request,
                                 thread_id(), notes))

        traced.__wrapped__ = fn
        return traced

    def _kernel_wrapper(self, kernel: str, fn):
        def counted(a, *args, **kwargs):
            shape = np.shape(a)
            matrices = math.prod(shape[:-2]) if len(shape) > 2 else 1
            st = self._state()
            counts = st.kernel
            counts[(None, kernel, "calls")] += 1
            counts[(None, kernel, "matrices")] += matrices
            for name in {entry[1] for entry in st.stack}:
                counts[(name, kernel, "calls")] += 1
                counts[(name, kernel, "matrices")] += matrices
            return fn(a, *args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- results ---------------------------------------------------------
    def spans(self) -> list[tuple]:
        return [s for spans in self._all_spans for s in spans]

    def kernel_count(self, kernel: str, what: str, under: str | None = None) -> int:
        return sum(c.get((under, kernel, what), 0) for c in self._all_kernel)

    def write(self, path: str) -> int:
        """Write every span as one JSON list per line; return the count."""
        spans = sorted(self.spans(), key=lambda s: s[2])
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["id", "name", "start", "end", "parent",
                                 "request", "thread", "notes"]) + "\n")
            for s in spans:
                fh.write(json.dumps(s) + "\n")
        return len(spans)


def _ree_notes(args, kwargs, result) -> dict:
    cut = args[1] if len(args) > 1 else kwargs["cut"]
    return {"cut": f"{cut.dim_a}x{cut.dim_b}", "iterations": result.iterations,
            "converged": bool(result.converged)}


ANNOTATE = {"sepstates.ree": _ree_notes}


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Each span's duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[4] is not None:
            children[s[4]].append((s[2], s[3]))
    out = {}
    for s in spans:
        covered, reach = 0.0, -math.inf
        for lo, hi in sorted(children.get(s[0], ())):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s[0]] = (s[3] - s[2]) - covered
    return out
