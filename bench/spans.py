"""Outside-in tracing of the qsdc layers for the benchmark's traced run.

Nothing inside ``src/`` is instrumented.  Instead, public functions are
replaced by timing wrappers *in the namespace of the module that calls
them* (``qsdc.protocol.apply_channel``, ``qsdc.cli.run_session``, ...), so
the program's own lookups go through the wrapper while other callers are
untouched.  Generators returned by ``stream_rng`` are wrapped in a proxy that
times each draw and counts the values it returns.

Each wrapped call records one span ``(name, start_ns, end_ns, parent)`` into
flat in-memory arrays; the parent is the innermost span open at the time of
the call.  A span's self time is its duration minus the durations of its
direct children (the process is single-threaded, so children never overlap).
"""

from __future__ import annotations

import importlib
import time
from array import array
from pathlib import Path

import numpy as np

# (module whose namespace is patched, attribute, span name).  The span name
# is the layer that owns the function, not the module that calls it.
PATCHES = (
    ("qsdc.protocol", "encode_message", "protocol.encode_message"),
    ("qsdc.protocol", "intercept_resend", "protocol.intercept_resend"),
    ("qsdc.protocol", "apply_local", "core.apply_local"),
    ("qsdc.protocol", "apply_channel", "noise.apply_channel"),
    ("qsdc.protocol", "outcome_probs", "measurement.outcome_probs"),
    ("qsdc.protocol", "bell_overlaps", "measurement.bell_overlaps"),
    ("qsdc.protocol", "stream_rng", "rng.stream_rng"),
    ("qsdc.tomography", "TomoDataset", "tomography.TomoDataset"),
    ("qsdc.tomography", "linear_inversion", "tomography.linear_inversion"),
    ("qsdc.tomography", "project_physical", "tomography.project_physical"),
    ("qsdc.tomography", "fidelity", "core.fidelity"),
    ("qsdc.config", "parse_config_text", "config.parse_config_text"),
    ("qsdc.config", "build_settings", "config.build_settings"),
    ("qsdc.cli", "parse_config_text", "config.parse_config_text"),
    ("qsdc.cli", "build_settings", "config.build_settings"),
    ("qsdc.cli", "run_session", "protocol.run_session"),
    ("qsdc.cli", "derive_seed", "rng.derive_seed"),
    ("qsdc.cli", "stream_rng", "rng.stream_rng"),
    ("qsdc.cli", "apply_channel", "noise.apply_channel"),
    ("qsdc.cli", "simulate_tomography", "tomography.simulate_tomography"),
    ("qsdc.cli", "fidelity_with_error", "tomography.fidelity_with_error"),
    ("qsdc.cli", "linear_inversion", "tomography.linear_inversion"),
    ("qsdc.cli", "project_physical", "tomography.project_physical"),
    ("qsdc.cli", "calibrate_noise", "noise.calibrate_noise"),
)

DRAW = "rng.draw"
SPAWN = "rng.spawn"


class Tracer:
    """Span recorder plus the patches that feed it.

    Wrappers pass straight through while ``active`` is false, so the
    benchmark's own correctness checks never add spans.
    """

    def __init__(self) -> None:
        self.active = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.values = array("q")  # values returned by a draw span, else 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.values.append(0)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` under a span named ``name`` (while the tracer is active)."""
        return self.wrap(name, fn)(*args, **kwargs)

    def wrap(self, name: str, fn):
        name_id = self._intern(name)
        timed_rng = name == "rng.stream_rng"

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._open(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if timed_rng:
                out = TimedGenerator(out, self)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- patching --------------------------------------------------------
    def install(self) -> None:
        for module_name, attr, span_name in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(span_name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- aggregation -----------------------------------------------------
    def __len__(self) -> int:
        return len(self.start)

    def summarize(self, upto: int | None = None) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, total ``s``, ``self_s`` and ``values``.

        ``upto`` limits the summary to the first ``upto`` spans recorded.
        """
        n = len(self.start) if upto is None else upto
        name_id = np.frombuffer(self.name_id, dtype=np.int64, count=n)
        dur = (
            np.frombuffer(self.end, dtype=np.int64, count=n)
            - np.frombuffer(self.start, dtype=np.int64, count=n)
        ).astype(np.float64) * 1e-9
        parent = np.frombuffer(self.parent, dtype=np.int64, count=n)
        values = np.frombuffer(self.values, dtype=np.int64, count=n)
        covered = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self_time = dur - covered
        out = {}
        for i, name in enumerate(self.names):
            mask = name_id == i
            out[name] = {
                "calls": int(np.count_nonzero(mask)),
                "s": float(dur[mask].sum()),
                "self_s": float(self_time[mask].sum()),
                "values": int(values[mask].sum()),
            }
        return out

    def write(self, path: Path) -> None:
        """Write every span to an ``.npz``: parallel arrays indexed by span id.

        ``name_id`` indexes ``names``; ``parent`` is a span id or -1;
        ``start_ns``/``end_ns`` are ``perf_counter_ns`` readings; ``values``
        is the number of values a draw returned.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            values=np.frombuffer(self.values, dtype=np.int64),
        )


class TimedGenerator:
    """Proxy around ``numpy.random.Generator`` that times every draw.

    Each method call becomes an ``rng.draw`` span carrying the number of
    values returned; ``spawn`` becomes an ``rng.spawn`` span and returns
    proxies, so bootstrap children are timed too.
    """

    def __init__(self, generator: np.random.Generator, tracer: Tracer) -> None:
        self._generator = generator
        self._tracer = tracer

    def spawn(self, n_children: int) -> list["TimedGenerator"]:
        tracer = self._tracer
        children = tracer.call(SPAWN, self._generator.spawn, n_children)
        return [TimedGenerator(child, tracer) for child in children]

    def __getattr__(self, attr: str):
        method = getattr(self._generator, attr)
        if attr.startswith("_") or not callable(method):
            return method
        tracer = self._tracer
        draw_id = tracer._intern(DRAW)

        def draw(*args, **kwargs):
            idx = tracer._open(draw_id)
            try:
                out = method(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer.values[idx] = int(np.size(out))
            return out

        return draw
