"""Span tracer that times sspread's layers from outside the package.

`Tracer.install()` replaces each public function of a layer with a wrapper
that records one span per call: name, start, end, parent span and operation
id. A function bound into several modules by `from ... import` is replaced
under every name it is reachable by, so no call path escapes. Methods are
wrapped on their class. `uninstall()` puts every original back.

Spans are kept in memory as flat integer arrays. Self time of a span is its
duration minus the durations of its direct children; calls are sequential, so
children never overlap.
"""

from __future__ import annotations

import argparse
import time
from array import array

import numpy as np

import sspread
from sspread import cli, harness, ineq, linalg, major, rng, spectra

_MODULES = (sspread, rng, linalg, spectra, major, ineq, harness, cli)

# layer -> (module or class, attribute, span name); the span name's first
# dotted part is the layer that owns the time
_FUNCTIONS = (
    [(rng.Stream, "normals", "rng.normals"), (rng, "derive_seed", "rng.derive_seed")]
    + [(harness, f, f"harness.{f}") for f in
       ("fuzz", "generate", "repro", "property_suite", "fixture_matrices")]
    + [(linalg, f, f"linalg.{f}") for f in
       ("as_cmatrix", "as_hermitian", "as_projection", "eigh", "sv_array", "opnorm",
        "polar", "direct_sum", "offdiag_embed", "unitary_exp", "compress", "svd_values")]
    + [(spectra, f, f"spectra.{f}") for f in
       ("matrix_scale", "compact_scale", "diag_scale", "spread_full", "spread_plus")]
    + [(spectra.TwoSidedSeq, "__post_init__", "spectra.seq_validate"),
       (spectra.SpreadSeq, "__post_init__", "spectra.seq_validate")]
    + [(major, f, f"major.{f}") for f in
       ("submajorizes", "majorizes", "seq_product", "interleave", "dec_rearrange",
        "updown_rearrange", "ky_fan", "schatten", "gauge")]
    + [(ineq, f, f"ineq.{f}") for f in
       sorted(n for n in vars(ineq) if n.startswith(("check_", "control_")))]
    + [(ineq, "douglas_factorize", "ineq.douglas_factorize"),
       (ineq, "equivalence_suite", "ineq.equivalence_suite")]
    + [(cli, f, f"cli.{f}") for f in
       ("main", "build_parser", "load_file", "canonical_json", "cmd_scale",
        "cmd_spread", "cmd_check", "cmd_fuzz", "cmd_repro", "cmd_suite")]
    + [(np.linalg, f, f"lapack.{f}") for f in ("eigh", "eigvalsh", "svd", "qr")]
)


class Tracer:
    """Records spans for every call into a wrapped function."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op_of = array("q")
        self.op = -1
        self.streams: list = []
        self._stack: list[int] = []
        self._undo: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        stack, name_of = self._stack, self.name_of
        start, end, parent, op_of = self.start, self.end, self.parent, self.op_of
        clock = time.perf_counter_ns

        # open()/close() inlined: this runs on every traced call
        def wrapper(*args, **kwargs):
            # a recursive call (canonical_json) stays inside its outer span
            if stack and name_of[stack[-1]] == nid:
                return fn(*args, **kwargs)
            sid = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            op_of.append(self.op)
            end.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def open(self, name: str) -> int:
        """Start a span the benchmark opens itself; returns its id for close()."""
        sid = len(self.start)
        self.name_of.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_of.append(self.op)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter_ns()
        self._stack.pop()

    def _replace(self, owner, attr: str, new) -> None:
        had_own = attr in vars(owner)
        self._undo.append((owner, attr, getattr(owner, attr), had_own))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every listed function that the package still defines."""
        for owner, attr, name in _FUNCTIONS:
            fn = vars(owner).get(attr)
            if fn is None:
                continue
            wrapper = self._wrap(name, fn)
            if isinstance(owner, type) or owner is np.linalg:
                self._replace(owner, attr, wrapper)
                continue
            # every module that bound this function object by name
            for mod in _MODULES:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._replace(mod, key, wrapper)
        parser_cls = getattr(cli, "_Parser", argparse.ArgumentParser)
        self._replace(parser_cls, "parse_args",
                      self._wrap("cli.parse_args", parser_cls.parse_args))
        init = rng.Stream.__init__
        streams = self.streams

        def counting_init(stream, seed):
            init(stream, seed)
            streams.append(stream)

        self._replace(rng.Stream, "__init__", counting_init)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old, had_own = self._undo.pop()
            if had_own:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)

    # -- analysis ---------------------------------------------------------

    def arrays(self) -> dict:
        """Per-span numpy columns, with self time computed from the children."""
        start = np.array(self.start, dtype=np.int64)
        end = np.array(self.end, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        if np.any(end < start) or self._stack:
            raise RuntimeError("a traced span was left open")
        dur = end - start
        child = np.zeros(len(dur), dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {
            "name": np.array(self.name_of, dtype=np.int32),
            "op": np.array(self.op_of, dtype=np.int64),
            "parent": parent,
            "dur": dur,
            "self": dur - child,
        }

    def by_name(self) -> dict[str, dict]:
        """name -> {calls, total_ns, self_ns} over every recorded span."""
        a = self.arrays()
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        total = np.bincount(a["name"], weights=a["dur"], minlength=k)
        own = np.bincount(a["name"], weights=a["self"], minlength=k)
        return {
            n: {"calls": int(calls[i]), "total_ns": float(total[i]), "self_ns": float(own[i])}
            for i, n in enumerate(self.names)
        }

    def self_ns_by_op(self) -> np.ndarray:
        """Summed self time of every span, per operation id (index = op id)."""
        a = self.arrays()
        mine = a["op"] >= 0
        return np.bincount(a["op"][mine], weights=a["self"][mine])


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
