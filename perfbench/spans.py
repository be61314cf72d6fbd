"""Outside-in tracing of the ``vncap`` modules.

``Tracer.install`` wraps every public function of ``qmat``, ``entropy``,
``channel``, ``depolarizing``, ``analysis`` and ``cli`` (plus the
``__post_init__`` validation of their dataclasses and the private
``analysis._sphere_volume``) in each ``vncap`` namespace that bound it by
name, so calls made through ``from .channel import run_channel`` are traced
too.  ``numpy.linalg`` eigensolves and QR factorizations are counted.  No
file of the package is edited; ``uninstall`` puts the originals back.

Spans live in memory as parallel arrays (name, start, end, parent span,
request id) and are written out once, at the end of the run.  Only calls
made while a request is open are recorded, so the benchmark's own checks,
which call the library too, stay out of the trace.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import time
from array import array

import numpy as np

MODULES = ("qmat", "entropy", "channel", "depolarizing", "analysis", "cli")
EXTRA_PRIVATE = {"analysis": ("_sphere_volume",)}
LINALG_COUNTED = ("eigh", "eigvalsh", "qr")


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("l")
        self.parent = array("l")
        self.request = array("l")
        self._stack = [-1]
        self.request_id = -1
        self.linalg_calls = dict.fromkeys(LINALG_COUNTED, 0)
        self.dilation_keys: set[bytes] = set()
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- spans -------------------------------------------------------------

    def open(self, nid: int) -> int:
        index = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.request.append(self.request_id)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def begin_request(self, request_id: int, kind: str) -> int:
        self.request_id = request_id
        return self.open(self.name_id(f"bench.{kind}"))

    def end_request(self, index: int) -> None:
        self.close(index)
        self.request_id = -1

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name: str, pick=None):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.request_id < 0:
                return fn(*args, **kwargs)
            index = self.open(pick(args) if pick else nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def _count(self, fn, key: str):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.request_id >= 0:
                self.linalg_calls[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _picker(self, qualified: str):
        """Span-name choice for the two functions whose arguments matter."""
        if qualified == "channel.run_channel":
            kraus_type = self.package.channel.KrausChannel
            kraus, dilation = self.name_id(qualified + "[kraus]"), self.name_id(qualified + "[dilation]")
            return lambda args: kraus if isinstance(args[0], kraus_type) else dilation
        if qualified == "channel.dilation_from_kraus":
            nid = self.name_id(qualified)

            def pick(args):
                self.dilation_keys.add(b"".join(op.tobytes() for op in args[0].operators))
                return nid

            return pick
        return None

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        pkg = self.package
        modules = [getattr(pkg, m) for m in MODULES]
        wrapped: dict[int, object] = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                qualified = f"{short}.{attr}"
                if inspect.isclass(obj) and dataclasses.is_dataclass(obj) and "__post_init__" in vars(obj):
                    self._patch(obj, "__post_init__", self._wrap(obj.__post_init__, qualified))
                elif inspect.isfunction(obj) and (
                    not attr.startswith("_") or attr in EXTRA_PRIVATE.get(short, ())
                ):
                    wrapped[id(obj)] = self._wrap(obj, qualified, self._picker(qualified))
        for namespace in [pkg] + modules:
            for attr, obj in list(vars(namespace).items()):
                if id(obj) in wrapped:
                    self._patch(namespace, attr, wrapped[id(obj)])
        for key in LINALG_COUNTED:
            self._patch(np.linalg, key, self._count(getattr(np.linalg, key), key))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.name, dtype=np.int64),
            "start": np.array(self.start),
            "end": np.array(self.end),
            "parent": np.array(self.parent, dtype=np.int64),
            "request": np.array(self.request, dtype=np.int64),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        a = self.arrays()
        duration = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child_time = np.bincount(
            a["parent"][has_parent], weights=duration[has_parent], minlength=duration.size
        )
        self_time = duration - child_time
        n = len(self.names)
        calls = np.bincount(a["name"], minlength=n)
        inclusive = np.bincount(a["name"], weights=duration, minlength=n)
        exclusive = np.bincount(a["name"], weights=self_time, minlength=n)
        return {
            name: {"calls": int(calls[i]), "total_s": float(inclusive[i]), "self_s": float(exclusive[i])}
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
