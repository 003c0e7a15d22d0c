"""Spans and node counts recorded around calls into nnobdd, from outside it.

`Tracer` swaps wrappers in for the library's public functions while a
traced round runs and restores the originals afterwards; nothing inside the
package changes.  Each wrapper records one span: name, start, end, parent
span, the id of the operation it belongs to, and the nodes the call added
to its manager (``Manager.allocated`` after minus before, children
included).  A span's self time is its duration minus that of its children.

Compose spans and the pooling applies issued directly by
``compile_network`` are also attributed to the network layer being
compiled.  The layer comes from the spec: every conv filter and dense unit
triggers one ``compile_pseudo`` call, in layer order, and the composes that
follow belong to it.  (The placeholder arity cannot tell the layers apart:
a 4x4 filter and a dense unit over a 4x4 grid both have 16 inputs.)

`NodeLedger` counts the nodes allocated by every manager created while it
is installed, the placeholder managers inside ``compile_network`` too.
"""

from __future__ import annotations

import functools
import time
import weakref
from collections import defaultdict

from nnobdd import analysis, cli, formats, network, neuron, obdd, trainer
from nnobdd.network import ConvStep, DenseStep
from nnobdd.obdd import Manager

_MODULES = (analysis, cli, formats, network, neuron, obdd, trainer)


def _self(args, kwargs):
    return args[0]


def _first_handle(args, kwargs):
    return args[0].manager


def _pseudo_manager(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["manager"]


# (owner, attribute, span name, manager whose growth is the span's nodes);
# "result" means the call returns a handle in a manager it created
_TARGETS = [
    (Manager, "compose", "obdd.compose", _self),
    (Manager, "apply", "obdd.apply", _self),
    (Manager, "condition", "obdd.condition", _self),
    (Manager, "negate", "obdd.negate", _self),
    (Manager, "model_count", "obdd.model_count", _self),
    (obdd, "write_obdd", "obdd.write_obdd", None),
    (obdd, "read_obdd", "obdd.read_obdd", "result"),
    (network, "compile_network", "network.compile_network", "result"),
    (neuron, "compile_pseudo", "neuron.compile_pseudo", _pseudo_manager),
    (trainer, "train_neuron", "trainer.train_neuron", None),
    (trainer, "accuracy", "trainer.accuracy", None),
    (trainer, "precision_sweep", "trainer.precision_sweep", None),
]
_TARGETS += [
    (analysis, fn, "analysis." + fn, _first_handle)
    for fn in (
        "instance_robustness",
        "pi_explanation",
        "fooling_complete",
        "marginal_grid",
        "unateness_grid",
        "model_robustness",
    )
]
_TARGETS += [
    (formats, fn, "formats." + fn, None)
    for fn in (
        "read_pbm",
        "write_pbm",
        "write_pgm",
        "write_histogram_csv",
        "write_marginal_grid_csv",
        "write_unateness_grid_csv",
        "write_sweep_csv",
    )
]
_TARGETS += [
    (cli, "_cmd_" + cmd.replace("-", "_"), "cli." + cmd, None)
    for cmd in ("compile-net", "stats", "eval", "robustness", "explain", "marginals", "unate")
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "nodes", "layer", "child_s")

    def __init__(self, name, start, parent, run):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.run = run
        self.nodes = 0
        self.layer = None
        self.child_s = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s

    def as_dict(self, index: int) -> dict:
        return {
            "id": index,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "run": self.run,
            "nodes": self.nodes,
            "layer": self.layer,
        }


class Tracer:
    """In-memory span recorder; install it around a traced round with ``with``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0  # id of the operation now running
        self._stack: list[int] = []
        self._plans: list[list[str]] = []  # per open compile_network: layers ahead
        self._layer: list[str | None] = []
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------- patching

    def __enter__(self):
        for owner, attr, name, probe in _TARGETS:
            original = getattr(owner, attr)
            wrapped = self._wrap(original, name, probe)
            if isinstance(owner, type):
                self._replace(owner, attr, wrapped)
                continue
            # modules import each other's functions by name, so swap every binding
            for module in _MODULES:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, wrapped)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
        return False

    def _replace(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, fn, name, probe):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            mgr = probe(args, kwargs) if callable(probe) else None
            before = mgr.allocated if mgr is not None else 0
            span = tracer._open(name, args)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                if probe == "result" and result is not None:
                    span.nodes = result.manager.allocated
                elif mgr is not None:
                    span.nodes = mgr.allocated - before
                tracer._close(span, name)

        return traced

    # ---------------------------------------------------------------- spans

    def _open(self, name, args) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent, self.run)
        if self._plans:
            in_compile = parent is not None and self.spans[parent].name == "network.compile_network"
            if name == "neuron.compile_pseudo" and self._plans[-1]:
                self._layer[-1] = self._plans[-1].pop(0)
                span.layer = self._layer[-1]
            elif name == "obdd.compose":
                span.layer = self._layer[-1]
            elif name == "obdd.apply" and in_compile:
                span.layer = "pool"
        if name == "network.compile_network":
            self._plans.append(_layer_plan(args[0]))
            self._layer.append(None)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span, name: str) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.end - span.start
        if name == "network.compile_network":
            self._plans.pop()
            self._layer.pop()

    def aggregate(self, first: int, end: int) -> dict[str, float]:
        """Per-name calls, self time and nodes over ``spans[first:end]``."""
        out: dict[str, float] = defaultdict(float)
        for span in self.spans[first:end]:
            name = span.name
            if name.startswith("formats."):
                name = "formats"
            out[name + ".calls"] += 1
            out[name + ".self_s"] += span.self_s
            out[name + ".nodes"] += span.nodes
            if span.layer is not None:
                layer = "network." + span.layer
                if span.name != "neuron.compile_pseudo":
                    out[layer + ".calls"] += 1
                out[layer + ".self_s"] += span.self_s
                out[layer + ".nodes"] += span.nodes
        return out

    def inclusive_s(self, prefix: str, first: int, end: int) -> float:
        """Time inside outermost spans of ``spans[first:end]`` named ``prefix...``."""
        total = 0.0
        for span in self.spans[first:end]:
            if not span.name.startswith(prefix):
                continue
            parent = span.parent
            nested = False
            while parent is not None:
                if self.spans[parent].name.startswith(prefix):
                    nested = True
                    break
                parent = self.spans[parent].parent
            if not nested:
                total += span.end - span.start
        return total

    def dump(self) -> list[dict]:
        return [span.as_dict(i) for i, span in enumerate(self.spans)]


def _layer_plan(spec) -> list[str]:
    plan: list[str] = []
    for layer in spec.layers:
        if isinstance(layer, ConvStep):
            plan += ["conv"] * len(layer.filters)
        elif isinstance(layer, DenseStep):
            plan += ["dense"] * len(layer.weights)
    return plan


class NodeLedger:
    """Sums ``Manager.allocated`` over the managers created since `reset`.

    Managers may be freed before the sum is taken, so a finalizer records
    the size of each one's node store when it goes.
    """

    def __init__(self):
        self._epoch = 0
        self._retired = 0
        self._live: dict[int, tuple[int, Manager | list]] = {}
        self._next = 0
        self._original = None

    def __enter__(self):
        self._original = original = Manager.__init__
        ledger = self

        @functools.wraps(original)
        def init(mgr, *args, **kwargs):
            original(mgr, *args, **kwargs)
            ledger._register(mgr)

        Manager.__init__ = init
        return self

    def __exit__(self, *exc):
        Manager.__init__ = self._original
        return False

    def _register(self, mgr: Manager) -> None:
        key = self._next
        self._next += 1
        store = getattr(mgr, "_nodes", None)
        if isinstance(store, list) and len(store) == mgr.allocated:
            self._live[key] = (self._epoch, store)
            weakref.finalize(mgr, self._retire, key)
        else:  # unknown store layout: keep the manager until the next reset
            self._live[key] = (self._epoch, mgr)

    def _retire(self, key: int) -> None:
        entry = self._live.pop(key, None)
        if entry is not None and entry[0] == self._epoch:
            self._retired += len(entry[1])

    def reset(self) -> None:
        self._epoch += 1
        self._retired = 0
        self._live = {k: v for k, v in self._live.items() if isinstance(v[1], list)}

    def total(self) -> int:
        live = 0
        for epoch, item in self._live.values():
            if epoch == self._epoch:
                live += item.allocated if isinstance(item, Manager) else len(item)
        return self._retired + live
