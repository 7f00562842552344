"""Outside-in tracer for the escape3x3 benchmark.

The package is never edited.  Each layer boundary is traced by replacing a
callable at the attribute its caller looks up (a module global, or a class
attribute for ``Path`` construction) and putting the original back on
``restore``.  Spans are kept in flat arrays in memory, each with its parent
span and the benchmark item it belongs to, and are written out once, when
the run ends.  Only the process that created the tracer records spans: pool
workers forked from it run the originals.
"""

from __future__ import annotations

import gzip
import os
import time
from array import array
from contextlib import contextmanager


class Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    """Span recorder for one traced pass; single-threaded."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.item = array("l")
        self.value = array("q")
        self.flag = array("b")
        self.t0 = array("d")
        self.t1 = array("d")
        self.counts: dict[str, int] = {}
        self.item_id = -1
        self._next_item = 0
        self._stack = [-1]
        self._pid = os.getpid()
        self.patches = Patches()

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.t0)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.item.append(self.item_id)
        self.value.append(0)
        self.flag.append(0)
        self.t1.append(0.0)
        self._stack.append(i)
        self.t0.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.t1[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around benchmark-side code."""
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, owner, attr, name, measure=None, new_item=False, eager=False):
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``measure(result)`` returns (value, flag) stored on the span;
        ``new_item`` gives each call a fresh item id; ``eager`` drains a
        returned iterator inside the span, so the span covers the work a
        generator does.
        """
        original = owner.__dict__[attr]
        tracer = self

        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return original(*args, **kwargs)
            if new_item:
                tracer.item_id = tracer._next_item
                tracer._next_item += 1
            i = tracer._open(name)
            try:
                result = original(*args, **kwargs)
                if eager:
                    result = list(result)
            finally:
                tracer._close(i)
            if measure is not None:
                value, flag = measure(result)
                tracer.value[i] = value
                tracer.flag[i] = flag
            return iter(result) if eager else result

        self.patches.set(owner, attr, traced)

    def count(self, owner, attr, name):
        """Count calls of ``owner.attr`` without recording spans."""
        original = owner.__dict__[attr]
        counts = self.counts
        counts[name] = 0
        pid = self._pid

        def counted(*args, **kwargs):
            if os.getpid() == pid:
                counts[name] += 1
            return original(*args, **kwargs)

        self.patches.set(owner, attr, counted)

    def restore(self):
        self.patches.restore()

    def write(self, path) -> None:
        """Write every span as one tab-separated line, gzip-compressed."""
        self_s = self_times(self.parent, self.t0, self.t1)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            fh.write("id\tparent\titem\tname\tstart_s\tend_s\tself_s\tvalue\tflag\n")
            base = self.t0[0] if self.t0 else 0.0
            for i in range(len(self.t0)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.item[i]}\t{self.names[self.name[i]]}\t"
                    f"{self.t0[i] - base:.9f}\t{self.t1[i] - base:.9f}\t{self_s[i]:.9f}\t"
                    f"{self.value[i]}\t{self.flag[i]}\n"
                )


def self_times(parent, t0, t1) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans are recorded on one thread in call order, so the children of a
    span never overlap and their durations add up to the part of the
    parent's interval they cover.
    """
    out = [b - a for a, b in zip(t0, t1)]
    for i, p in enumerate(parent):
        if p >= 0:
            out[p] -= t1[i] - t0[i]
    return out


def stages(tracer: Tracer, stage_names) -> list[int]:
    """For each span, the index of its nearest ancestor-or-self span whose
    name is in ``stage_names``, or -1.  Parents precede children."""
    is_stage = [n in stage_names for n in tracer.names]
    out = []
    for i, nid in enumerate(tracer.name):
        p = tracer.parent[i]
        out.append(i if is_stage[nid] else (out[p] if p >= 0 else -1))
    return out


# -- the escape3x3 layer boundaries ------------------------------------------


def trace_package(tracer: Tracer, items_in_process: bool = True) -> None:
    """Wrap every layer boundary of escape3x3 at the attribute its caller
    looks up.  The benchmark's own calls go through the module attributes
    ``router.route``, ``model.validate_plan``, ``model.validate_plan_recheck``,
    ``oracle.oracle_solve`` and ``terminals.enumerate_configs``.

    Leave ``items_in_process`` false when campaign items go to a process
    pool: the pool pickles ``campaign._verify_one`` by name, and its spans
    would be in the workers anyway."""
    from escape3x3 import campaign, cli, kernel, model, oracle, router, terminals

    found = kernel.FOUND
    tracer.wrap(kernel._impl, "find_trail_system", "kernel_impl.find",
                measure=lambda r: (r[2], r[0] == found))
    tracer.wrap(kernel, "solve_trails", "kernel.solve_trails")
    for owner in (router, campaign):
        tracer.wrap(owner, "route", "router.route",
                    measure=lambda r: (0, r[1].used_fallback))
    tracer.wrap(router, "mate_through_clip", "toolkit.mate")
    tracer.wrap(router, "complete_frame", "toolkit.frame")
    for owner in (router, oracle, campaign, model):
        tracer.wrap(owner, "validate_plan", "model.validate")
    for owner in (campaign, model):
        tracer.wrap(owner, "validate_plan_recheck", "model.recheck")
    for owner in (campaign, oracle):
        tracer.wrap(owner, "oracle_solve", "oracle.solve",
                    measure=lambda r: (0, r is not None))
    tracer.wrap(campaign, "check_weakly_2_linked", "oracle.w2l")
    tracer.wrap(cli, "verify_all", "campaign.verify_all")
    if items_in_process:
        tracer.wrap(campaign, "_verify_one", "campaign.item", new_item=True)
    for owner in (campaign, terminals):
        tracer.wrap(owner, "enumerate_configs", "terminals.enumerate", eager=True)
    tracer.wrap(campaign, "encode_config", "terminals.codec")
    tracer.wrap(terminals, "decode_config", "terminals.codec")
    tracer.count(model.Path, "__post_init__", "model.path_objects")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and self times of one traced pass.

    ``*_s`` is self time: the span's duration minus its traced callees.
    ``oracle.w2l_s`` and ``campaign.parent_s`` are whole durations.
    """
    names = tracer.names
    self_s = self_times(tracer.parent, tracer.t0, tracer.t1)
    owner = stages(tracer, {"router.route", "oracle.solve", "oracle.w2l"})
    calls: dict[str, int] = dict.fromkeys(names, 0)
    self_sum: dict[str, float] = dict.fromkeys(names, 0.0)
    total: dict[str, float] = dict.fromkeys(names, 0.0)
    value: dict[str, int] = dict.fromkeys(names, 0)
    flags: dict[str, int] = dict.fromkeys(names, 0)
    kernel_under: dict[str, int] = {"router.route": 0, "oracle.solve": 0}
    for i, nid in enumerate(tracer.name):
        name = names[nid]
        calls[name] += 1
        self_sum[name] += self_s[i]
        total[name] += tracer.t1[i] - tracer.t0[i]
        value[name] += tracer.value[i]
        flags[name] += tracer.flag[i]
        if name == "kernel_impl.find" and owner[i] >= 0:
            stage = names[tracer.name[owner[i]]]
            if stage in kernel_under:
                kernel_under[stage] += 1

    def get(table, name):
        return table.get(name, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    k_calls = get(calls, "kernel.solve_trails")
    o_calls = get(calls, "oracle.solve")
    return {
        "kernel_impl.calls": get(calls, "kernel_impl.find"),
        "kernel_impl.nodes": get(value, "kernel_impl.find"),
        "kernel_impl.self_s": get(self_sum, "kernel_impl.find"),
        "kernel_impl.found_ratio": ratio(get(flags, "kernel_impl.find"),
                                         get(calls, "kernel_impl.find")),
        "kernel.calls": k_calls,
        "kernel.self_s": get(self_sum, "kernel.solve_trails"),
        "kernel.self_us_per_call": ratio(get(self_sum, "kernel.solve_trails") * 1e6, k_calls),
        "oracle.calls": o_calls,
        "oracle.self_s": get(self_sum, "oracle.solve") + get(self_sum, "oracle.w2l"),
        "oracle.kernel_calls_per_item": ratio(kernel_under["oracle.solve"], o_calls),
        "oracle.witness_ratio": ratio(get(flags, "oracle.solve"), o_calls),
        "oracle.w2l_s": get(total, "oracle.w2l"),
        "router.calls": get(calls, "router.route"),
        "router.self_s": get(self_sum, "router.route"),
        "router.kernel_calls": kernel_under["router.route"],
        "router.fallbacks": get(flags, "router.route"),
        "toolkit.mate_calls": get(calls, "toolkit.mate"),
        "toolkit.mate_s": get(self_sum, "toolkit.mate"),
        "toolkit.frame_calls": get(calls, "toolkit.frame"),
        "toolkit.frame_s": get(self_sum, "toolkit.frame"),
        "model.validate_calls": get(calls, "model.validate"),
        "model.validate_s": get(self_sum, "model.validate"),
        "model.recheck_s": get(self_sum, "model.recheck"),
        "model.path_objects": tracer.counts.get("model.path_objects", 0),
        "terminals.enumerate_s": get(self_sum, "terminals.enumerate"),
        "terminals.codec_s": get(self_sum, "terminals.codec"),
        "campaign.self_s": get(self_sum, "campaign.verify_all") + get(self_sum, "campaign.item"),
        "campaign.parent_s": get(total, "campaign.verify_all") - get(total, "campaign.pool_wait"),
        "campaign.pool_wait_s": get(total, "campaign.pool_wait"),
    }
