"""Spans around the program's public methods (traced child only).

The untraced pass never imports this module.  ``Tracer.attach`` wraps
the public methods of the objects a workload built, so every call
records a span: layer, name, start, end, parent and the client op that
caused it.  Spans stay in memory; ``layer_metrics`` folds one
repetition's spans into the per-layer numbers and ``write_trace`` dumps
the last repetition when the workload ends.

A wrap point the program no longer has is skipped and named in
``Tracer.missing``; its metrics come out as ``None``.
"""

from __future__ import annotations

import contextvars
import inspect
import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter

_current: contextvars.ContextVar = contextvars.ContextVar("perf_span", default=None)
# Set while an engine method runs on this thread: ParallelIOEngine.map_settle
# calls self.map, which must not open a second batch.
_in_engine: contextvars.ContextVar = contextvars.ContextVar("perf_in_engine", default=False)


class Span:
    __slots__ = ("layer", "name", "t0", "t1", "parent", "op", "units", "wait", "err", "token")

    def __init__(self, layer, name, parent, op):
        self.layer = layer
        self.name = name
        self.parent = parent
        self.op = op
        self.units = 0
        self.wait = 0.0
        self.err = False
        self.t1 = 0.0
        self.t0 = perf_counter()


def _blocks_written(store, index):
    """Units = blocks of the payload passed at positional *index*."""

    def units(args, kwargs, result):
        data = args[index]
        size = data.size if hasattr(data, "size") else len(data)
        return -(-size // store.block_size)

    return units


def _blocks_read(store):
    return lambda a, k, r: -(-(r.size if hasattr(r, "size") else len(r)) // store.block_size)


def _count(index):
    """Units = length of the positional argument at *index*."""
    return lambda args, kwargs, result: len(args[index])


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._op_ids = itertools.count(1)
        self._running = 0
        self._lock = threading.Lock()
        self.in_flight_max = 0

    # -- recording -------------------------------------------------------------

    def begin_op(self, kind: str) -> Span:
        """Root span of one client op; everything below shares its id."""
        span = Span("client", kind, None, next(self._op_ids))
        span.token = _current.set(span)
        self.spans.append(span)
        return span

    def start(self, layer: str, name: str, parent: Span | None = None) -> Span:
        if parent is None:
            parent = _current.get()
        span = Span(layer, name, parent, parent.op if parent is not None else 0)
        span.token = _current.set(span)
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.t1 = perf_counter()
        _current.reset(span.token)

    def take(self) -> tuple[list[Span], int]:
        """Hand over one repetition's spans and its in-flight high-water mark."""
        taken = (self.spans, self.in_flight_max)
        self.spans, self.in_flight_max = [], 0
        return taken

    # -- wrap points -----------------------------------------------------------

    def wrap(self, obj, attr: str, layer: str, units=None, after=None) -> None:
        """Record a span around ``obj.attr``; *units* counts its work,
        *after* post-processes the result (to wrap a returned stream)."""
        owner = obj.__name__ if inspect.isclass(obj) or inspect.ismodule(obj) else type(obj).__name__
        name = f"{owner.rsplit('.', 1)[-1]}.{attr}"
        orig = getattr(obj, attr, None)
        if orig is None:
            self.missing.append(name)
            return
        tracer = self

        def finish(span, args, kwargs, result):
            if units is not None:
                span.units = units(args, kwargs, result)
            if after is not None:
                after(result)

        if inspect.iscoroutinefunction(orig):

            async def wrapper(*args, **kwargs):
                span = tracer.start(layer, name)
                try:
                    result = await orig(*args, **kwargs)
                    finish(span, args, kwargs, result)
                    return result
                except BaseException:
                    span.err = True
                    raise
                finally:
                    tracer.end(span)

        else:

            def wrapper(*args, **kwargs):
                span = tracer.start(layer, name)
                try:
                    result = orig(*args, **kwargs)
                    finish(span, args, kwargs, result)
                    return result
                except BaseException:
                    span.err = True
                    raise
                finally:
                    tracer.end(span)

        setattr(obj, attr, wrapper)

    def _wrap_engine(self, engine) -> None:
        """Engine fan-outs: one batch span per call, one task span per
        item.  The task wrapper carries the parent span across the pool
        threads and the event loop and measures the queue wait."""
        tracer = self
        for attr in ("map", "map_settle", "submit_each"):
            orig = getattr(engine, attr, None)
            if orig is None:
                self.missing.append(f"{type(engine).__name__}.{attr}")
                continue

            def wrapper(fn, items, afn=None, dest=None, _orig=orig, _attr=attr):
                if _in_engine.get():
                    return _orig(fn, items, afn=afn, dest=dest)
                items = list(items)
                batch = tracer.start("engine", _attr)
                batch.units = len(items)
                # submit_each returns at once; its tasks overlap the
                # caller's next steps, so they count against the caller.
                parent = batch.parent if _attr == "submit_each" else batch

                def enter():
                    span = tracer.start("engine.task", "task", parent=parent)
                    span.wait = span.t0 - batch.t0
                    with tracer._lock:
                        tracer._running += 1
                        tracer.in_flight_max = max(tracer.in_flight_max, tracer._running)
                    return span, _in_engine.set(False)

                def leave(span, token):
                    _in_engine.reset(token)
                    with tracer._lock:
                        tracer._running -= 1
                    tracer.end(span)

                def task(item):
                    span, token = enter()
                    try:
                        return fn(item)
                    finally:
                        leave(span, token)

                async def atask(item):
                    span, token = enter()
                    try:
                        out = afn(item)
                        if inspect.isawaitable(out):
                            out = await out
                        return out
                    finally:
                        leave(span, token)

                token = _in_engine.set(True)
                try:
                    return _orig(task, items, afn=atask if afn is not None else None, dest=dest)
                finally:
                    _in_engine.reset(token)
                    tracer.end(batch)

            setattr(engine, attr, wrapper)

    def _wrap_stream(self, stream) -> None:
        for attr in ("write", "close", "read", "pread"):
            if hasattr(stream, attr):
                self.wrap(stream, attr, "bsfs")

    def attach(self, targets: dict) -> None:
        """Wrap every probe point of the objects a workload built."""
        for client in targets.get("clients", ()):
            for attr in (
                "create", "append", "open", "read", "read_file", "write_file",
                "stat", "list", "exists", "delete",
            ):
                self.wrap(client, attr, "gateway")
        gateway = targets.get("gateway")
        if gateway is not None:
            self.wrap(gateway, "admit", "gateway.admit")
            self.wrap(gateway, "charge_bytes", "gateway.admit")
            self.wrap(gateway, "finish", "gateway")
        runner = targets.get("runner")
        if runner is not None:
            self.wrap(runner, "run", "mapreduce")
        fs = targets.get("fs")
        if fs is not None:
            for attr in ("create", "open", "append"):
                self.wrap(fs, attr, "bsfs", after=self._wrap_stream)
            self.wrap(fs, "status", "bsfs")
        store = targets.get("store")
        if store is not None:
            self._attach_store(store)

    def _attach_store(self, store) -> None:
        self.wrap(store, "create", "store")
        self.wrap(store, "append", "store", units=_blocks_written(store, 1))
        self.wrap(store, "write", "store", units=_blocks_written(store, 2))
        for attr in ("read", "read_payload"):
            self.wrap(store, attr, "store", units=_blocks_read(store))
        # One serialized version-manager interaction and nothing else.
        self.wrap(store, "snapshot", "vman.wait")
        self.wrap(store, "latest_version", "vman.wait")
        pipeline = getattr(store, "publish_pipeline", None)
        if pipeline is None:
            self.missing.append("LocalBlobStore.publish_pipeline")
        else:
            self.wrap(pipeline, "assign", "vman.wait")
            self.wrap(pipeline, "commit", "vman.wait")
        vman = store.version_manager
        self.wrap(vman, "assign_batch", "vman.core", units=_count(0))
        self.wrap(vman, "commit_batch", "vman.core", units=_count(0))
        for attr in ("snapshot_info", "latest", "published_version"):
            self.wrap(vman, attr, "vman.core")
        manager = store.provider_manager
        for attr in (
            "allocate", "release_placements", "tenant_reserve", "tenant_commit",
            "tenant_release", "tenant_begin_op", "tenant_end_op", "tenant_usage",
        ):
            self.wrap(manager, attr, "placement")
        metadata = store.metadata
        self.wrap(metadata, "get_nodes", "metadata", units=_count(0))
        self.wrap(metadata, "get_node", "metadata", units=lambda a, k, r: 1)
        self.wrap(metadata, "put_patch", "metadata", units=_count(0))
        self.wrap(
            metadata, "put_patches", "metadata",
            units=lambda a, k, r: sum(len(patch) for patch in a[0]),
        )
        dht = metadata.store
        self.wrap(dht, "multi_get", "dht", units=_count(0))
        self.wrap(dht, "multi_put", "dht", units=_count(0))
        self.wrap(dht, "get", "dht", units=lambda a, k, r: 1)
        self.wrap(dht, "put", "dht", units=lambda a, k, r: 1)
        for bucket in dht.buckets.values():
            for attr in ("get_many", "put_many", "aget_many", "aput_many"):
                self.wrap(bucket, attr, "dht.bucket")
        if store.io_engine is not None:
            self._wrap_engine(store.io_engine)
        for provider in store.providers.values():
            for attr in ("put", "get", "aput", "aget"):
                self.wrap(provider, attr, "provider")

    def attach_simulation(self) -> None:
        """The scenario calls build their own objects: wrap the module
        functions and ``Engine.run`` they go through."""
        from repro.harness import scenarios
        from repro.simulation.engine import Engine

        self.wrap(scenarios, "concurrent_appenders", "sim.scenario")
        self.wrap(scenarios, "concurrent_readers", "sim.scenario")
        self.wrap(scenarios, "deploy_microbench", "sim.deploy")
        orig = getattr(Engine, "run", None)
        if orig is None:
            self.missing.append("Engine.run")
            return
        tracer = self

        def run(engine, *args, **kwargs):
            span = tracer.start("sim.engine", "Engine.run")
            before = engine.now
            try:
                return orig(engine, *args, **kwargs)
            finally:
                span.units = engine.now - before  # simulated seconds advanced
                tracer.end(span)

        Engine.run = run


# -- folding spans into per-layer numbers --------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time per span: its duration minus the part of that interval
    its child spans cover (children may run in parallel)."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append(span)
    out = {}
    for span in spans:
        covered = 0.0
        edge = span.t0
        for child in sorted(children.get(id(span), ()), key=lambda s: s.t0):
            lo = max(child.t0, edge)
            hi = min(child.t1, span.t1)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out[id(span)] = (span.t1 - span.t0) - covered
    return out


def _ratio(a, b):
    return a / b if b else None


def layer_metrics(spans: list[Span], in_flight_max: int, moved_bytes: int) -> dict:
    """One repetition's per-layer metrics (None: the layer did no work)."""
    selfs = self_times(spans)
    self_s = defaultdict(float)
    top = defaultdict(list)  # spans entered from another layer
    for span in spans:
        self_s[span.layer] += selfs[id(span)]
        if span.parent is None or span.parent.layer != span.layer:
            top[span.layer].append(span)

    def calls(layer):
        return len(top[layer]) or None

    def time(*layers):
        return sum(self_s[l] for l in layers) if any(top[l] for l in layers) else None

    def named(layer, *suffixes):
        return [s for s in top[layer] if s.name.rsplit(".", 1)[-1] in suffixes]

    def units(found):
        return sum(s.units for s in found)

    blocks = units(top["store"])
    gets = named("metadata", "get_nodes", "get_node")
    batches = named("vman.core", "assign_batch", "commit_batch")
    scenario_s = sum(s.t1 - s.t0 for s in top["sim.scenario"])
    return {
        "gateway.ops": len([s for s in top["gateway"] if s.parent and s.parent.layer == "client"]) or None,
        "gateway.self_s": time("gateway"),
        "gateway.admit_wait_s": time("gateway.admit"),
        "gateway.rejected": sum(s.err for s in spans if s.layer == "gateway.admit") if top["gateway.admit"] else None,
        "mapreduce.jobs": calls("mapreduce"),
        "mapreduce.self_s": time("mapreduce"),
        "mapreduce.fs_calls_per_mb": _ratio(len(top["bsfs"]), moved_bytes / 1e6) if top["mapreduce"] else None,
        "bsfs.calls": calls("bsfs"),
        "bsfs.self_s": time("bsfs"),
        "bsfs.store_reads_per_pread": _ratio(
            len(named("store", "read", "read_payload")), len(named("bsfs", "read", "pread"))
        ),
        "bsfs.store_writes_per_write": _ratio(
            len(named("store", "write", "append")), len(named("bsfs", "write"))
        ),
        "store.calls": calls("store"),
        "store.self_s": time("store"),
        "store.self_us_per_block": _ratio(self_s["store"] * 1e6, blocks),
        "vman.round_trips": calls("vman.core"),
        "vman.tickets_per_round_trip": _ratio(units(batches), len(batches)),
        "vman.busy_s": time("vman.core"),
        "vman.wait_s": time("vman.wait"),
        "placement.calls": calls("placement"),
        "placement.self_s": time("placement"),
        "metadata.calls": calls("metadata"),
        "metadata.self_s": time("metadata"),
        "metadata.cache_hit_ratio": (
            1 - units(named("dht", "multi_get", "get")) / units(gets) if units(gets) else None
        ),
        "metadata.nodes_per_block": _ratio(units(top["metadata"]), blocks),
        "dht.round_trips": calls("dht"),
        "dht.keys_per_round_trip": _ratio(units(top["dht"]), len(top["dht"])),
        "dht.bucket_ops": calls("dht.bucket"),
        "dht.self_s": time("dht"),
        "dht.bucket_busy_s": time("dht.bucket"),
        "engine.batches": calls("engine"),
        "engine.tasks": len(top["engine.task"]) or None,
        "engine.queue_wait_s": sum(s.wait for s in top["engine.task"]) if top["engine"] else None,
        "engine.in_flight_max": in_flight_max if top["engine"] else None,
        "engine.self_s": time("engine", "engine.task"),
        "provider.puts": len(named("provider", "put", "aput")) or None,
        "provider.gets": len(named("provider", "get", "aget")) or None,
        "provider.busy_s": time("provider"),
        "provider.failed": sum(s.err for s in top["provider"]) if top["provider"] else None,
        "sim.points": calls("sim.scenario"),
        "sim.engine_s": time("sim.engine"),
        "sim.deploy_s": time("sim.deploy"),
        "sim.wall_s_per_sim_s": _ratio(scenario_s, sum(s.units for s in top["sim.engine"])),
        "client.unattributed_s": self_s["client"],
        "trace.spans": len(spans),
    }


def write_trace(path: str, workload: str, spans: list[Span], metrics: dict) -> None:
    """Dump one repetition's spans and the workload's per-layer numbers."""
    ids = {id(span): i for i, span in enumerate(spans, 1)}
    base = min((s.t0 for s in spans), default=0.0)
    rows = [
        [
            ids[id(s)], ids.get(id(s.parent), 0), s.op, s.layer, s.name,
            round(s.t0 - base, 7), round(s.t1 - base, 7), s.units,
        ]
        for s in spans
    ]
    with open(path, "w") as fh:
        json.dump(
            {
                "workload": workload,
                "columns": ["id", "parent", "op", "layer", "name", "start_s", "end_s", "units"],
                "spans_of_last_repetition": rows,
                "per_layer": metrics,
            },
            fh,
        )
