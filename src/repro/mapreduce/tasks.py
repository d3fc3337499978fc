"""Map and reduce task execution.

Functional (real-bytes) task bodies: a map task reads its split's
records through the file system, runs the user mapper, partitions its
output by key hash (a map-only task keeps emit order); a reduce task
merges its partition from all maps, groups by key, runs the reducer.
Failures raise :class:`~repro.errors.TaskFailed` so the runner can
retry.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Optional

from repro.dht.ring import stable_hash
from repro.errors import TaskFailed
from repro.fsapi import FileSystem
from repro.mapreduce.io import FileSplit, Split, SyntheticSplit, iter_lines
from repro.mapreduce.job import Emitter, JobConf

__all__ = ["partition_for", "run_map_task", "run_reduce_task", "MapOutput"]


def partition_for(key: object, num_reducers: int) -> int:
    """Hadoop's HashPartitioner, with a stable cross-run hash."""
    return stable_hash(key, salt=b"partition") % num_reducers


class MapOutput:
    """One map task's partitioned, optionally combined, output."""

    def __init__(self, task_index: int, num_reducers: int):
        self.task_index = task_index
        self.partitions: dict[int, list[tuple[object, object]]] = {
            r: [] for r in range(num_reducers)
        }

    def add(self, key: object, value: object, num_reducers: int, partitioner=None) -> None:
        """Route one pair to its reducer partition."""
        if partitioner is None:
            partition = 0 if num_reducers == 1 else partition_for(key, num_reducers)
        else:
            partition = partitioner(key, num_reducers)
            if not 0 <= partition < num_reducers:
                raise ValueError(
                    f"partitioner returned {partition} for {num_reducers} reducers"
                )
        self.partitions[partition].append((key, value))

    @property
    def record_count(self) -> int:
        """Total pairs across partitions."""
        return sum(len(p) for p in self.partitions.values())


def _apply_combiner(job: JobConf, output: MapOutput) -> None:
    """Run the combiner on each partition in place (mini-reduce)."""
    assert job.combiner is not None
    for partition, pairs in output.partitions.items():
        grouped: dict[object, list] = defaultdict(list)
        order: list[object] = []
        for key, value in pairs:
            if key not in grouped:
                order.append(key)
            grouped[key].append(value)
        emitter = Emitter()
        for key in order:
            job.combiner(key, grouped[key], emitter)
        output.partitions[partition] = emitter.pairs


def run_map_task(
    fs: FileSystem,
    job: JobConf,
    task_index: int,
    split: Split,
    counters: Optional[Counter] = None,
) -> MapOutput:
    """Execute one map task and return its partitioned output."""
    counters = counters if counters is not None else Counter()
    emitter = Emitter()
    try:
        if isinstance(split, SyntheticSplit):
            job.mapper(split.index, "", emitter)
            counters["map_records_read"] += 1
        else:
            assert isinstance(split, FileSplit)
            mapper, records = job.mapper, 0
            with fs.open(split.path) as stream:
                for offset, line in iter_lines(stream, split.offset, split.length):
                    mapper(offset, line, emitter)
                    records += 1
            counters["map_records_read"] += records
            counters["map_bytes_read"] += split.length
    except Exception as exc:
        raise TaskFailed(f"map task {task_index} failed: {exc!r}") from exc
    output = MapOutput(task_index, job.num_reducers)
    if job.is_map_only:
        # Hadoop's zero-reducer job: the part file is the mapper's pairs
        # in emit order, never partitioned.
        output.partitions = {0: emitter.pairs}
    else:
        for key, value in emitter.pairs:
            output.add(key, value, job.num_reducers, partitioner=job.partitioner)
    counters["map_records_emitted"] += output.record_count
    if job.combiner is not None:
        _apply_combiner(job, output)
        counters["combine_records_out"] += output.record_count
    return output


def run_reduce_task(
    job: JobConf,
    partition: int,
    map_outputs: list[MapOutput],
    counters: Optional[Counter] = None,
) -> list[tuple[object, object]]:
    """Merge one partition from every map, group, reduce.

    Returns the reducer's output pairs, key-sorted (Hadoop's merge sort
    guarantees reducer input order, and we keep output order too).
    """
    counters = counters if counters is not None else Counter()
    grouped: dict[object, list] = defaultdict(list)
    for output in map_outputs:
        for key, value in output.partitions.get(partition, []):
            grouped[key].append(value)
            counters["reduce_records_in"] += 1
    emitter = Emitter()
    assert job.reducer is not None
    try:
        for key in sorted(grouped, key=lambda k: (str(type(k)), str(k))):
            job.reducer(key, grouped[key], emitter)
    except Exception as exc:
        raise TaskFailed(f"reduce task {partition} failed: {exc!r}") from exc
    counters["reduce_records_out"] += len(emitter.pairs)
    return emitter.pairs
