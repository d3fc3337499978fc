"""Hadoop MapReduce over the simulated cluster (paper §V-G).

A pull-model jobtracker and heartbeat-driven tasktrackers, faithful to
Hadoop 0.20's scheduling: each tracker asks for work every heartbeat,
the jobtracker prefers a task whose input block is local to the asking
tracker ("local maps"), otherwise hands out any pending task ("remote
maps").  Map tasks consume simulated time for JVM start, input reading
(through the storage backend's client protocol — so placement skew and
NIC contention shape the read times) and/or output writing.

Two job shapes cover the paper's applications:

* **scan jobs** (distributed grep): one map per input block; the map
  streams its block at the application's scan rate — local blocks via
  loopback, remote blocks across NICs where hotspots throttle them;
* **write jobs** (RandomTextWriter): fixed number of generator maps,
  each producing a stream of bytes into its own output file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional, Protocol

from repro.simulation.cluster import SimCluster, SimNode
from repro.simulation.engine import Engine, Event

__all__ = ["JobProfile", "StorageAdapter", "BlobSeerAdapter", "HdfsAdapter", "SimHadoop"]


@dataclass(frozen=True)
class JobProfile:
    """Per-job framework constants (calibrated; see EXPERIMENTS.md).

    Attributes:
        jvm_start: per-task JVM launch cost (classic 0.20 overhead).
        heartbeat: tasktracker polling interval (0.20 default: 3 s).
        job_init: job client setup/submission before tasks can start.
        slots_per_tracker: concurrent map slots (0.20 default: 2).
        reduce_time: cost of the (tiny) reduce+commit phase for scan
            jobs — grep's reducers only sum a handful of counters.
        max_task_attempts: a failing task (storage errors, dead
            datanodes) is re-queued and re-executed up to this many
            times before the whole job aborts ("re-executing the
            failed tasks", §II-B).
    """

    jvm_start: float = 1.0
    heartbeat: float = 3.0
    job_init: float = 4.0
    slots_per_tracker: int = 2
    reduce_time: float = 1.5
    max_task_attempts: int = 4


class StorageAdapter(Protocol):
    """What SimHadoop needs from a storage deployment."""

    def block_hosts(self, handle: str) -> list[tuple[str, ...]]:
        """Hosts per block of an input file (affinity primitive)."""
        ...  # pragma: no cover

    def read_block(
        self, client: SimNode, handle: str, index: int, rate: Optional[float]
    ) -> Generator:
        """Stream one input block to *client* at up to *rate*."""
        ...  # pragma: no cover

    def write_output(
        self, client: SimNode, path: str, nbytes: int, produce_rate: Optional[float]
    ) -> Generator:
        """Create and write one mapper output file from *client*."""
        ...  # pragma: no cover


class BlobSeerAdapter:
    """BSFS-backed storage for simulated Hadoop."""

    def __init__(self, blobseer) -> None:
        self.blobseer = blobseer
        self._block_size = blobseer.cal.block_size

    def block_hosts(self, handle: str) -> list[tuple[str, ...]]:
        """Provider tuples per block (BlobSeer's §IV-C primitive)."""
        return self.blobseer.block_hosts(handle)

    def read_block(self, client, handle, index, rate) -> Generator:
        """One whole-block prefetch (§IV-B) via the §III-C protocol."""
        info = self.blobseer.vm_core.latest(handle)
        offset = index * self._block_size
        length = min(self._block_size, info.size - offset)
        result = yield from self.blobseer.read(
            client, handle, offset=offset, size=length, consume_rate=rate
        )
        return result

    def write_output(self, client, path, nbytes, produce_rate) -> Generator:
        """Register a fresh BLOB and append block-by-block (write-behind)."""
        blob_id = f"blob:{path}"
        yield from self.blobseer.create(client, blob_id)
        yield from self.blobseer.register_file(client, path, blob_id)
        remaining = nbytes
        while remaining > 0:
            piece = min(self._block_size, remaining)
            yield from self.blobseer.append(
                client, blob_id, piece, produce_rate=produce_rate
            )
            remaining -= piece


class HdfsAdapter:
    """HDFS-backed storage for simulated Hadoop."""

    def __init__(self, hdfs) -> None:
        self.hdfs = hdfs
        self._block_size = hdfs.cal.block_size

    def block_hosts(self, handle: str) -> list[tuple[str, ...]]:
        """Datanode tuples per chunk (namenode metadata)."""
        return self.hdfs.chunk_hosts(handle)

    def read_block(self, client, handle, index, rate) -> Generator:
        """Stream one chunk from a datanode."""
        meta = self.hdfs.nn_core.file_meta(handle)
        offset = index * self._block_size
        length = min(self._block_size, meta.size - offset)
        result = yield from self.hdfs.read(
            client, handle, offset=offset, size=length, consume_rate=rate
        )
        return result

    def write_output(self, client, path, nbytes, produce_rate) -> Generator:
        """Write a file chunk pipeline by chunk pipeline."""
        yield from self.hdfs.write_file(client, path, nbytes, produce_rate=produce_rate)


class SimHadoop:
    """Jobtracker + tasktrackers over simulated storage."""

    def __init__(
        self,
        cluster: SimCluster,
        adapter: StorageAdapter,
        tracker_nodes: list[SimNode],
        profile: JobProfile = JobProfile(),
    ):
        if not tracker_nodes:
            raise ValueError("need at least one tasktracker")
        self.cluster = cluster
        self.adapter = adapter
        self.trackers = tracker_nodes
        self.profile = profile
        #: Scheduling statistics of the last job.
        self.last_local = 0
        self.last_remote = 0
        self.last_failures = 0

    @property
    def engine(self) -> Engine:
        """The driving engine."""
        return self.cluster.engine

    # -- the scheduling core (shared by both job shapes) -----------------------------

    def _run_tasks(self, tasks: dict[int, tuple[str, ...]], task_body) -> Generator:
        """Heartbeat scheduling loop.

        *tasks* maps task index → preferred hosts (empty = no affinity);
        ``task_body(tracker_node, task_index)`` is a generator run per
        task.  Returns when every task has completed.
        """
        profile = self.profile
        pending = dict(tasks)
        by_host: dict[str, list[int]] = {}
        for index, hosts in tasks.items():
            for host in hosts:
                by_host.setdefault(host, []).append(index)
        free_slots = {node.name: profile.slots_per_tracker for node in self.trackers}
        done_event = Event(self.engine)
        remaining = [len(tasks)]
        attempts: dict[int, int] = {}
        self.last_local = 0
        self.last_remote = 0
        self.last_failures = 0

        def next_task(tracker: str) -> Optional[int]:
            queue = by_host.get(tracker, [])
            while queue:
                candidate = queue.pop(0)
                if candidate in pending:
                    self.last_local += 1
                    return candidate
            if pending:
                self.last_remote += 1
                return next(iter(pending))
            return None

        def task_wrapper(node: SimNode, index: int) -> Generator:
            from repro.errors import JobFailed, ReproError

            yield self.engine.timeout(profile.jvm_start)
            try:
                yield from task_body(node, index)
            except ReproError as exc:
                free_slots[node.name] += 1
                self.last_failures += 1
                if attempts.get(index, 0) >= profile.max_task_attempts:
                    if not done_event.triggered:
                        done_event.fail(
                            JobFailed(
                                f"task {index} failed "
                                f"{profile.max_task_attempts} times: {exc!r}"
                            )
                        )
                    return
                # Re-queue for another attempt on any tracker.
                pending[index] = tasks[index]
                for host in tasks[index]:
                    by_host.setdefault(host, []).append(index)
                return
            free_slots[node.name] += 1
            remaining[0] -= 1
            if remaining[0] == 0:
                done_event.succeed()

        def tracker_loop(node: SimNode, stagger: float) -> Generator:
            yield self.engine.timeout(stagger)
            while remaining[0] > 0:
                # Hadoop 0.20 assigned at most ONE task per heartbeat;
                # slots fill over successive heartbeats.
                if free_slots[node.name] > 0:
                    index = next_task(node.name)
                    if index is not None:
                        del pending[index]
                        attempts[index] = attempts.get(index, 0) + 1
                        free_slots[node.name] -= 1
                        self.engine.process(
                            task_wrapper(node, index), name=f"task-{index}"
                        )
                if done_event.triggered:
                    break
                yield self.engine.timeout(profile.heartbeat)

        for i, node in enumerate(self.trackers):
            # Heartbeats are staggered across trackers, as in a real
            # cluster where trackers started at different times.
            stagger = profile.heartbeat * (i / max(1, len(self.trackers)))
            self.engine.process(tracker_loop(node, stagger), name=f"tracker-{node.name}")
        yield done_event

    # -- job shapes ----------------------------------------------------------------

    def run_scan_job(
        self, input_handle: str, scan_rate: float, reduce_phase: bool = True
    ) -> Generator:
        """Distributed-grep shape: one map per input block.

        Returns the job completion time in simulated seconds.
        """
        start = self.engine.now
        hosts_per_block = self.adapter.block_hosts(input_handle)
        if not hosts_per_block:
            raise ValueError(f"input {input_handle!r} is empty")
        yield self.engine.timeout(self.profile.job_init)
        tasks = {i: hosts for i, hosts in enumerate(hosts_per_block)}

        def body(node: SimNode, index: int) -> Generator:
            yield from self.adapter.read_block(node, input_handle, index, rate=scan_rate)

        yield from self._run_tasks(tasks, body)
        if reduce_phase:
            yield self.engine.timeout(self.profile.reduce_time)
        return self.engine.now - start

    def run_write_job(
        self,
        output_prefix: str,
        num_mappers: int,
        bytes_per_mapper: int,
        generate_rate: float,
    ) -> Generator:
        """RandomTextWriter shape: generator maps, one output file each.

        Returns the job completion time in simulated seconds.
        """
        if num_mappers < 1:
            raise ValueError("num_mappers must be >= 1")
        start = self.engine.now
        yield self.engine.timeout(self.profile.job_init)
        tasks = {i: () for i in range(num_mappers)}

        def body(node: SimNode, index: int) -> Generator:
            yield from self.adapter.write_output(
                node,
                f"{output_prefix}/part-m-{index:05d}",
                bytes_per_mapper,
                produce_rate=generate_rate,
            )

        yield from self._run_tasks(tasks, body)
        return self.engine.now - start
