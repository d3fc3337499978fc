"""The functional job runner: a whole Hadoop job on real bytes.

Runs the full pipeline — split, schedule (locality-aware), map,
combine, shuffle, sort, reduce, commit — against any
:class:`~repro.fsapi.FileSystem` (BSFS or HDFS).  Execution is
sequential and deterministic; timing belongs to the simulated
deployment, correctness and scheduling statistics belong here.

Task retry: a failing task attempt is retried up to ``max_attempts``
(Hadoop re-executes failed tasks, §II-B); a task that exhausts retries
fails the job.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Sequence

from repro.errors import JobFailed, TaskFailed
from repro.fsapi import FileSystem
from repro.mapreduce.io import (
    SyntheticSplit,
    compute_file_splits,
    write_text_records,
)
from repro.mapreduce.job import JobConf
from repro.mapreduce.jobtracker import ScheduleStats, schedule_map_tasks
from repro.mapreduce.tasks import MapOutput, run_map_task, run_reduce_task

__all__ = ["JobResult", "LocalJobRunner"]


@dataclass
class JobResult:
    """What a finished job reports."""

    job_name: str
    output_paths: list[str]
    counters: Counter = field(default_factory=Counter)
    schedule: Optional[ScheduleStats] = None

    @property
    def locality(self) -> float:
        """Fraction of data-local map tasks."""
        return self.schedule.locality if self.schedule else 1.0


class LocalJobRunner:
    """In-process jobtracker + tasktrackers.

    Args:
        fs: the storage backend (BSFS or HDFS — the paper's whole point
            is that jobs run "out-of-the-box" on either).
        trackers: tasktracker host names; defaults to a synthetic pool.
            In a faithful deployment these are the same hosts as the
            data providers/datanodes (compute co-located with storage).
        slots_per_tracker: concurrent map slots per tracker (Hadoop's
            classic default is 2).
        max_attempts: per-task retry budget.
    """

    def __init__(
        self,
        fs: FileSystem,
        trackers: Optional[Sequence[str]] = None,
        slots_per_tracker: int = 2,
        max_attempts: int = 3,
    ):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.fs = fs
        self.trackers = list(trackers) if trackers else [f"tracker-{i}" for i in range(4)]
        self.slots_per_tracker = slots_per_tracker
        self.max_attempts = max_attempts

    def _attempt(self, fn, what: str, counters: Counter):
        """Run ``fn(attempt_counters)`` until it succeeds; as in Hadoop,
        a failed attempt's counters are discarded."""
        last: Optional[Exception] = None
        for _ in range(self.max_attempts):
            attempt_counters: Counter = Counter()
            try:
                result = fn(attempt_counters)
            except TaskFailed as exc:
                last = exc
                counters["task_retries"] += 1
            else:
                counters.update(attempt_counters)
                return result
        raise JobFailed(f"{what} failed after {self.max_attempts} attempts") from last

    def run(self, job: JobConf) -> JobResult:
        """Execute *job* to completion and return its result."""
        counters: Counter = Counter()

        # --- split -------------------------------------------------------
        if job.synthetic_maps:
            splits = [SyntheticSplit(index=i) for i in range(job.synthetic_maps)]
        else:
            split_size = job.split_size or self.fs.block_size
            splits = compute_file_splits(
                self.fs,
                list(job.input_paths),
                split_size,
                engine=getattr(self.fs, "io_engine", None),
            )
        if not splits:
            raise JobFailed(f"job {job.name!r} has no input")

        # --- schedule (locality bookkeeping) ------------------------------
        assignments, schedule = schedule_map_tasks(
            splits, self.trackers, self.slots_per_tracker
        )
        counters["maps_total"] = schedule.total
        counters["maps_local"] = schedule.local
        counters["maps_remote"] = schedule.remote

        # --- map phase -----------------------------------------------------
        self.fs.make_dirs(job.output_dir)
        map_outputs: list[MapOutput] = []
        output_paths: list[str] = []
        for assignment in assignments:
            output = self._attempt(
                partial(run_map_task, self.fs, job, assignment.task_index, assignment.split),
                what=f"map task {assignment.task_index}",
                counters=counters,
            )
            if job.is_map_only:
                # RandomTextWriter shape: "the output of each of the
                # mappers is stored as a separate file" (§V-G).
                path = f"{job.output_dir}/part-m-{assignment.task_index:05d}"
                counters["output_bytes"] += write_text_records(
                    self.fs, path, output.partitions[0], client=assignment.tracker
                )
                output_paths.append(path)
            else:
                map_outputs.append(output)

        # --- reduce phase ------------------------------------------------------
        if not job.is_map_only:
            for partition in range(job.num_reducers):
                pairs = self._attempt(
                    partial(run_reduce_task, job, partition, map_outputs),
                    what=f"reduce task {partition}",
                    counters=counters,
                )
                path = f"{job.output_dir}/part-r-{partition:05d}"
                counters["output_bytes"] += write_text_records(self.fs, path, pairs)
                output_paths.append(path)

        return JobResult(
            job_name=job.name,
            output_paths=output_paths,
            counters=counters,
            schedule=schedule,
        )
