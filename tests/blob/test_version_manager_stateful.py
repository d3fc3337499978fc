"""Stateful property testing of the version-manager state machine.

Hypothesis drives random interleavings of assign/commit/abort (each a
batch of one, the core's only vocabulary) against a simple reference
model, checking the §III-A invariants after every step:

* version numbers are dense and strictly increasing, and never reused:
  every abort tombstones, the highest version's too;
* the publication watermark equals the longest committed prefix
  (linearizability's reveal-in-order rule);
* append offsets always equal the preceding snapshot's size, even when
  that snapshot is still uncommitted;
* history hints contain exactly the lower versions' write ranges.
"""

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.blob import VersionManagerCore

from tests.blob.vman_calls import assign, commit

BS = 16


class VersionManagerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.vm = VersionManagerCore()
        self.vm.create_blob("b", block_size=BS)
        self.model_records = {0: (0, 0, 0)}  # version -> (offset, length, size_after)
        self.model_committed = {0}
        self.model_tombstoned = set()
        self.last_published = 0

    # -- helpers ------------------------------------------------------------

    @property
    def last_version(self):
        return max(self.model_records)

    @property
    def current_size(self):
        return self.model_records[self.last_version][2]

    def uncommitted(self):
        return sorted(set(self.model_records) - self.model_committed)

    # -- rules -------------------------------------------------------------

    @rule(blocks=st.integers(min_value=1, max_value=4))
    def assign_append(self, blocks):
        if self.current_size % BS != 0:
            return  # unaligned size: append is refused (tested elsewhere)
        length = blocks * BS
        ticket = assign(self.vm, "b", length)
        assert ticket.version == self.last_version + 1
        assert ticket.offset == self.current_size
        self.model_records[ticket.version] = (
            ticket.offset,
            length,
            self.current_size + length,
        )

    @rule(
        start=st.integers(min_value=0, max_value=6),
        blocks=st.integers(min_value=1, max_value=4),
    )
    def assign_overwrite(self, start, blocks):
        offset = start * BS
        if offset > self.current_size:
            return  # would be a hole
        length = blocks * BS
        ticket = assign(self.vm, "b", length, offset=offset)
        assert ticket.version == self.last_version + 1
        self.model_records[ticket.version] = (
            offset,
            length,
            max(self.current_size, offset + length),
        )

    @rule(pick=st.randoms(use_true_random=False))
    def commit_random_uncommitted(self, pick):
        pending = self.uncommitted()
        if not pending:
            return
        version = pick.choice(pending)
        commit(self.vm, "b", version)
        self.model_committed.add(version)

    @precondition(lambda self: self.last_version not in self.model_committed)
    @rule()
    def abort_last(self):
        """The highest version tombstones too; the next assign's number
        is fresh (the assign rules check ``last_version + 1``)."""
        self._abort(self.last_version)

    @rule(pick=st.randoms(use_true_random=False))
    def abort_random_uncommitted(self, pick):
        """Any uncommitted version may abort: it tombstones (commits as
        a no-op in the model)."""
        pending = self.uncommitted()
        if pending:
            self._abort(pick.choice(pending))

    def _abort(self, version):
        spec = self.vm.abort("b", version)
        assert spec.version == version
        assert spec.size_after == self.model_records[version][2]
        assert spec.prior_size == self.model_records[version - 1][2]
        self.model_committed.add(version)
        self.model_tombstoned.add(version)

    # -- invariants --------------------------------------------------------------

    @invariant()
    def versions_dense(self):
        assert sorted(self.model_records) == list(range(self.last_version + 1))
        assert self.vm.blob("b").last_assigned == self.last_version

    @invariant()
    def watermark_is_longest_committed_prefix(self):
        expected = 0
        while expected + 1 in self.model_committed:
            expected += 1
        assert self.vm.published_version("b") == expected

    @invariant()
    def published_snapshots_readable_others_not(self):
        from repro.errors import VersionNotReady

        watermark = self.vm.published_version("b")
        for version in self.model_records:
            if version <= watermark:
                info = self.vm.snapshot_info("b", version)
                assert info.size == self.model_records[version][2]
                assert info.tombstone == (version in self.model_tombstoned)
            else:
                try:
                    self.vm.snapshot_info("b", version)
                    assert False, "unpublished snapshot was readable"
                except VersionNotReady:
                    pass

    @invariant()
    def history_hints_match_model(self):
        last = self.last_version
        if last == 0:
            return
        hints = self.vm.history_upto("b", last)
        expected = [
            (v, off // BS, -(-(off + ln) // BS))
            for v, (off, ln, _sz) in sorted(self.model_records.items())
            if v >= 1 and v <= last
        ]
        assert list(hints) == expected

    @invariant()
    def published_version_monotone(self):
        """The watermark never decreases and never passes an
        uncommitted version."""
        published = self.vm.published_version("b")
        assert published >= self.last_published
        assert all(v in self.model_committed for v in range(published + 1))
        self.last_published = published


TestVersionManagerStateful = VersionManagerMachine.TestCase
TestVersionManagerStateful.settings = settings(
    stateful_step_count=30, deadline=None
)
