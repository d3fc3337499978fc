"""One writer's view of the version manager's batch calls, for tests.

The core takes batches only (DESIGN.md §10).  A test that plays one
writer at a time sends a batch of one and sees the member's error
raised, as the store's publish pipeline hands it back to its writer.
"""

from repro.blob.version_manager import AssignRequest


def assign(vm, blob_id, length, offset=None):
    """Assign one write at *offset* (``None``: an append); its ticket."""
    return _only(vm.assign_batch([AssignRequest(blob_id, length, offset)]))


def commit(vm, blob_id, version):
    """Report one version complete; the BLOB's new watermark."""
    return _only(vm.commit_batch([(blob_id, version)]))


def _only(results):
    [result] = results
    if isinstance(result, BaseException):
        raise result
    return result
