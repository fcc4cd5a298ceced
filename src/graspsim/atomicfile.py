"""The one way graspsim writes a file: to a temporary file, then a rename.

A reader of the target sees the earlier file or the complete new one, never
a part.  No fsync: this guards against a failed write, not a power loss.
"""

import os
from contextlib import contextmanager

from .errors import InvalidArgumentError


def check_output_path(path) -> None:
    """Reject an empty path, a directory, or a path in a missing directory."""
    if not os.fspath(path):
        raise InvalidArgumentError("output path is empty")
    if os.path.isdir(path):
        raise InvalidArgumentError(f"output path is a directory: {path}")
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise InvalidArgumentError(f"output directory does not exist: {parent}")


@contextmanager
def atomic_write(path, mode: str = "wb", **open_kwargs):
    """Yield a file open on a temporary twin of ``path``; a clean exit renames
    it onto ``path``, an exception (in the write or the rename) deletes it and
    keeps any earlier file.  ``check_output_path`` runs before any file opens."""
    check_output_path(path)
    tmp = f"{os.fspath(path)}.tmp{os.getpid()}"
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
