"""The one way graspsim writes a file: to a temporary file, then a rename.

A reader of the target sees the earlier file or the complete new one, never
a part.  No fsync: this guards against a failed write, not a power loss.
"""

import os
from contextlib import contextmanager

from .errors import InvalidArgumentError


@contextmanager
def atomic_write(path, mode: str = "wb", **open_kwargs):
    """Yield a file open on a temporary twin of ``path``; a clean exit renames
    it onto ``path``, an exception (in the write or the rename) deletes it and
    keeps any earlier file.  An empty path is rejected before any file opens."""
    if not os.fspath(path):
        raise InvalidArgumentError("output path is empty")
    tmp = f"{os.fspath(path)}.tmp{os.getpid()}"
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
