"""Imitation-dataset recording: (observation, teacher label) pairs on disk.

Layout: ``HEADER`` (magic, version, shapes), then records in step order,
each one ``RECORD_DTYPE`` row: a packed, little-endian numpy structured
dtype (``episode_id`` u64, ``step`` u32, ``observation``/``proprio``/
``action`` float32 arrays, ``gripper`` u8; 248,973 bytes).  That dtype is
the only statement of the layout: the writer packs with it and the reader
maps the whole body with it in one call, so reads are bit-exact round trips
of writes.  The records ``read_dataset`` returns are read-only views into
that one array, not copies.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .atomicfile import atomic_write
from .errors import InvalidArgumentError
from .nn import HEAD_DIMS, PROPRIO_DIM, STACK_SHAPE

MAGIC = b"GSDSET1\n"
ACTION_DIM = HEAD_DIMS[-1]
RECORD_DTYPE = np.dtype([
    ("episode_id", "<u8"),
    ("step", "<u4"),
    ("observation", "<f4", STACK_SHAPE),
    ("proprio", "<f4", (PROPRIO_DIM,)),
    ("action", "<f4", (ACTION_DIM,)),
    ("gripper", "u1"),
])
RECORD_SIZE = RECORD_DTYPE.itemsize
HEADER = MAGIC + struct.pack("<IIIIII", 1, *STACK_SHAPE, PROPRIO_DIM, ACTION_DIM)
HEADER_SIZE = len(HEADER)
_FLOAT_FIELDS = ("observation", "proprio", "action")


@dataclass(frozen=True)
class DistillRecord:
    """One supervision pair: stacked observation, proprio, teacher action."""

    episode_id: int
    step: int
    observation: np.ndarray     # [12,54,96] float32
    proprio: np.ndarray         # [24] float32
    action: np.ndarray          # [8] float32
    gripper: int                # 0/1 close bit

    def __post_init__(self):
        for name in _FLOAT_FIELDS:
            if np.shape(getattr(self, name)) != RECORD_DTYPE[name].shape:
                raise InvalidArgumentError(f"{name} must be {RECORD_DTYPE[name].shape}")
        if self.gripper not in (0, 1):
            raise InvalidArgumentError(f"gripper must be 0 or 1, got {self.gripper!r}")


def record_distillation(log, observations, path) -> int:
    """Write one episode's (observation, label) stream; returns record count.

    ``observations`` is the list produced by run_episode(collect_observations
    =True): (stacked, proprio, action vector, gripper bit, step index).  Each
    record is checked as it is packed, as ``read_dataset`` checks it; a
    rejection names the path and the record, and leaves no file.
    """
    if len(observations) != log.n_steps:
        raise InvalidArgumentError(
            f"observation stream ({len(observations)}) does not match "
            f"decision steps ({log.n_steps})"
        )
    row = np.zeros(1, RECORD_DTYPE)
    with atomic_write(path) as fh:
        fh.write(HEADER)
        for i, (*floats, grip, step) in enumerate(observations):
            try:    # checks the shapes, which numpy would broadcast into the row
                rec = DistillRecord(log.seed & 0xFFFFFFFFFFFFFFFF, step, *floats, grip)
            except InvalidArgumentError as exc:
                raise InvalidArgumentError(f"{path}: record {i}: {exc}") from None
            with np.errstate(over="ignore"):          # past float32's range: inf
                for name in RECORD_DTYPE.names:
                    row[name] = getattr(rec, name)
            _check_rows(row, path, i)
            fh.write(row.tobytes())
    return len(observations)


def _check_rows(rows, path, first: int = 0) -> None:
    """Reject the first row (``rows[0]`` is record ``first``) with a gripper
    byte other than 0/1 or a float that is not finite, naming its record.
    min/max propagate NaN and expose +-inf: per field first, then per row."""
    if not len(rows) or rows["gripper"].max() <= 1 and all(
            math.isfinite(rows[name].min()) and math.isfinite(rows[name].max())
            for name in _FLOAT_FIELDS):
        return
    faults = [("gripper must be 0 or 1", rows["gripper"] > 1)]
    for name in _FLOAT_FIELDS:
        axes = tuple(range(1, rows[name].ndim))
        finite = np.isfinite(rows[name].min(axis=axes)) & np.isfinite(rows[name].max(axis=axes))
        faults.append((f"{name} is not finite", ~finite))
    i, what = min((int(np.argmax(mask)), what) for what, mask in faults if mask.any())
    raise InvalidArgumentError(f"{path}: record {first + i}: {what}")


def read_dataset(path) -> list:
    """Load every record back as views into one array.

    Raises on a malformed header, a body that is not whole records, a
    gripper byte other than 0/1 or a non-finite float, naming the first bad
    record.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    head = data[:HEADER_SIZE]
    if head[:len(MAGIC)] != MAGIC:
        raise InvalidArgumentError(f"{path}: bad magic {head[:8]!r}")
    if len(head) < HEADER_SIZE:
        raise InvalidArgumentError(f"{path}: truncated header")
    if head != HEADER:
        raise InvalidArgumentError(f"{path}: unsupported header {head!r}")
    if (len(data) - HEADER_SIZE) % RECORD_SIZE != 0:
        raise InvalidArgumentError(f"{path}: truncated record data")
    rows = np.frombuffer(data, dtype=RECORD_DTYPE, offset=HEADER_SIZE)
    _check_rows(rows, path)
    obs, proprio, action = (rows[name] for name in _FLOAT_FIELDS)
    return [DistillRecord(eid, step, obs[i], proprio[i], action[i], grip)
            for i, (eid, step, grip) in enumerate(
                rows[["episode_id", "step", "gripper"]].tolist())]
