"""Imitation-dataset recording: (observation, teacher label) pairs on disk.

Layout: ``HEADER`` (magic, version, shapes), then records in step order,
each one ``RECORD_DTYPE`` row: a packed, little-endian numpy structured
dtype (``episode_id`` u64, ``step`` u32, ``observation``/``proprio``/
``action`` float32 arrays, ``gripper`` u8; 248,973 bytes).  That dtype is
the only statement of the layout: the writer packs with it and the reader
streams the body with it, one record a read, so reads are bit-exact
round trips of writes.  The stacks ``read_dataset`` returns are read-only
views into one `camera.FrameStore` that holds each frame block once, so
consecutive records of an episode share memory.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .atomicfile import atomic_write
from .camera import FrameStore, stack_observation
from .errors import InvalidArgumentError
from .nn import FRAME_SHAPE, HEAD_DIMS, HISTORY_LEN, PROPRIO_DIM, STACK_LAYOUT, STACK_SHAPE

MAGIC = b"GSDSET1\n"
VERSION = 2                 # 2: observation channels run (time, view, mask|depth)
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
HEADER = MAGIC + struct.pack("<IIIIII", VERSION, *STACK_SHAPE, PROPRIO_DIM, ACTION_DIM)
HEADER_SIZE = len(HEADER)
_FLOAT_FIELDS = ("observation", "proprio", "action")
_LABELS = np.dtype([(n, RECORD_DTYPE[n]) for n in RECORD_DTYPE.names if n != "observation"])


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
            _check_record(row, path, i, row["observation"])
            fh.write(row)
    return len(observations)


def _check_record(row, path, i: int, observation) -> None:
    """Reject record ``i``, one RECORD_DTYPE ``row`` whose frame blocks left to
    check are ``observation``, naming its first fault by field name: a gripper
    byte other than 0/1 or a float that min/max find not finite (NaN, +-inf)."""
    faults = [f"{name} is not finite" for name, a in (
        ("action", row["action"]), ("observation", observation), ("proprio", row["proprio"]))
        if not (math.isfinite(a.min()) and math.isfinite(a.max()))]
    if row["gripper"].max() > 1:
        faults.append("gripper must be 0 or 1")
    if faults:
        raise InvalidArgumentError(f"{path}: record {i}: {min(faults)}")


def read_dataset(path) -> list:
    """Stream every record back, one read each, checking what it stores.

    A record whose two older frame blocks equal, bit for bit, the newest two
    (checked) blocks in the store adds only its newest block; any other adds
    all three, so every file reads back exactly.  Raises on a malformed
    header, a body that is not whole records, a gripper byte other than 0/1
    or a non-finite float, naming the first bad record."""
    with open(path, "rb") as fh:
        head = fh.read(HEADER_SIZE)
        if head[:len(MAGIC)] != MAGIC:
            raise InvalidArgumentError(f"{path}: bad magic {head[:8]!r}")
        if len(head) < HEADER_SIZE:
            raise InvalidArgumentError(f"{path}: truncated header")
        version = int.from_bytes(head[len(MAGIC):len(MAGIC) + 4], "little")
        if version != VERSION:
            raise InvalidArgumentError(f"{path}: dataset version {version}, not {VERSION}: "
                                       "version 2 puts time outermost in the observation channels")
        if head != HEADER:
            raise InvalidArgumentError(f"{path}: unsupported header {head!r}")
        n, rest = divmod(os.fstat(fh.fileno()).st_size - HEADER_SIZE, RECORD_SIZE)
        if rest:
            raise InvalidArgumentError(f"{path}: truncated record data")
        store = FrameStore(n + HISTORY_LEN - 1)     # a chained file fills one chunk
        row, labels = np.empty(1, RECORD_DTYPE), np.empty(n, _LABELS)
        obs = row["observation"].reshape(*STACK_LAYOUT, *FRAME_SHAPE)
        stacks, older = [], None                    # older: the store's newest two blocks
        for i in range(n):
            if fh.readinto(row) != RECORD_SIZE:     # the file shrank as it was read
                raise InvalidArgumentError(f"{path}: truncated record data")
            chained = np.array_equal(obs[:-1].view(np.uint32), older)  # -0.0 != 0.0
            new = obs[-1:] if chained else obs      # older blocks equal checked ones
            _check_record(row, path, i, new)
            labels[i:i + 1] = row[list(_LABELS.names)]
            for block in new:
                store.append(block)
            stacks.append(stack_observation(store))
            older = stacks[-1].reshape(obs.shape)[1:].view(np.uint32)
    labels.flags.writeable = False
    return [DistillRecord(eid, step, stack, proprio, action, grip)
            for (eid, step, grip), stack, proprio, action in zip(
                labels[["episode_id", "step", "gripper"]].tolist(), stacks,
                labels["proprio"], labels["action"])]
