"""Imitation-dataset recording: (observation, teacher label) pairs on disk.

Binary layout: a fixed header (magic, version, shapes) followed by packed
records in step order.  All floats are little-endian float32; reads are
bit-exact round trips of writes.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .nn import PROPRIO_DIM, STACK_CHANNELS

MAGIC = b"GSDSET1\n"
OBS_SHAPE = (STACK_CHANNELS, 54, 96)
ACTION_DIM = 8
_N_OBS = int(np.prod(OBS_SHAPE))
RECORD_SIZE = 8 + 4 + 4 * (_N_OBS + PROPRIO_DIM + ACTION_DIM) + 1
HEADER = MAGIC + struct.pack("<IIIIII", 1, *OBS_SHAPE, PROPRIO_DIM, ACTION_DIM)
HEADER_SIZE = len(HEADER)


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
        if self.observation.shape != OBS_SHAPE:
            raise InvalidArgumentError(f"observation must be {OBS_SHAPE}")
        if self.proprio.shape != (PROPRIO_DIM,):
            raise InvalidArgumentError(f"proprio must be ({PROPRIO_DIM},)")
        if self.action.shape != (ACTION_DIM,):
            raise InvalidArgumentError(f"action must be ({ACTION_DIM},)")
        if self.gripper not in (0, 1):
            raise InvalidArgumentError(f"gripper must be 0 or 1, got {self.gripper!r}")


class DatasetWriter:
    """Append-only writer; one header, then records in the order given.

    Writes go to a temporary file that a clean exit moves to ``path`` and an
    exception deletes, so a failed recording never leaves a valid-looking file.
    """

    def __init__(self, path):
        self.path = os.fspath(path)
        self._tmp = f"{self.path}.tmp{os.getpid()}"
        self._fh = open(self._tmp, "wb")
        self._fh.write(HEADER)
        self.count = 0

    def append(self, rec: DistillRecord) -> None:
        self._fh.write(struct.pack("<QI", rec.episode_id, rec.step))
        self._fh.write(np.ascontiguousarray(rec.observation, dtype="<f4").tobytes())
        self._fh.write(np.ascontiguousarray(rec.proprio, dtype="<f4").tobytes())
        self._fh.write(np.ascontiguousarray(rec.action, dtype="<f4").tobytes())
        self._fh.write(struct.pack("<B", rec.gripper))
        self.count += 1

    def close(self) -> None:
        self._fh.close()
        os.replace(self._tmp, self.path)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc):
        if exc_type is None:
            self.close()
        else:
            self._fh.close()
            os.remove(self._tmp)


def record_distillation(log, observations, path) -> int:
    """Write one episode's (observation, label) stream; returns record count.

    ``observations`` is the list produced by run_episode(collect_observations
    =True): (stacked, proprio, action vector, gripper bit, step index).
    """
    if len(observations) != log.n_steps:
        raise InvalidArgumentError(
            f"observation stream ({len(observations)}) does not match "
            f"decision steps ({log.n_steps})"
        )
    with DatasetWriter(path) as w:
        for stacked, proprio, action, grip, step in observations:
            w.append(DistillRecord(
                episode_id=log.seed & 0xFFFFFFFFFFFFFFFF,
                step=step,
                observation=np.asarray(stacked, dtype=np.float32),
                proprio=np.asarray(proprio, dtype=np.float32),
                action=np.asarray(action, dtype=np.float32),
                gripper=int(grip),
            ))
        return w.count


def read_dataset(path) -> list:
    """Load every record back; raises on a malformed header or truncation."""
    with open(path, "rb") as fh:
        head = fh.read(HEADER_SIZE)
        if head[:len(MAGIC)] != MAGIC:
            raise InvalidArgumentError(f"{path}: bad magic {head[:8]!r}")
        if len(head) < HEADER_SIZE:
            raise InvalidArgumentError(f"{path}: truncated header")
        version, c, h, w, pdim, adim = struct.unpack("<IIIIII", head[len(MAGIC):])
        if (version, (c, h, w), pdim, adim) != (1, OBS_SHAPE, PROPRIO_DIM, ACTION_DIM):
            raise InvalidArgumentError(f"{path}: unsupported header {head!r}")
        body = fh.read()
    if len(body) % RECORD_SIZE != 0:
        raise InvalidArgumentError(f"{path}: truncated record data")
    records = []
    for index, off in enumerate(range(0, len(body), RECORD_SIZE)):
        episode_id, step = struct.unpack_from("<QI", body, off)
        f = np.frombuffer(body, dtype="<f4", count=_N_OBS + PROPRIO_DIM + ACTION_DIM,
                          offset=off + 12)
        gripper = body[off + RECORD_SIZE - 1]
        try:
            records.append(DistillRecord(
                episode_id=episode_id,
                step=step,
                observation=f[:_N_OBS].reshape(OBS_SHAPE).copy(),
                proprio=f[_N_OBS:_N_OBS + PROPRIO_DIM].copy(),
                action=f[_N_OBS + PROPRIO_DIM:].copy(),
                gripper=int(gripper),
            ))
        except InvalidArgumentError as exc:
            raise InvalidArgumentError(f"{path}: record {index}: {exc}") from exc
    return records
