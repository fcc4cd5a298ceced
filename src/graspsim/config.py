"""Runtime configuration: documented defaults plus key=value file overrides.

``SimConfig`` is the one source of every tunable (clocks, grasp generation,
perception, teacher); the CLI, ``run_benchmark`` and ``run_episode`` take it
whole.  ``scene.EpisodeConfig`` holds only what varies per episode.

The config file is plain text, one `key = value` per line, `#` comments.
Keys are the field names below.  The environment variable GRASPSIM_CONFIG
points at a default file for the CLI.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .errors import InvalidArgumentError, check_integer
from .gfm import DEFAULT_BANK_SIZE, GRIPPER_APERTURE
from .scene import TIMEOUT_STEPS

ENV_CONFIG_VAR = "GRASPSIM_CONFIG"


# Allowed range of every key: SimConfig checks all, load_config each line.
_POSITIVE = (lambda v: v > 0, "> 0")
_COUNT = (lambda v: v >= 1, ">= 1")
_INTEGER_KEYS = ("timeout_steps", "bank_size", "candidate_count")
_RANGES = {
    **dict.fromkeys(("physics_dt", "decision_dt", "gripper_aperture",
                     "teacher_standoff", "teacher_align_pos_tol",
                     "teacher_align_ori_tol", "teacher_max_rel_speed"), _POSITIVE),
    **dict.fromkeys(_INTEGER_KEYS, _COUNT),
    "teacher_intercept_horizon": (lambda v: v >= 0, ">= 0"),
    "hfov_deg": (lambda v: 0 < v < 180, "in (0, 180)"),
    "mask_flip_prob": (lambda v: 0 <= v <= 1, "in [0, 1]"),
}


def _check_range(key: str, value) -> None:
    ok, allowed = _RANGES[key]
    if not (math.isfinite(value) and ok(value)):
        raise InvalidArgumentError(f"{key} must be a finite number {allowed}, got {value}")


@dataclass(frozen=True)
class SimConfig:
    # clocks
    physics_dt: float = 0.02
    decision_dt: float = 0.1
    timeout_steps: int = TIMEOUT_STEPS
    # grasp generation / fusion
    gripper_aperture: float = GRIPPER_APERTURE
    bank_size: int = DEFAULT_BANK_SIZE
    candidate_count: int = 200
    # perception
    hfov_deg: float = 87.0
    mask_flip_prob: float = 0.0
    # teacher controller
    teacher_standoff: float = 0.6
    teacher_align_pos_tol: float = 0.025
    teacher_align_ori_tol: float = 0.26
    teacher_max_rel_speed: float = 0.2
    teacher_intercept_horizon: float = 0.5

    def __post_init__(self):
        for key in _INTEGER_KEYS:
            object.__setattr__(self, key, check_integer(key, getattr(self, key)))
        for key in _RANGES:
            _check_range(key, getattr(self, key))
        ratio = self.decision_dt / self.physics_dt
        if not (math.isfinite(ratio) and round(ratio) >= 1
                and abs(ratio - round(ratio)) <= 1e-9):
            raise InvalidArgumentError(
                f"decision_dt must be an integer multiple of physics_dt "
                f"({self.decision_dt} / {self.physics_dt})"
            )

    @property
    def substeps(self) -> int:
        return int(round(self.decision_dt / self.physics_dt))


def load_config(path=None) -> SimConfig:
    """Build a SimConfig from defaults plus an optional override file."""
    if path is None:
        path = os.environ.get(ENV_CONFIG_VAR)
    if not path:
        return SimConfig()
    overrides = {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.read().split("\n")
        except UnicodeDecodeError as exc:
            raise InvalidArgumentError(f"{path}: not UTF-8 text: {exc}") from exc
        for lineno, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidArgumentError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _RANGES:
                raise InvalidArgumentError(f"{path}:{lineno}: unknown key {key!r}")
            if key in overrides:
                raise InvalidArgumentError(f"{path}:{lineno}: duplicate key {key!r}")
            try:
                coerced = int(value) if key in _INTEGER_KEYS else float(value)
                _check_range(key, coerced)
                overrides[key] = coerced
            except ValueError as exc:
                raise InvalidArgumentError(f"{path}:{lineno}: {exc}") from exc
    try:
        return SimConfig(**overrides)
    except InvalidArgumentError as exc:
        raise InvalidArgumentError(f"{path}: {exc}") from exc
