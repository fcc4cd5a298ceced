"""Runtime configuration: documented defaults plus key=value file overrides.

The config file is plain text, one `key = value` per line, `#` comments.
Keys use dotted namespaces matching the field names below.  The environment
variable GRASPSIM_CONFIG points at a default file for the CLI.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

from .errors import InvalidArgumentError
from .rewards import HIGH_LEVEL_WEIGHTS

ENV_CONFIG_VAR = "GRASPSIM_CONFIG"


@dataclass
class SimConfig:
    # clocks
    physics_dt: float = 0.02
    decision_dt: float = 0.1
    timeout_steps: int = 300
    # grasp generation / fusion
    gripper_aperture: float = 0.085
    bank_size: int = 30
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
    # reward kernels
    sigma_track: float = 0.25
    sigma_cf: float = 100.0
    sigma_cv: float = 0.05
    # high-level reward weight overrides (empty = table defaults)
    reward_weights: dict = None

    def __post_init__(self):
        if self.reward_weights is None:
            self.reward_weights = {}


# Allowed ranges of the numeric keys, checked as each file line is read.
_RANGES = {
    "physics_dt": (lambda v: v > 0, "> 0"),
    "decision_dt": (lambda v: v > 0, "> 0"),
    "timeout_steps": (lambda v: v >= 1, ">= 1"),
    "bank_size": (lambda v: v >= 1, ">= 1"),
    "candidate_count": (lambda v: v >= 1, ">= 1"),
    "gripper_aperture": (lambda v: v > 0, "> 0"),
    "hfov_deg": (lambda v: 0 < v < 180, "in (0, 180)"),
    "mask_flip_prob": (lambda v: 0 <= v <= 1, "in [0, 1]"),
    "sigma_track": (lambda v: v > 0, "> 0"),
    "sigma_cf": (lambda v: v > 0, "> 0"),
    "sigma_cv": (lambda v: v > 0, "> 0"),
}


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _coerce(current, text: str):
    if isinstance(current, bool):
        if text.lower() in ("true", "1", "yes"):
            return True
        if text.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"expected boolean, got {text!r}")
    if isinstance(current, int):
        return int(text)
    if isinstance(current, float):
        return _finite_float(text)
    return text


def load_config(path=None) -> SimConfig:
    """Build a SimConfig from defaults plus an optional override file."""
    cfg = SimConfig()
    if path is None:
        path = os.environ.get(ENV_CONFIG_VAR)
    if not path:
        return cfg
    names = {f.name for f in fields(SimConfig)} - {"reward_weights"}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidArgumentError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            term = key[len("rewards."):] if key.startswith("rewards.") else None
            if key not in names and term not in HIGH_LEVEL_WEIGHTS:
                raise InvalidArgumentError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                if term is None:
                    coerced = _coerce(getattr(cfg, key), value)
                    ok, allowed = _RANGES.get(key, (None, None))
                    if ok is not None and not ok(coerced):
                        raise ValueError(f"{key} must be {allowed}, got {value}")
                    setattr(cfg, key, coerced)
                else:
                    cfg.reward_weights[term] = _finite_float(value)
            except ValueError as exc:
                raise InvalidArgumentError(f"{path}:{lineno}: {exc}") from exc
    return cfg
