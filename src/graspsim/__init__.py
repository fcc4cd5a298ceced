"""Desk-scale dynamic-grasping simulator and benchmark harness.

A kinematic floating platform carries a target object along four levels of
motion difficulty; a scripted privileged controller pursues, fuses grasp
candidates from an object-local memory bank via attention, and grasps.  The
package also ships the dual-view perception pipeline (raycast mask/depth,
4-step latency, 3-frame stacking), the reward formula library, an
inference-only student network, GSR/OSSR/TSC metrics, and an imitation
dataset recorder.
"""

__version__ = "0.1.0"

from .se3 import (
    Pose6,
    Transform,
    Twist,
    compose,
    grasp_to_world,
    inverse,
    vec6_decode,
    vec6_encode,
    wrap_angle,
)
from .scene import (
    EpisodeConfig,
    EpisodeStatus,
    ObjectSpec,
    PlatformTrajectory,
    SceneState,
    TerrainField,
    check_status,
    load_catalog,
    make_trajectory,
    reset_episode,
    sample_terrain,
    step_scene,
)
from .robot import (
    CommandVector,
    HighLevelAction,
    RobotState,
    accumulate_command,
    execute_command,
    ik_pseudoinverse_step,
)
from .rewards import (
    HighLevelRewardInput,
    LowLevelState,
    RewardBreakdown,
    high_level_reward,
    low_level_reward,
    yaw_penalty,
)
from .nn import (
    WeightStore,
    attention,
    conv2d,
    elu,
    kd_loss,
    linear,
    softmax,
    student_forward,
    transformer_encoder_layer,
)
from .gfm import (
    GfmWeights,
    GraspCandidate,
    GraspMemoryBank,
    build_memory,
    generate_candidates,
    gfm_forward,
    object_feature,
)
from .camera import (
    CameraModel,
    Frame,
    LatencyBuffer,
    frame_channels,
    render_frame,
    stack_observation,
)
from .config import SimConfig, load_config
from .teacher import teacher_step
from .episode import EpisodeLog, run_episode
from .metrics import MetricsReport, compute_metrics, run_benchmark
from .distill import DistillRecord, read_dataset, record_distillation
