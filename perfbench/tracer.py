"""Outside-in span tracing of the graspsim layers.

Each layer is a graspsim module.  The tracer measures a layer from outside
by replacing, for the duration of a traced pass only, the module-global
names that callers look up at call time:

* every binding one graspsim module imports from another (``teacher_step``
  as seen by ``graspsim.episode``, ``compose`` as seen by
  ``graspsim.teacher``, ``grasp_to_world`` as seen by ``graspsim.gfm``,
  ``run_episode`` as seen by ``graspsim.metrics``, ...);
* the entry points the benchmark itself calls, plus the ``nn`` ops that
  ``student_forward`` looks up in its own module (``ENTRY_POINTS``);
* the validation hook of the se3 value types, so every ``Pose6`` built
  anywhere is counted.

Nothing under ``src/`` changes; ``uninstall`` puts every original back.
Methods called on objects (``terrain.height_at``) are not wrapped, so
their time is self time of the calling layer.

A span's self time is its duration minus the durations of its direct
child spans.  Spans are aggregated per name as they close (calls, total,
self), so memory stays flat however long the pass runs.
"""

from __future__ import annotations

import importlib
import time

LAYERS = ("se3", "scene", "robot", "rewards", "nn", "gfm", "camera",
          "teacher", "episode", "metrics", "distill")

# Same-module names wrapped in addition to the cross-module bindings.
ENTRY_POINTS = {
    "episode": ("run_episode",),
    "metrics": ("run_benchmark",),
    "distill": ("record_distillation", "read_dataset"),
    "nn": ("student_forward", "kd_loss", "transformer_encoder_layer", "linear"),
}

# se3 value types whose __post_init__ validates every construction.
VALUE_TYPES = ("Pose6", "Twist", "Transform")


class SpanStats:
    __slots__ = ("calls", "total", "self_time", "items")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.items = 0      # result-derived count, see Tracer._RESULT_COUNTS


def _layer_of(obj) -> str | None:
    mod = getattr(obj, "__module__", None) or ""
    if not mod.startswith("graspsim."):
        return None
    layer = mod.split(".", 1)[1]
    return layer if layer in LAYERS else None


class Tracer:
    """Installs span wrappers, aggregates spans, and restores the originals."""

    # Span name -> function of the result giving an item count for the span.
    _RESULT_COUNTS = {
        "scene.apply_gripper_close": lambda r: int(bool(r[1])),
        "gfm.generate_candidates": len,
        "gfm.build_memory": len,
        "camera.stack_observation": lambda r: int(r.nbytes),
        "distill.record_distillation": int,
        "distill.read_dataset": len,
    }

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self._stack: list[list] = []     # [child_time] per open span
        self._saved: list[tuple] = []    # (owner, attribute, original)

    # -- installation ------------------------------------------------------

    def install(self) -> int:
        """Wrap every traced name; returns how many were wrapped."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod_name in LAYERS:
            module = importlib.import_module(f"graspsim.{mod_name}")
            for attr, value in list(vars(module).items()):
                if isinstance(value, type) or not callable(value):
                    continue
                layer = _layer_of(value)
                if layer is None:
                    continue
                if layer == mod_name and attr not in ENTRY_POINTS.get(mod_name, ()):
                    continue
                name = f"{layer}.{getattr(value, '__name__', attr)}"
                self._replace(module, attr, self._wrap(name, value))
        se3 = importlib.import_module("graspsim.se3")
        for type_name in VALUE_TYPES:
            cls = getattr(se3, type_name)
            hook = cls.__dict__["__post_init__"]
            self._replace(cls, "__post_init__",
                          self._wrap(f"se3.{type_name}", hook))
        return len(self._saved)

    def uninstall(self) -> None:
        """Restore every original binding, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when no traced name still holds a wrapper."""
        for mod_name in LAYERS:
            module = importlib.import_module(f"graspsim.{mod_name}")
            if any(getattr(v, "__perfbench_span__", None)
                   for v in vars(module).values()):
                return False
        se3 = importlib.import_module("graspsim.se3")
        return not any(
            getattr(getattr(se3, t).__dict__["__post_init__"],
                    "__perfbench_span__", None)
            for t in VALUE_TYPES)

    def _replace(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- spans -------------------------------------------------------------

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, SpanStats())
        stack = self._stack
        clock = time.perf_counter
        count_items = self._RESULT_COUNTS.get(name)

        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stats.calls += 1
                stats.total += dt
                stats.self_time += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if count_items is not None:
                stats.items += count_items(result)
            return result

        span.__perfbench_span__ = name
        return span

    # -- aggregates --------------------------------------------------------

    def span(self, name) -> SpanStats:
        return self.stats.get(name) or SpanStats()

    def layer_calls(self, layer) -> int:
        return sum(s.calls for n, s in self.stats.items()
                   if n.split(".", 1)[0] == layer)

    def layer_self(self, layer) -> float:
        return sum(s.self_time for n, s in self.stats.items()
                   if n.split(".", 1)[0] == layer)

    def self_total(self) -> float:
        return sum(s.self_time for s in self.stats.values())


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def student_flops() -> int:
    """Floating-point operations of one student_forward (computed, not measured).

    Counts 2 per multiply-add of the two convolutions, every matrix-shaped
    parameter in ``student_manifest()`` applied to the rows it sees, and the
    attention score/value products; elementwise work is left out.
    """
    nn = importlib.import_module("graspsim.nn")
    camera = importlib.import_module("graspsim.camera")
    shapes = dict(nn.student_manifest())
    images = 2 * camera.HISTORY_LEN            # two views x three frames
    tokens = 1 + camera.HISTORY_LEN            # proprio token + frames
    flops = 0
    h, w = nn.FRAME_SHAPE
    for conv in ("cnn.conv1.w", "cnn.conv2.w"):
        oc, c, kh, kw = shapes[conv]
        h, w = h - kh + 1, w - kw + 1
        flops += 2 * oc * c * kh * kw * h * w * images
        h, w = h // 2, w // 2                  # 2x2 max pool
    for name, shape in shapes.items():
        if len(shape) != 2:
            continue
        rows = images if name.startswith("cnn.") else (
            tokens if ".enc" in name else 1)
        flops += 2 * rows * shape[0] * shape[1]
    encoder_layers = 2 * nn.NUM_LAYERS         # two streams
    flops += encoder_layers * 2 * (2 * tokens * tokens * nn.MODEL_DIM)
    return flops


def layer_metrics(tr: Tracer, traced_steps: int, traced_wall: float,
                  untraced_rate: float, traced_rate: float) -> dict:
    """Every per-layer metric, by the names BENCHMARK.json declares."""
    distill = importlib.import_module("graspsim.distill")

    def ratio(a, b):
        return a / b if b else 0.0

    close = tr.span("scene.apply_gripper_close")
    cands = tr.span("gfm.generate_candidates")
    render = tr.span("camera.render_frame")
    write = tr.span("distill.record_distillation")
    read = tr.span("distill.read_dataset")
    fwd = tr.span("nn.student_forward")
    flops = student_flops()
    m = {
        "se3.pose_constructs_per_step": ratio(tr.span("se3.Pose6").calls, traced_steps),
        "scene.step_calls": tr.span("scene.step_scene").calls,
        "scene.step_self_s": tr.span("scene.step_scene").self_time,
        "scene.status_self_s": tr.span("scene.check_status").self_time,
        "scene.reset_s": tr.span("scene.reset_episode").total,
        "scene.close_attempts": close.calls,
        "scene.close_success_ratio": ratio(close.items, close.calls),
        "gfm.forward_calls": tr.span("gfm.gfm_forward").calls,
        "gfm.forward_self_s": tr.span("gfm.gfm_forward").self_time,
        "gfm.candidates_calls": cands.calls,
        "gfm.candidates_s": cands.total,
        "gfm.keep_ratio": ratio(tr.span("gfm.build_memory").items, cands.items),
        "metrics.sweep_self_s": tr.span("metrics.run_benchmark").self_time,
        "camera.render_calls": render.calls,
        "camera.render_s": render.total,
        "camera.frames_per_s": ratio(render.calls, render.total),
        "camera.stack_s": tr.span("camera.stack_observation").total,
        "camera.bytes_stacked": tr.span("camera.stack_observation").items,
        "distill.records_written": write.items,
        "distill.write_s": write.total,
        "distill.bytes_written": write.calls * distill.HEADER_SIZE
        + write.items * distill.RECORD_SIZE,
        "distill.records_read": read.items,
        "distill.read_s": read.total,
        "distill.bytes_read": read.calls * distill.HEADER_SIZE
        + read.items * distill.RECORD_SIZE,
        "nn.forward_calls": fwd.calls,
        "nn.forward_self_s": fwd.self_time,
        "nn.encoder_s": tr.span("nn.transformer_encoder_layer").total,
        "nn.linear_s": tr.span("nn.linear").total,
        "nn.flops_per_forward": flops,
        "nn.gflops_per_s": ratio(flops * fwd.calls, fwd.total) / 1e9,
        "trace.overhead": ratio(untraced_rate, traced_rate) - 1.0 if traced_rate else 0.0,
        "trace.self_share": ratio(tr.self_total(), traced_wall),
    }
    for layer in ("se3", "robot", "teacher", "rewards", "episode"):
        m[f"{layer}.calls"] = tr.layer_calls(layer)
        m[f"{layer}.self_s"] = tr.layer_self(layer)
    return m
