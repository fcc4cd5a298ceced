"""The three benchmark workloads and their correctness checks.

Every workload is a closed loop with one caller: the next call into the
package starts when the previous one returns.  Each workload is a generator
of ``Unit`` results; a unit is one timed call (or tight group of calls)
followed by its checks, which run outside the timed region.  ``measure``
pulls units until the timed seconds reach the budget or a set number of
units is done.  Every workload reads its times from the ``clock`` it is
given: host time in a traced pass, the host-speed-corrected clock of
``hostclock`` in an untraced one.

Inputs come only from the workload seed: object order, episode seeds and
the student dataset are all derived from it here, and the package receives
nothing but those generated inputs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from graspsim import distill, episode, metrics, nn, scene
from graspsim.teacher import cached_object_feature

WORKLOADS = ("sweep", "record", "student")
DEFAULT_SEED = 0

SWEEP_LEVELS = (1, 2, 3, 4)
SWEEP_EPISODES_PER_LEVEL = 1
SWEEP_TIMEOUT_STEPS = 300
RECORD_LEVELS = (1, 4)
RECORD_TIMEOUT_STEPS = 300
# The student dataset opens with seeded Level-2 episodes recorded with the
# production timeout, up to and including the first one that runs all 300
# steps: every seed reads one full-episode file (300 records, about 75 MB),
# so peak RSS covers the reader's cost on the largest file distill-record
# writes.  The rest are episodes stopped after 64 steps, which keeps the
# number of files per second of forwards, and so the read share, steady.
STUDENT_FULL_LEVEL = 2
STUDENT_FULL_TRIES = 20
STUDENT_EPISODE_STEPS = 64
# Student dataset size per measured second: a little above the forward rate,
# so the clock rather than the dataset normally ends the pass.
STUDENT_RECORDS_PER_SECOND = 40
STUDENT_WEIGHT_SEED = 0
ACTION_DIM = 8
KD_RTOL = 1e-6
MANIFEST = "manifest.json"
OUTCOMES = frozenset({"success", "failed_timeout", "failed_yaw", "failed_dropped"})

# Sub-seed tags: one per input stream, so workloads never share inputs.
_OBJECTS, _SWEEP, _RECORD, _STUDENT, _STUDENT_FULL = 0, 1, 2, 3, 4


def sub_seed(*parts) -> int:
    """Stable 32-bit seed from integer parts (order matters)."""
    seq = np.random.SeedSequence([int(p) & 0x7FFFFFFF for p in parts])
    return int(seq.generate_state(1)[0])


def permuted(specs, seed: int, tag: int) -> list:
    order = np.random.default_rng(sub_seed(seed, _OBJECTS, tag)).permutation(len(specs))
    return [specs[i] for i in order]


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

@dataclass
class Unit:
    seconds: float          # the timed call(s), on the workload's clock
    steps: int = 0          # decision steps completed (student: records evaluated)
    attempted: int = 0      # checked operations: episodes, reads, inferences
    failed: int = 0
    latency: float | None = None    # one student_forward call, seconds


@dataclass
class Tally:
    busy: float = 0.0
    steps: int = 0
    attempted: int = 0
    failed: int = 0
    units: int = 0
    latencies: list = field(default_factory=list)

    def add(self, u: Unit) -> None:
        self.units += 1
        self.busy += u.seconds
        self.steps += u.steps
        self.attempted += u.attempted
        self.failed += u.failed
        if u.latency is not None:
            self.latencies.append(u.latency)

    @property
    def steps_per_s(self) -> float:
        return self.steps / self.busy if self.busy > 0 else 0.0


def measure(units, seconds: float | None = None, count: int | None = None) -> Tally:
    """Pull units until their timed seconds reach ``seconds``, or ``count``
    units are done, or the input ends."""
    tally = Tally()
    for u in units:
        tally.add(u)
        if (count is not None and tally.units >= count
                or seconds is not None and tally.busy >= seconds):
            break
    units.close()
    return tally


class Expect:
    """Reference values in stream order for the default seed.

    ``check`` compares the next produced value with the stored one; past the
    end of the stored list (or for other seeds) only invariants apply.  With
    ``learn=True`` it records values instead, to build the reference file.
    """

    def __init__(self, values=(), learn: bool = False):
        self.values = list(values)
        self.learn = learn
        self.pos = 0

    def check(self, value, rel_tol: float | None = None) -> bool:
        if self.learn:
            self.values.append(value)
            return True
        i, self.pos = self.pos, self.pos + 1
        if i >= len(self.values):
            return True
        if rel_tol is None:
            return self.values[i] == value
        return math.isclose(self.values[i], value, rel_tol=rel_tol)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

@dataclass
class Context:
    catalog: list
    weights: object = None


def prepare(workload: str) -> Context:
    """Catalog load, per-object feature cache fill and weight init."""
    catalog = scene.load_catalog()
    for spec in catalog:
        cached_object_feature(spec)
    weights = (nn.init_student_weights(STUDENT_WEIGHT_SEED)
               if workload == "student" else None)
    return Context(catalog, weights)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def episode_tuple(s) -> list:
    return [s.level, s.object_id, s.seed, s.outcome, s.success_step,
            s.attempt_count, s.first_close_success, s.n_steps]


def episode_ok(s, timeout: int) -> bool:
    """Invariants every episode summary or log satisfies."""
    return (s.outcome in OUTCOMES
            and 1 <= s.n_steps <= timeout
            and (s.outcome == "success") == (s.success_step is not None)
            and (s.success_step is None or s.success_step < s.n_steps)
            and s.attempt_count >= int(s.first_close_success))


def level_row_ok(row, summaries) -> bool:
    """The report row agrees with an independent count of its episodes."""
    n = len(summaries)
    wins = [s for s in summaries if s.outcome == "success"]
    one_shot = [s for s in wins if s.first_close_success]
    tsc = float(np.mean([s.success_step for s in wins])) if wins else None
    return (row.n_episodes == n and row.n_successes == len(wins)
            and math.isclose(row.gsr, 100.0 * len(wins) / n)
            and math.isclose(row.ossr, 100.0 * len(one_shot) / n)
            and row.ossr <= row.gsr
            and (tsc is None) == (row.tsc is None)
            and (tsc is None or math.isclose(row.tsc, tsc)))


def _written(log, observations):
    eid = log.seed & 0xFFFFFFFFFFFFFFFF
    return ((eid, step, obs, proprio, action, grip)
            for obs, proprio, action, grip, step in observations)


def _read(records):
    return ((r.episode_id, r.step, r.observation, r.proprio, r.action, r.gripper)
            for r in records)


def packed_digest(records) -> str:
    """Digest of the dataset file holding ``records``, packed here
    independently of distill: its header, then per record episode_id u64,
    step u32, observation/proprio/action f32 and gripper u8, little-endian.

    ``records`` yields (episode_id, step, observation, proprio, action,
    gripper), from run_episode's observation list or from read_dataset.
    """
    h = hashlib.sha256(distill.HEADER)
    for eid, step, obs, proprio, action, grip in records:
        h.update(struct.pack("<QI", eid, step))
        for a in (obs, proprio, action):
            h.update(np.ascontiguousarray(a, dtype="<f4").tobytes())
        h.update(struct.pack("<B", grip))
    return h.hexdigest()


def file_digest(path, chunk: int = 1 << 20) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(chunk):
            h.update(block)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def sweep(ctx: Context, seed: int, expect: Expect, clock):
    """metrics.run_benchmark over levels 1-4 on both splits, GFM on, no pool.

    Call i rotates a seeded object order by i episodes, so successive calls
    walk through all 43 objects while the per-level episode count stays fixed.
    """
    objs = permuted(ctx.catalog, seed, _SWEEP)
    for i in itertools.count():
        shift = (i * SWEEP_EPISODES_PER_LEVEL) % len(objs)
        catalog = objs[shift:] + objs[:shift]
        t0 = clock()
        report, _csv, summaries = metrics.run_benchmark(
            SWEEP_LEVELS, episodes_per_level=SWEEP_EPISODES_PER_LEVEL,
            split="both", seed=sub_seed(seed, _SWEEP, i), workers=0,
            use_gfm=True, timeout_steps=SWEEP_TIMEOUT_STEPS, catalog=catalog)
        dt = clock() - t0

        want = sorted(catalog[j % len(catalog)].id
                      for j in range(SWEEP_EPISODES_PER_LEVEL))
        bad = 0
        for level in SWEEP_LEVELS:
            mine = [s for s in summaries if s.level == level]
            row_ok = (sorted(s.object_id for s in mine) == want
                      and level_row_ok(report.row(level), mine))
            for s in mine:
                matches = expect.check(episode_tuple(s))
                bad += not (matches and row_ok and episode_ok(s, SWEEP_TIMEOUT_STEPS))
        missing = len(SWEEP_LEVELS) * SWEEP_EPISODES_PER_LEVEL - len(summaries)
        yield Unit(dt, steps=sum(s.n_steps for s in summaries),
                   attempted=len(summaries) + max(missing, 0),
                   failed=bad + max(missing, 0))


def _record_stream(ctx: Context, seed: int, tag: int, timeout_steps: int,
                   levels=RECORD_LEVELS):
    """Episode configs cycling through ``levels`` over seeded seen objects."""
    objs = permuted([s for s in ctx.catalog if s.split == "seen"], seed, tag)
    for i in itertools.count():
        level = levels[i % len(levels)]
        obj = objs[(i // len(levels)) % len(objs)]
        yield i, scene.EpisodeConfig(level=level, object_id=obj.id,
                                     seed=sub_seed(seed, tag, i),
                                     timeout_steps=timeout_steps)


def record(ctx: Context, seed: int, scratch: str, expect: Expect, clock):
    """The distill-record path: run_episode with observations, then write.

    Outside the timed region each file is compared byte for byte with an
    independent packing of the observations, then deleted, so disk use stays
    at one episode and the check adds no arrays to the process's peak RSS.
    """
    for i, cfg in _record_stream(ctx, seed, _RECORD, RECORD_TIMEOUT_STEPS):
        path = os.path.join(scratch, f"record-{i:05d}.bin")
        t0 = clock()
        log, obs = episode.run_episode(cfg, collect_observations=True)
        n = distill.record_distillation(log, obs, path)
        dt = clock() - t0

        packed = packed_digest(_written(log, obs))
        del obs
        try:
            on_disk = file_digest(path)
        finally:
            os.remove(path)
        matches = expect.check(episode_tuple(log))
        ok = (matches and n == log.n_steps and on_disk == packed
              and episode_ok(log, cfg.timeout_steps))
        yield Unit(dt, steps=log.n_steps, attempted=1, failed=int(not ok))


@dataclass(frozen=True)
class DatasetFile:
    path: str
    n_records: int
    digest: str
    repeats: frozenset      # record indices whose input repeats an earlier one


def student_records(seconds: float) -> int:
    """Records the student dataset holds for a timed pass of ``seconds``."""
    return max(64, int(seconds * STUDENT_RECORDS_PER_SECOND))


def record_student_dataset(ctx: Context, seed: int, scratch: str,
                           n_records: int) -> list:
    """Set-up for ``student``: record episodes until n_records exist.

    The first files are Level-2 episodes with the production timeout, up to
    the first that runs all its steps, which goes first of all; the rest are
    capped level 1/4 ones.
    A robot that stalls can see the same (observation, proprio) input twice;
    such repeats are marked so the timed pass evaluates each input once.
    """
    files, seen = [], set()

    def add(name, cfg):
        path = os.path.join(scratch, f"student-{name}.bin")
        log, obs = episode.run_episode(cfg, collect_observations=True)
        distill.record_distillation(log, obs, path)
        repeats = set()
        for k, (stacked, proprio, *_rest) in enumerate(obs):
            key = hashlib.sha256(np.ascontiguousarray(stacked, "<f4").tobytes()
                                 + np.ascontiguousarray(proprio, "<f4").tobytes()).digest()
            if key in seen:
                repeats.add(k)
            seen.add(key)
        files.append(DatasetFile(path, log.n_steps, packed_digest(_written(log, obs)),
                                 frozenset(repeats)))
        return log.n_steps

    full = _record_stream(ctx, seed, _STUDENT_FULL, RECORD_TIMEOUT_STEPS,
                          levels=(STUDENT_FULL_LEVEL,))
    for i, cfg in itertools.islice(full, STUDENT_FULL_TRIES):
        if add(f"full-{i:02d}", cfg) == RECORD_TIMEOUT_STEPS:
            break
    # The full-length file is read first, into a fresh heap, so it alone sets
    # peak RSS whatever shorter Level-2 files the seed drew before it.
    files.insert(0, files.pop())
    total = sum(f.n_records for f in files)
    for i, cfg in _record_stream(ctx, seed, _STUDENT, STUDENT_EPISODE_STEPS):
        if total >= n_records:
            break
        total += add(f"{i:05d}", cfg)
    return files


def save_manifest(directory: str, files) -> None:
    with open(os.path.join(directory, MANIFEST), "w", encoding="utf-8") as fh:
        json.dump([[f.path, f.n_records, f.digest, sorted(f.repeats)] for f in files], fh)


def load_manifest(directory: str) -> list:
    with open(os.path.join(directory, MANIFEST), encoding="utf-8") as fh:
        return [DatasetFile(p, n, d, frozenset(r)) for p, n, d, r in json.load(fh)]


def student(ctx: Context, files, expect: Expect, clock):
    """read_dataset, one student_forward per record, then kd_loss per file.

    No record is evaluated twice in a pass, so caching outputs cannot
    inflate the rate.
    """
    for f in files:
        yield from _evaluate_file(ctx, f, expect, clock)


def _evaluate_file(ctx: Context, f: DatasetFile, expect: Expect, clock):
    # A function of its own, so one file's records are freed before the next
    # file is read and peak RSS depends only on the largest file.
    t0 = clock()
    recs = distill.read_dataset(f.path)
    dt = clock() - t0
    ok = len(recs) == f.n_records and packed_digest(_read(recs)) == f.digest
    yield Unit(dt, attempted=1, failed=int(not ok))

    recs = [r for k, r in enumerate(recs) if k not in f.repeats]
    outs = []
    for rec in recs:
        t0 = clock()
        out = nn.student_forward(rec.observation, rec.proprio, ctx.weights)
        dt = clock() - t0
        outs.append(out)
        ok = out.shape == (ACTION_DIM,) and bool(np.all(np.isfinite(out)))
        yield Unit(dt, steps=1, attempted=1, failed=int(not ok), latency=dt)

    student_actions = np.stack(outs)
    teacher_actions = np.stack([r.action for r in recs])
    t0 = clock()
    loss = nn.kd_loss(student_actions, teacher_actions)
    dt = clock() - t0
    matches = expect.check(loss, rel_tol=KD_RTOL)
    ok = matches and math.isfinite(loss)
    yield Unit(dt, attempted=1, failed=int(not ok))
