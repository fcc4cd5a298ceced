"""Benchmark metrics (GSR / OSSR / TSC) and the multi-episode sweep driver.

OSSR uses all episodes as the denominator, which keeps OSSR <= GSR by
construction; the alternate successes-only reading is reported as an extra
CSV column (ossr_alt).  TSC is a mean over successful episodes only and is
left blank when there are none.
"""

from __future__ import annotations

import itertools
import json
import os
from concurrent.futures import Future
from dataclasses import dataclass, replace

import numpy as np

from .config import SimConfig
from .episode import EpisodeLog, run_episode
from .errors import InvalidArgumentError, check_integer
from .scene import EpisodeConfig, catalog_by_id, check_level, derive_seed, load_catalog

DEFAULT_STEP_BUDGET = 5000
CSV_HEADER = "level,split,category,n_episodes,gsr,ossr,ossr_alt,tsc,seed"
JSONL_FIELDS = ("level", "object_id", "category", "seed", "outcome", "success_step",
                "attempt_count", "first_close_success", "n_steps")


@dataclass(frozen=True)
class MetricsRow:
    level: int
    split: str
    category: str
    n_episodes: int
    n_successes: int
    gsr: float
    ossr: float
    ossr_alt: float
    tsc: float | None


@dataclass(frozen=True)
class MetricsReport:
    rows: tuple

    def row(self, level: int, category: str = "all") -> MetricsRow:
        for r in self.rows:
            if r.level == level and r.category == category:
                return r
        raise KeyError(f"no metrics row for level {level}, category {category!r}")


def _tally(logs, category: str) -> MetricsRow:
    n = len(logs)
    successes = [s for s in logs if s.outcome == "success"]
    one_shot = [s for s in successes if s.first_close_success]
    tsc = (float(np.mean([s.success_step for s in successes]))
           if successes else None)
    return MetricsRow(
        level=logs[0].level,
        split="",
        category=category,
        n_episodes=n,
        n_successes=len(successes),
        gsr=100.0 * len(successes) / n,
        ossr=100.0 * len(one_shot) / n,
        ossr_alt=(100.0 * len(one_shot) / len(successes)) if successes else 0.0,
        tsc=tsc,
    )


def compute_metrics(logs) -> MetricsReport:
    """Per level of the given EpisodeLogs, an "all" row and then one row per
    object category in name order; the split column is left empty."""
    if not logs:
        raise InvalidArgumentError("compute_metrics needs at least one episode")
    rows = []
    for level in sorted({s.level for s in logs}):
        level_logs = [s for s in logs if s.level == level]
        rows.append(_tally(level_logs, "all"))
        for category in sorted({s.category for s in level_logs}):
            rows.append(_tally([s for s in level_logs if s.category == category],
                               category))
    return MetricsReport(tuple(rows))


def _fmt(x) -> str:
    return "" if x is None else f"{x:.6f}"


def report_to_csv(report: MetricsReport, seed: int) -> str:
    lines = [CSV_HEADER]
    for r in report.rows:
        lines.append(
            f"{r.level},{r.split},{r.category},{r.n_episodes},"
            f"{_fmt(r.gsr)},{_fmt(r.ossr)},{_fmt(r.ossr_alt)},{_fmt(r.tsc)},{seed}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Benchmark sweep
# ---------------------------------------------------------------------------

def episode_config(level: int, objs, seed: int, i: int, timeout_steps: int) -> EpisodeConfig:
    """Episode i of ``level`` over ``objs``, for ``bench`` and ``distill-record``
    alike: object i mod their count, seed ``derive_seed(seed, level, i)``."""
    return EpisodeConfig(level, objs[i % len(objs)].id, derive_seed(seed, level, i),
                         timeout_steps)


def _episode_task(args) -> EpisodeLog:
    cfg, sim_cfg, use_gfm, lookup = args
    return run_episode(cfg, sim_cfg=sim_cfg, use_gfm=use_gfm, catalog=lookup)


def _run_now(fn, *args) -> Future:
    """Serial stand-in for ``ProcessPoolExecutor.submit``: a finished future."""
    fut = Future()
    fut.set_result(fn(*args))
    return fut


def run_benchmark(levels, episodes_per_level: int | None = None,
                  step_budget: int | None = None, split: str = "seen",
                  seed: int = 0, workers: int = 0, use_gfm: bool = True,
                  timeout_steps: int | None = None, catalog=None,
                  sim_cfg: SimConfig | None = None):
    """Seeded multi-episode sweep; returns (MetricsReport, csv_text, EpisodeLogs).

    Every episode runs under ``sim_cfg`` (default ``SimConfig()``) and looks
    its object up in ``catalog`` (default the bundled set), in the pool as in
    a serial run; ``timeout_steps`` defaults to the config's timeout.

    Episodes run per level either a fixed count or until the decision-step
    budget (default DEFAULT_STEP_BUDGET per level) is consumed, never both; the final
    episode may overshoot the budget by at most its own length.  Serial and
    pooled runs share one loop (serially each episode runs at submission); a
    pool only parallelizes independent episodes and results are consumed in
    submission order, so output bytes never depend on scheduling.  ``workers``
    above ``os.cpu_count()`` is capped there: that many processes and episodes
    in flight at most.  `derive_seed` masks ``seed`` to 31 bits, so 2**31 gives
    seed 0's rows but for the seed column; only the CLI's ``--seed`` rejects
    such seeds (perfbench's ``sweep`` passes 32-bit ones).
    """
    levels = sorted(set(levels))
    if not levels:
        raise InvalidArgumentError("need at least one level")
    for level in levels:
        check_level(level)
    if split not in ("seen", "unseen", "both"):
        raise InvalidArgumentError(f"split must be seen/unseen/both, got {split!r}")
    seed, workers = check_integer("seed", seed, 0), check_integer("workers", workers, 0)
    for name, count in (("episodes_per_level", episodes_per_level),
                        ("step_budget", step_budget)):
        if count is not None:
            check_integer(name, count, 1)
    if episodes_per_level is not None and step_budget is not None:
        raise InvalidArgumentError("pass episodes_per_level or step_budget, not both")
    if episodes_per_level is None and step_budget is None:
        step_budget = DEFAULT_STEP_BUDGET
    catalog = catalog if catalog is not None else load_catalog()
    sim_cfg = sim_cfg if sim_cfg is not None else SimConfig()
    if timeout_steps is None:
        timeout_steps = sim_cfg.timeout_steps
    objs = [s for s in catalog if split == "both" or s.split == split]
    if not objs:
        raise InvalidArgumentError(f"catalog has no object in split {split!r}")
    lookup = catalog_by_id(catalog)

    # The pool starts all its workers on the first submit.  Past a step budget
    # episodes in flight are thrown away, so more than one per CPU gains nothing
    # there; with an episode count, 8 in flight took 3.47-3.74 s against
    # 3.97-5.22 s at 2 (2 vCPUs; ROADMAP, "`bench --workers` keeps every worker busy").
    workers = min(workers, os.cpu_count() or 1)
    all_logs: list[EpisodeLog] = []
    if workers > 1:     # imported here, so that `import graspsim` loads no multiprocessing
        from concurrent.futures import ProcessPoolExecutor
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    submit, in_flight = (pool.submit, workers) if pool is not None else (_run_now, 1)
    try:
        for level in levels:
            tasks = ((episode_config(level, objs, seed, i, timeout_steps), sim_cfg, use_gfm,
                      lookup) for i in itertools.islice(itertools.count(), episodes_per_level))
            got: list[EpisodeLog] = []
            steps_used = 0

            def done() -> bool:
                if episodes_per_level is not None:
                    return len(got) >= episodes_per_level
                return steps_used >= step_budget

            pending = [submit(_episode_task, t) for t in itertools.islice(tasks, in_flight)]
            while not done():
                got.append(pending.pop(0).result())
                steps_used += got[-1].n_steps
                if not done() and (task := next(tasks, None)):   # a count's tasks run out
                    pending.append(submit(_episode_task, task))
            for fut in pending:
                fut.cancel()
            all_logs.extend(got)
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    all_logs.sort(key=lambda s: (s.level, s.seed))
    rows = (replace(r, split=split) for r in compute_metrics(all_logs).rows)
    report = MetricsReport(tuple(rows))
    return report, report_to_csv(report, seed), all_logs


def summaries_to_jsonl(logs) -> str:
    """One sorted-key JSON object of each EpisodeLog's JSONL_FIELDS per line."""
    return "\n".join(json.dumps({k: getattr(s, k) for k in JSONL_FIELDS},
                                sort_keys=True, separators=(",", ":"))
                     for s in logs) + "\n"
