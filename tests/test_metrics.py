import concurrent.futures
import dataclasses
import functools
import hashlib
import subprocess
import sys

import numpy as np
import pytest

from graspsim import metrics
from graspsim.config import SimConfig
from graspsim.episode import EpisodeLog, run_episode
from graspsim.errors import InvalidArgumentError
from graspsim.metrics import (
    CSV_HEADER,
    compute_metrics,
    report_to_csv,
    run_benchmark,
    summaries_to_jsonl,
)

from conftest import child_env


def summary(level=1, outcome="success", success_step=30, first=True,
            attempts=1, n_steps=31, oid="tennis_ball", cat="ball", seed=0):
    if outcome != "success":
        success_step = None
    close_events = [[5 * i, first and i == 0] for i in range(attempts)]
    return EpisodeLog(level, oid, cat, seed, 0.02, 0.1, 300, None, close_events,
                      outcome, attempts, success_step, n_steps)


def counting_oracle(summaries):
    """Independent one-pass tally, straight from the metric definitions."""
    n = succ = one_shot = 0
    steps = []
    for s in summaries:
        n += 1
        if s.outcome == "success":
            succ += 1
            steps.append(s.success_step)
            if s.first_close_success:
                one_shot += 1
    return (
        100.0 * succ / n,
        100.0 * one_shot / n,
        (100.0 * one_shot / succ) if succ else 0.0,
        (sum(steps) / len(steps)) if steps else None,
    )


def test_gsr_definition():
    logs = [summary(outcome="success")] * 7 + [summary(outcome="failed_timeout")] * 3
    row = compute_metrics(logs).row(1)
    assert row.gsr == pytest.approx(70.0)


def test_ossr_hand_case():
    # 10 episodes, 7 successes, 5 of them on the first close event
    logs = ([summary(first=True)] * 5
            + [summary(first=False, attempts=2)] * 2
            + [summary(outcome="failed_dropped", first=False)] * 3)
    row = compute_metrics(logs).row(1)
    assert row.ossr == pytest.approx(50.0)
    assert row.ossr_alt == pytest.approx(100.0 * 5 / 7)
    assert row.ossr <= row.gsr


def test_tsc_mean_over_successes():
    logs = [summary(success_step=30), summary(success_step=40),
            summary(outcome="failed_timeout")]
    row = compute_metrics(logs).row(1)
    assert row.tsc == pytest.approx(35.0)


def test_tsc_undefined_without_successes():
    logs = [summary(outcome="failed_yaw")] * 4
    row = compute_metrics(logs).row(1)
    assert row.tsc is None
    csv = report_to_csv(compute_metrics(logs), seed=0)
    assert ",,0" in csv.splitlines()[1] or csv.splitlines()[1].endswith(",,0")


def test_bench_output_bytes_pinned():
    # the bytes `graspsim bench` writes (metrics.csv, then episodes.jsonl) for
    # a four-level sweep over both splits
    _, csv_text, logs = run_benchmark([1, 2, 3, 4], episodes_per_level=3,
                                      split="both", seed=5)
    digest = hashlib.sha256((csv_text + summaries_to_jsonl(logs)).encode())
    assert digest.hexdigest() == (
        "c2bc7a5644b5ac00f14cf8034b2f4c2df41444c925e9a51b6653d9847b3ebefa")


def test_compute_metrics_empty_rejected():
    with pytest.raises(InvalidArgumentError):
        compute_metrics([])


def test_report_row_missing_raises():
    report = compute_metrics([summary(level=2)])
    assert report.row(2).n_episodes == 1
    with pytest.raises(KeyError, match="no metrics row for level 1, category 'all'"):
        report.row(1)
    with pytest.raises(KeyError, match="no metrics row for level 2, category 'cup'"):
        report.row(2, "cup")


def test_metrics_match_counting_oracle(rng):
    outcomes = ["success", "failed_timeout", "failed_dropped", "failed_yaw"]
    for _ in range(25):
        logs = []
        for i in range(int(rng.integers(1, 40))):
            outcome = outcomes[int(rng.integers(len(outcomes)))]
            logs.append(summary(
                outcome=outcome,
                success_step=int(rng.integers(1, 200)),
                first=bool(rng.integers(2)),
                attempts=int(rng.integers(1, 4)),
                seed=i,
            ))
        row = compute_metrics(logs).row(1)
        gsr, ossr, ossr_alt, tsc = counting_oracle(logs)
        assert row.gsr == gsr
        assert row.ossr == ossr
        assert row.ossr_alt == ossr_alt
        assert (row.tsc is None and tsc is None) or row.tsc == tsc
        assert 0.0 <= row.ossr <= row.gsr <= 100.0


def test_benchmark_split_respected(catalog):
    _, _, summaries = run_benchmark([1], episodes_per_level=6, split="unseen",
                                    seed=5, timeout_steps=40)
    unseen_ids = {s.id for s in catalog if s.split == "unseen"}
    assert all(s.object_id in unseen_ids for s in summaries)
    _, _, seen_sums = run_benchmark([1], episodes_per_level=6, split="seen",
                                    seed=5, timeout_steps=40)
    seen_ids = {s.id for s in catalog if s.split == "seen"}
    assert all(s.object_id in seen_ids for s in seen_sums)


def test_benchmark_csv_deterministic():
    _, csv_a, sums_a = run_benchmark([1], episodes_per_level=4, seed=11,
                                     timeout_steps=60)
    _, csv_b, sums_b = run_benchmark([1], episodes_per_level=4, seed=11,
                                     timeout_steps=60)
    assert csv_a == csv_b
    assert summaries_to_jsonl(sums_a) == summaries_to_jsonl(sums_b)
    assert csv_a.splitlines()[0] == CSV_HEADER


def test_benchmark_outcomes_do_not_depend_on_the_step_log(monkeypatch):
    # sweeps run without the per-step log; logging every step (rewards, gait
    # signals, the step dicts) must not change a single summary byte
    runs = []
    for log_steps in (False, True):
        monkeypatch.setattr(metrics, "run_episode",
                            functools.partial(run_episode, log_steps=log_steps))
        runs.append(run_benchmark([1, 2, 3, 4], episodes_per_level=4, split="both",
                                  seed=1, timeout_steps=80))
    (_, csv_off, off), (_, csv_on, on) = runs
    assert {s.outcome for s in off} == {"success", "failed_timeout", "failed_dropped"}
    assert csv_on == csv_off
    assert summaries_to_jsonl(on) == summaries_to_jsonl(off)


def test_benchmark_step_budget_consumed():
    report, _, summaries = run_benchmark([1], step_budget=80, seed=3,
                                         timeout_steps=30)
    total = sum(s.n_steps for s in summaries)
    assert total >= 80
    # the final episode may overshoot by at most its own length
    assert total - summaries[-1].n_steps < 80
    # a pool runs the same episodes on the same budget, in the same order
    _, _, pooled = run_benchmark([1], step_budget=80, seed=3, timeout_steps=30,
                                 workers=2)
    assert summaries_to_jsonl(pooled) == summaries_to_jsonl(summaries)


def test_benchmark_reports_categories():
    report, csv_text, _ = run_benchmark([1], episodes_per_level=8, seed=2,
                                        timeout_steps=40)
    cats = {r.category for r in report.rows}
    assert "all" in cats and len(cats) > 1
    level_row = report.row(1)
    per_cat = [r for r in report.rows if r.category != "all"]
    assert sum(r.n_episodes for r in per_cat) == level_row.n_episodes


def test_benchmark_report_is_compute_metrics_of_its_logs(catalog):
    # one report builder: the sweep's rows are compute_metrics' rows of its
    # logs ("all" first, then the categories), labelled with the split
    one_per_category = list({s.category: s for s in catalog}.values())
    report, csv_text, logs = run_benchmark([1, 3], episodes_per_level=4, split="both",
                                           seed=8, timeout_steps=40,
                                           catalog=one_per_category)
    rows = compute_metrics(logs).rows
    assert len({r.category for r in rows}) > 2
    assert report.rows == tuple(dataclasses.replace(r, split="both") for r in rows)
    assert csv_text == report_to_csv(report, seed=8)


def test_benchmark_applies_sim_config_serial_and_parallel():
    override = SimConfig(bank_size=1, candidate_count=5, teacher_standoff=0.3)
    runs = [run_benchmark([1], episodes_per_level=3, seed=0, timeout_steps=80,
                          workers=workers, sim_cfg=sim_cfg)
            for workers, sim_cfg in ((0, None), (0, override), (2, override))]
    default, serial, parallel = [(csv, summaries_to_jsonl(sums))
                                 for _, csv, sums in runs]
    assert serial[1] != default[1]
    assert serial == parallel


def test_benchmark_rejects_bad_args():
    with pytest.raises(InvalidArgumentError):
        run_benchmark([], episodes_per_level=1)
    with pytest.raises(InvalidArgumentError):
        run_benchmark([1], episodes_per_level=1, split="held_out")
    for kwargs in ({"episodes_per_level": 0}, {"episodes_per_level": -1},
                   {"step_budget": 0}, {"episodes_per_level": 1, "workers": -2}):
        with pytest.raises(InvalidArgumentError):
            run_benchmark([1], **kwargs)
    # counts, the seed and the worker count are integers (a numpy integer too)
    one = {"episodes_per_level": 1}
    for kwargs in ({"episodes_per_level": 1.5}, {"episodes_per_level": True},
                   {"step_budget": 2.5}, {**one, "seed": 1.5}, {**one, "seed": True},
                   {**one, "workers": 1.0}, {**one, "workers": True}):
        with pytest.raises(InvalidArgumentError, match="must be an integer"):
            run_benchmark([1], timeout_steps=3, **kwargs)
    _, csv_text, _ = run_benchmark([1], episodes_per_level=np.int64(1), seed=np.int64(2),
                                   timeout_steps=3)
    assert csv_text.splitlines()[1].endswith(",2")
    # a count with a budget, as the CLI's exclusive --episodes and --steps
    with pytest.raises(InvalidArgumentError, match="episodes_per_level or step_budget"):
        run_benchmark([1], episodes_per_level=2, step_budget=5, timeout_steps=30)


def test_benchmark_default_step_budget(monkeypatch):
    # with neither a count nor a budget, each level runs DEFAULT_STEP_BUDGET
    # decision steps, the last episode overshooting by at most its own length
    monkeypatch.setattr(metrics, "DEFAULT_STEP_BUDGET", 12)
    _, csv_text, logs = run_benchmark([1, 2], timeout_steps=5)
    for level in (1, 2):
        steps = [s.n_steps for s in logs if s.level == level]
        assert sum(steps[:-1]) < 12 <= sum(steps)
    assert csv_text == run_benchmark([1, 2], step_budget=12, timeout_steps=5)[1]


def test_benchmark_uses_given_catalog_serial_and_parallel(catalog):
    spec = next(s for s in catalog if s.split == "seen")
    custom = [dataclasses.replace(spec, id="brick2")]
    runs = [run_benchmark([1], episodes_per_level=3, seed=4, timeout_steps=40,
                          workers=workers, catalog=custom)
            for workers in (0, 2)]
    (_, csv_s, sums_s), (_, csv_p, sums_p) = runs
    assert [s.object_id for s in sums_s] == ["brick2"] * 3
    assert csv_s == csv_p
    assert summaries_to_jsonl(sums_s) == summaries_to_jsonl(sums_p)


def test_benchmark_rejects_empty_split_before_pool(catalog, monkeypatch):
    import graspsim.metrics as metrics

    def no_pool(*_args, **_kwargs):
        raise AssertionError("a pool started for an empty split")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    seen_only = [next(s for s in catalog if s.split == "seen")]
    for workers in (0, 2):
        with pytest.raises(InvalidArgumentError, match="split 'unseen'"):
            run_benchmark([1], episodes_per_level=1, split="unseen",
                          workers=workers, catalog=seen_only)


def test_benchmark_caps_workers_at_cpu_count(monkeypatch):
    # --workers 64 on 2 CPUs asks for a 2-process pool and keeps 2 episodes in
    # flight; the stand-in pool runs each episode at submission, no process
    requested, submitted = [], []

    class RecordingPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def submit(self, fn, *args):
            submitted.append(args[0][0])
            return metrics._run_now(fn, *args)

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(metrics.os, "cpu_count", lambda: 2)
    _, csv_p, sums_p = run_benchmark([1], episodes_per_level=3, seed=5, timeout_steps=20,
                                     workers=64)
    assert requested == [2]
    assert len(submitted) == 3         # a count submits no episode it will not read
    _, csv_s, sums_s = run_benchmark([1], episodes_per_level=3, seed=5, timeout_steps=20)
    assert (csv_p, summaries_to_jsonl(sums_p)) == (csv_s, summaries_to_jsonl(sums_s))
    monkeypatch.setattr(metrics.os, "cpu_count", lambda: None)
    run_benchmark([1], episodes_per_level=1, seed=5, timeout_steps=5, workers=8)
    assert requested == [2]            # one CPU, or an unknown count: serial, no pool


def test_import_loads_no_process_pool():
    # run_benchmark imports the pool only when it starts one, so a plain
    # `import graspsim` pulls neither multiprocessing nor socket in
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, graspsim; "
         "print(sorted({'multiprocessing', 'socket'} & set(sys.modules)))"],
        env=child_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
