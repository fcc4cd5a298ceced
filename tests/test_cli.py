import argparse
import concurrent.futures
import dataclasses
import hashlib
import json
import pathlib
import platform
import subprocess
import sys

import numpy as np
import pytest

import graspsim.cli
import graspsim.episode
import graspsim.metrics
from graspsim.camera import DEPTH_CLIP
from graspsim.cli import main
from graspsim.config import _RANGES, SimConfig, load_config
from graspsim.episode import run_episode
from graspsim.errors import InvalidArgumentError
from graspsim.nn import FRAME_SHAPE, STACK_LAYOUT, VIEWS
from graspsim.scene import EpisodeConfig

from conftest import child_env, setting_env


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def episode_starts(monkeypatch) -> list:
    """Record every episode the CLI starts: each call of ``decisions``, the
    stepper that run_episode (directly or in a sweep) and render step
    through, and gfm-inspect's call of ``reset_episode``."""
    calls = []

    def counted(real):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(graspsim.episode, "decisions", counted(graspsim.episode.decisions))
    monkeypatch.setattr(graspsim.cli, "decisions", counted(graspsim.cli.decisions))
    monkeypatch.setattr(graspsim.cli, "reset_episode", counted(graspsim.cli.reset_episode))
    return calls


def test_episode_command(tmp_path, capsys):
    dump = tmp_path / "log.json"
    code, out, _ = run_cli([
        "episode", "--level", "1", "--object", "tomato_soup_can",
        "--seed", "3", "--dump-log", str(dump),
    ], capsys)
    assert code == 0
    assert "outcome=success" in out
    payload = json.loads(dump.read_text())
    assert payload["outcome"] == "success"
    assert payload["object_id"] == "tomato_soup_can"


def test_unknown_object_machine_parsable_error(capsys):
    code, _, err = run_cli(["episode", "--level", "1", "--object", "nothing"],
                           capsys)
    assert code == 1
    line = err.strip().splitlines()[-1]
    assert line.startswith("error: NotFoundError:")


def test_render_command(tmp_path, capsys):
    out_dir = tmp_path / "frames"
    code, out, _ = run_cli([
        "render", "--level", "1", "--seed", "0", "--step", "3",
        "--out-dir", str(out_dir),
    ], capsys)
    assert code == 0
    files = sorted(p.name for p in out_dir.iterdir())
    assert files == [
        "step0003_base_depth.pgm", "step0003_base_mask.pgm",
        "step0003_wrist_depth.pgm", "step0003_wrist_mask.pgm",
    ]
    for p in out_dir.iterdir():
        assert p.read_bytes().startswith(b"P5\n96 54\n")


def _pgm(path) -> np.ndarray:
    data = path.read_bytes()
    maxval = int(data.split(b"\n")[2])
    dtype = ">u2" if maxval > 255 else np.uint8
    return np.frombuffer(data, dtype, count=54 * 96, offset=len(data) - 54 * 96
                         * np.dtype(dtype).itemsize).reshape(54, 96)


@pytest.mark.parametrize("level, obj, seed, step, flip", [
    (1, "tennis_ball", 0, 12, 0.0),        # sphere: wrist mask 0 px, base 16 px
    (4, "mustard_bottle", 3, 7, 0.0),      # cylinder
    (2, "orange", 4, 9, 0.05),             # mask flips, seeded per step and view
])
def test_render_step_writes_the_episodes_frames(level, obj, seed, step, flip, tmp_path,
                                                capsys):
    # the frames of the state decision N saw: the newest frames of the
    # episode's record N + 4, four steps of latency later
    cfg_path = tmp_path / "sim.cfg"
    cfg_path.write_text(f"timeout_steps = {step + 5}\nmask_flip_prob = {flip}\n")
    out = tmp_path / "frames"
    code, _, _ = run_cli(["--config", str(cfg_path), "render", "--level", str(level),
                          "--object", obj, "--seed", str(seed), "--step", str(step),
                          "--out-dir", str(out)], capsys)
    assert code == 0
    cfg = load_config(cfg_path)
    _, records = run_episode(EpisodeConfig(level=level, object_id=obj, seed=seed,
                                           timeout_steps=cfg.timeout_steps),
                             sim_cfg=cfg, collect_observations=True)
    newest = records[step + 4][0].reshape(STACK_LAYOUT + FRAME_SHAPE)[-1]
    for view, (stacked_mask, stacked_depth) in zip(VIEWS, newest, strict=True):
        mask = _pgm(out / f"step{step:04d}_{view}_mask.pgm")
        depth_mm = _pgm(out / f"step{step:04d}_{view}_depth.pgm").astype(float)
        assert np.array_equal(mask == 255, stacked_mask == 1.0)
        assert np.abs(np.minimum(depth_mm, 1000.0 * DEPTH_CLIP)
                      - 1000.0 * DEPTH_CLIP * stacked_depth).max() <= 1.0


@pytest.mark.parametrize("config, step, last", [(None, 40, 39), ("timeout_steps = 3\n", 3, 2)])
def test_render_step_past_the_episodes_end_rejected(config, step, last, tmp_path, capsys):
    # level 1 tennis_ball seed 0 succeeds at step 39; the other run times out
    args = ["render", "--step", str(step), "--out-dir", str(tmp_path / "frames")]
    if config is not None:
        (tmp_path / "sim.cfg").write_text(config)
        args = ["--config", str(tmp_path / "sim.cfg")] + args
    code, out, err = run_cli(args, capsys)
    assert code == 1 and out == ""
    assert err.splitlines() == [
        f"error: InvalidArgumentError: --step {step} is past the episode's end: "
        f"its last decision step is {last}"]
    assert [p.name for p in tmp_path.iterdir()] == ([] if config is None else ["sim.cfg"])


# sha256 over the four PGMs in name order, as written before render stepped
# the episode (it advanced only the scene then); step 0 is the episode's start
RENDER_STEP0_DIGESTS = {
    (1, 0, "tennis_ball"): "78c6f84c15b469938c69b1ff3238e01ad73334a1be3884d7f977a2151fca5a28",
    (4, 3, "mustard_bottle"): "434ddcf305e7cad49e1985fe645ae2b9518408d3e6ef993765c14783be8bb0ef",
    (2, 5, "cracker_box"): "c1c0b45da40683794690f59562b1b013ae04b7d58645239814f5b029e0531ab1",
}


@pytest.mark.parametrize("level, seed, obj", sorted(RENDER_STEP0_DIGESTS))
def test_render_step_zero_bytes_pinned(level, seed, obj, tmp_path, capsys):
    out = tmp_path / "frames"
    assert run_cli(["render", "--level", str(level), "--seed", str(seed), "--object", obj,
                    "--step", "0", "--out-dir", str(out)], capsys)[0] == 0
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        digest.update(path.read_bytes())
    assert digest.hexdigest() == RENDER_STEP0_DIGESTS[level, seed, obj]


def test_gfm_inspect_command(capsys):
    code, out, _ = run_cli(["gfm-inspect", "--object", "mustard_bottle"], capsys)
    assert code == 0
    assert "bank size 30" in out
    assert "fused world grasp:" in out


def test_gfm_inspect_save_roundtrip(tmp_path, capsys):
    path = tmp_path / "bank.txt"
    code, _, _ = run_cli(["gfm-inspect", "--object", "rubiks_cube",
                          "--save", str(path)], capsys)
    assert code == 0
    head, *rows = path.read_text(encoding="ascii").splitlines()
    assert head == "bank rubiks_cube 30"
    assert len(rows) == 30 and all(len(row.split()) == 7 for row in rows)


def test_gfm_inspect_saves_the_episode_bank(tmp_path, capsys, monkeypatch):
    # gfm-inspect shows the bank that an episode of that object and seed
    # grasps from, whatever the episode's level
    import graspsim.episode as episode
    from graspsim.gfm import save_bank

    built, real_bank = [], episode.episode_bank

    def recording(*args, **kwargs):
        built.append(real_bank(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(episode, "episode_bank", recording)
    run_episode(EpisodeConfig(level=2, object_id="mustard_bottle", seed=9,
                              timeout_steps=1))
    save_bank(built[0], tmp_path / "episode_bank.txt")
    assert run_cli(["gfm-inspect", "--object", "mustard_bottle", "--seed", "9",
                    "--save", str(tmp_path / "bank.txt")], capsys)[0] == 0
    assert ((tmp_path / "bank.txt").read_bytes()
            == (tmp_path / "episode_bank.txt").read_bytes())


def test_bench_command_writes_outputs(tmp_path, capsys):
    out_dir = tmp_path / "bench"
    args = ["bench", "--levels", "1", "--episodes", "2", "--seed", "5",
            "--out", str(out_dir)]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    csv_a = (out_dir / "metrics.csv").read_bytes()
    log_a = (out_dir / "episodes.jsonl").read_bytes()
    out_dir2 = tmp_path / "bench2"
    code, _, _ = run_cli(["bench", "--levels", "1", "--episodes", "2",
                          "--seed", "5", "--out", str(out_dir2)], capsys)
    assert code == 0
    assert (out_dir2 / "metrics.csv").read_bytes() == csv_a
    assert (out_dir2 / "episodes.jsonl").read_bytes() == log_a


@pytest.mark.parametrize("episodes", [1, 3, 5])
def test_pooled_bench_submits_only_the_episodes_it_reads(tmp_path, capsys, monkeypatch,
                                                         episodes):
    # a pool cannot cancel a task it has queued, so each one submitted runs:
    # with --episodes E, E per level at any worker count.  The stand-in pool
    # runs each episode at submission, in this process.
    submitted = []

    class CountingPool:
        def __init__(self, max_workers):
            pass

        def submit(self, fn, *args):
            submitted.append(args[0][0].level)
            return graspsim.metrics._run_now(fn, *args)

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(graspsim.metrics.os, "cpu_count", lambda: 2)
    csvs = []
    for workers in ("0", "2"):
        out = tmp_path / workers
        assert run_cli(["bench", "--levels", "1,2", "--episodes", str(episodes), "--seed", "5",
                        "--workers", workers, "--out", str(out)], capsys)[0] == 0
        csvs.append((out / "metrics.csv").read_bytes())
    assert submitted == [1] * episodes + [2] * episodes
    assert csvs[1] == csvs[0]


def test_distill_record_command(tmp_path, capsys):
    out = tmp_path / "data.bin"
    code, text, _ = run_cli([
        "distill-record", "--episodes", "1", "--level", "1", "--seed", "3",
        "--out", str(out),
    ], capsys)
    assert code == 0
    assert out.exists()
    assert "total records:" in text


def test_distill_record_runs_the_bench_episodes(tmp_path, capsys, episode_starts):
    # distill-record --episodes N --level L --seed S records the (object, seed)
    # episodes that bench --levels L --episodes N --split seen --seed S runs
    cfg = tmp_path / "short.cfg"
    cfg.write_text("timeout_steps = 8\n")
    for args in (["distill-record", "--episodes", "2", "--level", "3", "--seed", "6",
                  "--out", str(tmp_path / "d.bin")],
                 ["bench", "--levels", "3", "--episodes", "2", "--split", "seen",
                  "--seed", "6", "--out", str(tmp_path / "bench")]):
        assert run_cli(["--config", str(cfg)] + args, capsys)[0] == 0
    runs = [(c.level, c.object_id, c.seed) for c, *_ in episode_starts]
    assert len(runs) == 4 and runs[:2] == runs[2:] and runs[0][1:] != runs[1][1:]


@pytest.mark.parametrize("args", [     # (argv, the message), so the ids stay args0..
    (["bench", "--levels", "1", "--episodes", "0"], "episodes_per_level must be >= 1, got 0"),
    (["bench", "--levels", "1", "--steps", "0"], "step_budget must be >= 1, got 0"),
    (["bench", "--levels", "1", "--episodes", "1", "--workers", "-2"],
     "workers must be >= 0, got -2"),
    (["render", "--step", "-3"], "--step must be >= 0, got -3"),
    (["distill-record", "--episodes", "0"], "--episodes must be >= 1, got 0"),
    (["distill-record", "--episodes", "-1"], "--episodes must be >= 1, got -1"),
])
def test_count_arguments_rejected(args, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv, message = args
    code, _, err = run_cli(argv + ["--out-dir" if argv[0] == "render" else "--out",
                                   str(tmp_path / "out")], capsys)
    assert code == 1
    assert err.strip().splitlines()[-1] == f"error: InvalidArgumentError: {message}"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [
    ["episode", "--level", "1", "--object", "rubiks_cube", "--dump-log"],
    ["gfm-inspect", "--object", "rubiks_cube", "--save"],
    ["distill-record", "--level", "1", "--out"],
    ["bench", "--levels", "1", "--episodes", "1", "--out"],
    ["render", "--out-dir"],
])
def test_empty_file_flag_rejected(args, tmp_path, capsys, monkeypatch, episode_starts):
    # an empty path is an error, not "flag not given", found before any
    # episode runs, and leaves no file
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(args + [""], capsys)
    assert code == 1
    assert err.strip().splitlines()[-1].startswith("error: ")
    assert list(tmp_path.iterdir()) == []
    assert episode_starts == []


@pytest.mark.parametrize("args", [
    ["episode", "--level", "1", "--object", "rubiks_cube", "--dump-log"],
    ["distill-record", "--level", "1", "--out"],
    ["bench", "--levels", "1", "--episodes", "1", "--out"],
])
def test_missing_output_directory_rejected(args, tmp_path, capsys, monkeypatch,
                                           episode_starts):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(args + [str(tmp_path / "missing" / "out")], capsys)
    assert code == 1
    assert err.strip().splitlines()[-1] == (
        f"error: InvalidArgumentError: output directory does not exist: "
        f"{tmp_path / 'missing'}")
    assert list(tmp_path.iterdir()) == []
    assert episode_starts == []


def test_bench_out_naming_a_file_rejected(tmp_path, capsys, episode_starts):
    afile = tmp_path / "afile"
    afile.write_bytes(b"kept")
    code, out, err = run_cli(["bench", "--levels", "1", "--episodes", "2",
                              "--out", str(afile)], capsys)
    assert code == 1 and out == ""
    assert err.strip().splitlines()[-1] == (
        f"error: InvalidArgumentError: --out is not a directory: {afile}")
    assert episode_starts == []
    assert list(tmp_path.iterdir()) == [afile] and afile.read_bytes() == b"kept"


@pytest.mark.parametrize("under", [False, True], ids=["the-file", "under-a-file"])
def test_render_out_dir_naming_a_file_rejected(under, tmp_path, capsys, episode_starts):
    # found before the episode runs to --step, as bench --out is; a file on
    # the way to the directory, which makedirs would meet, counts too
    afile = tmp_path / "afile"
    afile.write_bytes(b"kept")
    out_dir = afile / "frames" if under else afile
    code, out, err = run_cli(["render", "--step", "30", "--out-dir", str(out_dir)], capsys)
    assert code == 1 and out == ""
    assert err.strip().splitlines()[-1] == (
        f"error: InvalidArgumentError: --out-dir: not a directory: {afile}")
    assert episode_starts == []
    assert list(tmp_path.iterdir()) == [afile] and afile.read_bytes() == b"kept"


@pytest.mark.parametrize("args, taken", [
    (["episode", "--level", "1", "--object", "rubiks_cube", "--dump-log"], "adir"),
    (["gfm-inspect", "--object", "rubiks_cube", "--save"], "adir"),
    (["distill-record", "--level", "1", "--out"], "adir"),
    (["distill-record", "--level", "1", "--episodes", "2", "--out"], "adir.ep001"),
])
def test_output_path_naming_a_directory_rejected(args, taken, tmp_path, capsys,
                                                  episode_starts):
    # found before any episode starts (distill-record checks each .epNNN
    # file it would write), and the directory is left as it was
    (tmp_path / taken).mkdir()
    (tmp_path / taken / "kept").write_bytes(b"kept")
    code, out, err = run_cli(args + [str(tmp_path / "adir")], capsys)
    assert code == 1 and out == ""
    assert err.strip().splitlines()[-1] == (
        f"error: InvalidArgumentError: output path is a directory: {tmp_path / taken}")
    assert episode_starts == []
    assert [p.name for p in tmp_path.iterdir()] == [taken]
    assert [p.name for p in (tmp_path / taken).iterdir()] == ["kept"]
    assert (tmp_path / taken / "kept").read_bytes() == b"kept"


@pytest.mark.parametrize("args, named", [
    (["episode", "--level", "1", "--object", "rubiks_cube", "--seed", "-1",
      "--dump-log", "log.json"], "got -1"),
    (["render", "--seed", "-3", "--out-dir", "frames"], "got -3"),
    (["gfm-inspect", "--object", "rubiks_cube", "--seed", "-2",
      "--save", "bank.txt"], "got -2"),
    (["bench", "--levels", "1,x", "--episodes", "1", "--out", "b"], "'x'"),
    # at the default step budget, not after level 1 has run
    (["bench", "--levels", "1,5", "--out", "b"], "got 5"),
    # derive_seed would turn a negative seed into another seed's episodes
    (["distill-record", "--seed", "-1", "--out", "d.bin"], "got -1"),
    (["bench", "--levels", "1", "--episodes", "1", "--seed", "-4", "--out", "b"], "got -4"),
    # derive_seed's 31-bit mask would alias these to seed 0
    (["distill-record", "--seed", str(2**31), "--out", "d.bin"], f"got {2**31}"),
    (["bench", "--levels", "1", "--episodes", "1", "--seed", str(2**32), "--out", "b"],
     f"got {2**32}"),
    (["bench", "--levels", "1,,2", "--episodes", "1", "--out", "b"], "''"),
    (["bench", "--levels", "1,", "--episodes", "1", "--out", "b"], "''"),
])
def test_bad_seed_or_level_rejected(args, named, tmp_path, capsys, monkeypatch,
                                    episode_starts):
    # one error line naming the bad value, before any episode starts or any
    # output file or directory is made
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(args, capsys)
    assert code == 1 and out == ""
    [line] = err.splitlines()
    assert line.startswith("error: InvalidArgumentError:") and named in line
    assert episode_starts == []
    assert list(tmp_path.iterdir()) == []


def test_config_file_override(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("timeout_steps = 2\nteacher_standoff = 0.55\n")
    code, out, _ = run_cli([
        "--config", str(cfg), "episode", "--level", "1",
        "--object", "tomato_soup_can", "--seed", "3",
    ], capsys)
    assert code == 0
    assert "outcome=failed_timeout" in out
    # bench applies the grasp and teacher keys too, not just the timeout
    cfg.write_text("bank_size = 1\ncandidate_count = 5\nteacher_standoff = 0.3\n")
    bench = ["bench", "--levels", "1", "--episodes", "3", "--seed", "0"]
    assert run_cli(bench + ["--out", str(tmp_path / "default")], capsys)[0] == 0
    assert run_cli(["--config", str(cfg)] + bench
                   + ["--out", str(tmp_path / "override")], capsys)[0] == 0
    logs = [(tmp_path / d / "episodes.jsonl").read_text()
            for d in ("default", "override")]
    assert logs[0] != logs[1]


def test_config_env_var(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "env.cfg"
    cfg.write_text("timeout_steps = 2\n")
    monkeypatch.setenv("GRASPSIM_CONFIG", str(cfg))
    code, out, _ = run_cli([
        "episode", "--level", "1", "--object", "tomato_soup_can", "--seed", "3",
    ], capsys)
    assert code == 0
    assert "outcome=failed_timeout" in out


def test_config_rejects_duplicate_key(tmp_path):
    cfg = tmp_path / "sim.cfg"
    for text, lineno in (("bank_size = 5\nbank_size = 7\n", 2),
                         ("hfov_deg = 60\n# c\nphysics_dt = 0.02\nhfov_deg = 60\n", 4)):
        cfg.write_text(text)
        key = text.split()[0]
        with pytest.raises(InvalidArgumentError) as exc:
            load_config(cfg)
        assert str(exc.value) == f"{cfg}:{lineno}: duplicate key {key!r}"


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    # the removed reward weight and kernel-width keys are unknown keys too
    for text in ("warp_drive = 9\n", "rewards.base_h = 2.5\n", "sigma_cf = 50\n"):
        cfg.write_text(text)
        code, _, err = run_cli([
            "--config", str(cfg), "episode", "--level", "1",
            "--object", "tomato_soup_can",
        ], capsys)
        assert code == 1
        key = text.split()[0]
        assert err == f"error: InvalidArgumentError: {cfg}:1: unknown key {key!r}\n"
    for text in ("rewards.base_h = abc\n", "# c\nrewards.warp = 1\n",
                 "reward_weights = 1\n", "physics_dt = nan\n",
                 "rewards.base_h = inf\n", "# c\nteacher_standoff = -inf\n",
                 "physics_dt = 0\n", "decision_dt = -0.1\n",
                 "timeout_steps = -5\n", "bank_size = 0\n",
                 "candidate_count = 0\n", "gripper_aperture = 0\n",
                 "sigma_track = -1\n", "sigma_cf = 0\n", "sigma_cv = 0\n",
                 "hfov_deg = 0\n", "hfov_deg = 180\n",
                 "mask_flip_prob = -0.1\n", "mask_flip_prob = 1.5\n",
                 "teacher_standoff = -1\n", "teacher_align_pos_tol = -5\n",
                 "teacher_align_ori_tol = 0\n", "teacher_max_rel_speed = 0\n",
                 "teacher_intercept_horizon = -3\n"):
        cfg.write_text(text)
        with pytest.raises(InvalidArgumentError) as exc:
            load_config(cfg)
        lineno = text.count("\n")
        assert f"{cfg}:{lineno}:" in str(exc.value)
        if text == "physics_dt = nan\n":     # the range check names the key and its range
            assert str(exc.value) == f"{cfg}:1: physics_dt must be a finite number > 0, got nan"
    cfg.write_text("mask_flip_prob = 1\nhfov_deg = 179.5\nbank_size = 1\n"
                   "teacher_intercept_horizon = 0\n")
    loaded = load_config(cfg)
    assert (loaded.mask_flip_prob, loaded.hfov_deg, loaded.bank_size,
            loaded.teacher_intercept_horizon) == (1.0, 179.5, 1, 0.0)
    # a decision step that is not a whole number of physics steps names the file
    cfg.write_text("physics_dt = 0.03\n")
    with pytest.raises(InvalidArgumentError) as exc:
        load_config(cfg)
    assert str(exc.value).startswith(f"{cfg}: decision_dt must be")
    # a byte that is not UTF-8 names the file, in the API and on the CLI
    cfg.write_bytes(b"physics_dt = 0.02\xb3\n")
    with pytest.raises(InvalidArgumentError) as exc:
        load_config(cfg)
    assert str(exc.value).startswith(f"{cfg}: not UTF-8 text")
    code, out, err = run_cli(["--config", str(cfg), "bench", "--levels", "1",
                              "--episodes", "1", "--out", str(tmp_path / "b")],
                             capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"error: InvalidArgumentError: {cfg}: not UTF-8 text")
    assert not (tmp_path / "b").exists()


def bench_bytes(env, out) -> list:
    """metrics.csv and episodes.jsonl of a short sweep run in a child process."""
    proc = subprocess.run(
        [sys.executable, "-m", "graspsim.cli", "bench", "--levels", "1,2,3,4",
         "--episodes", "2", "--split", "both", "--seed", "9", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return [(out / name).read_bytes() for name in ("metrics.csv", "episodes.jsonl")]


@pytest.fixture(scope="module")
def default_bench_bytes(tmp_path_factory):
    return bench_bytes(child_env(), tmp_path_factory.mktemp("bench") / "default")


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="the settings name x86-64 BLAS kernels and CPU features")
@pytest.mark.parametrize("setting", [
    {"OPENBLAS_CORETYPE": "Sandybridge"},
    {"NPY_ENABLE_CPU_FEATURES": "SSE SSE2 SSE3 SSSE3 SSE41 POPCNT SSE42 X86_V2"},
], ids=["blas-without-fma", "numpy-without-avx512"])
def test_bench_bytes_hold_across_kernels(setting, default_bench_bytes, tmp_path):
    # outcomes are per seed alone: a BLAS kernel or a numpy SIMD dispatch that
    # moves logged floats by ulps leaves the sweep's output bytes as they are
    assert bench_bytes(setting_env(setting), tmp_path / "out") == default_bench_bytes


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "graspsim.cli", "gfm-inspect", "--object", "rubiks_cube"],
        env=child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "object rubiks_cube" in proc.stdout and "fused world grasp:" in proc.stdout


def readme_block(marker: str) -> str:
    """The first fenced block after ``marker`` in README.md."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    return readme.split(marker, 1)[1].split("```\n", 2)[1]


def test_readme_cli_block_names_every_subcommand():
    block = readme_block("## CLI\n")
    documented = {line.split()[1] for line in block.splitlines()
                  if line.startswith("graspsim ")}
    sub = next(a for a in graspsim.cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert documented == set(sub.choices)


def test_readme_config_block_lists_every_key(tmp_path):
    block = readme_block("A plain-text config file")
    documented = [line.split()[0] for line in block.splitlines()]
    names = [f.name for f in dataclasses.fields(SimConfig)]
    assert sorted(documented) == sorted(names) == sorted(_RANGES)
    # the block is a config file that sets every key to its default
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text(block)
    assert load_config(cfg) == SimConfig()
