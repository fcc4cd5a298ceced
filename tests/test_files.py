"""File formats and file writes: the dataset record layout, reader robustness
under single-byte damage, and the one atomic write path."""

import ast
import builtins
import functools
import os
import struct
import tempfile
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graspsim
from graspsim import atomicfile
from graspsim.camera import write_pgm
from graspsim.cli import main
from graspsim.config import _RANGES, load_config
from graspsim.distill import (
    HEADER,
    HEADER_SIZE,
    RECORD_DTYPE,
    RECORD_SIZE,
    read_dataset,
    record_distillation,
)
from graspsim.errors import CatalogError, GraspSimError, InvalidArgumentError
from graspsim.gfm import build_memory, generate_candidates, save_bank
from graspsim.nn import PROPRIO_DIM, STACK_SHAPE, WeightStore
from graspsim.scene import load_catalog

SRC = Path(graspsim.__file__).parent


def _write_records(path, n, seed=0, episode_seed=7):
    """A valid n-record dataset of seeded finite values; returns its bytes."""
    rng = np.random.default_rng(seed)
    obs = [(rng.random(STACK_SHAPE), rng.random(PROPRIO_DIM) - 0.5,
            rng.random(8) * 2 - 1, k % 2, k) for k in range(n)]
    record_distillation(SimpleNamespace(n_steps=n, seed=episode_seed), obs, path)
    return Path(path).read_bytes()


def _repack(records) -> bytes:
    rows = np.array([(r.episode_id, r.step, r.observation, r.proprio, r.action,
                      r.gripper) for r in records], dtype=RECORD_DTYPE)
    return HEADER + rows.tobytes()


# ---------------------------------------------------------------------------
# Dataset layout
# ---------------------------------------------------------------------------

def test_record_layout_pinned(tmp_path):
    obs = (np.arange(np.prod(STACK_SHAPE), dtype=np.float32) * 0.25 - 7.0).reshape(STACK_SHAPE)
    proprio = np.linspace(-1.0, 1.0, PROPRIO_DIM, dtype=np.float32)
    action = np.arange(8, dtype=np.float32) - 3.5
    eid, step = 0x0123456789ABCDEF, 0xDEADBEEF
    path = tmp_path / "one.bin"
    n = record_distillation(SimpleNamespace(n_steps=1, seed=eid),
                            [(obs, proprio, action, 1, step)], path)
    expected = (b"GSDSET1\n" + struct.pack("<6I", 1, 12, 54, 96, PROPRIO_DIM, 8)
                + struct.pack("<QI", eid, step)
                + struct.pack(f"<{obs.size}f", *obs.ravel())
                + struct.pack(f"<{PROPRIO_DIM}f", *proprio)
                + struct.pack("<8f", *action)
                + struct.pack("<B", 1))
    assert n == 1
    assert RECORD_SIZE == 248_973 == len(expected) - HEADER_SIZE
    assert path.read_bytes() == expected
    (rec,) = read_dataset(path)
    assert (rec.episode_id, rec.step, rec.gripper) == (eid, step, 1)
    assert np.array_equal(rec.observation, obs)
    assert np.array_equal(rec.proprio, proprio)
    assert np.array_equal(rec.action, action)


def test_read_dataset_returns_views_of_one_array(tmp_path):
    path = tmp_path / "three.bin"
    _write_records(path, 3)
    records = read_dataset(path)

    def root(a):
        while isinstance(a.base, np.ndarray):
            a = a.base
        return a.base

    roots = {id(root(getattr(r, f))) for r in records
             for f in ("observation", "proprio", "action")}
    assert len(roots) == 1
    assert not any(r.observation.flags.writeable for r in records)


@pytest.mark.parametrize("field, index, value", [
    ("observation", 2, np.nan), ("observation", 0, np.inf),
    ("proprio", 1, -np.inf), ("action", 2, np.nan),
])
def test_read_dataset_rejects_non_finite(tmp_path, field, index, value):
    path = tmp_path / "bad.bin"
    data = bytearray(_write_records(path, 3))
    field_dtype, field_offset = RECORD_DTYPE.fields[field]
    # the last float of the field, so the whole-record scan must reach it
    offset = HEADER_SIZE + index * RECORD_SIZE + field_offset + field_dtype.itemsize - 4
    data[offset:offset + 4] = struct.pack("<f", value)
    path.write_bytes(data)
    with pytest.raises(InvalidArgumentError) as err:
        read_dataset(path)
    assert str(err.value) == f"{path}: record {index}: {field} is not finite"


def test_read_dataset_names_the_first_bad_record(tmp_path):
    # clean rows pass on whole-field min/max; once one is bad, the record
    # named is the first bad one, whatever field is bad in the later ones
    path = tmp_path / "bad.bin"
    data = bytearray(_write_records(path, 4))

    def put(index, field, raw):
        offset = HEADER_SIZE + index * RECORD_SIZE + RECORD_DTYPE.fields[field][1]
        data[offset:offset + len(raw)] = raw

    put(3, "observation", struct.pack("<f", np.nan))
    put(2, "action", struct.pack("<f", -np.inf))
    put(1, "gripper", b"\x07")
    path.write_bytes(data)
    with pytest.raises(InvalidArgumentError) as err:
        read_dataset(path)
    assert str(err.value) == f"{path}: record 1: gripper must be 0 or 1"
    # a file of no records reads as none
    empty = tmp_path / "empty.bin"
    empty.write_bytes(HEADER)
    assert read_dataset(empty) == []


@pytest.mark.parametrize("field, index, value", [
    ("observation", 2, np.nan), ("proprio", 0, np.inf), ("action", 1, 1e39),
    ("proprio", 2, -1e39), ("gripper", 1, 2),
    # wrong shapes, given as a shape; numpy would broadcast the last two into a row
    ("observation", 0, (12, 54, 95)), ("observation", 2, (54, 96)), ("proprio", 1, ()),
])
def test_record_distillation_rejects_what_the_reader_rejects(tmp_path, field, index,
                                                              value):
    # NaN, +-inf and a float64 past float32's range (inf once cast) fail with
    # the reader's message, and a gripper bit of 2 or a wrong shape with the
    # writer's; each names the path and the record, and leaves no file (nor
    # temporary twin)
    rng = np.random.default_rng(0)
    obs = [[rng.random(STACK_SHAPE), rng.random(PROPRIO_DIM), rng.random(8), 0, k]
           for k in range(3)]
    column = ("observation", "proprio", "action", "gripper").index(field)
    if field == "gripper":
        obs[index][column] = value
        what = f"gripper must be 0 or 1, got {value}"
    elif isinstance(value, tuple):
        obs[index][column] = rng.random(value)
        what = f"{field} must be {RECORD_DTYPE[field].shape}"
    else:
        obs[index][column].flat[-1] = value
        what = f"{field} is not finite"
    path = tmp_path / "bad.bin"
    with pytest.raises(InvalidArgumentError) as err:
        record_distillation(SimpleNamespace(n_steps=3, seed=7), obs, path)
    assert str(err.value) == f"{path}: record {index}: {what}"
    assert list(tmp_path.iterdir()) == []


def _mutations(size: int, hot: list):
    """One truncation, flip, insert or delete of a byte; ``hot`` positions
    (header, record seams, gripper bytes) are drawn as often as the rest."""
    pos = st.one_of(st.integers(0, size - 1), st.sampled_from(hot))
    return st.one_of(
        st.tuples(st.just("truncate"), pos, st.just(0)),
        st.tuples(st.just("flip"), pos, st.integers(1, 255)),
        st.tuples(st.just("insert"), st.integers(0, size), st.integers(0, 255)),
        st.tuples(st.just("delete"), pos, st.just(0)),
    )


def _mutate(data: bytes, op: str, pos: int, byte: int) -> bytes:
    if op == "truncate":
        return data[:pos]
    if op == "flip":
        return data[:pos] + bytes([data[pos] ^ byte]) + data[pos + 1:]
    if op == "insert":
        return data[:pos] + bytes([byte]) + data[pos:]
    return data[:pos] + data[pos + 1:]


@functools.cache
def _two_records() -> bytes:
    with tempfile.TemporaryDirectory() as d:
        return _write_records(os.path.join(d, "two.bin"), 2)


_TWO_RECORDS_SIZE = HEADER_SIZE + 2 * RECORD_SIZE
_SEAMS = sorted({p for k in range(3) for p in range(
    max(0, HEADER_SIZE + k * RECORD_SIZE - 2),
    min(_TWO_RECORDS_SIZE, HEADER_SIZE + k * RECORD_SIZE + 14))} | set(range(HEADER_SIZE)))


@settings(max_examples=120, deadline=None)
@given(_mutations(_TWO_RECORDS_SIZE, _SEAMS))
def test_dataset_reader_single_byte_damage(mutation):
    damaged = _mutate(_two_records(), *mutation)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "damaged.bin")
        Path(path).write_bytes(damaged)
        try:
            records = read_dataset(path)
        except GraspSimError as exc:
            assert str(exc).startswith(f"{path}: ")
        else:
            assert _repack(records) == damaged


_CATALOG = (resources.files("graspsim.data") / "objects.txt").read_bytes()


def _oracle_catalog(text: str) -> list:
    rows = []
    for line in text.splitlines():
        fields = line.split("#", 1)[0].split()
        if fields:
            oid, shape, dims, mass, split, category = fields
            rows.append((oid, shape, tuple(float(x) for x in dims.split(",")),
                         float(mass), split, category))
    return rows


@settings(max_examples=300, deadline=None)
@given(_mutations(len(_CATALOG), list(range(_CATALOG.index(b"\ntennis_ball"),
                                            len(_CATALOG)))))
def test_catalog_reader_single_byte_damage(mutation):
    damaged = _mutate(_CATALOG, *mutation)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "objects.txt")
        Path(path).write_bytes(damaged)
        try:
            specs = load_catalog(path)
        except GraspSimError as exc:
            assert isinstance(exc, CatalogError)
            assert str(exc).startswith(f"{path}: ")
        else:
            assert ([(s.id, s.shape, s.dims, s.mass, s.split, s.category)
                     for s in specs] == _oracle_catalog(damaged.decode("utf-8")))


def _written(write) -> bytes:
    """The bytes that ``write(path)`` puts in a fresh file."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "written")
        write(path)
        return Path(path).read_bytes()


def _read_damaged(data: bytes, mutation, read):
    """``read`` of a file holding the damaged bytes, or None after a
    GraspSimError whose message names the file."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "damaged")
        Path(path).write_bytes(_mutate(data, *mutation))
        try:
            return read(path)
        except GraspSimError as exc:
            assert str(exc).startswith(f"{path}:")
            return None


def _resaved(value, save, load) -> tuple:
    """The bytes of ``save(value)``, and of saving what loading them gives."""
    with tempfile.TemporaryDirectory() as d:
        first = os.path.join(d, "first")
        save(value, first)
        return Path(first).read_bytes(), _written(lambda p: save(load(first), p))


_CONFIG = (b"# a config file\nphysics_dt = 0.02\ndecision_dt = 0.1\n"
           b"timeout_steps = 120\nbank_size = 20\nhfov_deg = 87.0\n"
           b"mask_flip_prob = 0.05\nteacher_standoff = 0.55\n")


@settings(max_examples=150, deadline=None)
@given(_mutations(len(_CONFIG), list(range(len(_CONFIG)))))
def test_config_reader_single_byte_damage(mutation):
    cfg = _read_damaged(_CONFIG, mutation, load_config)
    if cfg is not None:
        for key, (ok, _) in _RANGES.items():
            assert ok(getattr(cfg, key)), key
        assert cfg.substeps * cfg.physics_dt == pytest.approx(cfg.decision_dt)


_TINY_MANIFEST = [("a.w", (2, 3)), ("a.b", (3,)), ("b.k", (1, 2, 2))]
_WEIGHTS = _written(WeightStore("tiny", _TINY_MANIFEST, {
    name: np.random.default_rng(k).standard_normal(shape)
    for k, (name, shape) in enumerate(_TINY_MANIFEST)}).save)
_SEP = b"\n---\n"


@settings(max_examples=150, deadline=None)
@given(_mutations(len(_WEIGHTS), list(range(_WEIGHTS.index(_SEP) + len(_SEP) + 4))))
def test_weights_reader_single_byte_damage(mutation):
    store = _read_damaged(_WEIGHTS, mutation, WeightStore.load)
    if store is not None:
        first, second = _resaved(store, WeightStore.save, WeightStore.load)
        assert first == second
        # the floats are read and written as they are
        damaged = _mutate(_WEIGHTS, *mutation)
        assert first.partition(_SEP)[2] == damaged.partition(_SEP)[2]


# ---------------------------------------------------------------------------
# Atomic writes
# ---------------------------------------------------------------------------

class _FullDisk:
    """File stand-in that writes half of what it is given, then fails."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(data[:len(data) // 2])
        raise OSError(28, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def _bench(out_dir):
    return main(["bench", "--levels", "1", "--episodes", "1", "--out", str(out_dir)])


def _bank(catalog):
    spec = next(s for s in catalog if s.id == "rubiks_cube")
    return build_memory(generate_candidates(spec, 40, seed=1), 5, object_id=spec.id)


# (target file name, action writing it into a directory, writer raises?)
WRITERS = {
    "weights": ("w.bin", lambda d, cat: WeightStore(
        "t", [("w", (2, 3))], {"w": np.ones((2, 3))}).save(d / "w.bin"), True),
    "bank": ("bank.txt", lambda d, cat: save_bank(_bank(cat), d / "bank.txt"), True),
    "pgm": ("f.pgm", lambda d, cat: write_pgm(d / "f.pgm", np.zeros((4, 5)), 255), True),
    "dataset": ("set.bin", lambda d, cat: _write_records(d / "set.bin", 2), True),
    "bench metrics.csv": ("metrics.csv", lambda d, cat: _bench(d), False),
    "bench episodes.jsonl": ("episodes.jsonl", lambda d, cat: _bench(d), False),
    "episode --dump-log": ("log.json", lambda d, cat: main([
        "episode", "--level", "1", "--object", "tomato_soup_can",
        "--dump-log", str(d / "log.json")]), False),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_keeps_earlier_file(writer, tmp_path, catalog, monkeypatch, capsys):
    name, write, raises = WRITERS[writer]
    target = tmp_path / name
    target.write_bytes(b"earlier contents\n")

    def failing_open(path, *args, **kwargs):
        fh = builtins.open(path, *args, **kwargs)
        return _FullDisk(fh) if os.path.basename(path).startswith(name) else fh

    monkeypatch.setattr(atomicfile, "open", failing_open, raising=False)
    if raises:
        with pytest.raises(OSError, match="No space left"):
            write(tmp_path, catalog)
    else:
        assert write(tmp_path, catalog) == 1
        assert "error: OSError:" in capsys.readouterr().err
    assert target.read_bytes() == b"earlier contents\n"
    assert not [p.name for p in tmp_path.iterdir() if ".tmp" in p.name]


@pytest.mark.parametrize("failing", ["metrics.csv", "episodes.jsonl"])
def test_failed_bench_write_keeps_earlier_pair(failing, tmp_path, monkeypatch, capsys):
    # a failure while writing either bench output renames neither, so the
    # directory never pairs a new metrics.csv with an earlier episodes.jsonl
    earlier = {"metrics.csv": b"earlier metrics\n", "episodes.jsonl": b"earlier log\n"}
    for name, data in earlier.items():
        (tmp_path / name).write_bytes(data)

    def failing_open(path, *args, **kwargs):
        fh = builtins.open(path, *args, **kwargs)
        return _FullDisk(fh) if os.path.basename(path).startswith(failing) else fh

    monkeypatch.setattr(atomicfile, "open", failing_open, raising=False)
    assert _bench(tmp_path) == 1
    assert "error: OSError:" in capsys.readouterr().err
    for name, data in earlier.items():
        assert (tmp_path / name).read_bytes() == data
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(earlier)


def test_atomic_write_replaces_on_success(tmp_path):
    target = tmp_path / "t.txt"
    target.write_bytes(b"old")
    with atomicfile.atomic_write(target, "w", encoding="ascii") as fh:
        fh.write("new")
        assert target.read_bytes() == b"old"
    assert target.read_bytes() == b"new"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.txt"]


def test_atomic_write_failed_rename_leaves_no_twin(tmp_path):
    # a directory that appears at the target during the write (one there
    # before is rejected up front) makes the rename fail: the error
    # propagates, the directory stays, and no temporary twin is left behind
    target = tmp_path / "taken"
    with pytest.raises(IsADirectoryError):
        with atomicfile.atomic_write(target, "w", encoding="ascii") as fh:
            fh.write("new")
            target.mkdir()
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert target.is_dir()


def _write_calls(tree):
    """(line, call text) of every call in ``tree`` that can write a file."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        owner = func.value.id if (isinstance(func, ast.Attribute)
                                  and isinstance(func.value, ast.Name)) else None
        if name == "open":
            if owner == "os":
                found.append(node)
                continue
            # builtins/io.open take the mode second; Path.open takes it first
            at = 1 if owner in (None, "io", "codecs", "builtins") else 0
            mode = next((k.value for k in node.keywords if k.arg == "mode"),
                        node.args[at] if len(node.args) > at else ast.Constant("r"))
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and not set(mode.value) & set("wax+")):
                found.append(node)
        elif name in ("write_text", "write_bytes", "tofile") or (
                owner in ("np", "numpy") and name.startswith("save")):
            found.append(node)
    return [(n.lineno, ast.unparse(n)) for n in found]


def test_only_the_atomic_helper_opens_files_for_writing():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "atomicfile.py":
            continue
        for line, call in _write_calls(ast.parse(path.read_text(), str(path))):
            offenders.append(f"{path.name}:{line}: {call}")
    assert offenders == []
    # the scan itself sees each way of opening for writing
    probe = ast.parse('open(p, "wb"); open(p, mode="a"); open(p, m); io.open(p, "r+")\n'
                      'q.open("w"); os.open(p, 0); q.write_text(t); a.tofile(p)\n'
                      'np.save(p, a); open(p); open(p, "rb"); q.open()')
    assert [line for line, _ in _write_calls(probe)] == [1] * 4 + [2] * 4 + [3]
