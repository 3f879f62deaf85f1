"""Work shared among forked processes by ``model.fork_map``: inference
chunks with the serial bits, the process count, one CPU a share, and clean
failures."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import threading
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import carelens.model as model_mod
from carelens.model import FittedModel, ModelConfig, fork_map, init_params
from carelens.synthetic import SyntheticSpec, generate_synthetic


def small_model(n_cases, seed=3):
    ds, _ = generate_synthetic(SyntheticSpec(n_cases=n_cases, seed=seed))
    cfg = ModelConfig(n_features=ds.n_features, n_baseline=ds.n_baseline,
                      d=8, heads=2)
    return ds, FittedModel(init_params(cfg, seed), cfg, ds.feature_names,
                           ds.baseline_names)


@pytest.fixture
def forks(monkeypatch):
    """Two CPUs, small chunks, and the list of forks made."""
    made = []
    real_fork = os.fork

    def counting_fork():
        made.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(model_mod, "CHUNK_CELLS", 100)
    return made


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def in_child(monkeypatch, action):
    """Run ``action`` before each forward pass made outside this process."""
    parent = os.getpid()
    real = model_mod.forward_batch

    def spy(*args, **kw):
        if os.getpid() != parent:
            action()
        return real(*args, **kw)

    monkeypatch.setattr(model_mod, "forward_batch", spy)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_forked_scores_and_traces_are_bitwise_the_serial_ones(monkeypatch, forks, cpus):
    ds, model = small_model(60)
    ids = ds.ids()[::-1]
    assert len({c.n_visits for c in ds.subset(ids)}) > 3
    assert len(model_mod._chunk_plan(ds.subset(ids))) >= 2 * cpus
    with monkeypatch.context() as m:
        m.setattr(model_mod, "_processes", lambda limit: 1)
        want_scores, want_labels = model.score(ds, ids)
        want_traces = model.trace_cases(ds, ids)
    assert forks == []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    scores, labels = model.score(ds, ids)
    traces = model.trace_cases(ds, ids)
    assert len(forks) == 2 * (cpus - 1)
    assert_no_child_left()
    assert np.array_equal(scores, want_scores)
    assert np.array_equal(labels, want_labels)
    assert [t["id"] for t in traces] == ids
    for got, want in zip(traces, want_traces):
        assert got["label"] == want["label"]
        assert len(got["ta_alphas"]) == len(want["ta_alphas"])
        for a, b in zip(got["ta_alphas"], want["ta_alphas"]):
            assert np.array_equal(a, b)
        assert np.array_equal(got["head_attn"], want["head_attn"])
        assert np.array_equal(got["final_alpha"], want["final_alpha"])


def test_a_child_exception_is_raised_with_its_type_and_message(monkeypatch, forks):
    ds, model = small_model(60)

    def fail():
        raise ZeroDivisionError("a chunk of the child's share failed")

    in_child(monkeypatch, fail)
    with pytest.raises(ZeroDivisionError, match="a chunk of the child's share failed"):
        model.score(ds)
    assert forks == [1]
    assert_no_child_left()


class TwoPartError(Exception):
    """Pickles, but cannot be rebuilt from its one-string ``args``."""

    def __init__(self, part, rest):
        super().__init__(f"{part} {rest}")


def test_a_child_exception_that_cannot_be_rebuilt_keeps_its_name_and_message(
        monkeypatch, forks):
    ds, model = small_model(60)

    def fail():
        raise TwoPartError("chunk", "broke")

    in_child(monkeypatch, fail)
    with pytest.raises(RuntimeError, match="^TwoPartError: chunk broke$"):
        model.trace_cases(ds)
    assert_no_child_left()


def test_a_child_killed_by_a_signal_raises_naming_it(monkeypatch, forks):
    ds, model = small_model(60)
    in_child(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
    with pytest.raises(RuntimeError, match="killed by SIGKILL"):
        model.score(ds)
    assert_no_child_left()


def test_a_child_that_exits_without_its_outputs_raises_naming_its_status(
        monkeypatch, forks):
    ds, model = small_model(60)
    in_child(monkeypatch, lambda: os._exit(3))
    with pytest.raises(RuntimeError, match="exited with status 3 and sent nothing"):
        model.score(ds)
    assert_no_child_left()


def test_the_children_are_reaped_when_the_parent_raises(monkeypatch, forks):
    # 300 traced cases: the child's share pickles to more than a pipe holds
    ds, model = small_model(300)
    parent = os.getpid()
    real = model_mod.forward_batch

    def spy(*args, **kw):
        if os.getpid() == parent:
            raise KeyError("the parent's chunk failed")
        return real(*args, **kw)

    monkeypatch.setattr(model_mod, "forward_batch", spy)
    with pytest.raises(KeyError, match="the parent's chunk failed"):
        model.trace_cases(ds)
    assert forks == [1]
    assert_no_child_left()


def test_fork_map_deals_the_items_round_robin_and_keeps_their_order(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    out = fork_map(lambda i: (i, os.getpid()), list(range(10)))
    assert [i for i, _ in out] == list(range(10))
    pids = [pid for _, pid in out]
    assert pids[0] == os.getpid()
    assert len(set(pids[:4])) == 4 and pids[4:] == pids[:6]
    assert_no_child_left()


@pytest.fixture
def pins(monkeypatch):
    """Four faked CPUs, and the masks this process pins itself to, in order;
    a child's share sees its own copy of the list."""
    masks = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: masks.append(set(cpus)))
    return masks


def test_each_share_runs_pinned_to_its_own_cpu_of_the_mask(pins):
    out = fork_map(lambda i: (os.getpid(), list(pins)), list(range(8)))
    assert [masks for _, masks in out[:4]] == [[{0}], [{1}], [{2}], [{3}]]
    assert out[0][0] == os.getpid() and len({pid for pid, _ in out}) == 4
    assert pins == [{0}, {0, 1, 2, 3}]            # the whole mask back
    assert_no_child_left()


@pytest.mark.parametrize("where", ["parent", "child"])
def test_the_parent_gets_its_whole_mask_back_when_a_share_raises(pins, where):
    parent = os.getpid()

    def fn(i):
        if (os.getpid() == parent) == (where == "parent"):
            raise KeyError(f"a share failed in the {where}")
        return i

    with pytest.raises(KeyError, match=f"a share failed in the {where}"):
        fork_map(fn, list(range(4)))
    assert pins == [{0}, {0, 1, 2, 3}]
    assert_no_child_left()


def test_a_pin_that_fails_in_a_child_is_raised_in_the_parent_alone(monkeypatch):
    parent = os.getpid()

    def pin(pid, cpus):
        if os.getpid() != parent:
            raise ValueError(f"cannot pin to {sorted(cpus)}")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "sched_setaffinity", pin)
    try:
        with pytest.raises(ValueError, match=r"cannot pin to \[1\]"):
            fork_map(lambda i: i, [0, 1])
    finally:
        if os.getpid() != parent:       # a child back in the caller's code
            os._exit(7)
    assert_no_child_left()


def test_a_child_runs_on_one_cpu_and_the_parent_gets_its_mask_back():
    before = os.sched_getaffinity(0)
    if len(before) < 2:
        pytest.skip("one usable CPU: fork_map forks no child")
    cpus = sorted(before)
    out = fork_map(lambda i: (os.getpid(), os.sched_getaffinity(0)), [0, 1])
    assert out[0] == (os.getpid(), {cpus[0]})
    assert out[1][0] != os.getpid() and out[1][1] == {cpus[1]}
    assert os.sched_getaffinity(0) == before
    assert_no_child_left()


def test_inference_runs_in_one_process_where_forking_is_unsafe(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    processes = model_mod._processes
    # at most one process a CPU
    assert [processes(n) for n in (0, 1, 3, 4, 100)] == [1, 1, 3, 4, 4]
    # at least two chunks a process: the processes that ran a chunk
    used = [len(set(fork_map(lambda i: os.getpid(), list(range(n)), 2)))
            for n in (1, 3, 4, 5, 7, 8, 100)]
    assert used == [1, 1, 2, 2, 3, 4, 4]
    # a process that runs a share, the parent or a child, forks no further
    assert fork_map(lambda i: processes(100), [0, 1, 2, 3]) == [1, 1, 1, 1]
    stop = threading.Event()
    worker = threading.Thread(target=stop.wait)
    worker.start()
    try:
        assert processes(100) == 1
    finally:
        stop.set()
        worker.join()
    with ProcessPoolExecutor(max_workers=1) as pool:     # a caller's own pool
        assert pool.submit(processes, 100).result() == 1
    assert processes(100) == 4
    monkeypatch.delattr(os, "fork")
    assert processes(100) == 1


def test_buffered_output_is_printed_once_when_inference_forks():
    script = textwrap.dedent("""
        import os
        import sys
        import carelens.model as model_mod
        from carelens.model import FittedModel, ModelConfig, init_params
        from carelens.synthetic import SyntheticSpec, generate_synthetic

        os.sched_getaffinity = lambda pid: {0, 1}
        model_mod.CHUNK_CELLS = 512
        forks = []
        real_fork = os.fork
        os.fork = lambda: forks.append(1) or real_fork()
        ds, _ = generate_synthetic(SyntheticSpec(n_cases=600, seed=2))
        cfg = ModelConfig(n_features=ds.n_features, n_baseline=ds.n_baseline,
                          d=8, heads=2)
        model = FittedModel(init_params(cfg, 2), cfg, ds.feature_names,
                            ds.baseline_names)
        assert not sys.stdout.write_through and not sys.stdout.line_buffering
        print("held in the buffer")
        scores, _ = model.score(ds)
        print("forks:", len(forks), "scores:", len(scores))
    """)
    src = Path(model_mod.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(src)
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=300, check=True)
    assert out.stdout == "held in the buffer\nforks: 1 scores: 600\n"
