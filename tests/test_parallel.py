"""The ordered tile map (parallel.tile_map), the malloc policy and the
OpenBLAS pin."""

import ctypes
import os
import subprocess
import sys
import threading
import types
from pathlib import Path

import pytest

from mwwdr import FrmSpec, cli, data, parallel, solve_families
from mwwdr.ugee import _Workspace
from mwwdr.simstudy import synthetic_confounded_trial, write_dataset_csv

try:
    import resource
except ImportError:  # not on every OS
    resource = None

SRC = Path(__file__).resolve().parent.parent / "src"


def run_in_thread(target, timeout=60):
    """Run target() on a thread, joined with a timeout; return its result."""
    out = {}

    def body():
        try:
            out["value"] = target()
        except BaseException as exc:
            out["error"] = exc

    th = threading.Thread(target=body)
    th.start()
    th.join(timeout)
    assert not th.is_alive(), "the tile map did not finish"
    if "error" in out:
        raise out["error"]
    return out["value"]


class TestTileMap:
    def test_results_in_item_order_under_stress(self, monkeypatch):
        # more threads than cores and a short switch interval: every item
        # is evaluated exactly once and the results come back in order
        monkeypatch.setattr(parallel, "_tile_workers", lambda: 8)
        counts = [0] * 300
        lock = threading.Lock()
        threads = set()

        def fn(k):
            with lock:
                counts[k] += 1
                threads.add(threading.current_thread())
            return k * k

        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = run_in_thread(lambda: list(parallel.tile_map(fn, range(len(counts)))))
        finally:
            sys.setswitchinterval(interval)
        assert got == [k * k for k in range(len(counts))]
        assert counts == [1] * len(counts)
        assert len(threads) <= 8
        assert all(t.name.startswith("mwwdr-tiles") for t in threads)
        assert threading.active_count() == before

    def test_first_failing_item_raises(self, monkeypatch):
        # items 3 and 5 fail; as on one thread, the results before item 3
        # are handed back and item 3's exception is raised
        monkeypatch.setattr(parallel, "_tile_workers", lambda: 2)

        def fn(k):
            if k in (3, 5):
                raise ValueError(f"item {k}")
            return k

        got = []

        def mapped():
            for value in parallel.tile_map(fn, range(8)):
                got.append(value)

        before = threading.active_count()
        with pytest.raises(ValueError, match="item 3"):
            run_in_thread(mapped)
        assert got == [0, 1, 2]
        assert threading.active_count() == before

    def test_inline_with_one_worker_or_one_item(self, monkeypatch):
        on = []

        def fn(k):
            on.append(threading.current_thread())
            return k

        before = threading.active_count()
        monkeypatch.setattr(parallel, "_tile_workers", lambda: 2)
        assert list(parallel.tile_map(fn, [0])) == [0]
        # a simulate worker's one tile thread
        monkeypatch.setattr(parallel, "_tile_workers", lambda: 1)
        assert list(parallel.tile_map(fn, range(8))) == list(range(8))
        assert threading.active_count() == before
        assert len(on) == 9
        assert set(on) == {threading.current_thread()}


class TestNoThreadOutlivesAFit:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_solve_families(self, workers, monkeypatch):
        # n = 600: six pair tiles. With two workers each pass runs on
        # threads that are gone when the fits come back; with one, no
        # thread starts
        ds = synthetic_confounded_trial(n=600, seed=7)
        assert len(data.pair_tiles(ds.n, ds.n1)) == 6
        monkeypatch.setattr(parallel, "_tile_workers", lambda: workers)
        started = []
        real_start = threading.Thread.start

        def recording_start(thread):
            started.append(thread.name)
            return real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        before = threading.active_count()
        fits = list(solve_families(ds, FrmSpec(fd_check_pairs=0)))
        assert len(fits) == 3
        assert not [t for t in threading.enumerate()
                    if t.name.startswith("mwwdr-tiles")]
        assert threading.active_count() == before
        assert bool(started) == (workers > 1)
        assert all(name.startswith("mwwdr-tiles") for name in started)


SMALL = synthetic_confounded_trial(n=20, seed=1)


def _no_c_library(name, *args, **kwargs):
    raise OSError(f"cannot open {name}")


@pytest.mark.parametrize("cdll", [lambda *args, **kwargs: object(), _no_c_library],
                         ids=["no-mallopt", "no-c-library"])
def test_worker_setup_without_mallopt(cdll, monkeypatch):
    # where the C library has no mallopt, or cannot be opened, the malloc
    # policy does nothing, and the workspace that applies it is still built
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    parallel.malloc_policy.cache_clear()
    try:
        assert _Workspace(SMALL, FrmSpec()).n == SMALL.n
        assert parallel.malloc_policy.cache_info().misses == 1
    finally:
        parallel.malloc_policy.cache_clear()  # the next workspace applies it


def test_malloc_policy_values(monkeypatch):
    # the first workspace sets the mmap threshold, the trim threshold and
    # one arena, and later ones set nothing
    calls = []

    def recording_c_library(name, *args, **kwargs):
        def mallopt(param, value):
            calls.append((param, value))
            return 1
        return types.SimpleNamespace(mallopt=mallopt)

    monkeypatch.setattr(ctypes, "CDLL", recording_c_library)
    parallel.malloc_policy.cache_clear()
    try:
        for _ in range(2):
            assert _Workspace(SMALL, FrmSpec()).n == SMALL.n
        assert calls == [(-3, 32 << 20), (-1, 256 << 20), (-8, 1)]
    finally:
        parallel.malloc_policy.cache_clear()  # the next workspace applies it


def test_worker_initializer_sets_one_thread(monkeypatch):
    before = parallel.blas_threads()
    monkeypatch.setattr(parallel, "_WORKERS", None)
    try:
        parallel.single_threaded()
        assert parallel._tile_workers() == 1
        assert parallel.blas_threads() == (None if before is None else 1)
    finally:
        if before is not None:
            parallel.set_blas_threads(before)


def python_in_subprocess(code, **env):
    """The whitespace-separated words code prints in a fresh interpreter."""
    env = dict(os.environ, **env,
               PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return out.stdout.split()


def test_cli_import_loads_no_multiprocessing():
    # only run_studies on two or more workers opens a process pool, so
    # an estimate process does not pay for importing multiprocessing
    code = ("import sys\n"
            "import mwwdr, mwwdr.cli\n"
            "print('multiprocessing' in sys.modules)\n")
    assert python_in_subprocess(code) == ["False"]


def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


class TestMallocPolicy:
    def test_first_tile_map_applies_it_once(self):
        # importing the package and its command line opens no C library;
        # the first fit's workspace does, once for the process
        code = ("import ctypes\n"
                "opened, real = [], ctypes.CDLL\n"
                "def recording(name, *args, **kwargs):\n"
                "    opened.append(name)\n"
                "    return real(name, *args, **kwargs)\n"
                "ctypes.CDLL = recording\n"
                "import mwwdr, mwwdr.cli\n"
                "print(opened.count(None))\n"
                "ds = mwwdr.synthetic_confounded_trial(n=40, seed=1)\n"
                "for _ in range(2):\n"
                "    list(mwwdr.solve_families(ds, mwwdr.FrmSpec()))\n"
                "print(opened.count(None))\n")
        assert python_in_subprocess(code) == ["0", "1"]

    @pytest.mark.skipif(resource is None or not _has_mallopt(),
                        reason="no resource module or no mallopt")
    def test_fits_after_the_first_fault_in_few_pages(self):
        # a library caller's repeated n = 1000 fits reuse heap pages: 3-4
        # minor faults per fit after the first on a 2 vCPU VM, where
        # glibc's default thresholds gave 2.2k-3.6k
        code = ("import resource\n"
                "from mwwdr import FrmSpec, solve_families\n"
                "from mwwdr import synthetic_confounded_trial\n"
                "ds = synthetic_confounded_trial(n=1000, seed=7)\n"
                "for _ in range(3):\n"
                "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                "    list(solve_families(ds, FrmSpec()))\n"
                "    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt"
                " - before)\n")
        faults = [int(v) for v in python_in_subprocess(code)]
        assert all(f < 500 for f in faults[1:]), faults


class TestBlasPin:
    @pytest.mark.skipif(parallel.blas_threads() is None, reason="no OpenBLAS")
    def test_import_leaves_blas_threads_unchanged(self):
        code = ("import numpy\n"
                "import mwwdr\n"
                "from mwwdr.parallel import blas_threads\n"
                "print(blas_threads())\n")
        assert python_in_subprocess(code, OPENBLAS_NUM_THREADS="2") == ["2"]

    @pytest.mark.skipif(parallel.blas_threads() is None, reason="no OpenBLAS")
    def test_cli_pins_one_thread_and_restores(self, monkeypatch, tmp_path):
        seen = []
        real = cli.solve_families

        def recording(*args, **kwargs):
            seen.append(parallel.blas_threads())
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "solve_families", recording)
        before = parallel.blas_threads()
        parallel.set_blas_threads(2)
        try:
            path = tmp_path / "d.csv"
            write_dataset_csv(synthetic_confounded_trial(n=40, seed=1), path,
                              ("age", "bmi", "chol", "health"))
            code = cli.main(["estimate", "--input", str(path), "--z-col", "z",
                             "--y-col", "y", "--w-cols", "age", "--estimator",
                             "dr", "--output", str(tmp_path / "r.json")])
            assert code == 0
            assert seen == [1]
            assert parallel.blas_threads() == 2
        finally:
            parallel.set_blas_threads(before)


def report_bytes(argv, blas, tmp_path):
    out = tmp_path / f"report-{blas}.json"
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas),
               PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    subprocess.run([sys.executable, "-m", "mwwdr.cli", *argv, "--output", str(out)],
                   env=env, check=True, timeout=300)
    return out.read_bytes()


@pytest.mark.skipif(parallel.blas_threads() is None, reason="no OpenBLAS")
class TestDeterminismAcrossBlasSettings:
    def test_estimate_bytes(self, tmp_path):
        # n = 600: three subject blocks, so six pair tiles on two threads
        path = tmp_path / "trial.csv"
        write_dataset_csv(synthetic_confounded_trial(n=600, seed=7), path,
                          ("age", "bmi", "chol", "health"))
        argv = ["estimate", "--input", str(path), "--z-col", "z", "--y-col", "y",
                "--w-cols", "age,bmi,chol,health", "--estimator", "all"]
        assert report_bytes(argv, 1, tmp_path) == report_bytes(argv, 2, tmp_path)

    def test_simulate_bytes(self, tmp_path):
        argv = ["simulate", "--preset", "table3", "--n", "100", "--reps", "4",
                "--seed", "7", "--threads", "2"]
        assert report_bytes(argv, 1, tmp_path) == report_bytes(argv, 2, tmp_path)
