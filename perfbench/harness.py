"""Shared pieces of the benchmark: metric tables, the percentile rule,
the span tracer, provenance and the append-only record file.

Nothing here imports :mod:`repro`; the workload modules do, after
:func:`import_repro` has put the checkout's own ``src`` on the path.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: Root of the checkout the benchmark runs from (``perfbench``'s parent).
ROOT = Path(__file__).resolve().parents[1]
#: Everything a run leaves behind (records, span dumps) goes here.
STATE_DIR = ROOT / ".perfbench"
RECORDS_PATH = STATE_DIR / "records.jsonl"

#: Gated metrics: every workload reports each of them (see README.md for
#: what each one means on each workload). Latency medians and tails are
#: printed and recorded but not gated: on a 2-vCPU virtual machine they
#: move 20-30 % between runs with the host's state.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("latency_ms_mean", "ms"),
    ("work_per_host_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics of the traced run, in BENCHMARK.json order. A layer
#: that is not on a workload's path reads 0 there.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("rl.train_step_ms", "ms"),
    ("rl.train_steps", "count"),
    ("rl.train.forward_ms", "ms"),
    ("rl.train.backward_ms", "ms"),
    ("rl.train.optim_ms", "ms"),
    ("rl.train.replay_ms", "ms"),
    ("rl.act_us", "us"),
    ("rl.act_batch_ms", "ms"),
    ("pmc.observe_us", "us"),
    ("pmc.bank_observe_us", "us"),
    ("core.mapper_map_us", "us"),
    ("core.mapper_calls", "count"),
    ("engine.node_decisions", "count"),
    ("engine.mapper_memo_hit_ratio", "ratio"),
    ("core.update_self_ms", "ms"),
    ("engine.update_batch_self_ms", "ms"),
    ("sim.step_ms", "ms"),
    ("cluster.step_self_ms", "ms"),
    ("cluster.traffic_demand_us", "us"),
    ("server.machine_apply_us", "us"),
    ("server.machine_apply_calls", "count"),
    ("cluster.balancer_assign_us", "us"),
    ("ctrl.rpc.ping_ms", "ms"),
    ("ctrl.registry.heartbeat_us", "us"),
    ("ctrl.registry.sweep_us", "us"),
    ("ctrl.registry.loads_us", "us"),
    ("ctrl.requests_sent.allocate", "count"),
    ("ctrl.requests_sent.heartbeat", "count"),
    ("ctrl.requests_failed.allocate", "count"),
    ("ctrl.requests_failed.heartbeat", "count"),
    ("loadgen.lag_ms_p99", "ms"),
    ("trace.overhead_ms", "ms"),
)

UNITS: Dict[str, str] = dict(END_TO_END + PER_LAYER)

#: Candidate percentiles, lowest first; the tail reported is the highest
#: one that leaves at least ``MIN_BEYOND`` samples above it.
PERCENTILES: Tuple[float, ...] = (50.0, 75.0, 90.0, 95.0, 97.5, 99.0)
MIN_BEYOND = 10


# --------------------------------------------------------------------- #
# percentiles
# --------------------------------------------------------------------- #
def tail_percentile(n: int) -> float:
    """Highest percentile in :data:`PERCENTILES` with >= 10 samples beyond it.

    ``n`` samples leave ``n * (1 - q/100)`` above percentile ``q``.
    Raises ``ValueError`` when even the median is unsupported.
    """
    best = None
    for q in PERCENTILES:
        # Round away float fuzz: 1000 samples leave exactly 10 beyond p99.
        if round(n * (100.0 - q) / 100.0, 9) >= MIN_BEYOND:
            best = q
    if best is None:
        raise ValueError(f"{n} samples support no percentile (need >= {2 * MIN_BEYOND})")
    return best


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def latency_summary(values_ms: Sequence[float], window: Optional[int] = None) -> Dict[str, float]:
    """p50 and tail of ``values_ms``, with the sample count.

    Without ``window`` both come from all samples, the tail at the rule's
    percentile. With it, the samples are cut into consecutive windows of
    ``window`` (a pass, or a stretch of a ladder step), the rule picks the
    percentile for one window, and p50 and tail are each the median over
    windows, so one slow pass or burst of interference moves them less.
    """
    values = np.asarray(values_ms, dtype=np.float64)
    n = len(values)
    if window is None or n < 2 * window:
        windows = [values]
        q = tail_percentile(n)
    else:
        windows = [values[i * window:(i + 1) * window] for i in range(n // window)]
        q = tail_percentile(window)
    return {
        "n": n,
        "p50_ms": float(np.median([percentile(w, 50.0) for w in windows])),
        "tail_q": q,
        "tail_ms": float(np.median([percentile(w, q) for w in windows])),
        "windows": len(windows),
    }


# --------------------------------------------------------------------- #
# tracing
# --------------------------------------------------------------------- #
class Tracer:
    """In-memory spans (name, start, end, parent, request id).

    Spans nest per thread; ``parent`` is the index of the enclosing span
    on the same thread, or -1. Spans are kept in memory and written out
    by :meth:`write` when the run ends.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.request_ids: List[Any] = []
        self.counts: Dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self.request_id: Any = None

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, request_id: Any) -> int:
        stack = self._stack()
        with self._lock:
            index = len(self.names)
            self.names.append(name)
            self.starts.append(time.perf_counter())
            self.ends.append(float("nan"))
            self.parents.append(stack[-1] if stack else -1)
            self.request_ids.append(self.request_id if request_id is None else request_id)
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str, request_id: Any = None):
        index = self._open(name, request_id)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, obj: Any, attr: str, name: str,
             after: Optional[Callable[[tuple, Any], None]] = None) -> None:
        """Replace ``obj.attr`` (a bound method) by a spanned instance attribute.

        ``after(args, result)`` runs outside the span, for checks and
        counters that must not count as the layer's time.
        """
        original = getattr(obj, attr)

        def traced(*args, **kwargs):
            index = self._open(name, None)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                after(args, result)
            return result

        setattr(obj, attr, traced)

    def count(self, name: str, by: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + by

    def durations(self, name: str) -> np.ndarray:
        idx = [i for i, n in enumerate(self.names) if n == name]
        return np.asarray([self.ends[i] - self.starts[i] for i in idx])

    def self_times(self) -> Dict[str, np.ndarray]:
        """Per span name, each span's duration minus its children's."""
        child = np.zeros(len(self.names))
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        out: Dict[str, List[float]] = {}
        for i, name in enumerate(self.names):
            out.setdefault(name, []).append(self.ends[i] - self.starts[i] - child[i])
        return {name: np.asarray(v) for name, v in out.items()}

    def write(self, path: Path, extra: Iterable[Dict[str, Any]] = ()) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "name": name, "start": self.starts[i], "end": self.ends[i],
                    "parent": self.parents[i], "request_id": self.request_ids[i],
                }) + "\n")
            for span in extra:
                fh.write(json.dumps(span) + "\n")


def median_ms(values_s: np.ndarray) -> float:
    return float(np.median(values_s) * 1e3) if len(values_s) else 0.0


def median_us(values_s: np.ndarray) -> float:
    return float(np.median(values_s) * 1e6) if len(values_s) else 0.0


# --------------------------------------------------------------------- #
# provenance and records
# --------------------------------------------------------------------- #
def import_repro() -> Path:
    """Put the checkout's ``src`` first on ``sys.path`` and import repro.

    Raises ``RuntimeError`` when the checkout holds no source tree, so a
    directory with only the benchmark fails instead of measuring some
    other installed copy.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise RuntimeError(f"no repro source tree under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise RuntimeError(f"imported repro from {repro.__file__}, not {src}")
    return src


def _digest(directory: Path) -> str:
    """Content digest of the ``*.py`` files under ``directory``."""
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_sha() -> Optional[str]:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> Tuple[str, Optional[int]]:
    """BLAS build string and the thread count in effect (not changed here)."""
    build = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    threads = None
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for lib_path in libs:
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
        if threads is not None:
            break
    return build, threads


def provenance() -> Dict[str, Any]:
    build, threads = _blas()
    return {
        "git_sha": _git_sha(),
        "source_digest": _digest(ROOT / "src"),
        # Records compare only under the same benchmark code.
        "bench_digest": _digest(ROOT / "perfbench"),
        "cpu_model": _cpu_model(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "blas_build": build,
        "blas_threads": threads,
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "python": platform.python_version(),
    }


def host_key(prov: Dict[str, Any]) -> Tuple:
    """What makes two records comparable: same host, BLAS and threads."""
    return (prov["cpu_model"], prov["affinity_cpus"], prov["numpy"],
            prov["blas_build"], prov["blas_threads"], prov["python"])


def append_record(record: Dict[str, Any], path: Path = RECORDS_PATH) -> None:
    """Append one JSON record; earlier records are never rewritten."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def load_records(path: Path = RECORDS_PATH) -> List[Dict[str, Any]]:
    if not path.exists():
        return []
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                continue  # a torn last line from an interrupted run
    return records


# --------------------------------------------------------------------- #
# processes
# --------------------------------------------------------------------- #
def peak_rss_mb_self() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_pid(pid: int) -> float:
    """VmHWM of a live process, in MB (0 when unreadable)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def cpu_seconds_pid(pid: int) -> float:
    """utime + stime of a live process, in seconds."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def stop_process(proc: subprocess.Popen, timeout_s: float = 10.0) -> None:
    """Terminate ``proc`` and wait until it has ended."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    for stream in (proc.stdout, proc.stderr, proc.stdin):
        if stream is not None:
            stream.close()


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def timed_setup_probe(workload: str, seed: int, repeats: int) -> List[float]:
    """Seconds from spawning a fresh process to its first interval, ``repeats`` times."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), workload, str(seed)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT,
            env=child_env(),
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            if line.strip() != "ready":
                raise RuntimeError(f"setup probe failed: {line!r} {proc.stderr.read()[-2000:]}")
        finally:
            stop_process(proc)
        samples.append(elapsed)
    return samples
