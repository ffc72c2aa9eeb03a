"""Unit tests for the experiment runner and trace summaries."""

import numpy as np
import pytest

from repro.baselines import StaticManager
from repro.errors import ConfigurationError
from repro.experiments.runner import run_experiments, run_manager
from repro.obs.manifest import RunManifest
from repro.server.spec import ServerSpec
from repro.services.loadgen import ConstantLoad
from repro.services.profiles import get_profile
from repro.sim.environment import ColocationEnvironment, EnvironmentConfig


def _env(seed=3, fraction=0.4):
    spec = ServerSpec()
    profile = get_profile("masstree")
    return ColocationEnvironment(
        EnvironmentConfig(spec=spec),
        [profile],
        {"masstree": ConstantLoad(profile.max_load_rps, fraction, rng=np.random.default_rng(seed))},
        np.random.default_rng(seed),
    )


def test_trace_lengths_match_steps():
    trace = run_manager(StaticManager(["masstree"]), _env(), 25)
    assert trace.steps() == 25
    assert len(trace.services["masstree"].p99_ms) == 25
    assert len(trace.true_power_w) == 25


def test_window_summaries():
    trace = run_manager(StaticManager(["masstree"]), _env(), 50)
    full = trace.qos_guarantee("masstree")
    windowed = trace.qos_guarantee("masstree", 10)
    assert 0.0 <= windowed <= 100.0
    assert 0.0 <= full <= 100.0
    assert trace.energy_j(10) < trace.energy_j()
    assert trace.mean_power_w(10) > 0


def test_core_histogram_sums_to_one():
    trace = run_manager(StaticManager(["masstree"]), _env(), 20)
    hist = trace.core_histogram("masstree", 18)
    assert hist.sum() == pytest.approx(1.0)
    assert hist[18] == pytest.approx(1.0)  # static always uses all 18


def test_tardiness_shape():
    trace = run_manager(StaticManager(["masstree"]), _env(), 20)
    ratios = trace.tardiness("masstree", 10)
    assert ratios.shape == (10,)
    assert np.all(ratios > 0)


def test_on_step_callback_runs_and_can_replace_assignments():
    calls = []

    def on_step(t, result):
        calls.append(t)
        return None

    run_manager(StaticManager(["masstree"]), _env(), 5, on_step=on_step)
    assert calls == [0, 1, 2, 3, 4]


def test_steps_must_be_positive():
    with pytest.raises(ConfigurationError):
        run_manager(StaticManager(["masstree"]), _env(), 0)


def test_migrations_recorded():
    trace = run_manager(StaticManager(["masstree"]), _env(), 5)
    assert trace.migrations["masstree"] == 18


# ---------------------------------------------------------------------- #
# parallel experiment batches
# ---------------------------------------------------------------------- #
@pytest.fixture
def many_cpus(monkeypatch):
    """Pretend the box has cores to spare.

    ``run_experiments`` clamps its worker count to the CPUs the process
    may actually run on, so on a single-core CI box ``jobs=2`` would
    silently take the serial path and these tests would stop exercising
    the process pool.
    """
    monkeypatch.setattr("repro.experiments.runner._available_cpus", lambda: 8)


def test_parallel_batch_matches_serial(tmp_path, many_cpus):
    ids = ["mem", "tab02"]
    serial = run_experiments(ids, out_dir=tmp_path / "serial")
    parallel = run_experiments(ids, out_dir=tmp_path / "par", jobs=2)
    # Deterministic result ordering: input order, not completion order.
    assert [r.experiment_id for r in parallel] == ids
    for s, p in zip(serial, parallel):
        assert s.ok and p.ok
        assert s.manifest.comparable_dict() == p.manifest.comparable_dict()
    # The on-disk manifests (written from the workers) agree too.
    for experiment_id in ids:
        a = RunManifest.read(tmp_path / "serial" / experiment_id / "manifest.json")
        b = RunManifest.read(tmp_path / "par" / experiment_id / "manifest.json")
        assert a.comparable_dict() == b.comparable_dict()


def test_parallel_failures_recorded_not_swallowed(tmp_path, monkeypatch, many_cpus):
    import repro.experiments.registry as registry

    def exploding(experiment_id, config=None):
        raise RuntimeError("kaboom")

    monkeypatch.setattr(registry, "run_experiment", exploding)
    runs = run_experiments(["mem", "tab02"], out_dir=tmp_path, jobs=2)
    assert [r.ok for r in runs] == [False, False]
    for run in runs:
        assert "kaboom" in run.manifest.error
        assert (tmp_path / run.experiment_id / "manifest.json").exists()


def test_parallel_strict_reraises_and_writes_manifest(tmp_path, monkeypatch, many_cpus):
    import repro.experiments.registry as registry

    def exploding(experiment_id, config=None):
        raise RuntimeError("kaboom")

    monkeypatch.setattr(registry, "run_experiment", exploding)
    with pytest.raises(RuntimeError, match="kaboom"):
        run_experiments(["mem", "tab02"], out_dir=tmp_path, strict=True, jobs=2)
    # The failing experiment's manifest lands before the re-raise.
    manifest = RunManifest.read(tmp_path / "mem" / "manifest.json")
    assert manifest.status == "failed"


def test_jobs_must_be_positive():
    with pytest.raises(ConfigurationError):
        run_experiments(["mem"], jobs=0)


def test_jobs_clamped_to_cpu_count(tmp_path, monkeypatch):
    """jobs > usable CPUs degrades to the serial path, not an oversized pool."""
    monkeypatch.setattr("repro.experiments.runner._available_cpus", lambda: 1)

    def no_pool(*args, **kwargs):
        raise AssertionError("ProcessPoolExecutor used despite 1 cpu")

    monkeypatch.setattr("repro.experiments.runner.ProcessPoolExecutor", no_pool)
    runs = run_experiments(["mem", "tab02"], out_dir=tmp_path, jobs=4)
    assert [r.ok for r in runs] == [True, True]


def test_parallel_traces_are_per_worker_files(tmp_path, many_cpus):
    ids = ["mem", "tab02"]
    runs = run_experiments(ids, out_dir=tmp_path, trace=True, jobs=2)
    for run in runs:
        assert run.ok
        trace_path = tmp_path / run.experiment_id / "trace.jsonl"
        assert str(trace_path) == run.manifest.trace_path
        assert trace_path.exists()


# ---------------------------------------------------------------------- #
# crash safety: retries, resume salvage, worker-crash recovery
# ---------------------------------------------------------------------- #
def test_retries_recover_flaky_experiment(tmp_path, monkeypatch):
    import repro.experiments.registry as registry

    calls = []

    def flaky(experiment_id, config=None):
        calls.append(experiment_id)
        if len(calls) == 1:
            raise RuntimeError("transient")
        return "fine"

    monkeypatch.setattr(registry, "run_experiment", flaky)
    runs = run_experiments(["mem"], out_dir=tmp_path, retries=2, retry_backoff_s=0.0)
    assert runs[0].ok
    assert runs[0].result == "fine"
    assert calls == ["mem", "mem"]  # failed once, retried once, stopped
    manifest = RunManifest.read(tmp_path / "mem" / "manifest.json")
    assert manifest.status == "ok"  # final attempt wins on disk


def test_retries_exhausted_records_last_failure(tmp_path, monkeypatch):
    import repro.experiments.registry as registry

    calls = []

    def exploding(experiment_id, config=None):
        calls.append(experiment_id)
        raise RuntimeError("kaboom")

    monkeypatch.setattr(registry, "run_experiment", exploding)
    runs = run_experiments(["mem"], out_dir=tmp_path, retries=2, retry_backoff_s=0.0)
    assert not runs[0].ok
    assert "kaboom" in runs[0].manifest.error
    assert calls == ["mem"] * 3  # initial attempt + 2 retries


def test_strict_and_retries_are_mutually_exclusive():
    with pytest.raises(ConfigurationError, match="pick one"):
        run_experiments(["mem"], strict=True, retries=1)


def test_retry_knobs_validated():
    with pytest.raises(ConfigurationError, match="retries"):
        run_experiments(["mem"], retries=-1)
    with pytest.raises(ConfigurationError, match="retry_backoff_s"):
        run_experiments(["mem"], retry_backoff_s=-0.5)


def test_resume_skips_only_ok_manifests(tmp_path, monkeypatch):
    import repro.experiments.registry as registry

    # First batch completes "mem" for real, then "crashes" before tab02.
    first = run_experiments(["mem"], out_dir=tmp_path)
    assert first[0].ok
    # A torn manifest (the crash interrupted the write) must be re-run.
    torn_dir = tmp_path / "tab02"
    torn_dir.mkdir()
    (torn_dir / "manifest.json").write_text('{"experiment_id": "tab')

    calls = []

    def counting(experiment_id, config=None):
        calls.append(experiment_id)
        return "fine"

    monkeypatch.setattr(registry, "run_experiment", counting)
    runs = run_experiments(["mem", "tab02"], out_dir=tmp_path, resume=tmp_path)
    assert [r.experiment_id for r in runs] == ["mem", "tab02"]
    assert [r.ok for r in runs] == [True, True]
    # "mem" was salvaged from its manifest, not re-run; its in-memory
    # Result object died with the original batch.
    assert calls == ["tab02"]
    assert runs[0].result is None
    assert runs[1].result == "fine"


def test_resume_reruns_failed_manifests(tmp_path, monkeypatch):
    import repro.experiments.registry as registry

    def exploding(experiment_id, config=None):
        raise RuntimeError("kaboom")

    monkeypatch.setattr(registry, "run_experiment", exploding)
    first = run_experiments(["mem"], out_dir=tmp_path)
    assert not first[0].ok

    def fixed(experiment_id, config=None):
        return "fine"

    monkeypatch.setattr(registry, "run_experiment", fixed)
    runs = run_experiments(["mem"], out_dir=tmp_path, resume=tmp_path)
    assert runs[0].ok
    assert runs[0].result == "fine"


def test_worker_crash_recovers_with_retries(tmp_path, monkeypatch, many_cpus):
    """A worker dying hard (os._exit) breaks the pool; with retries the
    batch salvages finished work, rebuilds the pool, and completes."""
    import repro.experiments.registry as registry

    sentinel = tmp_path / "crashed-once"

    def crash_once(experiment_id, config=None):
        if experiment_id == "tab02" and not sentinel.exists():
            sentinel.touch()
            import os as _os

            _os._exit(13)  # no exception, no manifest: the process is gone
        return "fine"

    monkeypatch.setattr(registry, "run_experiment", crash_once)
    out = tmp_path / "runs"
    runs = run_experiments(
        ["mem", "tab02"], out_dir=out, jobs=2, retries=1, retry_backoff_s=0.0
    )
    assert [r.experiment_id for r in runs] == ["mem", "tab02"]
    assert [r.ok for r in runs] == [True, True]
    assert sentinel.exists()
    for run in runs:
        manifest = RunManifest.read(out / run.experiment_id / "manifest.json")
        assert manifest.status == "ok"


def test_worker_crash_without_retries_synthesizes_manifests(
    tmp_path, monkeypatch, many_cpus
):
    import repro.experiments.registry as registry

    def always_crash(experiment_id, config=None):
        import os as _os

        _os._exit(13)

    monkeypatch.setattr(registry, "run_experiment", always_crash)
    runs = run_experiments(
        ["mem", "tab02"], out_dir=tmp_path, jobs=2, retries=0, retry_backoff_s=0.0
    )
    assert [r.ok for r in runs] == [False, False]
    for run in runs:
        assert "worker process crashed" in run.manifest.error
        manifest = RunManifest.read(tmp_path / run.experiment_id / "manifest.json")
        assert manifest.status == "failed"
        assert "BrokenProcessPool" in manifest.error


def test_strict_failure_not_masked_by_pool_crash(tmp_path, monkeypatch, many_cpus):
    """A strict-mode failure that finished before a worker crash broke the
    pool must re-raise promptly — not be masked as a crashed manifest or
    delayed by the pool-rebuild backoff."""
    import time as _time

    import repro.experiments.registry as registry

    def crash_or_fail(experiment_id, config=None):
        if experiment_id == "mem":
            import os as _os
            import time as _wtime

            # Busy-wait so the other worker's ValueError lands first,
            # then die hard to break the pool.
            deadline = _wtime.monotonic() + 1.0
            while _wtime.monotonic() < deadline:
                pass
            _os._exit(13)
        raise ValueError("strict failure in done future")

    monkeypatch.setattr(registry, "run_experiment", crash_or_fail)
    start = _time.monotonic()
    with pytest.raises(ValueError, match="strict failure"):
        run_experiments(
            ["mem", "tab02"], out_dir=tmp_path, jobs=2, strict=True,
            retry_backoff_s=60.0,
        )
    # Prompt abort: nowhere near the 60s backoff.
    assert _time.monotonic() - start < 30.0
    manifest = RunManifest.read(tmp_path / "tab02" / "manifest.json")
    assert manifest.status == "failed"


def test_checkpoint_every_requires_out_dir():
    with pytest.raises(ConfigurationError, match="checkpoint_every"):
        run_experiments(["mem"], checkpoint_every=10)


def test_run_manager_uses_ambient_checkpoint_context(tmp_path):
    from repro.experiments.runner import RUN_CKPT_NAME
    from repro.obs.context import ObsContext, activate

    from repro.core.twig import Twig, TwigConfig

    env = _env()
    twig = Twig(
        [get_profile("masstree")], TwigConfig.fast(), np.random.default_rng(7),
        spec=ServerSpec(),
    )
    obs = ObsContext(checkpoint_every=5, checkpoint_dir=tmp_path)
    with activate(obs):
        run_manager(twig, env, 12)
    assert (tmp_path / RUN_CKPT_NAME).exists()


def test_ambient_checkpointing_skips_incapable_managers(tmp_path):
    """`repro run --checkpoint-every` reaches every run inside an
    experiment, including baseline comparison runs; a manager without
    state_dict must run uncheckpointed, not fail the experiment."""
    from repro.experiments.runner import RUN_CKPT_NAME
    from repro.obs.context import ObsContext, activate

    obs = ObsContext(checkpoint_every=5, checkpoint_dir=tmp_path)
    with activate(obs):
        trace = run_manager(StaticManager(["masstree"]), _env(), 12)
    assert trace.steps() == 12
    assert not (tmp_path / RUN_CKPT_NAME).exists()


def test_to_csv_roundtrip(tmp_path):
    import csv

    trace = run_manager(StaticManager(["masstree"]), _env(), 10)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    with path.open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0][0] == "step"
    assert "masstree.p99_ms" in rows[0]
    assert len(rows) == 11  # header + 10 steps
    assert float(rows[1][1]) > 0  # p99 positive
