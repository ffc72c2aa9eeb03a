"""Golden trajectories of the Twig control loop, and their recorder.

Every ``Twig`` configuration that the experiments, benchmarks and
examples build is run here for a few hundred intervals from fixed
seeds. A run is recorded as one short digest per interval of the
assignments Twig returned, plus hashes of the final agent state
(online/target parameters, Adam moments, RNG state, step and train
counters) and, for the traced configuration, of the JSONL bytes its
event stream would write. ``tests/test_twig_golden.py`` replays every
configuration and demands exact equality with the fixture.

The fixture pins bit-identity on hosts whose BLAS rounds like the one
that recorded it: ``probe`` hashes a network forward/backward at the
shapes the runs use, and the test skips (naming the mismatch) where the
probe differs.

Re-record (only when a behaviour change is intended, and say so)::

    PYTHONPATH=src python -m tests.twig_golden --write
"""

from __future__ import annotations

import argparse
import hashlib
import json
from pathlib import Path
from typing import Any, Callable, Dict, List

import numpy as np

from repro.core import Twig, TwigConfig
from repro.core.reward import RewardParams
from repro.experiments.common import HarnessConfig, build_twig
from repro.obs.sink import MemorySink
from repro.obs.timing import TimingRegistry
from repro.rl.bdq import BDQNetwork
from repro.server.spec import ServerSpec
from repro.services.loadgen import ConstantLoad
from repro.services.profiles import get_profile
from repro.sim.environment import ColocationEnvironment, EnvironmentConfig
from repro.sim.faults import Fault, FaultInjector

FIXTURE = Path(__file__).parent / "data" / "twig_golden.json"
STEPS = 240


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def assignment_digest(assignments) -> str:
    h = hashlib.sha256()
    for name in sorted(assignments):
        a = assignments[name]
        h.update(repr((name, tuple(a.cores), a.freq_index, a.llc_ways)).encode())
    return h.hexdigest()[:8]


def _env(names, seed, fraction=0.45, faults=None, trace=None):
    spec = ServerSpec()
    generators = {
        n: ConstantLoad(
            get_profile(n).max_load_rps, fraction, rng=np.random.default_rng(seed + 101 + i)
        )
        for i, n in enumerate(names)
    }
    return ColocationEnvironment(
        EnvironmentConfig(spec=spec),
        [get_profile(n) for n in names],
        generators,
        np.random.default_rng(seed),
        faults=faults,
        trace=trace,
    )


def _fast(**overrides) -> TwigConfig:
    return TwigConfig.fast(epsilon_mid_steps=60, epsilon_final_steps=150).scaled(
        target_update_every=50, **overrides
    )


def agent_hashes(agent, rng: np.random.Generator) -> Dict[str, Any]:
    """Hashes of everything a bit-identical continuation depends on."""
    optim = agent._optimizer_state()
    moments = b"".join(
        optim[part][key].tobytes()
        for part in ("first_moment", "second_moment")
        for key in sorted(optim[part])
    )
    return {
        "online": _sha(b"".join(p.value.tobytes() for p in agent.online.parameters())),
        "target": _sha(b"".join(p.value.tobytes() for p in agent.target.parameters())),
        "adam": _sha(moments),
        "adam_steps": int(optim["step_count"]),
        "rng": _sha(json.dumps(rng.bit_generator.state, sort_keys=True).encode()),
        "step_count": int(agent.step_count),
        "train_count": int(agent.train_count),
    }


def _drive(twig, env, rng, steps=STEPS, before_step: Callable = None) -> Dict[str, Any]:
    assignments = twig.initial_assignments()
    digests = [assignment_digest(assignments)]
    for t in range(steps):
        if before_step is not None:
            assignments = before_step(t) or assignments
        assignments = twig.update(env.step(assignments))
        digests.append(assignment_digest(assignments))
    return {"assignments": " ".join(digests), "final": agent_hashes(twig.agent, rng)}


def _plain(names, config, seed=5, load_seed=3, **twig_kwargs):
    rng = np.random.default_rng(seed)
    twig = Twig([get_profile(n) for n in names], config, rng, spec=ServerSpec(), **twig_kwargs)
    return _drive(twig, _env(names, load_seed), rng)


def run_twig_s() -> Dict[str, Any]:
    return _plain(("masstree",), _fast())


def run_twig_c() -> Dict[str, Any]:
    # The perfbench/fig13 construction: build_twig at the quick schedule.
    names = ("masstree", "moses")
    twig = build_twig([get_profile(n) for n in names], HarnessConfig.quick(), seed_offset=1)
    return _drive(twig, _env(names, 11, fraction=0.3), twig._rng)


def run_twig_c3() -> Dict[str, Any]:
    return _plain(("masstree", "moses", "xapian"), _fast(), seed=9, load_seed=4)


def run_faults() -> Dict[str, Any]:
    names = ("masstree", "moses")
    faults = FaultInjector([
        Fault("pmc_dropout", "masstree", start=40, duration=3),
        Fault("service_crash", "moses", start=90, duration=2),
        Fault("pmc_nan", "moses", start=150, magnitude=2),
    ])
    rng = np.random.default_rng(21)
    twig = Twig([get_profile(n) for n in names], _fast(), rng, spec=ServerSpec())
    return _drive(twig, _env(names, 6, faults=faults), rng)


def run_transfer() -> Dict[str, Any]:
    # The fig08/fig09 flow: swap a service mid-run, transfer-learn, and
    # rewind the exploration schedule.
    names = ("masstree", "moses")
    rng = np.random.default_rng(31)
    twig = Twig([get_profile(n) for n in names], _fast(), rng, spec=ServerSpec())
    env = _env(names, 8)
    xapian = get_profile("xapian")

    def before_step(t):
        if t == 120:
            env.swap_service(
                "moses", xapian,
                ConstantLoad(xapian.max_load_rps, 0.4, rng=np.random.default_rng(77)),
            )
            twig.transfer_to("moses", xapian)
            twig.agent.step_count = 60
            # As run_manager does when a run resumes after the swap.
            return twig.initial_assignments()
        return None

    return _drive(twig, env, rng, before_step=before_step)


def run_llc() -> Dict[str, Any]:
    return _plain(("moses", "xapian"), _fast(manage_llc=True), seed=42, load_seed=12)


def run_uniform_replay() -> Dict[str, Any]:
    return _plain(("masstree",), _fast(use_prioritized_replay=False), seed=13, load_seed=7)


def run_ablation_knobs() -> Dict[str, Any]:
    return _plain(("masstree",), _fast(eta=1, reward=RewardParams(theta=1.0)), seed=17)


def run_qos_exploit() -> Dict[str, Any]:
    # The node-agent construction (qos_targets override), switched to
    # pure exploitation part-way through.
    names = ("masstree", "img-dnn")
    rng = np.random.default_rng(23)
    twig = Twig(
        [get_profile(n) for n in names], _fast(), rng,
        qos_targets={"masstree": 4.0},
    )

    def before_step(t):
        if t == 180:
            twig.exploit()
        return None

    return _drive(twig, _env(names, 9), rng, before_step=before_step)


def run_traced() -> Dict[str, Any]:
    names = ("masstree", "moses")
    sink = MemorySink()
    faults = FaultInjector([Fault("pmc_dropout", "moses", start=70, duration=2)])
    rng = np.random.default_rng(29)
    twig = Twig([get_profile(n) for n in names], _fast(), rng, spec=ServerSpec())
    twig.attach_obs(sink, TimingRegistry())
    out = _drive(twig, _env(names, 10, faults=faults, trace=sink), rng, steps=160)
    stream = b"".join(
        json.dumps(event, separators=(",", ":")).encode() + b"\n" for event in sink.events
    )
    out["events"] = len(sink.events)
    out["event_bytes"] = _sha(stream)
    return out


CONFIGS: Dict[str, Callable[[], Dict[str, Any]]] = {
    "twig_s": run_twig_s,
    "twig_c": run_twig_c,
    "twig_c3": run_twig_c3,
    "faults": run_faults,
    "transfer": run_transfer,
    "llc": run_llc,
    "uniform_replay": run_uniform_replay,
    "ablation_knobs": run_ablation_knobs,
    "qos_exploit": run_qos_exploit,
    "traced": run_traced,
}


def probe() -> str:
    """Hash of one train-shaped forward/backward: the BLAS rounding check."""
    rng = np.random.default_rng(0)
    net = BDQNetwork(22, [[18, 9], [18, 9]], rng, shared_hidden=(128, 64),
                     branch_hidden=32, dropout=0.1)
    states = rng.random((64, 22))
    predictions, online_next = net.forward_train(states, rng.random((64, 22)))
    net.backward_stacked(np.ones_like(predictions), accumulate=False)
    grads = b"".join(p.grad.tobytes() for p in net.parameters())
    greedy = np.asarray(net.greedy_actions_batch(states[:1])).tobytes()
    return _sha(predictions.tobytes() + online_next.tobytes() + grads + greedy)


def record() -> Dict[str, Any]:
    return {"probe": probe(), "steps": STEPS,
            "configs": {name: run() for name, run in CONFIGS.items()}}


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help=f"overwrite {FIXTURE.name} (default: print the record)")
    args = parser.parse_args(argv)
    doc = record()
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    if args.write:
        FIXTURE.write_text(text)
        print(f"wrote {FIXTURE} ({len(text)} bytes)")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
