"""Seeded workload inputs for the benchmark suite.

Everything the program under test receives is generated here from the
workload seed, as plain JSON, so equal seeds give equal inputs and the
workload processes only ever see generated task descriptions.

Seed 0 is the paper's calibrated input: the Figure 15 grid (5 standard
profiles x 8 bit levels) plus the Figure 24 grid (3 retention policies
x 3 profiles), and the ``bench_fleet.py`` fleet (fleet seed 2026). Any
other seed re-rolls the power traces while keeping the amount of work
fixed, so that run times compare across seeds:

* the grids re-roll one wristwatch trace per profile, shared by every
  bit level and policy on that profile, just as the standard profiles
  are shared. (``GridSpec.seed`` would draw one trace per task, which
  makes a cold run four times slower: a different workload.)
* the fleet draws fleet seeds from the workload seed until the 30 s RF
  gateway tail has the seed-2026 size. The tail alone moves the
  simulated tick count by about 10 % between fleet seeds.
* the service re-rolls its warm campaigns (``GridSpec.seed``), its cold
  campaigns and each client's request order.

The service traffic follows ``benchmarks/bench_service.py``, the only
recorded service load in the repository: its eight campaigns are the
warm set, and its phases sent one cold request per ten warm ones (8 cold
and 80 warm requests in ``BENCH_service.json``). The cache prefill and
the ``/metrics`` scrape are assumptions, not recorded traffic: the cache
holds the ``fleet-1k`` fleet, as after one fleet campaign, and client 0
scrapes every 2 s so that a 20 s window holds ten scrapes.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.engine import derive_task_seed
from repro.analysis.experiments import RETENTION_TIME_SCALE
from repro.fleet import DEFAULT_ARCHETYPES, FleetArchetype, FleetSpec
from repro.nvm.retention import STANDARD_POLICY_NAMES

WORKLOADS = ("grid-cold", "grid-warm", "fleet-1k", "service-mixed")

FIG15_PROFILES = (1, 2, 3, 4, 5)
FIG15_BITS = (8, 7, 6, 5, 4, 3, 2, 1)
FIG24_PROFILES = (1, 2, 3)

#: The fleet ``bench_fleet.py`` times; seed 0 of ``fleet-1k``.
BENCH_FLEET_SEED = 2026
_FLEET_SEED_TRIES = 2000

#: One request in this many is a fresh (cold) campaign: one cold per
#: ten warm, as in ``bench_service.py``'s cold and warm phases.
COLD_EVERY = 11
#: ``bench_service.py`` campaigns: one per client, eight clients.
SERVICE_CAMPAIGNS = 8


def _profile_seed(seed: int, profile_id: int) -> Optional[int]:
    return None if seed == 0 else derive_task_seed(seed, "profile", profile_id)


def grid_inputs(seed: int, quick: bool = False) -> Dict[str, object]:
    """Figure 15 + Figure 24 task lists (re-rolled per profile)."""
    profiles = FIG15_PROFILES[:2] if quick else FIG15_PROFILES
    bits = FIG15_BITS[:2] if quick else FIG15_BITS
    exec_profiles = FIG24_PROFILES[:1] if quick else FIG24_PROFILES
    duration_s = 1.0 if quick else 10.0
    fixed = [
        {
            "profile_id": pid,
            "bits": b,
            "duration_s": duration_s,
            "kernel": "median",
            "seed": _profile_seed(seed, pid),
        }
        for pid in profiles
        for b in bits
    ]
    executive = [
        {
            "kernel": "median",
            "policy": policy,
            "profile_id": pid,
            "minbits": 4,
            "duration_s": duration_s,
            "retention_time_scale": RETENTION_TIME_SCALE,
            "trace_seed": _profile_seed(seed, pid),
        }
        for policy in STANDARD_POLICY_NAMES
        for pid in exec_profiles
    ]
    return {"fixed": fixed, "executive": executive}


def _fleet_archetypes(quick: bool) -> Tuple[FleetArchetype, ...]:
    gateway = FleetArchetype(
        name="rf-gateway",
        mode="rf",
        weight=0.02,
        capacitor_uj=9.0,
        capacitor_spread=0.1,
        scale_sigma=0.1,
        duration_s=8.0 if quick else 30.0,
    )
    return DEFAULT_ARCHETYPES + (gateway,)


def fleet_spec_dict(spec: FleetSpec) -> Dict[str, object]:
    """JSON form of a fleet spec (``fleet_spec_from_dict`` inverts it)."""
    out = dataclasses.asdict(spec)
    out["archetypes"] = [dataclasses.asdict(a) for a in spec.archetypes]
    return out


def fleet_spec_from_dict(data: Dict[str, object]) -> FleetSpec:
    fields = dict(data)
    fields["archetypes"] = tuple(
        FleetArchetype(**a) for a in fields["archetypes"]  # type: ignore[union-attr]
    )
    return FleetSpec(**fields)  # type: ignore[arg-type]


def _gateways(spec: FleetSpec) -> int:
    return sum(1 for task in spec.tasks() if task.archetype == "rf-gateway")


def fleet_inputs(seed: int, quick: bool = False) -> Dict[str, object]:
    """The bench_fleet fleet; other seeds keep its gateway-tail size."""
    base = FleetSpec(
        n_devices=120 if quick else 1000,
        seed=BENCH_FLEET_SEED,
        duration_s=0.5 if quick else 1.0,
        archetypes=_fleet_archetypes(quick),
    )
    spec = base
    if seed != 0:
        target = _gateways(base)
        for k in range(_FLEET_SEED_TRIES):
            spec = dataclasses.replace(
                base, seed=derive_task_seed(seed, "fleet", k)
            )
            if _gateways(spec) == target:
                break
        else:
            raise RuntimeError(
                f"no fleet seed with {target} gateways in "
                f"{_FLEET_SEED_TRIES} draws for seed {seed}"
            )
    return {"spec": fleet_spec_dict(spec)}


def service_campaign(i: int, grid_seed: Optional[int], quick: bool) -> Dict[str, object]:
    """The ``i``-th ``bench_service.py`` campaign: two bit levels on one profile.

    ``grid_seed`` re-rolls the traces (``GridSpec.seed``); ``None`` keeps
    the standard profiles.
    """
    base_bits = (3, 4, 5, 6, 7, 8)
    grid: Dict[str, object] = {
        "kernels": ["median"],
        "bits": sorted({base_bits[i % 6], base_bits[(i + 2) % 6]}),
        "profile_ids": [1 + i % 2],
        "duration_s": 0.3 if quick else 0.5,
    }
    if grid_seed is not None:
        grid["seed"] = grid_seed
    return {"kind": "grid", "grid": grid}


def cold_campaign(inputs: Dict[str, object], k: int) -> Dict[str, object]:
    """The ``k``-th fresh campaign: a campaign shape on traces no one ran."""
    seed = int(inputs["seed"])  # type: ignore[arg-type]
    return service_campaign(k, derive_task_seed(seed, "cold", k), bool(inputs["quick"]))


def service_inputs(seed: int, quick: bool = False) -> Dict[str, object]:
    """The warm campaigns and the fleet that fills the cache beforehand.

    All warm campaigns share one ``GridSpec.seed``, so they overlap on
    tasks as ``bench_service.py``'s do.
    """
    grid_seed = None if seed == 0 else derive_task_seed(seed, "warm")
    n_warm = 3 if quick else SERVICE_CAMPAIGNS
    warm = [service_campaign(i, grid_seed, quick) for i in range(n_warm)]
    return {"seed": seed, "quick": quick, "warm": warm,
            "prefill": fleet_inputs(seed, quick)["spec"]}


def request_stream(
    inputs: Dict[str, object], client: int, n_clients: int
) -> Iterator[Tuple[Dict[str, object], Optional[int]]]:
    """One client's closed-loop request sequence.

    Yields ``(payload, warm_index)``; ``warm_index`` is ``None`` for a
    fresh campaign. Every :data:`COLD_EVERY`-th request is fresh (cold
    campaign numbers never repeat across clients); the others pick a
    warm campaign with the client's own seeded generator.
    """
    seed = int(inputs["seed"])  # type: ignore[arg-type]
    warm: List[Dict[str, object]] = inputs["warm"]  # type: ignore[assignment]
    rng = random.Random(derive_task_seed(seed, "client", client))
    n_cold = 0
    for j in itertools.count():
        if j % COLD_EVERY == COLD_EVERY - 1:
            yield cold_campaign(inputs, client + n_clients * n_cold), None
            n_cold += 1
        else:
            index = rng.randrange(len(warm))
            yield warm[index], index


def generate(workload: str, seed: int, quick: bool = False) -> Dict[str, object]:
    """The JSON inputs of one workload."""
    if workload in ("grid-cold", "grid-warm"):
        return grid_inputs(seed, quick)
    if workload == "fleet-1k":
        return fleet_inputs(seed, quick)
    if workload == "service-mixed":
        return service_inputs(seed, quick)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
