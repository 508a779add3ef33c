"""Open-loop session scheduling onto fleet clients.

The closed-loop fleet asks "how fast does N clients' work finish?";
the open-loop driver asks the production question: "sessions arrive
whether or not the system keeps up — where is the knee?".

:func:`plan_sessions` turns an :class:`ArrivalSpec` into a concrete
per-client session plan (arrival offset, workload name, resolved
params) using only the client's *name* and the fleet seed — so a
client's plan never depends on the rest of the fleet or on scheduling
order.
The :class:`OpenLoopWorkload` then releases sessions at their planned
times regardless of how the previous ones are doing (the open-loop
property), reporting offered vs completed bytes into the
``traffic/*`` timelines the SLO engine's load-curve and knee machinery
consume.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ..bench.latency import LatencyTrace
from ..bench.workloads import (
    Workload,
    WorkloadOutcome,
    _obs,
    get_workload,
    register_workload,
    workload_type,
)
from ..errors import ConfigError
from ..sim import AllOf, RngStreams
from ..units import to_us
from ..value import Value
from .arrivals import arrival_times, draw_size
from .spec import ArrivalSpec

__all__ = ["Session", "plan_sessions", "OpenLoopWorkload"]


class Session(Value):
    """One planned open-loop session on one client."""

    index: int
    time_ns: int
    workload: str
    params: Tuple[Tuple[str, Any], ...]


def _session_params(
    index: int, workload: str, entry_params: Dict[str, Any],
    spec: ArrivalSpec, seed: int, size_rng,
) -> Dict[str, Any]:
    """Resolve one session's workload params from the mix entry.

    Open parameters are filled deterministically: ``file_bytes`` from
    the size distribution, per-session file names so concurrent
    sessions never collide, and per-session seeds so repeated sessions
    of a stochastic workload do not replay each other's draws.
    """
    cls = workload_type(workload)
    params = dict(entry_params)
    if "file_bytes" in cls.PARAMS and "file_bytes" not in params:
        params["file_bytes"] = draw_size(spec.sizes, size_rng)
    if "file_name" in cls.PARAMS and "file_name" not in params:
        params["file_name"] = f"session{index}"
    if "file_prefix" in cls.PARAMS and "file_prefix" not in params:
        params["file_prefix"] = f"session{index}/msg"
    if "seed" in cls.PARAMS and "seed" not in params:
        params["seed"] = (seed << 12) ^ index
    return params


def plan_sessions(
    spec: ArrivalSpec, client_name: str, seed: int
) -> Tuple[Session, ...]:
    """The full deterministic session plan for one client.

    Three named streams — ``traffic/<client>/arrivals``, ``.../mix``,
    ``.../sizes`` — keyed by the fleet seed and the client's name.
    Pure: no simulator, no wall clock, no global state.
    """
    streams = RngStreams(seed)
    arrival_rng = streams.stream(f"traffic/{client_name}/arrivals")
    mix_rng = streams.stream(f"traffic/{client_name}/mix")
    size_rng = streams.stream(f"traffic/{client_name}/sizes")

    total_weight = sum(entry.weight for entry in spec.mix)
    sessions: List[Session] = []
    for index, t_ns in enumerate(arrival_times(spec, arrival_rng)):
        pick = mix_rng.random() * total_weight
        entry = spec.mix[-1]
        for candidate in spec.mix:
            pick -= candidate.weight
            if pick < 0:
                entry = candidate
                break
        params = _session_params(
            index, entry.workload, dict(entry.params), spec, seed, size_rng
        )
        sessions.append(
            Session(
                index=index,
                time_ns=t_ns,
                workload=entry.workload,
                params=tuple(sorted(params.items())),
            )
        )
    return tuple(sessions)


@register_workload
class OpenLoopWorkload(Workload):
    """Release planned sessions at their arrival times, open-loop.

    Each session spawns as its own task the moment it arrives — a slow
    system accumulates concurrent sessions instead of slowing the
    arrival process down.  Offered bytes are recorded at arrival,
    completed bytes at session end; the gap between the two timelines
    *is* the overload signature the SLO knee locator reads.
    """

    name = "open-loop"
    PARAMS = {
        "arrivals": Workload.REQUIRED,
        "seed": 1,
    }

    def __init__(self, **params: Any):
        super().__init__(**params)
        arrivals = self.params["arrivals"]
        if isinstance(arrivals, dict):
            self.params["arrivals"] = ArrivalSpec.from_dict(arrivals)
        elif not isinstance(arrivals, ArrivalSpec):
            raise ConfigError(
                "open-loop arrivals must be an ArrivalSpec or its dict form"
            )

    def offered_bytes(self) -> int:
        return 0  # reported per-session at arrival time instead

    def body(self, stack):
        sim = stack.sim
        obs = _obs(stack)
        spec: ArrivalSpec = self.params["arrivals"]
        name = getattr(stack, "name", "client")
        plan = plan_sessions(spec, name, self.params["seed"])

        start = sim.now
        sojourn = LatencyTrace()
        totals = {"offered": 0, "completed_bytes": 0, "completed": 0}
        by_workload: Dict[str, int] = {}

        def session_body(session: Session, workload: Workload):
            arrived = sim.now
            _s, _e, result = yield from workload.body(stack)
            written = _result_bytes(result)
            sojourn.record(arrived, sim.now)
            totals["completed"] += 1
            totals["completed_bytes"] += written
            obs.series_count("traffic/completed_sessions", 1)
            obs.series_count("traffic/completed_bytes", written)
            obs.series_observe(
                "traffic/session_sojourn_us", to_us(sim.now - arrived)
            )

        tasks = []
        for session in plan:
            due = start + session.time_ns
            if due > sim.now:
                yield sim.timeout(due - sim.now)
            workload = get_workload(session.workload, dict(session.params))
            offered = workload.offered_bytes()
            totals["offered"] += offered
            by_workload[session.workload] = (
                by_workload.get(session.workload, 0) + 1
            )
            obs.series_count("traffic/sessions", 1)
            obs.series_count("traffic/offered_bytes", offered)
            tasks.append(
                sim.spawn(
                    session_body(session, workload),
                    name=f"{name}-session{session.index}",
                    daemon=True,
                )
            )
        if tasks:
            yield AllOf(tasks)

        outcome = WorkloadOutcome(
            workload=self.name,
            bytes_written=totals["completed_bytes"],
            ops=totals["completed"],
            trace=sojourn,
            extra={
                "sessions": len(plan),
                "offered_bytes": totals["offered"],
                "by_workload": {
                    k: by_workload[k] for k in sorted(by_workload)
                },
            },
        )
        return (start, sim.now, outcome)


def _result_bytes(result) -> int:
    """Bytes written by one finished session body, whatever its type."""
    if isinstance(result, WorkloadOutcome):
        return result.bytes_written
    return int(getattr(result, "file_bytes", 0) or 0)
