"""Experiment families for every figure in the paper's evaluation.

Each family (at a scale suitable for a laptop) is decomposed into a
:class:`~repro.harness.sweep.Plan`: a list of independent
:class:`~repro.harness.sweep.RunSpec` units (one seeded simulator run each —
a single point of a sweep, one protocol of a comparison) plus an
``assemble`` step that builds the public rows from the unit results.  The
``*_plan`` builders expose that decomposition, and :data:`FAMILIES` is the
one table naming them: CLI name, description, plan builder and, for the
rendered figures, a :class:`Chart`.

:func:`run_family` executes a family through
:func:`~repro.harness.sweep.run_plan`, which consults the persistent result
cache (``$REPRO_CACHE_DIR``, default ``~/.cache/repro``; disable with
``REPRO_NO_CACHE=1``) and can fan the units across worker processes
(``python -m repro.cli all --jobs 4``).  ``run_family("fig12",
samples=2000)`` takes the plan builder's keyword arguments, which are also
what the CLI ``sweep`` subcommand overrides to run user-defined parameter
grids.

Determinism: every unit is an independent module-level function that builds
its own :class:`~repro.sim.eventlist.EventList` and seeds its own RNGs, so
parallel, cached and cold serial executions return bit-identical results
(see :mod:`repro.harness.sweep` for the normalization contract, and
``tests/harness/test_sweep.py`` for the assertion).
"""

from __future__ import annotations

import math
import random
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.core.config import NdpConfig
from repro.core.switch import CpSwitchQueue, NdpSwitchQueue
from repro.harness import experiment, metrics
from repro.harness.ndp_network import NdpNetwork
from repro.harness.sweep import Plan, RunSpec, run_plan
from repro.hosts.processing import (
    HostProcessingModel,
    JitteredPullPacer,
    PullSpacingJitter,
    RpcStackModel,
)
from repro.sim import units
from repro.sim.eventlist import EventList
from repro.sim.logger import RateEstimator, TimeSeriesSampler
from repro.topology import (
    BackToBackTopology,
    FabricController,
    FatTreeTopology,
    LeafSpineTopology,
    SingleSwitchTopology,
)
from repro.transports import registry
from repro.transports.capabilities import FamilyTraits
from repro.transports.constant_rate import ConstantRateSink, ConstantRateSource
from repro.transports.tcp import TcpConfig
from repro.workloads.flowsize import (
    DataMiningFlowSizes,
    FacebookWebFlowSizes,
    WebSearchFlowSizes,
)
from repro.workloads.generators import ClosedLoopGenerator
from repro.workloads.openloop import MEASURE, OpenLoopGenerator
from repro.workloads.services import (
    CoflowShuffleTemplate,
    PartitionAggregateTemplate,
    synthesize_requests,
    window_of as service_window_of,
)
from repro.workloads.trace import trace_digest

#: default comparison set of the large-scale simulations (Figures 14/15/16)
COMPARISON_PROTOCOLS = (registry.NDP, registry.MPTCP, registry.DCTCP, registry.DCQCN)


def _resolve_protocols(requested, default, traits: FamilyTraits) -> List[str]:
    """Canonical display names for a family's protocol axis.

    Accepts any registered spelling (``ndp``, ``NDP``, ``PHOST``, ...) and
    validates each protocol against the family's :class:`FamilyTraits` —
    an incompatible (protocol, family) pair raises
    :class:`~repro.transports.registry.IncompatibleTransportError` at plan
    build time, which the sweep CLI reports as a skipped grid point.
    """
    names = registry.normalize(requested if requested is not None else default)
    for name in names:
        registry.require_compatible(name, traits)
    return names


# ---------------------------------------------------------------------------
# Figure 2 — CP congestion collapse and phase effects
# ---------------------------------------------------------------------------

def figure2_plan(
    flow_counts: Sequence[int] = (4, 16, 64, 128),
    duration_ps: int = units.milliseconds(20),
    packet_bytes: int = 9000,
    seed: int = 1,
) -> Plan:
    """Percent of fair-share goodput under N unresponsive flows.

    Reproduces Figure 2: many constant-rate senders converge on a single
    10 Gb/s output port served either by an NDP switch queue (dual priority
    queue, WRR, probabilistic trim) or a CP queue (single FIFO, deterministic
    trim).  Returns one row per (switch type, flow count) with the mean and
    worst-10% fair-share percentage.

    One spec per (switch kind, flow count) overload run.
    """
    cases = [(kind, flows) for kind in (registry.NDP, "CP") for flows in flow_counts]
    specs = [
        RunSpec(
            f"fig2[{kind},flows={flows}]",
            _run_overload,
            dict(
                switch_kind=kind,
                flows=flows,
                duration_ps=duration_ps,
                packet_bytes=packet_bytes,
                seed=seed,
            ),
        )
        for kind, flows in cases
    ]

    def assemble(results: List[List[float]]) -> List[Dict[str, float]]:
        rows = []
        for (kind, flows), shares in zip(cases, results):
            shares = sorted(shares)
            worst = shares[: max(1, len(shares) // 10)]
            rows.append(
                {
                    "switch": kind,
                    "flows": flows,
                    "mean_percent": 100 * metrics.mean(shares),
                    "worst10_percent": 100 * metrics.mean(worst),
                }
            )
        return rows

    return Plan(specs, assemble)


def _run_overload(switch_kind, flows, duration_ps, packet_bytes, seed):
    """Unit run: goodput fair-share fractions of *flows* senders on one port."""
    eventlist = EventList()
    config = NdpConfig(mtu_bytes=packet_bytes, header_queue_bytes=8 * packet_bytes)
    rng = random.Random(seed)

    def queue_factory(evl, rate, name):
        if switch_kind == registry.NDP:
            return NdpSwitchQueue(evl, rate, config=config, rng=rng, name=name)
        return CpSwitchQueue(evl, rate, config=config, name=name)

    topology = SingleSwitchTopology(
        eventlist, hosts=flows + 1, queue_factory=queue_factory
    )
    link_rate = topology.link_rate_bps
    sinks = []
    for index in range(flows):
        src_host = index + 1
        sink = ConstantRateSink(eventlist, flow_id=index, node_id=0)
        route = topology.get_paths(src_host, 0)[0].extended(sink)
        source = ConstantRateSource(
            eventlist,
            flow_id=index,
            node_id=src_host,
            dst_node_id=0,
            route=route,
            rate_bps=link_rate,
            packet_bytes=packet_bytes,
            jitter_fraction=0.05,
            rng=random.Random(seed * 1000 + index),
        )
        source.start(0)
        sinks.append(sink)
    eventlist.run(until=duration_ps)
    return [
        metrics.fair_share_fraction(sink.goodput_bps(duration_ps), link_rate, flows)
        for sink in sinks
    ]


# ---------------------------------------------------------------------------
# Figure 4 — delivery latency CDF under permutation / random / incast
# ---------------------------------------------------------------------------

def figure4_plan(
    k: int = 4,
    permutation_flow_bytes: int = 3_000_000,
    incast_senders: int = 15,
    incast_flow_bytes: int = 135_000,
    duration_ps: int = units.milliseconds(8),
    seed: int = 1,
) -> Plan:
    """Per-packet delivery latency (send to sender-side ACK) distributions.

    Returns latency samples in microseconds for three traffic matrices:
    ``permutation``, ``random`` and ``incast`` (the paper's Figure 4, scaled
    from a 432-host to a ``k``-ary FatTree).

    One spec per traffic matrix (permutation / random / incast).
    """
    matrices = ("permutation", "random", "incast")
    specs = [
        RunSpec(
            f"fig4[{matrix}]",
            _figure4_matrix,
            dict(
                matrix=matrix,
                k=k,
                permutation_flow_bytes=permutation_flow_bytes,
                incast_senders=incast_senders,
                incast_flow_bytes=incast_flow_bytes,
                duration_ps=duration_ps,
                seed=seed,
            ),
        )
        for matrix in matrices
    ]

    def assemble(results: List[List[float]]) -> Dict[str, List[float]]:
        return {matrix: samples for matrix, samples in zip(matrices, results)}

    return Plan(specs, assemble)


def _figure4_matrix(
    matrix, k, permutation_flow_bytes, incast_senders, incast_flow_bytes,
    duration_ps, seed,
):
    """Unit run: per-packet delivery latency samples (us) for one matrix."""
    eventlist = EventList()
    network = NdpNetwork.build(eventlist, FatTreeTopology, k=k, seed=seed)
    rng = random.Random(seed)
    if matrix == "permutation":
        flows = [
            network.create_flow(src, dst, permutation_flow_bytes,
                                record_packet_latencies=True)
            for src, dst in _permutation(network, rng)
        ]
    elif matrix == "random":
        from repro.workloads.traffic_matrices import random_pairs

        flows = [
            network.create_flow(src, dst, permutation_flow_bytes,
                                record_packet_latencies=True)
            for src, dst in random_pairs(network.topology.hosts(), rng)
        ]
    else:
        flows = [
            network.create_flow(src, 0, incast_flow_bytes,
                                record_packet_latencies=True)
            for src in range(1, incast_senders + 1)
        ]
    eventlist.run(until=duration_ps)
    return [
        latency / units.MICROSECOND
        for flow in flows
        for latency in flow.src.packet_latencies_ps
    ]


def _permutation(network, rng):
    from repro.workloads.traffic_matrices import permutation_pairs

    return permutation_pairs(network.topology.hosts(), rng)


# ---------------------------------------------------------------------------
# Figure 8 — 1 KB RPC latency across stacks
# ---------------------------------------------------------------------------

def figure8_plan(samples: int = 500, seed: int = 1) -> Plan:
    """Median/p99 latency of a 1 KB RPC over NDP, TFO and TCP stacks.

    The network component (a request and a response over back-to-back
    10 Gb/s hosts) is simulated; host-side overheads come from
    :class:`~repro.hosts.processing.HostProcessingModel`, with and without
    deep CPU sleep states, exactly mirroring the two groups of curves in
    Figure 8.

    A single spec: the host-model study shares one simulated network RTT.
    """
    specs = [RunSpec("fig8", _figure8_run, dict(samples=samples, seed=seed))]
    return Plan(specs, lambda results: results[0])


def _figure8_run(samples, seed):
    """Unit run: median/p99 RPC latency for every host stack model."""
    network_rtt = _measure_rpc_network_rtt()
    rng = random.Random(seed)
    stacks = {
        registry.NDP: RpcStackModel(HostProcessingModel.ndp_dpdk(), handshake_rtts=0),
        "TFO (no sleep)": RpcStackModel(
            HostProcessingModel.kernel_tfo(deep_sleep=False), handshake_rtts=0
        ),
        "TCP (no sleep)": RpcStackModel(
            HostProcessingModel.kernel_tcp(deep_sleep=False), handshake_rtts=1
        ),
        "TFO": RpcStackModel(HostProcessingModel.kernel_tfo(), handshake_rtts=0),
        registry.TCP: RpcStackModel(HostProcessingModel.kernel_tcp(), handshake_rtts=1),
    }
    summary = {}
    for name, model in stacks.items():
        values = [v / units.MICROSECOND for v in model.sample_many(network_rtt, rng, samples)]
        summary[name] = {
            "median_us": metrics.percentile(values, 0.5),
            "p99_us": metrics.percentile(values, 0.99),
        }
    return summary


def _measure_rpc_network_rtt() -> int:
    """Simulate the 1 KB request + 1 KB response wire time over NDP."""
    eventlist = EventList()
    network = NdpNetwork.build(eventlist, BackToBackTopology)
    request = network.create_flow(0, 1, 1_000)
    eventlist.run(until=units.milliseconds(1))
    response = network.create_flow(1, 0, 1_000, start_time_ps=eventlist.now())
    eventlist.run(until=eventlist.now() + units.milliseconds(1))
    request_wire = request.record.finish_time_ps - request.sender_record.start_time_ps
    response_wire = response.record.finish_time_ps - response.sender_record.start_time_ps
    return request_wire + response_wire


# ---------------------------------------------------------------------------
# Figure 9 — 7:1 incast on the testbed topology, NDP vs TCP
# ---------------------------------------------------------------------------

def figure9_plan(
    response_sizes: Sequence[int] = (10_000, 50_000, 100_000, 250_000, 500_000, 1_000_000),
    seed: int = 1,
) -> Plan:
    """Completion time of a 7-to-1 incast vs response size (NDP vs TCP).

    The topology is the paper's 8-server, six-switch leaf-spine testbed; TCP
    uses the Linux defaults (handshake, 200 ms minimum RTO), NDP the 1500-byte
    MTU of the prototype.  Returns one row per response size with the
    completion time of the last flow and the theoretical optimum.

    One spec per (protocol, response size) incast run.
    """
    response_sizes = tuple(response_sizes)
    cases = [
        (protocol, size)
        for size in response_sizes
        for protocol in (registry.NDP, registry.TCP)
    ]
    specs = [
        RunSpec(
            f"fig9[{protocol},kb={size // 1000}]",
            _figure9_point,
            dict(protocol=protocol, response_bytes=size, seed=seed),
        )
        for protocol, size in cases
    ]

    def assemble(results: List[int]) -> List[Dict[str, float]]:
        by_case = {case: value for case, value in zip(cases, results)}
        rows = []
        for size in response_sizes:
            ideal = metrics.ideal_incast_completion_ps(
                7, size, units.DEFAULT_LINK_RATE_BPS, 1500, 64
            )
            rows.append(
                {
                    "response_kb": size / 1000,
                    "ndp_ms": by_case[(registry.NDP, size)] / units.MILLISECOND,
                    "tcp_ms": by_case[(registry.TCP, size)] / units.MILLISECOND,
                    "ideal_ms": ideal / units.MILLISECOND,
                }
            )
        return rows

    return Plan(specs, assemble)


def _figure9_point(protocol, response_bytes, seed):
    """Unit run: last-flow completion (ps) of the 7:1 testbed incast."""
    if protocol == registry.NDP:
        config = NdpConfig(mtu_bytes=1500, header_queue_bytes=8 * 1500)
    else:
        config = TcpConfig()
    return _incast_last_fct(
        protocol, response_bytes, senders=7, topology_cls=LeafSpineTopology,
        topology_kwargs=dict(leaves=4, spines=2, hosts_per_leaf=2),
        config=config, seed=seed,
    )


def _incast_last_fct(
    protocol: str,
    bytes_per_sender: int,
    senders: int,
    topology_cls=SingleSwitchTopology,
    topology_kwargs: Optional[dict] = None,
    config=None,
    seed: int = 1,
    timeout_ps: int = units.seconds(2),
    receiver: int = 0,
) -> int:
    eventlist = EventList()
    kwargs = dict(topology_kwargs or {})
    if topology_cls is SingleSwitchTopology and "hosts" not in kwargs:
        kwargs["hosts"] = senders + 1
    network = registry.build_network(
        protocol, eventlist, topology_cls, config=config, seed=seed, **kwargs
    )
    sender_hosts = [h for h in network.topology.hosts() if h != receiver][:senders]
    flows = experiment.start_incast(network, receiver, sender_hosts, bytes_per_sender)
    experiment.run_until_complete(network, flows, timeout_ps)
    finished = [f.record.finish_time_ps for f in flows if f.record.finish_time_ps]
    if len(finished) < len(flows):
        return timeout_ps  # did not complete within the horizon
    return max(finished)


# ---------------------------------------------------------------------------
# Figure 10 — receiver-side prioritization of a short flow
# ---------------------------------------------------------------------------

def figure10_plan(
    short_bytes: int = 200_000,
    long_bytes: int = 2_000_000,
    long_flows: int = 6,
    seed: int = 1,
) -> Plan:
    """One spec per scenario: idle, prioritized, not prioritized (FCTs in us)."""
    cases = [
        ("idle_us", False, False),
        ("with_prioritization_us", True, True),
        ("without_prioritization_us", True, False),
    ]
    specs = [
        RunSpec(
            f"fig10[{label}]",
            _figure10_case,
            dict(
                background=background,
                priority=priority,
                short_bytes=short_bytes,
                long_bytes=long_bytes,
                long_flows=long_flows,
                seed=seed,
            ),
        )
        for label, background, priority in cases
    ]

    def assemble(results: List[float]) -> Dict[str, float]:
        return {label: value for (label, _b, _p), value in zip(cases, results)}

    return Plan(specs, assemble)


def _rows_fig10(result: Mapping[str, float]) -> List[Mapping[str, Any]]:
    """Chart rows: ``{"idle_us": v, ...}`` -> one (scenario, fct_us) row per case."""
    return [
        {"scenario": label[: -len("_us")] if label.endswith("_us") else label,
         "fct_us": value}
        for label, value in result.items()
    ]


def _figure10_case(background, priority, short_bytes, long_bytes, long_flows, seed):
    """Unit run: FCT (us) of the short flow in one prioritization scenario."""
    config = NdpConfig(mtu_bytes=1500, header_queue_bytes=8 * 1500)
    eventlist = EventList()
    network = NdpNetwork.build(
        eventlist, SingleSwitchTopology, hosts=long_flows + 3, config=config, seed=seed
    )
    if background:
        for src in range(2, 2 + long_flows):
            network.create_flow(src, 0, long_bytes)
    short = network.create_flow(1, 0, short_bytes, priority=priority)
    eventlist.run(until=units.milliseconds(60))
    if not short.complete:
        raise RuntimeError("short flow did not complete")
    return short.record.completion_time_ps() / units.MICROSECOND


# ---------------------------------------------------------------------------
# Figures 11 / 12 / 13 — host-model fidelity experiments
# ---------------------------------------------------------------------------

def figure11_plan(
    windows: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 128),
    flow_bytes: int = 20_000_000,
    jittered: bool = False,
    seed: int = 1,
) -> Plan:
    """One spec per initial-window setting."""
    windows = tuple(windows)
    specs = [
        RunSpec(
            f"fig11[iw={window}{',jitter' if jittered else ''}]",
            _figure11_window,
            dict(window=window, flow_bytes=flow_bytes, jittered=jittered, seed=seed),
        )
        for window in windows
    ]

    def assemble(results: List[float]) -> List[Dict[str, float]]:
        return [
            {"initial_window": window, "throughput_gbps": value}
            for window, value in zip(windows, results)
        ]

    return Plan(specs, assemble)


def _figure11_window(window, flow_bytes, jittered, seed):
    """Unit run: throughput (Gb/s) of one back-to-back transfer at one IW."""
    config = NdpConfig(initial_window_packets=window)
    eventlist = EventList()
    pacer_factory = None
    if jittered:
        jitter = PullSpacingJitter(rng=random.Random(seed + window))

        def pacer_factory(host, _evl=eventlist, _cfg=config, _jit=jitter):
            return JitteredPullPacer(
                _evl, link_rate_bps=units.DEFAULT_LINK_RATE_BPS,
                mtu_bytes=_cfg.mtu_bytes, jitter=_jit,
            )

    network = NdpNetwork.build(
        eventlist, BackToBackTopology, config=config, seed=seed,
        pacer_factory=pacer_factory,
    )
    flow = network.create_flow(0, 1, flow_bytes)
    eventlist.run(until=units.milliseconds(60))
    return flow.record.throughput_bps() / 1e9 if flow.complete else 0.0


def figure12_plan(
    packet_sizes: Sequence[int] = (1500, 9000),
    samples: int = 5000,
    seed: int = 1,
) -> Plan:
    """Pull-spacing distribution (us) for 1500 B and 9000 B packets.

    A single (pure host-model) spec; exercises the non-string-key codec.
    """
    specs = [
        RunSpec(
            "fig12",
            _figure12_run,
            dict(packet_sizes=tuple(packet_sizes), samples=samples, seed=seed),
        )
    ]
    return Plan(specs, lambda results: results[0])


def _rows_fig12(result: Mapping[int, Mapping[str, float]]) -> List[Mapping[str, Any]]:
    """Chart rows: ``{packet_bytes: {stat: value}}`` -> one row per packet size."""
    return [
        {"packet_bytes": size, **result[size]} for size in sorted(result)
    ]


def _figure12_run(packet_sizes, samples, seed):
    """Unit run: pull-spacing percentiles for each packet size."""
    result = {}
    for size in packet_sizes:
        target = units.serialization_time_ps(size, units.DEFAULT_LINK_RATE_BPS)
        jitter = PullSpacingJitter(
            sigma=0.35 if size <= 1500 else 0.15, rng=random.Random(seed)
        )
        values = [v / units.MICROSECOND for v in jitter.sample_many(target, samples)]
        result[size] = {
            "target_us": target / units.MICROSECOND,
            "median_us": metrics.percentile(values, 0.5),
            "p10_us": metrics.percentile(values, 0.1),
            "p90_us": metrics.percentile(values, 0.9),
        }
    return result


def figure13_plan(
    flow_sizes: Sequence[int] = (15_000, 30_000, 60_000, 90_000, 120_000),
    senders: int = 32,
    seed: int = 1,
) -> Plan:
    """One spec per (flow size, pacer kind) incast run."""
    flow_sizes = tuple(flow_sizes)
    cases = [(size, jittered) for size in flow_sizes for jittered in (False, True)]
    specs = [
        RunSpec(
            f"fig13[kb={size // 1000}{',jitter' if jittered else ''}]",
            _incast_fct_with_pacer,
            dict(size=size, senders=senders, jittered=jittered, seed=seed),
        )
        for size, jittered in cases
    ]

    def assemble(results: List[int]) -> List[Dict[str, float]]:
        by_case = {case: value for case, value in zip(cases, results)}
        return [
            {
                "flow_kb": size / 1000,
                "perfect_us": by_case[(size, False)] / units.MICROSECOND,
                "experimental_us": by_case[(size, True)] / units.MICROSECOND,
            }
            for size in flow_sizes
        ]

    return Plan(specs, assemble)


def _rows_fig13(result: List[Mapping[str, Any]]) -> List[Mapping[str, Any]]:
    """Chart rows: wide (perfect_us, experimental_us) -> long (pacer, fct_us)."""
    rows: List[Mapping[str, Any]] = []
    for entry in result:
        rows.append({"flow_kb": entry["flow_kb"], "pacer": "perfect",
                     "fct_us": entry["perfect_us"]})
        rows.append({"flow_kb": entry["flow_kb"], "pacer": "experimental",
                     "fct_us": entry["experimental_us"]})
    return rows


def _incast_fct_with_pacer(size, senders, jittered, seed):
    """Unit run: last-flow FCT (ps) of an incast with one pacer setting."""
    config = NdpConfig(mtu_bytes=1500, header_queue_bytes=8 * 1500)
    eventlist = EventList()
    pacer_factory = None
    if jittered:
        jitter = PullSpacingJitter(sigma=0.35, rng=random.Random(seed))

        def pacer_factory(host, _evl=eventlist, _cfg=config, _jit=jitter):
            return JitteredPullPacer(
                _evl, link_rate_bps=units.DEFAULT_LINK_RATE_BPS,
                mtu_bytes=_cfg.mtu_bytes, jitter=_jit,
            )

    network = NdpNetwork.build(
        eventlist, SingleSwitchTopology, hosts=senders + 1, config=config,
        seed=seed, pacer_factory=pacer_factory,
    )
    flows = [network.create_flow(src, 0, size) for src in range(1, senders + 1)]
    result = experiment.run_until_complete(network, flows, units.seconds(1))
    return int(result.last_completion_us() * units.MICROSECOND)


# ---------------------------------------------------------------------------
# Figure 14 — permutation throughput across protocols
# ---------------------------------------------------------------------------

def figure14_plan(
    k: int = 4,
    flow_bytes: int = 200_000_000,
    duration_ps: int = units.milliseconds(2),
    protocols: Optional[Sequence[str]] = None,
    seed: int = 3,
    protocol: Optional[str] = None,
) -> Plan:
    """One spec per protocol (``protocol`` narrows the set to one for sweeps)."""
    if protocol is not None:
        protocols = (protocol,)
    protocols = _resolve_protocols(
        protocols, COMPARISON_PROTOCOLS, FamilyTraits(family="fig14")
    )
    specs = [
        RunSpec(
            f"fig14[{name}]",
            _figure14_protocol,
            dict(protocol=name, k=k, flow_bytes=flow_bytes,
                 duration_ps=duration_ps, seed=seed),
        )
        for name in protocols
    ]

    def assemble(results) -> Dict[str, experiment.ThroughputResult]:
        return {name: result for name, result in zip(protocols, results)}

    return Plan(specs, assemble)


def _figure14_protocol(protocol, k, flow_bytes, duration_ps, seed):
    """Unit run: permutation :class:`ThroughputResult` for one protocol."""
    eventlist = EventList()
    network = registry.build_network(protocol, eventlist, FatTreeTopology, k=k, seed=seed)
    flows = experiment.start_permutation(network, flow_bytes, rng=random.Random(seed))
    return experiment.measure_throughput(network, flows, duration_ps)


# ---------------------------------------------------------------------------
# Figure 15 — short-flow FCT with background load
# ---------------------------------------------------------------------------

def figure15_plan(
    k: int = 4,
    short_bytes: int = 90_000,
    short_flows: int = 12,
    background_bytes: int = 50_000_000,
    background_flows_per_host: int = 2,
    protocols: Optional[Sequence[str]] = None,
    seed: int = 5,
    protocol: Optional[str] = None,
) -> Plan:
    """FCTs (us) of repeated 90 KB transfers between two otherwise idle hosts.

    Every other host sources long-running background flows to random
    destinations, loading the fabric; the 90 KB transfers between hosts 0
    and 1 then measure the queueing those background flows induce.

    One spec per protocol (``protocol`` narrows the set to one for sweeps).
    """
    if protocol is not None:
        protocols = (protocol,)
    protocols = _resolve_protocols(
        protocols, COMPARISON_PROTOCOLS, FamilyTraits(family="fig15")
    )
    specs = [
        RunSpec(
            f"fig15[{name}]",
            _figure15_protocol,
            dict(
                protocol=name, k=k, short_bytes=short_bytes,
                short_flows=short_flows, background_bytes=background_bytes,
                background_flows_per_host=background_flows_per_host, seed=seed,
            ),
        )
        for name in protocols
    ]

    def assemble(results: List[List[float]]) -> Dict[str, List[float]]:
        return {name: fcts for name, fcts in zip(protocols, results)}

    return Plan(specs, assemble)


def _figure15_protocol(
    protocol, k, short_bytes, short_flows, background_bytes,
    background_flows_per_host, seed,
):
    """Unit run: probe-flow FCTs (us) under background load, one protocol."""
    eventlist = EventList()
    network = registry.build_network(protocol, eventlist, FatTreeTopology, k=k, seed=seed)
    rng = random.Random(seed)
    hosts = network.topology.hosts()
    # the two probe hosts sit in different pods so their transfers cross
    # the core, where the background flows' standing queues live
    probe_a, probe_b = hosts[0], hosts[-1]
    for src in hosts:
        if src in (probe_a, probe_b):
            continue
        for _ in range(background_flows_per_host):
            dst = src
            while dst == src or dst in (probe_a, probe_b):
                dst = rng.choice(hosts)
            network.create_flow(src, dst, background_bytes)
    # let the background flows load the network before measuring
    eventlist.run(until=units.milliseconds(1))
    fcts = []
    for index in range(short_flows):
        src, dst = (probe_a, probe_b) if index % 2 == 0 else (probe_b, probe_a)
        flow = network.create_flow(src, dst, short_bytes, start_time_ps=eventlist.now())
        experiment.run_until_complete(network, [flow], units.milliseconds(400))
        if flow.record.completed:
            fcts.append(flow.record.completion_time_ps() / units.MICROSECOND)
    return fcts


# ---------------------------------------------------------------------------
# Figure 16 — incast completion time vs number of senders
# ---------------------------------------------------------------------------

def figure16_plan(
    sender_counts: Sequence[int] = (4, 8, 16, 32),
    response_bytes: int = 450_000,
    protocols: Optional[Sequence[str]] = None,
    seed: int = 7,
    protocol: Optional[str] = None,
) -> Plan:
    """One spec per (sender count, protocol) incast point; completion in ms."""
    sender_counts = tuple(sender_counts)
    if protocol is not None:
        protocols = (protocol,)
    protocols = _resolve_protocols(
        protocols, COMPARISON_PROTOCOLS, FamilyTraits(family="fig16")
    )
    cases = [(senders, name) for senders in sender_counts for name in protocols]
    specs = [
        RunSpec(
            f"fig16[{name},senders={senders}]",
            _figure16_point,
            dict(protocol=name, senders=senders,
                 response_bytes=response_bytes, seed=seed),
        )
        for senders, name in cases
    ]

    def assemble(results: List[int]) -> List[Dict[str, float]]:
        by_case = {case: value for case, value in zip(cases, results)}
        rows = []
        for senders in sender_counts:
            row: Dict[str, float] = {"senders": senders}
            for name in protocols:
                row[name] = by_case[(senders, name)] / units.MILLISECOND
            row["ideal_ms"] = metrics.ideal_incast_completion_ps(
                senders, response_bytes, units.DEFAULT_LINK_RATE_BPS, 9000, 64
            ) / units.MILLISECOND
            rows.append(row)
        return rows

    return Plan(specs, assemble)


def _rows_fig16(result: List[Mapping[str, Any]]) -> List[Mapping[str, Any]]:
    """Chart rows: wide per-protocol columns -> long (senders, protocol, completion_ms).

    The ``ideal_ms`` bound becomes the pseudo-protocol ``ideal`` so the
    chart carries the paper's reference line as just another series.
    """
    rows: List[Mapping[str, Any]] = []
    for entry in result:
        senders = entry["senders"]
        for key in sorted(entry):
            if key == "senders":
                continue
            protocol = "ideal" if key == "ideal_ms" else key
            rows.append({"senders": senders, "protocol": protocol,
                         "completion_ms": entry[key]})
    return rows


def _figure16_point(protocol, senders, response_bytes, seed):
    """Unit run: last-flow completion (ps) of one incast point."""
    return _incast_last_fct(
        protocol, response_bytes, senders=senders, seed=seed,
        timeout_ps=units.seconds(3),
    )


# ---------------------------------------------------------------------------
# Figure 17 — IW / buffer-size sensitivity
# ---------------------------------------------------------------------------

def figure17_plan(
    windows: Sequence[int] = (5, 10, 15, 20, 30, 40),
    configurations: Optional[Sequence[Tuple[str, int, int]]] = None,
    k: int = 4,
    flow_bytes: int = 200_000_000,
    duration_ps: int = units.milliseconds(2),
    seed: int = 9,
) -> Plan:
    """Permutation utilization vs IW for several buffer/MTU configurations.

    ``configurations`` is a list of ``(label, buffer_packets, mtu_bytes)``;
    the default matches the four curves of Figure 17.

    One spec per (buffer/MTU configuration, initial window) point.
    """
    windows = tuple(windows)
    if configurations is None:
        configurations = (
            ("6pkt 9K MTU", 6, 9000),
            ("8pkt 9K MTU", 8, 9000),
            ("10pkt 9K MTU", 10, 9000),
            ("8pkt 1.5K MTU", 8, 1500),
        )
    configurations = tuple(tuple(c) for c in configurations)
    cases = [
        (label, buffer_packets, mtu, window)
        for label, buffer_packets, mtu in configurations
        for window in windows
    ]
    specs = [
        RunSpec(
            f"fig17[{label},iw={window}]",
            _figure17_point,
            dict(
                buffer_packets=buffer_packets, mtu=mtu, window=window, k=k,
                flow_bytes=flow_bytes, duration_ps=duration_ps, seed=seed,
            ),
        )
        for label, buffer_packets, mtu, window in cases
    ]

    def assemble(results: List[float]) -> List[Dict[str, float]]:
        return [
            {
                "configuration": label,
                "initial_window": window,
                "utilization_percent": 100 * utilization,
            }
            for (label, _bp, _mtu, window), utilization in zip(cases, results)
        ]

    return Plan(specs, assemble)


def _figure17_point(buffer_packets, mtu, window, k, flow_bytes, duration_ps, seed):
    """Unit run: permutation utilization for one buffer/MTU/IW setting."""
    config = NdpConfig(
        mtu_bytes=mtu,
        data_queue_packets=buffer_packets,
        header_queue_bytes=buffer_packets * mtu,
        initial_window_packets=window,
    )
    eventlist = EventList()
    network = NdpNetwork.build(eventlist, FatTreeTopology, k=k, config=config, seed=seed)
    flows = experiment.start_permutation(network, flow_bytes, rng=random.Random(seed))
    result = experiment.measure_throughput(network, flows, duration_ps)
    return result.utilization


# ---------------------------------------------------------------------------
# Figure 19 — collateral damage of an incast on a nearby long flow
# ---------------------------------------------------------------------------

def figure19_plan(
    protocols: Optional[Sequence[str]] = None,
    incast_senders: int = 16,
    incast_bytes: int = 900_000,
    sample_period_ps: int = units.microseconds(250),
    duration_ps: int = units.milliseconds(30),
    seed: int = 11,
    protocol: Optional[str] = None,
) -> Plan:
    """Goodput-vs-time of a long flow while an incast hits a neighbour host.

    Setup of Figure 18: the long flow and the incast target are on the same
    ToR; the incast starts a few milliseconds into the run.  Returns, per
    protocol, two time series (``long_flow`` and ``incast``) of goodput in
    bits/second.

    One spec per protocol (``protocol`` narrows the set to one for sweeps).
    """
    if protocol is not None:
        protocols = (protocol,)
    protocols = _resolve_protocols(
        protocols,
        (registry.NDP, registry.DCTCP, registry.DCQCN),
        FamilyTraits(family="fig19"),
    )
    specs = [
        RunSpec(
            f"fig19[{name}]",
            _figure19_protocol,
            dict(
                protocol=name, incast_senders=incast_senders,
                incast_bytes=incast_bytes, sample_period_ps=sample_period_ps,
                duration_ps=duration_ps, seed=seed,
            ),
        )
        for name in protocols
    ]

    def assemble(results) -> Dict[str, Dict[str, List[Tuple[int, float]]]]:
        return {name: series for name, series in zip(protocols, results)}

    return Plan(specs, assemble)


def _figure19_protocol(
    protocol, incast_senders, incast_bytes, sample_period_ps, duration_ps, seed
):
    """Unit run: long-flow / incast goodput time series for one protocol."""
    eventlist = EventList()
    network = registry.build_network(
        protocol, eventlist, LeafSpineTopology,
        leaves=2, spines=2, hosts_per_leaf=max(2, incast_senders // 2), seed=seed,
    )
    hosts = network.topology.hosts()
    long_dst, incast_dst = 0, 1
    remote_hosts = [h for h in hosts if network.topology.leaf_of_host(h) != network.topology.leaf_of_host(0)]
    long_src = remote_hosts[0]
    incast_srcs = [h for h in remote_hosts[1:]] + [
        h for h in hosts if h not in (long_dst, incast_dst, long_src) and h not in remote_hosts
    ]
    incast_srcs = incast_srcs[:incast_senders]
    long_flow = network.create_flow(long_src, long_dst, 10 * incast_bytes * incast_senders)
    incast_start = units.milliseconds(5)
    incast_flows = [
        network.create_flow(src, incast_dst, incast_bytes, start_time_ps=incast_start)
        for src in incast_srcs
    ]
    long_rate = RateEstimator()
    incast_rate = RateEstimator()
    long_series = TimeSeriesSampler(
        eventlist, sample_period_ps,
        lambda: long_rate.update(eventlist.now(), long_flow.record.bytes_delivered),
    )
    incast_series = TimeSeriesSampler(
        eventlist, sample_period_ps,
        lambda: incast_rate.update(
            eventlist.now(), sum(f.record.bytes_delivered for f in incast_flows)
        ),
    )
    long_series.start()
    incast_series.start()
    eventlist.run(until=duration_ps)
    return {
        "long_flow": long_series.samples,
        "incast": incast_series.samples,
        "pause_events": sum(q.stats.pause_events for q in network.topology.all_queues()),
    }


# ---------------------------------------------------------------------------
# Figure 20 — very large incasts: overhead and retransmission mechanisms
# ---------------------------------------------------------------------------

def figure20_plan(
    sender_counts: Sequence[int] = (8, 32, 128, 256),
    initial_windows: Sequence[int] = (1, 10, 23),
    packets_per_flow: int = 30,
    seed: int = 13,
) -> Plan:
    """One spec per (initial window, sender count) incast point."""
    sender_counts = tuple(sender_counts)
    initial_windows = tuple(initial_windows)
    cases = [
        (window, senders) for window in initial_windows for senders in sender_counts
    ]
    specs = [
        RunSpec(
            f"fig20[iw={window},senders={senders}]",
            _figure20_point,
            dict(
                initial_window=window, senders=senders,
                packets_per_flow=packets_per_flow, seed=seed,
            ),
        )
        for window, senders in cases
    ]
    return Plan(specs, lambda results: list(results))


def _figure20_point(initial_window, senders, packets_per_flow, seed):
    """Unit run: one row (overhead + RTX mechanism split) of Figure 20."""
    mtu = 9000
    payload = mtu - 64
    flow_bytes = packets_per_flow * payload
    config = NdpConfig(initial_window_packets=initial_window)
    eventlist = EventList()
    network = NdpNetwork.build(
        eventlist, SingleSwitchTopology, hosts=senders + 1, config=config, seed=seed
    )
    flows = [
        network.create_flow(src, 0, flow_bytes) for src in range(1, senders + 1)
    ]
    experiment.run_until_complete(network, flows, units.seconds(3))
    finish = max(f.record.finish_time_ps or 0 for f in flows)
    ideal = metrics.ideal_incast_completion_ps(
        senders, flow_bytes, units.DEFAULT_LINK_RATE_BPS, mtu, 64
    )
    total_packets = senders * packets_per_flow
    nack_rtx = sum(f.src.nacks_received for f in flows)
    bounce_rtx = sum(f.src.bounces_received for f in flows)
    return {
        "initial_window": initial_window,
        "senders": senders,
        "overhead_percent": 100 * (finish - ideal) / ideal,
        "rtx_per_packet_nack": nack_rtx / total_packets,
        "rtx_per_packet_bounce": bounce_rtx / total_packets,
        "all_complete": all(f.complete for f in flows),
    }


# ---------------------------------------------------------------------------
# Figure 21 — sender-limited traffic
# ---------------------------------------------------------------------------

def figure21_plan(
    duration_ps: int = units.milliseconds(4),
    seed: int = 15,
) -> Plan:
    """Throughput (Gb/s) of A→{B,C,D,E} plus F→E, as in the Figure 21 table.

    A single spec: the five flows share one simulator.
    """
    specs = [RunSpec("fig21", _figure21_run, dict(duration_ps=duration_ps, seed=seed))]
    return Plan(specs, lambda results: results[0])


def _figure21_run(duration_ps, seed):
    """Unit run: the sender-limited throughput table."""
    eventlist = EventList()
    network = NdpNetwork.build(eventlist, SingleSwitchTopology, hosts=6, seed=seed)
    labels = {0: "A", 1: "B", 2: "C", 3: "D", 4: "E", 5: "F"}
    flows = {}
    for dst in (1, 2, 3, 4):
        flows[f"A->{labels[dst]}"] = network.create_flow(0, dst, 20_000_000)
    flows["F->E"] = network.create_flow(5, 4, 20_000_000)
    eventlist.run(until=duration_ps)
    result = {
        name: metrics.goodput_bps(flow.record, duration_ps) / 1e9
        for name, flow in flows.items()
    }
    result["total_from_A"] = sum(v for k, v in result.items() if k.startswith("A->"))
    result["total_to_E"] = result["A->E"] + result["F->E"]
    return result


# ---------------------------------------------------------------------------
# Figure 22 — asymmetry (a degraded core link)
# ---------------------------------------------------------------------------

def figure22_plan(
    k: int = 4,
    degraded_rate_bps: int = units.gbps(1),
    flow_bytes: int = 200_000_000,
    duration_ps: int = units.milliseconds(3),
    seed: int = 17,
    cases: Optional[Sequence[str]] = None,
    protocol: Optional[str] = None,
) -> Plan:
    """Permutation throughput with one core↔aggregation link at 1 Gb/s.

    Compares NDP, NDP without the path-penalty scoreboard (the ablation),
    MPTCP and DCTCP.

    One spec per protocol/ablation case.
    """
    if protocol is not None:
        cases = (protocol,)
    cases = _resolve_protocols(
        cases,
        (registry.NDP, registry.NDP_NO_PATH_PENALTY, registry.MPTCP, registry.DCTCP),
        FamilyTraits(family="fig22", mutates_link_rates=True),
    )
    specs = [
        RunSpec(
            f"fig22[{case}]",
            _figure22_case,
            dict(
                case=case, k=k, degraded_rate_bps=degraded_rate_bps,
                flow_bytes=flow_bytes, duration_ps=duration_ps, seed=seed,
            ),
        )
        for case in cases
    ]

    def assemble(results) -> Dict[str, experiment.ThroughputResult]:
        return {case: result for case, result in zip(cases, results)}

    return Plan(specs, assemble)


def _figure22_case(case, k, degraded_rate_bps, flow_bytes, duration_ps, seed):
    """Unit run: permutation throughput with a degraded core link, one case."""
    eventlist = EventList()
    network = registry.build_network(case, eventlist, FatTreeTopology, k=k, seed=seed)
    network.topology.degrade_core_link(core=0, pod=k - 1, new_rate_bps=degraded_rate_bps)
    flows = experiment.start_permutation(network, flow_bytes, rng=random.Random(seed))
    return experiment.measure_throughput(network, flows, duration_ps)


# ---------------------------------------------------------------------------
# Figure 23 — oversubscribed fabric, Facebook web workload
# ---------------------------------------------------------------------------

def figure23_plan(
    k: int = 4,
    oversubscription: float = 4.0,
    connections_per_host: Sequence[int] = (2, 5),
    duration_ps: int = units.milliseconds(40),
    protocols: Optional[Sequence[str]] = None,
    seed: int = 19,
    protocol: Optional[str] = None,
) -> Plan:
    """FCT distribution of a web-like workload on a 4:1 oversubscribed fabric.

    Closed-loop flow arrivals with Facebook-web flow sizes; one row per
    (protocol, load level) with median/p99 FCT in us, completed flow count
    and the fraction of packets trimmed at ToR uplinks (NDP only).

    One spec per (protocol, load level).
    """
    connections_per_host = tuple(connections_per_host)
    if protocol is not None:
        protocols = (protocol,)
    protocols = _resolve_protocols(
        protocols, (registry.NDP, registry.DCTCP), FamilyTraits(family="fig23")
    )
    cases = [(name, load) for name in protocols for load in connections_per_host]
    specs = [
        RunSpec(
            f"fig23[{name},load={load}]",
            _figure23_point,
            dict(
                protocol=name, connections_per_host=load, k=k,
                oversubscription=oversubscription, duration_ps=duration_ps,
                seed=seed,
            ),
        )
        for name, load in cases
    ]
    return Plan(specs, lambda results: list(results))


def _figure23_point(protocol, connections_per_host, k, oversubscription, duration_ps, seed):
    """Unit run: one (protocol, load) row of the web-workload table."""
    # NDP runs the prototype's 1500-byte MTU here; every other transport
    # keeps its registered default config
    config = (
        NdpConfig(mtu_bytes=1500, header_queue_bytes=8 * 1500)
        if protocol == registry.NDP
        else None
    )
    eventlist = EventList()
    network = registry.build_network(
        protocol, eventlist, FatTreeTopology, k=k,
        oversubscription=oversubscription, config=config, seed=seed,
    )
    generator = ClosedLoopGenerator(
        eventlist,
        network,
        hosts=network.topology.hosts(),
        flow_sizes=FacebookWebFlowSizes(),
        connections_per_host=connections_per_host,
        think_time_ps=units.milliseconds(1),
        rng=random.Random(seed),
    )
    generator.start()
    eventlist.run(until=duration_ps)
    fcts = [
        record.completion_time_ps() / units.MICROSECOND
        for record in generator.completed_records()
    ]
    trimmed = network.topology.total_trimmed()
    return {
        "protocol": protocol,
        "connections_per_host": connections_per_host,
        "completed_flows": len(fcts),
        "median_fct_us": metrics.percentile(fcts, 0.5) if fcts else None,
        "p99_fct_us": metrics.percentile(fcts, 0.99) if fcts else None,
        "packets_trimmed": trimmed,
    }


# ---------------------------------------------------------------------------
# §6.2 text — pHost comparison and uplink-trimming load-balancing study
# ---------------------------------------------------------------------------

def phost_plan(
    k: int = 4,
    incast_senders: int = 24,
    incast_bytes: int = 270_000,
    permutation_bytes: int = 100_000_000,
    duration_ps: int = units.milliseconds(2),
    seed: int = 21,
    protocols: Optional[Sequence[str]] = None,
    protocol: Optional[str] = None,
) -> Plan:
    """One spec per protocol: incast completion (ms) plus permutation utilization."""
    if protocol is not None:
        protocols = (protocol,)
    cases = _resolve_protocols(
        protocols, (registry.NDP, registry.PHOST),
        FamilyTraits(family="phost"),  # transport-name-ok: experiment family
    )
    specs = [
        RunSpec(
            f"phost[{name}]",
            _phost_case,
            dict(
                protocol=name, k=k, incast_senders=incast_senders,
                incast_bytes=incast_bytes, permutation_bytes=permutation_bytes,
                duration_ps=duration_ps, seed=seed,
            ),
        )
        for name in cases
    ]

    def assemble(results: List[Dict[str, float]]) -> Dict[str, float]:
        merged: Dict[str, float] = {}
        for name, case_result in zip(cases, results):
            merged[f"{name}_incast_ms"] = case_result["incast_ms"]
            merged[f"{name}_permutation_utilization"] = case_result[
                "permutation_utilization"
            ]
        return merged

    return Plan(specs, assemble)


def _phost_case(
    protocol, k, incast_senders, incast_bytes, permutation_bytes, duration_ps, seed
):
    """Unit run: incast completion + permutation utilization for one stack."""
    last = _incast_last_fct(
        protocol, incast_bytes, senders=incast_senders, seed=seed,
        timeout_ps=units.seconds(3),
    )
    eventlist = EventList()
    network = registry.build_network(protocol, eventlist, FatTreeTopology, k=k, seed=seed)
    flows = experiment.start_permutation(network, permutation_bytes, rng=random.Random(seed))
    throughput = experiment.measure_throughput(network, flows, duration_ps)
    return {
        "incast_ms": last / units.MILLISECOND,
        "permutation_utilization": throughput.utilization,
    }


def uplink_trimming_plan(
    k: int = 4,
    flow_bytes: int = 100_000_000,
    duration_ps: int = units.milliseconds(2),
    seed: int = 23,
) -> Plan:
    """Fraction of packets trimmed on uplinks: sender permutation vs random ECMP.

    Reproduces the load-balancing claim of §"Congestion Control": with
    sender-driven path permutation almost nothing is trimmed above the ToR,
    whereas per-packet random path choice (switch ECMP) trims noticeably more.

    One spec per path-selection mode.
    """
    modes = ["permutation", "random"]
    specs = [
        RunSpec(
            f"uplinks[{mode}]",
            _uplink_mode,
            dict(mode=mode, k=k, flow_bytes=flow_bytes,
                 duration_ps=duration_ps, seed=seed),
        )
        for mode in modes
    ]

    def assemble(results) -> Dict[str, Dict[str, float]]:
        return {mode: result for mode, result in zip(modes, results)}

    return Plan(specs, assemble)


def _uplink_mode(mode, k, flow_bytes, duration_ps, seed):
    """Unit run: uplink trim statistics for one path-selection mode."""
    config = NdpConfig(path_selection_mode=mode)
    eventlist = EventList()
    network = NdpNetwork.build(eventlist, FatTreeTopology, k=k, config=config, seed=seed)
    flows = experiment.start_permutation(network, flow_bytes, rng=random.Random(seed))
    eventlist.run(until=duration_ps)
    uplink_trims = sum(q.stats.packets_trimmed for q in network.topology.uplink_queues())
    total_forwarded = sum(
        q.stats.packets_forwarded for q in network.topology.uplink_queues()
    )
    return {
        "uplink_trimmed": uplink_trims,
        "uplink_forwarded": total_forwarded,
        "uplink_trim_fraction": uplink_trims / max(total_forwarded, 1),
        "utilization": experiment.measure_throughput(
            network, flows, duration_ps, run=False
        ).utilization,
    }


def scaling_plan(
    ks: Sequence[int] = (4, 6, 8),
    flow_bytes: int = 200_000_000,
    duration_ps: int = units.milliseconds(2),
    seed: int = 25,
) -> Plan:
    """One spec per FatTree size (§6.2 'Larger topologies')."""
    ks = tuple(ks)
    specs = [
        RunSpec(
            f"scaling[k={k}]",
            _scaling_point,
            dict(k=k, flow_bytes=flow_bytes, duration_ps=duration_ps, seed=seed),
        )
        for k in ks
    ]
    return Plan(specs, lambda results: list(results))


def _scaling_point(k, flow_bytes, duration_ps, seed):
    """Unit run: one row of the topology-scaling utilization table."""
    eventlist = EventList()
    network = NdpNetwork.build(eventlist, FatTreeTopology, k=k, seed=seed)
    flows = experiment.start_permutation(network, flow_bytes, rng=random.Random(seed))
    result = experiment.measure_throughput(network, flows, duration_ps)
    return {
        "k": k,
        "hosts": network.topology.host_count,
        "utilization_percent": 100 * result.utilization,
    }


# ---------------------------------------------------------------------------
# Failures family — fabric dynamics (link failure / degradation / recovery).
# No single paper figure: this extends Figure 22's static-asymmetry axis with
# the deterministic mid-run link events the FabricController provides.
# ---------------------------------------------------------------------------

#: the transports compared by default in the failure experiments: NDP (with
#: and without the path-penalty scoreboard) against per-flow-ECMP controls
_FAILURE_DEFAULT_CASES = (
    registry.NDP,
    registry.NDP_NO_PATH_PENALTY,
    registry.TCP,
    registry.DCTCP,
)


def failures_degraded_plan(
    k: int = 4,
    degraded_rate_bps: int = units.gbps(1),
    flow_bytes: int = 1_000_000,
    timeout_ps: int = units.milliseconds(60),
    cases: Optional[Sequence[str]] = None,
    seed: int = 27,
    protocol: Optional[str] = None,
) -> Plan:
    """Permutation FCTs with one core↔agg link degraded, NDP vs ECMP controls.

    The FCT view of Figure 22: every host sends one *finite* transfer over a
    fabric whose core0↔pod(k-1) link renegotiated down.  NDP's scoreboard
    steers spraying off the slow path so FCTs stay near the healthy fabric's;
    per-flow-ECMP TCP/DCTCP flows hashed onto the degraded core are stuck
    behind it, which shows up in the p99/max columns.

    One spec per transport: permutation FCTs over a degraded-core fabric.
    """
    if protocol is not None:
        cases = (protocol,)
    cases = _resolve_protocols(
        cases,
        _FAILURE_DEFAULT_CASES,
        FamilyTraits(family="failures_degraded", mutates_link_rates=True),
    )
    specs = [
        RunSpec(
            f"failures_degraded[{case}]",
            _failures_degraded_case,
            dict(
                case=case, k=k, degraded_rate_bps=degraded_rate_bps,
                flow_bytes=flow_bytes, timeout_ps=timeout_ps, seed=seed,
            ),
        )
        for case in cases
    ]
    return Plan(specs, lambda results: list(results))


def _failures_degraded_case(case, k, degraded_rate_bps, flow_bytes, timeout_ps, seed):
    """Unit run: one transport's permutation FCT summary over a degraded core."""
    eventlist = EventList()
    network = registry.build_network(case, eventlist, FatTreeTopology, k=k, seed=seed)
    network.topology.degrade_core_link(core=0, pod=k - 1, new_rate_bps=degraded_rate_bps)
    flows = experiment.start_permutation(network, flow_bytes, rng=random.Random(seed))
    result = experiment.run_until_complete(network, flows, timeout_ps)
    return {
        "case": case,
        "flows": len(flows),
        "completed": len(result.completed()),
        **result.summary(),
    }


def failures_recovery_plan(
    k: int = 4,
    flow_bytes: int = 4_000_000,
    fail_at_ps: int = units.milliseconds(1),
    recover_at_ps: int = units.milliseconds(3),
    duration_ps: int = units.milliseconds(8),
    sample_period_ps: int = units.microseconds(100),
    protocols: Optional[Sequence[str]] = None,
    seed: int = 29,
    protocol: Optional[str] = None,
) -> Plan:
    """Mid-transfer core-link failure and recovery: aggregate goodput vs time.

    A permutation of finite transfers is mid-flight when the core0↔pod(k-1)
    cable is cut at ``fail_at_ps`` and spliced back at ``recover_at_ps``
    (both applied by a :class:`~repro.topology.FabricController` on shadow
    timers).  Returns, per protocol, the aggregate-goodput time series plus
    completion counts: NDP dips for one round-trip and recovers as the path
    manager prunes the dead path; per-flow-ECMP TCP flows on the cut path
    stall until the link returns.

    One spec per protocol: goodput timeline through a fail→recover cycle.
    """
    if protocol is not None:
        protocols = (protocol,)
    protocols = _resolve_protocols(
        protocols,
        (registry.NDP, registry.TCP),
        FamilyTraits(family="failures_recovery", severs_links=True),
    )
    specs = [
        RunSpec(
            f"failures_recovery[{name}]",
            _failures_recovery_case,
            dict(
                protocol=name, k=k, flow_bytes=flow_bytes, fail_at_ps=fail_at_ps,
                recover_at_ps=recover_at_ps, duration_ps=duration_ps,
                sample_period_ps=sample_period_ps, seed=seed,
            ),
        )
        for name in protocols
    ]

    def assemble(results) -> Dict[str, Dict[str, object]]:
        return {name: result for name, result in zip(protocols, results)}

    return Plan(specs, assemble)


def _failures_recovery_case(
    protocol, k, flow_bytes, fail_at_ps, recover_at_ps, duration_ps,
    sample_period_ps, seed,
):
    """Unit run: one protocol's goodput timeline through an outage."""
    eventlist = EventList()
    network = registry.build_network(protocol, eventlist, FatTreeTopology, k=k, seed=seed)
    topology = network.topology
    core_node, agg_node = topology.core_agg_pair(core=0, pod=k - 1)
    controller = FabricController(topology)
    controller.schedule_outage(core_node, agg_node, fail_at_ps, recover_at_ps)
    flows = experiment.start_permutation(network, flow_bytes, rng=random.Random(seed))
    rate = RateEstimator()
    series = TimeSeriesSampler(
        eventlist, sample_period_ps,
        lambda: rate.update(
            eventlist.now(), sum(f.record.bytes_delivered for f in flows)
        ),
    )
    series.start()
    eventlist.run(until=duration_ps)
    return {
        "goodput": series.samples,
        "flows": len(flows),
        "completed": sum(1 for f in flows if f.record.completed),
        "bytes_delivered": sum(f.record.bytes_delivered for f in flows),
        "link_events": [e.describe() for e in controller.fired],
    }


def failures_klinks_plan(
    links_down: int = 1,
    k: int = 4,
    flow_bytes: int = 500_000,
    timeout_ps: int = units.milliseconds(40),
    protocols: Optional[Sequence[str]] = None,
    seed: int = 31,
    protocol: Optional[str] = None,
) -> Plan:
    """Permutation FCTs with *links_down* core cables cut before the run.

    The k-links-down resilience sweep (``python -m repro.cli sweep
    failures_klinks --set links_down=0,1,2``): cores 0..links_down-1 into
    pod k-1 are cut, the ECMP groups re-hash over the survivors, then a
    permutation runs to completion.  Both transports complete (the failures
    precede flow creation) but with fewer core paths NDP degrades gracefully
    while per-flow ECMP's collision probability — and tail FCT — climbs.

    One spec per protocol at one ``links_down`` level (sweep via the CLI).
    """
    core_count = (k // 2) ** 2
    if not 0 <= links_down < core_count:
        raise ValueError(
            f"links_down must be in [0, {core_count}) for k={k} "
            f"(failing every core link into one pod partitions it)"
        )
    if protocol is not None:
        protocols = (protocol,)
    protocols = _resolve_protocols(
        protocols,
        (registry.NDP, registry.TCP),
        FamilyTraits(family="failures_klinks", severs_links=True),
    )
    specs = [
        RunSpec(
            f"failures_klinks[{name},down={links_down}]",
            _failures_klinks_case,
            dict(
                protocol=name, links_down=links_down, k=k,
                flow_bytes=flow_bytes, timeout_ps=timeout_ps, seed=seed,
            ),
        )
        for name in protocols
    ]
    return Plan(specs, lambda results: list(results))


def _failures_klinks_case(protocol, links_down, k, flow_bytes, timeout_ps, seed):
    """Unit run: one transport's permutation with N core links pre-failed."""
    eventlist = EventList()
    network = registry.build_network(protocol, eventlist, FatTreeTopology, k=k, seed=seed)
    topology = network.topology
    for core in range(links_down):
        topology.fail_core_link(core=core, pod=k - 1)
    flows = experiment.start_permutation(network, flow_bytes, rng=random.Random(seed))
    result = experiment.run_until_complete(network, flows, timeout_ps)
    return {
        "protocol": protocol,
        "links_down": links_down,
        "flows": len(flows),
        "completed": len(result.completed()),
        **result.summary(),
    }


# ---------------------------------------------------------------------------
# load_fct family — open-loop dynamic workloads: FCT slowdown vs offered load.
# No single paper figure: the paper's short-flow-latency claims are evaluated
# under continuous traffic, and load-vs-FCT-slowdown curves are the standard
# lens for that axis (pFabric/pHost/Homa methodology).
# ---------------------------------------------------------------------------

#: the transports compared by default in the load sweeps: NDP against an ECN
#: baseline (DCTCP) and a per-flow-ECMP loss-based control (TCP); any
#: registered transport can be requested via ``protocols`` / ``protocol``
_LOAD_FCT_DEFAULT_PROTOCOLS = (registry.NDP, registry.DCTCP, registry.TCP)

#: empirical flow-size mixes selectable via the ``workload`` parameter
_LOAD_FCT_WORKLOADS = {
    "fbweb": FacebookWebFlowSizes,
    "websearch": WebSearchFlowSizes,
    "datamining": DataMiningFlowSizes,
}


def load_fct_plan(
    load: Optional[float] = None,
    loads: Sequence[float] = (0.1, 0.5, 0.9),
    protocols: Optional[Sequence[str]] = None,
    fabric: str = "fattree",
    k: int = 4,
    leaves: int = 4,
    spines: int = 4,
    hosts_per_leaf: int = 4,
    workload: str = "fbweb",
    matrix: str = "all_to_all",
    warmup_ps: int = units.milliseconds(1),
    measure_ps: int = units.milliseconds(2),
    drain_ps: int = units.milliseconds(2),
    seed: int = 33,
    protocol: Optional[str] = None,
) -> Plan:
    """Size-binned FCT slowdowns of an open-loop load sweep.

    An empirical flow-size mix (``workload``: ``fbweb`` / ``websearch`` /
    ``datamining``) arrives Poisson at each target ``load`` (fraction of
    bisection bandwidth, see :mod:`repro.workloads.openloop`) on a
    ``fabric`` (``fattree`` with arity ``k``, or ``leafspine``), once per
    protocol.  Flows arriving in the warmup window are discarded, flows in
    the measurement window are scored, and the drain window lets stragglers
    finish.  One row per (load, protocol) with per-size-bin
    p50/p99/p999 slowdowns (vs :func:`~repro.harness.metrics.
    ideal_transfer_time_ps`), completion/censoring counts and the seeded
    arrival-sequence digest (cold, cached and parallel runs must agree
    bit-for-bit).

    One spec per (load level, protocol) open-loop run.

    ``load`` (a single level) overrides ``loads`` (the default sweep), and
    ``protocol`` (a single transport) overrides ``protocols`` — this is what
    makes ``repro.cli load_fct --set load=0.3,0.6 --set protocol=ndp,phost``
    a natural grid: each grid point builds a single-(load, protocol) plan.
    """
    if load is not None:
        loads = (load,)
    loads = tuple(float(level) for level in loads)
    if not loads or not all(math.isfinite(level) and level > 0 for level in loads):
        raise ValueError(f"loads must be positive finite fractions, got {loads}")
    if fabric not in ("fattree", "leafspine"):
        raise ValueError(f"fabric must be 'fattree' or 'leafspine', got {fabric!r}")
    if workload not in _LOAD_FCT_WORKLOADS:
        raise ValueError(
            f"unknown workload {workload!r} (choose from "
            f"{', '.join(_LOAD_FCT_WORKLOADS)})"
        )
    if protocol is not None:
        protocols = (protocol,)
    protocols = _resolve_protocols(
        protocols, _LOAD_FCT_DEFAULT_PROTOCOLS, FamilyTraits(family="load_fct")
    )
    cases = [(level, name) for level in loads for name in protocols]
    specs = [
        RunSpec(
            f"load_fct[{name},load={level:g},{fabric},{workload}]",
            _load_fct_point,
            dict(
                protocol=name, load=level, fabric=fabric, k=k, leaves=leaves,
                spines=spines, hosts_per_leaf=hosts_per_leaf, workload=workload,
                matrix=matrix, warmup_ps=warmup_ps, measure_ps=measure_ps,
                drain_ps=drain_ps, seed=seed,
            ),
        )
        for level, name in cases
    ]
    return Plan(specs, lambda results: list(results))


def _open_loop_base_rtt_ps(topology) -> int:
    """Propagation RTT of the fabric's longest host-to-host path.

    The slowdown baseline's RTT component: twice the hop count of the
    longest path between the first and last host (a cross-pod / cross-leaf
    pair in the fabrics used here) times the per-hop propagation delay.
    Serialization and queueing are deliberately excluded — they are what
    the slowdown numerator measures.
    """
    hosts = topology.hosts()
    paths = topology.node_paths(hosts[0], hosts[-1])
    hops = max(len(path) - 1 for path in paths)
    return 2 * hops * topology.link_delay_ps


def _load_fct_point(
    protocol, load, fabric, k, leaves, spines, hosts_per_leaf, workload,
    matrix, warmup_ps, measure_ps, drain_ps, seed,
):
    """Unit run: one (protocol, load) row of the open-loop slowdown sweep."""
    eventlist = EventList()
    if fabric == "fattree":
        network = registry.build_network(
            protocol, eventlist, FatTreeTopology, k=k, seed=seed
        )
    else:
        network = registry.build_network(
            protocol, eventlist, LeafSpineTopology,
            leaves=leaves, spines=spines, hosts_per_leaf=hosts_per_leaf, seed=seed,
        )
    topology = network.topology
    generator = OpenLoopGenerator(
        eventlist,
        network,
        hosts=topology.hosts(),
        flow_sizes=_LOAD_FCT_WORKLOADS[workload](),
        target_load=load,
        link_rate_bps=topology.link_rate_bps,
        warmup_ps=warmup_ps,
        measure_ps=measure_ps,
        drain_ps=drain_ps,
        matrix=matrix,
        rng=random.Random(seed),
    )
    completed = experiment.run_open_loop(network, generator)
    measured = generator.measured_records(completed_only=False)
    # one normalization across all protocols: jumbo framing and the fabric's
    # longest-path propagation RTT, so rows are comparable on a single axis
    slowdown = metrics.binned_slowdown_summary(
        completed,
        link_rate_bps=topology.link_rate_bps,
        mtu_bytes=units.JUMBO_MTU_BYTES,
        header_bytes=units.HEADER_BYTES,
        base_rtt_ps=_open_loop_base_rtt_ps(topology),
    )
    return {
        "protocol": protocol,
        "load": load,
        "fabric": fabric,
        "workload": workload,
        "hosts": len(topology.hosts()),
        "arrival_rate_per_second": generator.arrival_rate_per_second,
        "offered_gbps": generator.offered_load_bps / 1e9,
        "flows_offered": generator.flows_started,
        "flows_measured": len(measured),
        "measured_completed": len(completed),
        "measured_censored": len(measured) - len(completed),
        "arrival_digest": generator.arrival_digest(),
        "slowdown": slowdown,
    }


# ---------------------------------------------------------------------------
# rpc_deadline / coflow_ct families — service-level workloads (DAG requests).
# The paper's incast figures are the degenerate case of partition-aggregate;
# these families evaluate the full pattern: RPC trees with SLO deadlines and
# multi-stage shuffle coflows arriving open-loop, per registry transport.
# ---------------------------------------------------------------------------

#: transports compared by default in the service-level families: NDP against
#: the ECN baseline and the loss-based per-flow-ECMP control
_SERVICE_DEFAULT_PROTOCOLS = (registry.NDP, registry.DCTCP, registry.TCP)


def _validated_loads(load, loads) -> Tuple[float, ...]:
    """Shared load-axis validation: scalar overrides sweep, all positive finite."""
    if load is not None:
        loads = (load,)
    loads = tuple(float(level) for level in loads)
    if not loads or not all(math.isfinite(level) and level > 0 for level in loads):
        raise ValueError(f"loads must be positive finite fractions, got {loads}")
    return loads


def rpc_deadline_plan(
    load: Optional[float] = None,
    loads: Sequence[float] = (0.1, 0.3),
    protocols: Optional[Sequence[str]] = None,
    fanout: int = 8,
    request_bytes: int = 2_000,
    response_bytes: int = 90_000,
    deadline_us: float = 1_500.0,
    k: int = 4,
    warmup_ps: int = units.microseconds(500),
    measure_ps: int = units.milliseconds(2),
    drain_ps: int = units.milliseconds(4),
    seed: int = 41,
    protocol: Optional[str] = None,
) -> Plan:
    """Fraction of partition-aggregate requests meeting their SLO vs load.

    Seeded open-loop request arrivals (each a frontend scattering
    ``request_bytes`` to ``fanout`` workers and gathering ``response_bytes``
    incast responses) on a k=``k`` FatTree, once per (load, protocol).  A
    request meets its SLO when its slowest leaf delivers within
    ``deadline_us`` of arrival; censored requests count as misses.  One row
    per point with SLO fraction, request-latency percentiles, counts and
    the trace/request digests (cold == cached == parallel, bit-identical).

    One spec per (load, protocol) partition-aggregate SLO run.

    ``load`` overrides ``loads`` and ``protocol`` overrides ``protocols``,
    so ``repro.cli sweep rpc_deadline --set load=0.1,0.3 --set
    protocol=ndp,tcp`` expands to single-point plans (the load_fct grid
    convention).
    """
    loads = _validated_loads(load, loads)
    if fanout < 1:
        raise ValueError(f"fanout must be >= 1, got {fanout}")
    if request_bytes <= 0 or response_bytes <= 0:
        raise ValueError("request/response bytes must be positive")
    if not (math.isfinite(deadline_us) and deadline_us > 0):
        raise ValueError(f"deadline_us must be positive and finite, got {deadline_us!r}")
    if protocol is not None:
        protocols = (protocol,)
    protocols = _resolve_protocols(
        protocols, _SERVICE_DEFAULT_PROTOCOLS, FamilyTraits(family="rpc_deadline")
    )
    specs = [
        RunSpec(
            f"rpc_deadline[{name},load={level:g},fanout={fanout}]",
            _rpc_deadline_point,
            dict(
                protocol=name, load=level, fanout=fanout,
                request_bytes=request_bytes, response_bytes=response_bytes,
                deadline_us=deadline_us, k=k, warmup_ps=warmup_ps,
                measure_ps=measure_ps, drain_ps=drain_ps, seed=seed,
            ),
        )
        for level in loads
        for name in protocols
    ]
    return Plan(specs, lambda results: list(results))


def _rpc_deadline_point(
    protocol, load, fanout, request_bytes, response_bytes, deadline_us,
    k, warmup_ps, measure_ps, drain_ps, seed,
):
    """Unit run: one (protocol, load) row of the partition-aggregate SLO sweep."""
    template = PartitionAggregateTemplate(fanout, request_bytes, response_bytes)
    deadline_ps = int(round(deadline_us * units.MICROSECOND))
    row, engine, measured, completed = _service_point(
        protocol, load, template, k, warmup_ps, measure_ps, drain_ps, seed,
        deadline_ps=deadline_ps,
    )
    row.update(
        fanout=fanout,
        deadline_us=deadline_us,
        slo_met_fraction=metrics.slo_met_fraction(
            (run.latency_ps for run in completed), deadline_ps, total=len(measured)
        ),
    )
    return row


def coflow_ct_plan(
    load: Optional[float] = None,
    loads: Sequence[float] = (0.1, 0.3),
    protocols: Optional[Sequence[str]] = None,
    width: int = 4,
    rounds: int = 2,
    bytes_per_pair: int = 60_000,
    k: int = 4,
    warmup_ps: int = units.milliseconds(1),
    measure_ps: int = units.milliseconds(4),
    drain_ps: int = units.milliseconds(4),
    seed: int = 43,
    protocol: Optional[str] = None,
) -> Plan:
    """Coflow completion times of open-loop K-round shuffles vs load.

    Each request is a ``width`` x ``width`` bipartite shuffle repeated for
    ``rounds`` barrier-separated rounds; its CCT is slowest-leaf delivery
    minus arrival.  One row per (load, protocol) with size-binned CCT stats
    (bins shared with the flow-slowdown layer), counts and digests.

    One spec per (load, protocol) shuffle-coflow run (grid conventions as
    :func:`rpc_deadline_plan`).
    """
    loads = _validated_loads(load, loads)
    if width < 1 or rounds < 1:
        raise ValueError(f"width and rounds must be >= 1, got {width}x{rounds}")
    if bytes_per_pair <= 0:
        raise ValueError(f"bytes_per_pair must be positive, got {bytes_per_pair}")
    if protocol is not None:
        protocols = (protocol,)
    protocols = _resolve_protocols(
        protocols, _SERVICE_DEFAULT_PROTOCOLS, FamilyTraits(family="coflow_ct")
    )
    specs = [
        RunSpec(
            f"coflow_ct[{name},load={level:g},width={width}x{rounds}]",
            _coflow_ct_point,
            dict(
                protocol=name, load=level, width=width, rounds=rounds,
                bytes_per_pair=bytes_per_pair, k=k, warmup_ps=warmup_ps,
                measure_ps=measure_ps, drain_ps=drain_ps, seed=seed,
            ),
        )
        for level in loads
        for name in protocols
    ]
    return Plan(specs, lambda results: list(results))


def _coflow_ct_point(
    protocol, load, width, rounds, bytes_per_pair, k,
    warmup_ps, measure_ps, drain_ps, seed,
):
    """Unit run: one (protocol, load) row of the coflow CCT sweep."""
    template = CoflowShuffleTemplate(width, bytes_per_pair, rounds)
    row, engine, measured, completed = _service_point(
        protocol, load, template, k, warmup_ps, measure_ps, drain_ps, seed
    )
    row.update(
        width=width,
        rounds=rounds,
        coflow_bytes=width * width * bytes_per_pair * rounds,
        cct_us=metrics.binned_cct_summary(
            (run.spec.total_bytes(), run.latency_ps / units.MICROSECOND)
            for run in completed
        ),
    )
    return row


def _service_point(
    protocol, load, template, k, warmup_ps, measure_ps, drain_ps, seed,
    deadline_ps=None,
):
    """Shared mechanics of one service-workload point: build the network,
    synthesize the seeded request specs, execute them, and return the
    common row fields plus the engine and measured/completed populations."""
    eventlist = EventList()
    network = registry.build_network(
        protocol, eventlist, FatTreeTopology, k=k, seed=seed
    )
    topology = network.topology
    request_specs = synthesize_requests(
        topology.hosts(),
        [template],
        target_load=load,
        link_rate_bps=topology.link_rate_bps,
        warmup_ps=warmup_ps,
        measure_ps=measure_ps,
        drain_ps=drain_ps,
        rng=random.Random(seed),
        deadline_ps=deadline_ps,
    )
    horizon_ps = warmup_ps + measure_ps + drain_ps
    engine = experiment.run_service_requests(
        network,
        request_specs,
        horizon_ps=horizon_ps,
        window_fn=lambda arrival: service_window_of(arrival, warmup_ps, measure_ps),
    )
    measured = engine.requests_in_window(MEASURE)
    completed = [run for run in measured if run.completed]
    latencies_us = sorted(run.latency_ps / units.MICROSECOND for run in completed)
    row = {
        "protocol": protocol,
        "load": load,
        "template": template.name,
        "hosts": len(topology.hosts()),
        "requests_offered": len(request_specs),
        "requests_measured": len(measured),
        "measured_completed": len(completed),
        "measured_censored": len(measured) - len(completed),
        "latency_us": metrics.population_stats(latencies_us),
        "trace_digest": trace_digest(request_specs),
        "request_digest": engine.request_digest(),
    }
    return row, engine, measured, completed


# ---------------------------------------------------------------------------
# The family table
# ---------------------------------------------------------------------------

class Chart(NamedTuple):
    """How a family's assembled result becomes a rendered chart.

    The results-to-figures pipeline (:mod:`repro.analysis`) renders every
    charted family as a canonical CSV plus a Vega-Lite spec.  ``tabulate``
    turns the assembled result into a flat list of mapping rows (the
    long-format table the CSV and the chart share); it must be pure, with
    row order depending only on the result's content.  The remaining
    fields are the chart-level facts: what to call it, which *tabulated*
    (flattened) columns form the axes, which column splits the series, and
    the mark type.  ``x_type`` is the Vega-Lite encoding type of the x
    column (``quantitative`` / ``ordinal`` / ``nominal``); ``columns``
    optionally pins the CSV schema, for charts that can legitimately
    tabulate to zero rows.
    """

    title: str
    mark: str
    x: str
    y: str
    tabulate: Callable[[Any], List[Mapping[str, Any]]]
    series: Optional[str] = None
    x_type: str = "quantitative"
    columns: Optional[Tuple[str, ...]] = None


class Family(NamedTuple):
    """One experiment family: CLI name, one-line description, plan builder.

    ``plan`` returns a :class:`~repro.harness.sweep.Plan`; its keyword
    arguments are what ``python -m repro.cli sweep`` overrides.  Families
    with a ``chart`` are the simulation-backed figures of ``repro.cli
    render``.  The ``perf`` render figure (:mod:`repro.analysis.perf`)
    reuses this record with ``plan=None``: its rows come from the perf
    history, not a simulation, and it is not in :data:`FAMILIES`.
    """

    name: str
    description: str
    plan: Optional[Callable[..., Plan]]
    chart: Optional[Chart] = None


#: every experiment family, in catalogue order (``repro.cli list``, ``all``
#: and ``render``).  Names and plan keyword arguments are sweep-cache keys.
FAMILIES: Dict[str, Family] = {
    family.name: family
    for family in (
        Family("fig2", "CP congestion collapse vs the NDP switch", figure2_plan),
        Family("fig4", "delivery latency CDF (permutation/random/incast)", figure4_plan),
        Family("fig8", "1 KB RPC latency across stacks", figure8_plan),
        Family("fig9", "7:1 incast on the testbed topology", figure9_plan),
        Family(
            "fig10", "short-flow FCT: idle vs prioritized vs not", figure10_plan,
            Chart("Short-flow FCT with receiver-side prioritization",
                  "bar", "scenario", "fct_us", _rows_fig10, x_type="nominal"),
        ),
        Family(
            "fig11", "throughput vs initial window", figure11_plan,
            # already long-format (initial_window, throughput_gbps) rows
            Chart("Throughput vs initial window (back-to-back hosts)",
                  "line", "initial_window", "throughput_gbps", list),
        ),
        Family(
            "fig12", "pull-spacing percentiles per packet size", figure12_plan,
            Chart("Pull-spacing distribution of the experimental pacer",
                  "bar", "packet_bytes", "median_us", _rows_fig12, x_type="ordinal"),
        ),
        Family(
            "fig13", "incast FCT, perfect vs jittered pulls", figure13_plan,
            Chart("Incast FCT with perfect vs jittered pull spacing",
                  "line", "flow_kb", "fct_us", _rows_fig13, series="pacer"),
        ),
        Family("fig14", "permutation throughput across protocols", figure14_plan),
        Family("fig15", "90 KB FCT with background load", figure15_plan),
        Family(
            "fig16", "incast scaling across protocols", figure16_plan,
            Chart("Incast completion time vs number of senders",
                  "line", "senders", "completion_ms", _rows_fig16, series="protocol"),
        ),
        Family("fig17", "IW / buffer-size sensitivity", figure17_plan),
        Family("fig19", "collateral damage of an incast (goodput traces)", figure19_plan),
        Family("fig20", "very large incasts: overhead and RTX mechanisms", figure20_plan),
        Family("fig21", "sender-limited traffic throughput table", figure21_plan),
        Family("fig22", "permutation with a degraded core link", figure22_plan),
        Family("fig23", "oversubscribed fabric, web workload", figure23_plan),
        Family("phost", "NDP vs pHost (no trimming)",  # transport-name-ok: experiment family
               phost_plan),
        Family("scaling", "permutation utilization vs topology size", scaling_plan),
        Family("uplinks", "where packets get trimmed (load balancing)", uplink_trimming_plan),
        Family("failures_degraded", "permutation FCTs over a degraded core link",
               failures_degraded_plan),
        Family("failures_recovery", "mid-transfer link failure + recovery timeline",
               failures_recovery_plan),
        Family("failures_klinks", "permutation FCTs with k core links down",
               failures_klinks_plan),
        Family(
            "load_fct", "size-binned FCT slowdowns vs load", load_fct_plan,
            # one row per (load, protocol); nested slowdown stats flatten to
            # dotted columns (``slowdown.all.p99``) in the canonical CSV layer
            Chart("p99 FCT slowdown vs offered load (open-loop)",
                  "line", "load", "slowdown.all.p99", list, series="protocol"),
        ),
        Family("rpc_deadline", "partition-aggregate RPCs: SLO-met fraction vs load",
               rpc_deadline_plan),
        Family("coflow_ct", "K-round shuffle coflows: completion times vs load",
               coflow_ct_plan),
    )
}

#: family name -> plan builder.  Every caller looks builders up here at call
#: time rather than through ``FAMILIES[name].plan``, so wrapping an entry
#: (e.g. to time plan builds) reaches every entry point.
FIGURE_PLANS: Dict[str, Callable[..., Plan]] = {
    name: family.plan for name, family in FAMILIES.items()
}


def run_family(name: str, **kwargs: Any) -> Any:
    """Build family *name*'s plan from *kwargs* and run it through the cache."""
    return run_plan(FIGURE_PLANS[name](**kwargs))
