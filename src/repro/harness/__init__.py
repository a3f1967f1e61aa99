"""Experiment harness: network builders, workload runners, metrics, sweeps.

The harness is the layer the examples and benchmarks use.  It turns a
(topology, transport) pair into a *network* object with a uniform
``create_flow`` interface, provides canonical workload runners (permutation,
random, incast, short-flows-over-background, closed-loop workloads), and
computes the metrics the paper reports (flow completion times, utilization,
goodput time series, CDFs).

:mod:`repro.harness.sweep` is the execution layer: figures decompose into
independent :class:`~repro.harness.sweep.RunSpec` units that can be fanned
across worker processes and are memoized in a persistent on-disk result
cache (``$REPRO_CACHE_DIR``, default ``~/.cache/repro``;
``REPRO_NO_CACHE=1`` disables).  :data:`repro.harness.figures.FAMILIES`
names every experiment family once, and
``figures.run_family(name, **kwargs)`` runs one.  See ``python -m
repro.cli all --jobs 4``.

Network builders (one per protocol, all exposing ``build`` + ``create_flow``):

* :class:`NdpNetwork` — the paper's contribution (trimming switches).
* :class:`TcpNetwork` / :class:`DctcpNetwork` / :class:`MptcpNetwork` /
  :class:`DcqcnNetwork` / :class:`PHostNetwork` — the baselines.
"""

from repro.harness.metrics import (
    cdf_points,
    fair_share_fraction,
    goodput_bps,
    ideal_incast_completion_ps,
    ideal_transfer_time_ps,
    mean,
    percentile,
    summarize_fcts_us,
    utilization_from_records,
)
from repro.harness.ndp_network import NdpFlow, NdpNetwork
from repro.harness.baseline_networks import (
    DcqcnNetwork,
    DctcpNetwork,
    EndpointFlow,
    MptcpFlow,
    MptcpNetwork,
    PHostNetwork,
    TcpNetwork,
)
from repro.harness import experiment, metrics, sweep
from repro.harness.sweep import (
    Plan,
    ResultCache,
    RunSpec,
    default_cache,
    run_plan,
    run_specs,
)

__all__ = [
    "Plan",
    "ResultCache",
    "RunSpec",
    "default_cache",
    "run_plan",
    "run_specs",
    "sweep",
    "cdf_points",
    "percentile",
    "mean",
    "fair_share_fraction",
    "goodput_bps",
    "ideal_incast_completion_ps",
    "ideal_transfer_time_ps",
    "summarize_fcts_us",
    "utilization_from_records",
    "NdpNetwork",
    "NdpFlow",
    "TcpNetwork",
    "DctcpNetwork",
    "MptcpNetwork",
    "DcqcnNetwork",
    "PHostNetwork",
    "EndpointFlow",
    "MptcpFlow",
    "experiment",
    "metrics",
]
