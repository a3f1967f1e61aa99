"""§6.2 "Who needs packet trimming?" — NDP versus pHost."""

from benchmarks.conftest import print_mapping, run_cached
from repro.harness import figures


def test_phost_comparison(benchmark, sim_cache):
    result = run_cached(
        benchmark,
        sim_cache,
        figures.run_family, "phost",
        incast_senders=24,
        incast_bytes=270_000,
    )
    print_mapping("pHost comparison (no trimming, same 8-packet buffers)", result)

    benchmark.extra_info.update(result)

    # same shallow buffers, same receiver-driven idea — but without trimming
    # the receiver is blind to losses, so the incast takes much longer and the
    # permutation utilization is noticeably lower
    assert result["pHost_incast_ms"] > 1.25 * result["NDP_incast_ms"]
    assert result["NDP_permutation_utilization"] > 0.85
    assert (
        result["pHost_permutation_utilization"]
        < result["NDP_permutation_utilization"] - 0.04
    )
