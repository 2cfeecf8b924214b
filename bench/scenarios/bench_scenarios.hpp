// The experiments that call modules below core (overlay graph metrics,
// churn, forwarding routes with link latencies, cheques, iterative
// lookup, the storage game) as registered scenarios. The lint layer DAG
// lets src/harness include only agents, common and core, so these bodies
// live on the bench side; fairswap_run and the harness tests both link
// them.
#pragma once

namespace fairswap::bench {

/// Registers ablation_bucket0, ablation_k_sweep, churn, latency,
/// overhead, privacy and storage_game with the harness registry, after
/// the built-in scenarios. Idempotent.
void register_bench_scenarios();

}  // namespace fairswap::bench
