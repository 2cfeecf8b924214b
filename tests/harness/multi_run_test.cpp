// Multi-seed aggregation through run_plan: a plan with seeds = N runs the
// base config at seeds base.seed .. base.seed+N-1 and folds every metric in
// seed order, so the result is the same for any thread count.
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "harness/plan.hpp"
#include "harness/sink.hpp"

namespace fairswap::harness {
namespace {

core::ExperimentConfig tiny_config() {
  core::ExperimentConfig cfg;
  cfg.label = "tiny";
  cfg.topology.node_count = 120;
  cfg.topology.address_bits = 12;
  cfg.topology.buckets.k = 4;
  cfg.sim.workload.min_chunks_per_file = 10;
  cfg.sim.workload.max_chunks_per_file = 30;
  cfg.files = 40;
  cfg.seed = 100;
  return cfg;
}

/// Runs `base` over `seeds` seeds on `threads` workers and returns the one
/// record of the axis-free plan.
RunRecord run_with_seeds(const core::ExperimentConfig& base,
                         std::size_t seeds, std::size_t threads = 1) {
  ExperimentPlan plan;
  plan.base = base;
  plan.seeds = seeds;
  plan.threads = threads;
  CollectSink sink;
  MetricSink* sinks[] = {&sink};
  std::string error;
  EXPECT_TRUE(run_plan(plan, sinks, error)) << error;
  EXPECT_EQ(sink.records.size(), 1u);
  return sink.records.empty() ? RunRecord{} : sink.records.front();
}

TEST(MultiRun, AggregatesRequestedSeedCount) {
  const RunRecord agg = run_with_seeds(tiny_config(), 4);
  EXPECT_EQ(agg.seeds, 4u);
  EXPECT_EQ(agg.metrics.gini_f2.count(), 4u);
  EXPECT_EQ(agg.label, "tiny");
}

TEST(MultiRun, DifferentSeedsProduceVariance) {
  const RunRecord agg = run_with_seeds(tiny_config(), 5);
  EXPECT_GT(agg.metrics.gini_f2.stddev(), 0.0);
  EXPECT_GT(agg.metrics.avg_forwarded.stddev(), 0.0);
}

TEST(MultiRun, MeanMatchesSingleRunForOneSeed) {
  const auto cfg = tiny_config();
  const auto single = core::run_experiment(cfg);
  const RunRecord agg = run_with_seeds(cfg, 1);
  EXPECT_DOUBLE_EQ(agg.metrics.gini_f2.mean(), single.fairness.gini_f2);
  EXPECT_DOUBLE_EQ(agg.metrics.avg_forwarded.mean(),
                   single.avg_forwarded_chunks);
  EXPECT_EQ(agg.metrics.gini_f2.stddev(), 0.0);
}

TEST(MultiRun, IsDeterministic) {
  const RunRecord a = run_with_seeds(tiny_config(), 3);
  const RunRecord b = run_with_seeds(tiny_config(), 3);
  EXPECT_DOUBLE_EQ(a.metrics.gini_f2.mean(), b.metrics.gini_f2.mean());
  EXPECT_DOUBLE_EQ(a.metrics.gini_f1.mean(), b.metrics.gini_f1.mean());
}

TEST(MultiRun, KEffectSurvivesErrorBars) {
  // The paper's headline direction should hold beyond seed noise:
  // mean Gini(k=20) + sd < mean Gini(k=4) - sd. The network must be large
  // enough that k=20 tables are still sparse relative to n (in tiny
  // networks k=20 degenerates to near-full connectivity, where payment
  // concentrates on storers and the effect inverts).
  ExperimentPlan plan;
  plan.base = tiny_config();
  plan.base.label.clear();
  plan.base.topology.node_count = 400;
  plan.base.sim.workload.min_chunks_per_file = 50;
  plan.base.sim.workload.max_chunks_per_file = 150;
  plan.base.files = 150;
  plan.axes = {{"k", {"4", "20"}}};
  plan.seeds = 4;
  plan.threads = 2;

  CollectSink sink;
  MetricSink* sinks[] = {&sink};
  std::string error;
  ASSERT_TRUE(run_plan(plan, sinks, error)) << error;
  ASSERT_EQ(sink.records.size(), 2u);
  const RunningStats& k4 = sink.records[0].metrics.gini_f2;
  const RunningStats& k20 = sink.records[1].metrics.gini_f2;
  EXPECT_EQ(k4.count(), 4u);
  EXPECT_LT(k20.mean() + k20.stddev(), k4.mean() - k4.stddev());
}

// Serial and parallel runs must agree bit for bit, since the per-seed runs
// are independent and the fold order is fixed to seed order.
void expect_identical(const RunRecord& a, const RunRecord& b) {
  EXPECT_EQ(a.seeds, b.seeds);
  EXPECT_EQ(a.label, b.label);
  EXPECT_EQ(a.metrics.gini_f2.mean(), b.metrics.gini_f2.mean());
  EXPECT_EQ(a.metrics.gini_f2.stddev(), b.metrics.gini_f2.stddev());
  EXPECT_EQ(a.metrics.gini_f1.mean(), b.metrics.gini_f1.mean());
  EXPECT_EQ(a.metrics.avg_forwarded.mean(), b.metrics.avg_forwarded.mean());
  EXPECT_EQ(a.metrics.routing_success.mean(),
            b.metrics.routing_success.mean());
  EXPECT_EQ(a.metrics.total_income.mean(), b.metrics.total_income.mean());
  EXPECT_EQ(a.metrics.total_income.sum(), b.metrics.total_income.sum());
}

TEST(MultiRunParallel, BitIdenticalAcrossThreadCounts) {
  const auto cfg = tiny_config();
  const RunRecord serial = run_with_seeds(cfg, 6);
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    const RunRecord parallel = run_with_seeds(cfg, 6, threads);
    expect_identical(serial, parallel);
  }
}

TEST(MultiRunParallel, SingleSeedMatchesSingleExperiment) {
  const auto cfg = tiny_config();
  const auto single = core::run_experiment(cfg);
  const RunRecord agg = run_with_seeds(cfg, 1, 8);
  EXPECT_EQ(agg.seeds, 1u);
  EXPECT_DOUBLE_EQ(agg.metrics.gini_f2.mean(), single.fairness.gini_f2);
  EXPECT_EQ(agg.metrics.gini_f2.stddev(), 0.0);
}

TEST(MultiRunParallel, ZeroThreadsMeansHardwareConcurrency) {
  const RunRecord serial = run_with_seeds(tiny_config(), 3);
  const RunRecord parallel = run_with_seeds(tiny_config(), 3, 0);
  expect_identical(serial, parallel);
}

}  // namespace
}  // namespace fairswap::harness
