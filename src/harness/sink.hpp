// MetricSink — the stream protocol between the experiment runner and its
// outputs. The runner announces the plan (begin), emits one compact
// RunRecord per expanded run as soon as it is folded (record), and closes
// (end). Records carry only aggregated scalars, never per-node vectors, so
// a 10k-node multi-seed sweep streams through sinks without ever buffering
// full ExperimentResults.
#pragma once

#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/csv.hpp"
#include "common/json.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/telemetry/counters.hpp"

namespace fairswap::harness {

/// The sweep axes and fixed base parameters of a plan, as strings — what a
/// sink needs to label its output and nothing more.
struct PlanSummary {
  std::string title;
  /// Canonical key=value snapshot of the base config (binding-table order).
  std::vector<std::pair<std::string, std::string>> base;
  /// Axis keys in expansion order (last varies fastest) with their values.
  std::vector<std::pair<std::string, std::vector<std::string>>> axes;
  std::size_t seeds{1};
  std::size_t threads{1};
  std::size_t run_count{0};
};

/// Which section of the sink schema a metric belongs to. Sim-plane
/// metrics are part of the bit-identity contract; the wall plane (measured
/// time) is not.
enum class Plane { kSim, kWall };

/// The one list of per-run metrics. Calls `fn(name, plane, set.field...)`
/// once per metric, passing the same field of every `sets` argument (any
/// Metrics<T>), in the fixed schema order the CSV and JSON sinks emit.
/// Adding a metric here (and to Metrics) adds it to every sink and to
/// run_plan's fold. New metrics are appended at the end so existing
/// column prefixes stay stable for downstream readers.
template <typename Fn, typename... Sets>
void visit_metrics(Fn&& fn, Sets&&... sets) {
  fn("gini_f2", Plane::kSim, sets.gini_f2...);
  fn("gini_f1", Plane::kSim, sets.gini_f1...);
  fn("gini_f1_income", Plane::kSim, sets.gini_f1_income...);
  fn("avg_forwarded", Plane::kSim, sets.avg_forwarded...);
  fn("routing_success", Plane::kSim, sets.routing_success...);
  fn("total_income", Plane::kSim, sets.total_income...);
  fn("outstanding_debt", Plane::kSim, sets.outstanding_debt...);
  fn("settlements", Plane::kSim, sets.settlements...);
  fn("total_transmissions", Plane::kSim, sets.total_transmissions...);
  fn("delivered", Plane::kSim, sets.delivered...);
  fn("failed_routes", Plane::kSim, sets.failed_routes...);
  fn("truncated_routes", Plane::kSim, sets.truncated_routes...);
  fn("cache_serves", Plane::kSim, sets.cache_serves...);
  fn("fct_p50", Plane::kSim, sets.fct_p50...);
  fn("fct_p99", Plane::kSim, sets.fct_p99...);
  fn("fct_mean", Plane::kSim, sets.fct_mean...);
  fn("flows_timed_out", Plane::kSim, sets.flows_timed_out...);
  fn("saturated_links", Plane::kSim, sets.saturated_links...);
  fn("runtime_s", Plane::kWall, sets.runtime_s...);
  fn("hops_p50", Plane::kSim, sets.hops_p50...);
  fn("hops_p99", Plane::kSim, sets.hops_p99...);
  fn("served_p99", Plane::kSim, sets.served_p99...);
  fn("income_p99", Plane::kSim, sets.income_p99...);
  fn("final_prevalence", Plane::kSim, sets.final_prevalence...);
  fn("converged_epoch", Plane::kSim, sets.converged_epoch...);
}

/// One value of type T per headline metric: a double per (run, seed)
/// cell inside run_plan, a RunningStats per run across seeds in the
/// records sinks receive (MetricStats; with a single seed the mean is the
/// value and the stddev is 0).
template <typename T>
struct Metrics {
  T gini_f2{};
  T gini_f1{};
  T gini_f1_income{};
  T avg_forwarded{};
  T routing_success{};
  T total_income{};
  T outstanding_debt{};
  T settlements{};
  T total_transmissions{};
  T delivered{};
  T failed_routes{};
  T truncated_routes{};
  T cache_serves{};
  T fct_p50{};
  T fct_p99{};
  T fct_mean{};
  T flows_timed_out{};
  T saturated_links{};
  /// WALL PLANE — the one timing metric. Telemetry-enabled builds emit
  /// it through for_each_wall (a separate schema section excluded from
  /// the bit-identity contract); OFF builds keep it in for_each at its
  /// historical position so their output is byte-identical to pre-
  /// telemetry releases.
  T runtime_s{};
  // Streaming-sketch percentiles (common/stream_stats); hops_* are 0
  // unless stream_metrics= is on.
  T hops_p50{};
  T hops_p99{};
  T served_p99{};
  T income_p99{};
  // Agents-aware sweep outputs (epochs= on the sweep path): final
  // free-rider prevalence and the convergence epoch (-1 when the epoch
  // game did not converge; both 0 on flat runs).
  T final_prevalence{};
  T converged_epoch{};

  /// Visits every SIM-PLANE metric as (name, value) in schema order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    visit_metrics(
        [&](const char* name, Plane plane, const T& value) {
          // OFF builds have no wall section, so runtime_s stays at its
          // historical mid-list position.
          if (plane == Plane::kSim || !telemetry::kEnabled) fn(name, value);
        },
        *this);
  }

  /// Visits the WALL-PLANE metrics (telemetry-enabled builds only) —
  /// excluded from every bit-identity check; the sinks emit them in a
  /// section of their own so consumers can tell the planes apart.
  template <typename Fn>
  void for_each_wall(Fn&& fn) const {
    visit_metrics(
        [&](const char* name, Plane plane, const T& value) {
          if (plane == Plane::kWall && telemetry::kEnabled) fn(name, value);
        },
        *this);
  }
};

/// Per-run aggregates across seeds, folded in seed order.
using MetricStats = Metrics<RunningStats>;

/// One expanded run's identity plus its folded metrics.
struct RunRecord {
  std::size_t index{0};
  std::string label;
  /// The axis assignment that produced this run, in axis order.
  std::vector<std::pair<std::string, std::string>> assignment;
  std::size_t seeds{1};
  MetricStats metrics;
  /// Sim-plane counter totals summed over the run's seeds — exact
  /// integers, bit-identical for any threads= (all zero and omitted from
  /// sink output in FAIRSWAP_TELEMETRY=OFF builds).
  telemetry::CounterBlock counters;
};

/// Receives a stream of run records. Implementations must not assume they
/// see records before end() (a failing plan may emit none).
class MetricSink {
 public:
  virtual ~MetricSink() = default;

  virtual void begin(const PlanSummary& plan) { (void)plan; }
  virtual void record(const RunRecord& run) = 0;
  virtual void end() {}
};

/// Renders an aligned text table of the headline metrics (stdout-style
/// sink). Values print as "mean ± sd" for multi-seed runs.
class TableSink final : public MetricSink {
 public:
  explicit TableSink(std::ostream& out) : out_(&out) {}

  void begin(const PlanSummary& plan) override;
  void record(const RunRecord& run) override;
  void end() override;

 private:
  std::ostream* out_;
  std::optional<TextTable> table_;
};

/// Streams one CSV row per run: label, axis values, seed count, then
/// mean/sd for every metric. Header goes out at begin(), rows as runs
/// complete — nothing is buffered.
class CsvSink final : public MetricSink {
 public:
  explicit CsvSink(std::ostream& out) : writer_(out) {}

  void begin(const PlanSummary& plan) override;
  void record(const RunRecord& run) override;

 private:
  CsvWriter writer_;
};

/// Streams the general machine-readable roll-up, schema fairswap.run.v1:
/// {"schema":"fairswap.run.v1","title":...,"plan":{...},"runs":[...]}.
/// The plan header is written at begin(), each run object as it completes,
/// and the document is closed at end().
class JsonSink final : public MetricSink {
 public:
  explicit JsonSink(std::ostream& out) : json_(out) {}

  void begin(const PlanSummary& plan) override;
  void record(const RunRecord& run) override;
  void end() override;

 private:
  JsonWriter json_;
};

/// Keeps the plan summary and every record in memory, for callers that
/// render their own output from the folded stats (and for tests).
class CollectSink final : public MetricSink {
 public:
  void begin(const PlanSummary& plan) override { summary = plan; }
  void record(const RunRecord& run) override { records.push_back(run); }
  void end() override { ended = true; }

  PlanSummary summary;
  std::vector<RunRecord> records;
  bool ended{false};
};

}  // namespace fairswap::harness
