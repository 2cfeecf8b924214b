// Parallel multi-seed runner benchmark: runs the same seed list through the
// serial run_seeds path and the TaskPool-backed parallel path at several
// thread counts, checks the aggregates are bit-identical, and reports the
// wall-clock speedup. On a 4+ core machine the parallel path should be
// >=2x faster; on a single core it degenerates to the serial loop.
//
// Overrides: files=<n> seed=<n> seeds=<count> threads=<max> out=<dir>
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"
#include "core/multi_run.hpp"
#include "core/scenarios.hpp"

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

bool identical(const fairswap::core::AggregateResult& a,
               const fairswap::core::AggregateResult& b) {
  return a.runs == b.runs && a.gini_f2.mean() == b.gini_f2.mean() &&
         a.gini_f2.stddev() == b.gini_f2.stddev() &&
         a.gini_f1.mean() == b.gini_f1.mean() &&
         a.avg_forwarded.mean() == b.avg_forwarded.mean() &&
         a.routing_success.mean() == b.routing_success.mean() &&
         a.total_income.sum() == b.total_income.sum();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fairswap;
  auto args = bench::BenchArgs::parse(argc, argv);
  // Multi-seed runs multiply cost by the seed count; default files down.
  args.files = args.cfg.get_or("files", std::uint64_t{1'000});
  const auto seed_count =
      static_cast<std::size_t>(args.cfg.get_or("seeds", std::uint64_t{8}));
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  const auto max_threads = static_cast<std::size_t>(
      args.cfg.get_or("threads", static_cast<std::uint64_t>(hw)));

  auto cfg = core::paper_config(4, 0.2, args.files, args.seed);
  bench::banner("Parallel run_seeds (" + std::to_string(seed_count) +
                " seeds, " + std::to_string(args.files) + " files, " +
                std::to_string(hw) + " hardware threads)");

  std::printf("running serial baseline...\n");
  std::fflush(stdout);
  auto start = std::chrono::steady_clock::now();
  const auto serial = core::run_seeds(cfg, seed_count);
  const double serial_s = seconds_since(start);

  TextTable table({"threads", "wall clock (s)", "speedup", "bit-identical"});
  table.add_row({"serial", TextTable::num(serial_s), "1.00", "-"});

  std::ostringstream csv_text;
  CsvWriter csv(csv_text);
  csv.cells("threads", "seconds", "speedup", "identical");
  csv.cells("serial", serial_s, 1.0, 1);

  bool all_identical = true;
  std::vector<std::size_t> thread_counts{1, 2, 4, 8};
  if (max_threads > 8) thread_counts.push_back(max_threads);
  for (const std::size_t threads : thread_counts) {
    // Always exercise 1 and 2 threads (the 2-thread row checks the pooled
    // path's determinism even on a single-core host); larger counts only
    // when the hardware (or a threads= override) allows.
    if (threads > std::max<std::size_t>(2, max_threads)) continue;
    std::printf("running with %zu threads...\n", threads);
    std::fflush(stdout);
    start = std::chrono::steady_clock::now();
    const auto parallel = core::run_seeds(cfg, seed_count, threads);
    const double parallel_s = seconds_since(start);
    const bool same = identical(serial, parallel);
    all_identical = all_identical && same;
    table.add_row({std::to_string(threads), TextTable::num(parallel_s),
                   TextTable::num(serial_s / parallel_s),
                   same ? "yes" : "NO"});
    csv.cells(threads, parallel_s, serial_s / parallel_s, same ? 1 : 0);
  }

  std::printf("%s", table.render().c_str());
  std::printf("\naggregate (serial): Gini F2 %s, avg forwarded %s\n",
              core::mean_pm_std(serial.gini_f2).c_str(),
              core::mean_pm_std(serial.avg_forwarded, 0).c_str());
  core::write_text_file(args.out_dir + "/multi_run.csv", csv_text.str());
  std::printf("wrote %s/multi_run.csv\n", args.out_dir.c_str());

  if (!all_identical) {
    std::printf("ERROR: parallel aggregate diverged from serial baseline\n");
    return 1;
  }
  return 0;
}
