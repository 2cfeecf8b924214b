// Output-equivalence pins for the migrated scenarios. The first four
// tests render the *old* bench_*.cpp main body (pre-harness, with its
// per-bench topology handling and printf formatting) into a string, and
// the scenario must reproduce it byte for byte — stdout and CSV both. If
// a harness change alters any scenario's output, these tests say exactly
// which bytes moved. The remaining migrated scenarios are pinned by hash
// against the output of the standalone binaries they replaced
// (MigratedScenariosMatchPinnedOutput).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/csv.hpp"
#include "common/table.hpp"
#include "core/experiment.hpp"
#include "core/multi_run.hpp"
#include "core/report.hpp"
#include "core/scenarios.hpp"
#include "harness/scenario.hpp"
#include "scenarios/bench_scenarios.hpp"

namespace fairswap::harness {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string temp_dir(const std::string& leaf) {
  const std::string dir = testing::TempDir() + "fairswap_equiv_" + leaf;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Runs a registered scenario exactly as the CLI would, capturing stdout.
std::string run(const std::string& name, std::vector<std::string> args,
                int expect_code = 0) {
  std::vector<std::string> argv_store = std::move(args);
  argv_store.insert(argv_store.begin(), "prog");
  std::vector<char*> argv;
  for (std::string& a : argv_store) argv.push_back(a.data());
  std::ostringstream out;
  bench::register_bench_scenarios();
  const int code =
      run_scenario(name, static_cast<int>(argv.size()), argv.data(), out);
  EXPECT_EQ(code, expect_code) << out.str();
  return out.str();
}

/// The old bench_util::run_paper_grid: one topology per k, shared across
/// the two originator shares, with the classic progress line.
std::vector<core::ExperimentResult> old_run_paper_grid(std::ostream& out,
                                                       std::size_t files,
                                                       std::uint64_t seed) {
  std::vector<core::ExperimentResult> results;
  for (const std::size_t k : {std::size_t{4}, std::size_t{20}}) {
    const auto cfg_any = core::paper_config(k, 0.2, files, seed);
    const auto topo = core::build_topology(cfg_any);
    for (const double share : {0.2, 1.0}) {
      auto cfg = core::paper_config(k, share, files, seed);
      print(out, "running %s (%zu files)...\n", cfg.label.c_str(), files);
      results.push_back(core::run_experiment(topo, cfg));
    }
  }
  return results;
}

std::vector<const core::ExperimentResult*> as_ptrs(
    const std::vector<core::ExperimentResult>& results) {
  std::vector<const core::ExperimentResult*> ptrs;
  for (const auto& r : results) ptrs.push_back(&r);
  return ptrs;
}

TEST(ScenarioEquivalence, Fig4MatchesOldMain) {
  const std::size_t files = 40;
  const std::string dir_new = temp_dir("fig4_new");
  const std::string dir_old = temp_dir("fig4_old");

  const std::string actual =
      run("fig4", {"files=" + std::to_string(files), "out=" + dir_new});

  // --- Reference: the old bench_fig4.cpp main, verbatim. ---
  std::ostringstream out;
  print(out, "\n=== %s ===\n", "Fig. 4: per-node forwarded-chunk distribution");
  const auto results = old_run_paper_grid(out, files, kDefaultSeed);
  const auto histos = core::served_histograms(as_ptrs(results), 40);

  std::ostringstream csv_text;
  CsvWriter csv(csv_text);
  csv.cells("label", "bin_left", "bin_right", "node_count");
  for (std::size_t i = 0; i < results.size(); ++i) {
    for (std::size_t b = 0; b < histos[i].bin_count(); ++b) {
      csv.cells(results[i].config.label, histos[i].bin_left(b),
                histos[i].bin_right(b), histos[i].count(b));
    }
  }
  core::write_text_file(dir_old + "/fig4_histogram.csv", csv_text.str());

  TextTable table({"configuration", "mean", "median", "p90", "max",
                   "nodes >= 2x mean"});
  for (const auto& r : results) {
    std::size_t heavy = 0;
    for (const auto v : r.served_per_node) {
      if (static_cast<double>(v) >= 2.0 * r.served_summary.mean) ++heavy;
    }
    table.add_row({r.config.label, TextTable::num(r.served_summary.mean, 0),
                   TextTable::num(r.served_summary.median, 0),
                   TextTable::num(r.served_summary.p90, 0),
                   TextTable::num(r.served_summary.max, 0),
                   std::to_string(heavy)});
  }
  print(out, "%s", table.render().c_str());

  const double area_ratio_20 =
      static_cast<double>(results[0].totals.total_transmissions) /
      static_cast<double>(results[2].totals.total_transmissions);
  const double area_ratio_100 =
      static_cast<double>(results[1].totals.total_transmissions) /
      static_cast<double>(results[3].totals.total_transmissions);
  print(out,
        "\nbandwidth area ratio k=4/k=20: %.2fx at 20%% originators "
        "(paper: ~1.6x), %.2fx at 100%% (paper: ~1.25x)\n",
        area_ratio_20, area_ratio_100);
  for (const std::size_t idx : {std::size_t{2}, std::size_t{3}}) {
    print(out, "\n%s histogram (40 bins):\n%s",
          results[idx].config.label.c_str(), histos[idx].render(40).c_str());
  }
  print(out, "wrote %s/fig4_histogram.csv\n", dir_new.c_str());

  EXPECT_EQ(actual, out.str());
  EXPECT_EQ(read_file(dir_new + "/fig4_histogram.csv"),
            read_file(dir_old + "/fig4_histogram.csv"));
}

TEST(ScenarioEquivalence, Table1MatchesOldMain) {
  const std::size_t files = 40;
  const std::string dir_new = temp_dir("table1_new");
  const std::string dir_old = temp_dir("table1_old");

  const std::string actual =
      run("table1", {"files=" + std::to_string(files), "out=" + dir_new});

  // --- Reference: the old bench_table1.cpp main, verbatim. ---
  constexpr double kPaperTable1[2][2] = {{17253.0, 16048.0},
                                         {11356.0, 10904.0}};
  std::ostringstream out;
  print(out, "\n=== %s ===\n", "Table I: average forwarded chunks per node");
  const auto results = old_run_paper_grid(out, files, kDefaultSeed);

  TextTable table({"configuration", "paper", "measured", "measured/paper"});
  std::ostringstream csv_text;
  CsvWriter csv(csv_text);
  csv.cells("k", "originator_share", "paper_avg_forwarded",
            "measured_avg_forwarded");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    const double paper = kPaperTable1[i / 2][i % 2];
    table.add_row({r.config.label, TextTable::num(paper, 0),
                   TextTable::num(r.avg_forwarded_chunks, 0),
                   TextTable::num(r.avg_forwarded_chunks / paper, 2)});
    csv.cells(r.config.topology.buckets.k,
              r.config.sim.workload.originator_share, paper,
              r.avg_forwarded_chunks);
  }
  print(out, "%s", table.render().c_str());

  const double ratio_20 =
      results[0].avg_forwarded_chunks / results[2].avg_forwarded_chunks;
  const double ratio_100 =
      results[1].avg_forwarded_chunks / results[3].avg_forwarded_chunks;
  print(out,
        "\nk=4 / k=20 transmission ratio: %.2fx at 20%% originators "
        "(paper: 1.52x), %.2fx at 100%% (paper: 1.47x)\n",
        ratio_20, ratio_100);
  core::write_text_file(dir_old + "/table1.csv", csv_text.str());
  print(out, "wrote %s/table1.csv\n", dir_new.c_str());

  EXPECT_EQ(actual, out.str());
  EXPECT_EQ(read_file(dir_new + "/table1.csv"),
            read_file(dir_old + "/table1.csv"));
}

TEST(ScenarioEquivalence, FreeRidersMatchesOldMain) {
  const std::size_t files = 40;
  const std::string dir_new = temp_dir("riders_new");
  const std::string dir_old = temp_dir("riders_old");

  const std::string actual =
      run("free_riders", {"files=" + std::to_string(files), "out=" + dir_new});

  // --- Reference: the old bench_free_riders.cpp main, verbatim —
  // including its per-run topology rebuild (the scenario shares one;
  // equal seeds build equal overlays, so the outputs must still match).
  std::ostringstream out;
  print(out, "\n=== %s ===\n", "Extension: free-riding originators vs F1/F2");

  TextTable table({"free-rider share", "Gini F2", "Gini F1 (income)",
                   "total income", "unsettled debt"});
  std::ostringstream csv_text;
  CsvWriter csv(csv_text);
  csv.cells("free_rider_share", "gini_f2", "gini_f1_income", "total_income",
            "outstanding_debt");

  // The old main printed each progress line immediately before its run;
  // the scenario prints all five up front via run_grid. The bytes agree
  // because nothing else writes in between — replicate that here.
  std::vector<core::ExperimentResult> results;
  for (const double share : {0.0, 0.1, 0.25, 0.5, 0.75}) {
    auto cfg = core::paper_config(4, 1.0, files, kDefaultSeed);
    cfg.sim.free_rider_share = share;
    cfg.label = "riders=" + TextTable::num(share, 2);
    print(out, "running %s...\n", cfg.label.c_str());
    results.push_back(core::run_experiment(cfg));
  }
  std::size_t i = 0;
  for (const double share : {0.0, 0.1, 0.25, 0.5, 0.75}) {
    const auto& result = results[i++];
    table.add_row({TextTable::num(share, 2),
                   TextTable::num(result.fairness.gini_f2, 4),
                   TextTable::num(result.fairness.gini_f1_income, 4),
                   TextTable::num(result.total_income, 0),
                   TextTable::num(result.outstanding_debt, 0)});
    csv.cells(share, result.fairness.gini_f2, result.fairness.gini_f1_income,
              result.total_income, result.outstanding_debt);
  }
  print(out, "%s", table.render().c_str());
  print(out,
        "\nreading: free riders shrink total income (fewer paid "
        "serves) and push work into unsettled debt. The income-based "
        "F1 degrades — nodes still forward chunks for free riders but "
        "are never paid for those serves — answering §V's open "
        "question. F2 worsens too: whether a node earns now depends "
        "on *which* originators route through it, not only on the "
        "bandwidth it offers.\n");
  core::write_text_file(dir_old + "/free_riders.csv", csv_text.str());
  print(out, "wrote %s/free_riders.csv\n", dir_new.c_str());

  EXPECT_EQ(actual, out.str());
  EXPECT_EQ(read_file(dir_new + "/free_riders.csv"),
            read_file(dir_old + "/free_riders.csv"));
}

TEST(ScenarioEquivalence, VarianceMatchesOldMain) {
  const std::size_t files = 30;
  const std::uint64_t seeds = 2;
  const std::string dir_new = temp_dir("variance_new");
  const std::string dir_old = temp_dir("variance_old");

  const std::string actual =
      run("variance", {"files=" + std::to_string(files),
                       "seeds=" + std::to_string(seeds), "out=" + dir_new});

  // --- Reference: the old bench_variance.cpp main, verbatim (serial
  // run_seeds; the scenario's parallel fold is bit-identical by the
  // core/multi_run contract). ---
  std::ostringstream out;
  print(out, "\n=== %s ===\n",
        ("Seed variance across the paper grid (" + std::to_string(seeds) +
         " seeds)")
            .c_str());

  TextTable table({"configuration", "Gini F2", "Gini F1", "avg forwarded"});
  std::ostringstream csv_text;
  CsvWriter csv(csv_text);
  csv.cells("label", "gini_f2_mean", "gini_f2_sd", "gini_f1_mean",
            "gini_f1_sd", "avg_forwarded_mean", "avg_forwarded_sd");

  core::AggregateResult k4_20, k20_20;
  for (const std::size_t k : {std::size_t{4}, std::size_t{20}}) {
    for (const double share : {0.2, 1.0}) {
      auto cfg = core::paper_config(k, share, files, kDefaultSeed);
      print(out, "running %s x %llu seeds...\n", cfg.label.c_str(),
            static_cast<unsigned long long>(seeds));
      const auto agg = core::run_seeds(cfg, seeds);
      if (k == 4 && share == 0.2) k4_20 = agg;
      if (k == 20 && share == 0.2) k20_20 = agg;
      table.add_row({cfg.label, core::mean_pm_std(agg.gini_f2),
                     core::mean_pm_std(agg.gini_f1),
                     core::mean_pm_std(agg.avg_forwarded, 0)});
      csv.cells(cfg.label, agg.gini_f2.mean(), agg.gini_f2.stddev(),
                agg.gini_f1.mean(), agg.gini_f1.stddev(),
                agg.avg_forwarded.mean(), agg.avg_forwarded.stddev());
    }
  }
  print(out, "%s", table.render().c_str());

  const double gap = k4_20.gini_f2.mean() - k20_20.gini_f2.mean();
  const double noise = k4_20.gini_f2.stddev() + k20_20.gini_f2.stddev();
  print(out,
        "\nk=4 vs k=20 F2 gap at 20%% originators: %.4f, combined seed "
        "noise: %.4f -> the effect is %s seed noise.\n",
        gap, noise, gap > noise ? "well beyond" : "within");
  core::write_text_file(dir_old + "/variance.csv", csv_text.str());
  print(out, "wrote %s/variance.csv\n", dir_new.c_str());

  EXPECT_EQ(actual, out.str());
  EXPECT_EQ(read_file(dir_new + "/variance.csv"),
            read_file(dir_old + "/variance.csv"));
}

/// 64-bit FNV-1a.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

struct PinnedCsv {
  const char* file;
  std::uint64_t fnv;
};

struct PinnedRun {
  const char* scenario;
  std::vector<std::string> args;
  std::uint64_t stdout_fnv;  ///< with the out= directory replaced by "<out>"
  std::vector<PinnedCsv> csvs;
};

// Hashes of the standalone bench_<scenario> binaries these scenarios
// replaced, run with the same arguments at the default seed (the commands
// are recorded in CHANGES.md).
TEST(ScenarioEquivalence, MigratedScenariosMatchPinnedOutput) {
  const std::vector<PinnedRun> pins = {
      {"fig5", {"files=40"}, 0x0c5918df5ae651e9ULL,
       {{"fig5_lorenz_f2.csv", 0x87d5cac405526f19ULL}}},
      {"fig6", {"files=40"}, 0x622184bca84a8133ULL,
       {{"fig6_lorenz_f1.csv", 0xb1451de4b06d9e2aULL}}},
      {"ablation_bucket0", {"files=20"}, 0xfc16b933c30a23e7ULL,
       {{"ablation_bucket0.csv", 0x74aff3247ab4e4cbULL}}},
      {"ablation_k_sweep", {"files=20"}, 0x9885d25acc90bbb3ULL,
       {{"ablation_k_sweep.csv", 0x108f4fe250c2b06eULL}}},
      {"ablation_policies", {"files=20"}, 0x37746e5edd4d4874ULL,
       {{"ablation_policies.csv", 0xdd82fa2918165f68ULL}}},
      {"caching", {"files=20"}, 0xc7a4ba5394e1815eULL,
       {{"caching.csv", 0x9febc459b2e5accbULL}}},
      {"churn", {"requests=2000"}, 0x931e21c4d6207141ULL,
       {{"churn.csv", 0x636e0db0acc172a1ULL}}},
      {"latency", {"retrievals=2000"}, 0xee0299fe78e79f3aULL,
       {{"latency.csv", 0x1b61e555b6b668a7ULL}}},
      {"overhead", {"files=20"}, 0x09e03fe018374ab4ULL,
       {{"overhead.csv", 0x060801ed141e3702ULL}}},
      {"privacy", {"lookups=500"}, 0xed70f03580a7b4b3ULL,
       {{"privacy.csv", 0x1705b3acebf16f05ULL}}},
      {"storage_game", {"rounds=100"}, 0x45b279c90de21aa6ULL,
       {{"storage_game.csv", 0x6621ae85f289ed1eULL}}},
  };
  for (const PinnedRun& pin : pins) {
    SCOPED_TRACE(pin.scenario);
    const std::string dir = temp_dir(std::string("pin_") + pin.scenario);
    std::vector<std::string> args = pin.args;
    args.push_back("out=" + dir);
    std::string stdout_text = run(pin.scenario, args);
    for (std::size_t at = stdout_text.find(dir); at != std::string::npos;
         at = stdout_text.find(dir, at)) {
      stdout_text.replace(at, dir.size(), "<out>");
    }
    EXPECT_EQ(fnv1a(stdout_text), pin.stdout_fnv) << stdout_text;

    std::size_t written = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      (void)entry;
      ++written;
    }
    EXPECT_EQ(written, pin.csvs.size());
    for (const PinnedCsv& csv : pin.csvs) {
      EXPECT_EQ(fnv1a(read_file(dir + "/" + csv.file)), csv.fnv) << csv.file;
    }
  }
}

TEST(Scenario, UnknownScenarioListsRegistrations) {
  const std::string out = run("no_such_scenario", {}, /*expect_code=*/2);
  EXPECT_NE(out.find("unknown scenario"), std::string::npos);
  EXPECT_NE(out.find("fig4"), std::string::npos);
  EXPECT_NE(out.find("variance"), std::string::npos);
}

TEST(Scenario, UnknownArgumentIsRejected) {
  // A typo'd key must not silently run the full-scale default.
  const std::string out = run("fig4", {"fils=10"}, /*expect_code=*/2);
  EXPECT_NE(out.find("unknown argument 'fils'"), std::string::npos) << out;
  EXPECT_NE(out.find("files"), std::string::npos);  // lists accepted keys
  // ...nor may a near-miss of a scenario-specific key be dropped.
  const std::string out2 = run("latency", {"retrieval=5"}, /*expect_code=*/2);
  EXPECT_NE(out2.find("unknown argument 'retrieval'"), std::string::npos)
      << out2;
  EXPECT_NE(out2.find("retrievals"), std::string::npos);
}

TEST(Scenario, ScenarioSpecificKeysAreAcceptedAndValidated) {
  // variance declares seeds= as an extra key; a malformed value is a
  // hard error, not a silent 5-seed default.
  const std::string out = run("variance", {"seeds=abc"}, /*expect_code=*/2);
  EXPECT_NE(out.find("seeds"), std::string::npos);
  EXPECT_NE(out.find("abc"), std::string::npos);
  // ...while fig4 does not accept seeds=.
  const std::string out2 = run("fig4", {"seeds=3"}, /*expect_code=*/2);
  EXPECT_NE(out2.find("unknown argument 'seeds'"), std::string::npos);
}

TEST(Scenario, MalformedSharedArgumentIsSurfaced) {
  // The last_error() contract: a malformed files= must become a hard
  // error, not a silently defaulted 10k-file run.
  const std::string out = run("fig4", {"files=abc"}, /*expect_code=*/2);
  EXPECT_NE(out.find("error"), std::string::npos);
  EXPECT_NE(out.find("files"), std::string::npos);
  EXPECT_NE(out.find("abc"), std::string::npos);
  const std::string out2 = run("latency", {"files=2k"}, /*expect_code=*/2);
  EXPECT_NE(out2.find("error"), std::string::npos);
  EXPECT_NE(out2.find("2k"), std::string::npos) << out2;
  EXPECT_EQ(out2.find("==="), std::string::npos);  // nothing ran
}

}  // namespace
}  // namespace fairswap::harness
