// Command-line helpers for bench_scale, the wall-clock performance bench.
// It accepts "files=<n> seed=<n> out=<dir>" overrides on the command line
// and writes CSV/JSON under <out>/ (default bench_out/). Experiments are
// fairswap_run scenarios, not benches.
#pragma once

#include <cstdio>
#include <string>

#include "common/config.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"

namespace fairswap::bench {

/// Command-line settings. Carries the parsed Config so the bench reads its
/// extra keys from `args.cfg` instead of re-parsing argv a second time.
struct BenchArgs {
  Config cfg;
  std::size_t files{10'000};
  std::uint64_t seed{kDefaultSeed};
  std::string out_dir{"bench_out"};

  static BenchArgs parse(int argc, char** argv) {
    BenchArgs args;
    args.cfg = Config::from_args(argc, argv);
    args.files = args.cfg.get_or("files", std::uint64_t{10'000});
    args.seed = args.cfg.get_or("seed", kDefaultSeed);
    args.out_dir = args.cfg.get_or("out", std::string{"bench_out"});
    if (args.cfg.get_or("verbose", false)) Log::set_level(LogLevel::kInfo);
    return args;
  }
};

/// Prints a section header.
inline void banner(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

}  // namespace fairswap::bench
