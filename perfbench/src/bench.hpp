// Shared types of the perfbench driver: command-line arguments, the result
// record every workload fills, and small statistics helpers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/pde_scheme.hpp"

namespace perfbench {

inline constexpr char kPublicPassword[] = "perfbench-public";
inline constexpr char kHiddenPassword[] = "perfbench-hidden";

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where a traced run writes its Chrome trace (empty: not written).
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// What one invocation reports: the correctness verdict, the operation
/// tally behind it, and the metrics of the requested set.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;

  void fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

/// Linear-interpolated percentile (p in [0, 100]); 0 for an empty sample.
double percentile(std::vector<double> values, double p);
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50);
}

/// Peak resident set of this process, MiB.
double peak_rss_mib();

/// Deterministic 64-bit mixer (splitmix64 finaliser).
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Options of the security game's world at the adversary::GameConfig
/// defaults, as run_security_game builds each trial's, on a fresh RAM disk.
mobiceal::api::SchemeOptions game_world_options(std::uint64_t rng_seed);

/// Host-time layer probes (crypto, thin allocator/commit, adversary
/// snapshot/parse/diff); appends their per-layer metrics.
void add_probe_metrics(Outcome& out, std::uint64_t seed);

/// The workloads. Each fills `out` with the end-to-end metrics (untraced)
/// or the per-layer metrics (traced).
bool is_fs_workload(const std::string& name);
void run_fs_workload(const Args& args, Outcome& out);
void run_game_workload(const Args& args, Outcome& out);

}  // namespace perfbench
