// The game workload: the multi-snapshot security game against "mobiceal"
// at the adversary::GameConfig defaults, one run_security_game call per
// trial (trials = 1), each trial's seed drawn from the workload seed.
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "adversary/security_game.hpp"
#include "api/scheme_registry.hpp"
#include "bench.hpp"
#include "report.hpp"
#include "trace.hpp"

namespace perfbench {

namespace adversary = mobiceal::adversary;
namespace api = mobiceal::api;
namespace blockdev = mobiceal::blockdev;

namespace {

constexpr int kSetups = 5;
/// Trial seeds an untraced run cycles through, each replayed at least
/// kMinReplays times.
constexpr std::size_t kTrialSeeds = 12;
constexpr std::size_t kMinReplays = 2;
/// Trials of the traced run (and of each untraced side of it).
constexpr std::size_t kTracedTrials = 8;

std::uint64_t trial_seed(std::uint64_t seed, std::size_t i) {
  return mix64(mix64(seed) ^ (0x7a11ULL + i));
}

/// Per-trial distinguisher outcome: bit d set when distinguisher d
/// guessed the world right.
using Tally = std::uint32_t;

struct Trial {
  double host_ms;
  Tally tally;
};

Trial run_trial(std::uint64_t seed, std::size_t i, Tracer* tracer) {
  adversary::GameConfig cfg;
  cfg.scheme = "mobiceal";
  cfg.trials = 1;
  cfg.seed = trial_seed(seed, i);
  if (tracer) tracer->set_call(i + 1);
  const std::uint64_t t0 = host_ns();
  adversary::GameResult res;
  {
    ScopedSpan span(tracer, SpanKind::kGameTrial);
    res = adversary::run_security_game(cfg);
  }
  const std::uint64_t t1 = host_ns();
  Tally t = 0;
  for (std::size_t d = 0; d < res.distinguishers.size(); ++d) {
    if (res.distinguishers[d].correct != 0) t |= Tally{1} << d;
  }
  return {static_cast<double>(t1 - t0) / 1e6, t};
}

/// The game's world set-up, as each trial builds it: create + unlock of
/// "mobiceal" on a game-sized RAM disk. Returns {total, create, unlock}
/// host seconds.
struct SetupTimes {
  double total_s, create_ms, unlock_ms;
};

SetupTimes build_world(std::uint64_t seed, Tracer* tracer) {
  const std::uint64_t t0 = host_ns();
  const api::SchemeOptions opts = game_world_options(mix64(seed));
  std::unique_ptr<api::PdeScheme> scheme;
  const std::uint64_t t1 = host_ns();
  {
    ScopedSpan span(tracer, SpanKind::kApiCreate);
    scheme = api::SchemeRegistry::create("mobiceal", opts);
  }
  const std::uint64_t t2 = host_ns();
  {
    ScopedSpan span(tracer, SpanKind::kApiUnlock);
    const api::UnlockResult u = scheme->unlock(kPublicPassword);
    if (!u.ok || u.volume != api::VolumeClass::kPublic) {
      throw std::runtime_error("game world: unlock did not mount public");
    }
  }
  const std::uint64_t t3 = host_ns();
  return {static_cast<double>(t3 - t0) / 1e9,
          static_cast<double>(t2 - t1) / 1e6,
          static_cast<double>(t3 - t2) / 1e6};
}

void print_tallies(std::uint64_t seed, const std::vector<Trial>& trials,
                   std::size_t first_n) {
  std::uint64_t right[3] = {};
  std::uint64_t witness = 0;
  for (std::size_t i = 0; i < trials.size(); ++i) {
    for (int d = 0; d < 3; ++d) right[d] += (trials[i].tally >> d) & 1;
    if (i < first_n) witness = mix64(witness ^ trials[i].tally ^ (i << 8));
  }
  std::printf(
      "tallies game seed=%llu trials=%zu any-nonpublic-growth=%llu "
      "dummy-budget=%llu mean-rate=%llu first%zu=%016llx\n",
      static_cast<unsigned long long>(seed), trials.size(),
      static_cast<unsigned long long>(right[0]),
      static_cast<unsigned long long>(right[1]),
      static_cast<unsigned long long>(right[2]), first_n,
      static_cast<unsigned long long>(witness));
}

}  // namespace

api::SchemeOptions game_world_options(std::uint64_t rng_seed) {
  const adversary::GameConfig g;
  api::SchemeOptions opts;
  opts.device = std::make_shared<blockdev::MemBlockDevice>(g.disk_blocks);
  opts.public_password = kPublicPassword;
  opts.hidden_passwords = {kHiddenPassword};
  opts.num_volumes = g.num_volumes;
  opts.chunk_blocks = g.chunk_blocks;
  opts.kdf_iterations = 16;  // as run_security_game's trials
  opts.fs_inode_count = 256;
  opts.zero_cpu_models = true;
  opts.rng_seed = rng_seed;
  opts.lambda = g.lambda;
  opts.x = g.x;
  return opts;
}

void run_game_workload(const Args& args, Outcome& out) {
  if (!args.trace) {
    // As in the fs workloads: cycle through a fixed set of trial seeds,
    // keep each seed's fastest replay, and check that every replay of a
    // seed gives the same distinguisher tallies.
    std::vector<double> setups;
    for (int i = 0; i < kSetups; ++i) {
      setups.push_back(build_world(args.seed + i, nullptr).total_s);
    }
    std::vector<Trial> best;
    const std::uint64_t start = host_ns();
    for (std::size_t n = 0;
         n < kTrialSeeds * kMinReplays ||
         static_cast<double>(host_ns() - start) * 1e-9 < args.seconds;
         ++n) {
      const std::size_t i = n % kTrialSeeds;
      ++out.attempted;
      const Trial t = run_trial(args.seed, i, nullptr);
      if (i == best.size()) {
        best.push_back(t);
      } else if (t.tally != best[i].tally) {
        ++out.failed;
        out.fail("a replayed trial gave different distinguisher tallies");
      } else if (t.host_ms < best[i].host_ms) {
        best[i] = t;
      }
    }
    double busy_ms = 0;
    for (const Trial& t : best) busy_ms += t.host_ms;
    EndToEnd e;
    e.setup_s = median(setups);
    e.ops_s = static_cast<double>(best.size()) / (busy_ms / 1e3);
    add_end_to_end(out, e);
    print_tallies(args.seed, best, kTrialSeeds);
    return;
  }

  Tracer tracer;
  std::vector<double> creates, unlocks;
  for (int i = 0; i < kSetups; ++i) {
    const SetupTimes s = build_world(args.seed + i, &tracer);
    creates.push_back(s.create_ms);
    unlocks.push_back(s.unlock_ms);
  }
  std::vector<Trial> before, traced, after;
  for (std::size_t i = 0; i < kTracedTrials; ++i) {
    before.push_back(run_trial(args.seed, i, nullptr));
  }
  for (std::size_t i = 0; i < kTracedTrials; ++i) {
    traced.push_back(run_trial(args.seed, i, &tracer));
  }
  for (std::size_t i = 0; i < kTracedTrials; ++i) {
    after.push_back(run_trial(args.seed, i, nullptr));
  }
  out.attempted += 3 * kTracedTrials;
  double ms_untraced = 0, ms_traced = 0;
  std::vector<double> lat;
  for (std::size_t i = 0; i < kTracedTrials; ++i) {
    if (traced[i].tally != before[i].tally ||
        after[i].tally != before[i].tally) {
      ++out.failed;
      out.fail("traced trial gave different distinguisher tallies");
    }
    ms_untraced += (before[i].host_ms + after[i].host_ms) / 2;
    ms_traced += traced[i].host_ms;
    lat.push_back(traced[i].host_ms);
  }
  print_tallies(args.seed, traced, kTracedTrials);
  LayerData l;
  l.create_ms = median(creates);
  l.unlock_ms = median(unlocks);
  l.game_trial_p50_ms = median(lat);
  l.trace_overhead_pct = (ms_traced / ms_untraced - 1) * 100;
  l.trace_spans = static_cast<double>(tracer.size());
  add_layers(out, l);
  add_probe_metrics(out, args.seed);
  if (!args.trace_out.empty()) tracer.write_chrome_json(args.trace_out);
}

}  // namespace perfbench
