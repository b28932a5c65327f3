// mobiceal_perfbench — one closed-loop workload against the MobiCeal stack.
//
//   mobiceal_perfbench --workload <fig4-dd|app-4k|game|ftl-churn>
//                      --seed <n> --seconds <s> --trace <0|1>
//                      [--trace-out <chrome-trace.json>]
//
// Prints diagnostic lines, then as its last stdout line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics (host time, untraced); --trace 1 runs the workload
// once with spans on and reports the per-layer metrics derived from them.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"
#include "report.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "mobiceal_perfbench: %s\nusage: mobiceal_perfbench --workload "
               "<fig4-dd|app-4k|game|ftl-churn> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <path>]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& s) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (s.empty() || *end != '\0' || s[0] == '-') usage("bad integer");
  return v;
}

perfbench::Args parse(int argc, char** argv) {
  perfbench::Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = parse_u64(v);
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(parse_u64(v));
    } else if (flag == "--trace") {
      a.trace = parse_u64(v) != 0;
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      usage("unknown flag");
    }
  }
  if (a.workload != "game" && !perfbench::is_fs_workload(a.workload)) {
    usage("unknown workload");
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = parse(argc, argv);
  perfbench::Outcome out;
  try {
    if (args.workload == "game") {
      perfbench::run_game_workload(args, out);
    } else {
      perfbench::run_fs_workload(args, out);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mobiceal_perfbench: %s\n", e.what());
    return 1;
  }
  for (const perfbench::Metric& m : out.metrics) {
    if (!std::isfinite(m.value)) out.fail("metric " + m.name + " not finite");
  }
  if (out.failed != 0) out.fail("failed operations");
  for (const std::string& p : out.problems) {
    std::printf("problem: %s\n", p.c_str());
  }
  perfbench::print_result(out);
  return 0;
}
