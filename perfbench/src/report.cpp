#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - std::floor(rank));
}

double peak_rss_mib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void add_end_to_end(Outcome& out, const EndToEnd& e) {
  out.add("setup_s", e.setup_s, "s");
  out.add("ops_s", e.ops_s, "1/s");
  out.add("peak_rss_mib", peak_rss_mib(), "MiB");
}

void add_layers(Outcome& out, const LayerData& l) {
  static const char* const kOp[3] = {"write", "read", "sync"};
  out.add("api.create_ms", l.create_ms, "ms");
  out.add("api.unlock_ms", l.unlock_ms, "ms");
  for (int c = 0; c < 3; ++c) {
    const std::string p = std::string("fs.") + kOp[c];
    out.add(p + ".calls", l.fs_calls[c], "count");
    out.add(p + ".busy_ms", l.fs_busy_ms[c], "ms");
    out.add(p + ".p50_us", l.fs_p50_us[c], "us");
    if (c < 2) out.add(p + ".p99_us", l.fs_p99_us[c], "us");
  }
  out.add("fs.write.mib_s", l.fs_write_mib_s, "MiB/s");
  out.add("fs.read.mib_s", l.fs_read_mib_s, "MiB/s");
  for (int c = 0; c < 3; ++c) {
    out.add(std::string("stack.") + kOp[c] + ".self_ms", l.stack_self_ms[c],
            "ms");
  }
  out.add("stack.virt_ms", l.stack_virt_ms, "ms");
  out.add("blockdev.virt_ms", l.blockdev_virt_ms, "ms");
  out.add("virt.write_kbps", l.virt_write_kbps, "KB/s");
  out.add("virt.read_kbps", l.virt_read_kbps, "KB/s");
  out.add("virt.ops_s", l.virt_ops_s, "1/s");
  out.add("blockdev.requests", l.dev_requests, "count");
  out.add("blockdev.blocks_written", l.dev_blocks_written, "count");
  out.add("blockdev.blocks_read", l.dev_blocks_read, "count");
  out.add("blockdev.flushes", l.dev_flushes, "count");
  out.add("blockdev.busy_ms", l.dev_busy_ms, "ms");
  out.add("blockdev.write_amp", l.dev_write_amp, "ratio");
  out.add("blockdev.read_amp", l.dev_read_amp, "ratio");
  out.add("blockdev.seq_ios", l.dev_seq_ios, "count");
  out.add("blockdev.random_ios", l.dev_random_ios, "count");
  out.add("ftl.programs", l.ftl_programs, "count");
  out.add("ftl.erases", l.ftl_erases, "count");
  out.add("ftl.gc_runs", l.ftl_gc_runs, "count");
  out.add("ftl.gc_relocations", l.ftl_gc_relocations, "count");
  out.add("ftl.write_amp", l.ftl_write_amp, "ratio");
  out.add("game.trial_p50_ms", l.game_trial_p50_ms, "ms");
  out.add("trace.overhead_pct", l.trace_overhead_pct, "%");
  out.add("trace.spans", l.trace_spans, "count");
}

void print_result(const Outcome& out) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    // JSON has no NaN/inf; a non-finite value is a benchmark bug, and 0
    // keeps the line parseable while `correct` reports it.
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
