// The two metric sets and the result line.
//
// Every workload reports the same names, so that each workload's result
// carries the full set: an end-to-end metric is measured on every
// workload, and a per-layer metric of a layer a workload does not reach
// reads 0 there.
#pragma once

#include <cstdint>

#include "bench.hpp"

namespace perfbench {

/// End-to-end metrics of an untraced run (host time).
struct EndToEnd {
  double setup_s = 0;    ///< median set-up of the run's rounds
  double ops_s = 0;      ///< closed-loop operations per busy second
};

/// Per-layer metrics of a traced run. Index 0 = write, 1 = read, 2 = sync.
struct LayerData {
  double create_ms = 0, unlock_ms = 0;
  double fs_calls[3] = {}, fs_busy_ms[3] = {};
  double fs_p50_us[3] = {}, fs_p99_us[2] = {};
  double fs_write_mib_s = 0, fs_read_mib_s = 0;
  double stack_self_ms[3] = {};
  double stack_virt_ms = 0, blockdev_virt_ms = 0;
  double virt_write_kbps = 0, virt_read_kbps = 0, virt_ops_s = 0;
  double dev_requests = 0, dev_blocks_written = 0, dev_blocks_read = 0;
  double dev_flushes = 0, dev_busy_ms = 0;
  double dev_write_amp = 0, dev_read_amp = 0;
  double dev_seq_ios = 0, dev_random_ios = 0;
  double ftl_programs = 0, ftl_erases = 0, ftl_gc_runs = 0;
  double ftl_gc_relocations = 0, ftl_write_amp = 0;
  double game_trial_p50_ms = 0;
  double trace_overhead_pct = 0, trace_spans = 0;
};

void add_end_to_end(Outcome& out, const EndToEnd& e);
void add_layers(Outcome& out, const LayerData& l);

/// Prints the result as one JSON line on stdout.
void print_result(const Outcome& out);

}  // namespace perfbench
