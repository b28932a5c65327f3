// In-memory span trace of one benchmark round.
//
// Spans are recorded only by the benchmark's own code: around its calls
// into api::, fs::, adversary:: and inside the forwarding device tap
// (tap.hpp). Each span carries host steady-clock and virtual SimClock
// start/end, its parent span and the id of the fs call it belongs to. The
// trace stays in memory and is written out as Chrome trace-event JSON
// once the run ends; the per-layer metrics are derived from it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/sim_clock.hpp"

namespace perfbench {

/// Host steady-clock nanoseconds.
std::uint64_t host_ns();

enum class SpanKind : std::uint8_t {
  kApiCreate,
  kApiUnlock,
  kSetupWrite,
  kSetupSync,
  kFsWrite,
  kFsRead,
  kFsSync,
  kDevRead,
  kDevWrite,
  kDevFlush,
  kDevSubmit,
  kDevDrain,
  kDevWait,
  kGameTrial,
};

const char* span_name(SpanKind kind);

/// True for the device-tap span kinds.
bool is_device_span(SpanKind kind);

struct Span {
  SpanKind kind;
  std::int32_t parent;  ///< index of the enclosing span, -1 at top level
  std::uint64_t call;   ///< fs call (or trial) id, 0 outside any call
  std::uint64_t host_start, host_end;
  std::uint64_t virt_start, virt_end;
};

class Tracer {
 public:
  /// Virtual time source of the stack being traced (null: virtual 0).
  void set_clock(const mobiceal::util::SimClock* clock) { clock_ = clock; }
  /// Spans opened while disabled are dropped (open returns -1).
  void set_enabled(bool on) { enabled_ = on; }
  void set_call(std::uint64_t call) { call_ = call; }

  int open(SpanKind kind);
  void close(int id);

  const std::vector<Span>& spans() const { return spans_; }
  std::size_t size() const { return spans_.size(); }

  /// Chrome trace-event JSON: "X" events in host microseconds, with the
  /// span id, parent id, call id and virtual [start, end] ns in args.
  /// Throws on I/O failure.
  void write_chrome_json(const std::string& path) const;

 private:
  std::uint64_t virt_now() const { return clock_ ? clock_->now() : 0; }

  const mobiceal::util::SimClock* clock_ = nullptr;
  bool enabled_ = true;
  std::uint64_t call_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Opens a span on construction and closes it on destruction; a no-op
/// when `tracer` is null (the untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, SpanKind kind)
      : tracer_(tracer), id_(tracer ? tracer->open(kind) : -1) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// Per-class totals of one traced measured phase, and the ledger check.
struct Ledger {
  // Indexed by 0 = write, 1 = read, 2 = sync.
  std::uint64_t fs_busy_ns[3] = {};
  std::uint64_t fs_calls[3] = {};
  std::uint64_t stack_self_ns[3] = {};
  std::uint64_t dev_busy_ns[3] = {};
  std::uint64_t fs_virt_ns = 0;
  std::uint64_t dev_virt_ns = 0;
  std::vector<double> fs_latency_us[3];
  /// Host: self + child device time == fs busy for every class (children
  /// nested in and not overlapping their fs span). Virtual: stack + device
  /// virtual ns == the phase's virtual ns.
  bool host_additive = true;
  bool virt_additive = true;
  std::string problem;
};

/// Derives the ledger from spans [first, last) of a measured phase whose
/// virtual length is `phase_virt_ns`.
Ledger build_ledger(const std::vector<Span>& spans, std::size_t first,
                    std::size_t last, std::uint64_t phase_virt_ns);

}  // namespace perfbench
