#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

std::uint64_t host_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kApiCreate: return "api.create";
    case SpanKind::kApiUnlock: return "api.unlock";
    case SpanKind::kSetupWrite: return "setup.fs.write";
    case SpanKind::kSetupSync: return "setup.fs.sync";
    case SpanKind::kFsWrite: return "fs.write";
    case SpanKind::kFsRead: return "fs.read";
    case SpanKind::kFsSync: return "fs.sync";
    case SpanKind::kDevRead: return "blockdev.read";
    case SpanKind::kDevWrite: return "blockdev.write";
    case SpanKind::kDevFlush: return "blockdev.flush";
    case SpanKind::kDevSubmit: return "blockdev.submit";
    case SpanKind::kDevDrain: return "blockdev.drain";
    case SpanKind::kDevWait: return "blockdev.wait_until";
    case SpanKind::kGameTrial: return "adversary.run_security_game";
  }
  return "?";
}

bool is_device_span(SpanKind kind) {
  switch (kind) {
    case SpanKind::kDevRead:
    case SpanKind::kDevWrite:
    case SpanKind::kDevFlush:
    case SpanKind::kDevSubmit:
    case SpanKind::kDevDrain:
    case SpanKind::kDevWait:
      return true;
    default:
      return false;
  }
}

int Tracer::open(SpanKind kind) {
  if (!enabled_) return -1;
  const int id = static_cast<int>(spans_.size());
  const std::int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({kind, parent, call_, host_ns(), 0, virt_now(), 0});
  open_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  if (id < 0) return;
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.host_end = host_ns();
  s.virt_end = virt_now();
  // Spans close in LIFO order (ScopedSpan); tolerate a disabled gap.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) throw std::runtime_error("cannot write trace " + path);
  const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().host_start;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(
        f,
        "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
        "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,"
        "\"call\":%llu,\"virt_ns\":[%llu,%llu]}}",
        i == 0 ? "" : ",\n", span_name(s.kind),
        static_cast<double>(s.host_start - t0) / 1e3,
        static_cast<double>(s.host_end - s.host_start) / 1e3, i,
        static_cast<int>(s.parent), static_cast<unsigned long long>(s.call),
        static_cast<unsigned long long>(s.virt_start),
        static_cast<unsigned long long>(s.virt_end));
  }
  std::fputs("\n]}\n", f);
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

namespace {
int fs_class(SpanKind kind) {
  switch (kind) {
    case SpanKind::kFsWrite: return 0;
    case SpanKind::kFsRead: return 1;
    case SpanKind::kFsSync: return 2;
    default: return -1;
  }
}
}  // namespace

Ledger build_ledger(const std::vector<Span>& spans, std::size_t first,
                    std::size_t last, std::uint64_t phase_virt_ns) {
  Ledger l;
  auto fail = [&](bool& flag, const std::string& why) {
    flag = false;
    if (l.problem.empty()) l.problem = why;
  };
  // Host time each fs span's device children cover, merged as an interval
  // union so that overlapping children could not hide in the sum.
  std::vector<std::uint64_t> covered(last > first ? last - first : 0, 0);
  std::vector<std::uint64_t> cursor(covered.size(), 0);
  for (std::size_t i = first; i < last; ++i) {
    const Span& s = spans[i];
    if (const int c = fs_class(s.kind); c >= 0) {
      if (s.parent >= 0 && static_cast<std::size_t>(s.parent) >= first) {
        fail(l.host_additive, "fs span nested in another span");
      }
      const std::uint64_t dur = s.host_end - s.host_start;
      l.fs_busy_ns[c] += dur;
      ++l.fs_calls[c];
      l.fs_latency_us[c].push_back(static_cast<double>(dur) / 1e3);
      l.fs_virt_ns += s.virt_end - s.virt_start;
      cursor[i - first] = s.host_start;
      continue;
    }
    if (!is_device_span(s.kind)) continue;
    const auto p = s.parent;
    if (p < 0 || static_cast<std::size_t>(p) < first ||
        fs_class(spans[static_cast<std::size_t>(p)].kind) < 0) {
      fail(l.virt_additive, "device span outside any fs call");
      continue;
    }
    const Span& parent = spans[static_cast<std::size_t>(p)];
    const int c = fs_class(parent.kind);
    l.dev_busy_ns[c] += s.host_end - s.host_start;
    l.dev_virt_ns += s.virt_end - s.virt_start;
    // Children of one fs span are recorded in start order; the union grows
    // by the part of each child past the furthest end seen so far.
    const std::size_t pi = static_cast<std::size_t>(p) - first;
    const std::uint64_t lo =
        std::max({s.host_start, cursor[pi], parent.host_start});
    const std::uint64_t hi = std::min(s.host_end, parent.host_end);
    if (hi > lo) covered[pi] += hi - lo;
    cursor[pi] = std::max(cursor[pi], s.host_end);
    if (s.virt_start < parent.virt_start || s.virt_end > parent.virt_end) {
      fail(l.virt_additive, "device span outside its fs call's virtual time");
    }
  }
  for (std::size_t i = first; i < last; ++i) {
    const Span& s = spans[i];
    if (const int c = fs_class(s.kind); c >= 0) {
      l.stack_self_ns[c] += (s.host_end - s.host_start) - covered[i - first];
    }
  }
  for (int c = 0; c < 3; ++c) {
    if (l.stack_self_ns[c] + l.dev_busy_ns[c] != l.fs_busy_ns[c]) {
      fail(l.host_additive,
           "stack self + device busy != fs busy (overlapping spans)");
    }
  }
  // stack.virt = fs - device, so stack + device == phase iff fs == phase.
  if (l.dev_virt_ns > l.fs_virt_ns || l.fs_virt_ns != phase_virt_ns) {
    fail(l.virt_additive,
         "stack + device virtual ns != the phase's virtual ns");
  }
  return l;
}

}  // namespace perfbench
