// Test/verification devices: operation recording and fault injection.
//
// RecordingDevice captures the exact order of writes/flushes — used to
// verify commit ordering invariants (e.g. dm-thin must write the superblock
// last, after a barrier, so a crash can never expose half a transaction).
// FaultyDevice throws after a programmable number of writes — used to
// verify that every layer fails closed and that reopening after a mid-
// transaction crash recovers the last committed state.
//
// Both wrappers derive ForwardingDevice and intercept every entry point
// that carries their concern — single-block, vectored, and the async
// submit path — so no workload dodges recording or fault budgets, a
// vectored call stays one vectored command on the inner device and a
// submission reaches the inner queue-depth engine. For richer fault policies
// (transient read errors, latent sectors, member drop, power cuts) see
// blockdev/fault_injector.hpp.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "blockdev/block_device.hpp"
#include "util/error.hpp"

namespace mobiceal::blockdev {

/// One recorded device operation.
struct DeviceOp {
  enum class Kind { kRead, kWrite, kFlush } kind;
  std::uint64_t block = 0;  // unused for kFlush
};

class RecordingDevice final : public ForwardingDevice {
 public:
  explicit RecordingDevice(std::shared_ptr<BlockDevice> inner)
      : ForwardingDevice(std::move(inner)) {}

  void read_block(std::uint64_t index, util::MutByteSpan out) override {
    ops_.push_back({DeviceOp::Kind::kRead, index});
    ForwardingDevice::read_block(index, out);
  }
  void write_block(std::uint64_t index, util::ByteSpan data) override {
    ops_.push_back({DeviceOp::Kind::kWrite, index});
    ForwardingDevice::write_block(index, data);
  }
  void flush() override {
    ops_.push_back({DeviceOp::Kind::kFlush, 0});
    ForwardingDevice::flush();
  }

  const std::vector<DeviceOp>& ops() const noexcept { return ops_; }
  void clear() noexcept { ops_.clear(); }

 protected:
  // Vectored calls are recorded per block (the order invariant the tests
  // check is block-granular) but forwarded as ONE vectored command.
  void do_read_blocks(std::uint64_t first, std::uint64_t count,
                      util::MutByteSpan out) override {
    record_range(DeviceOp::Kind::kRead, first, count);
    ForwardingDevice::do_read_blocks(first, count, out);
  }
  void do_write_blocks(std::uint64_t first, util::ByteSpan data) override {
    record_range(DeviceOp::Kind::kWrite, first, data.size() / block_size());
    ForwardingDevice::do_write_blocks(first, data);
  }
  std::uint64_t do_submit(const IoRequest& req) override {
    switch (req.op) {
      case IoOp::kRead: record_range(DeviceOp::Kind::kRead, req.first,
                                     req.count); break;
      case IoOp::kWrite: record_range(DeviceOp::Kind::kWrite, req.first,
                                      req.count); break;
      case IoOp::kFlush: ops_.push_back({DeviceOp::Kind::kFlush, 0}); break;
    }
    return ForwardingDevice::do_submit(req);
  }

 private:
  void record_range(DeviceOp::Kind kind, std::uint64_t first,
                    std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) {
      ops_.push_back({kind, first + i});
    }
  }

  std::vector<DeviceOp> ops_;
};

/// Thrown by FaultyDevice when its write budget is exhausted.
class InjectedFault : public util::IoError {
 public:
  InjectedFault() : util::IoError("injected device fault") {}
};

class FaultyDevice final : public ForwardingDevice {
 public:
  /// Fails (throws InjectedFault) on the (writes_until_fault+1)-th written
  /// block, whichever entry point carries it. A negative budget means
  /// "never fail"; after the fault fires the device is disarmed (budget
  /// < 0) until rearm()ed — one crash per arming, like a real power cut.
  FaultyDevice(std::shared_ptr<BlockDevice> inner,
               std::int64_t writes_until_fault)
      : ForwardingDevice(std::move(inner)), budget_(writes_until_fault) {}

  void write_block(std::uint64_t index, util::ByteSpan data) override {
    if (budget_ >= 0 && budget_-- == 0) throw InjectedFault();
    ForwardingDevice::write_block(index, data);
  }

  /// Writes remaining before the fault fires (negative: disarmed/overrun).
  std::int64_t budget() const noexcept { return budget_; }
  void rearm(std::int64_t writes_until_fault) noexcept {
    budget_ = writes_until_fault;
  }

 protected:
  // Vectored/submitted writes spend the budget per block: the prefix that
  // fits is written (as the kernel may complete part of a vectored
  // request), then the fault fires and the budget disarms — bit-identical
  // state to the historical per-block loop crashing at the same block.
  void do_write_blocks(std::uint64_t first, util::ByteSpan data) override {
    const util::ByteSpan ok = spend_budget(data);
    if (!ok.empty()) ForwardingDevice::do_write_blocks(first, ok);
    if (ok.size() != data.size()) throw InjectedFault();
  }
  std::uint64_t do_submit(const IoRequest& req) override {
    if (req.op == IoOp::kWrite) {
      const util::ByteSpan ok = spend_budget(req.write_buf);
      if (ok.size() != req.write_buf.size()) {
        // Fault mid-request: land the surviving prefix, then fail.
        IoRequest prefix = req;
        prefix.count = ok.size() / block_size();
        prefix.write_buf = ok;
        if (prefix.count > 0) ForwardingDevice::do_submit(prefix);
        throw InjectedFault();
      }
    }
    return ForwardingDevice::do_submit(req);
  }

 private:
  /// Deducts `data`'s blocks from the budget. Returns the prefix that may
  /// be written; a short prefix means the fault fired (budget disarmed) —
  /// the caller writes the prefix and throws InjectedFault.
  util::ByteSpan spend_budget(util::ByteSpan data) {
    if (budget_ < 0) return data;
    const std::size_t bs = block_size();
    const std::int64_t count = static_cast<std::int64_t>(data.size() / bs);
    if (count <= budget_) {
      budget_ -= count;
      return data;
    }
    const std::int64_t ok = budget_;
    budget_ = -1;
    return data.first(static_cast<std::size_t>(ok) * bs);
  }

  std::int64_t budget_;
};

}  // namespace mobiceal::blockdev
