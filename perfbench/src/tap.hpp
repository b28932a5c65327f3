// Transparent forwarding tap between the storage stack and its backing
// device.
//
// Every BlockDevice entry point is forwarded to the same entry point one
// level down: single-block, vectored (do_read_blocks/do_write_blocks, which
// blockdev::StatsDevice does not forward and so splits into per-block
// calls), async submit/drain/wait_until, completion_cutoff and queue depth.
// The backing device therefore sees the identical request sequence with or
// without the tap, so TimedDevice/FtlDevice charge identical virtual time.
// The tap counts requests and blocks, marks every block ever written (for
// the end-of-round image digest) and, when a tracer is attached, records
// one span per forwarded call.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "blockdev/block_device.hpp"
#include "trace.hpp"

namespace perfbench {

struct TapCounters {
  std::uint64_t requests = 0;  ///< read + write requests (any entry point)
  std::uint64_t blocks_written = 0;
  std::uint64_t blocks_read = 0;
  std::uint64_t flushes = 0;

  TapCounters operator-(const TapCounters& o) const {
    return {requests - o.requests, blocks_written - o.blocks_written,
            blocks_read - o.blocks_read, flushes - o.flushes};
  }
};

class TapDevice final : public mobiceal::blockdev::BlockDevice {
 public:
  using BlockDevice = mobiceal::blockdev::BlockDevice;
  using IoRequest = mobiceal::blockdev::IoRequest;

  TapDevice(std::shared_ptr<BlockDevice> inner, Tracer* tracer)
      : inner_(std::move(inner)),
        tracer_(tracer),
        written_((inner_->num_blocks() + 63) / 64, 0) {}

  std::size_t block_size() const noexcept override {
    return inner_->block_size();
  }
  std::uint64_t num_blocks() const noexcept override {
    return inner_->num_blocks();
  }

  void read_block(std::uint64_t index,
                  mobiceal::util::MutByteSpan out) override {
    ScopedSpan span(tracer_, SpanKind::kDevRead);
    inner_->read_block(index, out);
    count_read(1);
  }
  void write_block(std::uint64_t index,
                   mobiceal::util::ByteSpan data) override {
    ScopedSpan span(tracer_, SpanKind::kDevWrite);
    inner_->write_block(index, data);  // validates `index` first
    count_write(index, 1);
  }
  void flush() override {
    ScopedSpan span(tracer_, SpanKind::kDevFlush);
    inner_->flush();
    ++counters_.flushes;
  }

  std::uint32_t queue_depth() const noexcept override {
    return inner_->queue_depth();
  }
  void set_queue_depth(std::uint32_t depth) override {
    inner_->set_queue_depth(depth);
  }
  std::uint64_t completion_cutoff() const noexcept override {
    return inner_->completion_cutoff();
  }

  const TapCounters& counters() const noexcept { return counters_; }

  /// Bitmap (64 blocks per word) of every block written through the tap.
  const std::vector<std::uint64_t>& written() const noexcept {
    return written_;
  }

 protected:
  void do_read_blocks(std::uint64_t first, std::uint64_t count,
                      mobiceal::util::MutByteSpan out) override {
    ScopedSpan span(tracer_, SpanKind::kDevRead);
    inner_->read_blocks(first, count, out);
    count_read(count);
  }
  void do_write_blocks(std::uint64_t first,
                       mobiceal::util::ByteSpan data) override {
    ScopedSpan span(tracer_, SpanKind::kDevWrite);
    inner_->write_blocks(first, data);
    count_write(first, data.size() / block_size());
  }
  std::uint64_t do_submit(const IoRequest& req) override {
    ScopedSpan span(tracer_, SpanKind::kDevSubmit);
    const std::uint64_t done = inner_->submit(req).complete_ns;
    switch (req.op) {
      case mobiceal::blockdev::IoOp::kRead: count_read(req.count); break;
      case mobiceal::blockdev::IoOp::kWrite:
        count_write(req.first, req.count);
        break;
      case mobiceal::blockdev::IoOp::kFlush: ++counters_.flushes; break;
    }
    return done;
  }
  void do_drain() override {
    ScopedSpan span(tracer_, SpanKind::kDevDrain);
    inner_->drain();
  }
  void do_wait_until(std::uint64_t cutoff) override {
    ScopedSpan span(tracer_, SpanKind::kDevWait);
    inner_->wait_until(cutoff);
  }

 private:
  // Counted after the lower device accepted the request, so a rejected
  // (out-of-range) request is neither counted nor marked.
  void count_read(std::uint64_t blocks) {
    ++counters_.requests;
    counters_.blocks_read += blocks;
  }
  void count_write(std::uint64_t first, std::uint64_t blocks) {
    ++counters_.requests;
    counters_.blocks_written += blocks;
    for (std::uint64_t b = first; b < first + blocks; ++b) {
      written_[b / 64] |= std::uint64_t{1} << (b % 64);
    }
  }

  std::shared_ptr<BlockDevice> inner_;
  Tracer* tracer_;
  TapCounters counters_;
  std::vector<std::uint64_t> written_;
};

}  // namespace perfbench
