// blockdev::ForwardingDevice: every subclass, in its identity
// configuration, must be byte- and time-identical to the bare device. One
// fixed script runs over a QD-8 TimedDevice, bare and through each wrapper;
// a wrapper that drops a hook shows up as a different timeline.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "blockdev/block_device.hpp"
#include "blockdev/fault_device.hpp"
#include "blockdev/fault_injector.hpp"
#include "blockdev/timed_device.hpp"
#include "dm/device_mapper.hpp"
#include "lvm/lvm.hpp"
#include "util/bytes.hpp"
#include "util/sim_clock.hpp"

namespace mobiceal {
namespace {

using blockdev::BlockDevice;
using blockdev::IoOp;
using blockdev::IoRequest;
using blockdev::TimedDevice;

constexpr std::uint64_t kBlocks = 256;

using Wrap = std::function<std::shared_ptr<BlockDevice>(
    std::shared_ptr<BlockDevice>)>;

struct TimedRig {
  std::shared_ptr<blockdev::MemBlockDevice> mem =
      std::make_shared<blockdev::MemBlockDevice>(kBlocks);
  std::shared_ptr<util::SimClock> clock = std::make_shared<util::SimClock>();
  std::shared_ptr<TimedDevice> timed = std::make_shared<TimedDevice>(
      mem, blockdev::TimingModel::nexus4_emmc(), clock);
  TimedRig() { timed->set_queue_depth(8); }
};

IoRequest request(IoOp op, std::uint64_t first, util::MutByteSpan buf,
                  std::uint64_t tag) {
  IoRequest r;
  r.op = op;
  r.first = first;
  r.count = buf.size() / blockdev::kDefaultBlockSize;
  if (op == IoOp::kRead) {
    r.read_buf = buf;
  } else {
    r.write_buf = buf;
  }
  r.user_data = tag;
  return r;
}

/// Runs the script through wrap(timed); returns every observable of the
/// device below: the data read and the final image, then the clocks,
/// completions and TimedDevice counters.
std::pair<util::Bytes, std::vector<std::uint64_t>> run_script(
    const Wrap& wrap) {
  TimedRig rig;
  const std::shared_ptr<BlockDevice> dev = wrap(rig.timed);
  const std::size_t bs = dev->block_size();
  util::Bytes data(16 * bs);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 13 + (i >> 9));
  }
  util::Bytes reads(13 * bs);
  std::vector<std::uint64_t> trace;
  const auto reap = [&trace](const std::vector<blockdev::IoCompletion>& cs) {
    trace.push_back(cs.size());
    for (const auto& c : cs) {
      trace.insert(trace.end(), {c.ticket, c.user_data, c.complete_ns});
    }
  };
  const auto span = [bs](util::Bytes& b, std::size_t block, std::size_t n) {
    return util::MutByteSpan{b.data() + block * bs, n * bs};
  };

  // Synchronous single-block and vectored calls.
  dev->write_block(3, span(data, 0, 1));
  dev->read_block(3, span(reads, 0, 1));
  dev->write_blocks(10, span(data, 1, 8));
  dev->read_blocks(10, 8, span(reads, 1, 8));

  // Scattered submitted writes closed by a partial barrier at the second
  // one's completion, then a poll, the full barrier and a flush.
  std::vector<std::uint64_t> done;
  for (std::uint64_t i = 0; i < 4; ++i) {
    done.push_back(
        dev->submit(request(IoOp::kWrite, 40 + i * 20, span(data, i * 4, 4), i))
            .complete_ns);
  }
  reap(dev->wait_until(done[1]));
  trace.insert(trace.end(), {rig.clock->now(), dev->completion_cutoff()});
  reap(dev->poll_completions());
  reap(dev->drain());
  dev->flush();

  // A read, a deferred write, a submitted flush and a trailing write; the
  // script ends on a partial barrier at the read's completion.
  const std::uint64_t read_done =
      dev->submit(request(IoOp::kRead, 40, span(reads, 9, 4), 10)).complete_ns;
  IoRequest deferred = request(IoOp::kWrite, 120, span(data, 0, 8), 11);
  deferred.available_ns = rig.clock->now() + 1'000'000;
  trace.insert(trace.end(),
               {read_done, dev->submit(deferred).complete_ns,
                dev->submit(request(IoOp::kFlush, 0, {}, 12)).complete_ns,
                dev->submit(request(IoOp::kWrite, 200, span(data, 0, 2), 13))
                    .complete_ns});
  reap(dev->wait_until(read_done));
  EXPECT_EQ(rig.clock->now(), read_done);

  const TimedDevice& t = *rig.timed;
  trace.insert(trace.end(),
               {rig.clock->now(), dev->completion_cutoff(), dev->queue_depth(),
                t.reads(), t.writes(), t.flushes(), t.sequential_ios(),
                t.random_ios(), t.vectored_ios(), t.async_ios()});
  reads.insert(reads.end(), rig.mem->raw().begin(), rig.mem->raw().end());
  return {reads, trace};
}

struct WrapperCase {
  std::string name;
  Wrap wrap;
};

void PrintTo(const WrapperCase& c, std::ostream* os) { *os << c.name; }

class ForwardingTransparency : public ::testing::TestWithParam<WrapperCase> {};

TEST_P(ForwardingTransparency, IdentityWrapperMatchesTheBareDevice) {
  const auto bare =
      run_script([](std::shared_ptr<BlockDevice> d) { return d; });
  const auto wrapped = run_script(GetParam().wrap);
  EXPECT_TRUE(wrapped.first == bare.first) << "read data or image differs";
  EXPECT_EQ(wrapped.second, bare.second);
}

/// Wraps the device under test in a `Dev` built with `args` after it.
template <typename Dev, typename... Args>
WrapperCase wrapper(std::string name, Args... args) {
  return {std::move(name), [=](std::shared_ptr<BlockDevice> d) {
            return std::make_shared<Dev>(d, args...);
          }};
}

INSTANTIATE_TEST_SUITE_P(
    Wrappers, ForwardingTransparency,
    ::testing::Values(
        wrapper<blockdev::RecordingDevice>("RecordingDevice"),
        wrapper<blockdev::FaultInjectedDevice>(
            "FaultInjectedDevice",
            std::make_shared<blockdev::FaultInjector>(blockdev::FaultPlan{})),
        wrapper<blockdev::FaultyDevice>("FaultyDevice", std::int64_t{-1}),
        wrapper<dm::LinearTarget>("LinearTarget", std::uint64_t{0}, kBlocks)),
    [](const ::testing::TestParamInfo<WrapperCase>& info) {
      return info.param.name;
    });

TEST(ForwardingDevice, WaitUntilReachesTheTimedDeviceThroughLvmOverDmLinear) {
  // MobiCeal's data LV sits on dm-linear over the timed userdata device;
  // the thin pool's sharded-clock reads close their request with
  // wait_until() on that LV.
  TimedRig rig;
  lvm::VolumeGroup vg("vg0");
  vg.add_pv(std::make_shared<lvm::PhysicalVolume>(
      "pv0", std::make_shared<dm::LinearTarget>(rig.timed, 0, kBlocks), 64));
  const auto lv = vg.create_lv("data", 128);

  util::Bytes data(32 * lv->block_size(), 0x5A);
  const std::uint64_t done =
      lv->submit(request(IoOp::kWrite, 8, data, 1)).complete_ns;
  ASSERT_GT(done, rig.clock->now());
  EXPECT_EQ(lv->wait_until(done).size(), 1u);
  EXPECT_EQ(rig.clock->now(), done);
  EXPECT_EQ(lv->completion_cutoff(), done);
}

}  // namespace
}  // namespace mobiceal
