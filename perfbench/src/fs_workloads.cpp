// The three filesystem workloads: fig4-dd, app-4k and ftl-churn.
//
// One closed-loop client drives the registered "mobiceal" scheme through
// api::SchemeRegistry::create, PdeScheme::unlock/reboot and the mounted
// fs::FileSystem. A round builds a fresh backing device and stack, runs
// a plan generated from its round seed, and checks it; a run cycles
// through a few round seeds until --seconds have passed. Replaying a round seed on a fresh
// stack must charge the same virtual time and leave the same device
// image, with or without tracing.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/scheme_registry.hpp"
#include "blockdev/sparse_device.hpp"
#include "blockdev/timed_device.hpp"
#include "bench.hpp"
#include "ftl/ftl_device.hpp"
#include "report.hpp"
#include "tap.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace api = mobiceal::api;
namespace blockdev = mobiceal::blockdev;
namespace ftl = mobiceal::ftl;
namespace util = mobiceal::util;

namespace {

constexpr std::size_t kBlock = 4096;
constexpr std::uint64_t kMiB = 1 << 20;
/// Every round seed of a run is replayed at least this often.
constexpr std::size_t kMinReplays = 2;
/// Synced blocks re-read after the post-run reboot + unlock.
constexpr std::size_t kRemountSample = 256;

enum class Backing { kMem, kSparse, kFtl };
enum Op : std::uint8_t { kWrite = 0, kRead = 1, kSync = 2 };

struct Step {
  Op op;
  std::uint64_t offset;  ///< bytes, block aligned
  std::uint32_t len;     ///< bytes, whole blocks
};

struct Spec {
  Backing backing;
  std::uint64_t device_blocks;
  std::uint64_t cache_blocks;
  std::uint64_t file_bytes;
  /// Round seeds a run cycles through (see run_fs_workload).
  std::size_t round_seeds;
};

struct Plan {
  Spec spec;
  std::vector<Step> preload;   ///< set-up, untimed per call
  std::vector<Step> measured;  ///< the closed loop
};

/// fig4-dd: the paper's Fig. 4 dd test on MC-P. Sequential 1 MiB writes
/// of one file, fdatasync, sequential 1 MiB reads. The device is sized
/// like bench_fig4_throughput's (4x the file + 128 MiB).
Plan plan_fig4_dd() {
  const std::uint64_t file = 64 * kMiB;
  Plan p{{Backing::kMem, (file / kBlock) * 4 + 32768, 0, file, 4}, {}, {}};
  for (std::uint64_t off = 0; off < file; off += kMiB) {
    p.measured.push_back({kWrite, off, kMiB});
  }
  p.measured.push_back({kSync, 0, 0});
  for (std::uint64_t off = 0; off < file; off += kMiB) {
    p.measured.push_back({kRead, off, kMiB});
  }
  return p;
}

/// app-4k: 4 KiB random I/O on a 16 GiB (phone-sized) sparse partition.
/// Half the calls write a random block of a 1 GiB file (first touches
/// allocate thin chunks), half re-read a block written earlier in the
/// round; sync after every 64 calls.
Plan plan_app_4k(std::uint64_t seed) {
  const std::uint64_t file = 1024 * kMiB;
  const std::uint64_t blocks = file / kBlock;
  Plan p{{Backing::kSparse, 16 * 1024 * kMiB / kBlock, 0, file, 2}, {}, {}};
  // Extends the file to its full size; the rest stays a hole until written.
  p.preload = {{kWrite, file - kBlock, kBlock}, {kSync, 0, 0}};
  util::Xoshiro256 rng(mix64(seed ^ 0xa4));
  std::vector<std::uint64_t> written;
  for (int i = 1; i <= 16384; ++i) {
    if (written.empty() || rng.next_below(2) == 0) {
      const std::uint64_t b = rng.next_below(blocks);
      written.push_back(b);
      p.measured.push_back({kWrite, b * kBlock, kBlock});
    } else {
      const std::uint64_t b = written[rng.next_below(written.size())];
      p.measured.push_back({kRead, b * kBlock, kBlock});
    }
    if (i % 64 == 0) p.measured.push_back({kSync, 0, 0});
  }
  return p;
}

/// ftl-churn: MC-P on a 256 MiB FTL device (7% over-provisioning) under a
/// 16 MiB writeback cache. Set-up fills a 128 MiB file; the loop
/// overwrites and re-reads 16 KiB pieces, 80% on an 8 MiB hot set that
/// fits the cache, 20% anywhere in the file; sync after every 128 calls.
Plan plan_ftl_churn(std::uint64_t seed) {
  const std::uint64_t file = 128 * kMiB;
  const std::uint64_t io = 16 * 1024;
  const std::uint64_t hot = 8 * kMiB;
  Plan p{{Backing::kFtl, 256 * kMiB / kBlock, 4096, file, 2}, {}, {}};
  for (std::uint64_t off = 0; off < file; off += kMiB) {
    p.preload.push_back({kWrite, off, kMiB});
  }
  p.preload.push_back({kSync, 0, 0});
  util::Xoshiro256 rng(mix64(seed ^ 0xf7));
  for (int i = 1; i <= 16384; ++i) {
    const std::uint64_t span = rng.next_below(5) < 4 ? hot : file;
    const std::uint64_t off = rng.next_below(span / io) * io;
    const Op op = rng.next_below(2) == 0 ? kWrite : kRead;
    p.measured.push_back({op, off, static_cast<std::uint32_t>(io)});
    if (i % 128 == 0) p.measured.push_back({kSync, 0, 0});
  }
  return p;
}

Plan make_plan(const std::string& workload, std::uint64_t seed) {
  if (workload == "fig4-dd") return plan_fig4_dd();
  if (workload == "app-4k") return plan_app_4k(seed);
  return plan_ftl_churn(seed);
}

/// Every written block carries its file block number, the seed and a
/// per-block version in a 32-byte header, then seeded filler, so a read
/// can be checked against exactly the last write of that block.
void stamp(std::uint64_t seed, std::uint64_t block, std::uint32_t version,
           std::uint8_t* out) {
  std::uint64_t words[kBlock / 8];
  words[0] = 0x4b4c42484352504dULL;  // "MPRCHBLK"
  words[1] = seed;
  words[2] = block;
  words[3] = version;
  std::uint64_t s = mix64(seed ^ mix64(block ^ (std::uint64_t{version} << 40)));
  for (std::size_t i = 4; i < kBlock / 8; ++i) {
    s = mix64(s);
    words[i] = s;
  }
  std::memcpy(out, words, kBlock);
}

/// Everything one round measured.
struct Round {
  double setup_s = 0, create_ms = 0, unlock_ms = 0;
  std::uint64_t busy_ns[3] = {}, calls[3] = {}, bytes[3] = {};
  std::uint64_t virt_ns[3] = {};
  std::uint64_t phase_virt_ns = 0;
  std::uint64_t digest = 0;
  TapCounters tap;
  std::uint64_t seq_ios = 0, random_ios = 0;
  ftl::FtlStats ftl;
  std::size_t span_first = 0, span_last = 0;
  /// Bitmap of the backing blocks the round wrote (TapDevice::written).
  std::vector<std::uint64_t> written;

  std::uint64_t total_busy_ns() const {
    return busy_ns[0] + busy_ns[1] + busy_ns[2];
  }
  std::uint64_t total_calls() const { return calls[0] + calls[1] + calls[2]; }
};

/// The backing device stack of one round: {raw logical image, timed
/// device}, with the layer handles whose counters the trace reports.
struct Backend {
  std::shared_ptr<blockdev::BlockDevice> raw;
  std::shared_ptr<blockdev::BlockDevice> timed;
  std::shared_ptr<blockdev::TimedDevice> timed_model;  // mem/sparse
  std::shared_ptr<ftl::FtlDevice> flash;               // ftl
};

Backend make_backend(const Spec& spec,
                     const std::shared_ptr<util::SimClock>& clock) {
  Backend b;
  if (spec.backing == Backing::kFtl) {
    ftl::FtlConfig cfg;
    cfg.logical_blocks = spec.device_blocks;
    cfg.over_provision_pct = 7;
    cfg.timing = ftl::FlashTimingModel::mlc_nand();
    b.flash = ftl::FtlDevice::create(cfg, clock);
    b.raw = std::make_shared<ftl::FtlLogicalView>(b.flash);
    b.timed = b.flash;
    return b;
  }
  if (spec.backing == Backing::kMem) {
    b.raw = std::make_shared<blockdev::MemBlockDevice>(spec.device_blocks);
  } else {
    b.raw = std::make_shared<blockdev::SparseBlockDevice>(spec.device_blocks);
  }
  b.timed_model = std::make_shared<blockdev::TimedDevice>(
      b.raw, blockdev::TimingModel::nexus4_emmc(), clock);
  b.timed = b.timed_model;
  return b;
}

/// Calls fn(block, data) for every block set in `bits`, reading it from
/// the untimed raw view.
template <typename Fn>
void for_each_written(blockdev::BlockDevice& raw,
                      const std::vector<std::uint64_t>& bits, Fn&& fn) {
  util::Bytes buf(kBlock);
  for (std::size_t w = 0; w < bits.size(); ++w) {
    for (std::uint64_t m = bits[w]; m != 0; m &= m - 1) {
      const std::uint64_t b =
          w * 64 + static_cast<std::uint64_t>(__builtin_ctzll(m));
      raw.read_block(b, buf);
      fn(b, buf);
    }
  }
}

/// Digest of the logical image: every block ever written (all others are
/// still zero on a fresh device).
std::uint64_t image_digest(blockdev::BlockDevice& raw,
                           const std::vector<std::uint64_t>& bits) {
  std::uint64_t h = 0x6a09e667f3bcc908ULL;
  for_each_written(raw, bits, [&](std::uint64_t b, const util::Bytes& buf) {
    h = mix64(h ^ b);
    for (std::size_t i = 0; i < kBlock; i += 8) {
      std::uint64_t v;
      std::memcpy(&v, buf.data() + i, 8);
      h = (h ^ v) * 0x100000001b3ULL;
    }
  });
  return mix64(h);
}

class RoundRunner {
 public:
  explicit RoundRunner(Outcome& out) : out_(out) {}

  /// Builds a fresh stack, runs `plan` with data stamped from `seed`,
  /// checks it. `tracer` (may be null) records spans from stack creation
  /// to the end of the loop. With `untapped_like`, the stack sits directly
  /// on the backing device, without the tap, and the image digest covers
  /// the blocks that round wrote.
  Round run(const Plan& plan, std::uint64_t seed, Tracer* tracer,
            const Round* untapped_like = nullptr) {
    plan_ = &plan;
    seed_ = seed;
    Round r;
    const std::uint64_t blocks = plan.spec.file_bytes / kBlock;
    version_.assign(blocks, 0);
    synced_.assign(blocks, 0);
    dirty_.clear();

    const std::uint64_t t_setup = host_ns();
    auto clock = std::make_shared<util::SimClock>();
    if (tracer) tracer->set_clock(clock.get());
    Backend be = make_backend(plan_->spec, clock);
    std::shared_ptr<TapDevice> tap;
    if (!untapped_like) tap = std::make_shared<TapDevice>(be.timed, tracer);

    api::SchemeOptions opts;
    opts.device = tap ? tap : be.timed;
    opts.clock = clock;
    opts.stack.cache_blocks = plan_->spec.cache_blocks;
    opts.public_password = kPublicPassword;
    opts.hidden_passwords = {kHiddenPassword};
    opts.rng_seed = mix64(seed_);
    opts.num_volumes = 8;
    opts.chunk_blocks = 16;
    opts.kdf_iterations = 2000;
    opts.fs_inode_count = 1024;

    std::unique_ptr<api::PdeScheme> scheme;
    std::uint64_t t0 = host_ns();
    {
      ScopedSpan span(tracer, SpanKind::kApiCreate);
      scheme = api::SchemeRegistry::create("mobiceal", opts);
    }
    std::uint64_t t1 = host_ns();
    r.create_ms = static_cast<double>(t1 - t0) / 1e6;
    unlock_public(*scheme, tracer);
    r.unlock_ms = static_cast<double>(host_ns() - t1) / 1e6;
    fs_ = &scheme->data_fs();
    fs_->create(kPath);
    for (const Step& s : plan_->preload) {
      ScopedSpan span(tracer,
                      s.op == kSync ? SpanKind::kSetupSync
                                    : SpanKind::kSetupWrite);
      execute(s);
    }
    r.setup_s = static_cast<double>(host_ns() - t_setup) / 1e9;

    // The measured closed loop: only the fs call itself is timed; the
    // stamping and the read check around it are the client's work.
    const TapCounters tap0 = tap ? tap->counters() : TapCounters{};
    const std::uint64_t seq0 =
        be.timed_model ? be.timed_model->sequential_ios() : 0;
    const std::uint64_t rnd0 =
        be.timed_model ? be.timed_model->random_ios() : 0;
    const ftl::FtlStats ftl0 = be.flash ? be.flash->stats() : ftl::FtlStats{};
    const std::uint64_t v_phase = clock->now();
    r.span_first = tracer ? tracer->size() : 0;
    for (std::size_t i = 0; i < plan_->measured.size(); ++i) {
      const Step& s = plan_->measured[i];
      prepare(s);
      if (tracer) tracer->set_call(i + 1);
      const std::uint64_t v0 = clock->now();
      const std::uint64_t h0 = host_ns();
      bool ok = true;
      {
        ScopedSpan span(tracer, s.op == kWrite  ? SpanKind::kFsWrite
                                : s.op == kRead ? SpanKind::kFsRead
                                                : SpanKind::kFsSync);
        ok = call(s);
      }
      const std::uint64_t h1 = host_ns();
      r.busy_ns[s.op] += h1 - h0;
      r.virt_ns[s.op] += clock->now() - v0;
      ++r.calls[s.op];
      r.bytes[s.op] += s.len;
      ++out_.attempted;
      if (!ok || !finish(s)) ++out_.failed;
    }
    r.span_last = tracer ? tracer->size() : 0;
    if (tracer) {
      tracer->set_call(0);
      tracer->set_enabled(false);
    }
    r.phase_virt_ns = clock->now() - v_phase;
    if (tap) r.tap = tap->counters() - tap0;
    if (be.timed_model) {
      r.seq_ios = be.timed_model->sequential_ios() - seq0;
      r.random_ios = be.timed_model->random_ios() - rnd0;
    }
    if (be.flash) {
      const ftl::FtlStats& f = be.flash->stats();
      r.ftl.host_writes = f.host_writes - ftl0.host_writes;
      r.ftl.programs = f.programs - ftl0.programs;
      r.ftl.erases = f.erases - ftl0.erases;
      r.ftl.gc_runs = f.gc_runs - ftl0.gc_runs;
      r.ftl.gc_relocations = f.gc_relocations - ftl0.gc_relocations;
    }
    r.written = tap ? tap->written() : untapped_like->written;
    r.digest = image_digest(*be.raw, r.written);

    // Untimed durability checks. Every block whose last write a sync
    // acknowledged must come back (1) from a fresh stack attached to a
    // copy of the device image as it stands now, a power loss that drops
    // dirty cache contents and uncommitted thin metadata, and (2) after
    // reboot() + unlock() of this stack, without a final sync.
    check_power_loss(*be.raw, r.written, opts);
    scheme->reboot();
    unlock_public(*scheme, nullptr);
    fs_ = &scheme->data_fs();
    check_synced_sample();
    scheme.reset();  // unmount I/O stays out of the trace
    if (tracer) {
      tracer->set_clock(nullptr);
      tracer->set_enabled(true);
    }
    fs_ = nullptr;
    return r;
  }

 private:
  static constexpr char kPath[] = "/bench.dat";

  void unlock_public(api::PdeScheme& scheme, Tracer* tracer) {
    ScopedSpan span(tracer, SpanKind::kApiUnlock);
    const api::UnlockResult u = scheme.unlock(kPublicPassword);
    if (!u.ok || u.volume != api::VolumeClass::kPublic) {
      throw std::runtime_error("unlock did not mount the public volume");
    }
  }

  /// Stamps the write buffer (new versions) before a write call.
  void prepare(const Step& s) {
    if (s.op != kWrite) return;
    buf_.resize(s.len);
    const std::uint64_t first = s.offset / kBlock;
    for (std::uint64_t i = 0; i < s.len / kBlock; ++i) {
      const std::uint64_t b = first + i;
      if (version_[b] == synced_[b]) dirty_.push_back(b);
      stamp(seed_, b, ++version_[b], buf_.data() + i * kBlock);
    }
  }

  /// The fs call. False when it threw.
  bool call(const Step& s) {
    try {
      switch (s.op) {
        case kWrite: fs_->write(kPath, s.offset, buf_); break;
        case kRead: read_ = fs_->read(kPath, s.offset, s.len); break;
        case kSync: fs_->sync(); break;
      }
      return true;
    } catch (const std::exception& e) {
      note_problem(std::string("fs call failed: ") + e.what());
      return false;
    }
  }

  /// Post-call bookkeeping; false when a read returned wrong data.
  bool finish(const Step& s) {
    if (s.op == kSync) {
      for (std::uint64_t b : dirty_) synced_[b] = version_[b];
      dirty_.clear();
      return true;
    }
    if (s.op == kRead) return verify(s.offset, read_);
    return true;
  }

  void execute(const Step& s) {
    prepare(s);
    if (!call(s) || !finish(s)) {
      throw std::runtime_error("set-up I/O failed");
    }
  }

  bool verify(std::uint64_t offset, const util::Bytes& got) {
    if (got.size() % kBlock != 0 || got.empty()) {
      note_problem("short read");
      return false;
    }
    std::uint8_t want[kBlock];
    for (std::size_t i = 0; i < got.size() / kBlock; ++i) {
      const std::uint64_t b = offset / kBlock + i;
      stamp(seed_, b, version_[b], want);
      if (std::memcmp(want, got.data() + i * kBlock, kBlock) != 0) {
        note_problem("read returned data that is not the last write");
        return false;
      }
    }
    return true;
  }

  void check_power_loss(blockdev::BlockDevice& raw,
                        const std::vector<std::uint64_t>& written,
                        const api::SchemeOptions& live) {
    auto image = std::make_shared<blockdev::SparseBlockDevice>(
        raw.num_blocks(), raw.block_size());
    for_each_written(raw, written,
                     [&](std::uint64_t b, const util::Bytes& buf) {
                       image->write_block(b, buf);
                     });
    api::SchemeOptions opts = live;
    opts.device = image;
    opts.clock = std::make_shared<util::SimClock>();
    opts.format = false;
    const auto scheme = api::SchemeRegistry::create("mobiceal", opts);
    unlock_public(*scheme, nullptr);
    fs_ = &scheme->data_fs();
    check_synced_sample();
    fs_ = nullptr;
  }

  void check_synced_sample() {
    std::vector<std::uint64_t> durable;
    for (std::uint64_t b = 0; b < version_.size(); ++b) {
      if (version_[b] != 0 && version_[b] == synced_[b]) durable.push_back(b);
    }
    util::Xoshiro256 rng(mix64(seed_ ^ 0x5e));
    const std::size_t n = std::min(kRemountSample, durable.size());
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t b = durable[rng.next_below(durable.size())];
      ++out_.attempted;
      bool ok = false;
      try {
        ok = verify(b * kBlock, fs_->read(kPath, b * kBlock, kBlock));
      } catch (const std::exception& e) {
        note_problem(std::string("read after remount failed: ") + e.what());
      }
      if (!ok) ++out_.failed;
    }
  }

  void note_problem(const std::string& why) {
    if (out_.problems.size() < 8) out_.problems.push_back(why);
  }

  Outcome& out_;
  const Plan* plan_ = nullptr;
  std::uint64_t seed_ = 0;
  mobiceal::fs::FileSystem* fs_ = nullptr;
  std::vector<std::uint32_t> version_, synced_;
  std::vector<std::uint64_t> dirty_;
  util::Bytes buf_, read_;
};

/// Virtual-time and image fingerprint of a round; equal whenever a round
/// seed is replayed, traced or not.
struct Fingerprint {
  std::uint64_t phase_virt_ns, virt_ns[3], digest;
  bool operator==(const Fingerprint&) const = default;
};

Fingerprint fingerprint(const Round& r) {
  return {r.phase_virt_ns, {r.virt_ns[0], r.virt_ns[1], r.virt_ns[2]},
          r.digest};
}

double kbps(std::uint64_t bytes, std::uint64_t ns) {
  return ns == 0 ? 0 : static_cast<double>(bytes) / 1024.0 /
                           (static_cast<double>(ns) * 1e-9);
}

void print_fingerprint(const std::string& workload, std::uint64_t seed,
                       const Round& r) {
  std::printf(
      "virt %s seed=%llu phase_ns=%llu write_ns=%llu read_ns=%llu "
      "sync_ns=%llu image=%016llx write_kbps=%.3f read_kbps=%.3f\n",
      workload.c_str(), static_cast<unsigned long long>(seed),
      static_cast<unsigned long long>(r.phase_virt_ns),
      static_cast<unsigned long long>(r.virt_ns[0]),
      static_cast<unsigned long long>(r.virt_ns[1]),
      static_cast<unsigned long long>(r.virt_ns[2]),
      static_cast<unsigned long long>(r.digest),
      kbps(r.bytes[0], r.virt_ns[0] + r.virt_ns[2]),
      kbps(r.bytes[1], r.virt_ns[1]));
}

/// Seed of round `k` of a run.
std::uint64_t round_seed(std::uint64_t seed, std::size_t k) {
  return mix64(seed ^ mix64(0x520d + k));
}

}  // namespace

bool is_fs_workload(const std::string& name) {
  return name == "fig4-dd" || name == "app-4k" || name == "ftl-churn";
}

void run_fs_workload(const Args& args, Outcome& out) {
  RoundRunner runner(out);

  if (!args.trace) {
    // The run cycles through a fixed set of round seeds until --seconds
    // have passed, replaying each seed at least kMinReplays times. This
    // host's CPU speed drifts by up to a quarter over tens of seconds and
    // noise only ever adds time, so each seed keeps its fastest replay;
    // the metrics pool those best replays, which also averages over the
    // seeds. Replays of one seed must match in virtual time and image.
    const std::size_t n_seeds = make_plan(args.workload, 0).spec.round_seeds;
    std::vector<Plan> plans;
    for (std::size_t k = 0; k < n_seeds; ++k) {
      plans.push_back(make_plan(args.workload, round_seed(args.seed, k)));
    }
    std::vector<std::vector<Round>> replays(n_seeds);
    const std::uint64_t start = host_ns();
    std::size_t n_rounds = 0;
    while (replays.back().size() < kMinReplays ||
           static_cast<double>(host_ns() - start) * 1e-9 < args.seconds) {
      const std::size_t k = n_rounds++ % n_seeds;
      replays[k].push_back(
          runner.run(plans[k], round_seed(args.seed, k), nullptr));
      if (!(fingerprint(replays[k].back()) == fingerprint(replays[k][0]))) {
        out.fail("a replayed round differs in virtual time or image");
      }
    }
    std::vector<double> setups;
    std::uint64_t calls = 0, busy_ns = 0;
    for (const auto& reps : replays) {
      const Round* best = &reps.front();
      double setup = reps.front().setup_s;
      for (const Round& r : reps) {
        if (r.total_busy_ns() < best->total_busy_ns()) best = &r;
        setup = std::min(setup, r.setup_s);
      }
      setups.push_back(setup);
      calls += best->total_calls();
      busy_ns += best->total_busy_ns();
    }
    EndToEnd e;
    e.setup_s = median(setups);
    e.ops_s = static_cast<double>(calls) / (static_cast<double>(busy_ns) * 1e-9);
    add_end_to_end(out, e);
    print_fingerprint(args.workload, args.seed, replays.front().front());
    std::printf("rounds %zu seeds %zu calls %llu\n", n_rounds, n_seeds,
                static_cast<unsigned long long>(calls));
    return;
  }

  // Traced run: an untraced round on each side of the traced one gives the
  // tracing overhead and two checks. The traced round must match the
  // untraced one (tracing changes nothing), and the last round runs
  // without the tap and must match too (the tap is transparent).
  const std::uint64_t seed0 = round_seed(args.seed, 0);
  const Plan plan = make_plan(args.workload, seed0);
  Tracer tracer;
  const Round before = runner.run(plan, seed0, nullptr);
  const Round traced = runner.run(plan, seed0, &tracer);
  const Round after = runner.run(plan, seed0, nullptr, &before);
  if (!(fingerprint(traced) == fingerprint(before))) {
    out.fail("traced round differs from untraced in virtual time or image");
  }
  if (!(fingerprint(after) == fingerprint(before))) {
    out.fail("round without the tap differs in virtual time or image");
  }
  const Ledger led = build_ledger(tracer.spans(), traced.span_first,
                                  traced.span_last, traced.phase_virt_ns);
  if (!led.host_additive || !led.virt_additive) {
    out.fail("ledger: " + led.problem);
  }
  print_fingerprint(args.workload, args.seed, traced);

  LayerData l;
  l.create_ms = traced.create_ms;
  l.unlock_ms = traced.unlock_ms;
  for (int c = 0; c < 3; ++c) {
    l.fs_calls[c] = static_cast<double>(led.fs_calls[c]);
    l.fs_busy_ms[c] = static_cast<double>(led.fs_busy_ns[c]) / 1e6;
    l.fs_p50_us[c] = percentile(led.fs_latency_us[c], 50);
    if (c < 2) l.fs_p99_us[c] = percentile(led.fs_latency_us[c], 99);
    l.stack_self_ms[c] = static_cast<double>(led.stack_self_ns[c]) / 1e6;
  }
  const double mib = static_cast<double>(kMiB);
  l.fs_write_mib_s =
      static_cast<double>(traced.bytes[0]) / mib /
      (static_cast<double>(led.fs_busy_ns[0] + led.fs_busy_ns[2]) * 1e-9);
  l.fs_read_mib_s = static_cast<double>(traced.bytes[1]) / mib /
                    (static_cast<double>(led.fs_busy_ns[1]) * 1e-9);
  l.stack_virt_ms =
      static_cast<double>(led.fs_virt_ns - led.dev_virt_ns) / 1e6;
  l.blockdev_virt_ms = static_cast<double>(led.dev_virt_ns) / 1e6;
  l.virt_write_kbps =
      kbps(traced.bytes[0], traced.virt_ns[0] + traced.virt_ns[2]);
  l.virt_read_kbps = kbps(traced.bytes[1], traced.virt_ns[1]);
  l.virt_ops_s = static_cast<double>(traced.total_calls()) /
                 (static_cast<double>(traced.phase_virt_ns) * 1e-9);
  l.dev_requests = static_cast<double>(traced.tap.requests);
  l.dev_blocks_written = static_cast<double>(traced.tap.blocks_written);
  l.dev_blocks_read = static_cast<double>(traced.tap.blocks_read);
  l.dev_flushes = static_cast<double>(traced.tap.flushes);
  l.dev_busy_ms = static_cast<double>(led.dev_busy_ns[0] + led.dev_busy_ns[1] +
                                      led.dev_busy_ns[2]) /
                  1e6;
  l.dev_write_amp = static_cast<double>(traced.tap.blocks_written) /
                    static_cast<double>(traced.bytes[0] / kBlock);
  l.dev_read_amp = static_cast<double>(traced.tap.blocks_read) /
                   static_cast<double>(traced.bytes[1] / kBlock);
  l.dev_seq_ios = static_cast<double>(traced.seq_ios);
  l.dev_random_ios = static_cast<double>(traced.random_ios);
  l.ftl_programs = static_cast<double>(traced.ftl.programs);
  l.ftl_erases = static_cast<double>(traced.ftl.erases);
  l.ftl_gc_runs = static_cast<double>(traced.ftl.gc_runs);
  l.ftl_gc_relocations = static_cast<double>(traced.ftl.gc_relocations);
  l.ftl_write_amp = traced.ftl.write_amplification();
  const double untraced_ns =
      static_cast<double>(before.total_busy_ns() + after.total_busy_ns()) / 2;
  l.trace_overhead_pct =
      (static_cast<double>(traced.total_busy_ns()) / untraced_ns - 1) * 100;
  l.trace_spans = static_cast<double>(tracer.size());
  add_layers(out, l);
  add_probe_metrics(out, args.seed);
  if (!args.trace_out.empty()) tracer.write_chrome_json(args.trace_out);
}

}  // namespace perfbench
