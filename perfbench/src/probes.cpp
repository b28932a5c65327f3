// Host-time probes of single layers, run in every traced run. Each times
// one layer's primitive in isolation and reports the median of several
// timed batches.
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "adversary/metadata_reader.hpp"
#include "adversary/security_game.hpp"
#include "adversary/snapshot.hpp"
#include "api/scheme_registry.hpp"
#include "bench.hpp"
#include "blockdev/sparse_device.hpp"
#include "crypto/kdf.hpp"
#include "crypto/modes.hpp"
#include "thin/metadata_format.hpp"
#include "thin/thin_pool.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace adversary = mobiceal::adversary;
namespace api = mobiceal::api;
namespace blockdev = mobiceal::blockdev;
namespace crypto = mobiceal::crypto;
namespace thin = mobiceal::thin;
namespace util = mobiceal::util;

namespace {

constexpr std::size_t kBlock = 4096;
/// Thin chunks of a phone-sized pool: 16 GiB of 64 KiB chunks (the paper's
/// Nexus 4 has a 13.7 GB userdata partition). The random allocator's
/// nth-free scan and the whole-metadata commit grow with this count.
constexpr std::uint64_t kPhoneChunks = 262144;

/// Median over `reps` timings of fn(), in host microseconds per `per`.
template <typename Fn>
double time_us(int reps, double per, Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const std::uint64_t t0 = host_ns();
    fn();
    t.push_back(static_cast<double>(host_ns() - t0) / 1e3 / per);
  }
  return median(t);
}

/// dm-crypt's cipher on 4 KiB blocks: 8 ESSIV sectors of 512 bytes each.
double essiv_4k_us() {
  const util::Bytes key(32, 0x42);
  const auto cipher = crypto::make_sector_cipher("aes-cbc-essiv:sha256", key);
  constexpr int kBlocks = 256;
  util::Bytes in(kBlock * kBlocks, 0x5a), out(in.size());
  return time_us(7, kBlocks, [&] {
    cipher->encrypt_range(0, blockdev::kSectorSize, in, out);
  });
}

/// The crypto footer's PBKDF2-HMAC-SHA1 at the stack's 2000 iterations.
double pbkdf2_ms() {
  const util::Bytes pw = util::bytes_of("perfbench-public");
  const util::Bytes salt(16, 0x11);
  return time_us(5, 1, [&] {
           crypto::pbkdf2(crypto::HashAlg::kSha1, pw, salt,
                          crypto::kAndroidPbkdf2Iterations, 32);
         }) /
         1e3;
}

struct ThinTimes {
  double alloc_us, commit_ms;
};

/// A standalone random-allocation pool of `chunks` 64 KiB chunks and 8
/// volumes, like the stack's: the median first-touch write (chunk
/// allocation + mapping) and the median commit (whole-metadata store)
/// after a batch of allocations.
ThinTimes thin_probe(std::uint64_t chunks, std::uint64_t seed) {
  thin::ThinPool::Config pc;
  pc.chunk_blocks = 16;
  pc.max_volumes = 8;
  pc.policy = thin::AllocPolicy::kRandom;
  thin::Superblock est;
  est.chunk_blocks = pc.chunk_blocks;
  est.max_volumes = pc.max_volumes;
  est.nr_chunks = chunks;
  est.max_chunks_per_volume = chunks;
  const auto geom = thin::MetadataGeometry::compute(est, kBlock);
  auto meta = std::make_shared<blockdev::MemBlockDevice>(geom.total_blocks);
  auto data =
      std::make_shared<blockdev::SparseBlockDevice>(chunks * pc.chunk_blocks);
  auto pool = thin::ThinPool::format(meta, data, pc);
  // As many full-size volumes as the stack's pool has (MobiCeal's public,
  // hidden and dummy volumes): a commit stores every volume's mapping.
  for (std::uint32_t v = 0; v < pc.max_volumes; ++v) {
    pool->create_thin(v, chunks);
  }
  auto vol = pool->open_thin(0);
  util::Xoshiro256 rng(mix64(seed ^ 0x7410));
  pool->set_alloc_rng(&rng);
  const util::Bytes block(kBlock, 0xa5);
  // Distinct virtual chunks in a seeded order, each touched once.
  std::vector<std::uint64_t> order(chunks);
  for (std::uint64_t i = 0; i < chunks; ++i) order[i] = i;
  for (std::uint64_t i = chunks - 1; i > 0; --i) {
    std::swap(order[i], order[rng.next_below(i + 1)]);
  }
  constexpr int kBatches = 7, kPerBatch = 128;
  std::size_t next = 0;
  std::vector<double> alloc, commit;
  for (int b = 0; b < kBatches; ++b) {
    const std::uint64_t t0 = host_ns();
    for (int i = 0; i < kPerBatch && next < order.size(); ++i, ++next) {
      vol->write_block(order[next] * pc.chunk_blocks, block);
    }
    const std::uint64_t t1 = host_ns();
    pool->commit();
    const std::uint64_t t2 = host_ns();
    alloc.push_back(static_cast<double>(t1 - t0) / 1e3 / kPerBatch);
    commit.push_back(static_cast<double>(t2 - t1) / 1e6);
  }
  return {median(alloc), median(commit)};
}

struct AdversaryTimes {
  double snapshot_ms, parse_ms, diff_ms;
};

/// Snapshot, metadata parse and diff on a game-sized MobiCeal disk, before
/// and after a batch of public writes.
AdversaryTimes adversary_probe(std::uint64_t seed) {
  const adversary::GameConfig g;
  const api::SchemeOptions opts = game_world_options(mix64(seed ^ 0xad));
  blockdev::BlockDevice& disk = *opts.device;
  auto scheme = api::SchemeRegistry::create("mobiceal", opts);
  if (!scheme->unlock(kPublicPassword).ok) {
    throw std::runtime_error("adversary probe: unlock failed");
  }
  const adversary::Snapshot before = adversary::Snapshot::take(disk);
  util::Xoshiro256 rng(mix64(seed ^ 0xae));
  for (std::uint32_t f = 0; f < g.public_files_per_round; ++f) {
    util::Bytes payload(g.public_file_bytes);
    rng.fill(payload);
    scheme->data_fs().write_file("/probe" + std::to_string(f), payload);
  }
  scheme->data_fs().sync();
  AdversaryTimes t{};
  t.snapshot_ms =
      time_us(5, 1, [&] { adversary::Snapshot::take(disk); }) / 1e3;
  const adversary::Snapshot after = adversary::Snapshot::take(disk);
  t.parse_ms =
      time_us(5, 1, [&] { adversary::ThinMetadataReader reader(after); }) /
      1e3;
  t.diff_ms =
      time_us(5, 1, [&] { adversary::diff_snapshots(before, after); }) / 1e3;
  return t;
}

}  // namespace

void add_probe_metrics(Outcome& out, std::uint64_t seed) {
  out.add("crypto.essiv_4k_us", essiv_4k_us(), "us");
  out.add("crypto.pbkdf2_ms", pbkdf2_ms(), "ms");
  const ThinTimes th = thin_probe(kPhoneChunks, seed);
  out.add("thin.alloc_us", th.alloc_us, "us");
  out.add("thin.commit_ms", th.commit_ms, "ms");
  const AdversaryTimes adv = adversary_probe(seed);
  out.add("adversary.snapshot_ms", adv.snapshot_ms, "ms");
  out.add("adversary.parse_ms", adv.parse_ms, "ms");
  out.add("adversary.diff_ms", adv.diff_ms, "ms");
}

}  // namespace perfbench
