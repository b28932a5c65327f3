// dm-thin reproduction tests: mapping semantics, transactions/crash
// recovery, allocation policies (sequential vs MobiCeal random), dummy-write
// hooks and discard.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "blockdev/block_device.hpp"
#include "crypto/random.hpp"
#include "thin/thin_pool.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

using namespace mobiceal;
using thin::AllocPolicy;
using thin::ThinPool;

namespace {

struct PoolFixture {
  std::shared_ptr<blockdev::MemBlockDevice> meta;
  std::shared_ptr<blockdev::MemBlockDevice> data;
  std::shared_ptr<ThinPool> pool;

  explicit PoolFixture(AllocPolicy policy, std::uint64_t data_blocks = 1024,
                       std::uint32_t chunk_blocks = 4,
                       std::uint32_t max_volumes = 8) {
    meta = std::make_shared<blockdev::MemBlockDevice>(512);
    data = std::make_shared<blockdev::MemBlockDevice>(data_blocks);
    ThinPool::Config cfg;
    cfg.chunk_blocks = chunk_blocks;
    cfg.max_volumes = max_volumes;
    cfg.policy = policy;
    cfg.cpu = thin::ThinCpuModel::zero();
    pool = ThinPool::format(meta, data, cfg);
  }
};

util::Bytes pattern_block(std::size_t size, std::uint8_t seed) {
  util::Bytes b(size);
  for (std::size_t i = 0; i < size; ++i) {
    b[i] = static_cast<std::uint8_t>(seed + i * 13);
  }
  return b;
}

}  // namespace

TEST(ThinPool, FormatComputesGeometry) {
  PoolFixture f(AllocPolicy::kSequential);
  EXPECT_EQ(f.pool->nr_chunks(), 256u);  // 1024 blocks / 4 per chunk
  EXPECT_EQ(f.pool->free_chunks(), 256u);
  EXPECT_EQ(f.pool->txn_id(), 0u);
}

TEST(ThinPool, ReadOfUnprovisionedReturnsZeros) {
  PoolFixture f(AllocPolicy::kSequential);
  f.pool->create_thin(0, 16);
  auto vol = f.pool->open_thin(0);
  util::Bytes buf(4096, 0xAA);
  vol->read_block(3, buf);
  EXPECT_TRUE(std::all_of(buf.begin(), buf.end(),
                          [](std::uint8_t b) { return b == 0; }));
  EXPECT_EQ(f.pool->mapped_chunks(0), 0u);  // reads never provision
}

TEST(ThinPool, WriteProvisionsAndRoundTrips) {
  PoolFixture f(AllocPolicy::kSequential);
  f.pool->create_thin(0, 16);
  auto vol = f.pool->open_thin(0);
  const auto w = pattern_block(4096, 7);
  vol->write_block(5, w);
  util::Bytes r(4096);
  vol->read_block(5, r);
  EXPECT_EQ(r, w);
  EXPECT_EQ(f.pool->mapped_chunks(0), 1u);
  EXPECT_EQ(f.pool->free_chunks(), 255u);
}

TEST(ThinPool, VolumesAreIsolated) {
  PoolFixture f(AllocPolicy::kSequential);
  f.pool->create_thin(0, 16);
  f.pool->create_thin(1, 16);
  auto v0 = f.pool->open_thin(0);
  auto v1 = f.pool->open_thin(1);
  v0->write_block(0, pattern_block(4096, 1));
  v1->write_block(0, pattern_block(4096, 2));
  util::Bytes r(4096);
  v0->read_block(0, r);
  EXPECT_EQ(r, pattern_block(4096, 1));
  v1->read_block(0, r);
  EXPECT_EQ(r, pattern_block(4096, 2));
}

TEST(ThinPool, SequentialPolicyAllocatesInOrder) {
  PoolFixture f(AllocPolicy::kSequential);
  f.pool->create_thin(0, 64);
  auto vol = f.pool->open_thin(0);
  const auto b = pattern_block(4096, 3);
  for (int c = 0; c < 8; ++c) vol->write_block(c * 4, b);  // one per chunk
  const auto& map = f.pool->mapping(0);
  for (std::uint64_t c = 0; c < 8; ++c) EXPECT_EQ(map[c], c);
}

TEST(ThinPool, RandomPolicyScatters) {
  PoolFixture f(AllocPolicy::kRandom, 4096, 4, 8);
  util::Xoshiro256 rng(99);
  f.pool->set_alloc_rng(&rng);
  f.pool->create_thin(0, 512);
  auto vol = f.pool->open_thin(0);
  const auto b = pattern_block(4096, 5);
  for (int c = 0; c < 64; ++c) vol->write_block(c * 4, b);
  const auto& map = f.pool->mapping(0);
  // With 1024 chunks and 64 allocations, a sequential layout would be
  // 0..63; random allocation makes that astronomically unlikely.
  bool strictly_sequential = true;
  for (std::uint64_t c = 0; c < 64; ++c) {
    if (map[c] != c) strictly_sequential = false;
  }
  EXPECT_FALSE(strictly_sequential);
  // All distinct (no double allocation).
  std::set<std::uint64_t> seen(map.begin(), map.begin() + 64);
  EXPECT_EQ(seen.size(), 64u);
}

TEST(ThinPool, RandomAllocationIsUniformChiSquare) {
  // Property from DESIGN.md §6.3: allocated chunks spread uniformly.
  PoolFixture f(AllocPolicy::kRandom, 8192, 4, 4);  // 2048 chunks
  util::Xoshiro256 rng(7);
  f.pool->set_alloc_rng(&rng);
  f.pool->create_thin(0, 2048);
  auto vol = f.pool->open_thin(0);
  const auto b = pattern_block(4096, 9);
  const int kAllocs = 1024;
  for (int c = 0; c < kAllocs; ++c) vol->write_block(std::uint64_t(c) * 4, b);
  // Bucket the physical chunks into 16 regions and chi-square against
  // uniform. 15 dof,99.9th percentile ~ 37.7.
  std::vector<double> observed(16, 0.0), expected(16, kAllocs / 16.0);
  for (int c = 0; c < kAllocs; ++c) {
    observed[f.pool->mapping(0)[c] * 16 / 2048] += 1.0;
  }
  EXPECT_LT(util::chi_square(observed, expected), 37.7);
}

TEST(ThinPool, NoDoubleAllocationWithinTransaction) {
  // The paper's transaction fix (Sec. V-A): a chunk allocated but not yet
  // committed must not be allocated again.
  PoolFixture f(AllocPolicy::kRandom, 1024, 4, 4);
  util::Xoshiro256 rng(3);
  f.pool->set_alloc_rng(&rng);
  f.pool->create_thin(0, 256);
  auto vol = f.pool->open_thin(0);
  const auto b = pattern_block(4096, 1);
  for (int c = 0; c < 200; ++c) vol->write_block(std::uint64_t(c) * 4, b);
  // 200 uncommitted allocations, all distinct:
  const auto& txn = f.pool->txn_allocations();
  std::set<std::uint64_t> seen(txn.begin(), txn.end());
  EXPECT_EQ(txn.size(), 200u);
  EXPECT_EQ(seen.size(), 200u);
}

TEST(ThinPool, CommitPersistsAcrossReopen) {
  auto meta = std::make_shared<blockdev::MemBlockDevice>(512);
  auto data = std::make_shared<blockdev::MemBlockDevice>(1024);
  ThinPool::Config cfg;
  cfg.chunk_blocks = 4;
  cfg.max_volumes = 4;
  const auto w = pattern_block(4096, 21);
  {
    auto pool = ThinPool::format(meta, data, cfg);
    pool->create_thin(2, 32);
    auto vol = pool->open_thin(2);
    vol->write_block(9, w);
    pool->commit();
  }
  auto pool = ThinPool::open(meta, data);
  EXPECT_TRUE(pool->volume_exists(2));
  EXPECT_EQ(pool->mapped_chunks(2), 1u);
  auto vol = pool->open_thin(2);
  util::Bytes r(4096);
  vol->read_block(9, r);
  EXPECT_EQ(r, w);
}

TEST(ThinPool, CrashBeforeCommitDiscardsMappings) {
  auto meta = std::make_shared<blockdev::MemBlockDevice>(512);
  auto data = std::make_shared<blockdev::MemBlockDevice>(1024);
  ThinPool::Config cfg;
  cfg.chunk_blocks = 4;
  cfg.max_volumes = 4;
  {
    auto pool = ThinPool::format(meta, data, cfg);
    pool->create_thin(0, 32);
    pool->commit();
    auto vol = pool->open_thin(0);
    vol->write_block(0, pattern_block(4096, 2));  // not committed
    // "crash": drop the pool without commit
  }
  auto pool = ThinPool::open(meta, data);
  EXPECT_EQ(pool->mapped_chunks(0), 0u);
  EXPECT_EQ(pool->free_chunks(), pool->nr_chunks());
}

TEST(ThinPool, OpenRejectsGarbage) {
  auto meta = std::make_shared<blockdev::MemBlockDevice>(512);
  auto data = std::make_shared<blockdev::MemBlockDevice>(1024);
  EXPECT_THROW(ThinPool::open(meta, data), util::MetadataError);
}

TEST(ThinPool, OpenRejectsCorruptFieldsWithoutAllocating) {
  // A committed pool: 256 chunks of 4 blocks on a 512-block metadata
  // device, 8 volume slots, volume 0 with 16 virtual chunks, one mapped.
  PoolFixture f(AllocPolicy::kSequential);
  f.pool->create_thin(0, 16);
  f.pool->open_thin(0)->write_block(0, pattern_block(4096, 4));
  f.pool->commit();
  const thin::Superblock sb = f.pool->superblock();
  const auto geom = thin::MetadataGeometry::compute(sb, 4096);
  const std::uint64_t area = geom.area_start(sb.active_area) * 4096;
  const std::size_t vol0_size = area + geom.volume_table_offset * 4096 + 8;
  const std::size_t vol0_map = area + geom.maps_offset * 4096;
  const util::Bytes good = f.meta->snapshot();

  // Superblock edits are re-sealed with a valid checksum, so only field
  // validation stands between them and open(); the volume table and maps
  // carry no checksum at all.
  using Corrupt = std::function<void(util::Bytes&)>;
  const auto reseal = [&sb](std::function<void(thin::Superblock&)> edit) {
    return Corrupt([&sb, edit](util::Bytes& image) {
      thin::Superblock s = sb;
      edit(s);
      std::uint8_t* p = image.data();
      util::store_le<std::uint32_t>(p + 16, s.chunk_blocks);
      util::store_le<std::uint32_t>(p + 20, s.max_volumes);
      util::store_le<std::uint64_t>(p + 24, s.nr_chunks);
      util::store_le<std::uint64_t>(p + 32, s.max_chunks_per_volume);
      util::store_le<std::uint64_t>(p + 64, s.compute_checksum());
    });
  };
  const auto at = [](std::size_t off, std::uint64_t value) {
    return Corrupt([off, value](util::Bytes& image) {
      util::store_le<std::uint64_t>(image.data() + off, value);
    });
  };
  const auto open_with = [&](const Corrupt& corrupt) {
    util::Bytes image = good;
    corrupt(image);
    f.meta->write_blocks(0, image);
    ThinPool::open(f.meta, f.data);
  };

  EXPECT_NO_THROW(open_with(reseal([](thin::Superblock&) {})));
  const std::vector<std::pair<const char*, Corrupt>> cases = {
      // Geometry that does not fit the metadata device, including a map
      // size that wraps 64-bit arithmetic.
      {"max_volumes", reseal([](auto& s) { s.max_volumes = 100000; })},
      {"map areas", reseal([](auto& s) { s.max_chunks_per_volume = 40000; })},
      {"map wrap", reseal([](auto& s) { s.max_chunks_per_volume = ~0ull; })},
      {"chunk size 0", reseal([](auto& s) { s.chunk_blocks = 0; })},
      // Chunk counts beyond the 1024-block data device.
      {"nr_chunks", reseal([](auto& s) { s.nr_chunks = 257; })},
      {"nr_chunks huge", reseal([](auto& s) { s.nr_chunks = 1ull << 62; })},
      // An active volume sized 0, above max_chunks_per_volume, or huge.
      {"volume size 0", at(vol0_size, 0)},
      {"volume above max", at(vol0_size, sb.max_chunks_per_volume + 1)},
      {"volume huge", at(vol0_size, 1ull << 61)},
      // Map entries that are neither unmapped nor a chunk of the pool.
      {"map entry", at(vol0_map, sb.nr_chunks)},
      {"map entry huge", at(vol0_map + 8, 1ull << 40)},
  };
  for (const auto& [name, corrupt] : cases) {
    SCOPED_TRACE(name);
    EXPECT_THROW(open_with(corrupt), util::MetadataError);
  }
}

// The maps, the bitmap and the volume table's mapped counts carry no
// checksum, so open() cross-checks them by check_consistency()'s rules. A
// map entry naming a chunk the bitmap calls free would otherwise open
// cleanly and let the allocator hand that chunk out a second time.
TEST(ThinPool, OpenRejectsMapsThatDisagreeWithTheBitmap) {
  PoolFixture f(AllocPolicy::kSequential);
  f.pool->create_thin(0, 16);
  f.pool->create_thin(1, 16);
  f.pool->open_thin(0)->write_block(0, pattern_block(4096, 4));
  f.pool->open_thin(1)->write_block(0, pattern_block(4096, 5));
  f.pool->commit();
  ASSERT_EQ(f.pool->mapping(0)[0], 0u);
  ASSERT_EQ(f.pool->mapping(1)[0], 1u);
  ASSERT_FALSE(f.pool->chunk_allocated(5));
  const thin::Superblock sb = f.pool->superblock();
  const auto geom = thin::MetadataGeometry::compute(sb, 4096);
  const std::size_t area = geom.area_start(sb.active_area) * 4096;
  const std::size_t vol0_mapped = area + geom.volume_table_offset * 4096 + 16;
  const auto map_entry = [&](std::uint32_t vol, std::uint64_t idx) {
    return area +
           (geom.maps_offset + vol * geom.map_blocks_per_volume) * 4096 +
           idx * 8;
  };
  const util::Bytes good = f.meta->snapshot();

  // Applies the edits, re-seals the superblock checksum and opens: returns
  // the MetadataError text, or "opened".
  using Edits = std::vector<std::pair<std::size_t, std::uint64_t>>;
  const auto open_with = [&](const Edits& edits) -> std::string {
    util::Bytes image = good;
    for (const auto& [off, value] : edits) {
      util::store_le<std::uint64_t>(image.data() + off, value);
    }
    util::store_le<std::uint64_t>(image.data() + 64, sb.compute_checksum());
    f.meta->write_blocks(0, image);
    try {
      ThinPool::open(f.meta, f.data);
    } catch (const util::MetadataError& e) {
      return e.what();
    }
    return "opened";
  };
  const auto expect_rejected = [&](const Edits& edits, const char* rule) {
    const std::string got = open_with(edits);
    EXPECT_NE(got.find(rule), std::string::npos) << got;
  };

  EXPECT_EQ(open_with({}), "opened");
  // Volume 0's entry 1 names chunk 5, which the bitmap marks free.
  expect_rejected({{map_entry(0, 1), 5}, {vol0_mapped, 2}},
                  "mapping to a free chunk");
  // Volume 1's entry 0 names volume 0's chunk.
  expect_rejected({{map_entry(1, 0), 0}}, "chunk mapped twice");
  // Volume 0 claims two mapped chunks but its map holds one.
  expect_rejected({{vol0_mapped, 2}}, "stale mapped count");
  // Volume 1 drops its only chunk, which stays allocated in the bitmap.
  expect_rejected({{map_entry(1, 0), thin::kUnmapped},
                   {vol0_mapped + thin::kVolumeDescSize, 0}},
                  "allocated chunk that no map holds");
}

TEST(ThinPool, DiscardFreesChunk) {
  PoolFixture f(AllocPolicy::kSequential);
  f.pool->create_thin(0, 16);
  auto vol = f.pool->open_thin(0);
  vol->write_block(0, pattern_block(4096, 4));
  EXPECT_EQ(f.pool->free_chunks(), 255u);
  f.pool->discard(0, 0);
  EXPECT_EQ(f.pool->free_chunks(), 256u);
  EXPECT_EQ(f.pool->mapped_chunks(0), 0u);
  // Discard does not scrub: data remains on the device (deniability needs
  // dummy noise to persist; Sec. IV-D).
  util::Bytes raw(4096);
  f.data->read_block(0, raw);
  EXPECT_EQ(raw, pattern_block(4096, 4));
  // Reads through the volume now return zeros.
  util::Bytes r(4096, 1);
  vol->read_block(0, r);
  EXPECT_TRUE(std::all_of(r.begin(), r.end(),
                          [](std::uint8_t b) { return b == 0; }));
}

TEST(ThinPool, WriteNoiseChunkFillsPrefixWithRandomness) {
  PoolFixture f(AllocPolicy::kRandom, 1024, 4, 4);
  util::Xoshiro256 rng(17);
  f.pool->set_alloc_rng(&rng);
  f.pool->create_thin(1, 64);
  {
    crypto::SecureRandom noise(5);
    util::Xoshiro256 place(6);
    const auto phys = f.pool->write_noise_chunk(1, 2, noise, place);
    ASSERT_TRUE(phys.has_value());
    util::Bytes b(4096);
    f.data->read_block(*phys * 4 + 0, b);
    EXPECT_TRUE(util::looks_random(b));
    f.data->read_block(*phys * 4 + 1, b);
    EXPECT_TRUE(util::looks_random(b));
    f.data->read_block(*phys * 4 + 2, b);  // beyond prefix: untouched
    EXPECT_TRUE(std::all_of(b.begin(), b.end(),
                            [](std::uint8_t x) { return x == 0; }));
  }
  EXPECT_EQ(f.pool->mapped_chunks(1), 1u);
}

TEST(ThinPool, NoiseChunkReturnsNulloptWhenVolumeFull) {
  PoolFixture f(AllocPolicy::kSequential, 1024, 4, 4);
  f.pool->create_thin(1, 2);  // tiny virtual size
  crypto::SecureRandom noise(5);
  util::Xoshiro256 place(6);
  EXPECT_TRUE(f.pool->write_noise_chunk(1, 4, noise, place).has_value());
  EXPECT_TRUE(f.pool->write_noise_chunk(1, 4, noise, place).has_value());
  EXPECT_FALSE(f.pool->write_noise_chunk(1, 4, noise, place).has_value());
}

TEST(ThinPool, ObserverFiresOncePerFreshProvisionOnObservedVolume) {
  PoolFixture f(AllocPolicy::kSequential);
  f.pool->create_thin(0, 16);
  f.pool->create_thin(1, 16);
  f.pool->observe_volume(0, true);
  int fires = 0;
  f.pool->set_allocation_observer(
      [&](std::uint32_t vol, std::uint64_t) {
        EXPECT_EQ(vol, 0u);
        ++fires;
      });
  auto v0 = f.pool->open_thin(0);
  auto v1 = f.pool->open_thin(1);
  const auto b = pattern_block(4096, 11);
  v0->write_block(0, b);  // fresh -> fire
  v0->write_block(1, b);  // same chunk -> no fire
  v0->write_block(4, b);  // new chunk -> fire
  v1->write_block(0, b);  // unobserved volume -> no fire
  EXPECT_EQ(fires, 2);
}

TEST(ThinPool, ObserverDummyWritesDoNotRecurse) {
  PoolFixture f(AllocPolicy::kSequential);
  f.pool->create_thin(0, 16);
  f.pool->create_thin(1, 16);
  f.pool->observe_volume(0, true);
  // Pathological observer: performs a client write back onto the observed
  // volume. The in_observer_ guard must stop infinite recursion.
  int fires = 0;
  auto v0 = f.pool->open_thin(0);
  f.pool->set_allocation_observer([&](std::uint32_t, std::uint64_t) {
    ++fires;
    v0->write_block(8, pattern_block(4096, 12));  // would re-trigger
  });
  v0->write_block(0, pattern_block(4096, 13));
  EXPECT_EQ(fires, 1);
}

TEST(ThinPool, PoolExhaustionThrowsNoSpace) {
  PoolFixture f(AllocPolicy::kSequential, 64, 4, 4);  // 16 chunks
  f.pool->create_thin(0, 16);
  auto vol = f.pool->open_thin(0);
  const auto b = pattern_block(4096, 14);
  for (int c = 0; c < 16; ++c) vol->write_block(std::uint64_t(c) * 4, b);
  EXPECT_THROW(
      {
        f.pool->create_thin(1, 16);
        auto v1 = f.pool->open_thin(1);
        v1->write_block(0, b);
      },
      util::NoSpaceError);
}

TEST(ThinPool, DeleteThinReleasesEverything) {
  PoolFixture f(AllocPolicy::kSequential);
  f.pool->create_thin(0, 16);
  auto vol = f.pool->open_thin(0);
  const auto b = pattern_block(4096, 15);
  for (int c = 0; c < 8; ++c) vol->write_block(std::uint64_t(c) * 4, b);
  EXPECT_EQ(f.pool->free_chunks(), 248u);
  f.pool->delete_thin(0);
  EXPECT_EQ(f.pool->free_chunks(), 256u);
  EXPECT_FALSE(f.pool->volume_exists(0));
}

TEST(ThinPool, RejectsBadVolumeOperations) {
  PoolFixture f(AllocPolicy::kSequential);
  EXPECT_THROW(f.pool->open_thin(0), util::IoError);
  EXPECT_THROW(f.pool->create_thin(99, 4), util::IoError);
  f.pool->create_thin(0, 16);
  EXPECT_THROW(f.pool->create_thin(0, 4), util::IoError);
  EXPECT_THROW(f.pool->create_thin(1, 0), util::IoError);
  EXPECT_THROW(f.pool->discard(0, 0), util::IoError);  // not mapped
}

// Parameterized sweep: pool behaves identically across chunk sizes.
class ThinChunkSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ThinChunkSweep, RoundTripAndAccounting) {
  const std::uint32_t chunk_blocks = GetParam();
  PoolFixture f(AllocPolicy::kRandom, 2048, chunk_blocks, 4);
  util::Xoshiro256 rng(chunk_blocks);
  f.pool->set_alloc_rng(&rng);
  const std::uint64_t vchunks = 2048 / chunk_blocks / 2;
  f.pool->create_thin(0, vchunks);
  auto vol = f.pool->open_thin(0);
  const auto b = pattern_block(4096, 42);
  const std::uint64_t writes = std::min<std::uint64_t>(vchunks, 16);
  for (std::uint64_t c = 0; c < writes; ++c) {
    vol->write_block(c * chunk_blocks, b);
  }
  EXPECT_EQ(f.pool->mapped_chunks(0), writes);
  EXPECT_EQ(f.pool->free_chunks(), f.pool->nr_chunks() - writes);
  util::Bytes r(4096);
  for (std::uint64_t c = 0; c < writes; ++c) {
    vol->read_block(c * chunk_blocks, r);
    EXPECT_EQ(r, b);
  }
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, ThinChunkSweep,
                         ::testing::Values(1, 2, 4, 8, 16, 32));
