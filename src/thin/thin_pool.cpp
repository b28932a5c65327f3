#include "thin/thin_pool.hpp"

#include <algorithm>
#include <cstring>

#include "util/error.hpp"

namespace mobiceal::thin {

ThinPool::ThinPool(std::shared_ptr<blockdev::BlockDevice> metadata_dev,
                   std::shared_ptr<blockdev::BlockDevice> data_dev,
                   std::shared_ptr<util::SimClock> clock)
    : metadata_dev_(std::move(metadata_dev)),
      data_dev_(std::move(data_dev)),
      clock_(std::move(clock)) {}

ThinPool::~ThinPool() {
  if (have_reset_hook_ && clock_) clock_->remove_reset_hook(reset_hook_);
}

void ThinPool::set_clock_domain(std::shared_ptr<util::ClockDomain> domain) {
  if (have_reset_hook_ && clock_) {
    clock_->remove_reset_hook(reset_hook_);
    have_reset_hook_ = false;
  }
  domain_ = std::move(domain);
  {
    util::MutexLock lock(cpu_mutex_);
    cpu_lane_free_.assign(domain_ ? domain_->shard_count() : 0, 0);
    shard_lane_free_.assign(meta_shard_lanes_ ? alloc_.shard_count() : 0, 0);
  }
  if ((domain_ || meta_shard_lanes_) && clock_) {
    // Lane busy-times are virtual timestamps: a bench-repetition clock
    // reset must zero them or the first chunk of the next repetition
    // inherits ghost CPU time.
    reset_hook_ = clock_->add_reset_hook([this] {
      util::MutexLock lock(cpu_mutex_);
      std::fill(cpu_lane_free_.begin(), cpu_lane_free_.end(), 0);
      std::fill(shard_lane_free_.begin(), shard_lane_free_.end(), 0);
    });
    have_reset_hook_ = true;
  }
}

std::uint64_t ThinPool::cpu_lane_charge(std::uint64_t ns) {
  const std::uint64_t now = clock_ ? clock_->now() : 0;
  util::MutexLock lock(cpu_mutex_);
  auto lane = std::min_element(cpu_lane_free_.begin(), cpu_lane_free_.end());
  *lane = std::max(*lane, now) + ns;
  return *lane;
}

std::uint64_t ThinPool::shard_lane_charge(std::uint32_t shard,
                                          std::uint64_t ns,
                                          std::uint64_t floor_ns) {
  const std::uint64_t now = clock_ ? clock_->now() : 0;
  util::MutexLock lock(cpu_mutex_);
  if (shard_lane_free_.size() != alloc_.shard_count()) {
    shard_lane_free_.assign(alloc_.shard_count(), 0);
  }
  // The shard's lock serialises its bookkeeping: this chunk's work starts
  // once the lane is free AND its data is ready, never before now.
  std::uint64_t& lane = shard_lane_free_[shard];
  lane = std::max(lane, std::max(now, floor_ns)) + ns;
  return lane;
}

std::shared_ptr<ThinPool> ThinPool::format(
    std::shared_ptr<blockdev::BlockDevice> metadata_dev,
    std::shared_ptr<blockdev::BlockDevice> data_dev, const Config& config,
    std::shared_ptr<util::SimClock> clock) {
  if (config.chunk_blocks == 0 || config.max_volumes == 0) {
    throw util::IoError("thin format: bad config");
  }
  auto pool = std::shared_ptr<ThinPool>(
      new ThinPool(std::move(metadata_dev), std::move(data_dev), clock));
  Superblock sb;
  sb.policy = config.policy;
  sb.chunk_blocks = config.chunk_blocks;
  sb.max_volumes = config.max_volumes;
  sb.nr_chunks = pool->data_dev_->num_blocks() / config.chunk_blocks;
  if (sb.nr_chunks == 0) {
    throw util::IoError("thin format: data device smaller than one chunk");
  }
  sb.max_chunks_per_volume = config.max_chunks_per_volume
                                 ? config.max_chunks_per_volume
                                 : sb.nr_chunks;
  sb.txn_id = 0;
  pool->sb_ = sb;
  pool->cpu_ = config.cpu;
  pool->meta_shard_lanes_ = config.meta_shard_lanes;
  pool->geom_ =
      MetadataGeometry::compute(sb, pool->metadata_dev_->block_size());
  if (pool->geom_.total_blocks > pool->metadata_dev_->num_blocks()) {
    throw util::IoError(
        "thin format: metadata device too small: need " +
        std::to_string(pool->geom_.total_blocks) + " blocks, have " +
        std::to_string(pool->metadata_dev_->num_blocks()));
  }

  pool->volumes_ = std::vector<VolumeState>(sb.max_volumes);
  pool->io_locks_.resize(sb.max_volumes);
  // Sharded allocator setup (all chunks free, padding bits handled inside);
  // the superblock records the *effective* shard count — init clamps so
  // every shard region is non-empty.
  pool->alloc_.init(sb.nr_chunks, config.alloc_shards);
  pool->sb_.alloc_shards = pool->alloc_.shard_count();
  {
    util::MutexLock meta(pool->meta_mutex_);
    pool->store_metadata();
  }
  return pool;
}

std::shared_ptr<ThinPool> ThinPool::open(
    std::shared_ptr<blockdev::BlockDevice> metadata_dev,
    std::shared_ptr<blockdev::BlockDevice> data_dev,
    std::shared_ptr<util::SimClock> clock) {
  auto pool = std::shared_ptr<ThinPool>(
      new ThinPool(std::move(metadata_dev), std::move(data_dev), clock));
  pool->load_metadata();
  return pool;
}

// ---- metadata (de)serialisation ---------------------------------------------

void ThinPool::store_metadata() {
  const std::size_t bs = metadata_dev_->block_size();
  util::Bytes block(bs);

  // Snapshot the allocator state first: the contiguous word array is
  // byte-identical to the historical single bitmap at any shard count, and
  // the cursor lives in the allocator between commits.
  std::vector<std::uint64_t> words;
  alloc_.copy_out(words);
  sb_.alloc_cursor = alloc_.cursor();
  sb_.alloc_shards = alloc_.shard_count();

  // Shadow-paging: stage the entire new state into the INACTIVE area, then
  // flip the superblock pointer with one atomic block write. A crash at any
  // point leaves a parseable old-or-new state, never a mix.
  const std::uint32_t target_area = 1 - sb_.active_area;
  const std::uint64_t base = geom_.area_start(target_area);

  // 1. Bitmap blocks.
  const std::uint64_t nwords = words.size();
  for (std::uint64_t b = 0; b < geom_.bitmap_blocks; ++b) {
    std::memset(block.data(), 0, bs);
    const std::uint64_t first_word = b * (bs / 8);
    const std::uint64_t n_words = std::min<std::uint64_t>(
        bs / 8, nwords - std::min(nwords, first_word));
    for (std::uint64_t w = 0; w < n_words; ++w) {
      util::store_le<std::uint64_t>(block.data() + w * 8,
                                    words[first_word + w]);
    }
    metadata_dev_->write_block(base + b, block);
  }

  // 2. Volume table.
  const std::uint64_t descs_per_block = bs / kVolumeDescSize;
  for (std::uint64_t b = 0; b < geom_.volume_table_blocks; ++b) {
    std::memset(block.data(), 0, bs);
    for (std::uint64_t d = 0; d < descs_per_block; ++d) {
      const std::uint64_t vol = b * descs_per_block + d;
      if (vol >= volumes_.size()) break;
      std::uint8_t* p = block.data() + d * kVolumeDescSize;
      util::store_le<std::uint32_t>(p, volumes_[vol].active ? 1u : 0u);
      util::store_le<std::uint64_t>(p + 8, volumes_[vol].virtual_chunks);
      util::store_le<std::uint64_t>(p + 16, volumes_[vol].mapped);
    }
    metadata_dev_->write_block(base + geom_.volume_table_offset + b, block);
  }

  // 3. Mapping tables for active volumes.
  const std::uint64_t entries_per_block = bs / 8;
  for (std::uint32_t vol = 0; vol < volumes_.size(); ++vol) {
    if (!volumes_[vol].active) continue;
    const auto& map = volumes_[vol].map;
    const std::uint64_t map_blocks =
        (map.size() + entries_per_block - 1) / entries_per_block;
    for (std::uint64_t b = 0; b < map_blocks; ++b) {
      std::memset(block.data(), 0xFF, bs);  // kUnmapped fill
      for (std::uint64_t e = 0; e < entries_per_block; ++e) {
        const std::uint64_t v = b * entries_per_block + e;
        if (v >= map.size()) break;
        util::store_le<std::uint64_t>(block.data() + e * 8, map[v]);
      }
      metadata_dev_->write_block(
          base + geom_.maps_offset + vol * geom_.map_blocks_per_volume + b,
          block);
    }
  }

  // 4. Barrier, then the superblock flip — the atomic commit point.
  metadata_dev_->flush();
  sb_.active_area = target_area;
  std::memset(block.data(), 0, bs);
  sb_.checksum = sb_.compute_checksum();
  util::store_le<std::uint64_t>(block.data() + 0, sb_.magic);
  util::store_le<std::uint32_t>(block.data() + 8, sb_.version);
  util::store_le<std::uint32_t>(block.data() + 12,
                                static_cast<std::uint32_t>(sb_.policy));
  util::store_le<std::uint32_t>(block.data() + 16, sb_.chunk_blocks);
  util::store_le<std::uint32_t>(block.data() + 20, sb_.max_volumes);
  util::store_le<std::uint64_t>(block.data() + 24, sb_.nr_chunks);
  util::store_le<std::uint64_t>(block.data() + 32, sb_.max_chunks_per_volume);
  util::store_le<std::uint64_t>(block.data() + 40, sb_.txn_id);
  util::store_le<std::uint64_t>(block.data() + 48, sb_.alloc_cursor);
  util::store_le<std::uint32_t>(block.data() + 56, sb_.active_area);
  util::store_le<std::uint32_t>(block.data() + 60, sb_.alloc_shards);
  util::store_le<std::uint64_t>(block.data() + 64, sb_.checksum);
  metadata_dev_->write_block(0, block);
  metadata_dev_->flush();
}

void ThinPool::load_metadata() {
  // Open/recovery path: the pool is not yet shared, but the guarded fields
  // below are repopulated wholesale, so take the metadata mutex anyway —
  // the discipline is uniform and the lock is uncontended here.
  util::MutexLock meta(meta_mutex_);
  const std::size_t bs = metadata_dev_->block_size();
  util::Bytes block(bs);
  metadata_dev_->read_block(0, block);

  sb_.magic = util::load_le<std::uint64_t>(block.data() + 0);
  if (sb_.magic != kThinMagic) {
    throw util::MetadataError("thin superblock: bad magic");
  }
  sb_.version = util::load_le<std::uint32_t>(block.data() + 8);
  sb_.policy = static_cast<AllocPolicy>(
      util::load_le<std::uint32_t>(block.data() + 12));
  sb_.chunk_blocks = util::load_le<std::uint32_t>(block.data() + 16);
  sb_.max_volumes = util::load_le<std::uint32_t>(block.data() + 20);
  sb_.nr_chunks = util::load_le<std::uint64_t>(block.data() + 24);
  sb_.max_chunks_per_volume =
      util::load_le<std::uint64_t>(block.data() + 32);
  sb_.txn_id = util::load_le<std::uint64_t>(block.data() + 40);
  sb_.alloc_cursor = util::load_le<std::uint64_t>(block.data() + 48);
  sb_.active_area = util::load_le<std::uint32_t>(block.data() + 56);
  // v4 field; v3 superblocks carry zeros here, and the checksum term is
  // zero for a zero count, so pre-sharding metadata still verifies.
  sb_.alloc_shards = util::load_le<std::uint32_t>(block.data() + 60);
  sb_.checksum = util::load_le<std::uint64_t>(block.data() + 64);
  if (sb_.active_area > 1) {
    throw util::MetadataError("thin superblock: bad active area");
  }
  if (sb_.checksum != sb_.compute_checksum()) {
    throw util::MetadataError("thin superblock: checksum mismatch");
  }
  // Untrusted input: bound every field that sizes an allocation or a read
  // by the device it describes, each geometry input before the geometry
  // arithmetic, which therefore cannot overflow into a plausible layout.
  const std::uint64_t meta_blocks = metadata_dev_->num_blocks();
  if (sb_.chunk_blocks == 0 || sb_.nr_chunks == 0 ||
      sb_.nr_chunks > data_dev_->num_blocks() / sb_.chunk_blocks) {
    throw util::MetadataError("thin superblock: bad chunk geometry");
  }
  if (sb_.max_volumes > meta_blocks * (bs / kVolumeDescSize) ||
      sb_.max_chunks_per_volume > meta_blocks * (bs / 8) ||
      MetadataGeometry::compute(sb_, bs).total_blocks > meta_blocks) {
    throw util::MetadataError("thin superblock: metadata device too small");
  }
  geom_ = MetadataGeometry::compute(sb_, bs);
  const std::uint64_t base = geom_.area_start(sb_.active_area);

  // Bitmap: load the contiguous word array, then hand it to the sharded
  // allocator (which recounts free chunks per region).
  const std::uint64_t words_n = (sb_.nr_chunks + 63) / 64;
  std::vector<std::uint64_t> words(words_n, 0);
  for (std::uint64_t b = 0; b < geom_.bitmap_blocks; ++b) {
    metadata_dev_->read_block(base + b, block);
    const std::uint64_t first_word = b * (bs / 8);
    for (std::uint64_t w = 0; w < bs / 8; ++w) {
      if (first_word + w >= words_n) break;
      words[first_word + w] = util::load_le<std::uint64_t>(block.data() + w * 8);
    }
  }
  for (std::uint64_t c = sb_.nr_chunks; c < words_n * 64; ++c) {
    words[c / 64] |= std::uint64_t{1} << (c % 64);
  }
  alloc_.init(sb_.nr_chunks, sb_.alloc_shards ? sb_.alloc_shards : 1);
  alloc_.copy_in(words);
  alloc_.set_cursor(sb_.alloc_cursor);
  sb_.alloc_shards = alloc_.shard_count();

  // Volume table.
  volumes_ = std::vector<VolumeState>(sb_.max_volumes);
  io_locks_.resize(sb_.max_volumes);
  const std::uint64_t descs_per_block = bs / kVolumeDescSize;
  for (std::uint64_t b = 0; b < geom_.volume_table_blocks; ++b) {
    metadata_dev_->read_block(base + geom_.volume_table_offset + b, block);
    for (std::uint64_t d = 0; d < descs_per_block; ++d) {
      const std::uint64_t vol = b * descs_per_block + d;
      if (vol >= volumes_.size()) break;
      const std::uint8_t* p = block.data() + d * kVolumeDescSize;
      volumes_[vol].active = util::load_le<std::uint32_t>(p) == 1;
      volumes_[vol].virtual_chunks = util::load_le<std::uint64_t>(p + 8);
      volumes_[vol].mapped = util::load_le<std::uint64_t>(p + 16);
    }
  }

  // Mapping tables.
  const std::uint64_t entries_per_block = bs / 8;
  for (std::uint32_t vol = 0; vol < volumes_.size(); ++vol) {
    auto& v = volumes_[vol];
    if (!v.active) continue;
    if (v.virtual_chunks == 0 ||
        v.virtual_chunks > sb_.max_chunks_per_volume) {
      throw util::MetadataError("thin volume " + std::to_string(vol) +
                                ": bad virtual size");
    }
    v.map.assign(v.virtual_chunks, kUnmapped);
    const std::uint64_t map_blocks =
        (v.map.size() + entries_per_block - 1) / entries_per_block;
    for (std::uint64_t b = 0; b < map_blocks; ++b) {
      metadata_dev_->read_block(
          base + geom_.maps_offset + vol * geom_.map_blocks_per_volume + b,
          block);
      for (std::uint64_t e = 0; e < entries_per_block; ++e) {
        const std::uint64_t idx = b * entries_per_block + e;
        if (idx >= v.map.size()) break;
        v.map[idx] = util::load_le<std::uint64_t>(block.data() + e * 8);
      }
    }
  }

  // The maps, the bitmap and the mapped counts must agree before the pool
  // allocates anything: a map entry the bitmap calls free would otherwise
  // be handed out a second time.
  if (const char* fault = consistency_fault()) {
    throw util::MetadataError(std::string("thin metadata: ") + fault);
  }
}

// ---- allocation ---------------------------------------------------------------

std::uint64_t ThinPool::allocate_chunk() {
  // CPU cost (cpu_.alloc_ns) is charged by the caller outside the shard
  // lock — either as a serial clock advance or onto a CPU lane — so the
  // lock never nests a lane charge.
  util::Rng& rng = alloc_rng_ ? *alloc_rng_ : default_rng_;
  const std::optional<std::uint64_t> chunk =
      sb_.policy == AllocPolicy::kRandom ? alloc_.try_alloc_random(rng)
                                         : alloc_.try_alloc_sequential();
  if (!chunk) throw util::NoSpaceError("thin pool exhausted");
  return *chunk;
}

// ---- volume lifecycle -----------------------------------------------------------

void ThinPool::check_volume(std::uint32_t id) const {
  if (id >= volumes_.size() || !volumes_[id].active) {
    throw util::IoError("thin: no such volume: " + std::to_string(id));
  }
}

bool ThinPool::volume_exists(std::uint32_t id) const {
  return id < volumes_.size() && volumes_[id].active;
}

void ThinPool::create_thin(std::uint32_t id, std::uint64_t virtual_chunks) {
  if (id >= volumes_.size()) {
    throw util::IoError("thin create: volume id out of range");
  }
  if (volumes_[id].active) {
    throw util::IoError("thin create: volume exists: " + std::to_string(id));
  }
  if (virtual_chunks == 0 || virtual_chunks > sb_.max_chunks_per_volume) {
    throw util::IoError("thin create: bad virtual size");
  }
  volumes_[id].active = true;
  volumes_[id].virtual_chunks = virtual_chunks;
  volumes_[id].mapped = 0;
  volumes_[id].map.assign(virtual_chunks, kUnmapped);
}

void ThinPool::delete_thin(std::uint32_t id) {
  check_volume(id);
  {
    // Unmapping mutates the shared mapping table; the chunk frees go
    // through the self-locking allocator shard by shard.
    util::MutexLock meta(meta_mutex_);
    for (std::uint64_t v = 0; v < volumes_[id].map.size(); ++v) {
      if (volumes_[id].map[v] != kUnmapped) {
        alloc_.free_chunk(volumes_[id].map[v]);
      }
    }
    volumes_[id] = VolumeState{};
  }
  // Volume-deletion contract: no concurrent I/O on this id, so dropping
  // its range lock cannot race an acquire.
  io_locks_.reset(id);
}

RangeLock::Guard ThinPool::lock_range(std::uint32_t id, std::uint64_t first,
                                      std::uint64_t count) {
  return io_lock(id).acquire(first, count);
}

std::shared_ptr<ThinVolume> ThinPool::open_thin(std::uint32_t id) {
  check_volume(id);
  return std::make_shared<ThinVolume>(shared_from_this(), id);
}

void ThinPool::observe_volume(std::uint32_t id, bool observed) {
  check_volume(id);
  volumes_[id].observed = observed;
}

// ---- transactions ------------------------------------------------------------------

void ThinPool::commit() {
  util::MutexLock meta(meta_mutex_);
  // Exception safety: a failed store (device fault) must leave the
  // in-memory superblock describing the still-committed on-disk state.
  const Superblock saved = sb_;
  ++sb_.txn_id;
  try {
    store_metadata();
  } catch (...) {
    sb_ = saved;
    throw;
  }
  alloc_.clear_txn();
}

// ---- PDE support --------------------------------------------------------------------

std::optional<std::uint64_t> ThinPool::write_noise_chunk(
    std::uint32_t id, std::uint32_t noise_blocks, util::Rng& noise_source,
    util::Rng& placement) {
  check_volume(id);
  auto& vol = volumes_[id];
  if (noise_blocks == 0 || noise_blocks > sb_.chunk_blocks) {
    noise_blocks = sb_.chunk_blocks;
  }

  std::uint64_t vchunk = kUnmapped;
  std::uint64_t phys = 0;
  {
    util::MutexLock meta(meta_mutex_);
    const std::uint64_t unmapped = vol.virtual_chunks - vol.mapped;
    if (unmapped == 0 || alloc_.total_free() == 0) return std::nullopt;

    // Pick the target virtual chunk uniformly among unmapped positions so
    // the volume's own mapping table shows no growth pattern.
    std::uint64_t target = placement.next_below(unmapped);
    for (std::uint64_t v = 0; v < vol.map.size(); ++v) {
      if (vol.map[v] == kUnmapped) {
        if (target == 0) {
          vchunk = v;
          break;
        }
        --target;
      }
    }

    phys = allocate_chunk();
    vol.map[vchunk] = phys;
    ++vol.mapped;
  }
  // Allocation CPU cost: serial advance, or a lane finish time that floors
  // the dummy write's availability — dummy traffic competes for the same
  // pool CPUs (and, in the fleet model, the same shard lane) as client
  // bookkeeping.
  const std::uint64_t cpu_ready = chunk_meta_charge(phys, cpu_.alloc_ns, 0);
  // Serialise against client I/O on the same logical range (the observer
  // only ever reaches here for a *different* volume than the one whose
  // write triggered it, so lock order is acyclic).
  const auto guard = lock_range(id, vchunk * sb_.chunk_blocks, noise_blocks);

  // One noise draw + one vectored write for the whole burst. Rng::fill
  // consumes the same word sequence over n*bs bytes as n fills of bs, so
  // the device ends bit-identical to the historical per-block loop for
  // identical seeds (covered by the batched-equivalence tests).
  const std::size_t bs = data_dev_->block_size();
  util::Bytes noise(static_cast<std::size_t>(noise_blocks) * bs);
  noise_source.fill(noise);
  if (async_io()) {
    // Dummy traffic rides the same submission queue as client writes; the
    // enclosing volume I/O (or an explicit drain_data()) closes the
    // timeline.
    blockdev::IoRequest req;
    req.op = blockdev::IoOp::kWrite;
    req.first = phys * sb_.chunk_blocks;
    req.count = noise_blocks;
    req.write_buf = noise;
    req.available_ns = cpu_ready;
    data_dev_->submit(req);
  } else {
    data_dev_->write_blocks(phys * sb_.chunk_blocks, noise);
  }
  return phys;
}

void ThinPool::discard(std::uint32_t id, std::uint64_t vchunk) {
  check_volume(id);
  auto& vol = volumes_[id];
  // GC runs concurrently with client I/O once submitters are threaded:
  // unmapping must be atomic against concurrent map readers; the bitmap
  // clear itself is shard-locked inside the allocator.
  util::MutexLock meta(meta_mutex_);
  if (vchunk >= vol.map.size() || vol.map[vchunk] == kUnmapped) {
    throw util::IoError("thin discard: chunk not mapped");
  }
  alloc_.free_chunk(vol.map[vchunk]);
  vol.map[vchunk] = kUnmapped;
  --vol.mapped;
}

// ---- introspection ---------------------------------------------------------------------

std::uint64_t ThinPool::mapped_chunks(std::uint32_t id) const {
  check_volume(id);
  return volumes_[id].mapped;
}

std::uint64_t ThinPool::virtual_chunks(std::uint32_t id) const {
  check_volume(id);
  return volumes_[id].virtual_chunks;
}

const std::vector<std::uint64_t>& ThinPool::mapping(std::uint32_t id) const {
  check_volume(id);
  return volumes_[id].map;
}

bool ThinPool::chunk_allocated(std::uint64_t phys_chunk) const {
  if (phys_chunk >= sb_.nr_chunks) {
    throw util::IoError("chunk_allocated: out of range");
  }
  return alloc_.test(phys_chunk);
}

bool ThinPool::check_consistency() const {
  util::MutexLock meta(meta_mutex_);
  return consistency_fault() == nullptr;
}

const char* ThinPool::consistency_fault() const {
  // Bitmap snapshot: the same contiguous word array the metadata format
  // serialises, reassembled from the shards.
  std::vector<std::uint64_t> words;
  alloc_.copy_out(words);
  const auto bit = [&words](std::uint64_t c) {
    return (words[c / 64] >> (c % 64)) & 1;
  };
  std::vector<std::uint8_t> refs(sb_.nr_chunks, 0);
  std::uint64_t mapped_total = 0;
  for (std::uint32_t v = 0; v < volumes_.size(); ++v) {
    const auto& vol = volumes_[v];
    if (!vol.active) continue;
    std::uint64_t mapped = 0;
    for (std::uint64_t phys : vol.map) {
      if (phys == kUnmapped) continue;
      if (phys >= sb_.nr_chunks) return "mapping beyond the data device";
      if (!bit(phys)) return "mapping to a free chunk";
      if (refs[phys]++) return "chunk mapped twice";
      ++mapped;
    }
    if (mapped != vol.mapped) return "stale mapped count";
    mapped_total += mapped;
  }
  // Bitmap population must equal the mapped total (plus any chunks
  // allocated in the open transaction that are already mapped — both are
  // reflected in the bitmap here, so the counts must agree exactly).
  std::uint64_t allocated = 0;
  for (std::uint64_t c = 0; c < sb_.nr_chunks; ++c) {
    if (bit(c)) ++allocated;
  }
  if (allocated != mapped_total) return "allocated chunk that no map holds";
  if (alloc_.total_free() != sb_.nr_chunks - allocated) {
    return "free count disagrees with the bitmap";
  }
  return nullptr;
}

// ---- extent resolution -------------------------------------------------------

std::vector<ExtentRun> ThinPool::resolve_extents(std::uint32_t id,
                                                 std::uint64_t lblock,
                                                 std::uint64_t count) const {
  check_volume(id);
  util::MutexLock meta(meta_mutex_);
  const auto& vol = volumes_[id];
  const std::uint64_t vol_blocks = vol.virtual_chunks * sb_.chunk_blocks;
  if (lblock > vol_blocks || count > vol_blocks - lblock) {
    throw util::IoError("thin resolve_extents: range out of bounds");
  }

  std::vector<ExtentRun> runs;
  std::uint64_t pos = lblock;
  std::uint64_t remaining = count;
  while (remaining > 0) {
    const std::uint64_t vchunk = pos / sb_.chunk_blocks;
    const std::uint64_t off = pos % sb_.chunk_blocks;
    const std::uint64_t in_chunk =
        std::min<std::uint64_t>(sb_.chunk_blocks - off, remaining);
    const std::uint64_t phys = vol.map[vchunk];
    const bool mapped = phys != kUnmapped;
    const std::uint64_t phys_block =
        mapped ? phys * sb_.chunk_blocks + off : 0;

    if (!runs.empty()) {
      ExtentRun& last = runs.back();
      const bool merges =
          mapped ? (last.mapped && last.phys_block + last.blocks == phys_block)
                 : !last.mapped;
      if (merges) {
        last.blocks += in_chunk;
        pos += in_chunk;
        remaining -= in_chunk;
        continue;
      }
    }
    runs.push_back({pos, in_chunk, phys_block, mapped});
    pos += in_chunk;
    remaining -= in_chunk;
  }
  return runs;
}

// ---- I/O path ------------------------------------------------------------------------------

void ThinPool::volume_read(std::uint32_t id, std::uint64_t lblock,
                           util::MutByteSpan out) {
  // The per-block path IS the range path with a one-block range: a single
  // implementation keeps per-block and batched device state identical by
  // construction (the batched-equivalence tests pin this down).
  volume_read_range(id, lblock, out);
}

void ThinPool::volume_write(std::uint32_t id, std::uint64_t lblock,
                            util::ByteSpan data) {
  volume_write_range(id, lblock, data);
}

void ThinPool::notify_fresh_provision(std::uint32_t id, std::uint64_t phys) {
  // Re-entrancy guard: a dummy write's own allocations must not trigger
  // more dummy writes. thread_local so concurrent submitter threads each
  // carry their own observer depth (one thread's dummy write must not
  // silence another thread's client allocation).
  thread_local bool in_observer = false;
  if (!volumes_[id].observed || !observer_ || in_observer) return;
  in_observer = true;
  try {
    observer_(id, phys);
  } catch (...) {
    in_observer = false;
    throw;
  }
  in_observer = false;
}

void ThinPool::volume_read_range(std::uint32_t id, std::uint64_t lblock,
                                 util::MutByteSpan out) {
  if (async_io()) {
    const std::uint64_t done =
        submit_read_range(id, lblock, out, /*available_ns=*/0);
    if (overlapped()) {
      // Close only this read's timeline: the caller observed its data at
      // `done`, so pinning every shard to that instant is causally exact,
      // while requests queued behind it (other stripes, dummy writes) stay
      // in flight.
      data_dev_->wait_until(done);
    } else {
      data_dev_->drain();
    }
    return;
  }
  const auto guard =
      lock_range(id, lblock, out.size() / data_dev_->block_size());
  const auto runs = resolve_extents(id, lblock, out.size() / data_dev_->block_size());
  const std::size_t bs = data_dev_->block_size();
  for (const ExtentRun& run : runs) {
    // One mapping-tree walk resolves the whole run — the metadata cost no
    // longer scales with run length, unlike the per-block path.
    charge(cpu_.lookup_read_ns);
    const std::size_t off = (run.lblock - lblock) * bs;
    const util::MutByteSpan dst{out.data() + off,
                                static_cast<std::size_t>(run.blocks) * bs};
    if (run.mapped) {
      data_dev_->read_blocks(run.phys_block, run.blocks, dst);
    } else {
      std::memset(dst.data(), 0, dst.size());
    }
  }
}

std::uint64_t ThinPool::submit_read_range(std::uint32_t id,
                                          std::uint64_t lblock,
                                          util::MutByteSpan out,
                                          std::uint64_t available_ns) {
  const std::size_t bs = data_dev_->block_size();
  const auto guard = lock_range(id, lblock, out.size() / bs);
  const auto runs = resolve_extents(id, lblock, out.size() / bs);
  std::uint64_t done = available_ns;
  for (const ExtentRun& run : runs) {
    const std::size_t off = (run.lblock - lblock) * bs;
    const util::MutByteSpan dst{out.data() + off,
                                static_cast<std::size_t>(run.blocks) * bs};
    if (run.mapped) {
      // Mapping-lookup CPU: serial advance historically; an earliest-free
      // CPU lane in overlap mode; in the fleet model, the lane of the
      // allocator shard owning the run's first chunk — concurrent tenants
      // walking mappings in different shard regions proceed in parallel,
      // same-shard walks queue.
      const std::uint64_t cpu_ready = chunk_meta_charge(
          run.phys_block / sb_.chunk_blocks, cpu_.lookup_read_ns,
          available_ns);
      // Independent runs go into the device queue together — at queue
      // depth d, up to d fragmented extents overlap their transfers.
      blockdev::IoRequest req;
      req.op = blockdev::IoOp::kRead;
      req.first = run.phys_block;
      req.count = run.blocks;
      req.read_buf = dst;
      req.available_ns = std::max(available_ns, cpu_ready);
      done = std::max(done, data_dev_->submit(req).complete_ns);
    } else {
      // Zero-fill still walks the mapping tree (to learn the hole), but
      // touches no allocator shard.
      chunk_cpu_charge(cpu_.lookup_read_ns);
      std::memset(dst.data(), 0, dst.size());
    }
  }
  return done;
}

std::vector<ThinPool::ChunkSeg> ThinPool::plan_write_range(
    std::uint32_t id, std::uint64_t lblock, std::uint64_t nblocks) {
  // Chunk split first (pure arithmetic, no lock).
  std::vector<ChunkSeg> segs;
  std::uint64_t pos = lblock;
  std::uint64_t remaining = nblocks;
  while (remaining > 0) {
    const std::uint64_t vchunk = pos / sb_.chunk_blocks;
    const std::uint64_t off = pos % sb_.chunk_blocks;
    const std::uint64_t n =
        std::min<std::uint64_t>(sb_.chunk_blocks - off, remaining);
    segs.push_back({vchunk, off, n, kUnmapped, false});
    pos += n;
    remaining -= n;
  }

  util::MutexLock meta(meta_mutex_);
  auto& vol = volumes_[id];
  std::size_t missing = 0;
  for (ChunkSeg& s : segs) {
    s.phys = vol.map[s.vchunk];
    if (s.phys == kUnmapped) ++missing;
  }
  if (missing == 0) return segs;

  // Batch-provision every missing chunk: the allocator services runs of
  // same-shard draws under one shard-lock hold, and the draw sequence is
  // identical to `missing` single allocations — so assigning the fresh
  // chunks in vchunk order reproduces the per-chunk path's mapping
  // exactly. A short batch (pool ran dry) leaves trailing segments
  // unassigned; the write loop throws NoSpace on reaching the first one,
  // after exactly the same draws, assignments, and device writes as the
  // per-chunk path's partial failure.
  std::vector<std::uint64_t> fresh;
  fresh.reserve(missing);
  util::Rng& rng = alloc_rng_ ? *alloc_rng_ : default_rng_;
  if (sb_.policy == AllocPolicy::kRandom) {
    alloc_.alloc_random_batch(rng, missing, fresh);
  } else {
    alloc_.alloc_sequential_batch(missing, fresh);
  }
  std::size_t next = 0;
  for (ChunkSeg& s : segs) {
    if (s.phys != kUnmapped) continue;
    if (next == fresh.size()) break;
    s.phys = fresh[next++];
    s.fresh = true;
    vol.map[s.vchunk] = s.phys;
    ++vol.mapped;
  }
  return segs;
}

void ThinPool::volume_write_range(std::uint32_t id, std::uint64_t lblock,
                                  util::ByteSpan data) {
  if (async_io()) {
    submit_write_range(id, lblock, data, /*available_ns=*/0);
    // Overlap mode pipelines across calls: the data moved at submit, so
    // the write is durable-enough for read-back, and the next flush
    // barrier (fs sync) closes the timeline. Single-timeline mode keeps
    // the historical full barrier.
    if (!overlapped()) data_dev_->drain();
    return;
  }
  const std::size_t bs = data_dev_->block_size();
  const auto guard = lock_range(id, lblock, data.size() / bs);
  auto& vol = volumes_[id];

  if (!vol.observed) {
    // Batched fast path: one metadata hold plans the whole range and
    // provisions missing chunks with one shard-lock hold per run. Valid
    // precisely because no observer interleaves RNG draws between chunks
    // on this volume; charges and device writes stay per-chunk below, so
    // the modelled time and device state are identical to the per-chunk
    // path.
    const auto segs = plan_write_range(id, lblock, data.size() / bs);
    std::size_t done = 0;
    for (const ChunkSeg& s : segs) {
      if (s.phys == kUnmapped) {
        throw util::NoSpaceError("thin pool exhausted");
      }
      charge(cpu_.lookup_write_ns + (s.fresh ? cpu_.alloc_ns : 0));
      data_dev_->write_blocks(
          s.phys * sb_.chunk_blocks + s.off,
          {data.data() + done, static_cast<std::size_t>(s.blocks) * bs});
      done += static_cast<std::size_t>(s.blocks) * bs;
    }
    return;
  }

  std::uint64_t pos = lblock;
  std::size_t done = 0;
  // Observed volume: chunk-by-chunk, exactly as dm-thin splits bios at
  // chunk boundaries — the allocation observer fires after each fresh
  // chunk's data lands, so the dummy-write engine's RNG draws interleave
  // with the client's allocations in the historical order.
  while (done < data.size()) {
    const std::uint64_t vchunk = pos / sb_.chunk_blocks;
    const std::uint64_t off = pos % sb_.chunk_blocks;
    const std::uint64_t n = std::min<std::uint64_t>(
        sb_.chunk_blocks - off, (data.size() - done) / bs);

    bool fresh = false;
    std::uint64_t phys;
    {
      util::MutexLock meta(meta_mutex_);
      phys = vol.map[vchunk];
      if (phys == kUnmapped) {
        phys = allocate_chunk();
        vol.map[vchunk] = phys;
        ++vol.mapped;
        fresh = true;
      }
    }
    // Same total CPU advance as the historical split (lookup before the
    // metadata section, allocation inside it): no device op intervenes, so
    // charging both after the section is time-identical.
    charge(cpu_.lookup_write_ns + (fresh ? cpu_.alloc_ns : 0));
    data_dev_->write_blocks(phys * sb_.chunk_blocks + off,
                            {data.data() + done,
                             static_cast<std::size_t>(n) * bs});
    if (fresh) notify_fresh_provision(id, phys);
    pos += n;
    done += static_cast<std::size_t>(n) * bs;
  }
}

std::uint64_t ThinPool::submit_write_range(std::uint32_t id,
                                           std::uint64_t lblock,
                                           util::ByteSpan data,
                                           std::uint64_t available_ns) {
  const std::size_t bs = data_dev_->block_size();
  const auto guard = lock_range(id, lblock, data.size() / bs);
  auto& vol = volumes_[id];

  if (!vol.observed) {
    // Batched fast path (see volume_write_range): plan + provision under
    // one metadata hold, then submit per chunk segment.
    const auto segs = plan_write_range(id, lblock, data.size() / bs);
    std::size_t off_bytes = 0;
    std::uint64_t done = available_ns;
    for (const ChunkSeg& s : segs) {
      if (s.phys == kUnmapped) {
        throw util::NoSpaceError("thin pool exhausted");
      }
      const std::uint64_t cpu_ready = chunk_meta_charge(
          s.phys, cpu_.lookup_write_ns + (s.fresh ? cpu_.alloc_ns : 0),
          available_ns);
      blockdev::IoRequest req;
      req.op = blockdev::IoOp::kWrite;
      req.first = s.phys * sb_.chunk_blocks + s.off;
      req.count = s.blocks;
      req.write_buf = {data.data() + off_bytes,
                       static_cast<std::size_t>(s.blocks) * bs};
      req.available_ns = std::max(available_ns, cpu_ready);
      done = std::max(done, data_dev_->submit(req).complete_ns);
      off_bytes += static_cast<std::size_t>(s.blocks) * bs;
    }
    return done;
  }

  std::uint64_t pos = lblock;
  std::size_t off_bytes = 0;
  std::uint64_t done = available_ns;
  // Observed volume: same chunk split, same allocation and observer order
  // as the synchronous path — only the device service overlaps. Each
  // segment is submitted without awaiting; dummy writes fired by the
  // observer join the same queue.
  while (off_bytes < data.size()) {
    const std::uint64_t vchunk = pos / sb_.chunk_blocks;
    const std::uint64_t off = pos % sb_.chunk_blocks;
    const std::uint64_t n = std::min<std::uint64_t>(
        sb_.chunk_blocks - off, (data.size() - off_bytes) / bs);

    bool fresh = false;
    std::uint64_t phys;
    {
      util::MutexLock meta(meta_mutex_);
      phys = vol.map[vchunk];
      if (phys == kUnmapped) {
        phys = allocate_chunk();
        vol.map[vchunk] = phys;
        ++vol.mapped;
        fresh = true;
      }
    }
    // Per-chunk bookkeeping CPU (lookup + fresh-chunk allocation): a
    // serial advance historically; a CPU-lane finish time in overlap mode;
    // in the fleet model, the owning allocator shard's lane — the modelled
    // serialisation concurrent tenants suffer on a shared shard.
    const std::uint64_t cpu_ready = chunk_meta_charge(
        phys, cpu_.lookup_write_ns + (fresh ? cpu_.alloc_ns : 0),
        available_ns);
    blockdev::IoRequest req;
    req.op = blockdev::IoOp::kWrite;
    req.first = phys * sb_.chunk_blocks + off;
    req.count = n;
    req.write_buf = {data.data() + off_bytes, static_cast<std::size_t>(n) * bs};
    req.available_ns = std::max(available_ns, cpu_ready);
    done = std::max(done, data_dev_->submit(req).complete_ns);
    if (fresh) notify_fresh_provision(id, phys);
    pos += n;
    off_bytes += static_cast<std::size_t>(n) * bs;
  }
  return done;
}

// ---- ThinVolume ------------------------------------------------------------------------------

ThinVolume::ThinVolume(std::shared_ptr<ThinPool> pool, std::uint32_t id)
    : pool_(std::move(pool)), id_(id) {}

std::size_t ThinVolume::block_size() const noexcept {
  return pool_->data_dev_->block_size();
}

std::uint64_t ThinVolume::num_blocks() const noexcept {
  return pool_->volumes_[id_].virtual_chunks * pool_->sb_.chunk_blocks;
}

void ThinVolume::read_block(std::uint64_t index, util::MutByteSpan out) {
  check_io(index, out.size());
  pool_->volume_read(id_, index, out);
}

void ThinVolume::write_block(std::uint64_t index, util::ByteSpan data) {
  check_io(index, data.size());
  pool_->volume_write(id_, index, data);
}

void ThinVolume::do_read_blocks(std::uint64_t first, std::uint64_t count,
                                util::MutByteSpan out) {
  (void)count;
  pool_->volume_read_range(id_, first, out);
}

void ThinVolume::do_write_blocks(std::uint64_t first, util::ByteSpan data) {
  pool_->volume_write_range(id_, first, data);
}

std::uint64_t ThinVolume::do_submit(const blockdev::IoRequest& req) {
  switch (req.op) {
    case blockdev::IoOp::kRead:
      return pool_->submit_read_range(id_, req.first, req.read_buf,
                                      req.available_ns);
    case blockdev::IoOp::kWrite:
      return pool_->submit_write_range(id_, req.first, req.write_buf,
                                       req.available_ns);
    case blockdev::IoOp::kFlush:
      flush();  // metadata commit is inherently a barrier
      return 0;
  }
  return 0;
}

void ThinVolume::do_drain() { pool_->drain_data(); }

void ThinVolume::do_wait_until(std::uint64_t cutoff) {
  pool_->data_dev_->wait_until(cutoff);
}

std::uint32_t ThinVolume::queue_depth() const noexcept {
  return pool_->data_dev_->queue_depth();
}

void ThinVolume::set_queue_depth(std::uint32_t depth) {
  pool_->data_dev_->set_queue_depth(depth);
}

std::uint64_t ThinVolume::completion_cutoff() const noexcept {
  return pool_->data_dev_->completion_cutoff();
}

void ThinVolume::flush() {
  // Close the async timeline before committing — REQ_FLUSH orders after
  // all in-flight data writes.
  pool_->drain_data();
  pool_->commit();
  pool_->data_dev_->flush();
}

}  // namespace mobiceal::thin
