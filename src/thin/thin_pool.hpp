// Thin-provisioning pool (dm-thin reproduction, Sec. II-C) with the two
// MobiCeal kernel modifications from Sec. V-A as switchable policies:
//
//   1. allocation policy: stock sequential first-fit, or MobiCeal's
//      uniformly random free-chunk selection;
//   2. an allocation observer hook through which core::DummyWriteEngine
//      injects dummy writes when the *public* volume provisions chunks.
//
// Metadata (superblock, global bitmap, volume table, mapping tables) lives
// on a dedicated metadata device and is committed transactionally: the
// allocator consults the committed bitmap *plus* the record of blocks
// allocated within the open transaction, exactly the fix the paper
// describes ("the block numbers allocated within a transaction are
// recorded", Sec. V-A Random Allocation Implementation).
//
// Concurrency layout (post allocator sharding): the allocation bitmap,
// free counts and txn ledgers live in ShardedBitmap (alloc_shard.hpp) —
// N word-aligned regions, each behind its own mutex, with the random
// policy's single uniform draw weighted by per-shard free space so the
// allocation distribution is exactly the unsharded one. meta_mutex_ now
// guards only the volume mapping tables and the metadata serialisation;
// the per-volume RangeLock lookup is a lock-free table read. Lock order:
// RangeLock -> meta_mutex_ -> shard mutex -> draw mutex (each optional).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "blockdev/block_device.hpp"
#include "thin/alloc_shard.hpp"
#include "thin/metadata_format.hpp"
#include "thin/range_lock.hpp"
#include "util/clock_domain.hpp"
#include "util/rng.hpp"
#include "util/sim_clock.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace mobiceal::thin {

/// CPU cost model for the thin layer, charged to the shared SimClock.
/// Read lookups dominate (mapping-tree walk per block read); allocation
/// costs are amortised per chunk.
struct ThinCpuModel {
  std::uint64_t lookup_read_ns = 35'000;  // per 4 KiB read through a volume
  std::uint64_t lookup_write_ns = 2'000;  // per 4 KiB write (cached mapping)
  std::uint64_t alloc_ns = 30'000;        // per fresh chunk provision

  static ThinCpuModel nexus4() { return {}; }
  static ThinCpuModel zero() { return {0, 0, 0}; }
};

class ThinVolume;

/// One physically contiguous piece of a logical block range, produced by
/// ThinPool::resolve_extents. Mapped runs are serviced with a single
/// vectored device call; unmapped runs read back as zeros.
struct ExtentRun {
  std::uint64_t lblock = 0;      ///< logical start block (volume-relative)
  std::uint64_t blocks = 0;      ///< run length in blocks
  std::uint64_t phys_block = 0;  ///< data-device start block (iff mapped)
  bool mapped = false;
};

class ThinPool : public std::enable_shared_from_this<ThinPool> {
 public:
  struct Config {
    std::uint32_t chunk_blocks = 16;  // 64 KiB chunks over 4 KiB blocks
    std::uint32_t max_volumes = 16;
    /// Cap on each volume's virtual size, in chunks. 0 = pool capacity.
    std::uint64_t max_chunks_per_volume = 0;
    AllocPolicy policy = AllocPolicy::kSequential;
    ThinCpuModel cpu = ThinCpuModel::nexus4();
    /// Allocator shard-region count (--alloc-shards). 1 = the historical
    /// single-lock allocator, bit-for-bit; >1 splits the bitmap into
    /// word-aligned regions with independent locks. The allocation
    /// *distribution* is identical at any value (see alloc_shard.hpp).
    std::uint32_t alloc_shards = 1;
    /// Fleet contention model: when true (and a clock is attached), the
    /// per-chunk metadata bookkeeping CPU cost on the async submit paths
    /// is charged to one virtual lane PER ALLOCATOR SHARD — the lane is
    /// the serialisation a shard's lock imposes on concurrent submitters,
    /// so with alloc_shards=1 every tenant's bookkeeping queues on one
    /// timeline while the data transfers still overlap. Off by default:
    /// single-submitter stacks keep the historical uncontended CPU model
    /// (and all committed baselines) unchanged.
    bool meta_shard_lanes = false;
  };

  /// Observer invoked after a *client* write provisions a fresh chunk on an
  /// observed volume. Dummy writes issued from inside the observer do not
  /// re-trigger it.
  using AllocationObserver =
      std::function<void(std::uint32_t volume_id, std::uint64_t phys_chunk)>;

  /// Formats fresh metadata onto `metadata_dev` and returns an open pool.
  /// Throws util::IoError if the metadata device is too small.
  static std::shared_ptr<ThinPool> format(
      std::shared_ptr<blockdev::BlockDevice> metadata_dev,
      std::shared_ptr<blockdev::BlockDevice> data_dev, const Config& config,
      std::shared_ptr<util::SimClock> clock = nullptr);

  /// Opens an existing pool from committed metadata. State written after the
  /// last commit is discarded — this is the crash-recovery path. The
  /// allocator shard count is restored from the superblock (pre-sharding
  /// metadata reopens with one shard).
  static std::shared_ptr<ThinPool> open(
      std::shared_ptr<blockdev::BlockDevice> metadata_dev,
      std::shared_ptr<blockdev::BlockDevice> data_dev,
      std::shared_ptr<util::SimClock> clock = nullptr);

  // -- volume lifecycle -----------------------------------------------------

  /// Creates thin volume `id` with the given virtual size (chunks).
  /// Volume ids are dense small integers in [0, max_volumes).
  void create_thin(std::uint32_t id, std::uint64_t virtual_chunks);

  /// Deletes a volume, returning all its chunks to the free pool.
  void delete_thin(std::uint32_t id) EXCLUDES(meta_mutex_);

  /// Opens a BlockDevice view of a volume.
  std::shared_ptr<ThinVolume> open_thin(std::uint32_t id);

  bool volume_exists(std::uint32_t id) const;

  // -- transactions ----------------------------------------------------------

  /// Persists all metadata; the superblock (with a new txn id) is written
  /// last as the commit point. Holds the metadata mutex for the duration:
  /// concurrent map updates stall rather than race the transaction record.
  /// Chunks a concurrent allocator grabs mid-store may persist as
  /// allocated-but-unmapped — legal mid-transaction state (resolved by the
  /// next commit), exactly as on dm-thin.
  void commit() EXCLUDES(meta_mutex_);

  std::uint64_t txn_id() const noexcept { return sb_.txn_id; }

  /// Visits every chunk allocated since the last commit (the paper's
  /// in-transaction record) without copying the ledger: shards in region
  /// order, allocations within a shard in allocation order.
  void visit_txn_allocations(
      const std::function<void(std::uint64_t)>& visit) const {
    alloc_.visit_txn_allocated(visit);
  }

  std::uint64_t txn_allocation_count() const {
    return alloc_.txn_allocated_count();
  }

  /// Compatibility wrapper for callers that want the record as a vector;
  /// prefer visit_txn_allocations — this one pays the O(allocations) copy
  /// the visitor exists to avoid.
  std::vector<std::uint64_t> txn_allocations() const {
    std::vector<std::uint64_t> out;
    out.reserve(alloc_.txn_allocated_count());
    alloc_.visit_txn_allocated(
        [&out](std::uint64_t c) { out.push_back(c); });
    return out;
  }

  // -- PDE support (used by core::MobiCeal) -----------------------------------

  void set_allocation_observer(AllocationObserver obs) {
    observer_ = std::move(obs);
  }
  /// Marks a volume as observed: client allocations on it fire the observer.
  void observe_volume(std::uint32_t id, bool observed);

  /// Allocates one chunk for `id` at a random unmapped virtual position and
  /// fills the first `noise_blocks` (1..chunk_blocks) with `noise`. Used by
  /// the dummy-write engine; never fires the observer. Returns the physical
  /// chunk, or nullopt when the pool or the volume is full.
  std::optional<std::uint64_t> write_noise_chunk(std::uint32_t id,
                                                 std::uint32_t noise_blocks,
                                                 util::Rng& noise_source,
                                                 util::Rng& placement)
      EXCLUDES(meta_mutex_);

  /// Unmaps one virtual chunk, clearing its bitmap bit. Data content is left
  /// in place (discard does not scrub), as on real dm-thin.
  void discard(std::uint32_t id, std::uint64_t vchunk)
      EXCLUDES(meta_mutex_);

  // -- introspection ----------------------------------------------------------

  const Superblock& superblock() const noexcept { return sb_; }
  std::uint64_t nr_chunks() const noexcept { return sb_.nr_chunks; }
  /// Free-chunk total: the sum of the per-shard counts — no lock on the
  /// metadata path (exact once in-flight allocators quiesce).
  std::uint64_t free_chunks() const noexcept { return alloc_.total_free(); }
  std::uint32_t chunk_blocks() const noexcept { return sb_.chunk_blocks; }
  /// Effective allocator shard count.
  std::uint32_t alloc_shards() const noexcept { return alloc_.shard_count(); }
  std::uint64_t mapped_chunks(std::uint32_t id) const;
  std::uint64_t virtual_chunks(std::uint32_t id) const;

  /// Mapping of volume `id`: entries are physical chunks or kUnmapped.
  const std::vector<std::uint64_t>& mapping(std::uint32_t id) const;

  /// Resolves logical blocks [lblock, lblock+count) of volume `id` into
  /// maximal physically contiguous extent runs in ONE metadata pass:
  /// adjacent chunks whose physical chunks are consecutive merge into one
  /// run, as do adjacent unmapped holes. The returned runs tile the range
  /// exactly, in logical order. Throws util::IoError on out-of-range.
  std::vector<ExtentRun> resolve_extents(std::uint32_t id,
                                         std::uint64_t lblock,
                                         std::uint64_t count) const
      EXCLUDES(meta_mutex_);

  /// True if the physical chunk is allocated (committed or in-txn).
  bool chunk_allocated(std::uint64_t phys_chunk) const;

  /// Full consistency check (thin_check equivalent): every mapped chunk is
  /// in range, marked in the bitmap, and mapped by exactly one volume;
  /// per-volume mapped counts and the free counter agree with the bitmap.
  /// Note: allocated-but-unmapped chunks are legal mid-transaction but not
  /// after a commit. Returns true iff consistent. open() applies the same
  /// rules to the metadata it loads and rejects a pool that breaks one.
  bool check_consistency() const EXCLUDES(meta_mutex_);

  std::shared_ptr<blockdev::BlockDevice> data_device() const noexcept {
    return data_dev_;
  }

  /// True when the data device keeps multiple requests in flight: volume
  /// range I/O then fans extent runs out through the async submit engine
  /// (noise chunks ride the same queue) instead of awaiting each one.
  bool async_io() const noexcept { return data_dev_->queue_depth() > 1; }

  /// Virtual-clock barrier over the data device's in-flight requests.
  /// Callers that issue noise/GC traffic outside a volume I/O call use it
  /// to close their timeline.
  void drain_data() { data_dev_->drain(); }

  /// Sets the RNG used for random allocation (defaults to an internal
  /// xoshiro seeded with 0; MobiCeal wires the CSPRNG here).
  void set_alloc_rng(util::Rng* rng) noexcept { alloc_rng_ = rng; }

  /// Attaches the stack's ClockDomain — the pool-CPU overlap model. With
  /// > 1 shard the submit paths route per-chunk CPU charges (mapping
  /// lookups, fresh-chunk allocation) onto earliest-free CPU lanes, one
  /// per shard, so CPU cost becomes each submission's available_ns instead
  /// of a serial advance of the anchor clock, and the sync wrappers close
  /// only their own request's timeline (wait_until) instead of draining
  /// every stripe. A 1-shard domain changes nothing. Call before I/O.
  void set_clock_domain(std::shared_ptr<util::ClockDomain> domain)
      EXCLUDES(cpu_mutex_);

  ~ThinPool();

 private:
  friend class ThinVolume;

  ThinPool(std::shared_ptr<blockdev::BlockDevice> metadata_dev,
           std::shared_ptr<blockdev::BlockDevice> data_dev,
           std::shared_ptr<util::SimClock> clock);

  struct VolumeState {
    bool active = false;
    bool observed = false;
    std::uint64_t virtual_chunks = 0;
    std::uint64_t mapped = 0;
    std::vector<std::uint64_t> map;  // vchunk -> phys chunk / kUnmapped
  };

  /// One chunk-aligned segment of a write range, produced by
  /// plan_write_range: the batched-allocation fast path's unit of work.
  struct ChunkSeg {
    std::uint64_t vchunk = 0;
    std::uint64_t off = 0;     ///< block offset within the chunk
    std::uint64_t blocks = 0;  ///< segment length in blocks
    std::uint64_t phys = 0;    ///< kUnmapped: allocation ran dry here
    bool fresh = false;
  };

  void load_metadata() EXCLUDES(meta_mutex_);
  /// The rules of check_consistency(): nullptr when every one holds,
  /// otherwise which one the current state breaks first.
  const char* consistency_fault() const REQUIRES(meta_mutex_);
  void store_metadata() REQUIRES(meta_mutex_);
  void check_volume(std::uint32_t id) const;

  /// Allocates a free physical chunk per policy; records it in the open
  /// transaction. Shard locks are taken internally (callable with or
  /// without meta_mutex_). Throws util::NoSpaceError when exhausted.
  std::uint64_t allocate_chunk();

  /// Batched-allocation write plan: splits [lblock, lblock+nblocks) at
  /// chunk boundaries and provisions every missing chunk under ONE
  /// metadata hold, with the allocator taking one shard lock per run of
  /// same-shard draws instead of one global lock per chunk. Only valid
  /// for unobserved volumes — observed volumes interleave observer RNG
  /// draws between chunks, so they keep the per-chunk path. Segments
  /// whose allocation ran dry carry phys == kUnmapped; the write loop
  /// throws NoSpace on reaching them (matching the per-chunk path's
  /// partial-write state exactly).
  std::vector<ChunkSeg> plan_write_range(std::uint32_t id,
                                         std::uint64_t lblock,
                                         std::uint64_t nblocks)
      EXCLUDES(meta_mutex_);

  /// Fires the allocation observer for a fresh provision on an observed
  /// volume, with the re-entrancy guard (a dummy write's own allocations
  /// must not trigger more dummy writes). Both write paths call this after
  /// the triggering data has landed, keeping their device state identical.
  /// EXCLUDES is load-bearing: the observer re-enters the pool (dummy
  /// writes allocate), so holding the metadata mutex here would deadlock —
  /// clang rejects any such call site at compile time.
  void notify_fresh_provision(std::uint32_t id, std::uint64_t phys)
      EXCLUDES(meta_mutex_);

  /// I/O path used by ThinVolume.
  void volume_read(std::uint32_t id, std::uint64_t lblock,
                   util::MutByteSpan out) EXCLUDES(meta_mutex_);
  void volume_write(std::uint32_t id, std::uint64_t lblock,
                    util::ByteSpan data) EXCLUDES(meta_mutex_);

  /// Vectored I/O path: reads service each extent run with one lower-device
  /// call (one metadata charge per run); writes proceed chunk-by-chunk (as
  /// dm-thin splits bios at chunk boundaries) with one vectored write per
  /// chunk segment, firing the allocation observer after each fresh
  /// provision exactly as the per-block path does. When async_io() is on,
  /// both delegate to the submit_* fan-out below and drain.
  void volume_read_range(std::uint32_t id, std::uint64_t lblock,
                         util::MutByteSpan out) EXCLUDES(meta_mutex_);
  void volume_write_range(std::uint32_t id, std::uint64_t lblock,
                          util::ByteSpan data) EXCLUDES(meta_mutex_);

  /// Async fan-out: submits every independent extent run (reads) / chunk
  /// segment (writes) to the data device without awaiting, and returns the
  /// latest modelled completion time. `available_ns` is the upstream
  /// data-ready constraint (dm-crypt's ciphertext-ready time), forwarded
  /// to each sub-request. Holds the volume's range lock for the duration;
  /// data movement (and the allocation observer) happen in submission
  /// order, so device state is bit-identical to the synchronous path.
  std::uint64_t submit_read_range(std::uint32_t id, std::uint64_t lblock,
                                  util::MutByteSpan out,
                                  std::uint64_t available_ns)
      EXCLUDES(meta_mutex_);
  std::uint64_t submit_write_range(std::uint32_t id, std::uint64_t lblock,
                                   util::ByteSpan data,
                                   std::uint64_t available_ns)
      EXCLUDES(meta_mutex_);

  /// The volume's range lock. Lock-free table read on the hit path (the
  /// historical version double-checked under the metadata mutex on every
  /// I/O).
  RangeLock& io_lock(std::uint32_t id) { return io_locks_.get(id); }

  /// Blocks until [first, first+count) of volume `id` is exclusively held.
  /// All range acquisition funnels through here: EXCLUDES(meta_mutex_)
  /// encodes the RangeLock-before-metadata lock order — holding the
  /// metadata mutex across a (potentially blocking) range acquire is a
  /// compile error, so the allocator can never wait on an I/O holder that
  /// in turn needs the allocator's lock.
  RangeLock::Guard lock_range(std::uint32_t id, std::uint64_t first,
                              std::uint64_t count) EXCLUDES(meta_mutex_);

  void charge(std::uint64_t ns) {
    if (clock_) clock_->advance(ns);
  }

  /// Pool-CPU overlap mode: active once a multi-shard domain is attached.
  bool overlapped() const noexcept {
    return domain_ && domain_->shard_count() > 1;
  }

  /// Earliest-free CPU lane runs `ns` of chunk bookkeeping starting no
  /// earlier than the anchor clock's now; returns the lane finish time
  /// (the submission's available_ns floor).
  std::uint64_t cpu_lane_charge(std::uint64_t ns) EXCLUDES(cpu_mutex_);

  /// Chunk CPU cost routing: overlap mode returns a lane finish time for
  /// available_ns chaining; single-timeline mode advances the clock (the
  /// historical model) and returns 0 so the caller's available_ns floor is
  /// unchanged.
  std::uint64_t chunk_cpu_charge(std::uint64_t ns) EXCLUDES(cpu_mutex_) {
    if (!overlapped()) {
      charge(ns);
      return 0;
    }
    return cpu_lane_charge(ns);
  }

  /// Fleet contention model (Config::meta_shard_lanes): bookkeeping for a
  /// chunk serialises on its allocator shard's virtual lane, starting no
  /// earlier than the caller's data-ready floor. Returns the lane finish.
  std::uint64_t shard_lane_charge(std::uint32_t shard, std::uint64_t ns,
                                  std::uint64_t floor_ns)
      EXCLUDES(cpu_mutex_);

  /// Per-chunk metadata CPU routing for the submit paths: the shard-lane
  /// model when enabled, else the historical serial/earliest-free model.
  std::uint64_t chunk_meta_charge(std::uint64_t phys_chunk, std::uint64_t ns,
                                  std::uint64_t floor_ns)
      EXCLUDES(cpu_mutex_) {
    if (meta_shard_lanes_ && clock_) {
      return shard_lane_charge(alloc_.shard_of(phys_chunk), ns, floor_ns);
    }
    return chunk_cpu_charge(ns);
  }

  std::shared_ptr<blockdev::BlockDevice> metadata_dev_;
  std::shared_ptr<blockdev::BlockDevice> data_dev_;
  std::shared_ptr<util::SimClock> clock_;
  std::shared_ptr<util::ClockDomain> domain_;
  util::SimClock::ResetHookId reset_hook_ = 0;
  bool have_reset_hook_ = false;
  /// Guards the CPU-lane free times (overlap mode); leaf lock, never held
  /// while acquiring any other mutex.
  mutable util::Mutex cpu_mutex_;
  std::vector<std::uint64_t> cpu_lane_free_ GUARDED_BY(cpu_mutex_);
  /// Fleet contention model: one virtual lane per allocator shard.
  std::vector<std::uint64_t> shard_lane_free_ GUARDED_BY(cpu_mutex_);
  Superblock sb_;
  MetadataGeometry geom_{};
  ThinCpuModel cpu_;
  bool meta_shard_lanes_ = false;

  /// Guards the volume mapping tables (VolumeState::map / mapped) and the
  /// metadata (de)serialisation against concurrent submitters. The
  /// allocator no longer lives under it — ShardedBitmap locks per shard —
  /// and the mutex is never held across data-device I/O or the allocation
  /// observer (machine-checked: notify_fresh_provision and lock_range are
  /// EXCLUDES(meta_mutex_)). Commit does hold it across *metadata*-device
  /// writes, which take no locks, so map updates simply stall until the
  /// transaction point passes.
  mutable util::Mutex meta_mutex_;

  /// Sharded allocation state: bitmap regions, free counts, txn ledgers.
  ShardedBitmap alloc_;

  std::vector<VolumeState> volumes_;
  /// Per-volume range locks, created lazily off the metadata mutex.
  RangeLockTable io_locks_;
  AllocationObserver observer_;

  util::Xoshiro256 default_rng_{0};
  util::Rng* alloc_rng_ = nullptr;
};

/// BlockDevice view of one thin volume. Reads of unprovisioned chunks
/// return zeros; writes provision chunks on demand.
class ThinVolume final : public blockdev::BlockDevice {
 public:
  ThinVolume(std::shared_ptr<ThinPool> pool, std::uint32_t id);

  std::size_t block_size() const noexcept override;
  std::uint64_t num_blocks() const noexcept override;
  void read_block(std::uint64_t index, util::MutByteSpan out) override;
  void write_block(std::uint64_t index, util::ByteSpan data) override;
  /// Flush commits the pool's open transaction (REQ_FLUSH semantics).
  void flush() override;

  std::uint32_t id() const noexcept { return id_; }

  std::uint32_t queue_depth() const noexcept override;
  void set_queue_depth(std::uint32_t depth) override;
  std::uint64_t completion_cutoff() const noexcept override;

 protected:
  /// Vectored I/O resolves extent runs once and issues one lower-device
  /// call per physically contiguous run.
  void do_read_blocks(std::uint64_t first, std::uint64_t count,
                      util::MutByteSpan out) override;
  void do_write_blocks(std::uint64_t first, util::ByteSpan data) override;

  /// Async submissions fan out to the pool's data device (flush falls back
  /// to the synchronous metadata commit).
  std::uint64_t do_submit(const blockdev::IoRequest& req) override;
  void do_drain() override;
  void do_wait_until(std::uint64_t cutoff) override;

 private:
  std::shared_ptr<ThinPool> pool_;
  std::uint32_t id_;
};

}  // namespace mobiceal::thin
