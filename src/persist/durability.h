// The durability engine: WAL + checkpointing behind one façade.
//
// Ownership and threading: examples/store_server.cpp (or a test) owns the
// engine and hands net::server a non-owning pointer via server_config.
// The log is split into replication lanes (net/lane.h): append(seq, ...)
// derives the lane from the sequence's stamp and touches only that lane's
// writer state, so a multi-reactor server appends concurrently — one
// reactor per lane, never two threads on one lane.  Cross-lane state (the
// manifest's segment lists, rotation, checkpointing) is serialized under a
// mutex; whole-engine operations (recover, checkpoint, reset, replay,
// stats) are called from quiesced contexts — startup, the single loop
// thread, or the server's stop-the-world barrier.  A
// single-lane engine behaves bit-for-bit like the pre-lane one: lane 0's
// segments keep their names and places, and the manifest stays v1.
//
// Lifecycle:
//   1. recover(fallback) — load the manifest's checkpoint (cross-checking
//      the covered sequence stamped in its v3 store header), replay the
//      WAL tail through the store's normal bulk apply paths, truncate any
//      torn tail at the last clean frame, and return the rebuilt store.
//      With no checkpoint yet, `fallback` supplies the starting store
//      (a legacy --snapshot, or a fresh one) and its covered sequence,
//      and an initial checkpoint arms the directory.
//   2. append(seq, bytes) — called from net::server::replicate() with the
//      exact encoded wire frame; rotates segments by size and fsyncs per
//      policy.  The WAL therefore holds every applied mutating batch,
//      auto-maintain's synthesized frames included, in stream order.
//   3. checkpoint(store) when checkpoint_due() — fold the log into a new
//      snapshot and truncate covered segments.
//   4. replay() — the disk tier of the replication log (net/repl_log.h):
//      serves a reconnecting replica's delta re-sync, exactly or not at
//      all, when the log's in-memory tail no longer holds the range.
//
// Sequence discipline: appends must arrive contiguously (replicate()
// stamps them so).  A discontinuity — an unsupervised replica accepting a
// feed gap — starts a fresh segment and forces checkpoint_due(), and
// replay() serves no range across it: the log never silently spans a hole.
// reset() handles the larger break (a replica re-bootstrapped onto a new
// lineage) by truncating everything and checkpointing the new store.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "net/lane.h"
#include "obs/histogram.h"
#include "persist/checkpoint.h"
#include "persist/wal.h"
#include "store/store.h"

namespace gf::persist {

/// Plain-value counters for STATS / metrics (single-writer, loop thread).
struct durability_stats {
  uint64_t wal_bytes = 0;       ///< frame bytes appended (headers excluded)
  uint64_t wal_frames = 0;
  uint64_t wal_fsyncs = 0;
  uint64_t wal_segments = 0;    ///< live (manifest) segments
  uint64_t segments_rotated = 0;
  uint64_t checkpoints = 0;
  uint64_t checkpoint_seq = 0;
  uint64_t checkpoint_bytes = 0;  ///< size of the newest checkpoint
  uint64_t last_seq = 0;
  uint64_t recovery_replayed_frames = 0;
  uint64_t recovery_truncated_bytes = 0;  ///< torn/corrupt tail bytes cut
  uint64_t recovery_gaps = 0;             ///< replay stopped at a hole
};

class durability_engine {
 public:
  explicit durability_engine(wal_config cfg);
  ~durability_engine();
  durability_engine(const durability_engine&) = delete;
  durability_engine& operator=(const durability_engine&) = delete;

  /// Starting store + the stream sequence it covers, used when the WAL
  /// directory has no checkpoint yet.
  using bootstrap_fn =
      std::function<std::pair<store::filter_store, uint64_t>()>;

  /// See the file comment.  Must be called (or reset()) before append().
  /// Throws when the manifest, checkpoint, or a segment *header* is
  /// malformed or the checkpoint's stamped sequence disagrees with the
  /// manifest — lying metadata is fatal; torn frame data is not.
  store::filter_store recover(const bootstrap_fn& fallback);

  /// Log one applied mutation: the exact encoded wire frame, stamped with
  /// stream sequence `seq`.  The lane comes from the sequence's stamp
  /// (net/lane.h); a new lane's directory and segment stream are created
  /// on first use.  Rotates and fsyncs per config.  Thread-safe across
  /// lanes (one appender per lane).
  void append(uint64_t seq, std::span<const uint8_t> frame_bytes);

  /// Pre-create lanes 0..n-1 so no reactor pays the creation path on its
  /// first append.  Call from a quiesced context (startup).
  void ensure_lanes(uint32_t n);

  /// True when enough log accumulated since the last checkpoint (or a
  /// sequence discontinuity demands one).  Cheap; poll after mutations.
  bool checkpoint_due() const;
  /// Checkpoint `st` as of the last appended sequence.
  void checkpoint(const store::filter_store& st);

  /// New lineage (replica re-bootstrapped from a snapshot): drop every
  /// segment and checkpoint `st` as covering `lane_lasts` — one lane per
  /// entry, each at its lane-stamped sequence (one entry, the plain
  /// sequence, for a single-lane stream).
  void reset(const store::filter_store& st,
             std::span<const uint64_t> lane_lasts);

  /// fsync every open segment regardless of policy (orderly shutdown).
  void sync();

  /// The disk tier of the replication log (net/repl_log.h), its only
  /// caller: append to `out` exactly the frames of the lane range
  /// (after_seq, current_seq] (net::lane_range), re-encoded byte-identical
  /// with the subscriber stream (each CRC verified on the way out of its
  /// segment), and return true — or append nothing and return false when
  /// the segments do not hold every one of them, once and in order, or a
  /// scan stops on a torn or corrupt frame.  The log has already checked
  /// that the range is one lane's and not empty.
  bool replay(uint64_t after_seq, uint64_t current_seq,
              std::vector<uint8_t>& out) const;

  /// Summed lane-local position (== the last appended sequence when only
  /// lane 0 exists — the legacy meaning).
  uint64_t last_seq() const;
  /// Lane-stamped last sequence per lane.
  std::vector<uint64_t> last_seqs() const;
  const std::string& dir() const { return cfg_.dir; }
  fsync_policy policy() const { return cfg_.fsync; }
  durability_stats stats() const;

  /// For registry registration (obs/registry.h add_histogram).
  const obs::latency_histogram* fsync_hist() const { return &fsync_ns_; }
  const obs::latency_histogram* checkpoint_hist() const {
    return &checkpoint_ns_;
  }

 private:
  /// One lane's writer-side state.  Owned exclusively by the lane's
  /// appending thread between quiesce points; only the manifest's segment
  /// lists (m_) are shared, under m_mu_.
  struct lane_state {
    segment_writer active;
    uint64_t last_seq = 0;         ///< lane-stamped; trails nothing
    uint64_t last_fsync_ns = 0;
  };

  /// Lane k's state, creating the lane (directory, manifest entry) on
  /// first sight; `seq` seeds a fresh lane's position so the first append
  /// is not a gap.
  lane_state& lane_at(uint32_t k, uint64_t seq);
  /// Relative segment path for lane k ("wal-...seg" for lane 0,
  /// "lane-<k>/wal-...seg" above).
  std::string lane_file(uint32_t k, uint64_t first_seq) const;
  void roll(uint32_t k, uint64_t first_seq);  ///< close + fresh segment
  /// Record ls.last_seq into the lane's active manifest entry (call with
  /// m_mu_ held, before save_manifest or prune decisions).
  void materialize_last_locked(uint32_t k);
  void maybe_fsync(uint32_t k);
  void checkpoint_locked(const store::filter_store& st);

  wal_config cfg_;
  checkpointer ckpt_;
  /// Guards m_ (every lane's segment list + manifest writes) and the
  /// rotation/checkpoint paths.  Never held across an append write.
  mutable std::mutex m_mu_;
  manifest m_;
  /// Parallel to m_.lanes.  Reserved to kMaxLanes at construction so
  /// push_back never reallocates: readers index published entries without
  /// m_mu_.  unique_ptr keeps each lane_state at a stable address.
  std::vector<std::unique_ptr<lane_state>> lanes_;
  /// Published lane count: stored with release after a new lane's state is
  /// fully built, loaded with acquire before indexing lanes_.
  std::atomic<uint32_t> lane_count_{0};
  bool armed_ = false;  ///< recover()/reset() completed (set pre-thread)

  // Telemetry.  Shared across lane appenders, hence atomic; readers
  // (stats, checkpoint_due) tolerate relaxed skew.
  std::atomic<bool> force_checkpoint_{false};
  std::atomic<uint64_t> bytes_since_checkpoint_{0};
  std::atomic<uint64_t> wal_bytes_{0};
  std::atomic<uint64_t> wal_frames_{0};
  std::atomic<uint64_t> wal_fsyncs_{0};
  std::atomic<uint64_t> rotations_{0};
  uint64_t checkpoints_ = 0;        // quiesced paths only
  uint64_t checkpoint_bytes_ = 0;   // quiesced paths only
  uint64_t recovery_replayed_ = 0;
  uint64_t recovery_truncated_bytes_ = 0;
  uint64_t recovery_gaps_ = 0;
  obs::latency_histogram fsync_ns_{net::kMaxLanes};  // one lane per appender
  obs::latency_histogram checkpoint_ns_;  // 1 lane: quiesced writer only
};

}  // namespace gf::persist
