// The replication log: the primary-side half of delta re-sync
// (net/replication.h), one per server.
//
// Every replicated mutation is appended as its encoded, sequence-stamped
// wire frame — the bytes a live subscriber saw — and kept in up to two
// tiers per replication lane (net/lane.h):
//   * memory: a byte-budgeted tail of the lane's newest frames, sharing the
//     subscribers' buffer.  It evicts oldest-first and clears on a
//     non-contiguous append, so it always holds one contiguous range.
//     Lanes at or above the server's reactor count keep no tail;
//   * disk: the optional durability engine's WAL (persist/durability.h).
// A resuming replica's range is asked of the log once per lane and served
// exactly (net::lane_range) from memory when the tail holds it, else from
// disk — or not at all, and the resume falls back to a snapshot.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <vector>

namespace gf::persist {
class durability_engine;  // persist/durability.h
}
namespace gf::store {
class filter_store;  // store/store.h
}

namespace gf::net {

/// Where replay() found a range.
enum class repl_tier : uint8_t {
  none,    ///< some frame is unavailable: bootstrap from a snapshot
  memory,  ///< the lane's in-memory tail (also: an empty range)
  disk,    ///< the durability engine's WAL
};

class repl_log {
 public:
  /// Lanes 0..lanes-1 keep a tail of `tail_budget` bytes each (0: none);
  /// `disk` (optional, not owned) is the disk tier.
  repl_log(uint32_t lanes, size_t tail_budget,
           persist::durability_engine* disk);

  /// Whether append(seq, ...) keeps the frame in any tier.
  bool keeps(uint64_t seq) const;

  /// Log frame `seq`: WAL first, then the lane's tail.  Ascending per lane,
  /// one appender per lane; distinct lanes append concurrently.
  void append(uint64_t seq, std::shared_ptr<const std::vector<uint8_t>> frame);

  /// Append exactly the frames of one lane's range (after, cur] to `out` and
  /// return the tier that served them, or append nothing and return
  /// repl_tier::none.  Quiesced contexts only: a resume is served inside
  /// SYNC's stop-the-world barrier, which parks every lane's appender.
  repl_tier replay(uint64_t after, uint64_t cur,
                   std::vector<uint8_t>& out) const;

  /// New lineage: clear every tail and reset the WAL onto `st` at
  /// `lane_lasts` (persist::durability_engine::reset).  Quiesced only.
  void reset(const store::filter_store& st,
             std::span<const uint64_t> lane_lasts);

  /// Sums over the memory tails (the gf_repl_replay_ring_* gauges).
  size_t bytes() const;
  size_t frames() const;

 private:
  struct entry {
    uint64_t seq;
    std::shared_ptr<const std::vector<uint8_t>> frame;
  };
  /// Written only by its lane's appender: one cache line each.
  struct alignas(64) tail {
    std::deque<entry> frames;
    size_t bytes = 0;
  };

  size_t budget_;
  std::vector<tail> tails_;
  persist::durability_engine* disk_;
};

}  // namespace gf::net
