// Replication lane stamping — lane id + lane-local sequence in one u64.
//
// A multi-reactor server (net/server.h) advances one mutation-stream
// sequence *per reactor*: reactor k owns a contiguous shard slice and
// stamps the frames it replicates on lane k.  The wire format's u64
// sequence field carries both halves — the lane id in the top byte, the
// lane-local position below — so every consumer of a stream sequence
// (subscribers, the replication log's tiers, gap detection) can recover the
// lane without a schema change.
//
// Lane 0 is special by construction: lane_seq(0, n) == n, so a
// single-reactor server (the default) emits exactly the plain sequences
// every pre-lane peer, test, and on-disk artifact expects — bit-for-bit.
#pragma once

#include <cstdint>

namespace gf::net {

/// Top-byte lane field: 16 lanes is plenty (reactors are cores), and a
/// 56-bit lane-local position still never wraps in practice.
inline constexpr uint32_t kLaneShift = 56;
inline constexpr uint32_t kMaxLanes = 16;
inline constexpr uint64_t kLaneLocalMask =
    (uint64_t{1} << kLaneShift) - 1;

constexpr uint32_t lane_of(uint64_t seq) {
  return static_cast<uint32_t>(seq >> kLaneShift);
}

constexpr uint64_t lane_local(uint64_t seq) { return seq & kLaneLocalMask; }

constexpr uint64_t lane_seq(uint32_t lane, uint64_t local) {
  return (uint64_t{lane} << kLaneShift) | (local & kLaneLocalMask);
}

/// The one rule every tier of the replication log (net/repl_log.h) serves
/// a lane range (after, cur] by: each frame in it exactly once, in order —
/// lane_local(cur) - lane_local(after) frames, the last stamped `cur`.  A
/// short or reordered replay would hand a replica a hole it cannot see.
struct lane_range {
  uint64_t after, cur;
  uint64_t next = after + 1;
  bool in_order = true;

  /// True when `seq` lies in the range (the caller appends its frame); a
  /// frame in the range but out of order breaks the range for good.
  constexpr bool take(uint64_t seq) {
    if (seq <= after || seq > cur) return false;
    in_order = in_order && seq == next;
    ++next;
    return true;
  }
  constexpr bool complete() const { return in_order && next == cur + 1; }
};

}  // namespace gf::net
