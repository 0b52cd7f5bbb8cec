// Request/response codecs over net/frame.h for the store's op vocabulary.
//
// Requests carry batches (the protocol's unit — see frame.h): key arrays
// for INSERT/QUERY/ERASE/COUNT, (key, count) pairs for INSERT_COUNTED, and
// empty payloads for the control plane (STATS/MAINTAIN/SNAPSHOT/PING/SYNC;
// a SYNC request whose shard_hint is kSyncInviteHint instead carries the
// inviting server's port).
// Responses echo the request's opcode, sequence, and key_count, and carry
// per-opcode payloads:
//
//   insert / insert_counted / erase   u64 ok, u64 failed — counted in the
//                                     request's unit: key occurrences for
//                                     insert/erase, (key, count) *pairs*
//                                     for insert_counted (the server
//                                     applies pairs through
//                                     filter_store::insert_counted, which
//                                     accounts per pair; a client that
//                                     needs instance totals multiplies by
//                                     its own counts)
//   query                             key_count membership bits, packed
//                                     little-endian into u64 words
//   count                             u64 multiplicity per key
//   stats                             UTF-8 JSON text (report_json)
//   maintain                          u32 grown, u32 max_depth,
//                                     u32 total_levels, u32 reserved
//   snapshot                          u64 bytes written
//   ping                              empty
//   sync                              chunked snapshot transfer — the one
//                                     response spanning several frames;
//                                     see encode_sync_chunk below
//
// A response whose status is not ok carries a message string instead.
//
// Shape validation is split from frame decoding on purpose: the decoder
// (frame.h) proves the frame is structurally sound, and validate_request /
// validate_response prove the payload matches the opcode's shape — the
// server rejects the connection on either failure, so a hostile peer can
// never steer a handler into reading past a payload.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "net/frame.h"
#include "net/lane.h"

namespace gf::net {

/// INSERT, INSERT_COUNTED, ERASE: the batches net/mutation.h applies.
inline bool is_mutating(opcode op) {
  return op == opcode::insert || op == opcode::insert_counted ||
         op == opcode::erase;
}

/// u64 words needed for an n-key membership bitmap.
inline size_t bitmap_words(size_t nkeys) { return (nkeys + 63) / 64; }

/// Test bit i of a query-response bitmap.
inline bool bitmap_test(std::span<const uint64_t> words, size_t i) {
  return (words[i >> 6] >> (i & 63)) & 1;
}

/// Thrown by every request/response encoder handed a batch that cannot be
/// represented in one frame.  The frame's key_count field is a u32 and the
/// codecs cap batches far below it (kMaxKeysPerFrame), so without this
/// check a huge batch would silently truncate its count while the payload
/// length disagreed — a frame the receiving side must treat as hostile.
/// Typed so callers can distinguish "chunk your batch" from transport
/// failures.
class batch_too_large : public std::length_error {
 public:
  explicit batch_too_large(size_t n)
      : std::length_error(
            "gf: batch of " + std::to_string(n) +
            " items exceeds the frame capacity (" +
            std::to_string(kMaxKeysPerFrame) + "); chunk it across frames") {}
};

namespace detail {
inline void check_batch_size(size_t n) {
  if (n > kMaxKeysPerFrame) throw batch_too_large(n);
}
}  // namespace detail

// -- Request encoders -------------------------------------------------------

/// An unsequenced batch request frame: keys for insert/query/erase/count,
/// (key, count) pairs for insert_counted (the inverse of decode_batch).
inline frame batch_frame(opcode op, std::span<const uint64_t> keys,
                         std::span<const uint64_t> counts = {}) {
  const bool pairs = op == opcode::insert_counted;
  if (pairs && keys.size() != counts.size())
    throw std::invalid_argument("gf: keys/counts length mismatch");
  detail::check_batch_size(keys.size());
  frame f;
  f.op = op;
  f.key_count = static_cast<uint32_t>(keys.size());
  if (!pairs) {
    put_u64s(f.payload, keys);
    return f;
  }
  f.payload.reserve(keys.size() * 16);
  for (size_t i = 0; i < keys.size(); ++i) {
    put_u64(f.payload, keys[i]);
    put_u64(f.payload, counts[i]);
  }
  return f;
}

inline std::vector<uint8_t> encode_keys_request(
    opcode op, uint64_t seq, std::span<const uint64_t> keys,
    uint32_t shard_hint = kNoShardHint) {
  frame f = batch_frame(op, keys);
  f.sequence = seq;
  f.shard_hint = shard_hint;
  return encode_frame(f);
}

inline std::vector<uint8_t> encode_insert_counted_request(
    uint64_t seq, std::span<const uint64_t> keys,
    std::span<const uint64_t> counts) {
  frame f = batch_frame(opcode::insert_counted, keys, counts);
  f.sequence = seq;
  return encode_frame(f);
}

/// Control request (empty payload).  `shard_hint` selects request variants
/// for opcodes that have them — the STATS exposition hints (frame.h); the
/// default is a plain request.
inline std::vector<uint8_t> encode_control_request(
    opcode op, uint64_t seq, uint32_t shard_hint = kNoShardHint) {
  frame f;
  f.op = op;
  f.sequence = seq;
  f.shard_hint = shard_hint;
  return encode_frame(f);
}

/// Replication invite: "connect back to me and SYNC".  Sent by a primary
/// started with --replicate-to; the receiving standby replica combines the
/// connection's peer address with the port named here and bootstraps from
/// it (net/replication.h).
inline std::vector<uint8_t> encode_sync_invite(uint64_t seq, uint16_t port) {
  frame f;
  f.op = opcode::sync;
  f.sequence = seq;
  f.shard_hint = kSyncInviteHint;
  put_u64(f.payload, port);
  return encode_frame(f);
}

/// Listening port carried by a sync invite (validate the shape first).
inline uint16_t decode_sync_invite(const frame& f) {
  return static_cast<uint16_t>(get_u64(f.payload.data()));
}

/// Delta re-sync request: "I last applied stream sequence `last_seq`; send
/// me what I missed."  The primary serves the delta from its replication
/// log (net/repl_log.h) when the log can replay every frame above
/// last_seq, else falls back to a full chunked snapshot on the same
/// connection (net/replication.h's sync_resume handles both answers).
inline std::vector<uint8_t> encode_sync_resume_request(uint64_t seq,
                                                       uint64_t last_seq) {
  frame f;
  f.op = opcode::sync;
  f.sequence = seq;
  f.shard_hint = kSyncResumeHint;
  put_u64(f.payload, last_seq);
  return encode_frame(f);
}

/// Lane-aware resume request: one lane-stamped "last applied" sequence per
/// replication lane (net/lane.h).  A single-lane replica emits exactly the
/// scalar request above — the L == 1 payload is byte-identical — so pre-lane
/// primaries keep accepting it unchanged.
inline std::vector<uint8_t> encode_sync_resume_request(
    uint64_t seq, std::span<const uint64_t> lane_lasts) {
  frame f;
  f.op = opcode::sync;
  f.sequence = seq;
  f.shard_hint = kSyncResumeHint;
  put_u64s(f.payload, lane_lasts);
  return encode_frame(f);
}

/// Last applied sequence named by a resume request (validate shape first).
inline uint64_t decode_sync_resume(const frame& f) {
  return get_u64(f.payload.data());
}

/// All lane-stamped last-applied sequences of a resume request.  A legacy
/// scalar request decodes as the one-lane vector.
inline std::vector<uint64_t> decode_sync_resume_lanes(const frame& f) {
  std::vector<uint64_t> lasts(f.payload.size() / 8);
  get_u64s(f.payload.data(), lasts.size(), lasts.data());
  return lasts;
}

// -- Response encoders ------------------------------------------------------

/// insert / insert_counted / erase: an (ok, failed) pair.  `status` is ok
/// by default; the ack-gated write path re-encodes a held response with
/// wire_status::ok_async when its replica-ack deadline expires.
inline std::vector<uint8_t> encode_pair_response(
    opcode op, uint64_t seq, uint32_t key_count, uint64_t ok, uint64_t failed,
    wire_status status = wire_status::ok) {
  frame f;
  f.op = op;
  f.status = status;
  f.sequence = seq;
  f.key_count = key_count;
  put_u64(f.payload, ok);
  put_u64(f.payload, failed);
  return encode_frame(f);
}

inline std::vector<uint8_t> encode_query_response(
    uint64_t seq, uint32_t key_count, std::span<const uint64_t> bitmap) {
  frame f;
  f.op = opcode::query;
  f.sequence = seq;
  f.key_count = key_count;
  put_u64s(f.payload, bitmap);
  return encode_frame(f);
}

inline std::vector<uint8_t> encode_count_response(
    uint64_t seq, std::span<const uint64_t> counts) {
  detail::check_batch_size(counts.size());
  frame f;
  f.op = opcode::count;
  f.sequence = seq;
  f.key_count = static_cast<uint32_t>(counts.size());
  put_u64s(f.payload, counts);
  return encode_frame(f);
}

inline std::vector<uint8_t> encode_stats_response(uint64_t seq,
                                                  std::string_view json) {
  frame f;
  f.op = opcode::stats;
  f.sequence = seq;
  f.payload.assign(json.begin(), json.end());
  return encode_frame(f);
}

inline std::vector<uint8_t> encode_maintain_response(uint64_t seq,
                                                     uint32_t shards_grown,
                                                     uint32_t max_depth,
                                                     uint32_t total_levels) {
  frame f;
  f.op = opcode::maintain;
  f.sequence = seq;
  put_u32(f.payload, shards_grown);
  put_u32(f.payload, max_depth);
  put_u32(f.payload, total_levels);
  put_u32(f.payload, 0);
  return encode_frame(f);
}

inline std::vector<uint8_t> encode_snapshot_response(uint64_t seq,
                                                     uint64_t bytes) {
  frame f;
  f.op = opcode::snapshot;
  f.sequence = seq;
  put_u64(f.payload, bytes);
  return encode_frame(f);
}

/// One SYNC response chunk.  A snapshot transfer is the one response that
/// spans frames: every chunk echoes the request's sequence, shard_hint
/// carries the chunk index and key_count the total chunk count (the two
/// fields the batch opcodes leave unused here).  Chunk 0's payload leads
/// with a 16-byte header — u64 repl_seq (the mutation-stream position the
/// snapshot captures; the live stream resumes at repl_seq + 1) and u64
/// total snapshot bytes — followed by the first data slice; later chunks
/// are raw data.  Each chunk rides the frame CRC, so a corrupted transfer
/// dies in the decoder, never in load_store.
inline constexpr size_t kSyncChunk0Header = 16;

inline std::vector<uint8_t> encode_sync_chunk(uint64_t seq, uint32_t index,
                                              uint32_t total_chunks,
                                              uint64_t repl_seq,
                                              uint64_t total_bytes,
                                              std::span<const uint8_t> data) {
  frame f;
  f.op = opcode::sync;
  f.sequence = seq;
  f.shard_hint = index;
  f.key_count = total_chunks;
  if (index == 0) {
    f.payload.reserve(kSyncChunk0Header + data.size());
    put_u64(f.payload, repl_seq);
    put_u64(f.payload, total_bytes);
  }
  f.payload.insert(f.payload.end(), data.begin(), data.end());
  return encode_frame(f);
}

struct sync_chunk_header {
  uint64_t repl_seq = 0;     ///< stream position the snapshot captures
  uint64_t total_bytes = 0;  ///< assembled snapshot size across all chunks
};

/// Chunk 0's header (validate the shape first; data follows the header).
inline sync_chunk_header decode_sync_chunk_header(const frame& f) {
  return {get_u64(f.payload.data()), get_u64(f.payload.data() + 8)};
}

/// Delta-accept response to a resume request: the replayed frames that
/// follow on this connection cover sequences (resume_from .. upto]; when
/// resume_from == upto the replica was already current and the connection
/// goes straight to live streaming.
inline std::vector<uint8_t> encode_sync_delta_response(uint64_t seq,
                                                       uint64_t resume_from,
                                                       uint64_t upto) {
  frame f;
  f.op = opcode::sync;
  f.sequence = seq;
  f.shard_hint = kSyncDeltaHint;
  put_u64(f.payload, resume_from);
  put_u64(f.payload, upto);
  return encode_frame(f);
}

struct sync_delta_header {
  uint64_t resume_from = 0;  ///< the replica's last applied sequence
  uint64_t upto = 0;         ///< primary stream position at accept time
};

inline sync_delta_header decode_sync_delta_header(const frame& f) {
  return {get_u64(f.payload.data()), get_u64(f.payload.data() + 8)};
}

/// Lane-aware delta accept: one (resume_from, upto) span per replication
/// lane, in lane order.  The L == 1 payload is byte-identical to the scalar
/// response above, so single-lane peers interoperate unchanged.
inline std::vector<uint8_t> encode_sync_delta_response(
    uint64_t seq, std::span<const sync_delta_header> lanes) {
  frame f;
  f.op = opcode::sync;
  f.sequence = seq;
  f.shard_hint = kSyncDeltaHint;
  for (const auto& h : lanes) {
    put_u64(f.payload, h.resume_from);
    put_u64(f.payload, h.upto);
  }
  return encode_frame(f);
}

/// All per-lane spans of a delta accept.  A legacy scalar response decodes
/// as the one-lane vector.
inline std::vector<sync_delta_header> decode_sync_delta_lanes(const frame& f) {
  std::vector<sync_delta_header> lanes(f.payload.size() / 16);
  for (size_t i = 0; i < lanes.size(); ++i) {
    lanes[i].resume_from = get_u64(f.payload.data() + i * 16);
    lanes[i].upto = get_u64(f.payload.data() + i * 16 + 8);
  }
  return lanes;
}

/// Lane table announcement: a multi-lane primary prefixes its chunked
/// snapshot with the per-lane stream positions the snapshot captures (the
/// live stream resumes past these).  Emitted only when more than one lane
/// exists — a single-lane transfer stays byte-identical to the pre-lane
/// protocol, where chunk 0's scalar repl_seq carries the same fact.
inline std::vector<uint8_t> encode_sync_lane_table(
    uint64_t seq, std::span<const uint64_t> lane_seqs) {
  frame f;
  f.op = opcode::sync;
  f.sequence = seq;
  f.shard_hint = kSyncLaneTableHint;
  put_u64s(f.payload, lane_seqs);
  return encode_frame(f);
}

/// Lane-stamped stream positions carried by a lane table frame.
inline std::vector<uint64_t> decode_sync_lane_table(const frame& f) {
  std::vector<uint64_t> seqs(f.payload.size() / 8);
  get_u64s(f.payload.data(), seqs.size(), seqs.data());
  return seqs;
}

inline std::vector<uint8_t> encode_ping_response(uint64_t seq) {
  frame f;
  f.op = opcode::ping;
  f.sequence = seq;
  return encode_frame(f);
}

inline std::vector<uint8_t> encode_error_response(opcode op, uint64_t seq,
                                                  wire_status st,
                                                  std::string_view message) {
  frame f;
  f.op = op;
  f.sequence = seq;
  f.status = st;
  f.payload.assign(message.begin(), message.end());
  return encode_frame(f);
}

// -- Shape validation -------------------------------------------------------

/// nullptr when the request payload matches its opcode's shape, else a
/// description.  A malformed request is indistinguishable from a desynced
/// stream, so servers treat any non-null result as fatal to the connection.
inline const char* validate_request(const frame& f) {
  if (f.status != wire_status::ok) return "request carries nonzero status";
  const size_t n = f.key_count;
  const size_t p = f.payload.size();
  switch (f.op) {
    case opcode::insert:
    case opcode::query:
    case opcode::erase:
    case opcode::count:
      if (n > kMaxKeysPerFrame) return "key batch larger than the frame cap";
      if (p != n * 8) return "key batch payload size mismatch";
      return nullptr;
    case opcode::insert_counted:
      if (n > kMaxKeysPerFrame) return "key batch larger than the frame cap";
      if (p != n * 16) return "counted batch payload size mismatch";
      return nullptr;
    case opcode::maintain:
      // An empty payload is a full maintain; an 8-byte {u32 begin, u32 end}
      // payload is the ranged form a multi-reactor primary replicates so
      // each lane's stream touches only its own shard slice.
      if (n != 0) return "control request carries a key count";
      if (p != 0 && p != 8) return "maintain request payload size mismatch";
      return nullptr;
    case opcode::stats:
    case opcode::snapshot:
    case opcode::ping:
      if (n != 0 || p != 0) return "control request carries a payload";
      return nullptr;
    case opcode::sync:
      if (n != 0) return "sync request carries a key count";
      if (f.shard_hint == kSyncInviteHint) {
        if (p != 8) return "sync invite payload size mismatch";
        return nullptr;
      }
      if (f.shard_hint == kSyncResumeHint) {
        // One lane-stamped u64 per lane; the legacy scalar is the L == 1
        // case.
        if (p < 8 || p % 8 != 0 || p > size_t{kMaxLanes} * 8)
          return "sync resume payload size mismatch";
        return nullptr;
      }
      if (p != 0) return "sync request carries a payload";
      return nullptr;
  }
  return "unknown opcode";
}

/// nullptr when the response payload matches its opcode's shape.  Clients
/// treat non-null as a protocol error (the transport is broken).
inline const char* validate_response(const frame& f) {
  const size_t n = f.key_count;
  const size_t p = f.payload.size();
  if (f.status == wire_status::ok_async) {
    // Only an ack-gate-degraded mutation response carries this status, and
    // its payload is the ordinary ok-shaped pair.
    if (!is_mutating(f.op)) return "ok_async status on a non-mutating opcode";
    if (p != 16) return "pair response payload size mismatch";
    return nullptr;
  }
  if (f.status != wire_status::ok) return nullptr;  // message string, any size
  switch (f.op) {
    case opcode::insert:
    case opcode::insert_counted:
    case opcode::erase:
      if (p != 16) return "pair response payload size mismatch";
      return nullptr;
    case opcode::query:
      if (n > kMaxKeysPerFrame) return "bitmap larger than the frame cap";
      if (p != bitmap_words(n) * 8) return "bitmap payload size mismatch";
      return nullptr;
    case opcode::count:
      if (n > kMaxKeysPerFrame) return "count batch larger than the frame cap";
      if (p != n * 8) return "count payload size mismatch";
      return nullptr;
    case opcode::maintain:
      if (p != 16) return "maintain response payload size mismatch";
      return nullptr;
    case opcode::snapshot:
      if (p != 8) return "snapshot response payload size mismatch";
      return nullptr;
    case opcode::stats:
      return nullptr;  // JSON text, any size
    case opcode::ping:
      if (p != 0) return "ping response carries a payload";
      return nullptr;
    case opcode::sync:
      // Delta-accept: a resume was granted; replayed frames follow.  One
      // (resume_from, upto) pair per lane; the legacy scalar is L == 1.
      if (f.shard_hint == kSyncDeltaHint) {
        if (n != 0) return "sync delta response carries a key count";
        if (p < 16 || p % 16 != 0 || p > size_t{kMaxLanes} * 16)
          return "sync delta payload size mismatch";
        return nullptr;
      }
      // Lane table: per-lane stream positions ahead of a multi-lane
      // snapshot transfer.
      if (f.shard_hint == kSyncLaneTableHint) {
        if (n != 0) return "sync lane table carries a key count";
        if (p < 8 || p % 8 != 0 || p > size_t{kMaxLanes} * 8)
          return "sync lane table payload size mismatch";
        return nullptr;
      }
      // Chunked: key_count is the chunk total, shard_hint the chunk index.
      if (n == 0) return "sync response declares zero chunks";
      if (f.shard_hint >= n) return "sync chunk index out of range";
      if (f.shard_hint == 0 && p < kSyncChunk0Header)
        return "sync chunk 0 shorter than its header";
      return nullptr;
  }
  return "unknown opcode";
}

// -- Typed decoders ---------------------------------------------------------

struct pair_result {
  uint64_t ok = 0;      ///< landed occurrences (insert/erase) or pairs
                        ///< (insert_counted) — the request's unit
  uint64_t failed = 0;  ///< refused inserts / missing erases, same unit
};

struct maintain_reply {
  uint32_t shards_grown = 0;
  uint32_t max_depth = 0;
  uint32_t total_levels = 0;
};

/// Keys of a batch request (insert/query/erase/count) — callers validate
/// the shape first.
inline std::vector<uint64_t> decode_keys(const frame& f) {
  std::vector<uint64_t> keys(f.key_count);
  get_u64s(f.payload.data(), keys.size(), keys.data());
  return keys;
}

/// (keys, counts) of an insert_counted request.
inline void decode_pairs(const frame& f, std::vector<uint64_t>& keys,
                         std::vector<uint64_t>& counts) {
  keys.resize(f.key_count);
  counts.resize(f.key_count);
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = get_u64(f.payload.data() + i * 16);
    counts[i] = get_u64(f.payload.data() + i * 16 + 8);
  }
}

/// Keys of a batch request, plus counts for insert_counted (the inverse
/// of batch_frame) — callers validate the shape first.
inline void decode_batch(const frame& f, std::vector<uint64_t>& keys,
                         std::vector<uint64_t>& counts) {
  if (f.op == opcode::insert_counted)
    decode_pairs(f, keys, counts);
  else
    keys = decode_keys(f);
}

/// Shard range [begin, end) of a MAINTAIN request: the 8-byte ranged form
/// a multi-reactor primary replicates, else every shard (maintain_range
/// clamps `end`) — callers validate the shape first.
struct shard_range {
  uint32_t begin = 0;
  uint32_t end = UINT32_MAX;
};
inline shard_range decode_maintain_range(const frame& f) {
  if (f.payload.size() != 8) return {};
  return {get_u32(f.payload.data()), get_u32(f.payload.data() + 4)};
}

inline pair_result decode_pair_response(const frame& f) {
  return {get_u64(f.payload.data()), get_u64(f.payload.data() + 8)};
}

/// Bitmap words of a query response (bit i answers keys[i]).
inline std::vector<uint64_t> decode_bitmap(const frame& f) {
  std::vector<uint64_t> words(f.payload.size() / 8);
  get_u64s(f.payload.data(), words.size(), words.data());
  return words;
}

/// Per-key multiplicities of a count response.
inline std::vector<uint64_t> decode_counts(const frame& f) {
  std::vector<uint64_t> counts(f.payload.size() / 8);
  get_u64s(f.payload.data(), counts.size(), counts.data());
  return counts;
}

inline maintain_reply decode_maintain_response(const frame& f) {
  return {get_u32(f.payload.data()), get_u32(f.payload.data() + 4),
          get_u32(f.payload.data() + 8)};
}

inline uint64_t decode_snapshot_response(const frame& f) {
  return get_u64(f.payload.data());
}

/// Payload as text (stats JSON, error messages).
inline std::string decode_text(const frame& f) {
  return std::string(f.payload.begin(), f.payload.end());
}

}  // namespace gf::net
