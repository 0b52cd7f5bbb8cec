// The wire frame: the unit of the filter store's network protocol.
//
// The paper's core lesson is that filters reach hardware speed only when
// operations arrive in large batches (§4.2, §5.4) — so the protocol's unit
// is the *batch*, not the key.  One frame carries one batched request (or
// its response): a few thousand keys amortize the per-frame syscall, codec,
// and dispatch cost exactly the way a bulk kernel launch amortizes its
// setup over a slab of items.
//
// Layout (all fields little-endian, explicitly serialized — the format is
// identical on any host):
//
//   offset  size  field
//   0       4     length       bytes that follow this field (24 + payload + 4)
//   4       4     magic        0x314E4647 "GFN1"
//   8       1     version      kWireVersion
//   9       1     opcode       net::opcode
//   10      1     status       0 in requests; net::wire_status in responses
//   11      1     reserved     must be 0
//   12      4     shard_hint   routing hint (kNoShardHint = none); carried
//                              for sharded front-ends, servers may ignore it
//   16      4     key_count    logical items in the payload (per-opcode unit)
//   20      8     sequence     request id, echoed verbatim in the response —
//                              this is what makes pipelining work: many
//                              frames in flight per connection, responses
//                              matched by sequence, order irrelevant
//   28      …     payload      length − 28 bytes
//   …       4     crc          CRC-32 (IEEE) over bytes [4, 28 + payload)
//
// The decoder is written for hostile input: declared lengths are bounded
// *before* any buffering decision, every field is validated before the
// payload is touched, and the CRC trailer catches corruption the structural
// checks cannot.  A malformed frame poisons the decoder — after a framing
// error the byte stream has no trustworthy resynchronization point, so the
// connection must be dropped (net/server.cpp does exactly that).
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace gf::net {

inline constexpr uint32_t kWireMagic = 0x314E4647u;  // "GFN1"
inline constexpr uint8_t kWireVersion = 1;

/// Request/response vocabulary — the store's op set plus control plane.
enum class opcode : uint8_t {
  insert = 0,          ///< key batch → (inserted, refused) occurrences
  insert_counted = 1,  ///< (key, count) pairs → (landed, refused) *pairs*
  query = 2,           ///< key batch → membership bitmap
  erase = 3,           ///< key batch → (erased, missing)
  count = 4,           ///< key batch → per-key multiplicities
  stats = 5,           ///< () → report_json(store)
  maintain = 6,        ///< () → (shards grown, max depth, total levels)
  snapshot = 7,        ///< () → bytes persisted to the server's snapshot path
  ping = 8,            ///< () → ()
  sync = 9,            ///< replica bootstrap: () → chunked snapshot frames,
                       ///< then the connection carries the live mutation
                       ///< stream (net/replication.h)
};
inline constexpr uint8_t kNumOpcodes = 10;

enum class wire_status : uint8_t {
  ok = 0,
  error = 1,        ///< server-side failure; payload is a message string
  unsupported = 2,  ///< operation not available (e.g. no snapshot path)
  ok_async = 3,     ///< mutation applied, but the ack-gate deadline expired
                    ///< before the configured replica count acknowledged it
                    ///< (net/server.h's ack_replicas) — the write degraded
                    ///< to ordinary async replication.  Payload is the
                    ///< normal ok-shaped response.
};
inline constexpr uint8_t kNumStatuses = 4;

inline constexpr uint32_t kNoShardHint = 0xFFFF'FFFFu;

/// shard_hint value that turns a SYNC *request* into a replication invite
/// (codec.h): "sync yourself from the sender" — the payload names the
/// sender's listening port, the peer address of the connection names its
/// host.  Ordinary SYNC requests and responses never use this value (a
/// response's shard_hint is a chunk index, bounded by the chunk count).
inline constexpr uint32_t kSyncInviteHint = 0xFFFF'FFFEu;

/// shard_hint values that select a STATS *variant*.  The default
/// (kNoShardHint) returns the report JSON, kStatsMetricsHint the
/// Prometheus-style text exposition, kStatsTraceHint the chrome://tracing
/// event dump (src/obs/).  Multiplexing on the hint keeps the opcode set
/// and wire version unchanged: a stats request's hint was never validated,
/// so old servers answer new clients with the JSON report and nothing
/// breaks.
inline constexpr uint32_t kStatsMetricsHint = 0xFFFF'FFFDu;
inline constexpr uint32_t kStatsTraceHint = 0xFFFF'FFFCu;

/// shard_hint value that turns a SYNC *request* into a delta re-sync: the
/// 8-byte payload names the replica's last applied stream sequence.  The
/// primary answers either with a kSyncDeltaHint frame followed by exactly
/// the missed mutation frames, replayed from its replication log
/// (net/repl_log.h) — the connection is a subscriber again, no snapshot
/// moved — or, when the log cannot replay every missed frame (or the
/// replica is ahead of this primary, e.g. after a crash-restart from an
/// older snapshot), with an ordinary chunked snapshot bootstrap.
inline constexpr uint32_t kSyncResumeHint = 0xFFFF'FFFBu;
/// shard_hint of the SYNC *response* frame accepting a delta re-sync; the
/// 16-byte payload is (u64 resume_from, u64 upto) — the sequence range the
/// replayed frames that follow will cover (empty when the replica was
/// already current).
inline constexpr uint32_t kSyncDeltaHint = 0xFFFF'FFFAu;
/// shard_hint of the SYNC *response* frame a multi-lane primary
/// (net/server.h `reactors > 1`, net/lane.h) sends immediately before
/// snapshot chunk 0: the payload is one lane-stamped u64 per replication
/// lane — the stream position of each lane at the snapshot cut.  A
/// single-lane primary never emits it, so the legacy handshake is
/// byte-identical; a resuming replica echoes the same table shape in its
/// kSyncResumeHint payload (L × 8 bytes, lane-stamped).
inline constexpr uint32_t kSyncLaneTableHint = 0xFFFF'FFF9u;

/// Fixed header bytes between the length field and the payload.
inline constexpr size_t kHeaderTailBytes = 24;
/// Total non-payload bytes per frame: length + header tail + CRC.
inline constexpr size_t kFrameOverhead = 4 + kHeaderTailBytes + 4;
/// Smallest legal value of the length field (empty payload).
inline constexpr uint32_t kMinFrameLength =
    static_cast<uint32_t>(kHeaderTailBytes + 4);

/// Ceiling on one frame's total wire size.  A declared length past this is
/// rejected before a single payload byte is buffered, so a hostile peer
/// cannot make the server allocate 4 GiB by sending 4 bytes.
inline constexpr size_t kDefaultMaxFrameBytes = size_t{1} << 24;  // 16 MiB

/// Largest key batch the codecs will put in one frame (8 bytes per key,
/// 16 per counted pair — both fit kDefaultMaxFrameBytes with room).
/// Bigger batches gain nothing: past ~4 Ki keys the per-frame overhead is
/// already amortized away (bench/net_throughput), and smaller frames keep
/// pipelines responsive.
inline constexpr size_t kMaxKeysPerFrame = size_t{1} << 19;

// -- Little-endian serialization (explicit, host-order independent) ----------

inline void put_u8(std::vector<uint8_t>& b, uint8_t v) { b.push_back(v); }
inline void put_u32(std::vector<uint8_t>& b, uint32_t v) {
  b.push_back(static_cast<uint8_t>(v));
  b.push_back(static_cast<uint8_t>(v >> 8));
  b.push_back(static_cast<uint8_t>(v >> 16));
  b.push_back(static_cast<uint8_t>(v >> 24));
}
inline void put_u64(std::vector<uint8_t>& b, uint64_t v) {
  put_u32(b, static_cast<uint32_t>(v));
  put_u32(b, static_cast<uint32_t>(v >> 32));
}
inline uint32_t get_u32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}
inline uint64_t get_u64(const uint8_t* p) {
  return static_cast<uint64_t>(get_u32(p)) |
         static_cast<uint64_t>(get_u32(p + 4)) << 32;
}

/// Bulk u64 (de)serialization — the per-key hot path of every batch frame.
/// On little-endian hosts the wire format *is* the in-memory format, so a
/// whole key array moves with one memcpy instead of eight shifts per key;
/// big-endian hosts take the portable loop.
inline void put_u64s(std::vector<uint8_t>& b, std::span<const uint64_t> v) {
  if (v.empty()) return;  // empty batch: v.data() may be null, memcpy UB
  if constexpr (std::endian::native == std::endian::little) {
    const size_t off = b.size();
    b.resize(off + v.size() * 8);
    std::memcpy(b.data() + off, v.data(), v.size() * 8);
  } else {
    b.reserve(b.size() + v.size() * 8);
    for (uint64_t x : v) put_u64(b, x);
  }
}
inline void get_u64s(const uint8_t* p, size_t n, uint64_t* out) {
  if (n == 0) return;  // empty batch: p may be null, memcpy UB
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, p, n * 8);
  } else {
    for (size_t i = 0; i < n; ++i) out[i] = get_u64(p + i * 8);
  }
}

// -- CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) -------------------------
//
// Slice-by-8: eight derived tables let the hot loop fold 8 payload bytes
// per step instead of 1.  The trailer covers multi-KiB batch payloads, so
// on the serial frame path (one event-loop thread, §5.3-style) CRC speed
// is wire throughput — the byte-at-a-time form costs several ns/key at
// 4 Ki-key frames, the sliced form well under one.

namespace detail {
constexpr std::array<std::array<uint32_t, 256>, 8> make_crc_tables() {
  std::array<std::array<uint32_t, 256>, 8> t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (int k = 1; k < 8; ++k)
    for (uint32_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
  return t;
}
inline constexpr std::array<std::array<uint32_t, 256>, 8> kCrcTables =
    make_crc_tables();
}  // namespace detail

inline uint32_t crc32(const uint8_t* data, size_t n) {
  const auto& t = detail::kCrcTables;
  uint32_t c = 0xFFFF'FFFFu;
  while (n >= 8) {
    const uint32_t lo = c ^ get_u32(data);
    const uint32_t hi = get_u32(data + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    data += 8;
    n -= 8;
  }
  while (n--) c = t[0][(c ^ *data++) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFF'FFFFu;
}

// -- Frame ------------------------------------------------------------------

struct frame {
  opcode op = opcode::ping;
  wire_status status = wire_status::ok;
  uint32_t shard_hint = kNoShardHint;
  uint32_t key_count = 0;
  uint64_t sequence = 0;
  std::vector<uint8_t> payload;
};

/// Append one encoded frame to `out` from explicit fields and a payload
/// view — the form re-encoders use (e.g. the replication forwarder, which
/// restamps only the sequence of a decoded frame) so the payload is never
/// copied into an intermediate frame object first.
inline void encode_frame(opcode op, wire_status status, uint32_t shard_hint,
                         uint32_t key_count, uint64_t sequence,
                         std::span<const uint8_t> payload,
                         std::vector<uint8_t>& out) {
  const uint32_t length =
      static_cast<uint32_t>(kHeaderTailBytes + payload.size() + 4);
  out.reserve(out.size() + 4 + length);
  put_u32(out, length);
  const size_t crc_from = out.size();
  put_u32(out, kWireMagic);
  put_u8(out, kWireVersion);
  put_u8(out, static_cast<uint8_t>(op));
  put_u8(out, static_cast<uint8_t>(status));
  put_u8(out, 0);  // reserved
  put_u32(out, shard_hint);
  put_u32(out, key_count);
  put_u64(out, sequence);
  out.insert(out.end(), payload.begin(), payload.end());
  put_u32(out, crc32(out.data() + crc_from,
                     kHeaderTailBytes + payload.size()));
}

/// Append one encoded frame to `out` (length prefix, header, payload, CRC).
inline void encode_frame(const frame& f, std::vector<uint8_t>& out) {
  encode_frame(f.op, f.status, f.shard_hint, f.key_count, f.sequence,
               f.payload, out);
}

inline std::vector<uint8_t> encode_frame(const frame& f) {
  std::vector<uint8_t> out;
  encode_frame(f, out);
  return out;
}

// -- Incremental decoder ----------------------------------------------------

enum class decode_status : uint8_t {
  need_more = 0,  ///< no complete frame buffered yet
  ok = 1,         ///< one frame decoded into `out`
  error = 2,      ///< stream is malformed; decoder is poisoned
};

/// Feed-bytes / pop-frames decoder over one connection's byte stream.
/// Every read is bounds-checked against the buffered size, a declared
/// length is validated against the frame cap before the decoder waits for
/// (i.e. buffers) the body, and the first malformed frame poisons the
/// stream permanently — callers drop the connection.
class frame_decoder {
 public:
  explicit frame_decoder(size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_(max_frame_bytes) {}

  void feed(const uint8_t* data, size_t n) {
    if (failed_) return;  // stream already condemned; don't grow the buffer
    buf_.insert(buf_.end(), data, data + n);
  }

  decode_status next(frame& out) {
    if (failed_) return decode_status::error;
    const size_t avail = buf_.size() - pos_;
    if (avail < 4) return decode_status::need_more;
    const uint8_t* p = buf_.data() + pos_;
    const uint32_t length = get_u32(p);
    if (length < kMinFrameLength)
      return fail("declared frame length below the fixed header");
    if (size_t{length} + 4 > max_frame_)
      return fail("declared frame length exceeds the frame cap");
    if (avail < size_t{length} + 4) return decode_status::need_more;

    const uint8_t* h = p + 4;
    const size_t body = size_t{length} - 4;  // header tail + payload
    if (get_u32(h) != kWireMagic) return fail("bad frame magic");
    if (h[4] != kWireVersion) return fail("unsupported wire version");
    if (h[5] >= kNumOpcodes) return fail("unknown opcode");
    if (h[6] >= kNumStatuses) return fail("unknown status");
    if (h[7] != 0) return fail("nonzero reserved byte");
    if (crc32(h, body) != get_u32(h + body)) return fail("frame CRC mismatch");

    out.op = static_cast<opcode>(h[5]);
    out.status = static_cast<wire_status>(h[6]);
    out.shard_hint = get_u32(h + 8);
    out.key_count = get_u32(h + 12);
    out.sequence = get_u64(h + 16);
    out.payload.assign(h + kHeaderTailBytes, h + body);
    pos_ += size_t{length} + 4;
    compact();
    return decode_status::ok;
  }

  bool poisoned() const { return failed_; }
  const std::string& error() const { return error_; }
  /// Bytes buffered but not yet consumed (a nonzero value at EOF means the
  /// peer hung up mid-frame — a truncated stream).
  size_t buffered() const { return buf_.size() - pos_; }

 private:
  decode_status fail(const char* msg) {
    failed_ = true;
    error_ = msg;
    return decode_status::error;
  }

  /// Reclaim consumed prefix once it dominates the buffer; amortized O(1)
  /// per byte, keeps a pipelined connection's buffer from growing without
  /// bound.
  void compact() {
    if (pos_ >= 4096 && pos_ * 2 >= buf_.size()) {
      buf_.erase(buf_.begin(),
                 buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
      pos_ = 0;
    }
  }

  size_t max_frame_;
  std::vector<uint8_t> buf_;
  size_t pos_ = 0;
  bool failed_ = false;
  std::string error_;
};

}  // namespace gf::net
