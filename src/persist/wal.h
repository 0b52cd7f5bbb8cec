// Write-ahead log primitives: segment files, manifest, torn-tail scan.
//
// A WAL segment is a 16-byte header followed by a raw concatenation of
// *wire frames* — the exact seq-stamped bytes net::server::replicate()
// already produces for subscribers and the replication log's memory tier
// (net/frame.h encoding, per-frame CRC-32 trailer).  Reusing the wire
// encoding buys three properties at once:
//   * recovery replay decodes with the same hostile-input frame_decoder
//     the socket path uses, CRC checks included;
//   * a torn tail (crash mid-append) is detected structurally — the
//     decoder reports an incomplete or corrupt trailing frame — and the
//     log is truncated at the last clean frame boundary, never fatal;
//   * a delta re-sync served *from disk* (the disk tier of net/repl_log.h)
//     is byte-identical with one served from the in-memory tail.
//
// Segments are named wal-<first_seq>.seg and rotate by size.  The
// manifest (MANIFEST, rewritten atomically via store::atomic_write_file)
// records {checkpoint file, the repl_seq it covers, live segments} so
// recovery never has to trust a directory listing: a stray or foreign
// file in the WAL directory is simply ignored.
//
// Layering: this header knows frames and files; which frames to keep,
// apply, or serve is the durability engine's job (persist/durability.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "net/frame.h"

namespace gf::persist {

/// When appended WAL bytes reach the platter.
enum class fsync_policy : uint8_t {
  every,     ///< fsync after every appended frame — an acked write is
             ///< durable before its response leaves the server
  interval,  ///< fsync at most once per fsync_interval_ms — bounded loss
             ///< window, near-`none` throughput
  none,      ///< never fsync on append — the OS decides; rotation, close,
             ///< and checkpoint still sync
};

/// Round-trippable names for --wal-fsync and the STATS durability section.
const char* fsync_policy_name(fsync_policy p);
/// Parses "every" / "interval" / "none"; throws std::runtime_error on
/// anything else (store_server surfaces it as a usage error).
fsync_policy parse_fsync_policy(const std::string& name);

struct wal_config {
  std::string dir;  ///< created on recover() if missing
  fsync_policy fsync = fsync_policy::every;
  uint32_t fsync_interval_ms = 50;          ///< fsync_policy::interval cadence
  size_t segment_bytes = size_t{1} << 26;   ///< rotation threshold (64 MiB)
  /// Auto-checkpoint after this many appended WAL bytes (0 = only explicit
  /// checkpoints).  Bounds both recovery replay time and disk held by
  /// segments, since a checkpoint truncates everything it covers.
  size_t checkpoint_every_bytes = size_t{1} << 28;  // 256 MiB
  /// Frame cap used when scanning segments back (matches the server's).
  size_t max_frame_bytes = net::kDefaultMaxFrameBytes;
};

// -- Segment files -----------------------------------------------------------

inline constexpr uint32_t kSegmentMagic = 0x4C415747u;  // "GWAL"
inline constexpr uint32_t kSegmentVersion = 1;
/// u32 magic, u32 version, u64 first_seq.
inline constexpr size_t kSegmentHeaderBytes = 16;

/// "wal-<first_seq, zero-padded>.seg" — zero-padding keeps lexicographic
/// and numeric order identical, so directory listings read in log order.
std::string segment_file_name(uint64_t first_seq);

/// One live segment as the manifest tracks it.  last_seq is the newest
/// frame the segment held when the manifest was last written; recovery
/// derives the true value by scanning, so a crash between append and
/// manifest rewrite only ever under-reports.
struct segment_info {
  uint64_t first_seq = 0;
  uint64_t last_seq = 0;
  std::string file;  ///< name within the WAL directory
};

/// Append-only writer over one segment file.  Raw-fd write(2) so appended
/// bytes are immediately visible to readers through the page cache —
/// fsync policy governs durability, never read visibility (serve_resume
/// streams the active segment while it is being written).
class segment_writer {
 public:
  segment_writer() = default;
  ~segment_writer();
  segment_writer(const segment_writer&) = delete;
  segment_writer& operator=(const segment_writer&) = delete;

  /// Create dir/file, write the header, fsync the directory so the name
  /// itself survives a crash.  Throws on I/O failure.
  void open(const std::string& dir, const std::string& file,
            uint64_t first_seq);
  void append(std::span<const uint8_t> bytes);  ///< throws on I/O failure
  void fsync_now();
  void close();  ///< fsync + close (no-op when not open)

  bool is_open() const { return fd_ >= 0; }
  size_t bytes() const { return bytes_; }  ///< including the header
  const std::string& file() const { return file_; }

 private:
  int fd_ = -1;
  size_t bytes_ = 0;
  std::string file_;
};

// -- Segment scan (recovery + disk-served deltas) ----------------------------

enum class scan_stop : uint8_t {
  clean,   ///< every byte decoded as complete frames
  torn,    ///< trailing partial frame (crash mid-append): truncate here
  corrupt, ///< CRC or structural failure inside the file: truncate here
  halted,  ///< the callback refused a frame (sequence gap): truncate here
};

struct scan_result {
  scan_stop stop = scan_stop::clean;
  uint64_t frames = 0;      ///< frames delivered to the callback
  size_t good_bytes = 0;    ///< offset just past the last accepted frame
  size_t file_bytes = 0;
  std::string error;        ///< decoder message when stop == corrupt
};

/// Decode dir/file front to back, handing each clean frame to `cb` in
/// order.  `cb` returning false stops the scan *before* that frame (its
/// bytes are not counted good).  Throws only when the segment header
/// itself is missing or foreign — a manifest that names such a file is
/// lying, which recovery treats as fatal; torn or corrupt frame data is
/// an expected crash artifact and comes back as a scan_result.
scan_result scan_segment(const std::string& dir, const std::string& file,
                         size_t max_frame_bytes,
                         const std::function<bool(net::frame&&)>& cb);

// -- Manifest ----------------------------------------------------------------

inline constexpr uint64_t kManifestMagic = 0x4746'574C'4D41'4E46ull;
/// v1: the single-lane layout every pre-lane directory holds.  v2 appends
/// per-lane segment lists for a multi-reactor primary's replication lanes
/// (net/lane.h); a directory only ever written with one lane stays v1
/// byte-for-byte.
inline constexpr uint32_t kManifestVersion = 1;
inline constexpr uint32_t kManifestVersionLanes = 2;
inline constexpr const char* kManifestFile = "MANIFEST";

/// One replication lane's slice of the log.  Lane 0's segments live in the
/// WAL directory root under the legacy names; lane k > 0 under
/// `lane-<k>/` (segment_info::file carries the relative path).
struct lane_manifest {
  /// Lane-stamped stream position the checkpoint covers for this lane —
  /// the lane's replay floor and prune threshold.
  uint64_t checkpoint_seq = 0;
  std::vector<segment_info> segments;  ///< sorted by first_seq
};

struct manifest {
  bool has_checkpoint = false;
  /// v1: the stream position the checkpoint covers.  v2: the checkpoint
  /// fingerprint — the sum of every lane's lane-local covered position
  /// (identical to v1's value when only lane 0 exists), cross-checked
  /// against the sequence stamped in the checkpoint's own header.
  uint64_t checkpoint_seq = 0;
  std::string checkpoint_file;    ///< name within the WAL directory
  /// Per-lane logs; lanes[0] is the legacy stream.  Empty only on a
  /// default-constructed manifest (no directory state yet).
  std::vector<lane_manifest> lanes;
};

bool manifest_exists(const std::string& dir);
manifest load_manifest(const std::string& dir);  ///< throws on malformed
/// Atomic rewrite (write tmp + fsync + rename, store::atomic_write_file):
/// the manifest is always either the old complete record or the new one.
void save_manifest(const std::string& dir, const manifest& m);

}  // namespace gf::persist
