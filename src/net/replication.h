// Replica bootstrap + re-sync for the filter-store wire protocol.
//
// Topology: replicas *pull*.  A replica opens one ordinary protocol
// connection to its primary and sends SYNC; the primary answers with the
// whole store as chunked, CRC-framed snapshot chunks and — atomically with
// the snapshot, because the primary's event loop is its store's only
// writer — marks that same connection as a subscriber.  Every mutating
// batch the primary applies from then on is copied down the connection,
// stamped with the primary's replication sequence.  The snapshot's chunk 0
// names the sequence it captures, so the stream the replica then applies
// begins at exactly repl_seq + 1: no mutation can fall between bootstrap
// and live streaming, and any later discontinuity (a dropped or replayed
// frame after a reconnect) is detectable by sequence and surfaces in
// STATS.
//
// sync_from() performs the full bootstrap: connect, transfer, install.
// When a snapshot path is given the received bytes are first written to
// disk atomically (store_io.h's tmp + fsync + rename) and loaded from
// there — the replica's own durability cycle starts from its first byte.
//
// sync_resume() is the cheap path a replica takes after *losing* a feed it
// already had: it presents its last applied sequence and the primary
// either replays exactly the missed frames out of its replication log
// (net/repl_log.h: each lane's in-memory tail, else the WAL) — no snapshot
// moves, the store it already has stays — or, when the log cannot replay
// some lane's range whole, falls back to the same chunked snapshot
// bootstrap.  The caller learns which happened from resync_result::kind.
//
// Either way the returned feed (socket + decoder, which may already hold
// live frames) is handed to net::server::attach_feed, whose event loop
// applies the stream, acks each frame, and keeps serving reads if the
// primary dies.  The server's feed supervisor (server_config::feed_addr)
// drives sync_resume itself on loss, with jittered exponential backoff.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "net/frame.h"
#include "net/socket.h"
#include "store/store.h"

namespace gf::net {

/// Everything a bootstrap produces: the installed store, the stream
/// position its snapshot captures, and the subscribed connection with its
/// decoder state (live frames may already be buffered behind the chunks).
struct sync_result {
  store::filter_store store;
  uint64_t repl_seq = 0;       ///< stream position of the snapshot (multi-
                               ///< lane: the summed lane-local fingerprint)
  /// Lane-stamped stream position per replication lane (net/lane.h) the
  /// snapshot captures.  A single-lane primary announces no lane table, so
  /// this holds the one scalar repl_seq.
  std::vector<uint64_t> lane_seqs;
  uint64_t snapshot_bytes = 0; ///< assembled snapshot size
  uint64_t bootstrap_ns = 0;   ///< wall time of the whole bootstrap
                               ///< (connect + transfer + install) —
                               ///< surfaced in traces and CLI output
  socket_fd feed;              ///< subscribed connection to the primary
  frame_decoder dec;           ///< decoder carrying any early stream frames
};

/// Bootstrap from a primary: SYNC, assemble the chunked snapshot, install
/// it (atomically through `snapshot_path` when non-empty, else from
/// memory), and return the live feed.  Retries the initial connect
/// `connect_retries` times at 250 ms — "start primary & replica" scripts
/// should not race the primary's bind.  Every read of the transfer is
/// bounded by `timeout_ms` of silence (net::timeout_error past it); 0
/// waits forever.  `connector` substitutes how the outbound connection is
/// made (tests inject fault-armed sockets); null means tcp_connect.
/// Throws on any protocol or I/O failure.
sync_result sync_from(const std::string& host, uint16_t port,
                      const std::string& snapshot_path = "",
                      size_t max_frame_bytes = kDefaultMaxFrameBytes,
                      int connect_retries = 0, int timeout_ms = 30000,
                      const connect_fn& connector = nullptr);

/// How a lost replica caught back up.
enum class resync_kind : uint8_t {
  delta,     ///< primary replayed the missed frames from its log; the
             ///< store the replica already has is still the right one
  snapshot,  ///< the log could not replay every missed frame (or the
             ///< replica was ahead of a restarted primary): full
             ///< bootstrap, `store` is engaged
};

struct resync_result {
  resync_kind kind = resync_kind::delta;
  /// Engaged only for resync_kind::snapshot (filter_store has no default
  /// construction — a delta re-sync never builds one).
  std::optional<store::filter_store> store;
  uint64_t repl_seq = 0;     ///< snapshot: captured position; delta: the
                             ///< `upto` end of the promised replay range
                             ///< (multi-lane: summed lane-local positions)
  /// Lane-stamped position per lane: snapshot — what the snapshot
  /// captures; delta — each lane's promised `upto`.  One entry when the
  /// primary runs a single lane.
  std::vector<uint64_t> lane_seqs;
  uint64_t resume_from = 0;  ///< delta: position the replay resumes after
                             ///< (echoes the request's lane-0 last_seq)
  uint64_t snapshot_bytes = 0;
  uint64_t bootstrap_ns = 0;
  socket_fd feed;
  frame_decoder dec;
};

/// Re-sync after feed loss: present `last_seq` (the last stream sequence
/// this replica applied) and take whichever path the primary grants —
/// delta replay or snapshot fallback.  Parameters as sync_from; no
/// connect retries (the caller's reconnect supervisor owns backoff).
resync_result sync_resume(const std::string& host, uint16_t port,
                          uint64_t last_seq,
                          const std::string& snapshot_path = "",
                          size_t max_frame_bytes = kDefaultMaxFrameBytes,
                          int timeout_ms = 30000,
                          const connect_fn& connector = nullptr);

/// Lane-aware re-sync: one lane-stamped last-applied sequence per lane the
/// replica tracks.  The primary only grants a delta when its lane layout
/// matches and every lane is covered; otherwise the snapshot fallback
/// re-bootstraps (and may change the lane count — read lane_seqs).
resync_result sync_resume(const std::string& host, uint16_t port,
                          std::span<const uint64_t> lane_lasts,
                          const std::string& snapshot_path = "",
                          size_t max_frame_bytes = kDefaultMaxFrameBytes,
                          int timeout_ms = 30000,
                          const connect_fn& connector = nullptr);

/// Split a "host:port" spec (the --replica-of / --replicate-to argument
/// form); throws on a malformed spec or an out-of-range port.
std::pair<std::string, uint16_t> parse_host_port(const std::string& spec);

}  // namespace gf::net
