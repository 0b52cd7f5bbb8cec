// net::server — the sharded filter store as a TCP service.
//
// Wire path: N poll-driven reactor threads (server_config::reactors), one
// dispatch path at every count — `--reactors 1` is one reactor that owns
// every shard.  One acceptor (reactor 0) distributes inbound connections
// round-robin by handing the raw fd to the target reactor over its
// mailbox; each reactor then runs its own poll loop with per-connection
// frame decoders and write buffers.  Every reactor owns a disjoint
// contiguous slice of the store's shards: decoded batches are partitioned
// once at decode time by owning reactor (per key, via
// filter_store::shard_of — the client's shard_hint is advisory and never
// trusted for routing) and handed to owners over bounded SPSC mailboxes
// (net/mailbox.h); results fold back on the requesting reactor, which
// releases the one wire response.  A reactor that owns every shard skips
// the partition (its part is the whole batch, in request order) and reads
// through the thread pool, which no other reactor contends for.  Within
// each part the store's bulk machinery — filter_store::insert_bulk for key
// batches, filter_store::apply for op batches — keeps the paper's
// batch-amortization lesson (§4.2/§5.4) intact across the socket.
//
// (SO_REUSEPORT was considered for connection distribution and rejected:
// kernel hashing balances *connections*, not *shard ownership* — a frame
// would still land on the wrong reactor for most of its keys, so the
// explicit fd handoff plus decode-time partition is the design.)
//
// Pipelining: each reactor decodes and serves *every* complete frame
// buffered on a connection before returning to poll, and each response
// echoes its request's sequence id — a client may keep many frames in
// flight and match responses by sequence (net/client.h's pipelined API).
//
// Replication (net/replication.h): a connection that sends SYNC becomes a
// *subscriber* — it receives the snapshot (chunked frames) and, from that
// exact stream position on, a copy of every mutating batch the server
// applies.  The server advances one replication sequence *lane per
// reactor* (net/lane.h: lane id in the sequence's top byte); a multi-lane
// snapshot transfer is prefixed with a lane table naming every lane's
// position, subscribers receive all lanes on their one connection, and a
// replica tracks gaps and resume positions per lane.  A one-reactor server
// stamps lane 0 only, whose sequences are the plain integers 1, 2, 3, ...
// — cadence MAINTAIN frames included — so its stream, snapshots, resume
// responses and WAL are the pre-lane ones.  A server in replica mode
// (read_only + attach_feed) applies the stream coming down its *feed*
// connection (reactor 0 owns it and, once its own part of a frame is
// applied, forwards the frame downstream in arrival order), acks each
// frame, detects per-lane sequence gaps, refuses client mutations
// in-band, and keeps serving reads if the primary dies.  A multi-reactor
// server only follows a feed read-only.
//
// Control-plane frames (STATS / MAINTAIN / SNAPSHOT / SYNC), and the
// maintain cadence, execute on reactor 0 inside a stop-the-world barrier:
// inline when they arrive on reactor 0, posted to it otherwise.  Every
// other reactor parks at its loop top, reactor 0 drains all mailboxes,
// runs the operation against the quiesced store, and releases the
// barrier (with no other reactor, the barrier is a plain call).  This is
// what makes a metrics scrape, a snapshot, or a SYNC bootstrap observe one
// consistent cut of all lanes — including every frame pipelined ahead of
// it on the same connection.  The 1-reactor metrics exposition keeps the
// pre-lane schema: no lane="k" labels, no per-reactor gauge families.
//
// Hostile input: a structurally malformed frame (frame.h) or a payload
// that disagrees with its opcode's shape (codec.h) condemns the
// connection — it is closed immediately and counted in
// stats().protocol_errors; the server itself never crashes, over-reads,
// or over-allocates (declared lengths are capped before buffering).
//
// Threading contract: run() owns the reactor threads (it spawns reactors
// 1..N-1 and runs reactor 0 on the calling thread); the store must not be
// touched by other threads while run() is live.  attach_feed() must be
// called before run().  request_stop() is thread- AND async-signal-safe —
// it writes one byte to *every* reactor's wakeup pipe — so a SIGTERM
// handler can stop all loops and let the owner persist the store
// afterwards (examples/store_server.cpp).  stats() is readable from any
// thread.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "net/lane.h"
#include "net/socket.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "store/store.h"

namespace gf::persist {
class durability_engine;  // src/persist/durability.h
}

namespace gf::net {

class replay_ring;  // net/replay_ring.h

struct server_config {
  std::string bind_addr = "127.0.0.1";
  uint16_t port = 0;  ///< 0 = ephemeral; read the real one via port()
  /// SNAPSHOT persists the store here; empty disables the opcode.  A
  /// replica also routes its SYNC bootstrap through this path (written
  /// atomically — store/store_io.h).
  std::string snapshot_path;
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Backpressure cap per connection: once this many response bytes are
  /// queued unsent, the server stops *reading* that connection until the
  /// peer drains — so a client that pipelines requests but never reads
  /// responses stalls itself (TCP pushes back through the kernel buffers)
  /// instead of growing server memory without bound.
  size_t max_queued_response_bytes = size_t{1} << 22;  // 4 MiB
  /// Run store.maintain() after every N mutating op frames (0 disables):
  /// sustained skewed wire traffic grows hot-shard overflow cascades
  /// (store/shard.h) without any client having to send MAINTAIN.  The
  /// cadence counts per reactor; the pass runs on reactor 0 under the
  /// stop-the-world barrier (before the triggering batch when that batch
  /// arrived on reactor 0), so it is host-phased by construction, and is
  /// replicated as one frame per lane (ranged to the lane's shard slice
  /// unless the slice is the whole store).  On a replica the feed's
  /// forwarded MAINTAIN frames drive growth instead, keeping cascade
  /// shapes in lockstep with the primary (feed traffic never triggers the
  /// local cadence).
  uint32_t maintain_every = 64;
  int backlog = 64;
  /// Event capacity of the in-memory trace ring (obs/trace.h): frame
  /// lifecycle, maintenance passes, snapshot/sync activity.  Each reactor
  /// gets its own ring of this capacity; the ring overwrites its oldest
  /// events, so this bounds memory, not runtime.
  size_t trace_capacity = obs::trace_ring::kDefaultCapacity;

  // -- Multi-reactor wire path ----------------------------------------------

  /// Reactor (event loop) thread count; reactor k owns the contiguous
  /// shard slice [k*S/N, (k+1)*S/N) and replication lane k.  Clamped to
  /// kMaxLanes and to the store's shard count.  1 — the default — is one
  /// reactor owning every shard: it streams lane 0's plain sequences and
  /// keeps the pre-lane metrics exposition.
  uint32_t reactors = 1;

  // -- Replication ----------------------------------------------------------

  /// Refuse client mutations (INSERT / INSERT_COUNTED / ERASE / MAINTAIN
  /// answered with an in-band error; the connection survives).  QUERY,
  /// COUNT, STATS, PING, SNAPSHOT, and SYNC keep working — a replica is a
  /// read endpoint and a valid sync source for chained replication.
  bool read_only = false;
  /// Slice size of SYNC snapshot chunks (clamped to the frame cap).
  size_t sync_chunk_bytes = size_t{1} << 20;
  /// Cap on a subscriber's unsent forwarded bytes (grown to twice its
  /// bootstrap snapshot when that is larger).  A replica that cannot keep
  /// up is dropped — it detects the loss and can re-SYNC — instead of
  /// growing primary memory without bound.  Replication is asynchronous:
  /// the primary never waits for acks.
  size_t max_subscriber_queue_bytes = size_t{1} << 26;  // 64 MiB
  /// Replication invites sent once when run() starts ("host:port" each):
  /// the target — a standby replica (read_only, no feed) — is told to
  /// SYNC back from this server's address.  Best-effort: a dead target
  /// counts in stats().invites_failed and the server serves on.
  std::vector<std::string> invite;

  // -- Self-healing replication ---------------------------------------------

  /// Byte budget of the replay ring backing delta re-sync (replay_ring.h);
  /// split evenly across reactors (each lane's ring replays that lane's
  /// frames).  A reconnecting replica inside this window is caught up by
  /// replaying the frames it missed instead of moving a whole snapshot.
  /// 0 disables the ring — every re-sync is a snapshot bootstrap.
  size_t replay_ring_bytes = size_t{1} << 24;  // 16 MiB
  /// Primary this server follows ("host:port").  Empty = unsupervised (a
  /// feed handed to attach_feed is used until it dies, PR 5 behavior).
  /// Non-empty arms the feed supervisor: on loss (EOF, error, an idle
  /// timeout, or a stream gap the replica cannot bridge) the event loop
  /// retries with jittered exponential backoff and re-syncs by delta
  /// (sync_resume, lane-aware), falling back to snapshot only when the
  /// primary's rings have wrapped.
  std::string feed_addr;
  uint32_t reconnect_base_ms = 50;   ///< first backoff step
  uint32_t reconnect_max_ms = 5000;  ///< backoff ceiling
  /// Seed of the deterministic jitter sequence (0 derives one from the
  /// port) — tests pin it so fault schedules replay identically.
  uint64_t reconnect_jitter_seed = 0;
  /// Per-silence deadline of a re-sync transfer (net::timeout_error past
  /// it; the supervisor counts it as a failed attempt and backs off).
  int resync_timeout_ms = 30000;
  /// Condemn the feed after this long without a byte from the primary
  /// (0 disables).  Only meaningful with a supervisor to win the replica
  /// a fresh connection afterwards.
  uint32_t feed_idle_timeout_ms = 0;

  // -- Durability (src/persist/) --------------------------------------------

  /// Write-ahead log + checkpoint engine, already recover()ed or reset()
  /// by the owner (examples/store_server.cpp), which keeps ownership; the
  /// server only calls it from its loops.  When set, every applied
  /// mutating batch — auto-maintain's synthesized frames included — is
  /// appended at the same point it is fed to subscribers (each reactor
  /// appending its own lane's segment stream — wal-dir/lane-<k>/),
  /// reactor 0 checkpoints between frames when one is due (under the
  /// stop-the-world barrier), and a reconnecting replica whose resume
  /// position has wrapped out of a replay ring is served a delta read
  /// back from the WAL instead of a whole snapshot.  Null disables
  /// durability (PR 8 behavior).
  persist::durability_engine* durability = nullptr;

  // -- Ack-gated writes -----------------------------------------------------

  /// Hold each mutating client response until this many subscribers have
  /// acknowledged its stream sequence(s) — one per lane the batch touched
  /// (0 = fully async, never wait).  Bounded by ack_timeout_ms: past the
  /// deadline — or the moment fewer than this many subscribers are even
  /// attached — the response is released with wire_status::ok_async
  /// instead.  The mutation is applied either way; the gate only delays
  /// the *answer*, so a dead replica can degrade durability but never
  /// deadlock a client.
  uint32_t ack_replicas = 0;
  uint32_t ack_timeout_ms = 250;

  /// How the server makes outbound connections (re-sync, invites); null
  /// means tcp_connect.  Tests inject net::faulty_connector() so every
  /// reconnect attempt picks up its scripted fault plan.
  connect_fn connector;
};

/// Plain-value counters snapshot (readable while the loop runs).
struct server_stats {
  uint64_t connections_accepted = 0;
  uint64_t connections_closed = 0;
  uint64_t frames_served = 0;
  uint64_t keys_processed = 0;   ///< batch items across all op frames
  uint64_t protocol_errors = 0;  ///< malformed frames / truncated streams
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;

  // Replication, primary side.
  uint64_t repl_seq = 0;           ///< mutation-stream position (multi-lane:
                                   ///< summed lane-local positions)
  uint64_t subscribers = 0;        ///< live subscriber connections
  uint64_t frames_forwarded = 0;   ///< frames queued to subscribers
  uint64_t subscriber_drops = 0;   ///< subscribers dropped (too slow, or
                                   ///< cut on a store-replacing invite)
  uint64_t subscriber_acked = 0;   ///< lowest sequence every live
                                   ///< subscriber has acknowledged
  uint64_t subscriber_errors = 0;  ///< error-status acks: a replica
                                   ///< failed applying a forwarded frame
  uint64_t invites_failed = 0;

  // Replication, primary side: resume serving and ack gating.
  uint64_t deltas_served = 0;     ///< resume requests answered by replay
  uint64_t wal_deltas_served = 0; ///< of those, read back from the disk WAL
                                  ///< because the in-memory ring had wrapped
  uint64_t ack_waits = 0;         ///< responses that entered the ack gate
  uint64_t ack_degraded = 0;      ///< gates released as ok_async (deadline
                                  ///< hit, or too few subscribers attached)

  // Replication, replica side.
  uint64_t feed_attached = 0;  ///< 1 while the live stream is connected
  uint64_t feed_applied = 0;   ///< stream frames applied
  uint64_t feed_gaps = 0;      ///< sequence discontinuities observed
  uint64_t feed_last_seq = 0;  ///< last stream sequence applied
  uint64_t feed_lost = 0;      ///< times the feed connection died
  uint64_t feed_reconnects = 0;      ///< supervised re-attaches that worked
  uint64_t reconnect_failures = 0;   ///< attempts that failed (backed off)
  uint64_t resyncs_delta = 0;        ///< re-syncs satisfied by replay
  uint64_t resyncs_snapshot = 0;     ///< re-syncs that moved a snapshot
  uint64_t read_only_refusals = 0;
};

class server {
 public:
  /// Binds immediately (throws on failure); serving starts with run().
  server(server_config cfg, store::filter_store st);
  ~server();
  server(const server&) = delete;
  server& operator=(const server&) = delete;

  uint16_t port() const { return port_; }
  store::filter_store& store() { return store_; }
  const store::filter_store& store() const { return store_; }

  /// Join a primary's live mutation stream (replica mode).  `fd` is the
  /// connection net::sync_from() left subscribed, `dec` its decoder —
  /// which may already hold streamed frames; they are applied here —
  /// and `next_seq` the first expected stream sequence (the snapshot's
  /// repl_seq + 1).  Must be called before run().
  void attach_feed(socket_fd fd, frame_decoder dec, uint64_t next_seq);

  /// Lane-aware variant: one lane-stamped *last applied* sequence per
  /// replication lane (sync_result::lane_seqs — the snapshot's lane
  /// table); each lane's stream resumes at its entry + 1.  The scalar
  /// overload is the one-lane case.
  void attach_feed(socket_fd fd, frame_decoder dec,
                   std::span<const uint64_t> lane_lasts);

  /// Blocking: runs reactor 0 on the calling thread (spawning reactors
  /// 1..N-1); returns after request_stop().
  void run();

  /// Wake every reactor and make run() return.  Async-signal-safe.
  void request_stop();

  server_stats stats() const;

  /// Prometheus-style text exposition of every registered metric (what the
  /// STATS request with shard_hint = kStatsMetricsHint returns — which
  /// renders under the stop-the-world barrier so counters never tear).
  /// Reads live store state: call from the loop thread (the wire path
  /// does) or while run() is not live.
  std::string metrics_text() const { return registry_.render(); }

  /// Recent events as chrome://tracing JSON (the STATS request with
  /// shard_hint = kStatsTraceHint; examples/store_server.cpp's --trace-out
  /// writes it after run() returns).  Per-reactor rings merge into one
  /// export in timestamp order, tid = reactor id + 1.  Same threading
  /// contract as metrics_text().
  std::string trace_json() const;

 private:
  struct connection;
  struct sub_entry;
  struct reactor_msg;
  struct pending_resp;
  struct pending_ack;
  struct reactor;

  void reactor_loop(reactor& r);
  void accept_ready(reactor& r);
  void read_ready(reactor& r, connection& c);
  /// Decode-and-dispatch every buffered frame; false when the connection
  /// was condemned.
  bool drain_frames(reactor& r, connection& c);
  bool flush_writes(reactor& r, connection& c);  ///< false when peer gone
  /// Client frames: data ops go through route_batch, control ops (and
  /// the maintain cadence) through control().
  void handle_frame(reactor& r, connection& c, const frame& f);
  /// Close out one frame's timing: apply/encode stages, per-opcode
  /// latency, and its trace event.
  void record_frame(reactor& r, opcode op, uint32_t key_count,
                    uint64_t t_start, uint64_t t_applied);
  void serve_sync(reactor& r, connection& c, const frame& f);
  void serve_snapshot(reactor& r, connection& c, const frame& f);
  void serve_resume(reactor& r, connection& c, const frame& f);
  void handle_invite(reactor& r, connection& c, const frame& f);
  void feed_frame(reactor& r, connection& c, const frame& f);
  void subscriber_ack(reactor& r, connection& c, const frame& f);
  /// Stamp a just-applied mutation with the next stream sequence on
  /// reactor r's lane and fan it out.  Returns the stamped sequence.
  uint64_t replicate(reactor& r, const frame& f);
  /// Replica chain-forwarding: advance the feed frame's lane (its upstream
  /// stamp intact) and fan it out, in arrival order.
  void chain_forward(reactor& r, const frame& f);
  /// Encode `f` stamped with `seq` once, append it to the WAL, copy it to
  /// every subscriber, and keep it in `ring` (when non-null).
  void fan_out(reactor& r, const frame& f, uint64_t seq, replay_ring* ring);
  void forward_to_subs(reactor& r,
                       const std::shared_ptr<std::vector<uint8_t>>& bytes);
  void deliver_to_sub(sub_entry& s, const std::vector<uint8_t>& bytes);
  void register_subscriber(connection& c,
                           std::span<const uint64_t> acked_lanes,
                           size_t queued_bytes);
  void recompute_acked();
  /// Queue a mutating op's pair response — immediately, or parked behind
  /// the ack gate when cfg_.ack_replicas demands replica acknowledgment.
  /// `stream_seqs` holds one sequence per lane the batch landed on.
  void queue_mutation_response(reactor& r, connection& c, bool from_feed,
                               opcode op, uint64_t client_seq,
                               uint32_t key_count, uint64_t a, uint64_t b,
                               std::span<const uint64_t> stream_seqs);
  /// Release every gated response whose ack quorum arrived; degrade (with
  /// wire_status::ok_async) the ones past their deadline or short of
  /// attached subscribers.  `flush_deadline` forces degradation of
  /// everything still parked (shutdown).
  void service_acks(reactor& r, uint64_t now_ns, bool flush_deadline = false);
  /// Fire due timers: reconnect attempts, ack deadlines, feed idleness,
  /// checkpoints (reactor 0).
  void service_timers(reactor& r, uint64_t now_ns);
  /// Milliseconds until the nearest timer, -1 when none is armed.
  int poll_timeout_ms(const reactor& r, uint64_t now_ns) const;
  void schedule_reconnect(uint64_t now_ns);
  void try_resync_feed();
  uint64_t next_jitter();  ///< deterministic xorshift64 step
  void send_invites();
  /// Adopt a subscribed primary connection as this server's feed (reactor
  /// 0 owns it); one expected-next sequence per lane.
  void adopt_feed(socket_fd fd, frame_decoder dec,
                  std::vector<uint64_t> next_seqs);
  /// Swap in a store of a new lineage (bootstrap invite, snapshot
  /// re-sync) positioned at `lane_lasts`; caller holds the barrier.
  void replace_store(store::filter_store st,
                     std::span<const uint64_t> lane_lasts);
  void sweep_dead(reactor& r);
  void condemn(reactor& r, connection& c, const std::string& why);
  void append_out(connection& c, std::vector<uint8_t> bytes);
  /// (Re)build the metrics registry.  Called at construction and again
  /// whenever the store is replaced wholesale (a bootstrap invite), since
  /// histogram registrations point into the store's metrics bundle.
  void register_metrics();

  // -- Reactor machinery ----------------------------------------------------

  /// Give reactor k the contiguous shard slice [k*S/N, (k+1)*S/N) of the
  /// current store.
  void assign_shards();
  bool owns_every_shard(const reactor& r) const;
  /// Apply a data batch: partition it by owning reactor (unless r owns
  /// every shard), apply the local part inline, hand remote parts to their
  /// owners, and park the response until every part folded back.
  void route_batch(reactor& r, connection& c, const frame& f, bool from_feed,
                   uint64_t t_start);
  /// Execute one part on its owning reactor, filling the done reply.
  /// `whole` is the request frame when the part is all of it.
  void apply_work(reactor& r, const reactor_msg& w, reactor_msg& d,
                  const frame* whole = nullptr);
  void complete_part(reactor& r, uint64_t ticket, const reactor_msg& d);
  void finish_resp(reactor& r, pending_resp& p);
  /// Run a control op (c == nullptr: a cadence maintain) on reactor 0:
  /// inline when r is reactor 0, posted to it otherwise.
  void control(reactor& r, connection* c, const frame& f, uint64_t t_start);
  void exec_ctrl(reactor& r, connection* c, const frame& f, uint64_t t_start);
  /// Stop-the-world maintenance over every reactor's slice (within the
  /// request's range, if any), replicated per lane; responds on `c` when
  /// non-null.
  void maintain_all_slices(reactor& r, connection* c, const frame& f,
                           uint64_t t_start);
  std::string stats_json_text(uint64_t t_now) const;
  bool process_inboxes(reactor& r);
  void dispatch_msg(reactor& r, reactor_msg& m);
  void post(reactor& from, uint32_t to, reactor_msg&& m);
  void wake(uint32_t k);
  /// Park a non-zero reactor while a stop-the-world section runs.
  void park_for_stw();
  /// Run `fn` with every other reactor parked and all mailboxes drained
  /// (a plain call after the drain when already inside a barrier, when
  /// the reactor threads are not running, or with no other reactor).
  void stw(const std::function<void()>& fn);
  void drain_all_inboxes_quiesced();

  uint32_t active_lanes() const;
  /// Stream position: the summed lane-local positions (lane 0's plain
  /// sequence when one lane exists).
  uint64_t repl_position() const;
  /// Record a lane-stamped position as its lane's tip (and the local
  /// reactor's lane counter, for a lane this server owns).
  void advance_lane(uint64_t stamped);
  std::vector<uint64_t> current_lane_seqs() const;

  server_config cfg_;
  store::filter_store store_;
  socket_fd listen_;
  uint16_t port_ = 0;
  uint32_t nr_ = 1;  ///< reactor count (clamped)
  std::vector<std::unique_ptr<reactor>> reactors_;
  std::vector<uint32_t> shard_owner_;  ///< shard index → owning reactor
  uint32_t rr_next_ = 0;               ///< accept round-robin cursor
  std::vector<std::thread> threads_;   ///< reactors 1..N-1 while run() lives
  bool threads_live_ = false;          ///< reactor-0-thread flag

  // Stop & stop-the-world plumbing.
  std::atomic<bool> stop_requested_{false};
  int wake_fds_[kMaxLanes] = {};  ///< write-end fds (async-signal-safe stop)
  std::atomic<bool> stw_want_{false};
  std::mutex stw_mu_;
  std::condition_variable stw_cv_;
  uint32_t stw_parked_ = 0;  ///< guarded by stw_mu_
  uint32_t stw_exited_ = 0;  ///< guarded by stw_mu_
  bool in_stw_ = false;      ///< reactor-0-thread flag

  // Subscriber registry: shared across reactors so any lane's
  // replicate() can fan out.  The vector is guarded by subs_mu_; each
  // entry's ack state is atomic (written by the subscriber's owning
  // reactor, read by gating reactors).
  mutable std::mutex subs_mu_;
  std::vector<std::shared_ptr<sub_entry>> subs_;

  // Per-lane stream positions (lane-stamped).  Written by the lane's
  // owning reactor (or reactor 0 for feed lanes), read anywhere.
  std::array<std::atomic<uint64_t>, kMaxLanes> lane_seqs_{};
  std::atomic<uint32_t> lane_count_{1};
  /// Next expected feed sequence per lane (reactor-0 state).
  std::map<uint32_t, uint64_t> feed_expected_by_lane_;

  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> closed_{0};
  std::atomic<uint64_t> frames_{0};
  std::atomic<uint64_t> keys_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> bytes_in_{0};
  std::atomic<uint64_t> bytes_out_{0};

  std::atomic<uint64_t> subscribers_{0};
  std::atomic<uint64_t> frames_forwarded_{0};
  std::atomic<uint64_t> subscriber_drops_{0};
  std::atomic<uint64_t> subscriber_acked_{0};
  std::atomic<uint64_t> subscriber_errors_{0};
  std::atomic<uint64_t> invites_failed_{0};
  std::atomic<uint64_t> feed_attached_{0};
  std::atomic<uint64_t> feed_applied_{0};
  std::atomic<uint64_t> feed_gaps_{0};
  std::atomic<uint64_t> feed_last_seq_{0};
  std::atomic<uint64_t> feed_lost_{0};
  std::atomic<uint64_t> read_only_refusals_{0};
  std::atomic<uint64_t> deltas_served_{0};
  std::atomic<uint64_t> wal_deltas_served_{0};
  std::atomic<uint64_t> ack_waits_{0};
  std::atomic<uint64_t> ack_degraded_{0};
  std::atomic<uint64_t> feed_reconnects_{0};
  std::atomic<uint64_t> reconnect_failures_{0};
  std::atomic<uint64_t> resyncs_delta_{0};
  std::atomic<uint64_t> resyncs_snapshot_{0};
  bool ever_fed_ = false;  ///< a feed was attached at least once — i.e.
                           ///< this server's data has a real lineage
  bool invites_sent_ = false;

  // Feed supervision (reactor-0 state; only live when cfg_.feed_addr is
  // set).
  bool reconnect_pending_ = false;
  uint64_t reconnect_at_ns_ = 0;
  uint32_t reconnect_attempt_ = 0;
  uint64_t jitter_state_ = 0;
  uint64_t feed_last_rx_ns_ = 0;

  // -- Observability (src/obs/) ---------------------------------------------
  // Latency histograms and trace rings live per reactor (single-writer
  // each); the registry points at all of them.

  obs::metrics_registry registry_;
  uint64_t start_ns_ = 0;              ///< construction time (uptime)
  std::atomic<uint64_t> last_ack_ns_{0};  ///< newest ok subscriber ack
};

}  // namespace gf::net
