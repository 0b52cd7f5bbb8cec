#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <exception>
#include <filesystem>
#include <iterator>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "gpu/thread_pool.h"
#include "net/codec.h"
#include "net/mailbox.h"
#include "net/mutation.h"
#include "net/replication.h"
#include "obs/build_info.h"
#include "obs/clock.h"
#include "persist/durability.h"
#include "store/report_json.h"
#include "store/store_io.h"
#include "util/json.h"

namespace gf::net {

namespace {
constexpr size_t kReadChunk = 64 * 1024;

/// Stable opcode names for metric labels and trace events.
const char* op_name(opcode op) {
  switch (op) {
    case opcode::insert: return "insert";
    case opcode::insert_counted: return "insert_counted";
    case opcode::query: return "query";
    case opcode::erase: return "erase";
    case opcode::count: return "count";
    case opcode::stats: return "stats";
    case opcode::maintain: return "maintain";
    case opcode::snapshot: return "snapshot";
    case opcode::ping: return "ping";
    case opcode::sync: return "sync";
  }
  return "unknown";
}

/// Numeric peer address of a connected socket (the host a sync invite's
/// recipient dials back).
std::string peer_ip(int fd) {
  sockaddr_in sa{};
  socklen_t len = sizeof(sa);
  if (::getpeername(fd, reinterpret_cast<sockaddr*>(&sa), &len) != 0)
    throw std::runtime_error("gf: getpeername failed");
  char buf[INET_ADDRSTRLEN] = {0};
  if (!::inet_ntop(AF_INET, &sa.sin_addr, buf, sizeof(buf)))
    throw std::runtime_error("gf: inet_ntop failed");
  return buf;
}

// -- Counter table ------------------------------------------------------------
// Each stored stat is named once, here: its exposition name and labels, its
// kind, and its STATS JSON section and key.  stats(), register_metrics()
// and stats_json() walk these rows.

/// A counter is monotone and a gauge instantaneous; a flag is a 0/1 gauge
/// that the STATS JSON prints as a boolean.
enum class stat_kind : uint8_t { counter, gauge, flag };
using enum stat_kind;

struct stat_row {
  uint64_t server_stats::* field;
  const char* metric;   ///< exposition name
  const char* labels;   ///< exposition labels, no braces
  stat_kind kind;
  const char* section;  ///< STATS JSON object
  const char* key;      ///< STATS JSON key
  /// Reads a value the server does not own (the process's thread pool);
  /// the row's live cell then stays unused.  Null for the server's cells.
  uint64_t (*source)() = nullptr;
};

using ss = server_stats;
/// In exposition order: counters and gauges render as two runs, each in
/// row order, with the derived families registered between rows.
constexpr stat_row kStatRows[] = {
    {&ss::frames_served, "gf_server_frames_total", "", counter, "server", "frames_served"},
    {&ss::keys_processed, "gf_server_keys_total", "", counter, "server", "keys_processed"},
    {&ss::protocol_errors, "gf_server_protocol_errors_total", "", counter, "server", "protocol_errors"},
    {&ss::bytes_in, "gf_server_bytes_total", R"(dir="in")", counter, "server", "bytes_in"},
    {&ss::bytes_out, "gf_server_bytes_total", R"(dir="out")", counter, "server", "bytes_out"},
    {&ss::connections_accepted, "gf_server_connections_total", R"(event="accepted")", counter, "server", "connections_accepted"},
    {&ss::connections_closed, "gf_server_connections_total", R"(event="closed")", counter, "server", "connections_closed"},
    {&ss::barriers, "gf_server_barriers_total", "", counter, "server", "barriers"},
    {&ss::pool_contended_launches, "gf_pool_contended_launches_total", "", counter, "server", "pool_contended_launches",
     [] { return gpu::thread_pool::instance().contended_launches(); }},
    {&ss::read_only_refusals, "gf_server_read_only_refusals_total", "", counter, "replication", "read_only_refusals"},
    {&ss::frames_forwarded, "gf_repl_frames_forwarded_total", "", counter, "replication", "frames_forwarded"},
    {&ss::subscriber_drops, "gf_repl_dropped_subscribers_total", "", counter, "replication", "subscriber_drops"},
    {&ss::subscriber_errors, "gf_repl_subscriber_errors_total", "", counter, "replication", "subscriber_errors"},
    {&ss::invites_failed, "gf_repl_invites_failed_total", "", counter, "replication", "invites_failed"},
    {&ss::feed_applied, "gf_repl_feed_applied_total", "", counter, "replication", "feed_applied"},
    {&ss::feed_gaps, "gf_repl_feed_gaps_total", "", counter, "replication", "feed_gaps"},
    {&ss::feed_lost, "gf_repl_feed_lost_total", "", counter, "replication", "feed_lost"},
    {&ss::feed_reconnects, "gf_repl_reconnects_total", "", counter, "replication", "feed_reconnects"},
    {&ss::reconnect_failures, "gf_repl_reconnect_failures_total", "", counter, "replication", "reconnect_failures"},
    {&ss::resyncs_delta, "gf_repl_resyncs_total", R"(kind="delta")", counter, "replication", "resyncs_delta"},
    {&ss::resyncs_snapshot, "gf_repl_resyncs_total", R"(kind="snapshot")", counter, "replication", "resyncs_snapshot"},
    {&ss::deltas_served, "gf_repl_deltas_served_total", "", counter, "replication", "deltas_served"},
    {&ss::ack_waits, "gf_repl_ack_waits_total", "", counter, "replication", "ack_waits"},
    {&ss::ack_degraded, "gf_repl_ack_degraded_total", "", counter, "replication", "ack_degraded"},
    {&ss::subscribers, "gf_repl_subscribers", "", gauge, "replication", "subscribers"},
    {&ss::subscriber_acked, "gf_repl_subscriber_acked", "", gauge, "replication", "subscriber_acked"},
    {&ss::feed_attached, "gf_repl_feed_attached", "", flag, "replication", "feed_attached"},
    {&ss::feed_last_seq, "gf_repl_feed_last_seq", "", gauge, "replication", "feed_last_seq"},
    {&ss::wal_deltas_served, "gf_repl_wal_deltas_served_total", "", counter, "replication", "wal_deltas_served"},
};

/// The row of stored field f.  Not a constant expression for a field
/// without one, so live<f>() does not compile.
constexpr size_t row_of(uint64_t server_stats::* f) {
  for (size_t i = 0; i < std::size(kStatRows); ++i)
    if (kStatRows[i].field == f) return i;
  throw std::logic_error("gf: server_stats field without a counter-table row");
}

static_assert(std::size(kStatRows) == kStoredServerStats,
              "every stored server_stats field needs a row");

/// persist::durability_stats, the same way: the exposition names and the
/// keys of the STATS JSON "durability" object.
struct durability_row {
  uint64_t persist::durability_stats::* field;
  const char* metric;
  stat_kind kind;
  const char* key;
};

using ds = persist::durability_stats;
constexpr durability_row kDurabilityRows[] = {
    {&ds::wal_bytes, "gf_wal_bytes_total", counter, "wal_bytes"},
    {&ds::wal_frames, "gf_wal_frames_total", counter, "wal_frames"},
    {&ds::wal_fsyncs, "gf_wal_fsyncs_total", counter, "wal_fsyncs"},
    {&ds::segments_rotated, "gf_wal_segments_rotated_total", counter, "segments_rotated"},
    {&ds::checkpoints, "gf_checkpoints_total", counter, "checkpoints"},
    {&ds::wal_segments, "gf_wal_segments", gauge, "wal_segments"},
    {&ds::last_seq, "gf_wal_last_seq", gauge, "wal_last_seq"},
    {&ds::checkpoint_seq, "gf_checkpoint_seq", gauge, "checkpoint_seq"},
    {&ds::checkpoint_bytes, "gf_checkpoint_bytes", gauge, "checkpoint_bytes"},
    {&ds::recovery_replayed_frames, "gf_recovery_replayed_frames", gauge, "recovery_replayed_frames"},
    {&ds::recovery_truncated_bytes, "gf_recovery_truncated_bytes", gauge, "recovery_truncated_bytes"},
    {&ds::recovery_gaps, "gf_recovery_gaps", gauge, "recovery_gaps"},
};
static_assert(std::size(kDurabilityRows) == sizeof(ds) / sizeof(uint64_t),
              "every durability_stats field needs a row");
}  // namespace

/// A stored stat's live cell.
struct server::stat_cell {
  std::atomic<uint64_t>& a;
  // relaxed: a cell is telemetry that orders no other memory — except
  // feed_applied and feed_last_seq, which the feed apply path publishes
  // with release on `a` itself.
  void add(uint64_t n = 1) const { a.fetch_add(n, std::memory_order_relaxed); }
  void sub(uint64_t n = 1) const { a.fetch_sub(n, std::memory_order_relaxed); }
  void set(uint64_t v) const { a.store(v, std::memory_order_relaxed); }
  uint64_t get() const { return a.load(std::memory_order_relaxed); }
};

template <uint64_t server_stats::* F>
server::stat_cell server::live() const {
  constexpr size_t row = row_of(F);
  return {live_[row]};
}

struct server::connection {
  /// What the frames on this connection mean:
  ///   client     — requests in, responses out (the default);
  ///   subscriber — a replica we feed: forwarded mutations out, acks in;
  ///   feed       — our primary: forwarded mutations in, acks out.
  enum class role : uint8_t { client, subscriber, feed };

  socket_fd fd;
  frame_decoder dec;
  std::vector<uint8_t> out;  ///< encoded responses awaiting the socket
  size_t out_pos = 0;
  bool dead = false;
  role kind = role::client;
  /// Subscriber queue cap: the configured cap, grown to cover the
  /// bootstrap snapshot burst (which is queued in one go).
  size_t queue_cap = 0;
  uint32_t owner = 0;     ///< reactor that polls this connection
  uint32_t inflight = 0;  ///< responses parked on in-flight batch parts or
                          ///< control frames — a dead connection is not
                          ///< erased (pointer-invalidating) until 0
  std::shared_ptr<sub_entry> sub;  ///< subscriber: lane-wise ack state

  connection(socket_fd f, size_t max_frame)
      : fd(std::move(f)), dec(max_frame) {}
};

/// Cross-reactor view of one subscriber: any lane's replicate() fans out
/// through these.  The vector holding them is guarded by subs_mu_; the ack
/// slots are atomics written by the subscriber's owning reactor (release)
/// and read by gating reactors (acquire).
struct server::sub_entry {
  connection* conn = nullptr;  ///< owned by reactors_[reactor_id]
  uint32_t reactor_id = 0;
  std::atomic<bool> alive{true};
  std::array<std::atomic<uint64_t>, kMaxLanes> acked{};
};

/// One mailbox message.  A single variant-ish struct (instead of a
/// std::variant) keeps the SPSC ring slots assignable and the dispatch a
/// flat switch.
struct server::reactor_msg {
  enum class kind : uint8_t { none, conn, work, done, fwd, ctrl };
  kind k = kind::none;
  int fd = -1;           ///< conn: raw accepted fd being handed off
  uint32_t origin = 0;   ///< reactor that sent this message
  uint64_t ticket = 0;   ///< work/done: pending_resp key on the origin
  opcode op = opcode::ping;
  bool from_feed = false;  ///< work: a feed frame (applied, not replicated)
  uint32_t begin = 0, end = 0, depth = 0;  ///< work/done: the part's shard
                                           ///< slice; done's deepest cascade
  /// work/done: the batch grouped by shard, shared by every part of it
  /// (null for MAINTAIN and for a part that is the whole batch).
  std::shared_ptr<const store::filter_store::grouped> batch;
  std::vector<uint64_t> vals;    ///< done: per-key counts (count)
  std::vector<uint8_t> hits;     ///< done: per-key membership (query)
  uint64_t a = 0, b = 0;         ///< done: (ok, failed) or (grown,
                                 ///< levels); ctrl: t_start
  uint64_t part_seq = 0;         ///< done: stream sequence this part landed on
  connection* conn = nullptr;    ///< ctrl: requesting connection (owner
                                 ///< holds it via inflight)
  frame fr;                      ///< ctrl: the control frame (owned payload)
  std::shared_ptr<sub_entry> sub;                 ///< fwd: target subscriber
  std::shared_ptr<std::vector<uint8_t>> bytes;    ///< fwd: encoded frame

  /// The part's run of one column of `batch`: the positions of shards
  /// [begin, end) (empty without a batch or for an absent column).
  std::span<const uint64_t> run(
      std::vector<uint64_t> store::filter_store::grouped::*column) const {
    if (batch == nullptr || ((*batch).*column).empty()) return {};
    const auto& o = batch->offsets;
    return std::span<const uint64_t>((*batch).*column)
        .subspan(o[begin], o[end] - o[begin]);
  }
};

/// A response waiting for its batch parts to fold back.
struct server::pending_resp {
  connection* conn = nullptr;
  opcode op = opcode::ping;
  uint64_t client_seq = 0;
  uint32_t key_count = 0;
  bool from_feed = false;
  uint32_t parts_left = 0;
  uint64_t a = 0, b = 0;            ///< (ok, failed) or (grown, levels)
  uint32_t depth = 0;               ///< maintain: deepest cascade
  std::vector<uint64_t> words;      ///< query bitmap / count values
  std::vector<uint64_t> part_seqs;  ///< one stream sequence per lane touched
  uint64_t t_start = 0;

  /// Fold one part's done reply in; its answers land at the batch
  /// positions of its run (in order when the part is the whole batch).
  void fold(const reactor_msg& d) {
    if (is_mutating(d.op) || d.op == opcode::maintain) {
      a += d.a;
      b += d.b;
      depth = std::max(depth, d.depth);
      if (d.part_seq != 0) part_seqs.push_back(d.part_seq);
      return;
    }
    const auto at = d.run(&store::filter_store::grouped::index);
    for (size_t j = 0; j < d.vals.size(); ++j)
      words[at.empty() ? j : at[j]] = d.vals[j];
    for (size_t j = 0; j < d.hits.size(); ++j) {
      const size_t i = at.empty() ? j : at[j];
      words[i >> 6] |= uint64_t{d.hits[j] != 0} << (i & 63);
    }
  }
};

/// A mutating response parked behind the ack gate.  `seqs` holds one
/// stream sequence per lane the batch landed on.
struct server::pending_ack {
  connection* conn;
  std::vector<uint64_t> seqs;
  uint64_t deadline_ns;
  opcode op;
  uint64_t client_seq;
  uint32_t key_count;
  uint64_t a, b;
};

/// Everything one event loop owns.  All fields are single-threaded state
/// of the owning reactor thread, except the inboxes (SPSC mailboxes, one
/// per producer reactor) and the wake pipe ends.  Reactor 0 may touch a
/// parked reactor's fields inside the stop-the-world barrier — the barrier
/// mutex orders those accesses.
struct server::reactor {
  uint32_t id = 0;
  uint32_t shard_begin = 0, shard_end = 0;  ///< owned store shard slice
                                            ///< (assign_shards)
  socket_fd wake_rd, wake_wr;
  std::vector<std::unique_ptr<connection>> conns;
  std::vector<pending_ack> pending_acks;
  std::unordered_map<uint64_t, pending_resp> pending;
  uint64_t next_ticket = 1;
  uint32_t parts_since_maintain = 0;  ///< maintain cadence (apply_work)
  uint64_t lane_local = 0;  ///< lane-local stream position
  obs::trace_ring trace;
  obs::latency_histogram op_hist[kNumOpcodes];
  obs::latency_histogram stage_decode_ns, stage_apply_ns, stage_encode_ns,
      stage_flush_ns;
  /// inboxes[p] carries messages from reactor p (SPSC each).
  std::vector<std::unique_ptr<mailbox<reactor_msg>>> inboxes;
  uint64_t handoffs = 0;  ///< connections adopted off the accept mailbox

  reactor(uint32_t id_in, size_t trace_cap, uint32_t nr)
      : id(id_in), trace(trace_cap) {
    inboxes.reserve(nr);
    for (uint32_t p = 0; p < nr; ++p)
      inboxes.push_back(std::make_unique<mailbox<reactor_msg>>());
  }
};

server::server(server_config cfg, store::filter_store st)
    : cfg_(std::move(cfg)),
      store_(std::move(st)),
      // Reactor count: what was asked for, bounded by the lane address
      // space and by the shard count (a reactor with no shard slice would
      // own no work and no lane semantics).
      nr_(std::max<uint32_t>(
          1, std::min({cfg_.reactors == 0 ? 1 : cfg_.reactors, kMaxLanes,
                       store_.num_shards()}))),
      log_(nr_, cfg_.replay_ring_bytes / nr_, cfg_.durability) {
  listen_ = tcp_listen(cfg_.bind_addr, cfg_.port, cfg_.backlog);
  set_nonblocking(listen_.get());
  port_ = local_port(listen_);
  jitter_state_ = cfg_.reconnect_jitter_seed != 0
                      ? cfg_.reconnect_jitter_seed
                      : 0x9E3779B97F4A7C15ull ^ (uint64_t{port_} << 17);

  // single-loop: a writable replica stamps its own mutations on the lanes
  // its feed also stamps; only one reactor (lane 0 continued from the
  // feed's position) keeps the two apart.  adopt_feed checks it again.
  if (nr_ > 1 && !cfg_.feed_addr.empty() && !cfg_.read_only)
    throw std::runtime_error(
        "gf: a multi-reactor server can only follow a feed read-only");

  for (uint32_t k = 0; k < nr_; ++k) {
    reactors_.push_back(
        std::make_unique<reactor>(k, cfg_.trace_capacity, nr_));
    int fds[2];
    if (::pipe(fds) != 0)
      throw std::runtime_error("gf: cannot create wakeup pipe");
    reactors_.back()->wake_rd = socket_fd(fds[0]);
    reactors_.back()->wake_wr = socket_fd(fds[1]);
    set_nonblocking(fds[0]);
    // Non-blocking write end too: wake() fires on every mailbox post, and
    // a full pipe already means a wakeup is pending.
    set_nonblocking(fds[1]);
    wake_fds_[k] = fds[1];
  }
  assign_shards();
  // relaxed: constructor runs before any reactor thread exists.
  for (uint32_t l = 0; l < kMaxLanes; ++l)
    lane_seqs_[l].store(lane_seq(l, 0), std::memory_order_relaxed);
  lane_count_.store(nr_, std::memory_order_relaxed);
  start_ns_ = obs::now_ns();

  if (cfg_.durability != nullptr) {
    // The WAL's recovered position IS this store's stream position: new
    // mutations continue the on-disk lineage instead of restarting at 0
    // (which would hand reconnecting replicas empty deltas against data
    // they have never seen).
    cfg_.durability->ensure_lanes(nr_);
    for (uint64_t stamped : cfg_.durability->last_seqs())
      advance_lane(stamped);
  }
  register_metrics();
}

void server::assign_shards() {
  // Contiguous shard ownership: reactor k owns [k*S/N, (k+1)*S/N).
  const uint32_t shards = store_.num_shards();
  for (uint32_t k = 0; k < nr_; ++k) {
    reactor& r = *reactors_[k];
    r.shard_begin = static_cast<uint32_t>((uint64_t{k} * shards) / nr_);
    r.shard_end = static_cast<uint32_t>((uint64_t{k + 1} * shards) / nr_);
  }
}

void server::register_metrics() {
  registry_ = obs::metrics_registry();
  auto add = [this](stat_kind kind, const char* name, const char* labels,
                    auto read) {
    if (kind == counter)
      registry_.add_counter(name, labels, std::move(read));
    else
      registry_.add_gauge(name, labels, std::move(read));
  };
  auto add_rows = [&](size_t from, size_t to) {
    for (size_t i = from; i < to; ++i) {
      const stat_row& row = kStatRows[i];
      if (row.source != nullptr)
        add(row.kind, row.metric, row.labels, row.source);
      else
        add(row.kind, row.metric, row.labels,
            [cell = stat_cell{live_[i]}] { return cell.get(); });
    }
  };

  // Build identity and uptime.
  registry_.add_gauge(
      "gf_build_info",
      std::string("version=\"") + obs::kVersion + "\",compiler=\"" +
          obs::metrics_registry::escape_label_value(obs::kCompiler) +
          "\",build=\"" + obs::kBuildType + "\"",
      [] { return 1; });
  registry_.add_gauge("gf_uptime_seconds", "", [this] {
    return static_cast<double>(obs::now_ns() - start_ns_) / 1e9;
  });

  // Wire plane, then the replication plane, with the derived families in
  // their places between the stored rows.
  constexpr size_t kReplRows = row_of(&server_stats::frames_forwarded);
  constexpr size_t kFeedRows = row_of(&server_stats::feed_attached);
  add_rows(0, kReplRows);
  registry_.add_counter("gf_trace_events_total", "", [this] {
    uint64_t n = 0;
    for (const auto& r : reactors_) n += r->trace.recorded();
    return n;
  });
  registry_.add_gauge("gf_repl_replay_ring_bytes", "",
                      [this] { return log_.bytes(); });
  registry_.add_gauge("gf_repl_replay_ring_frames", "",
                      [this] { return log_.frames(); });
  registry_.add_gauge("gf_repl_seq", "", [this] { return repl_position(); });
  add_rows(kReplRows, kFeedRows);
  // Lag: stream positions the slowest live subscriber still owes us.
  registry_.add_gauge("gf_repl_lag_frames", "", [this] {
    if (live<&server_stats::subscribers>().get() == 0) return uint64_t{0};
    const uint64_t seq = repl_position();
    const uint64_t acked = live<&server_stats::subscriber_acked>().get();
    return seq > acked ? seq - acked : 0;
  });
  // Ack age: seconds since any subscriber last acknowledged progress.
  registry_.add_gauge("gf_repl_ack_age_seconds", "", [this] {
    // relaxed: a scrape of a single-writer timestamp; staleness is fine.
    const uint64_t last = last_ack_ns_.load(std::memory_order_relaxed);
    if (live<&server_stats::subscribers>().get() == 0 || last == 0)
      return 0.0;
    return static_cast<double>(obs::now_ns() - last) / 1e9;
  });
  add_rows(kFeedRows, std::size(kStatRows));

  // Durability plane (src/persist/): registered only when a WAL is armed —
  // the engine's counters are loop-thread plain fields, and scrapes render
  // on the loop (metrics_text's threading contract).
  if (cfg_.durability != nullptr) {
    persist::durability_engine* d = cfg_.durability;
    for (const durability_row& row : kDurabilityRows)
      add(row.kind, row.metric, "",
          [d, f = row.field] { return d->stats().*f; });
    registry_.add_histogram("gf_wal_fsync_ns", "", d->fsync_hist());
    registry_.add_histogram("gf_checkpoint_duration_ns", "",
                            d->checkpoint_hist());
  }

  // Store aggregates (walk the shards at render time — a scrape does what
  // one STATS report does).
  auto sum_stats = [this](uint64_t util::op_stats::snapshot::* field) {
    uint64_t n = 0;
    for (uint32_t s = 0; s < store_.num_shards(); ++s)
      n += store_.shard_at(s).stats().*field;
    return n;
  };
  using snap = util::op_stats::snapshot;
  registry_.add_counter("gf_store_inserts_total", "",
                        [sum_stats] { return sum_stats(&snap::inserts); });
  registry_.add_counter("gf_store_insert_failures_total", "", [sum_stats] {
    return sum_stats(&snap::insert_failures);
  });
  registry_.add_counter("gf_store_queries_total", "",
                        [sum_stats] { return sum_stats(&snap::queries); });
  registry_.add_counter("gf_store_query_hits_total", "",
                        [sum_stats] { return sum_stats(&snap::query_hits); });
  registry_.add_counter("gf_store_erases_total", "",
                        [sum_stats] { return sum_stats(&snap::erases); });
  registry_.add_counter("gf_store_erase_failures_total", "", [sum_stats] {
    return sum_stats(&snap::erase_failures);
  });
  registry_.add_counter("gf_store_batches_drained_total", "", [sum_stats] {
    return sum_stats(&snap::batches_drained);
  });
  // relaxed: metrics scrape of a monotone gauge; staleness is acceptable.
  registry_.add_counter("gf_store_overflow_answered_total", "", [this] {
    return store_.metrics().overflow_answered.load(std::memory_order_relaxed);
  });
  registry_.add_gauge("gf_store_items", "", [this] { return store_.size(); });
  registry_.add_gauge("gf_store_provisioned_capacity", "",
                      [this] { return store_.provisioned_capacity(); });
  registry_.add_gauge("gf_store_memory_bytes", "",
                      [this] { return store_.memory_bytes(); });
  registry_.add_gauge("gf_store_load_factor", "",
                      [this] { return store_.load_factor(); });
  registry_.add_gauge("gf_store_shards", "",
                      [this] { return store_.num_shards(); });
  registry_.add_gauge("gf_store_cascade_max_depth", "", [this] {
    uint32_t depth = 0;
    for (uint32_t s = 0; s < store_.num_shards(); ++s)
      depth = std::max(depth, store_.shard_at(s).level_count());
    return depth;
  });

  // Structural GF_COUNT counters, scoped to this server's store.  Always
  // registered (stable schema); they stay 0 unless the build sets
  // GF_ENABLE_COUNTERS.
  // relaxed: metrics scrape of a monotone gauge; staleness is acceptable.
  auto gf_count = [this](std::atomic<uint64_t> util::op_counters::* field) {
    return (store_.metrics().gf_counters.*field)
        .load(std::memory_order_relaxed);
  };
  using opc = util::op_counters;
  registry_.add_counter("gf_filter_cache_lines_touched_total", "",
                        [gf_count] {
                          return gf_count(&opc::cache_lines_touched);
                        });
  registry_.add_counter("gf_filter_cas_attempts_total", "", [gf_count] {
    return gf_count(&opc::cas_attempts);
  });
  registry_.add_counter("gf_filter_cas_failures_total", "", [gf_count] {
    return gf_count(&opc::cas_failures);
  });
  registry_.add_counter("gf_filter_backing_inserts_total", "", [gf_count] {
    return gf_count(&opc::backing_inserts);
  });
  registry_.add_counter("gf_filter_shortcut_inserts_total", "", [gf_count] {
    return gf_count(&opc::shortcut_inserts);
  });
  registry_.add_counter("gf_filter_ballot_rounds_total", "", [gf_count] {
    return gf_count(&opc::ballot_rounds);
  });
  registry_.add_counter("gf_filter_slots_shifted_total", "", [gf_count] {
    return gf_count(&opc::slots_shifted);
  });

  // Latency histograms.  Per-opcode wire latency plus the four-stage
  // breakdown per reactor, then the store's bulk tier (pointers into the
  // store's metrics bundle — register_metrics() reruns when the store is
  // replaced).
  // single-loop: one reactor's exposition is the pre-lane schema — no
  // lane="k" labels and no per-reactor gauge families — which scrapers
  // and net_metrics_test key on; labels only name a choice among several.
  const bool per_reactor = nr_ > 1;
  for (uint32_t k = 0; k < nr_; ++k) {
    reactor* r = reactors_[k].get();
    const std::string lane_lbl =
        per_reactor ? ",lane=\"" + std::to_string(k) + "\"" : "";
    for (uint8_t i = 0; i < kNumOpcodes; ++i)
      registry_.add_histogram(
          "gf_wire_latency_ns",
          std::string("op=\"") + op_name(static_cast<opcode>(i)) + "\"" +
              lane_lbl,
          &r->op_hist[i]);
    registry_.add_histogram("gf_wire_stage_ns",
                            "stage=\"decode\"" + lane_lbl,
                            &r->stage_decode_ns);
    registry_.add_histogram("gf_wire_stage_ns", "stage=\"apply\"" + lane_lbl,
                            &r->stage_apply_ns);
    registry_.add_histogram("gf_wire_stage_ns",
                            "stage=\"encode\"" + lane_lbl,
                            &r->stage_encode_ns);
    registry_.add_histogram("gf_wire_stage_ns", "stage=\"flush\"" + lane_lbl,
                            &r->stage_flush_ns);
  }
  // Per-reactor health gauges (rendered under the stop-the-world barrier,
  // so the plain fields read consistently).
  if (per_reactor) {
    for (uint32_t k = 0; k < nr_; ++k) {
      reactor* r = reactors_[k].get();
      const std::string lbl = "reactor=\"" + std::to_string(k) + "\"";
      registry_.add_gauge("gf_reactor_connections", lbl,
                          [r] { return r->conns.size(); });
      registry_.add_gauge("gf_reactor_mailbox_depth", lbl, [r] {
        size_t n = 0;
        for (const auto& box : r->inboxes) n += box->depth();
        return n;
      });
      registry_.add_counter("gf_reactor_handoffs_total", lbl,
                            [r] { return r->handoffs; });
    }
  }
  registry_.add_histogram("gf_store_bulk_shard_ns", "path=\"insert\"",
                          &store_.metrics().bulk_insert_shard_ns);
  registry_.add_histogram("gf_store_bulk_shard_ns", "path=\"apply\"",
                          &store_.metrics().apply_shard_ns);
  registry_.add_histogram("gf_store_bulk_shard_ns", "path=\"drain\"",
                          &store_.metrics().drain_shard_ns);
  registry_.add_histogram("gf_store_maintain_ns", "",
                          &store_.metrics().maintain_ns);
}

server::~server() = default;

void server::request_stop() {
  // One byte on every reactor's self-pipe: the only stop mechanism that is
  // legal from a signal handler (write(2) is async-signal-safe; mutexes
  // and condvars are not).  A full pipe means a wakeup is already pending.
  stop_requested_.store(true, std::memory_order_release);
  const uint8_t b = 1;
  for (uint32_t k = 0; k < nr_; ++k)
    [[maybe_unused]] ssize_t rc = ::write(wake_fds_[k], &b, 1);
}

server_stats server::stats() const {
  server_stats s;
  // The position first: the feed path publishes its stats before it moves
  // the position, so a reader that sees a position sees them too.
  s.repl_seq = repl_position();
  // Acquire pairs with the feed apply path's release on feed_applied and
  // feed_last_seq; the other cells need no ordering and pay nothing extra.
  for (size_t i = 0; i < std::size(kStatRows); ++i)
    s.*kStatRows[i].field = kStatRows[i].source != nullptr
                                ? kStatRows[i].source()
                                : live_[i].load(std::memory_order_acquire);
  return s;
}

// -- Lane helpers -------------------------------------------------------------

uint32_t server::active_lanes() const {
  // relaxed: monotone high-water mark; a stale read is benign.
  return lane_count_.load(std::memory_order_relaxed);
}

uint64_t server::repl_position() const {
  const uint32_t lanes = active_lanes();
  uint64_t sum = 0;
  for (uint32_t l = 0; l < lanes; ++l)
    // acquire: pairs with the lane's release store — a reader that sees a
    // replica's position also sees the feed stats published before it.
    sum += lane_local(lane_seqs_[l].load(std::memory_order_acquire));
  return sum;
}

uint64_t server::last_before(uint32_t lane, uint64_t next) {
  // next - 1, except at a lane's very start, where "nothing applied" is
  // the lane-stamped zero.
  return lane_local(next) == 0 ? lane_seq(lane, 0) : next - 1;
}

void server::advance_lane(uint64_t stamped) {
  const uint32_t l = lane_of(stamped);
  if (l >= kMaxLanes) return;
  // release: pairs with acquire loads in gating reactors.
  lane_seqs_[l].store(stamped, std::memory_order_release);
  // relaxed: lane_count_ only grows, and only reactor 0 (or the pre-run
  // thread) advances lanes it does not own.
  if (l + 1 > lane_count_.load(std::memory_order_relaxed))
    lane_count_.store(l + 1, std::memory_order_relaxed);
  // A local lane continues from here when this reactor replicates next.
  if (l < nr_) reactors_[l]->lane_local = lane_local(stamped);
}

std::vector<uint64_t> server::current_lane_seqs() const {
  const uint32_t lanes = active_lanes();
  std::vector<uint64_t> out(lanes);
  for (uint32_t l = 0; l < lanes; ++l)
    // relaxed: single-writer-per-lane telemetry; readers need no ordering.
    out[l] = lane_seqs_[l].load(std::memory_order_relaxed);
  return out;
}

// -- Feed adoption ------------------------------------------------------------

void server::attach_feed(socket_fd fd, frame_decoder dec, uint64_t next_seq) {
  adopt_feed(std::move(fd), std::move(dec), {next_seq});
}

void server::attach_feed(socket_fd fd, frame_decoder dec,
                         std::span<const uint64_t> lane_lasts) {
  std::vector<uint64_t> next;
  next.reserve(lane_lasts.size());
  // Lane-stamped + 1 stays inside the lane (the local part is 56 bits).
  for (uint64_t last : lane_lasts) next.push_back(last + 1);
  adopt_feed(std::move(fd), std::move(dec), std::move(next));
}

void server::adopt_feed(socket_fd fd, frame_decoder dec,
                        std::vector<uint64_t> next_seqs) {
  // single-loop: a writable replica's own mutations and its feed's would
  // both stamp lanes 0..N-1; one reactor continues lane 0 from the feed's
  // position (publish_feed keeps it current).
  if (nr_ > 1 && !cfg_.read_only)
    throw std::runtime_error(
        "gf: a multi-reactor server can only follow a feed read-only");
  set_nonblocking(fd.get());
  set_nodelay(fd.get());
  set_io_timeouts(fd.get(), 0);  // handshake deadlines die with the handshake
  auto conn =
      std::make_unique<connection>(std::move(fd), cfg_.max_frame_bytes);
  conn->dec = std::move(dec);
  conn->kind = connection::role::feed;
  ever_fed_ = true;
  reconnect_pending_ = false;
  reconnect_attempt_ = 0;
  feed_last_rx_ns_ = obs::now_ns();
  feed_expected_by_lane_.clear();
  for (uint64_t next : next_seqs) {
    const uint32_t l = lane_of(next);
    if (l >= kMaxLanes) continue;
    feed_expected_by_lane_[l] = next;
    // Frames of the lost feed still in flight publish the lanes up to
    // these positions themselves when they finish.
    if (feed_unpublished_.empty()) advance_lane(last_before(l, next));
  }
  live<&server_stats::feed_attached>().set(1);
  reactor& r0 = *reactors_[0];
  r0.conns.push_back(std::move(conn));
  // The sync handshake's decoder may already hold live stream frames that
  // arrived behind the snapshot chunks — apply them now, don't wait for
  // the next socket read.
  connection& c = *r0.conns.back();
  if (drain_frames(r0, c)) {
    if (c.out_pos < c.out.size() && !flush_writes(r0, c)) c.dead = true;
  }
}

void server::send_invites() {
  for (const std::string& spec : cfg_.invite) {
    try {
      auto [host, port] = parse_host_port(spec);
      socket_fd s =
          cfg_.connector ? cfg_.connector(host, port) : tcp_connect(host, port);
      auto bytes = encode_sync_invite(/*seq=*/1, port_);
      if (!send_all(s.get(), bytes.data(), bytes.size()))
        throw std::runtime_error("gf: invite send failed");
      // Fire-and-forget: the standby replica dials back and SYNCs like
      // any other subscriber; nothing to wait for here.
    } catch (const std::exception&) {
      live<&server_stats::invites_failed>().add();
    }
  }
}

void server::sweep_dead(reactor& r) {
  bool any_dead = false;
  for (size_t i = r.conns.size(); i-- > 0;) {
    if (!r.conns[i]->dead) continue;
    // A dead connection with responses still parked on in-flight batch
    // parts or control messages keeps its carcass until they fold back —
    // erasing it now would dangle the pointers those messages carry.
    if (r.conns[i]->inflight > 0) continue;
    any_dead = true;
    switch (r.conns[i]->kind) {
      case connection::role::subscriber:
        live<&server_stats::subscribers>().sub();
        if (r.conns[i]->sub != nullptr) {
          r.conns[i]->sub->alive.store(false, std::memory_order_release);
          std::lock_guard<std::mutex> lk(subs_mu_);
          std::erase(subs_, r.conns[i]->sub);
        }
        break;
      case connection::role::feed:
        // The primary is gone.  Keep serving reads from the last applied
        // sequence — that is the whole point of a replica — and, when a
        // supervisor is configured, start dialing it back.
        live<&server_stats::feed_attached>().set(0);
        live<&server_stats::feed_lost>().add();
        if (!cfg_.feed_addr.empty() && !reconnect_pending_)
          schedule_reconnect(obs::now_ns());
        break;
      case connection::role::client:
        break;
    }
    // A gated response whose client died is moot — drop it before the
    // connection object (and the parked pointer into it) goes away.
    std::erase_if(r.pending_acks, [&](const pending_ack& p) {
      return p.conn == r.conns[i].get();
    });
    // The feed is this server's own outbound connection (adopt_feed);
    // only accepted ones count as closed.
    if (r.conns[i]->kind != connection::role::feed)
      live<&server_stats::connections_closed>().add();
    r.conns.erase(r.conns.begin() + static_cast<std::ptrdiff_t>(i));
  }
  if (!any_dead) return;
  recompute_acked();
  // A lost subscriber may leave the gate short of its quorum: degrade
  // promptly (clients should not sit out the full deadline for a replica
  // that is already gone).
  if (!r.pending_acks.empty()) service_acks(r, obs::now_ns());
}

// -- Event loops --------------------------------------------------------------

void server::run() {
  if (!invites_sent_) {
    invites_sent_ = true;
    send_invites();
  }
  {
    std::lock_guard<std::mutex> lk(stw_mu_);
    stw_parked_ = 0;
    stw_exited_ = 0;
  }
  // relaxed: reset before the reactor threads are spawned below.
  stw_want_.store(false, std::memory_order_relaxed);
  threads_live_ = true;
  for (uint32_t k = 1; k < nr_; ++k)
    threads_.emplace_back([this, k] { reactor_loop(*reactors_[k]); });
  reactor_loop(*reactors_[0]);
  // Reactor 0 is out (stop, or a poll error): everyone else goes too.
  stop_requested_.store(true, std::memory_order_release);
  for (uint32_t k = 1; k < nr_; ++k) wake(k);
  for (std::thread& t : threads_) t.join();
  threads_.clear();
  threads_live_ = false;
  // Fold every in-flight part back so no response is silently lost to the
  // shutdown — finish_resp queues them below for the final flush.
  drain_all_inboxes_quiesced();
  // Shutdown: every still-gated response is released as ok_async (its
  // mutation *was* applied) and best-effort flushed — a client must never
  // lose an answer to a rug-pulled gate.
  for (uint32_t k = 0; k < nr_; ++k) {
    reactor& r = *reactors_[k];
    service_acks(r, obs::now_ns(), /*flush_deadline=*/true);
    for (auto& c : r.conns)
      if (!c->dead && c->out_pos < c->out.size()) flush_writes(r, *c);
    r.pending_acks.clear();
    r.pending.clear();
    for (auto& c : r.conns) c->inflight = 0;
    sweep_dead(r);
    // Drain the wakeup pipe so a relaunched run() blocks again.
    uint8_t buf[64];
    while (::read(r.wake_rd.get(), buf, sizeof(buf)) > 0) {
    }
    r.conns.clear();
  }
  {
    std::lock_guard<std::mutex> lk(subs_mu_);
    for (auto& s : subs_) s->alive.store(false, std::memory_order_release);
    subs_.clear();
  }
  // relaxed: every loop thread has been joined; no concurrent readers.
  stop_requested_.store(false, std::memory_order_relaxed);
}

void server::reactor_loop(reactor& r) {
  std::vector<pollfd> pfds;
  for (;;) {
    if (r.id != 0) park_for_stw();
    // Sweep first so pre-run condemnations (a poisoned feed handed to
    // attach_feed) and last round's casualties never reach poll().
    sweep_dead(r);
    // Fire due timers — reconnect attempts, ack-gate deadlines, feed
    // idleness — then sweep again: a timer may have condemned the feed or
    // adopted a fresh one whose drained frames condemned it right back.
    service_timers(r, obs::now_ns());
    sweep_dead(r);
    if (process_inboxes(r)) {
      // Handed-off work queued responses on this reactor's connections:
      // push them toward the sockets now, not at the next POLLOUT round.
      for (auto& c : r.conns)
        if (!c->dead && c->out_pos < c->out.size() && !flush_writes(r, *c))
          c->dead = true;
      sweep_dead(r);
    }
    pfds.clear();
    pfds.push_back({r.wake_rd.get(), POLLIN, 0});
    if (r.id == 0) pfds.push_back({listen_.get(), POLLIN, 0});
    const size_t base = pfds.size();
    // Connections polled this round; accept_ready() may append more below,
    // and those have no pfds entry until the next round — the event scan
    // must stop at this snapshot, not at conns.size().
    const size_t polled = r.conns.size();
    for (const auto& c : r.conns) {
      const size_t queued = c->out.size() - c->out_pos;
      short events = 0;
      // Backpressure: a client past its response-queue cap is not read
      // until the peer drains what it already owes us.  Subscriber acks
      // and feed frames are always read — their flow control is the
      // drop-slow-subscriber cap and the primary's own pacing.
      if (c->kind != connection::role::client ||
          queued < cfg_.max_queued_response_bytes)
        events |= POLLIN;
      if (queued > 0) events |= POLLOUT;
      pfds.push_back({c->fd.get(), events, 0});
    }

    const int rc =
        ::poll(pfds.data(), pfds.size(), poll_timeout_ms(r, obs::now_ns()));
    if (rc < 0) {
      if (errno == EINTR) continue;  // signal: the handler pinged the pipe
      break;
    }
    if (rc == 0) continue;  // timer expiry: loop back to service_timers

    if (pfds[0].revents & POLLIN) {
      // Wakeups are ambiguous: a mailbox post, a stop-the-world request,
      // or request_stop().  Drain the pipe and let the loop top sort it
      // out.
      uint8_t buf[64];
      while (::read(r.wake_rd.get(), buf, sizeof(buf)) > 0) {
      }
      if (stop_requested_.load(std::memory_order_acquire)) break;
      continue;
    }

    if (r.id == 0 && (pfds[1].revents & POLLIN)) accept_ready(r);

    for (size_t i = 0; i < polled; ++i) {
      connection& c = *r.conns[i];
      const short re = pfds[i + base].revents;
      if (re & (POLLERR | POLLNVAL)) c.dead = true;
      if (!c.dead && (re & POLLOUT)) {
        if (!flush_writes(r, c)) c.dead = true;
      }
      if (!c.dead && (re & (POLLIN | POLLHUP))) read_ready(r, c);
    }
  }
  if (r.id != 0) {
    // Out of the loop for good: tell a blocked stw() not to wait for us.
    std::lock_guard<std::mutex> lk(stw_mu_);
    ++stw_exited_;
    stw_cv_.notify_all();
  }
}

// -- Stop-the-world barrier ---------------------------------------------------

void server::park_for_stw() {
  if (!stw_want_.load(std::memory_order_acquire)) return;
  std::unique_lock<std::mutex> lk(stw_mu_);
  ++stw_parked_;
  stw_cv_.notify_all();
  stw_cv_.wait(lk, [this] {
    return !stw_want_.load(std::memory_order_acquire);
  });
  --stw_parked_;
  stw_cv_.notify_all();
}

void server::stw(const std::function<void()>& fn) {
  live<&server_stats::barriers>().add();
  if (in_stw_ || !threads_live_) {
    // Already inside a barrier (a control op that triggers another quiesced
    // section), or the reactor threads are not running (pre-run attach_feed
    // drain, post-join shutdown): the world is as stopped as it gets, but
    // the ordering contract still demands drained mailboxes.
    drain_all_inboxes_quiesced();
    fn();
    return;
  }
  // With no other reactor the wait below is satisfied at once: the section
  // is a plain call after draining this reactor's own mailbox.
  std::unique_lock<std::mutex> lk(stw_mu_);
  stw_want_.store(true, std::memory_order_release);
  for (uint32_t k = 1; k < nr_; ++k) wake(k);
  stw_cv_.wait(lk, [this] {
    return stw_parked_ + stw_exited_ >= nr_ - 1;
  });
  // Every other reactor is parked (or gone).  Drain the mailboxes first:
  // work already handed off logically precedes this section (a MAINTAIN
  // must not reorder ahead of the inserts that triggered it).
  in_stw_ = true;
  // Release the barrier even when fn throws (a failed re-sync or WAL
  // write is caught further up; the other reactors must not stay parked).
  struct release {
    server& s;
    std::unique_lock<std::mutex>& lk;
    ~release() {
      s.in_stw_ = false;
      s.stw_want_.store(false, std::memory_order_release);
      s.stw_cv_.notify_all();
      s.stw_cv_.wait(lk, [this] { return s.stw_parked_ == 0; });
    }
  } guard{*this, lk};
  drain_all_inboxes_quiesced();
  fn();
}

void server::drain_all_inboxes_quiesced() {
  // Messages beget messages (a drained work part posts its done reply):
  // loop to quiescence.  Only runs when this thread is the sole consumer
  // of every inbox (the STW barrier or single-threaded shutdown).
  bool any = true;
  while (any) {
    any = false;
    for (auto& r : reactors_) any = process_inboxes(*r) || any;
  }
}

// -- Accept + mailbox plumbing ------------------------------------------------

void server::accept_ready(reactor& r) {
  for (;;) {
    int fd = ::accept(listen_.get(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;  // drained
      // Anything else — EMFILE/ENFILE above all — leaves the pending
      // connection in the backlog and the listener readable, so a bare
      // break would spin poll() at full CPU until an fd frees up.  Brief
      // pause instead; the backlog holds the peers meanwhile.
      ::poll(nullptr, 0, 50);
      break;
    }
    socket_fd s(fd);
    set_nonblocking(fd);
    set_nodelay(fd);
    live<&server_stats::connections_accepted>().add();
    const uint32_t target = rr_next_++ % nr_;
    if (target == r.id) {
      auto conn =
          std::make_unique<connection>(std::move(s), cfg_.max_frame_bytes);
      conn->owner = r.id;
      r.conns.push_back(std::move(conn));
    } else {
      reactor_msg m;
      m.k = reactor_msg::kind::conn;
      m.fd = s.release();  // the target reactor re-wraps and owns it
      m.origin = r.id;
      post(r, target, std::move(m));
    }
  }
}

void server::post(reactor& from, uint32_t to, reactor_msg&& m) {
  // lane: SPSC push — reactor `from` is the only producer into slot
  // [from.id] of reactor `to`'s inboxes; `to` is the only consumer.
  reactors_[to]->inboxes[from.id]->push(std::move(m));
  wake(to);
}

void server::wake(uint32_t k) {
  const uint8_t b = 1;
  // A full pipe already means a wakeup is pending.
  [[maybe_unused]] ssize_t rc = ::write(wake_fds_[k], &b, 1);
}

bool server::process_inboxes(reactor& r) {
  bool any = false;
  reactor_msg m;
  for (auto& box : r.inboxes) {
    // lane: SPSC pop — reactor `r` (or reactor 0 on its behalf while `r`
    // is parked under the STW barrier, ordered by stw_mu_) is the only
    // consumer of r's inboxes.
    while (box->try_pop(m)) {
      any = true;
      dispatch_msg(r, m);
    }
  }
  return any;
}

void server::dispatch_msg(reactor& r, reactor_msg& m) {
  switch (m.k) {
    case reactor_msg::kind::conn: {
      auto conn = std::make_unique<connection>(socket_fd(m.fd),
                                               cfg_.max_frame_bytes);
      conn->owner = r.id;
      r.conns.push_back(std::move(conn));
      ++r.handoffs;
      break;
    }
    case reactor_msg::kind::work: {
      reactor_msg d;
      d.k = reactor_msg::kind::done;
      d.origin = r.id;
      d.ticket = m.ticket;
      d.op = m.op;
      apply_work(r, m, d, m.run(&store::filter_store::grouped::keys),
                 m.run(&store::filter_store::grouped::counts));
      post(r, m.origin, std::move(d));
      break;
    }
    case reactor_msg::kind::done:
      complete_part(r, m.ticket, m);
      break;
    case reactor_msg::kind::fwd:
      if (m.sub != nullptr && m.sub->alive.load(std::memory_order_acquire) &&
          m.bytes != nullptr)
        deliver_to_sub(*m.sub, *m.bytes);
      break;
    case reactor_msg::kind::ctrl:
      exec_ctrl(r, *m.conn, m.fr, m.a);
      break;
    case reactor_msg::kind::none:
      break;
  }
}

// -- Socket I/O ---------------------------------------------------------------

bool server::drain_frames(reactor& r, connection& c) {
  frame f;
  for (;;) {
    const uint64_t t0 = obs::now_ns();
    decode_status st = c.dec.next(f);
    if (st == decode_status::need_more) return true;
    if (st == decode_status::error) {
      condemn(r, c, c.dec.error());
      return false;
    }
    r.stage_decode_ns.record(obs::now_ns() - t0);
    const char* shape = c.kind == connection::role::subscriber
                            ? validate_response(f)
                            : validate_request(f);
    if (shape != nullptr) {
      condemn(r, c, shape);
      return false;
    }
    try {
      switch (c.kind) {
        case connection::role::client:
          handle_frame(r, c, f);
          break;
        case connection::role::subscriber:
          // Frames coming *back* from a replica are acks: ordinary
          // responses echoing the forwarded stream sequence.
          subscriber_ack(r, c, f);
          break;
        case connection::role::feed:
          feed_frame(r, c, f);
          break;
      }
    } catch (const std::exception& e) {
      // Handler failures (a WAL write, allocation) are the server's fault,
      // not the stream's: answer with an error frame, keep the connection.
      append_out(c, encode_error_response(f.op, f.sequence,
                                          wire_status::error, e.what()));
    }
    if (c.dead) return false;
  }
}

void server::read_ready(reactor& r, connection& c) {
  uint8_t buf[kReadChunk];
  for (;;) {
    ssize_t n = sock_recv(c.fd.get(), buf, sizeof(buf));
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      c.dead = true;
      return;
    }
    if (n == 0) {
      // EOF with a partial frame buffered = the peer truncated a frame.
      if (c.dec.buffered() > 0 && !c.dec.poisoned())
        live<&server_stats::protocol_errors>().add();
      flush_writes(r, c);  // best-effort: a half-closed peer may still read
      c.dead = true;
      return;
    }
    live<&server_stats::bytes_in>().add(static_cast<uint64_t>(n));
    if (c.kind == connection::role::feed) feed_last_rx_ns_ = obs::now_ns();
    c.dec.feed(buf, static_cast<size_t>(n));

    // Serve every complete frame before the next poll round — this is the
    // server half of pipelining.
    if (!drain_frames(r, c)) return;
    // Over the response-queue cap: stop consuming this connection's
    // requests (what stays in the kernel buffer throttles the peer).
    if (c.kind == connection::role::client &&
        c.out.size() - c.out_pos >= cfg_.max_queued_response_bytes)
      break;
    if (static_cast<size_t>(n) < sizeof(buf)) break;  // drained the socket
  }
  if (c.out_pos < c.out.size() && !flush_writes(r, c)) c.dead = true;
}

bool server::flush_writes(reactor& r, connection& c) {
  if (c.out_pos >= c.out.size()) return true;  // nothing queued: no timing
  const uint64_t t0 = obs::now_ns();
  bool alive = true;
  while (c.out_pos < c.out.size()) {
    ssize_t w = sock_send(c.fd.get(), c.out.data() + c.out_pos,
                          c.out.size() - c.out_pos);
    if (w < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;  // poll out later
      alive = false;
      break;
    }
    live<&server_stats::bytes_out>().add(static_cast<uint64_t>(w));
    c.out_pos += static_cast<size_t>(w);
  }
  if (alive && c.out_pos >= c.out.size()) {
    c.out.clear();
    c.out_pos = 0;
  }
  r.stage_flush_ns.record(obs::now_ns() - t0);
  return alive;
}

void server::condemn(reactor& r, connection& c, const std::string& why) {
  (void)why;  // counted, not logged: a hostile peer can spam arbitrary bytes
  live<&server_stats::protocol_errors>().add();
  // Best-effort flush: frames served *before* the stream broke deserve
  // their responses (a pipelined client may have real answers queued
  // behind the first bad byte).  What the kernel buffer will not take is
  // forfeited with the connection.
  flush_writes(r, c);
  c.dead = true;
}

void server::append_out(connection& c, std::vector<uint8_t> bytes) {
  c.out.insert(c.out.end(), bytes.begin(), bytes.end());
}

// -- Replication --------------------------------------------------------------

uint64_t server::replicate(reactor& r, const frame& f) {
  // The stream sequence advances on *every* applied mutation, subscribers
  // or not — it is the store's mutation-log position, and a SYNC snapshot
  // must name it so a later replica knows where its stream begins.  Each
  // reactor advances its own lane; lane 0's sequences are the plain
  // integers 1, 2, 3, ...
  const uint64_t seq = lane_seq(r.id, ++r.lane_local);
  // release: pairs with acquire loads in gating reactors reading this
  // lane's position.
  lane_seqs_[r.id].store(seq, std::memory_order_release);
  fan_out(r, f, seq);
  return seq;
}

void server::fan_out(reactor& r, const frame& f, uint64_t seq) {
  if (live<&server_stats::subscribers>().get() == 0 && !log_.keeps(seq))
    return;
  // Re-encode straight from the decoded frame's fields with the stream
  // sequence stamped in — the payload (multi-MiB for big batches) is
  // written once into the wire bytes, never copied into a temporary.
  auto bytes = std::make_shared<std::vector<uint8_t>>();
  encode_frame(f.op, wire_status::ok, f.shard_hint, f.key_count, seq,
               f.payload, *bytes);
  // The log gets the exact stamped bytes the subscriber feed carries, so
  // a delta replay is byte-identical to having never disconnected — and
  // gets them *after* the store applied the batch but *before* the
  // client's response can flush: the mutation is in the WAL — fsync
  // policy permitting — by the time anyone is told it happened.  Each lane
  // has one appender (its reactor, or reactor 0 for feed lanes);
  // checkpoints run separately under the stop-the-world barrier
  // (service_timers on reactor 0).
  log_.append(seq, bytes);
  forward_to_subs(r, bytes);
}

void server::forward_to_subs(
    reactor& r, const std::shared_ptr<std::vector<uint8_t>>& bytes) {
  std::vector<std::shared_ptr<sub_entry>> subs;
  {
    std::lock_guard<std::mutex> lk(subs_mu_);
    subs = subs_;
  }
  for (auto& s : subs) {
    if (!s->alive.load(std::memory_order_acquire)) continue;
    live<&server_stats::frames_forwarded>().add();
    if (s->reactor_id == r.id) {
      deliver_to_sub(*s, *bytes);
    } else {
      reactor_msg m;
      m.k = reactor_msg::kind::fwd;
      m.origin = r.id;
      m.sub = s;
      m.bytes = bytes;
      post(r, s->reactor_id, std::move(m));
    }
  }
}

void server::deliver_to_sub(sub_entry& s, const std::vector<uint8_t>& bytes) {
  connection* c = s.conn;
  if (c == nullptr || c->dead) return;
  c->out.insert(c->out.end(), bytes.begin(), bytes.end());
  // A subscriber that cannot drain its stream is cut loose: async
  // replication must never let one slow replica grow this process without
  // bound.  The replica sees the EOF, counts a lost feed, and — with a
  // supervisor — comes back with a resume request that the log answers.
  if (c->out.size() - c->out_pos > c->queue_cap) {
    live<&server_stats::subscriber_drops>().add();
    c->dead = true;
    s.alive.store(false, std::memory_order_release);
  }
}

void server::register_subscriber(connection& c,
                                 std::span<const uint64_t> acked_lanes,
                                 size_t queued_bytes) {
  c.kind = connection::role::subscriber;
  c.queue_cap = std::max(cfg_.max_subscriber_queue_bytes, 2 * queued_bytes);
  auto entry = std::make_shared<sub_entry>();
  entry->conn = &c;
  entry->reactor_id = c.owner;
  for (uint64_t v : acked_lanes) {
    const uint32_t l = lane_of(v);
    if (l < kMaxLanes)
      // relaxed: entry not yet published to subs_; no concurrent reader.
      entry->acked[l].store(v, std::memory_order_relaxed);
  }
  c.sub = entry;
  {
    std::lock_guard<std::mutex> lk(subs_mu_);
    subs_.push_back(std::move(entry));
  }
  live<&server_stats::subscribers>().add();
  recompute_acked();
}

void server::subscriber_ack(reactor& r, connection& c, const frame& f) {
  if (f.status != wire_status::ok) {
    // The replica failed *applying* a forwarded frame (its handler threw):
    // its store may have diverged.  Count it and hold the ack watermark —
    // STATS must not report a diverged replica as caught up.
    live<&server_stats::subscriber_errors>().add();
    return;
  }
  const uint64_t now = obs::now_ns();
  // relaxed: single-writer (event loop) telemetry; readers need no ordering.
  last_ack_ns_.store(now, std::memory_order_relaxed);
  // Lane-wise ack: the echoed sequence names its lane in the top byte.
  const uint32_t l = lane_of(f.sequence);
  if (c.sub == nullptr || l >= kMaxLanes) return;
  std::atomic<uint64_t>& slot = c.sub->acked[l];
  // relaxed: owning reactor is the only writer of this ack slot.
  if (f.sequence > slot.load(std::memory_order_relaxed)) {
    // release: pairs with acquire loads in gating reactors' service_acks.
    slot.store(f.sequence, std::memory_order_release);
    recompute_acked();
    // Fresh progress may satisfy gated responses — release them now, not
    // at the next poll wakeup.
    if (!r.pending_acks.empty()) service_acks(r, now);
  }
}

void server::recompute_acked() {
  // The watermark is the slowest subscriber's summed lane-local positions
  // (comparable with repl_position(); one lane's is its plain sequence).
  const uint32_t lanes = active_lanes();
  uint64_t min_sum = 0;
  bool first = true;
  std::lock_guard<std::mutex> lk(subs_mu_);
  for (const auto& s : subs_) {
    if (!s->alive.load(std::memory_order_acquire)) continue;
    uint64_t sum = 0;
    for (uint32_t l = 0; l < lanes; ++l)
      sum += lane_local(s->acked[l].load(std::memory_order_acquire));
    if (first || sum < min_sum) min_sum = sum;
    first = false;
  }
  live<&server_stats::subscriber_acked>().set(first ? 0 : min_sum);
}

// -- Ack-gated writes ---------------------------------------------------------

void server::queue_mutation_response(reactor& r, connection& c,
                                     bool from_feed, opcode op,
                                     uint64_t client_seq, uint32_t key_count,
                                     uint64_t a, uint64_t b,
                                     std::span<const uint64_t> stream_seqs) {
  // Feed acks are never gated (the primary upstream is not waiting on our
  // replicas), and with the gate off this is the ordinary async path.
  if (from_feed || cfg_.ack_replicas == 0) {
    append_out(c, encode_pair_response(op, client_seq, key_count, a, b));
    return;
  }
  if (stream_seqs.empty()) {
    // An empty batch landed on no lane: nothing for a replica to ack.
    append_out(c, encode_pair_response(op, client_seq, key_count, a, b));
    return;
  }
  live<&server_stats::ack_waits>().add();
  // Gate sizing only: a stale count degrades, never hangs.
  if (live<&server_stats::subscribers>().get() < cfg_.ack_replicas) {
    // Not enough replicas even attached: degrade immediately rather than
    // making the client sit out a deadline that cannot be met.
    live<&server_stats::ack_degraded>().add();
    append_out(c, encode_pair_response(op, client_seq, key_count, a, b,
                                       wire_status::ok_async));
    return;
  }
  r.pending_acks.push_back(
      {&c, std::vector<uint64_t>(stream_seqs.begin(), stream_seqs.end()),
       obs::now_ns() + uint64_t{cfg_.ack_timeout_ms} * 1'000'000ull, op,
       client_seq, key_count, a, b});
}

void server::service_acks(reactor& r, uint64_t now_ns, bool flush_deadline) {
  if (r.pending_acks.empty()) return;
  // Gate sizing only: a stale count degrades, never hangs.
  const uint64_t attached = live<&server_stats::subscribers>().get();
  std::vector<std::shared_ptr<sub_entry>> subs;
  {
    std::lock_guard<std::mutex> lk(subs_mu_);
    subs = subs_;
  }
  std::erase_if(r.pending_acks, [&](const pending_ack& p) {
    uint64_t acked = 0;
    for (const auto& s : subs) {
      if (!s->alive.load(std::memory_order_acquire)) continue;
      bool all = true;
      for (uint64_t q : p.seqs) {
        const uint32_t l = lane_of(q);
        // acquire: pairs with the owning reactor's release ack store.
        if (l >= kMaxLanes ||
            s->acked[l].load(std::memory_order_acquire) < q) {
          all = false;
          break;
        }
      }
      if (all) ++acked;
    }
    if (acked >= cfg_.ack_replicas) {
      append_out(*p.conn, encode_pair_response(p.op, p.client_seq,
                                               p.key_count, p.a, p.b));
      return true;
    }
    if (flush_deadline || now_ns >= p.deadline_ns ||
        attached < cfg_.ack_replicas) {
      // Deadline, shutdown, or the quorum became unreachable: the write
      // is applied and replicating asynchronously — say so in-band and
      // move on.  Never a hang.
      live<&server_stats::ack_degraded>().add();
      append_out(*p.conn, encode_pair_response(p.op, p.client_seq,
                                               p.key_count, p.a, p.b,
                                               wire_status::ok_async));
      return true;
    }
    return false;
  });
}

// -- Feed supervision ---------------------------------------------------------

uint64_t server::next_jitter() {
  // xorshift64: tiny, seedable, and good enough to de-synchronize a fleet
  // of replicas hammering a rebooted primary.
  uint64_t x = jitter_state_;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  jitter_state_ = x;
  return x;
}

void server::schedule_reconnect(uint64_t now_ns) {
  reconnect_pending_ = true;
  const uint32_t shift = std::min(reconnect_attempt_, 16u);
  uint64_t base = uint64_t{cfg_.reconnect_base_ms} << shift;
  base = std::min<uint64_t>(base, cfg_.reconnect_max_ms);
  if (base == 0) base = 1;
  // Full jitter over [base/2, base): exponential spacing without a
  // thundering herd when many replicas lost the same primary.
  const uint64_t delay_ms = base / 2 + next_jitter() % (base - base / 2);
  reconnect_at_ns_ = now_ns + delay_ms * 1'000'000ull;
  ++reconnect_attempt_;
  reactors_[0]->trace.add("repl", "reconnect_scheduled", now_ns, 0,
                          "delay_ms", delay_ms);
}

void server::try_resync_feed() {
  reconnect_pending_ = false;
  const uint64_t t0 = obs::now_ns();
  try {
    auto [host, port] = parse_host_port(cfg_.feed_addr);
    // One lane-stamped last-routed position per lane this replica has
    // seen — a routed frame's parts still in flight will apply, so it must
    // not be replayed; a replica of a single-lane primary presents the one
    // scalar (the request bytes are then identical to the pre-lane
    // protocol).
    std::vector<uint64_t> lasts;
    if (feed_expected_by_lane_.empty()) {
      lasts = current_lane_seqs();
    } else {
      for (const auto& [l, next] : feed_expected_by_lane_)
        lasts.push_back(last_before(l, next));
    }
    // Blocking re-sync on the loop thread, bounded by resync_timeout_ms
    // per silent read: a replica that is catching up is allowed to pause
    // its (read-only) service — its data is stale until this finishes
    // anyway.
    resync_result rr =
        sync_resume(host, port, std::span<const uint64_t>(lasts),
                    cfg_.snapshot_path, cfg_.max_frame_bytes,
                    cfg_.resync_timeout_ms, cfg_.connector);
    if (rr.kind == resync_kind::snapshot) {
      live<&server_stats::resyncs_snapshot>().add();
      // barrier: the swap replaces every shard and resets every lane.
      stw([&] { replace_store(std::move(*rr.store), rr.lane_seqs); });
      attach_feed(std::move(rr.feed), std::move(rr.dec),
                  std::span<const uint64_t>(rr.lane_seqs));
    } else {
      live<&server_stats::resyncs_delta>().add();
      // The store we have is still the right one; the replayed frames
      // arrive on the adopted connection exactly like live stream
      // traffic, starting at each lane's last + 1.
      attach_feed(std::move(rr.feed), std::move(rr.dec),
                  std::span<const uint64_t>(lasts));
    }
    live<&server_stats::feed_reconnects>().add();
    reactors_[0]->trace.add("repl", "resync", t0, obs::now_ns() - t0, "kind",
                            rr.kind == resync_kind::delta ? 0 : 1);
  } catch (const std::exception&) {
    live<&server_stats::reconnect_failures>().add();
    schedule_reconnect(obs::now_ns());
  }
}

void server::replace_store(store::filter_store st,
                           std::span<const uint64_t> lane_lasts) {
  store_ = std::move(st);
  assign_shards();
  // The registry's histogram entries point into the replaced store's
  // metrics bundle — rebuild them against the new store.
  register_metrics();
  // New lineage: any subscriber synced off the old store is cut loose to
  // bootstrap afresh instead of silently diverging, and the log's frames
  // (memory and WAL) describe a store that no longer exists.
  for (auto& rx : reactors_) {
    for (auto& sub : rx->conns)
      if (!sub->dead && sub->kind == connection::role::subscriber) {
        live<&server_stats::subscriber_drops>().add();
        sub->dead = true;
      }
    rx->lane_local = 0;
  }
  // relaxed: inside the barrier — every other reactor is parked.
  for (uint32_t l = 0; l < kMaxLanes; ++l)
    lane_seqs_[l].store(lane_seq(l, 0), std::memory_order_relaxed);
  for (uint64_t v : lane_lasts) advance_lane(v);
  log_.reset(store_, lane_lasts);
}

void server::service_timers(reactor& r, uint64_t now_ns) {
  if (r.id == 0) {
    if (reconnect_pending_ && now_ns >= reconnect_at_ns_) try_resync_feed();
  }
  service_acks(r, now_ns);
  if (r.id == 0) {
    if (cfg_.feed_idle_timeout_ms != 0 &&
        live<&server_stats::feed_attached>().get() != 0 &&
        now_ns - feed_last_rx_ns_ >
            uint64_t{cfg_.feed_idle_timeout_ms} * 1'000'000ull) {
      for (auto& c : r.conns)
        if (!c->dead && c->kind == connection::role::feed)
          condemn(r, *c, "feed idle past the configured timeout");
    }
    // Checkpoints cannot ride replicate() (any reactor may trigger one):
    // reactor 0 polls the due-ness here, between frames.
    // barrier: a checkpoint is one store image at one position per lane,
    // so every lane's writer must be quiesced.
    if (cfg_.durability != nullptr && cfg_.durability->checkpoint_due())
      stw([&] { cfg_.durability->checkpoint(store_); });
  }
}

int server::poll_timeout_ms(const reactor& r, uint64_t now_ns) const {
  uint64_t next = UINT64_MAX;
  if (r.id == 0) {
    if (reconnect_pending_) next = std::min(next, reconnect_at_ns_);
    if (cfg_.feed_idle_timeout_ms != 0 &&
        live<&server_stats::feed_attached>().get() != 0)
      next = std::min<uint64_t>(
          next, feed_last_rx_ns_ +
                    uint64_t{cfg_.feed_idle_timeout_ms} * 1'000'000ull);
    // Checkpoint due-ness is polled, not signalled: bound the sleep.
    if (cfg_.durability != nullptr)
      next = std::min<uint64_t>(next, now_ns + 50'000'000ull);
  }
  for (const pending_ack& p : r.pending_acks)
    next = std::min(next, p.deadline_ns);
  // A gated response can be released by an ack that lands on *another*
  // reactor (the subscriber's owner updates the lane slot; nobody wakes
  // us).  Poll at ack-release granularity while anything is parked.
  // single-loop: with one reactor every ack arrives on this loop, whose
  // subscriber_ack() services the gate itself — no polling needed.
  if (nr_ > 1 && !r.pending_acks.empty())
    next = std::min<uint64_t>(next, now_ns + 1'000'000ull);
  if (next == UINT64_MAX) return -1;
  if (next <= now_ns) return 0;
  // +1 ms: round up so a timer never fires a poll round early and spins.
  return static_cast<int>(
      std::min<uint64_t>((next - now_ns) / 1'000'000ull + 1, 60'000));
}

// -- SYNC serving -------------------------------------------------------------

void server::serve_sync(reactor& r, connection& c, const frame& f) {
  if (f.shard_hint == kSyncInviteHint) {
    handle_invite(r, c, f);
    return;
  }
  // A standby that has never bootstrapped has no authoritative dataset:
  // serving SYNC from it would hand a downstream replica an empty
  // snapshot at sequence 0, and the standby's own later bootstrap
  // (handle_invite) would replace the store underneath that subscriber —
  // silent, permanent divergence.  Refuse until this server has data of
  // its own lineage.  (A replica whose feed *died* still serves SYNC:
  // its last-acknowledged state is a real snapshot.)
  if (cfg_.read_only && !ever_fed_) {
    append_out(c, encode_error_response(
                      opcode::sync, f.sequence, wire_status::unsupported,
                      "standby replica has not bootstrapped yet"));
    return;
  }
  if (f.shard_hint == kSyncResumeHint) {
    serve_resume(r, c, f);
    return;
  }
  serve_snapshot(r, c, f);
}

void server::serve_resume(reactor& r, connection& c, const frame& f) {
  const std::vector<uint64_t> lasts = decode_sync_resume_lanes(f);
  const uint32_t lanes = active_lanes();
  // Grant a delta only when the replica's lane layout matches ours exactly
  // and the log replays *every* lane's missed range whole — a partial
  // replay would interleave a hole into one lane.  A lane the memory tail
  // no longer holds is read back from the WAL, whose re-encoded bytes are
  // identical with what the live stream carried (persist_wal_test proves
  // it), so that lane is indistinguishable from a bigger tail.  Never at
  // stream position 0: a primary restarted from a snapshot is back at 0
  // with a *different* store, and a replica whose bootstrap also happened
  // at 0 would otherwise be granted an empty delta against data it has
  // never seen.  At 0 the snapshot is authoritative and cheap.  (A lane
  // entry stamped with another lane's id is a range replay() refuses.)
  if (lasts.size() == lanes) {
    std::vector<sync_delta_header> headers(lanes);
    for (uint32_t l = 0; l < lanes; ++l)
      // relaxed: reactor 0 reads lane tips under the STW barrier.
      headers[l] = {lasts[l], lane_seqs_[l].load(std::memory_order_relaxed)};
    // One lane answers in the scalar (pre-lane) response form.
    std::vector<uint8_t> out =
        lanes == 1 ? encode_sync_delta_response(f.sequence,
                                                headers[0].resume_from,
                                                headers[0].upto)
                   : encode_sync_delta_response(
                         f.sequence,
                         std::span<const sync_delta_header>(headers));
    bool covered = repl_position() != 0, any_wal = false;
    uint64_t replayed = 0;
    for (uint32_t l = 0; covered && l < lanes; ++l) {
      const repl_tier t =
          log_.replay(headers[l].resume_from, headers[l].upto, out);
      covered = t != repl_tier::none;
      any_wal = any_wal || t == repl_tier::disk;
      replayed += lane_local(headers[l].upto) - lane_local(lasts[l]);
    }
    if (covered) {
      const size_t out_bytes = out.size();
      append_out(c, std::move(out));
      register_subscriber(c, std::span<const uint64_t>(lasts), out_bytes);
      live<&server_stats::deltas_served>().add();
      if (any_wal) live<&server_stats::wal_deltas_served>().add();
      r.trace.add("repl", any_wal ? "wal_delta_serve" : "delta_serve",
                  obs::now_ns(), 0, "frames", replayed);
      return;
    }
  }
  // Some lane not replayable whole (or a lane-layout mismatch): the only
  // safe catch-up is a full bootstrap — also the case of a replica living
  // in this primary's future after a crash-restart from an older snapshot.
  serve_snapshot(r, c, f);
}

void server::serve_snapshot(reactor& r, connection& c, const frame& f) {
  // Snapshot + subscribe, atomically with respect to mutations: this runs
  // inside the stop-the-world barrier, so every mutation at or below the
  // positions recorded here is inside the snapshot and every later one
  // will be forwarded down this connection.  Nothing falls in between.
  const uint64_t t0 = obs::now_ns();
  // A multi-lane snapshot is prefixed with its lane table so the replica
  // resumes each lane at the right position (single-lane transfers stay
  // byte-identical to the pre-lane protocol).
  if (active_lanes() > 1)
    append_out(c, encode_sync_lane_table(f.sequence, current_lane_seqs()));
  const uint64_t seq_pos = repl_position();
  // The v3 header carries the covered sequence, so a replica that later
  // restarts with its own WAL can anchor its log to this lineage.
  const std::string bytes = store::serialize_store(store_, seq_pos);
  size_t cap = std::min(cfg_.sync_chunk_bytes,
                        cfg_.max_frame_bytes - kFrameOverhead);
  if (cap <= kSyncChunk0Header) cap = kSyncChunk0Header + 1;
  auto data = std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
  const size_t first_data = std::min(bytes.size(), cap - kSyncChunk0Header);
  const size_t rest = bytes.size() - first_data;
  const uint32_t total =
      static_cast<uint32_t>(1 + (rest + cap - 1) / cap);
  append_out(c, encode_sync_chunk(f.sequence, 0, total, seq_pos,
                                  bytes.size(), data.subspan(0, first_data)));
  size_t off = first_data;
  for (uint32_t idx = 1; off < bytes.size(); ++idx) {
    const size_t slice = std::min(cap, bytes.size() - off);
    append_out(c, encode_sync_chunk(f.sequence, idx, total, 0, 0,
                                    data.subspan(off, slice)));
    off += slice;
  }
  register_subscriber(c, {}, bytes.size());
  r.trace.add("repl", "sync_serve", t0, obs::now_ns() - t0, "bytes",
              bytes.size());
}

void server::handle_invite(reactor& r, connection& c, const frame& f) {
  // Only a standby replica (read-only, not yet fed) takes an invite: on
  // anything else a hostile invite would overwrite a live store.
  if (!cfg_.read_only || live<&server_stats::feed_attached>().get()) {
    append_out(c, encode_error_response(opcode::sync, f.sequence,
                                        wire_status::unsupported,
                                        "not a standby replica"));
    return;
  }
  try {
    const std::string host = peer_ip(c.fd.get());
    const uint16_t port = decode_sync_invite(f);
    // Blocking bootstrap inside the loop: acceptable for a standby that
    // is, by definition, not serving anything yet.
    const uint64_t t0 = obs::now_ns();
    sync_result sr =
        sync_from(host, port, cfg_.snapshot_path, cfg_.max_frame_bytes,
                  /*connect_retries=*/0, cfg_.resync_timeout_ms,
                  cfg_.connector);
    r.trace.add("repl", "bootstrap", t0, sr.bootstrap_ns, "bytes",
                sr.snapshot_bytes);
    // Defense in depth: serve_sync refuses on a never-fed standby, but any
    // subscriber synced off the pre-invite state is cut loose here.
    // barrier: the swap replaces every shard and resets every lane.
    stw([&] { replace_store(std::move(sr.store), sr.lane_seqs); });
    attach_feed(std::move(sr.feed), std::move(sr.dec),
                std::span<const uint64_t>(sr.lane_seqs));
    // No success response: the inviter fired and forgot; convergence is
    // observable through STATS on either end.
  } catch (const std::exception& e) {
    append_out(c, encode_error_response(opcode::sync, f.sequence,
                                        wire_status::error, e.what()));
  }
}

void server::feed_frame(reactor& r, connection& c, const frame& f) {
  // Only mutating opcodes ride the feed; anything else means the stream
  // is not what we subscribed to.
  if (!is_mutating(f.op) && f.op != opcode::maintain) {
    condemn(r, c, "non-mutating opcode on the replication feed");
    return;
  }
  const uint32_t lane = lane_of(f.sequence);
  if (lane >= kMaxLanes) {
    // The top byte can name 256 lanes but the server tracks kMaxLanes:
    // a stream stamped beyond that is not one we subscribed to.
    condemn(r, c, "sequence lane out of range");
    return;
  }
  const auto it = feed_expected_by_lane_.find(lane);
  const uint64_t expected =
      it != feed_expected_by_lane_.end() ? it->second : f.sequence;
  if (f.sequence != expected) {
    // A discontinuity: count it so STATS surfaces the divergence.  An
    // older-than-expected frame is a replay and is dropped.  A forward
    // jump splits on supervision: unsupervised (PR 5 behavior, no way to
    // recover the gap) applies it — the stream is still the freshest data
    // we can get — with the gap on record; a supervised feed *can* close
    // the gap, so the connection is condemned and the re-sync path
    // replays exactly the missed frames instead of accepting a hole.
    live<&server_stats::feed_gaps>().add();
    r.trace.add("repl", "feed_gap", obs::now_ns(), 0, "expected", expected);
    if (f.sequence < expected) return;
    if (!cfg_.feed_addr.empty()) {
      condemn(r, c, "unbridged gap on a supervised feed");
      return;
    }
  }
  feed_expected_by_lane_[lane] = f.sequence + 1;
  live<&server_stats::frames_served>().add();
  // A forwarded MAINTAIN is routed like any batch: each shard is grown by
  // its owner behind every earlier part of the feed, in the lane's order.
  // The frame's position is published when its last part folds back
  // (finish_resp): right here when this reactor owns every shard.
  feed_unpublished_.push_back({f.sequence, false});
  try {
    route_batch(r, c, f, /*from_feed=*/true, obs::now_ns());
  } catch (...) {
    // A frame that failed to route holds back no later frame's position.
    std::erase_if(feed_unpublished_,
                  [&](const auto& e) { return e.first == f.sequence; });
    throw;
  }
  // Chain the frame downstream, upstream lane stamp intact, in arrival
  // order (reactor 0 is the feed's owner, so this *is* the upstream
  // interleaving).
  fan_out(r, f, f.sequence);
}

void server::publish_feed(uint64_t seq) {
  for (auto& [s, applied] : feed_unpublished_)
    if (s == seq) applied = true;
  // Positions publish in arrival order: a frame that finished early waits
  // for every frame that arrived before it.
  while (!feed_unpublished_.empty() && feed_unpublished_.front().second) {
    const uint64_t done = feed_unpublished_.front().first;
    feed_unpublished_.pop_front();
    // Release: published after every part of the frame applied, so a
    // stats() reader that sees this sequence also sees its effect on the
    // store — and before the stream position moves, so a reader that
    // sees the position sees these too.
    live<&server_stats::feed_last_seq>().a.store(done,
                                                std::memory_order_release);
    live<&server_stats::feed_applied>().a.fetch_add(
        1, std::memory_order_release);
    advance_lane(done);
  }
}

// -- Frame handling -----------------------------------------------------------

void server::handle_frame(reactor& r, connection& c, const frame& f) {
  live<&server_stats::frames_served>().add();
  const uint64_t t_start = obs::now_ns();
  // A replica takes mutations only from its feed; clients get an in-band
  // error and keep their connection (they meant well — they just talked
  // to the wrong end of the topology).
  if ((is_mutating(f.op) || f.op == opcode::maintain) && cfg_.read_only) {
    live<&server_stats::read_only_refusals>().add();
    append_out(c, encode_error_response(
                      f.op, f.sequence, wire_status::unsupported,
                      "read-only replica: send mutations to the primary"));
    return;
  }
  switch (f.op) {
    case opcode::ping:
      append_out(c, encode_ping_response(f.sequence));
      record_frame(r, f.op, 0, t_start, t_start);
      return;
    case opcode::insert:
    case opcode::insert_counted:
    case opcode::query:
    case opcode::erase:
    case opcode::count:
    case opcode::maintain:
      route_batch(r, c, f, /*from_feed=*/false, t_start);
      return;
    case opcode::stats:
    case opcode::snapshot:
    case opcode::sync:
      control(r, c, f, t_start);
      return;
  }
}

void server::record_frame(reactor& r, opcode op, uint32_t key_count,
                          uint64_t t_start, uint64_t t_applied) {
  const uint64_t t_done = obs::now_ns();
  r.stage_apply_ns.record(t_applied - t_start);
  r.stage_encode_ns.record(t_done - t_applied);
  r.op_hist[static_cast<size_t>(op)].record(t_done - t_start);
  r.trace.add("wire", op_name(op), t_start, t_done - t_start, "keys",
              key_count);
}

// -- Batch routing ------------------------------------------------------------

bool server::owns_every_shard(const reactor& r) const {
  return r.shard_begin == 0 && r.shard_end == store_.num_shards();
}

void server::route_batch(reactor& r, connection& c, const frame& f,
                         bool from_feed, uint64_t t_start) {
  using grouped = store::filter_store::grouped;
  // `w` is this reactor's part, `d` its answers for pending_resp::fold().
  reactor_msg w, d;
  w.op = d.op = f.op;
  w.from_feed = from_feed;
  const uint64_t ticket = r.next_ticket++;
  pending_resp p;
  p.conn = &c;
  p.op = f.op;
  p.client_seq = f.sequence;
  p.key_count = f.key_count;
  p.from_feed = from_feed;
  p.t_start = t_start;
  bool local = false;  // this reactor applies a part itself
  std::vector<uint64_t> keys, counts;
  shard_range sr;  // shards the frame reaches: every one unless MAINTAIN
  if (f.op == opcode::maintain) {
    sr = decode_maintain_range(f);
  } else {
    decode_batch(f, keys, counts);
    const size_t n = keys.size();
    live<&server_stats::keys_processed>().add(n);
    if (f.op == opcode::query)
      p.words.assign(bitmap_words(n), 0);
    else if (f.op == opcode::count)
      p.words.assign(n, 0);
    if (owns_every_shard(r)) {
      // The part is the whole batch in request order; the store groups it
      // itself, a read inside each pool range.  A serial grouping here
      // first cost an 8192-key read frame of an 8-shard bulk-TCF store
      // 57-112 us more (medians, width 2 and 4).
      local = n != 0;
      p.parts_left = local ? 1 : 0;
    } else {
      // Group once by the store's own shard function — the wire-level
      // shard_hint is advisory and never trusted for ownership — and hand
      // each reactor the run of its contiguous shard slice.
      w.batch = std::make_shared<const grouped>(store_.group(keys, counts));
    }
  }
  // Otherwise one part per reactor whose slice meets the frame's shards
  // (and, for a grouped batch, holds keys), clipped to that slice: every
  // shard is written and grown by its owner.
  const bool split = w.batch != nullptr || f.op == opcode::maintain;
  for (uint32_t k = 0; split && k < nr_; ++k) {
    reactor_msg remote;
    reactor_msg& m = k == r.id ? w : remote;
    m.batch = w.batch;
    m.begin = std::max(sr.begin, reactors_[k]->shard_begin);
    m.end = std::min(sr.end, reactors_[k]->shard_end);
    if (m.begin >= m.end || (m.batch && m.run(&grouped::keys).empty()))
      continue;
    ++p.parts_left;
    m.k = reactor_msg::kind::work;
    m.origin = r.id;
    m.ticket = ticket;
    m.op = f.op;
    m.from_feed = from_feed;
    if (k == r.id)
      local = true;
    else
      post(r, k, std::move(m));
  }
  if (local) {
    // A grouped part applies its run; the whole batch applies as decoded
    // and replicates the decoded frame itself.
    if (w.batch != nullptr)
      apply_work(r, w, d, w.run(&grouped::keys), w.run(&grouped::counts));
    else
      apply_work(r, w, d, keys, counts, &f);
    p.fold(d);
    --p.parts_left;
  } else if (p.parts_left == 0) {
    // Nothing to apply (an empty batch, or a MAINTAIN range no slice
    // meets): the empty fold is the answer.
    r.stage_apply_ns.record(0);
  }
  // Done replies are drained only at this reactor's loop top (or by a
  // barrier that first waits for it to park), so the response can be
  // filed after the local part folded in — or finished right here.  The
  // connection survives sweep_dead while parts are in flight — a
  // folded-back done message must never find a dangling conn pointer.
  ++c.inflight;
  if (p.parts_left == 0)
    finish_resp(r, p);
  else
    r.pending.emplace(ticket, std::move(p));
}

void server::apply_work(reactor& r, const reactor_msg& w, reactor_msg& d,
                        std::span<const uint64_t> keys,
                        std::span<const uint64_t> counts,
                        const frame* whole) {
  const uint64_t t0 = obs::now_ns();
  d.batch = w.batch;  // the fold finds the part's answers through its run
  d.begin = w.begin;
  d.end = w.end;
  if (w.op == opcode::maintain) {
    const auto m = maintain_slice(r, w.begin, w.end, w.from_feed);
    d.a = m.shards_grown;
    d.b = m.total_levels;
    d.depth = m.max_depth;
  } else if (is_mutating(w.op)) {
    // Periodic skew relief: every maintain_every-th part this reactor
    // applies, it first grows the pressured shards of its own slice.  Feed
    // parts never count: the primary's forwarded MAINTAIN frames drive
    // replica growth at the same stream positions.
    if (!w.from_feed && cfg_.maintain_every != 0 &&
        ++r.parts_since_maintain >= cfg_.maintain_every) {
      r.parts_since_maintain = 0;
      maintain_slice(r, r.shard_begin, r.shard_end, /*from_feed=*/false);
    }
    const pair_result res = apply_mutation(store_, w.op, keys, counts);
    d.a = res.ok;
    d.b = res.failed;
    // Replicate this reactor's part as its own lane-stamped frame: a
    // subscriber replays each lane independently, and re-applying the
    // part yields exactly what this reactor just did.
    if (!w.from_feed)
      d.part_seq = whole != nullptr
                       ? replicate(r, *whole)
                       : replicate(r, batch_frame(w.op, keys, counts));
  } else if (w.op == opcode::query) {
    d.hits.resize(keys.size());
    store_.contains_each(keys, d.hits);
  } else {
    d.vals.resize(keys.size());
    store_.count_each(keys, d.vals);
  }
  r.stage_apply_ns.record(obs::now_ns() - t0);
}

store::filter_store::maintain_result server::maintain_slice(
    reactor& r, uint32_t begin, uint32_t end, bool from_feed) {
  // Growth swaps a shard's levels_ vector, so only the shard's one writer
  // may run it: r owns [begin, end), and every access to those shards is
  // applied on r.  Another reactor's part holds only its own shards' keys,
  // and the store runs only the shards a batch has keys for.
  const uint64_t t0 = obs::now_ns();
  const auto m = store_.maintain_range(begin, end);
  r.trace.add("store", "maintain", t0, obs::now_ns() - t0, "levels",
              m.total_levels);
  if (!from_feed) {
    // A slice that is the whole store streams as the plain (unranged)
    // MAINTAIN frame.
    frame mf;
    mf.op = opcode::maintain;
    if (begin != 0 || end != store_.num_shards()) {
      put_u32(mf.payload, begin);
      put_u32(mf.payload, end);
    }
    replicate(r, mf);
  }
  return m;
}

void server::complete_part(reactor& r, uint64_t ticket,
                           const reactor_msg& d) {
  const auto it = r.pending.find(ticket);
  if (it == r.pending.end()) return;  // conn torn down mid-flight
  pending_resp& p = it->second;
  p.fold(d);
  if (--p.parts_left != 0) return;
  pending_resp done = std::move(p);
  r.pending.erase(it);
  finish_resp(r, done);
}

void server::finish_resp(reactor& r, pending_resp& p) {
  if (p.conn->inflight > 0) --p.conn->inflight;
  if (p.from_feed) publish_feed(p.client_seq);
  const uint64_t t0 = obs::now_ns();
  if (!p.conn->dead) {
    switch (p.op) {
      case opcode::query:
        append_out(*p.conn,
                   encode_query_response(p.client_seq, p.key_count, p.words));
        break;
      case opcode::count:
        append_out(*p.conn, encode_count_response(p.client_seq, p.words));
        break;
      case opcode::maintain:
        append_out(*p.conn, encode_maintain_response(
                                p.client_seq, static_cast<uint32_t>(p.a),
                                p.depth, static_cast<uint32_t>(p.b)));
        break;
      default:
        queue_mutation_response(r, *p.conn, p.from_feed, p.op, p.client_seq,
                                p.key_count, p.a, p.b,
                                std::span<const uint64_t>(p.part_seqs));
        break;
    }
  }
  const uint64_t t_done = obs::now_ns();
  r.stage_encode_ns.record(t_done - t0);
  r.op_hist[static_cast<size_t>(p.op)].record(t_done - p.t_start);
  r.trace.add("wire", op_name(p.op), p.t_start, t_done - p.t_start, "keys",
              p.key_count);
}

// -- Control plane (reactor 0, stop-the-world) --------------------------------

void server::control(reactor& r, connection& c, const frame& f,
                     uint64_t t_start) {
  // Control ops execute on reactor 0 under the stop-the-world barrier:
  // inline when they arrive there, posted to it otherwise.  The
  // connection is pinned by `inflight` until the reply (built on reactor
  // 0, appended directly — the conn's owner is parked while the barrier
  // holds) is queued.
  ++c.inflight;
  if (r.id == 0) {
    exec_ctrl(r, c, f, t_start);
    return;
  }
  reactor_msg m;
  m.k = reactor_msg::kind::ctrl;
  m.origin = r.id;
  m.conn = &c;
  m.fr = f;
  m.a = t_start;
  post(r, 0, std::move(m));
}

void server::exec_ctrl(reactor& r, connection& c, const frame& f,
                       uint64_t t_start) {
  // barrier: STATS, SNAPSHOT and SYNC read every shard's cascade and every
  // lane's position, and the scrape reads reactor-local state — one
  // consistent cut of all lanes, with their owners parked.
  stw([&] {
    if (c.inflight > 0) --c.inflight;
    if (c.dead) return;
    uint64_t t_applied = t_start;
    try {
      switch (f.op) {
        case opcode::stats: {
          // Rendered inside the barrier: every reactor is parked, so the
          // scrape is a consistent cut — no counter can tear mid-render.
          // Exposition variants ride the shard_hint (frame.h): metrics is
          // the Prometheus-style text scrape, trace the chrome://tracing
          // dump.  The default stays the report JSON.
          std::string text;
          if (f.shard_hint == kStatsMetricsHint)
            text = registry_.render();
          else if (f.shard_hint == kStatsTraceHint)
            text = trace_json();
          else
            text = stats_json();
          t_applied = obs::now_ns();
          append_out(c, encode_stats_response(f.sequence, text));
          break;
        }
        case opcode::snapshot: {
          if (cfg_.snapshot_path.empty()) {
            append_out(c, encode_error_response(
                              opcode::snapshot, f.sequence,
                              wire_status::unsupported,
                              "server was started without a snapshot path"));
            break;
          }
          store::save_store(store_, cfg_.snapshot_path, repl_position());
          uint64_t bytes = static_cast<uint64_t>(
              std::filesystem::file_size(cfg_.snapshot_path));
          t_applied = obs::now_ns();
          r.trace.add("store", "snapshot", t_start, t_applied - t_start,
                      "bytes", bytes);
          append_out(c, encode_snapshot_response(f.sequence, bytes));
          break;
        }
        case opcode::sync: {
          serve_sync(r, c, f);
          t_applied = obs::now_ns();
          break;
        }
        default:
          break;
      }
    } catch (const std::exception& e) {
      // Handler failures (snapshot I/O, allocation) are the server's
      // fault, not the stream's: answer with an error frame, keep the
      // connection.
      t_applied = obs::now_ns();
      append_out(c, encode_error_response(f.op, f.sequence,
                                          wire_status::error, e.what()));
    }
    record_frame(r, f.op, f.key_count, t_start, t_applied);
  });
}

// -- Exposition ---------------------------------------------------------------

std::string server::stats_json() const {
  // The store report plus the server identity and the replication
  // plane — role, stream position, subscriber lag, and (on a replica)
  // feed health and gap count, so divergence is observable over the
  // wire.  The stored stats come from the counter tables.
  util::json_writer w;
  w.object_begin();
  store::report_json_fields(store_, w);
  const server_stats s = stats();
  auto stat_fields = [&](std::string_view section) {
    for (const stat_row& row : kStatRows) {
      if (row.section != section) continue;
      if (row.kind == flag)
        w.field(row.key, s.*row.field != 0);
      else
        w.field(row.key, s.*row.field);
    }
  };
  size_t ack_pending = 0;
  for (const auto& rx : reactors_) ack_pending += rx->pending_acks.size();
  w.key("server").object_begin();
  w.field("version", obs::kVersion)
      .field("build", obs::kBuildType)
      .field("compiler", obs::kCompiler)
      .field("counters_enabled", obs::kCountersEnabled)
      .field("uptime_seconds",
             static_cast<double>(obs::now_ns() - start_ns_) / 1e9, 3)
      .field("reactors", nr_);
  stat_fields("server");
  w.object_end();
  w.key("replication").object_begin();
  w.field("role",
          cfg_.read_only || s.feed_attached ? "replica" : "primary")
      .field("read_only", cfg_.read_only)
      .field("repl_seq", s.repl_seq)
      .field("lanes", active_lanes());
  stat_fields("replication");
  w.field("ack_replicas", cfg_.ack_replicas)
      .field("ack_pending", ack_pending)
      .field("ring_frames", log_.frames())
      .field("ring_bytes", log_.bytes());
  w.object_end();
  w.key("durability").object_begin();
  w.field("armed", cfg_.durability != nullptr);
  if (cfg_.durability != nullptr) {
    const persist::durability_stats d = cfg_.durability->stats();
    w.field("wal_dir", cfg_.durability->dir())
        .field("fsync",
               persist::fsync_policy_name(cfg_.durability->policy()));
    for (const durability_row& row : kDurabilityRows)
      w.field(row.key, d.*row.field);
  }
  w.object_end();
  w.object_end();
  return w.str();
}

std::string server::trace_json() const {
  // Merge every reactor's ring into one export, tid = reactor id + 1, in
  // global timestamp order so chrome://tracing draws a coherent timeline.
  std::vector<std::pair<obs::trace_event, int>> evs;
  for (uint32_t k = 0; k < nr_; ++k)
    for (obs::trace_event& e : reactors_[k]->trace.snapshot_events())
      evs.emplace_back(std::move(e), static_cast<int>(k) + 1);
  std::stable_sort(evs.begin(), evs.end(),
                   [](const auto& a, const auto& b) {
                     return a.first.ts_ns < b.first.ts_ns;
                   });
  return obs::trace_ring::render_chrome_json(evs);
}

}  // namespace gf::net
