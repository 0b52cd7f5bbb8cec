#include "persist/durability.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/codec.h"
#include "net/mutation.h"
#include "obs/clock.h"
#include "store/store_io.h"

namespace gf::persist {

namespace {

/// Best-effort directory fsync (mirrors wal.cpp): the data is already
/// safe, and some filesystems refuse directory fsync.
void fsync_dir_best_effort(const std::string& dir) {
  int dfd = ::open(dir.c_str(), O_RDONLY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

std::string lane_dir_name(uint32_t k) {
  return "lane-" + std::to_string(k);
}

/// Replay one logged frame through the calls the live server makes —
/// net::apply_mutation for batches, maintain_range for MAINTAIN — so a
/// recovered store is byte-identical with one that never crashed (and
/// with every replica, which applies the identical frames off the feed).
void apply_frame(store::filter_store& st, const net::frame& f) {
  if (f.op == net::opcode::maintain) {
    const net::shard_range sr = net::decode_maintain_range(f);
    st.maintain_range(sr.begin, sr.end);
    return;
  }
  std::vector<uint64_t> keys, counts;
  net::decode_batch(f, keys, counts);
  net::apply_mutation(st, f.op, keys, counts);
}

}  // namespace

durability_engine::durability_engine(wal_config cfg)
    : cfg_(std::move(cfg)), ckpt_(cfg_.dir) {
  if (cfg_.dir.empty())
    throw std::runtime_error("gf: durability engine needs a WAL directory");
  // Never reallocates: lane_at publishes entries to lock-free readers.
  lanes_.reserve(net::kMaxLanes);
}

durability_engine::~durability_engine() {
  try {
    // close() fsyncs: an orderly exit loses nothing.
    for (auto& ls : lanes_) ls->active.close();
  } catch (...) {
  }
}

store::filter_store durability_engine::recover(const bootstrap_fn& fallback) {
  std::filesystem::create_directories(cfg_.dir);
  if (manifest_exists(cfg_.dir)) m_ = load_manifest(cfg_.dir);
  if (m_.lanes.empty()) m_.lanes.resize(1);

  store::filter_store st = [&] {
    if (m_.has_checkpoint) {
      uint64_t header_seq = 0;
      store::filter_store loaded = store::load_store(
          cfg_.dir + "/" + m_.checkpoint_file, &header_seq);
      // Cross-check: the checkpoint is self-describing (v3 header) and
      // must agree with the manifest that claims it.  Multi-lane headers
      // stamp the summed lane-local fingerprint; a single lane's
      // fingerprint is its plain sequence, so a pre-v3 file reporting
      // 0 = unknown still only matches a checkpoint_seq of 0 — anything
      // else is a foreign or hand-swapped file and replaying the tail
      // over it would corrupt silently.
      if (header_seq != m_.checkpoint_seq)
        throw std::runtime_error(
            "gf: WAL manifest says the checkpoint covers sequence " +
            std::to_string(m_.checkpoint_seq) + " but its header says " +
            std::to_string(header_seq));
      return loaded;
    }
    auto [boot, seq] = fallback();
    m_.checkpoint_seq = seq;        // replay floor while the log is virgin
    m_.lanes[0].checkpoint_seq = seq;
    return boot;
  }();

  // Replay each lane's tail in its own stream order, stopping — and
  // physically truncating — at the first torn frame, corrupt frame, or
  // sequence hole.  Only a crash can produce these (and only at a lane's
  // very tail), so everything after the anomaly is unacked garbage, never
  // data.  Lane order equals merged order here: a multi-lane log carries
  // only shard-disjoint frames per lane (ranged maintenance included), so
  // lane replays commute.
  lanes_.clear();
  // relaxed: recovery is single-threaded; the engine is not shared yet.
  lane_count_.store(0, std::memory_order_relaxed);
  for (uint32_t k = 0; k < m_.lanes.size(); ++k) {
    lanes_.push_back(std::make_unique<lane_state>());
    lane_state& ls = *lanes_.back();
    lane_manifest& lm = m_.lanes[k];
    ls.last_seq = lm.checkpoint_seq;
    std::sort(lm.segments.begin(), lm.segments.end(),
              [](const segment_info& a, const segment_info& b) {
                return a.first_seq < b.first_seq;
              });
    std::vector<segment_info> kept;
    bool stopped = false;
    for (segment_info& seg : lm.segments) {
      const std::string path = cfg_.dir + "/" + seg.file;
      if (stopped) {
        std::error_code ec;
        recovery_truncated_bytes_ += std::filesystem::file_size(path, ec);
        std::filesystem::remove(path, ec);
        continue;
      }
      uint64_t seg_first = 0, seg_last = 0;
      bool gap = false;
      scan_result r = scan_segment(
          cfg_.dir, seg.file, cfg_.max_frame_bytes, [&](net::frame&& f) {
            if (net::validate_request(f) != nullptr) return false;
            if (f.sequence <= ls.last_seq) {
              // Below the checkpoint (or a pre-prune leftover): present,
              // CRC-clean, already folded in.  Track the range; skip the
              // apply.
              if (seg_first == 0) seg_first = f.sequence;
              seg_last = f.sequence;
              return true;
            }
            if (f.sequence != ls.last_seq + 1) {
              gap = true;
              return false;
            }
            apply_frame(st, f);
            ls.last_seq = f.sequence;
            if (seg_first == 0) seg_first = f.sequence;
            seg_last = f.sequence;
            ++recovery_replayed_;
            return true;
          });
      if (gap) ++recovery_gaps_;
      if (r.stop != scan_stop::clean) {
        // Cut the tail at the last clean frame boundary; later segments
        // of this lane (if any) are beyond the hole and go entirely.
        stopped = true;
        recovery_truncated_bytes_ += r.file_bytes - r.good_bytes;
        if (r.frames == 0) {
          std::error_code ec;
          std::filesystem::remove(path, ec);
          continue;
        }
        if (::truncate(path.c_str(), static_cast<off_t>(r.good_bytes)) != 0)
          throw std::runtime_error("gf: cannot truncate torn WAL segment " +
                                   path);
      } else if (r.frames == 0) {
        // Header-only segment (crash between rotation and first append).
        std::error_code ec;
        std::filesystem::remove(path, ec);
        continue;
      }
      seg.first_seq = seg_first;
      seg.last_seq = seg_last;
      kept.push_back(seg);
    }
    lm.segments = std::move(kept);
  }
  lane_count_.store(static_cast<uint32_t>(lanes_.size()),
                    std::memory_order_release);
  armed_ = true;

  if (!m_.has_checkpoint) {
    // Arm the directory: the first checkpoint makes restart independent
    // of the fallback source (a legacy snapshot file can move or rot).
    checkpoint(st);
  } else {
    save_manifest(cfg_.dir, m_);  // record truncation/pruning reality
  }
  return st;
}

durability_engine::lane_state& durability_engine::lane_at(uint32_t k,
                                                          uint64_t seq) {
  if (k >= net::kMaxLanes)
    throw std::runtime_error("gf: WAL lane id out of range");
  // lane: fast path — an appender only ever asks for its own lane, and a
  // lane is fully built before lane_count_ publishes it (release below).
  if (k < lane_count_.load(std::memory_order_acquire)) return *lanes_[k];
  // Lane creation is rare and happens only from single-appender contexts
  // (a replica's feed thread, quiesced startup); the lock serializes it
  // against manifest writers.
  std::lock_guard<std::mutex> lk(m_mu_);
  while (lanes_.size() <= k) {
    const uint32_t j = static_cast<uint32_t>(lanes_.size());
    auto ls = std::make_unique<lane_state>();
    // The target lane starts just below the incoming sequence so the
    // first append is not a gap; lanes filled in between idle at local 0.
    const uint64_t last = j == k ? seq - 1 : net::lane_seq(j, 0);
    ls->last_seq = last;
    if (m_.lanes.size() <= j) m_.lanes.resize(j + 1);
    m_.lanes[j].checkpoint_seq = last;
    if (j > 0) {
      std::filesystem::create_directories(cfg_.dir + "/" + lane_dir_name(j));
      // The lane directory's own name must survive a crash, or every
      // segment inside it is unreachable.
      fsync_dir_best_effort(cfg_.dir);
    }
    lanes_.push_back(std::move(ls));
    lane_count_.store(static_cast<uint32_t>(lanes_.size()),
                      std::memory_order_release);
  }
  return *lanes_[k];
}

void durability_engine::ensure_lanes(uint32_t n) {
  if (n == 0) return;
  lane_at(n - 1, net::lane_seq(n - 1, 1));
}

std::string durability_engine::lane_file(uint32_t k,
                                         uint64_t first_seq) const {
  if (k == 0) return segment_file_name(first_seq);
  // Lane-local name inside the lane's directory: the lane id is constant
  // there, so lexicographic order still equals log order.
  return lane_dir_name(k) + "/" + segment_file_name(net::lane_local(first_seq));
}

void durability_engine::append(uint64_t seq,
                               std::span<const uint8_t> frame_bytes) {
  if (!armed_)
    throw std::runtime_error("gf: WAL append before recover()/reset()");
  const uint32_t k = net::lane_of(seq);
  lane_state& ls = lane_at(k, seq);
  if (seq != ls.last_seq + 1) {
    // A hole (an unsupervised replica accepted a feed gap).  The lane must
    // never span it: start a fresh segment at the new position (replay()
    // serves no range across the hole — net::lane_range), and demand a
    // checkpoint, which truncates the unusable prefix and re-anchors
    // recovery.
    {
      std::lock_guard<std::mutex> lk(m_mu_);
      materialize_last_locked(k);
    }
    ls.active.close();
    // relaxed: a latched demand flag; checkpoint_due polls it.
    force_checkpoint_.store(true, std::memory_order_relaxed);
  }
  if (!ls.active.is_open() ||
      ls.active.bytes() + frame_bytes.size() > cfg_.segment_bytes)
    roll(k, seq);
  ls.active.append(frame_bytes);
  ls.last_seq = seq;
  // relaxed: shared tallies across lane appenders; readers tolerate skew.
  wal_bytes_.fetch_add(frame_bytes.size(), std::memory_order_relaxed);
  wal_frames_.fetch_add(1, std::memory_order_relaxed);
  bytes_since_checkpoint_.fetch_add(frame_bytes.size(),
                                    std::memory_order_relaxed);
  maybe_fsync(k);
}

void durability_engine::materialize_last_locked(uint32_t k) {
  lane_state& ls = *lanes_[k];
  if (ls.active.is_open() && !m_.lanes[k].segments.empty())
    m_.lanes[k].segments.back().last_seq = ls.last_seq;
}

void durability_engine::roll(uint32_t k, uint64_t first_seq) {
  lane_state& ls = *lanes_[k];
  std::lock_guard<std::mutex> lk(m_mu_);
  materialize_last_locked(k);
  ls.active.close();
  segment_info seg;
  seg.first_seq = first_seq;
  seg.last_seq = first_seq;
  seg.file = lane_file(k, first_seq);
  if (k == 0) {
    ls.active.open(cfg_.dir, seg.file, first_seq);
  } else {
    // Open relative to the lane directory so its entry is the one the
    // writer fsyncs; the manifest still records the root-relative path.
    ls.active.open(cfg_.dir + "/" + lane_dir_name(k),
                   segment_file_name(net::lane_local(first_seq)), first_seq);
  }
  m_.lanes[k].segments.push_back(std::move(seg));
  // relaxed: telemetry tally.
  rotations_.fetch_add(1, std::memory_order_relaxed);
  // Publish the new segment before frames land in it: recovery only
  // trusts manifest-listed files.
  save_manifest(cfg_.dir, m_);
}

void durability_engine::maybe_fsync(uint32_t k) {
  lane_state& ls = *lanes_[k];
  switch (cfg_.fsync) {
    case fsync_policy::none:
      return;
    case fsync_policy::every:
      break;
    case fsync_policy::interval: {
      const uint64_t now = obs::now_ns();
      if (now - ls.last_fsync_ns <
          uint64_t{cfg_.fsync_interval_ms} * 1'000'000ull)
        return;
      break;
    }
  }
  const uint64_t t0 = obs::now_ns();
  ls.active.fsync_now();
  const uint64_t t1 = obs::now_ns();
  fsync_ns_.record_lane(k, t1 - t0);
  ls.last_fsync_ns = t1;
  // relaxed: telemetry tally.
  wal_fsyncs_.fetch_add(1, std::memory_order_relaxed);
}

bool durability_engine::checkpoint_due() const {
  if (!armed_) return false;
  // relaxed: a demand flag and a byte tally; a checkpoint one poll late
  // is indistinguishable from one poll of extra traffic.
  if (force_checkpoint_.load(std::memory_order_relaxed)) return true;
  return cfg_.checkpoint_every_bytes != 0 &&
         bytes_since_checkpoint_.load(std::memory_order_relaxed) >=
             cfg_.checkpoint_every_bytes;
}

void durability_engine::checkpoint(const store::filter_store& st) {
  if (!armed_)
    throw std::runtime_error("gf: checkpoint before recover()/reset()");
  std::lock_guard<std::mutex> lk(m_mu_);
  checkpoint_locked(st);
}

void durability_engine::checkpoint_locked(const store::filter_store& st) {
  const uint64_t t0 = obs::now_ns();
  uint64_t fingerprint = 0;
  for (uint32_t k = 0; k < lanes_.size(); ++k) {
    materialize_last_locked(k);
    lanes_[k]->active.close();  // no pruned file may have a live writer
    m_.lanes[k].checkpoint_seq = lanes_[k]->last_seq;
    fingerprint += net::lane_local(lanes_[k]->last_seq);
  }
  checkpoint_bytes_ = ckpt_.run(st, fingerprint, m_);
  checkpoint_ns_.record(obs::now_ns() - t0);
  ++checkpoints_;
  // relaxed: tallies reset after the checkpoint published.
  bytes_since_checkpoint_.store(0, std::memory_order_relaxed);
  force_checkpoint_.store(false, std::memory_order_relaxed);
}

void durability_engine::reset(const store::filter_store& st,
                              std::span<const uint64_t> lane_lasts) {
  std::lock_guard<std::mutex> lk(m_mu_);
  for (auto& ls : lanes_) ls->active.close();
  for (const lane_manifest& lm : m_.lanes) {
    for (const segment_info& s : lm.segments) {
      std::error_code ec;
      std::filesystem::remove(cfg_.dir + "/" + s.file, ec);
    }
  }
  // Stale lane directories from a wider previous lineage are dropped too.
  for (uint32_t k = 1; k < m_.lanes.size(); ++k) {
    if (k >= lane_lasts.size()) {
      std::error_code ec;
      std::filesystem::remove(cfg_.dir + "/" + lane_dir_name(k), ec);
    }
  }
  const size_t n = lane_lasts.empty() ? 1 : lane_lasts.size();
  if (n > net::kMaxLanes)
    throw std::runtime_error("gf: WAL lane count out of range");
  m_.lanes.assign(n, lane_manifest{});
  lanes_.clear();
  // relaxed: reset runs quiesced (server parks all reactors first).
  lane_count_.store(0, std::memory_order_relaxed);
  std::filesystem::create_directories(cfg_.dir);
  for (uint32_t k = 0; k < n; ++k) {
    auto ls = std::make_unique<lane_state>();
    const uint64_t last = lane_lasts.empty() ? 0 : lane_lasts[k];
    ls->last_seq = last;
    m_.lanes[k].checkpoint_seq = last;
    if (k > 0)
      std::filesystem::create_directories(cfg_.dir + "/" + lane_dir_name(k));
    lanes_.push_back(std::move(ls));
  }
  lane_count_.store(static_cast<uint32_t>(n), std::memory_order_release);
  armed_ = true;
  checkpoint_locked(st);
}

void durability_engine::sync() {
  const uint32_t n = lane_count_.load(std::memory_order_acquire);
  for (uint32_t k = 0; k < n; ++k)
    if (lanes_[k]->active.is_open()) lanes_[k]->active.fsync_now();
}

bool durability_engine::replay(uint64_t after_seq, uint64_t current_seq,
                               std::vector<uint8_t>& out) const {
  const uint32_t k = net::lane_of(after_seq);
  if (!armed_ || k >= lane_count_.load(std::memory_order_acquire))
    return false;
  const size_t mark = out.size();
  net::lane_range range{after_seq, current_seq};
  bool clean = true;
  {
    std::lock_guard<std::mutex> lk(m_mu_);
    const auto& segments = m_.lanes[k].segments;
    for (size_t i = 0; clean && i < segments.size(); ++i) {
      const segment_info& seg = segments[i];
      // The active segment's recorded last_seq lags its writer (it is
      // materialized only at quiesce points), so the lane's final segment
      // is always scanned.
      if (i + 1 < segments.size() && seg.last_seq <= after_seq)
        continue;  // wholly below the resume
      const scan_result r = scan_segment(
          cfg_.dir, seg.file, cfg_.max_frame_bytes, [&](net::frame&& f) {
            // Re-encode from the decoded (CRC-verified) fields:
            // deterministic encoding makes the bytes identical with what
            // the live subscriber stream carried.
            if (range.take(f.sequence))
              net::encode_frame(f.op, net::wire_status::ok, f.shard_hint,
                                f.key_count, f.sequence, f.payload, out);
            return true;
          });
      // A torn or corrupt frame may sit inside the range: serve nothing
      // rather than guess.
      clean = r.stop == scan_stop::clean;
    }
  }
  if (clean && range.complete()) return true;
  out.resize(mark);
  return false;
}

uint64_t durability_engine::last_seq() const {
  const uint32_t n = lane_count_.load(std::memory_order_acquire);
  uint64_t sum = 0;
  for (uint32_t k = 0; k < n; ++k)
    sum += net::lane_local(lanes_[k]->last_seq);
  return sum;
}

std::vector<uint64_t> durability_engine::last_seqs() const {
  const uint32_t n = lane_count_.load(std::memory_order_acquire);
  std::vector<uint64_t> out;
  out.reserve(n);
  for (uint32_t k = 0; k < n; ++k) out.push_back(lanes_[k]->last_seq);
  return out;
}

durability_stats durability_engine::stats() const {
  durability_stats s;
  // relaxed: telemetry reads; skew across counters is documented.
  s.wal_bytes = wal_bytes_.load(std::memory_order_relaxed);
  s.wal_frames = wal_frames_.load(std::memory_order_relaxed);
  s.wal_fsyncs = wal_fsyncs_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(m_mu_);
    for (const lane_manifest& lm : m_.lanes)
      s.wal_segments += lm.segments.size();
    s.checkpoint_seq = m_.checkpoint_seq;
  }
  // relaxed: telemetry counter; no ordering required of a stats read.
  s.segments_rotated = rotations_.load(std::memory_order_relaxed);
  s.checkpoints = checkpoints_;
  s.checkpoint_bytes = checkpoint_bytes_;
  s.last_seq = last_seq();
  s.recovery_replayed_frames = recovery_replayed_;
  s.recovery_truncated_bytes = recovery_truncated_bytes_;
  s.recovery_gaps = recovery_gaps_;
  return s;
}

}  // namespace gf::persist
