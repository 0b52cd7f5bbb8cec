#include "net/repl_log.h"

#include "net/lane.h"
#include "persist/durability.h"

namespace gf::net {

repl_log::repl_log(uint32_t lanes, size_t tail_budget,
                   persist::durability_engine* disk)
    : budget_(tail_budget), tails_(tail_budget == 0 ? 0 : lanes), disk_(disk) {}

bool repl_log::keeps(uint64_t seq) const {
  return disk_ != nullptr || lane_of(seq) < tails_.size();
}

void repl_log::append(uint64_t seq,
                      std::shared_ptr<const std::vector<uint8_t>> frame) {
  if (disk_ != nullptr) disk_->append(seq, *frame);
  const uint32_t l = lane_of(seq);
  if (l >= tails_.size()) return;
  tail& t = tails_[l];
  if (!t.frames.empty() && seq != t.frames.back().seq + 1) {
    t.frames.clear();
    t.bytes = 0;
  }
  t.bytes += frame->size();
  t.frames.push_back({seq, std::move(frame)});
  // Evict oldest-first down to the budget, but always keep the newest
  // frame: a lone over-budget frame can still serve a 1-frame delta,
  // which beats forcing a snapshot.
  while (t.bytes > budget_ && t.frames.size() > 1) {
    t.bytes -= t.frames.front().frame->size();
    t.frames.pop_front();
  }
}

repl_tier repl_log::replay(uint64_t after, uint64_t cur,
                           std::vector<uint8_t>& out) const {
  if (after > cur || lane_of(after) != lane_of(cur)) return repl_tier::none;
  if (after == cur) return repl_tier::memory;  // already current
  const uint32_t l = lane_of(after);
  // A tail that starts past the range cannot serve it; skip copying out
  // frames only to drop them.
  if (l < tails_.size() && !tails_[l].frames.empty() &&
      tails_[l].frames.front().seq <= after + 1) {
    const size_t mark = out.size();
    lane_range range{after, cur};
    for (const entry& e : tails_[l].frames)
      if (range.take(e.seq))
        out.insert(out.end(), e.frame->begin(), e.frame->end());
    if (range.complete()) return repl_tier::memory;
    out.resize(mark);
  }
  if (disk_ != nullptr && disk_->replay(after, cur, out))
    return repl_tier::disk;
  return repl_tier::none;
}

void repl_log::reset(const store::filter_store& st,
                     std::span<const uint64_t> lane_lasts) {
  for (tail& t : tails_) {
    t.frames.clear();
    t.bytes = 0;
  }
  if (disk_ != nullptr) disk_->reset(st, lane_lasts);
}

size_t repl_log::bytes() const {
  size_t n = 0;
  for (const tail& t : tails_) n += t.bytes;
  return n;
}

size_t repl_log::frames() const {
  size_t n = 0;
  for (const tail& t : tails_) n += t.frames.size();
  return n;
}

}  // namespace gf::net
