#include "baselines/sqf.h"

#include <atomic>
#include <cstring>
#include <stdexcept>

#include "gpu/launch.h"
#include "par/radix_sort.h"
#include "par/search.h"
#include "util/bits.h"
#include "util/hash.h"

namespace gf::baselines {

namespace {
constexpr uint64_t kSqfRegionSlots = 8192;
}

sqf::sqf(uint32_t q_bits, uint32_t r_bits)
    : q_bits_(q_bits), r_bits_(r_bits), num_slots_(uint64_t{1} << q_bits) {
  if (r_bits != 5 && r_bits != 13)
    throw std::invalid_argument("SQF supports 5- or 13-bit remainders only");
  if (q_bits + r_bits >= 32)
    throw std::invalid_argument(
        "SQF supports q + r < 32 (at most 2^26 slots with r=5)");
  word_bytes_ = r_bits == 5 ? 1 : 2;
  // One region of spill padding absorbs clusters that extend past the last
  // canonical slot (quotients stay < 2^q); its final slot is kept empty so
  // cluster walks always terminate.
  total_slots_ = num_slots_ + kSqfRegionSlots;
  bytes_.assign(total_slots_ * word_bytes_, 0);
}

uint64_t sqf::get_word(uint64_t i) const {
  if (word_bytes_ == 1) return bytes_[i];
  uint16_t w;
  std::memcpy(&w, &bytes_[i * 2], 2);
  return w;
}

void sqf::set_word(uint64_t i, uint64_t w) {
  if (word_bytes_ == 1) {
    bytes_[i] = static_cast<uint8_t>(w);
  } else {
    uint16_t v = static_cast<uint16_t>(w);
    std::memcpy(&bytes_[i * 2], &v, 2);
  }
}

uint64_t sqf::hash_of(uint64_t key) const {
  return util::murmur64(key) & util::bitmask(q_bits_ + r_bits_);
}

// Classic run locator: walk left to the cluster start, then walk runs and
// occupied quotients forward in lockstep.
uint64_t sqf::find_run_start(uint64_t quotient) const {
  uint64_t b = quotient;
  while (b > 0 && (get_word(b) & kShifted)) --b;
  uint64_t s = b;
  while (b != quotient) {
    do {
      ++s;
    } while (get_word(s) & kContinuation);
    do {
      ++b;
    } while (!(get_word(b) & kOccupied));
  }
  return s;
}

bool sqf::insert_hash(uint64_t hash) {
  bool deferred = false;
  return insert_hash_bounded(hash, total_slots_, &deferred);
}

bool sqf::insert_hash_bounded(uint64_t hash, uint64_t slot_limit,
                              bool* deferred) {
  *deferred = false;
  const uint64_t fq = hash >> r_bits_;
  const uint64_t fr = hash & util::bitmask(r_bits_);
  const uint64_t t_fq = get_word(fq);
  uint64_t entry = fr << 3;

  if (empty_word(t_fq) && !(t_fq & kOccupied)) {
    set_word(fq, entry | kOccupied);
    ++size_;
    return true;
  }

  // Pre-flight: the shift chain ends at the first empty slot; refuse
  // without mutating if it lies at/past the limit (phase safety) or at the
  // table's final slot (kept empty so cluster walks always terminate).
  uint64_t e = fq;
  while (e < total_slots_ && !empty_word(get_word(e))) ++e;
  if (e >= slot_limit || e + 1 >= total_slots_) {
    *deferred = e + 1 < total_slots_;
    return false;
  }

  const bool was_occupied = t_fq & kOccupied;
  if (!was_occupied) set_word(fq, t_fq | kOccupied);

  uint64_t start = find_run_start(fq);
  uint64_t s = start;
  if (was_occupied) {
    // Sorted-run cursor; duplicates are no-ops (set semantics).
    for (;;) {
      uint64_t rem = rem_of(get_word(s));
      if (rem == fr) return true;
      if (rem > fr) break;
      ++s;
      if (!(get_word(s) & kContinuation)) break;
    }
    if (s == start) {
      // Displaced old head becomes a continuation of the new head.
      set_word(start, get_word(start) | kContinuation);
    } else {
      entry |= kContinuation;
    }
  }
  if (s != fq) entry |= kShifted;

  // Shift-insert: slide (remainder, continuation, shifted) triplets right;
  // occupied bits stay with their slots (an empty slot's occupied bit is
  // necessarily clear — a quotient with a run always sits in a cluster).
  uint64_t curr = entry;
  for (;;) {
    uint64_t prev = get_word(s);
    if (empty_word(prev)) {
      set_word(s, curr);
      break;
    }
    prev |= kShifted;
    if (prev & kOccupied) {
      curr |= kOccupied;
      prev &= ~kOccupied;
    }
    set_word(s, curr);
    curr = prev;
    ++s;
  }
  // relaxed: live-item gauge; slot visibility is ordered by the claim CAS.
  size_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool sqf::query_hash(uint64_t hash) const {
  const uint64_t fq = hash >> r_bits_;
  const uint64_t fr = hash & util::bitmask(r_bits_);
  if (!(get_word(fq) & kOccupied)) return false;
  uint64_t s = find_run_start(fq);
  for (;;) {
    uint64_t rem = rem_of(get_word(s));
    if (rem == fr) return true;
    if (rem > fr) return false;
    ++s;
    if (!(get_word(s) & kContinuation)) return false;
  }
}

bool sqf::erase_hash(uint64_t hash) {
  const uint64_t fq = hash >> r_bits_;
  const uint64_t fr = hash & util::bitmask(r_bits_);
  if (!(get_word(fq) & kOccupied)) return false;

  // Locate the element.
  uint64_t pos = find_run_start(fq);
  for (;;) {
    uint64_t rem = rem_of(get_word(pos));
    if (rem == fr) break;
    if (rem > fr) return false;
    ++pos;
    if (!(get_word(pos) & kContinuation)) return false;
  }

  // Cluster rewrite: decode, drop, re-layout (same strategy as the GQF's
  // deleter; see gqf.h).
  uint64_t cs = fq;
  while (cs > 0 && (get_word(cs) & kShifted)) --cs;
  uint64_t ce = cs;
  while (ce < total_slots_ && !empty_word(get_word(ce))) ++ce;

  struct entry {
    uint64_t quotient;
    uint64_t rem;
  };
  std::vector<entry> entries;
  entries.reserve(ce - cs);
  // k-th run in the cluster belongs to the k-th occupied quotient >= cs.
  uint64_t cur_q = cs;
  while (cur_q < ce && !(get_word(cur_q) & kOccupied)) ++cur_q;
  for (uint64_t i = cs; i < ce; ++i) {
    if (i > cs && !(get_word(i) & kContinuation)) {
      // New run begins: advance to the next occupied quotient.
      ++cur_q;
      while (cur_q < ce && !(get_word(cur_q) & kOccupied)) ++cur_q;
    }
    if (i == pos) continue;  // the removed element
    entries.push_back({cur_q, rem_of(get_word(i))});
  }

  for (uint64_t i = cs; i < ce; ++i) set_word(i, 0);

  uint64_t out = cs;
  uint64_t i = 0;
  while (i < entries.size()) {
    uint64_t run_q = entries[i].quotient;
    if (out < run_q) out = run_q;
    uint64_t j = i;
    bool head = true;
    while (j < entries.size() && entries[j].quotient == run_q) {
      uint64_t w = (entries[j].rem << 3) | (head ? 0 : kContinuation) |
                   (out != run_q || !head ? kShifted : 0);
      set_word(out, (get_word(out) & kOccupied) | w);
      head = false;
      ++out;
      ++j;
    }
    set_word(run_q, get_word(run_q) | kOccupied);
    i = j;
  }
  // relaxed: live-item gauge; slot visibility is ordered by the claim CAS.
  size_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

bool sqf::validate() const {
  // Conservation: #occupied quotients == #run heads (continuation == 0 on
  // non-empty slots), runs sorted, shifted bits consistent.
  uint64_t occupied = 0, heads = 0;
  for (uint64_t i = 0; i < total_slots_; ++i) {
    uint64_t w = get_word(i);
    if (w & kOccupied) ++occupied;
    if (!empty_word(w) && !(w & kContinuation)) ++heads;
    if (empty_word(w) && (w & (kContinuation | kShifted))) return false;
  }
  if (occupied != heads) return false;

  // Every cluster decodes: runs map to occupied quotients in order, run
  // heads at canonical position iff not shifted.
  uint64_t i = 0;
  while (i < total_slots_) {
    if (empty_word(get_word(i))) {
      ++i;
      continue;
    }
    // Cluster start must be unshifted.
    if (get_word(i) & kShifted) return false;
    uint64_t cur_q = i;
    while (cur_q < total_slots_ && !(get_word(cur_q) & kOccupied)) ++cur_q;
    uint64_t prev_rem = 0;
    bool first_in_run = true;
    uint64_t j = i;
    for (; j < total_slots_ && !empty_word(get_word(j)); ++j) {
      uint64_t w = get_word(j);
      if (j > i && !(w & kContinuation)) {
        // next run
        ++cur_q;
        while (cur_q < total_slots_ && !(get_word(cur_q) & kOccupied)) ++cur_q;
        first_in_run = true;
      }
      if (cur_q >= total_slots_ || cur_q > j) return false;  // run before slot?
      if (!first_in_run && rem_of(w) < prev_rem) return false;
      if ((j != cur_q) != bool(w & kShifted)) return false;
      prev_rem = rem_of(w);
      first_in_run = false;
    }
    i = j;
  }
  return true;
}

uint64_t sqf::insert_bulk(std::span<const uint64_t> keys) {
  const uint64_t n = keys.size();
  if (n == 0) return 0;
  std::vector<uint64_t> hashes(n);
  gpu::launch_threads(n, [&](uint64_t i) { hashes[i] = hash_of(keys[i]); });
  par::radix_sort(hashes, static_cast<int>(q_bits_ + r_bits_));

  // SQF inserts walk backward to the cluster start, so active regions keep
  // two idle regions on each side: stride-4 phases over the touched regions.
  auto region_of = [&](uint64_t h) { return (h >> r_bits_) / kSqfRegionSlots; };
  const auto phases =
      par::phase_buckets(par::touched_runs(hashes, region_of), /*stride=*/4);
  std::atomic<uint64_t> placed{0};
  std::atomic<uint64_t> defer_cursor{0};
  std::vector<uint64_t> defer_buf(n);

  for (const auto& phase : phases) {
    gpu::launch_threads(
        phase.size(),
        [&](uint64_t ri) {
          const auto [region, begin, end] = phase[ri];
          uint64_t limit = (region + 2) * kSqfRegionSlots;
          if (limit > total_slots_) limit = total_slots_;
          uint64_t local = 0;
          for (uint64_t i = begin; i < end; ++i) {
            bool deferred = false;
            if (insert_hash_bounded(hashes[i], limit, &deferred))
              ++local;
            else if (deferred)
              // relaxed: cursor hands out disjoint indices; data is read after the join.
              defer_buf[defer_cursor.fetch_add(
                  1, std::memory_order_relaxed)] = hashes[i];
          }
          // relaxed: worker-private tally; the launch join publishes it to the reader.
          if (local) placed.fetch_add(local, std::memory_order_relaxed);
        },
        /*grain=*/1);
  }

  // Serial cleanup for phase-refused items.
  uint64_t deferred_n = defer_cursor.load();
  for (uint64_t i = 0; i < deferred_n; ++i) {
    bool d = false;
    if (insert_hash_bounded(defer_buf[i], total_slots_, &d))
      // relaxed: worker-private tally; the launch join publishes it to the reader.
      placed.fetch_add(1, std::memory_order_relaxed);
  }
  return placed.load();
}

uint64_t sqf::count_contained(std::span<const uint64_t> keys) const {
  const uint64_t n = keys.size();
  if (n == 0) return 0;
  // The artifact's sorted-lookup strategy: hash, sort for locality, probe.
  std::vector<uint64_t> hashes(n);
  gpu::launch_threads(n, [&](uint64_t i) { hashes[i] = hash_of(keys[i]); });
  par::radix_sort(hashes, static_cast<int>(q_bits_ + r_bits_));
  return gpu::launch_sum(n, [&](uint64_t begin, uint64_t end) {
    uint64_t found = 0;
    for (uint64_t i = begin; i < end; ++i) found += query_hash(hashes[i]);
    return found;
  });
}

uint64_t sqf::erase_bulk(std::span<const uint64_t> keys) {
  // Serial: the artifact has no parallel delete path (§6.4 measures it two
  // orders of magnitude behind the GQF's phased deleter).
  uint64_t removed = 0;
  for (uint64_t key : keys)
    if (erase_hash(hash_of(key))) ++removed;
  return removed;
}

}  // namespace gf::baselines
