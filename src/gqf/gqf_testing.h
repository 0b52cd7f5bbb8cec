// White-box introspection for tests (friend of gqf_filter).
//
// The GQF's correctness hinges on non-obvious bookkeeping — block offsets,
// runend placement, counter flags — that black-box queries cannot pin
// down.  Tests use this shim to craft exact slot layouts and assert on
// the internal state transitions the CQF literature specifies.
#pragma once

#include <cstdint>

#include "gqf/gqf.h"

namespace gf::gqf {

template <class SlotT>
struct gqf_introspect {
  const gqf_filter<SlotT>& f;

  bool occupied(uint64_t q) const { return f.is_occupied(q); }
  bool runend(uint64_t i) const { return f.is_runend(i); }
  bool count_flag(uint64_t i) const { return f.is_count(i); }
  SlotT slot(uint64_t i) const { return f.get_slot(i); }
  uint16_t block_offset(uint64_t b) const { return f.blocks_[b].offset; }
  uint64_t run_end(uint64_t q) const { return f.run_end(q); }
  uint64_t run_start(uint64_t q) const { return f.run_start(q); }
  uint64_t find_first_empty(uint64_t from) const {
    return f.find_first_empty_slot(from, f.total_slots());
  }
  bool slot_empty(uint64_t i) const { return f.is_slot_empty(i); }
};

}  // namespace gf::gqf
