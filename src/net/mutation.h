// The one mapping from a mutating wire opcode to its store call.  The
// server (every reactor's part of a client or feed batch) and WAL replay
// (persist/durability.cpp) both apply mutations here, into the store's
// key-span bulk tier, so replicas and recovered stores take exactly the
// primary's store calls and stay byte-identical with it.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>

#include "net/codec.h"
#include "store/store.h"

namespace gf::net {

/// Apply one mutating batch (INSERT, INSERT_COUNTED or ERASE; `counts` is
/// read for INSERT_COUNTED only) and return its wire result, counted in
/// the request's unit (codec.h).  Host-phased like the store's bulk tier.
inline pair_result apply_mutation(store::filter_store& st, opcode op,
                                  std::span<const uint64_t> keys,
                                  std::span<const uint64_t> counts) {
  uint64_t ok = 0;
  switch (op) {
    case opcode::insert:
      ok = st.insert_bulk(keys);
      break;
    case opcode::insert_counted:
      ok = st.insert_counted(keys, counts);
      break;
    case opcode::erase:
      ok = st.erase_bulk(keys);
      break;
    default:
      throw std::logic_error("gf: apply_mutation on a non-mutating opcode");
  }
  return {ok, keys.size() - ok};
}

}  // namespace gf::net
