// Software prefetch: the CPU's way to keep a cache-line fetch in flight
// while earlier work proceeds, as a GPU hides a load behind its other warps.
#pragma once

namespace gf::util {

/// Start the fetch of p's cache line; `write` hints that the line will be
/// written.  The empty asm marks the address as used: without it gcc 12
/// -O1 and up deletes a prefetch whose address feeds nothing else, and a
/// pipeline built on it emits no prefetch at all.
inline void prefetch_line(const void* p, bool write = false) {
#if defined(__GNUC__) || defined(__clang__)
  asm volatile("" : : "r"(p));
  // The hint must be a constant expression, hence the two calls.
  if (write)
    __builtin_prefetch(p, 1);
  else
    __builtin_prefetch(p, 0);
#else
  (void)p;
  (void)write;
#endif
}

}  // namespace gf::util
