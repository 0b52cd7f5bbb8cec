// A fixed-size owning array whose elements start as all-zero bytes, for
// tables whose empty slot is zero (the point TCF's block array).
//
// A filter probe is one or two random cache-line fetches across the whole
// table (paper §4, §6.3).  On a table of hundreds of MiB in 4 KiB pages
// nearly every such fetch is also a TLB miss and a page walk, since the
// STLB covers a few MiB.  So an array of at least kHugePageBytes (one
// x86-64 huge page, 2 MiB) is its own anonymous mapping, aligned to
// 2 MiB and advised MADV_HUGEPAGE, which grants transparent huge pages
// when the host's THP mode is `always` or `madvise`.  The mapping is
// never touched here: fresh anonymous pages read as zero, which is
// already the empty table.
//
// Costs and fallbacks:
//  * Construction is O(1) whatever the size.  The page faults move into
//    the first writes instead: one fault per 2 MiB page the first time it
//    is touched (one per 4 KiB page without THP), with the kernel zeroing
//    the page then.
//  * When madvise fails (a kernel without THP) or THP is `never`, the
//    advice is ignored and the table gets 4 KiB pages, still lazily zeroed
//    and 2 MiB-aligned; answers and bytes do not change.
//  * The mapping is rounded up to whole 2 MiB pages; size() and bytes()
//    report the elements alone.
//  * Below kHugePageBytes the array is what std::vector<T>(n) allocates:
//    std::allocator plus value-initialisation, so small tables cost what
//    they always did.
//
// T must be trivially copyable and destructible, and all-zero bytes must
// be a valid value of it (an implicit-lifetime type such as an aggregate
// of integers).
#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace gf::util {

/// One x86-64 huge page: the size from which zeroed_array maps its own
/// huge-page-backed storage.
inline constexpr size_t kHugePageBytes = size_t{2} << 20;

template <class T>
class zeroed_array {
  static_assert(std::is_trivially_copyable_v<T> &&
                std::is_trivially_destructible_v<T>);

 public:
  zeroed_array() = default;
  explicit zeroed_array(size_t n) : data_(allocate(n)), size_(n) {}
  zeroed_array(const zeroed_array& other) : zeroed_array(other.size_) {
    if (size_ != 0) std::memcpy(data_, other.data_, bytes());
  }
  zeroed_array(zeroed_array&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  zeroed_array& operator=(zeroed_array other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    return *this;
  }
  ~zeroed_array() { release(data_, size_); }

  size_t size() const { return size_; }
  /// The elements' bytes, not the (rounded-up) mapping's.
  size_t bytes() const { return size_ * sizeof(T); }
  T* data() { return data_; }
  const T* data() const { return data_; }
  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

 private:
  static bool mapped(size_t n) { return n * sizeof(T) >= kHugePageBytes; }
  static size_t mapping_bytes(size_t n) {
    return (n * sizeof(T) + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
  }

  static T* allocate(size_t n) {
    if (n == 0) return nullptr;
    if (n > (std::numeric_limits<size_t>::max() - 2 * kHugePageBytes) /
                sizeof(T))
      throw std::length_error("gf: zeroed_array too large");
    if (!mapped(n)) {
      T* p = std::allocator<T>{}.allocate(n);
      std::uninitialized_value_construct_n(p, n);
      return p;
    }
    // Over-map by one huge page, then unmap the unaligned head and tail.
    const size_t len = mapping_bytes(n);
    void* raw = mmap(nullptr, len + kHugePageBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (raw == MAP_FAILED) throw std::bad_alloc();
    const auto base = reinterpret_cast<uintptr_t>(raw);
    const uintptr_t aligned =
        (base + kHugePageBytes - 1) & ~uintptr_t{kHugePageBytes - 1};
    if (aligned != base) munmap(raw, aligned - base);
    const uintptr_t tail = base + kHugePageBytes - aligned;
    if (tail != 0) munmap(reinterpret_cast<void*>(aligned + len), tail);
#ifdef MADV_HUGEPAGE
    // Advice only: on failure the mapping keeps 4 KiB pages.
    madvise(reinterpret_cast<void*>(aligned), len, MADV_HUGEPAGE);
#endif
    return reinterpret_cast<T*>(aligned);
  }

  static void release(T* p, size_t n) {
    if (p == nullptr) return;
    if (mapped(n))
      munmap(p, mapping_bytes(n));
    else
      std::allocator<T>{}.deallocate(p, n);
  }

  T* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace gf::util
