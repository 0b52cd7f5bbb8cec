// Minimal binary serialization helpers for filter save/load.
//
// Format: little-endian PODs, a per-structure magic + version header, and
// raw slot/metadata arrays.  Files are host-order (x86-64 little-endian);
// loaders verify magic, version, and geometry before touching payload, so
// truncated or foreign files fail cleanly instead of corrupting state.
#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <type_traits>
#include <vector>

namespace gf::util {

template <class T>
void write_pod(std::ostream& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <class T>
T read_pod(std::istream& in) {
  static_assert(std::is_trivially_copyable_v<T>);
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) throw std::runtime_error("gf: truncated filter file");
  return value;
}

/// An array as a u64 element count, then the raw elements.
template <class T>
void write_array(std::ostream& out, const T* data, uint64_t n) {
  static_assert(std::is_trivially_copyable_v<T>);
  write_pod<uint64_t>(out, n);
  out.write(reinterpret_cast<const char*>(data),
            static_cast<std::streamsize>(n * sizeof(T)));
}

/// Read the n raw elements that follow write_array's count into data.
template <class T>
void read_elements(std::istream& in, T* data, uint64_t n) {
  static_assert(std::is_trivially_copyable_v<T>);
  in.read(reinterpret_cast<char*>(data),
          static_cast<std::streamsize>(n * sizeof(T)));
  if (!in) throw std::runtime_error("gf: truncated filter file");
}

template <class T>
void write_vec(std::ostream& out, const std::vector<T>& vec) {
  write_array(out, vec.data(), vec.size());
}

template <class T>
std::vector<T> read_vec(std::istream& in) {
  std::vector<T> vec(read_pod<uint64_t>(in));
  read_elements(in, vec.data(), vec.size());
  return vec;
}

/// Verify a magic/version header on load.
inline void expect_header(std::istream& in, uint64_t magic,
                          uint32_t version) {
  if (read_pod<uint64_t>(in) != magic)
    throw std::runtime_error("gf: not a filter file (bad magic)");
  uint32_t v = read_pod<uint32_t>(in);
  if (v != version)
    throw std::runtime_error("gf: unsupported filter file version " +
                             std::to_string(v));
}

inline void write_header(std::ostream& out, uint64_t magic,
                         uint32_t version) {
  write_pod(out, magic);
  write_pod(out, version);
}

}  // namespace gf::util
