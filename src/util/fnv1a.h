// FNV-1a-64, the one hash behind run fingerprints, cache keys and the
// tier-1 golden hashes (livo::util).
//
// Byte-at-a-time FNV-1a: xor the byte in, multiply by the 64-bit FNV prime.
// The typed Mix overloads fix how a value becomes bytes, because pinned
// fingerprints depend on it: an integer is 8 little-endian bytes, a double
// its bit pattern, a bool 0 or 1 as an integer, and a string mixes each char
// as an integer (8 bytes per char, not 1). MixBytes hashes a raw buffer
// byte by byte.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>

namespace livo::util {

class Fnv1a {
 public:
  void MixBytes(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) MixByte(bytes[i]);
  }
  void Mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) MixByte((v >> (8 * i)) & 0xffu);
  }
  void Mix(double v) { Mix(std::bit_cast<std::uint64_t>(v)); }
  void Mix(bool v) { Mix(static_cast<std::uint64_t>(v)); }
  void Mix(const std::string& s) {
    for (const char c : s) Mix(static_cast<std::uint64_t>(c));
  }
  std::uint64_t value() const { return hash_; }

 private:
  void MixByte(std::uint64_t byte) {
    hash_ ^= byte;
    hash_ *= 1099511628211ull;
  }

  std::uint64_t hash_ = 14695981039346656037ull;
};

}  // namespace livo::util
