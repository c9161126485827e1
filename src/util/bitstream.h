// Bit-level I/O shared by the video codec (livo::video) and the point-cloud
// codec (livo::pccodec). Writing is MSB-first within each byte so that the
// encoded stream is byte-order independent.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

namespace livo::util {

// Append-only bit writer backed by a byte vector.
class BitWriter {
 public:
  // Writes the lowest `bits` bits of `value`, MSB first. bits in [0, 64].
  // Fills the current byte as far as it goes per step, so a call costs one
  // step per byte touched rather than one per bit.
  void WriteBits(std::uint64_t value, int bits) {
    while (bits > 0) {
      if (bit_pos_ == 0) buffer_.push_back(0);
      const int room = 8 - bit_pos_;
      const int n = bits < room ? bits : room;
      bits -= n;
      const auto chunk = static_cast<unsigned>(value >> bits) & ((1u << n) - 1);
      buffer_.back() |= static_cast<std::uint8_t>(chunk << (room - n));
      bit_pos_ = (bit_pos_ + n) & 7;
    }
  }

  void WriteBit(int bit) {
    if (bit_pos_ == 0) buffer_.push_back(0);
    if (bit) buffer_.back() |= static_cast<std::uint8_t>(1u << (7 - bit_pos_));
    bit_pos_ = (bit_pos_ + 1) & 7;
  }

  // Unsigned Exp-Golomb code (order 0): efficient for small magnitudes,
  // which dominate quantized transform coefficients and octree child counts.
  // The code of value is len zeros, then value + 1 in len + 1 bits, where
  // len = floor(log2(value + 1)). 2^64 - 1 has no such code (value + 1
  // overflows) and throws std::invalid_argument.
  void WriteUE(std::uint64_t value) {
    if (value == std::numeric_limits<std::uint64_t>::max()) {
      throw std::invalid_argument("BitWriter: UE value 2^64-1 has no code");
    }
    const std::uint64_t v = value + 1;
    const int len = static_cast<int>(std::bit_width(v)) - 1;
    if (len < 32) {
      WriteBits(v, 2 * len + 1);  // v < 2^(len+1): its top len bits are 0
    } else {
      WriteBits(0, len);
      WriteBits(v, len + 1);
    }
  }

  // Signed Exp-Golomb: maps 0, 1, -1, 2, -2, ... to 0, 1, 2, 3, 4, ...
  // INT64_MIN maps past 2^64 - 1 and throws std::invalid_argument.
  void WriteSE(std::int64_t value) {
    if (value == std::numeric_limits<std::int64_t>::min()) {
      throw std::invalid_argument("BitWriter: SE value INT64_MIN has no code");
    }
    const std::uint64_t mapped =
        value > 0 ? static_cast<std::uint64_t>(value) * 2 - 1
                  : static_cast<std::uint64_t>(-value) * 2;
    WriteUE(mapped);
  }

  // Pads the final partial byte with zeros and returns the stream.
  std::vector<std::uint8_t> Finish() {
    bit_pos_ = 0;
    return std::move(buffer_);
  }

  std::size_t BitCount() const {
    return buffer_.size() * 8 - (bit_pos_ == 0 ? 0 : (8 - bit_pos_));
  }

 private:
  std::vector<std::uint8_t> buffer_;
  int bit_pos_ = 0;  // next free bit within buffer_.back(); 0 = byte boundary
};

// Sequential bit reader over an encoded byte span. Reads take up to a byte
// per step; every read returns, and leaves the position at, what reading
// one bit at a time would. Reading past the end throws std::out_of_range
// and leaves the reader at the end.
class BitReader {
 public:
  BitReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_bits_(size * 8) {}
  explicit BitReader(const std::vector<std::uint8_t>& data)
      : BitReader(data.data(), data.size()) {}

  int ReadBit() {
    if (pos_ >= size_bits_) ThrowPastEnd();
    const std::uint8_t byte = data_[pos_ >> 3];
    const int bit = (byte >> (7 - (pos_ & 7))) & 1;
    ++pos_;
    return bit;
  }

  // Reads `bits` bits MSB first; bits <= 0 reads nothing and returns 0,
  // and of more than 64 bits the last 64 are returned.
  std::uint64_t ReadBits(int bits) {
    if (bits <= 0) return 0;
    if (static_cast<std::size_t>(bits) > size_bits_ - pos_) ThrowPastEnd();
    std::uint64_t value = 0;
    while (bits > 0) {
      const int room = 8 - static_cast<int>(pos_ & 7);  // unread bits of byte
      const int n = bits < room ? bits : room;
      const unsigned chunk = (data_[pos_ >> 3] >> (room - n)) & ((1u << n) - 1);
      value = (value << n) | chunk;
      pos_ += static_cast<std::size_t>(n);
      bits -= n;
    }
    return value;
  }

  // Inverse of BitWriter::WriteUE. Counts leading zeros over the rest of
  // the current byte per step; the 64th leading zero throws
  // std::runtime_error with the reader just past it.
  std::uint64_t ReadUE() {
    int len = 0;
    for (;;) {
      if (pos_ >= size_bits_) ThrowPastEnd();
      const int offset = static_cast<int>(pos_ & 7);
      // The byte's unread bits, moved to the top of a byte.
      const auto rest = static_cast<std::uint8_t>(data_[pos_ >> 3] << offset);
      const int zeros = rest == 0 ? 8 - offset : std::countl_zero(rest);
      if (len + zeros > 63) {
        pos_ += static_cast<std::size_t>(64 - len);
        throw std::runtime_error("BitReader: corrupt UE code");
      }
      len += zeros;
      pos_ += static_cast<std::size_t>(zeros);
      if (rest != 0) break;
    }
    ++pos_;  // the code's 1 bit
    return ((std::uint64_t{1} << len) | ReadBits(len)) - 1;
  }

  std::int64_t ReadSE() {
    const std::uint64_t mapped = ReadUE();
    if (mapped == 0) return 0;
    const auto half = static_cast<std::int64_t>((mapped + 1) / 2);
    return (mapped & 1) ? half : -half;
  }

  std::size_t BitsRemaining() const { return size_bits_ - pos_; }
  bool AtEnd() const { return pos_ >= size_bits_; }

 private:
  [[noreturn]] void ThrowPastEnd() {
    pos_ = size_bits_;
    throw std::out_of_range("BitReader: read past end of stream");
  }

  const std::uint8_t* data_;
  std::size_t size_bits_;
  std::size_t pos_ = 0;
};

}  // namespace livo::util
