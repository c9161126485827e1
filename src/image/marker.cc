#include "image/marker.h"

#include <stdexcept>

namespace livo::image {
namespace {

// Assembles the 40-bit payload: value then checksum, MSB first.
std::uint64_t Payload(std::uint32_t value) {
  return (static_cast<std::uint64_t>(value) << 8) | MarkerChecksum(value);
}

void CheckColumns(int columns) {
  if (columns < 1) throw std::invalid_argument("marker needs a column");
}

template <typename T>
void WriteMarkerImpl(Plane<T>& plane, int x, int y, int columns,
                     std::uint32_t value, T zero, T one) {
  CheckColumns(columns);
  const std::uint64_t payload = Payload(value);
  for (int bit = 0; bit < kMarkerBits; ++bit) {
    const bool set = (payload >> (kMarkerBits - 1 - bit)) & 1u;
    const T v = set ? one : zero;
    // Cell column bit % columns, cell row bit / columns.
    const int cx = x + bit % columns * kMarkerCell;
    const int cy = y + bit / columns * kMarkerCell;
    for (int dy = 0; dy < kMarkerCell; ++dy) {
      for (int dx = 0; dx < kMarkerCell; ++dx) {
        plane.at(cx + dx, cy + dy) = v;
      }
    }
  }
}

template <typename T>
std::optional<std::uint32_t> ReadMarkerImpl(const Plane<T>& plane, int x, int y,
                                            int columns, double threshold) {
  CheckColumns(columns);
  std::uint64_t payload = 0;
  for (int bit = 0; bit < kMarkerBits; ++bit) {
    // Majority vote over the cell: average intensity vs mid-scale threshold.
    const int cx = x + bit % columns * kMarkerCell;
    const int cy = y + bit / columns * kMarkerCell;
    double sum = 0.0;
    for (int dy = 0; dy < kMarkerCell; ++dy) {
      for (int dx = 0; dx < kMarkerCell; ++dx) {
        sum += plane.at(cx + dx, cy + dy);
      }
    }
    const double mean = sum / (kMarkerCell * kMarkerCell);
    payload = (payload << 1) | (mean > threshold ? 1u : 0u);
  }
  const auto value = static_cast<std::uint32_t>(payload >> 8);
  const auto checksum = static_cast<std::uint8_t>(payload & 0xff);
  if (checksum != MarkerChecksum(value)) return std::nullopt;
  return value;
}

}  // namespace

std::uint8_t MarkerChecksum(std::uint32_t value) {
  // XOR fold plus a constant so an all-zero marker region fails validation.
  std::uint8_t c = 0xa5;
  for (int i = 0; i < 4; ++i) c ^= static_cast<std::uint8_t>(value >> (8 * i));
  return c;
}

void WriteMarker8(Plane8& plane, int x, int y, int columns,
                  std::uint32_t value) {
  WriteMarkerImpl<std::uint8_t>(plane, x, y, columns, value, 0, 255);
}

void WriteMarker16(Plane16& plane, int x, int y, int columns,
                   std::uint32_t value) {
  WriteMarkerImpl<std::uint16_t>(plane, x, y, columns, value, 0, 65535);
}

std::optional<std::uint32_t> ReadMarker8(const Plane8& plane, int x, int y,
                                         int columns) {
  return ReadMarkerImpl<std::uint8_t>(plane, x, y, columns, 127.5);
}

std::optional<std::uint32_t> ReadMarker16(const Plane16& plane, int x, int y,
                                          int columns) {
  return ReadMarkerImpl<std::uint16_t>(plane, x, y, columns, 32767.5);
}

std::optional<std::uint32_t> ReadMarkerRgb(const ColorImage& color, int x,
                                           int y, int columns) {
  for (const Plane8* plane : {&color.g, &color.r, &color.b}) {
    if (auto v = ReadMarker8(*plane, x, y, columns)) return v;
  }
  return std::nullopt;
}

}  // namespace livo::image
