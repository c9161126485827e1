// In-band frame sequence numbers (§A.1).
//
// "WebRTC does not permit embedding frame numbers in video streams.
// Following prior work, the LiVo sender embeds a (pre-generated) QR code in
// each 4K depth and color tiled frame that encodes the frame sequence
// number. The receiver decodes the QR code to obtain frame sequence numbers."
//
// We achieve the same with a simpler high-redundancy marker: each of the 40
// payload bits (the 32-bit frame number, then an 8-bit checksum, MSB first)
// is rendered as a kMarkerCell x kMarkerCell block of saturated black/white
// pixels. Majority vote over the block recovers bits reliably after lossy
// transform coding. The cells wrap into rows of `columns` cells: bit b sits
// in cell column b % columns and cell row b / columns, so a marker of 40
// columns is one strip and a narrower one stacks ceil(40 / columns) rows.
// TileLayout (tiling.h) chooses the column count that fits its canvas.
#pragma once

#include <cstdint>
#include <optional>

#include "image/image.h"

namespace livo::image {

// Marker geometry: 32 data bits + 8 checksum bits, one cell per bit.
inline constexpr int kMarkerCell = 8;          // pixels per bit cell (square)
inline constexpr int kMarkerBits = 40;         // 32 value + 8 checksum

// XOR-folded checksum of the 32-bit value.
std::uint8_t MarkerChecksum(std::uint32_t value);

// Writes the marker for `value` with its top-left cell at (x, y), in rows of
// `columns` cells, into an 8-bit plane (color: the marker is written
// identically into all three planes) or a 16-bit plane (depth canvas).
// The writers and readers throw std::invalid_argument if `columns` < 1.
void WriteMarker8(Plane8& plane, int x, int y, int columns,
                  std::uint32_t value);
void WriteMarker16(Plane16& plane, int x, int y, int columns,
                   std::uint32_t value);

// Reads a marker written with the same origin and column count; nullopt if
// the checksum fails (marker destroyed).
std::optional<std::uint32_t> ReadMarker8(const Plane8& plane, int x, int y,
                                         int columns);
std::optional<std::uint32_t> ReadMarker16(const Plane16& plane, int x, int y,
                                          int columns);

// Reads a marker written into all three planes of an RGB image: the first
// of G, R, B whose checksum validates (robust to chroma-heavy distortion).
std::optional<std::uint32_t> ReadMarkerRgb(const ColorImage& color, int x,
                                           int y, int columns);

}  // namespace livo::image
