// Stream composition by tiling (§3.2).
//
// LiVo multiplexes the N color and N depth images into exactly two video
// streams by tiling the per-camera images onto a fixed grid inside one large
// frame ("Tiled color view for 10 Kinect cameras", Fig. 3). Because every
// camera's image occupies the same grid cell in every frame, macroblock
// locality is preserved and 2D inter-frame prediction keeps working.
//
// A marker strip beneath the grid carries the in-band frame sequence number
// (the paper embeds a QR code; see marker.h). The canvas is as wide as the
// grid, rounded up to a whole macroblock, and the marker's 40 cells wrap
// into rows as wide as the canvas: the paper's 10-camera rig (a 320-px grid)
// holds them in one row, the conference rig's 96-px grid in four.
#pragma once

#include <algorithm>
#include <vector>

#include "image/image.h"
#include "image/marker.h"

namespace livo::image {

// Static arrangement of N per-camera images on a tiled canvas.
class TileLayout {
 public:
  // Chooses a near-square cols x rows grid for `camera_count` tiles of
  // `tile_width` x `tile_height`, plus the marker strip beneath it.
  TileLayout(int camera_count, int tile_width, int tile_height);

  int camera_count() const { return camera_count_; }
  int tile_width() const { return tile_width_; }
  int tile_height() const { return tile_height_; }
  int cols() const { return cols_; }
  int rows() const { return rows_; }
  int canvas_width() const { return canvas_width_; }
  int canvas_height() const { return canvas_height_; }

  // Top-left corner of camera i's tile.
  int TileX(int camera) const { return (camera % cols_) * tile_width_; }
  int TileY(int camera) const { return (camera / cols_) * tile_height_; }

  // Pixel origin of the marker strip.
  int MarkerX() const { return 0; }
  int MarkerY() const { return rows_ * tile_height_; }
  // Marker cells per row: as many as the canvas width holds, at most all.
  int MarkerColumns() const {
    return std::min(kMarkerBits, canvas_width_ / kMarkerCell);
  }
  // Pixel height of the strip: ceil(kMarkerBits / columns) cell rows.
  int MarkerHeight() const {
    return (kMarkerBits + MarkerColumns() - 1) / MarkerColumns() *
           kMarkerCell;
  }

 private:
  int camera_count_;
  int tile_width_;
  int tile_height_;
  int cols_;
  int rows_;
  int canvas_width_;
  int canvas_height_;
};

// Tiled color + depth canvases for one point-in-time capture, stamped with
// a frame sequence number in the marker strip.
struct TiledFramePair {
  ColorImage color;    // tiled color canvas
  DepthImage depth;    // tiled depth canvas
};

// Tiles per-camera RGB-D frames onto the two canvases and stamps the frame
// number. `views.size()` must equal layout.camera_count().
TiledFramePair Tile(const TileLayout& layout,
                    const std::vector<RgbdFrame>& views,
                    std::uint32_t frame_number);

// Splits tiled canvases back into per-camera frames (receiver side).
std::vector<RgbdFrame> Untile(const TileLayout& layout, const ColorImage& color,
                              const DepthImage& depth);

// Returns the canvas region holding camera tiles only (excludes the marker
// strip, whose saturated bit pattern is not depth/color content and must
// not enter image-domain quality metrics).
template <typename T>
Plane<T> TileBody(const TileLayout& layout, const Plane<T>& canvas) {
  return canvas.Crop(0, 0, layout.canvas_width(), layout.MarkerY());
}

// Reads the frame number stamped into a tiled canvas; nullopt if the marker
// was destroyed (e.g. by extreme compression).
std::optional<std::uint32_t> ReadFrameNumber(const TileLayout& layout,
                                             const ColorImage& color);
std::optional<std::uint32_t> ReadFrameNumber(const TileLayout& layout,
                                             const DepthImage& depth);

}  // namespace livo::image
