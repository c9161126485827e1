#include "image/tiling.h"

#include <cmath>
#include <stdexcept>

namespace livo::image {
namespace {

// Rounds up to a multiple of `m` (the codec works on whole macroblocks).
int RoundUp(int v, int m) { return (v + m - 1) / m * m; }

}  // namespace

TileLayout::TileLayout(int camera_count, int tile_width, int tile_height)
    : camera_count_(camera_count),
      tile_width_(tile_width),
      tile_height_(tile_height) {
  if (camera_count <= 0) throw std::invalid_argument("camera_count must be > 0");
  // Near-square grid, wide rather than tall (mirrors the paper's 5x2
  // arrangement of 10 Kinect tiles in a 4K canvas).
  cols_ = static_cast<int>(std::ceil(std::sqrt(static_cast<double>(camera_count))));
  rows_ = (camera_count + cols_ - 1) / cols_;
  canvas_width_ = RoundUp(cols_ * tile_width_, 8);
  canvas_height_ = RoundUp(MarkerY() + MarkerHeight(), 8);
}

TiledFramePair Tile(const TileLayout& layout, const std::vector<RgbdFrame>& views,
                    std::uint32_t frame_number) {
  if (static_cast<int>(views.size()) != layout.camera_count()) {
    throw std::invalid_argument("view count does not match layout");
  }
  TiledFramePair out;
  out.color = ColorImage(layout.canvas_width(), layout.canvas_height());
  out.depth = DepthImage(layout.canvas_width(), layout.canvas_height());

  for (int i = 0; i < layout.camera_count(); ++i) {
    const RgbdFrame& view = views[static_cast<std::size_t>(i)];
    if (view.width() != layout.tile_width() ||
        view.height() != layout.tile_height()) {
      throw std::invalid_argument("camera frame size does not match tile size");
    }
    const int x = layout.TileX(i), y = layout.TileY(i);
    out.color.r.Blit(view.color.r, x, y);
    out.color.g.Blit(view.color.g, x, y);
    out.color.b.Blit(view.color.b, x, y);
    out.depth.Blit(view.depth, x, y);
  }

  const int x = layout.MarkerX(), y = layout.MarkerY();
  const int columns = layout.MarkerColumns();
  WriteMarker8(out.color.r, x, y, columns, frame_number);
  WriteMarker8(out.color.g, x, y, columns, frame_number);
  WriteMarker8(out.color.b, x, y, columns, frame_number);
  WriteMarker16(out.depth, x, y, columns, frame_number);
  return out;
}

std::vector<RgbdFrame> Untile(const TileLayout& layout, const ColorImage& color,
                              const DepthImage& depth) {
  if (color.width() != layout.canvas_width() ||
      color.height() != layout.canvas_height() ||
      depth.width() != layout.canvas_width() ||
      depth.height() != layout.canvas_height()) {
    throw std::invalid_argument("canvas size does not match layout");
  }
  std::vector<RgbdFrame> views;
  views.reserve(static_cast<std::size_t>(layout.camera_count()));
  const int w = layout.tile_width(), h = layout.tile_height();
  for (int i = 0; i < layout.camera_count(); ++i) {
    const int x = layout.TileX(i), y = layout.TileY(i);
    RgbdFrame view;
    view.color.r = color.r.Crop(x, y, w, h);
    view.color.g = color.g.Crop(x, y, w, h);
    view.color.b = color.b.Crop(x, y, w, h);
    view.depth = depth.Crop(x, y, w, h);
    views.push_back(std::move(view));
  }
  return views;
}

std::optional<std::uint32_t> ReadFrameNumber(const TileLayout& layout,
                                             const ColorImage& color) {
  return ReadMarkerRgb(color, layout.MarkerX(), layout.MarkerY(),
                       layout.MarkerColumns());
}

std::optional<std::uint32_t> ReadFrameNumber(const TileLayout& layout,
                                             const DepthImage& depth) {
  return ReadMarker16(depth, layout.MarkerX(), layout.MarkerY(),
                      layout.MarkerColumns());
}

}  // namespace livo::image
