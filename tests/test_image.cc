// Unit tests for livo::image — planes, tiling, markers, depth encodings.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "image/depth_encoding.h"
#include "image/image.h"
#include "image/marker.h"
#include "image/tiling.h"
#include "util/rng.h"

namespace livo::image {
namespace {

TEST(Plane, ConstructionAndFill) {
  Plane8 p(16, 8, 7);
  EXPECT_EQ(p.width(), 16);
  EXPECT_EQ(p.height(), 8);
  EXPECT_EQ(p.size(), 128u);
  EXPECT_EQ(p.at(15, 7), 7);
  p.Fill(42);
  EXPECT_EQ(p.at(0, 0), 42);
}

TEST(Plane, RowAccessMatchesAt) {
  Plane16 p(8, 4);
  p.at(3, 2) = 1234;
  EXPECT_EQ(p.row(2)[3], 1234);
}

TEST(Plane, BlitAndCropRoundTrip) {
  Plane8 dst(32, 32, 0);
  Plane8 src(8, 8);
  for (int y = 0; y < 8; ++y)
    for (int x = 0; x < 8; ++x) src.at(x, y) = static_cast<std::uint8_t>(x + y * 8);
  dst.Blit(src, 16, 8);
  EXPECT_EQ(dst.Crop(16, 8, 8, 8), src);
  EXPECT_EQ(dst.at(0, 0), 0);  // untouched area
}

TEST(Plane, BlitOutOfRangeThrows) {
  Plane8 dst(16, 16);
  Plane8 src(8, 8);
  EXPECT_THROW(dst.Blit(src, 12, 0), std::out_of_range);
  EXPECT_THROW(dst.Blit(src, 0, 12), std::out_of_range);
}

TEST(Plane, CropOutOfRangeThrows) {
  Plane8 p(16, 16);
  EXPECT_THROW(p.Crop(10, 10, 8, 8), std::out_of_range);
  EXPECT_THROW(p.Crop(-1, 0, 4, 4), std::out_of_range);
}

// A one-row marker: all kMarkerBits cells side by side.
constexpr int kRowWidth = kMarkerBits * kMarkerCell;

TEST(Marker, RoundTripExactValues) {
  Plane8 plane(kRowWidth, kMarkerCell);
  for (std::uint32_t value : {0u, 1u, 12345u, 0xffffffffu, 0xdeadbeefu}) {
    WriteMarker8(plane, 0, 0, kMarkerBits, value);
    const auto read = ReadMarker8(plane, 0, 0, kMarkerBits);
    ASSERT_TRUE(read.has_value()) << value;
    EXPECT_EQ(*read, value);
  }
}

TEST(Marker, RoundTrip16Bit) {
  Plane16 plane(kRowWidth, kMarkerCell);
  WriteMarker16(plane, 0, 0, kMarkerBits, 987654321u);
  const auto read = ReadMarker16(plane, 0, 0, kMarkerBits);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(*read, 987654321u);
}

TEST(Marker, SurvivesModerateNoise) {
  // Majority vote over 8x8 cells must survive per-pixel noise well beyond
  // typical quantization error.
  Plane8 plane(kRowWidth, kMarkerCell);
  WriteMarker8(plane, 0, 0, kMarkerBits, 7777777u);
  util::Rng rng(7);
  for (auto& v : plane.data()) {
    const int noisy = v + static_cast<int>(rng.Gaussian(0.0, 40.0));
    v = static_cast<std::uint8_t>(std::clamp(noisy, 0, 255));
  }
  const auto read = ReadMarker8(plane, 0, 0, kMarkerBits);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(*read, 7777777u);
}

TEST(Marker, AllZeroRegionFailsChecksum) {
  Plane8 plane(kRowWidth, kMarkerCell, 0);
  EXPECT_FALSE(ReadMarker8(plane, 0, 0, kMarkerBits).has_value());
}

// Inverts cell (column, row) of a marker written at the plane's origin.
void FlipCell(Plane8& plane, int column, int row) {
  for (int y = 0; y < kMarkerCell; ++y) {
    for (int x = 0; x < kMarkerCell; ++x) {
      std::uint8_t& v =
          plane.at(column * kMarkerCell + x, row * kMarkerCell + y);
      v = static_cast<std::uint8_t>(255 - v);
    }
  }
}

TEST(Marker, CorruptedMarkerDetected) {
  Plane8 plane(kRowWidth, kMarkerCell);
  WriteMarker8(plane, 0, 0, kMarkerBits, 42u);
  // Flip two whole bit cells - enough to break the value, checksum catches it.
  FlipCell(plane, 0, 0);
  FlipCell(plane, 3, 0);
  // Either the checksum fails or (rarely) the flip is detected as a value
  // change; both are acceptable, but silently returning 42 is not.
  const auto read = ReadMarker8(plane, 0, 0, kMarkerBits);
  EXPECT_TRUE(!read.has_value() || *read != 42u);
}

// Narrower markers wrap their cells into rows: bit b in cell column
// b % columns, cell row b / columns. Each column count round-trips at an
// offset origin, in both sample depths, with the last row partly filled
// (6, 7, 12) or full (1, 8, 20).
TEST(Marker, WrappedRoundTrip) {
  for (int columns : {1, 6, 7, 8, 12, 20}) {
    SCOPED_TRACE("columns " + std::to_string(columns));
    const int rows = (kMarkerBits + columns - 1) / columns;
    Plane8 plane8(3 + columns * kMarkerCell, 5 + rows * kMarkerCell, 0);
    Plane16 plane16(3 + columns * kMarkerCell, 5 + rows * kMarkerCell, 0);
    for (std::uint32_t value : {0u, 12345u, 0xffffffffu, 0xdeadbeefu}) {
      WriteMarker8(plane8, 3, 5, columns, value);
      WriteMarker16(plane16, 3, 5, columns, value);
      EXPECT_EQ(ReadMarker8(plane8, 3, 5, columns), value);
      EXPECT_EQ(ReadMarker16(plane16, 3, 5, columns), value);
    }
  }
}

TEST(Marker, CorruptedSecondCellRowDetected) {
  const int columns = 12;
  Plane8 plane(columns * kMarkerCell, 4 * kMarkerCell);
  WriteMarker8(plane, 0, 0, columns, 42u);
  ASSERT_EQ(ReadMarker8(plane, 0, 0, columns), 42u);
  // Cells 0 and 3 of the second cell row carry bits 12 and 15.
  FlipCell(plane, 0, 1);
  FlipCell(plane, 3, 1);
  const auto read = ReadMarker8(plane, 0, 0, columns);
  EXPECT_TRUE(!read.has_value() || *read != 42u);
}

TEST(Marker, ZeroColumnsThrows) {
  Plane8 plane(kRowWidth, kMarkerCell);
  EXPECT_THROW(WriteMarker8(plane, 0, 0, 0, 1u), std::invalid_argument);
  EXPECT_THROW(ReadMarker8(plane, 0, 0, 0), std::invalid_argument);
}

class TilingTest : public ::testing::Test {
 protected:
  static std::vector<RgbdFrame> MakeViews(int count, int w, int h) {
    std::vector<RgbdFrame> views;
    util::Rng rng(99);
    for (int i = 0; i < count; ++i) {
      RgbdFrame f(w, h);
      for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
          f.color.SetPixel(x, y, static_cast<std::uint8_t>(rng.NextBelow(256)),
                           static_cast<std::uint8_t>(rng.NextBelow(256)),
                           static_cast<std::uint8_t>(i * 20));
          f.depth.at(x, y) = static_cast<std::uint16_t>(rng.NextBelow(6000));
        }
      }
      views.push_back(std::move(f));
    }
    return views;
  }
};

TEST_F(TilingTest, LayoutGridCoversAllCameras) {
  const TileLayout layout(10, 32, 24);
  EXPECT_EQ(layout.cols() * layout.rows() >= 10, true);
  EXPECT_EQ(layout.camera_count(), 10);
  // Canvas is block-aligned for the codec.
  EXPECT_EQ(layout.canvas_width() % 8, 0);
  EXPECT_EQ(layout.canvas_height() % 8, 0);
  // Marker strip fits below the tiles.
  EXPECT_GE(layout.canvas_height(), layout.rows() * 24 + layout.MarkerHeight());
}

// The canvas is as wide as the tile grid and the marker wraps beneath it.
// The paper's 10-camera rig keeps its one-row marker and 320x224 canvas, so
// every p2p bitstream keeps its geometry; the conference rig's 96x80 grid
// stacks the marker in four rows; a 48-px grid needs seven.
TEST_F(TilingTest, MarkerGeometryPinnedOnThreeRigs) {
  struct Rig {
    int cameras, tile_width, tile_height;
    int canvas_width, canvas_height, columns, marker_height;
  };
  for (const Rig& rig : {Rig{10, 80, 72, 320, 224, 40, 8},
                         Rig{4, 48, 40, 96, 112, 12, 32},
                         Rig{1, 48, 37, 48, 96, 6, 56}}) {
    SCOPED_TRACE("rig " + std::to_string(rig.cameras) + "x" +
                 std::to_string(rig.tile_width) + "x" +
                 std::to_string(rig.tile_height));
    const TileLayout layout(rig.cameras, rig.tile_width, rig.tile_height);
    EXPECT_EQ(layout.canvas_width(), rig.canvas_width);
    EXPECT_EQ(layout.canvas_height(), rig.canvas_height);
    EXPECT_EQ(layout.MarkerColumns(), rig.columns);
    EXPECT_EQ(layout.MarkerHeight(), rig.marker_height);
    EXPECT_LE(layout.MarkerX() + layout.MarkerColumns() * kMarkerCell,
              layout.canvas_width());
    EXPECT_LE(layout.MarkerY() + layout.MarkerHeight(),
              layout.canvas_height());
    const TiledFramePair tiled =
        Tile(layout, MakeViews(rig.cameras, rig.tile_width, rig.tile_height),
             0xdeadbeefu);
    EXPECT_EQ(ReadFrameNumber(layout, tiled.color), 0xdeadbeefu);
    EXPECT_EQ(ReadFrameNumber(layout, tiled.depth), 0xdeadbeefu);
  }
}

TEST_F(TilingTest, TileUntileRoundTrip) {
  const TileLayout layout(10, 32, 24);
  const auto views = MakeViews(10, 32, 24);
  const TiledFramePair tiled = Tile(layout, views, 17);
  const auto back = Untile(layout, tiled.color, tiled.depth);
  ASSERT_EQ(back.size(), views.size());
  for (std::size_t i = 0; i < views.size(); ++i) {
    EXPECT_EQ(back[i].color, views[i].color) << "camera " << i;
    EXPECT_EQ(back[i].depth, views[i].depth) << "camera " << i;
  }
}

TEST_F(TilingTest, FrameNumberStampedAndRead) {
  const TileLayout layout(4, 80, 72);
  const auto views = MakeViews(4, 80, 72);
  const TiledFramePair tiled = Tile(layout, views, 123456u);
  EXPECT_EQ(ReadFrameNumber(layout, tiled.color), 123456u);
  EXPECT_EQ(ReadFrameNumber(layout, tiled.depth), 123456u);
}

TEST_F(TilingTest, TilesPlacedAtDistinctPositions) {
  const TileLayout layout(10, 32, 24);
  for (int i = 0; i < 10; ++i) {
    for (int j = i + 1; j < 10; ++j) {
      EXPECT_TRUE(layout.TileX(i) != layout.TileX(j) ||
                  layout.TileY(i) != layout.TileY(j));
    }
  }
}

TEST_F(TilingTest, WrongViewCountThrows) {
  const TileLayout layout(10, 32, 24);
  auto views = MakeViews(9, 32, 24);
  EXPECT_THROW(Tile(layout, views, 0), std::invalid_argument);
}

TEST_F(TilingTest, WrongViewSizeThrows) {
  const TileLayout layout(4, 32, 24);
  auto views = MakeViews(4, 16, 24);
  EXPECT_THROW(Tile(layout, views, 0), std::invalid_argument);
}

TEST(DepthScaler, ScaleExpandsToFullRange) {
  const DepthScaler scaler{6000};
  EXPECT_EQ(scaler.Scale(0), 0);            // invalid stays invalid
  EXPECT_EQ(scaler.Scale(6000), 65535);     // max range hits full scale
  EXPECT_EQ(scaler.Scale(7000), 65535);     // clamped beyond range
  // Monotone.
  EXPECT_LT(scaler.Scale(1000), scaler.Scale(2000));
}

TEST(DepthScaler, RoundTripWithinOneMillimetre) {
  const DepthScaler scaler{6000};
  for (std::uint16_t d = 1; d <= 6000; d += 7) {
    const std::uint16_t back = scaler.Unscale(scaler.Scale(d));
    EXPECT_NEAR(back, d, 1) << "depth " << d;
  }
}

TEST(DepthScaler, NearbyValuesStayDistinct) {
  // The motivation for scaling (§3.2): adjacent millimetre values must map
  // to well-separated code values (6000 mm over 65536 codes = ~10.9 apart).
  const DepthScaler scaler{6000};
  EXPECT_GE(scaler.Scale(1001) - scaler.Scale(1000), 10);
}

TEST(DepthScaler, PlaneHelpersMatchScalar) {
  const DepthScaler scaler{6000};
  Plane16 depth(8, 8);
  util::Rng rng(3);
  for (auto& v : depth.data()) v = static_cast<std::uint16_t>(rng.NextBelow(6001));
  const Plane16 scaled = ScaleDepth(depth, scaler);
  for (std::size_t i = 0; i < depth.data().size(); ++i) {
    EXPECT_EQ(scaled.data()[i], scaler.Scale(depth.data()[i]));
  }
  const Plane16 back = UnscaleDepth(scaled, scaler);
  for (std::size_t i = 0; i < depth.data().size(); ++i) {
    EXPECT_NEAR(back.data()[i], depth.data()[i], 1);
  }
}

TEST(RgbPackedDepth, LosslessRoundTripWithoutCompression) {
  Plane16 depth(16, 16);
  util::Rng rng(11);
  for (auto& v : depth.data()) v = static_cast<std::uint16_t>(rng.NextBelow(65536));
  const ColorImage packed = PackDepthToRgb(depth);
  const Plane16 back = UnpackDepthFromRgb(packed);
  EXPECT_EQ(back, depth);

  // Through the codec's three 16-bit planes and back, as Fig 17 feeds it.
  const std::vector<Plane16> planes = PackedRgbToPlanes(packed);
  ASSERT_EQ(planes.size(), 3u);
  for (std::size_t i = 0; i < depth.data().size(); ++i) {
    EXPECT_EQ(planes[0].data()[i], packed.r.data()[i]);
    EXPECT_EQ(planes[1].data()[i], packed.g.data()[i]);
    EXPECT_EQ(planes[2].data()[i], packed.b.data()[i]);
  }
  EXPECT_EQ(UnpackDepthFromRgb(PlanesToPackedRgb(planes)), depth);
  EXPECT_THROW(PlanesToPackedRgb({planes[0], planes[1]}),
               std::invalid_argument);
}

TEST(RgbPackedDepth, LowByteWrapsCreateDiscontinuities) {
  // Demonstrates why RGB packing suffers under lossy coding (Fig 17): a
  // smooth depth ramp produces a sawtooth in the low-byte channel.
  Plane16 depth(256, 1);
  for (int x = 0; x < 256; ++x) depth.at(x, 0) = static_cast<std::uint16_t>(1000 + x * 2);
  const ColorImage packed = PackDepthToRgb(depth);
  int wraps = 0;
  for (int x = 1; x < 256; ++x) {
    if (std::abs(int(packed.g.at(x, 0)) - int(packed.g.at(x - 1, 0))) > 128) ++wraps;
  }
  EXPECT_GE(wraps, 1);
}

}  // namespace
}  // namespace livo::image
