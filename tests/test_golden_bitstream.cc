// Golden-bitstream regression test.
//
// Encodes the first two frames (one keyframe + one P-frame, so intra,
// inter and motion-search paths all contribute) of each of the five
// evaluation sequences and pins an FNV-1a hash of the serialized color and
// depth bitstreams. The hash must be identical
//   * to the pinned golden value (catches any accidental bitstream change),
//   * across every SIMD dispatch level available on this build + CPU, and
//   * across codec thread counts (slice parallelism is an execution knob,
//     not a bitstream knob).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/sender.h"
#include "core/types.h"
#include "image/depth_encoding.h"
#include "image/tiling.h"
#include "kernels/kernels.h"
#include "sim/dataset.h"
#include "util/fnv1a.h"
#include "video/color_convert.h"
#include "video/video_codec.h"

namespace livo {
namespace {

void MixBytes(util::Fnv1a& h, const std::vector<std::uint8_t>& bytes) {
  h.MixBytes(bytes.data(), bytes.size());
}

struct GoldenEntry {
  const char* sequence;
  std::uint64_t hash;
};

// Pinned against the scalar reference kernels. Regenerate (by reading the
// failure output of this test) only for a deliberate bitstream change, and
// say so in the commit message.
constexpr GoldenEntry kGolden[] = {
    {"band2", 0xd42bdb0ed78a23a1ull},
    {"dance5", 0x3913bc5ba2951441ull},
    {"office1", 0x68825c5646cce56eull},
    {"pizza1", 0x572dc12d76427afdull},
    {"toddler4", 0xf6490fb5d4524d06ull},
};

// Hash of both streams (color + depth), two frames each, at fixed QPs.
std::uint64_t EncodeAndHash(const sim::CapturedSequence& capture,
                            const core::LiVoConfig& config) {
  video::VideoEncoder color_encoder(config.ColorCodecConfig(), 3);
  video::VideoEncoder depth_encoder(config.DepthCodecConfig(), 1);

  util::Fnv1a h;
  for (std::uint32_t f = 0; f < capture.frames.size(); ++f) {
    const image::TiledFramePair tiled =
        image::Tile(config.layout, capture.frames[f], f);
    const std::vector<image::Plane16> color_planes =
        video::RgbToYcbcr(tiled.color);
    image::Plane16 depth = tiled.depth;
    image::ScaleDepthInPlace(depth, config.depth_scaler);
    std::vector<image::Plane16> depth_planes;
    depth_planes.push_back(std::move(depth));

    auto color = color_encoder.EncodeAtQp(color_planes, 24);
    auto depth_result = depth_encoder.EncodeAtQp(depth_planes, 42);
    MixBytes(h, video::SerializeFrame(color.frame));
    MixBytes(h, video::SerializeFrame(depth_result.frame));
  }
  return h.value();
}

// ---- Simulcast ladder golden hashes ----
//
// The ladder layers are part of the wire format too: a drifting L0/L1
// bitstream would silently change what every SFU subscriber below the top
// layer decodes. Encodes two frames of one sequence through the full
// sender ladder (ablations off so the QPs are fixed and no pose feedback
// is needed) and pins one hash per layer, across SIMD levels and thread
// counts. Regenerate like kGolden above: only for a deliberate change.
// Note the top layer's hash equals kGolden's band2 entry: running the
// ladder must leave the classic top stream bit-identical.
constexpr std::uint64_t kGoldenLadder[3] = {
    0x941c54ab620283daull,  // L0: halved canvas, deepest QP
    0xc7e13797bf17a84cull,  // L1: full canvas, +qp_step
    0xd42bdb0ed78a23a1ull,  // L2: the top (classic single-layer) stream
};

TEST(GoldenBitstream, LadderLayersPinnedAcrossSimdLevelsAndThreadCounts) {
  struct DispatchGuard {
    ~DispatchGuard() { kernels::ResetDispatchForTest(); }
  } guard;

  const sim::CapturedSequence capture =
      sim::CaptureVideo("band2", sim::ScaleProfile::Default(), 2);
  for (const kernels::SimdLevel level : kernels::AvailableLevels()) {
    kernels::ForceLevel(level);
    for (const int threads : {1, 2, 0}) {
      core::LiVoConfig config;
      config.codec_threads = threads;
      config.simulcast_layers = 3;
      config.enable_culling = false;     // no predictor dependence
      config.enable_adaptation = false;  // fixed QPs per layer
      config.dynamic_split = false;
      core::LiVoSender sender(config, capture.rig);
      util::Fnv1a hashes[3];
      for (std::uint32_t f = 0; f < capture.frames.size(); ++f) {
        const core::SenderOutput out =
            sender.ProcessFrame(capture.frames[f], f, 20e6);
        ASSERT_EQ(out.lower_layers.size(), 2u);
        for (int q = 0; q < 2; ++q) {
          const core::SenderLayerOutput& layer =
              out.lower_layers[static_cast<std::size_t>(q)];
          MixBytes(hashes[q], *layer.color_frame);
          MixBytes(hashes[q], *layer.depth_frame);
        }
        MixBytes(hashes[2], *out.color_frame);
        MixBytes(hashes[2], *out.depth_frame);
      }
      for (int q = 0; q < 3; ++q) {
        EXPECT_EQ(hashes[q].value(), kGoldenLadder[q])
            << "layer " << q << " at level " << kernels::ToString(level)
            << " with codec_threads=" << threads << ": hash 0x" << std::hex
            << hashes[q].value() << " != pinned 0x" << kGoldenLadder[q];
      }
    }
  }
}

TEST(GoldenBitstream, PinnedAcrossSimdLevelsAndThreadCounts) {
  struct DispatchGuard {
    ~DispatchGuard() { kernels::ResetDispatchForTest(); }
  } guard;

  for (const GoldenEntry& golden : kGolden) {
    const sim::CapturedSequence capture =
        sim::CaptureVideo(golden.sequence, sim::ScaleProfile::Default(), 2);
    for (const kernels::SimdLevel level : kernels::AvailableLevels()) {
      kernels::ForceLevel(level);
      for (const int threads : {1, 2, 0}) {
        core::LiVoConfig config;
        config.codec_threads = threads;
        const std::uint64_t hash = EncodeAndHash(capture, config);
        EXPECT_EQ(hash, golden.hash)
            << golden.sequence << " at level " << kernels::ToString(level)
            << " with codec_threads=" << threads << ": bitstream hash 0x"
            << std::hex << hash << " != pinned 0x" << golden.hash;
      }
    }
  }
}

}  // namespace
}  // namespace livo
