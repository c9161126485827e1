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
// A six-frame chain through the simulcast ladder additionally pins P-frame
// reconstructions that later P-frames predict from.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/sender.h"
#include "core/types.h"
#include "image/depth_encoding.h"
#include "image/plane_pool.h"
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
    image::ScaleDepthInPlace(depth, core::kDepthScaler);
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

// ---- P-frame chain golden hashes ----
//
// kGolden and kGoldenLadder cover a keyframe and one P-frame, so no
// P-frame's reconstruction ever serves as a reference there: a P-frame
// reconstruction that drifted would pass both. This chain runs six frames
// (a keyframe and five P-frames, which mix SKIP, late-skip, zero-motion,
// motion-vector and intra blocks) of each sequence through the 3-layer
// ladder. One hash per sequence covers every layer's serialized frames and
// the planes a VideoDecoder returns for the top layer and for L0, so a
// drift shows in the next frame's bitstream and in the decoded planes.
// Regenerate like kGolden above: only for a deliberate change.
constexpr GoldenEntry kGoldenChain[] = {
    {"band2", 0x44e73e4732c8cbf1ull},
    {"dance5", 0xc0e58d81d22baaa5ull},
    {"office1", 0xff38ef1ebddf95caull},
    {"pizza1", 0x46939ed766e0891cull},
    {"toddler4", 0x3abf42d6d766e62bull},
};

// Mixes every sample as two little-endian bytes.
void MixPlanes(util::Fnv1a& h, const std::vector<image::Plane16>& planes) {
  for (const image::Plane16& plane : planes) {
    for (const std::uint16_t v : plane.data()) {
      const std::uint8_t bytes[2] = {static_cast<std::uint8_t>(v & 0xffu),
                                     static_cast<std::uint8_t>(v >> 8)};
      h.MixBytes(bytes, 2);
    }
  }
}

void DecodeAndMix(video::VideoDecoder& decoder,
                  const std::vector<std::uint8_t>& bytes, util::Fnv1a& h) {
  std::vector<image::Plane16> planes =
      decoder.Decode(video::DeserializeFrame(bytes));
  MixPlanes(h, planes);
  image::ReleasePooledPlanes(planes);
}

TEST(GoldenBitstream, PFrameChainPinnedAcrossSimdLevels) {
  struct DispatchGuard {
    ~DispatchGuard() { kernels::ResetDispatchForTest(); }
  } guard;

  for (const GoldenEntry& golden : kGoldenChain) {
    const sim::CapturedSequence capture =
        sim::CaptureVideo(golden.sequence, sim::ScaleProfile::Default(), 6);
    for (const kernels::SimdLevel level : kernels::AvailableLevels()) {
      kernels::ForceLevel(level);
      core::LiVoConfig config;
      config.simulcast_layers = 3;
      config.enable_culling = false;     // no predictor dependence
      config.enable_adaptation = false;  // fixed QPs per layer
      core::LiVoSender sender(config, capture.rig);
      video::VideoDecoder top_color(config.ColorCodecConfig(), 3);
      video::VideoDecoder top_depth(config.DepthCodecConfig(), 1);
      video::VideoDecoder low_color(
          core::HalveForLadder(config.ColorCodecConfig()), 3);
      video::VideoDecoder low_depth(
          core::HalveForLadder(config.DepthCodecConfig()), 1);
      util::Fnv1a h;
      for (std::uint32_t f = 0; f < capture.frames.size(); ++f) {
        const core::SenderOutput out =
            sender.ProcessFrame(capture.frames[f], f, 20e6);
        ASSERT_EQ(out.lower_layers.size(), 2u);
        for (const core::SenderLayerOutput& layer : out.lower_layers) {
          MixBytes(h, *layer.color_frame);
          MixBytes(h, *layer.depth_frame);
        }
        MixBytes(h, *out.color_frame);
        MixBytes(h, *out.depth_frame);
        DecodeAndMix(top_color, *out.color_frame, h);
        DecodeAndMix(top_depth, *out.depth_frame, h);
        DecodeAndMix(low_color, *out.lower_layers[0].color_frame, h);
        DecodeAndMix(low_depth, *out.lower_layers[0].depth_frame, h);
      }
      EXPECT_EQ(h.value(), golden.hash)
          << golden.sequence << " at level " << kernels::ToString(level)
          << ": chain hash 0x" << std::hex << h.value() << " != pinned 0x"
          << golden.hash;
    }
  }
}

// ---- Shifted-squares golden hash ----
//
// The captured sequences never code an 8-bit block whose motion-compensated
// residual is exactly zero. This input does, in an 8-bit and a 16-bit plane:
// a keyframe of flat 8x8 squares, which reconstructs exactly at QP 4 (step
// 1), then the same squares moved by (+2, +1) px. Each interior block of the
// P-frame differs from its co-located block but equals the reference at
// motion vector (-2, -1), so it takes the motion-vector mode with an all-zero
// residual and all-zero levels. Two slices per plane, so the thread counts
// fan out. Regenerate like kGolden above: only for a deliberate change.
constexpr std::uint64_t kGoldenShiftedSquares = 0xe3a689dfcbcdff18ull;

std::uint64_t ShiftedSquaresHash(int threads) {
  constexpr int kSize = 64;
  util::Fnv1a h;
  for (const video::PlaneKind kind :
       {video::PlaneKind::kColor8, video::PlaneKind::kDepth16}) {
    video::CodecConfig config;
    config.width = kSize;
    config.height = kSize;
    config.kind = kind;
    config.slice_height = kSize / 2;
    config.max_threads = threads;
    const int scale = kind == video::PlaneKind::kDepth16 ? 257 : 1;
    auto square = [scale](int x, int y) {
      const int sx = std::clamp(x, 0, kSize - 1) / 8;
      const int sy = std::clamp(y, 0, kSize - 1) / 8;
      return static_cast<std::uint16_t>(((sx * 37 + sy * 91) % 200 + 20) *
                                        scale);
    };
    video::VideoEncoder encoder(config, 1);
    video::VideoDecoder decoder(config, 1);
    for (const int shift : {0, 1}) {
      std::vector<image::Plane16> planes(1, image::Plane16(kSize, kSize));
      for (int y = 0; y < kSize; ++y) {
        for (int x = 0; x < kSize; ++x) {
          planes[0].at(x, y) = square(x - 2 * shift, y - shift);
        }
      }
      video::EncodeResult result = encoder.EncodeAtQp(planes, 4);
      video::ReleaseReconstruction(result);
      const std::vector<std::uint8_t> bytes =
          video::SerializeFrame(result.frame);
      MixBytes(h, bytes);
      DecodeAndMix(decoder, bytes, h);
    }
  }
  return h.value();
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
  for (const kernels::SimdLevel level : kernels::AvailableLevels()) {
    kernels::ForceLevel(level);
    for (const int threads : {1, 2, 0}) {
      const std::uint64_t hash = ShiftedSquaresHash(threads);
      EXPECT_EQ(hash, kGoldenShiftedSquares)
          << "shifted squares at level " << kernels::ToString(level)
          << " with codec_threads=" << threads << ": hash 0x" << std::hex
          << hash << " != pinned 0x" << kGoldenShiftedSquares;
    }
  }
}

}  // namespace
}  // namespace livo
