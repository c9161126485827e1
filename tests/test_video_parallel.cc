// Slice-parallel codec tests: the determinism contract (byte-identical
// bitstreams and reconstructions for every thread count), slice validation,
// and corrupt-slice-header handling. Exercised with an injected ThreadPool
// so real worker threads run even on single-core machines.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "image/image.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "video/codec_types.h"
#include "video/plane_codec.h"
#include "video/video_codec.h"

namespace livo::video {
namespace {

using image::Plane16;

Plane16 RandomPlane(int w, int h, int max_value, std::uint64_t seed) {
  Plane16 p(w, h);
  util::Rng rng(seed);
  // Smooth-ish content (random low-frequency blobs) so the codec has
  // realistic structure to exploit.
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const double v = (std::sin(x * 0.07 + double(seed)) + std::cos(y * 0.05)) *
                           max_value / 6.0 +
                       max_value / 2.0 + rng.Gaussian(0, max_value / 100.0);
      p.at(x, y) = static_cast<std::uint16_t>(
          std::clamp<long>(std::lround(v), 0, max_value));
    }
  }
  return p;
}

Plane16 ShiftedPlane(const Plane16& base, int max_value) {
  // Second frame: base content with a moved bright patch, so P-frames take
  // SKIP, inter, and motion-compensated paths.
  Plane16 out = base;
  for (int y = 16; y < 32; ++y) {
    for (int x = 20; x < 40; ++x) {
      out.at(x, y) = static_cast<std::uint16_t>(max_value * 3 / 4);
    }
  }
  return out;
}

CodecConfig ParallelConfig(PlaneKind kind, int slice_height, int max_threads,
                           util::ThreadPool* pool) {
  CodecConfig c;
  c.width = 64;
  c.height = 48;
  c.kind = kind;
  c.qp_max = kind == PlaneKind::kDepth16 ? 92 : 62;
  c.slice_height = slice_height;
  c.max_threads = max_threads;
  c.pool = pool;
  return c;
}

struct SequenceResult {
  std::vector<std::vector<std::uint8_t>> bytes;  // serialized frames
  std::vector<std::vector<Plane16>> recons;
};

// Encodes a key frame followed by a P frame, at fixed `qp`, or through
// kPrecise EncodeToTarget at `targets[frame]` when targets are given.
SequenceResult EncodeSequence(const CodecConfig& config, int num_planes,
                              int max_value, int qp,
                              const std::vector<std::size_t>& targets = {}) {
  std::vector<Plane16> frame0, frame1;
  for (int p = 0; p < num_planes; ++p) {
    frame0.push_back(
        RandomPlane(config.width, config.height, max_value, 10 + p));
    frame1.push_back(ShiftedPlane(frame0.back(), max_value));
  }
  VideoEncoder encoder(config, num_planes);
  SequenceResult out;
  for (const auto& planes : {frame0, frame1}) {
    const EncodeResult r =
        targets.empty()
            ? encoder.EncodeAtQp(planes, qp)
            : encoder.EncodeToTarget(planes, targets[out.bytes.size()]);
    out.bytes.push_back(SerializeFrame(r.frame));
    out.recons.push_back(r.reconstruction);
  }
  return out;
}

// ---- Determinism across thread counts ----

TEST(ParallelCodec, ColorEncodeIsByteIdenticalForEveryThreadCount) {
  util::ThreadPool pool(4);
  const SequenceResult serial = EncodeSequence(
      ParallelConfig(PlaneKind::kColor8, 16, 1, &pool), 3, 255, 14);
  for (int threads : {2, 4, 0}) {
    const SequenceResult parallel = EncodeSequence(
        ParallelConfig(PlaneKind::kColor8, 16, threads, &pool), 3, 255, 14);
    ASSERT_EQ(parallel.bytes.size(), serial.bytes.size());
    for (std::size_t f = 0; f < serial.bytes.size(); ++f) {
      EXPECT_EQ(parallel.bytes[f], serial.bytes[f])
          << "frame " << f << " with max_threads=" << threads;
      EXPECT_EQ(parallel.recons[f], serial.recons[f]);
    }
  }
}

TEST(ParallelCodec, DepthEncodeIsByteIdenticalForEveryThreadCount) {
  util::ThreadPool pool(4);
  const SequenceResult serial = EncodeSequence(
      ParallelConfig(PlaneKind::kDepth16, 16, 1, &pool), 1, 65535, 30);
  for (int threads : {2, 4, 0}) {
    const SequenceResult parallel = EncodeSequence(
        ParallelConfig(PlaneKind::kDepth16, 16, threads, &pool), 1, 65535, 30);
    for (std::size_t f = 0; f < serial.bytes.size(); ++f) {
      EXPECT_EQ(parallel.bytes[f], serial.bytes[f])
          << "frame " << f << " with max_threads=" << threads;
      EXPECT_EQ(parallel.recons[f], serial.recons[f]);
    }
  }
}

TEST(ParallelCodec, PreciseSearchIsByteIdenticalForEveryThreadCount) {
  // The QP search's trials below qp_max draw from one byte allowance shared
  // by every slice of every plane, here from concurrent pool workers. Where
  // a trial stops depends on scheduling; whether it stops, and every frame
  // the search returns, do not.
  util::ThreadPool pool(4);
  obs::Counter& stopped =
      obs::Registry::Get().GetCounter("codec.encode_trials_stopped");
  struct Case {
    PlaneKind kind;
    int num_planes;
    int max_value;
    std::vector<std::size_t> targets;  // keyframe, P-frame
  };
  const Case cases[] = {{PlaneKind::kColor8, 3, 255, {400, 120}},
                        {PlaneKind::kDepth16, 1, 65535, {400, 60}}};
  for (const Case& c : cases) {
    std::uint64_t before = stopped.value();
    const SequenceResult serial =
        EncodeSequence(ParallelConfig(c.kind, 16, 1, &pool), c.num_planes,
                       c.max_value, 0, c.targets);
    const std::uint64_t serial_stops = stopped.value() - before;
    EXPECT_GT(serial_stops, 0u);
    for (int threads : {2, 4, 0}) {
      before = stopped.value();
      const SequenceResult parallel =
          EncodeSequence(ParallelConfig(c.kind, 16, threads, &pool),
                         c.num_planes, c.max_value, 0, c.targets);
      EXPECT_EQ(stopped.value() - before, serial_stops)
          << "max_threads=" << threads;
      for (std::size_t f = 0; f < serial.bytes.size(); ++f) {
        EXPECT_EQ(parallel.bytes[f], serial.bytes[f])
            << "frame " << f << " with max_threads=" << threads;
        EXPECT_EQ(parallel.recons[f], serial.recons[f]);
      }
    }
  }
}

TEST(ParallelCodec, DecodeIsIdenticalForEveryThreadCount) {
  util::ThreadPool pool(4);
  const CodecConfig encode_config =
      ParallelConfig(PlaneKind::kColor8, 16, 1, &pool);
  const SequenceResult encoded = EncodeSequence(encode_config, 3, 255, 14);
  std::vector<std::vector<Plane16>> serial_decoded;
  {
    VideoDecoder decoder(encode_config, 3);
    for (const auto& bytes : encoded.bytes) {
      serial_decoded.push_back(decoder.Decode(DeserializeFrame(bytes)));
    }
  }
  for (int threads : {2, 4, 0}) {
    VideoDecoder decoder(ParallelConfig(PlaneKind::kColor8, 16, threads, &pool),
                         3);
    for (std::size_t f = 0; f < encoded.bytes.size(); ++f) {
      const auto decoded = decoder.Decode(DeserializeFrame(encoded.bytes[f]));
      EXPECT_EQ(decoded, serial_decoded[f]) << "frame " << f;
      // Decoder output must also match the encoder's own reconstruction.
      EXPECT_EQ(decoded, encoded.recons[f]);
    }
  }
}

TEST(ParallelCodec, SlicedRoundTripMatchesReconstruction) {
  // Plane-level: sliced key + P streams decode bit-exactly to the encoder's
  // reconstruction when the slice layouts agree.
  const CodecConfig config = ParallelConfig(PlaneKind::kColor8, 16, 1, nullptr);
  const Plane16 frame0 = RandomPlane(64, 48, 255, 5);
  const auto intra = EncodePlane(config, frame0, nullptr, 12);
  EXPECT_EQ(DecodePlane(config, intra.bits, nullptr, 12), intra.reconstruction);
  const Plane16 frame1 = ShiftedPlane(frame0, 255);
  const auto inter = EncodePlane(config, frame1, &intra.reconstruction, 12);
  EXPECT_EQ(DecodePlane(config, inter.bits, &intra.reconstruction, 12),
            inter.reconstruction);
}

// ---- Slice configuration and corrupt streams ----

TEST(ParallelCodec, SliceHeightMustBeMultipleOfEight) {
  const CodecConfig config = ParallelConfig(PlaneKind::kColor8, 12, 1, nullptr);
  const Plane16 src = RandomPlane(64, 48, 255, 6);
  EXPECT_THROW(EncodePlane(config, src, nullptr, 12), std::invalid_argument);
  EXPECT_THROW(DecodePlane(config, {0x00}, nullptr, 12), std::invalid_argument);
}

TEST(ParallelCodec, DecodeWithMismatchedSliceLayoutThrows) {
  const CodecConfig three_slices =
      ParallelConfig(PlaneKind::kColor8, 16, 1, nullptr);
  const Plane16 src = RandomPlane(64, 48, 255, 7);
  const auto out = EncodePlane(three_slices, src, nullptr, 12);
  // 24-row slices partition 48 rows into 2 slices, not 3: the slice table
  // disagrees with the configured layout and decode must refuse.
  const CodecConfig two_slices =
      ParallelConfig(PlaneKind::kColor8, 24, 1, nullptr);
  EXPECT_THROW(DecodePlane(two_slices, out.bits, nullptr, 12),
               std::runtime_error);
  const CodecConfig one_slice =
      ParallelConfig(PlaneKind::kColor8, 0, 1, nullptr);
  EXPECT_THROW(DecodePlane(one_slice, out.bits, nullptr, 12),
               std::runtime_error);
}

TEST(ParallelCodec, TruncatedSliceStreamThrows) {
  const CodecConfig config = ParallelConfig(PlaneKind::kColor8, 16, 1, nullptr);
  const Plane16 src = RandomPlane(64, 48, 255, 8);
  auto out = EncodePlane(config, src, nullptr, 12);
  ASSERT_GT(out.bits.size(), 8u);
  out.bits.resize(out.bits.size() - 8);  // chop the tail of the last slice
  EXPECT_THROW(DecodePlane(config, out.bits, nullptr, 12), std::exception);
}

TEST(ParallelCodec, TamperedSliceHeaderThrows) {
  const CodecConfig config = ParallelConfig(PlaneKind::kColor8, 16, 1, nullptr);
  const Plane16 src = RandomPlane(64, 48, 255, 9);
  auto out = EncodePlane(config, src, nullptr, 12);
  out.bits[0] = static_cast<std::uint8_t>(out.bits[0] ^ 0xff);
  // Depending on the flipped bits this reads as a wrong slice count or an
  // overrunning segment length; either way decode must throw, not crash.
  EXPECT_THROW(DecodePlane(config, out.bits, nullptr, 12), std::exception);
}

TEST(ParallelCodec, SingleSliceStreamStillCarriesSliceTable) {
  // slice_height=0 must behave exactly like the pre-slice codec, with a
  // 1-entry slice table: decodable and bit-exact with the reconstruction.
  const CodecConfig config = ParallelConfig(PlaneKind::kColor8, 0, 1, nullptr);
  const Plane16 src = RandomPlane(64, 48, 255, 11);
  const auto out = EncodePlane(config, src, nullptr, 12);
  EXPECT_EQ(DecodePlane(config, out.bits, nullptr, 12), out.reconstruction);
}

}  // namespace
}  // namespace livo::video
