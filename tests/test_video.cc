// Unit tests for livo::video — DCT, bitstream, plane codec, frame codec,
// rate control, and the 16-bit depth mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "image/depth_encoding.h"
#include "image/image.h"
#include "obs/metrics.h"
#include "util/bitstream.h"
#include "util/fnv1a.h"
#include "util/rng.h"
#include "video/color_convert.h"
#include "video/codec_types.h"
#include "video/dct.h"
#include "video/plane_codec.h"
#include "video/video_codec.h"

namespace livo::video {
namespace {

using image::ColorImage;
using image::Plane16;

double PlaneRmse(const Plane16& a, const Plane16& b) {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    const double d = double(a.data()[i]) - double(b.data()[i]);
    sum += d * d;
  }
  return std::sqrt(sum / static_cast<double>(a.data().size()));
}

// ---- Bitstream ----

TEST(Bitstream, BitRoundTrip) {
  util::BitWriter w;
  w.WriteBits(0b1011001, 7);
  w.WriteBit(1);
  w.WriteBits(0xdeadbeef, 32);
  const auto bytes = w.Finish();
  util::BitReader r(bytes);
  EXPECT_EQ(r.ReadBits(7), 0b1011001u);
  EXPECT_EQ(r.ReadBit(), 1);
  EXPECT_EQ(r.ReadBits(32), 0xdeadbeefu);
}

TEST(Bitstream, ExpGolombRoundTrip) {
  util::BitWriter w;
  for (std::uint64_t v : {0ull, 1ull, 2ull, 63ull, 64ull, 12345ull, 1ull << 40}) {
    w.WriteUE(v);
  }
  for (std::int64_t v : {0ll, 1ll, -1ll, 77ll, -1024ll, 1000000ll}) {
    w.WriteSE(v);
  }
  const auto bytes = w.Finish();
  util::BitReader r(bytes);
  for (std::uint64_t v : {0ull, 1ull, 2ull, 63ull, 64ull, 12345ull, 1ull << 40}) {
    EXPECT_EQ(r.ReadUE(), v);
  }
  for (std::int64_t v : {0ll, 1ll, -1ll, 77ll, -1024ll, 1000000ll}) {
    EXPECT_EQ(r.ReadSE(), v);
  }
}

TEST(Bitstream, SmallValuesCodeShort) {
  util::BitWriter w;
  w.WriteUE(0);
  EXPECT_EQ(w.BitCount(), 1u);  // UE(0) is a single bit
}

TEST(Bitstream, ReadPastEndThrows) {
  util::BitWriter w;
  w.WriteBits(0xff, 8);
  const auto bytes = w.Finish();
  util::BitReader r(bytes);
  r.ReadBits(8);
  EXPECT_THROW(r.ReadBit(), std::out_of_range);
}

// One bit per step: the definition the byte-filling BitWriter must match.
class BitAtATimeWriter {
 public:
  void WriteBit(int bit) {
    if (bit_pos_ == 0) bytes.push_back(0);
    if (bit) bytes.back() |= static_cast<std::uint8_t>(1u << (7 - bit_pos_));
    bit_pos_ = (bit_pos_ + 1) & 7;
    ++bit_count;
  }
  void WriteBits(std::uint64_t value, int bits) {
    for (int i = bits - 1; i >= 0; --i) {
      WriteBit(static_cast<int>((value >> i) & 1u));
    }
  }
  void WriteUE(std::uint64_t value) {
    const std::uint64_t v = value + 1;
    int len = 0;
    for (std::uint64_t t = v; t > 1; t >>= 1) ++len;
    WriteBits(0, len);
    WriteBits(v, len + 1);
  }
  void WriteSE(std::int64_t value) {
    WriteUE(value > 0 ? static_cast<std::uint64_t>(value) * 2 - 1
                      : static_cast<std::uint64_t>(-value) * 2);
  }

  std::vector<std::uint8_t> bytes;
  std::size_t bit_count = 0;

 private:
  int bit_pos_ = 0;
};

TEST(Bitstream, WriterMatchesBitAtATimeDefinition) {
  constexpr std::uint64_t kTwo63 = std::uint64_t{1} << 63;
  constexpr std::int64_t kMaxSe = std::numeric_limits<std::int64_t>::max();
  // Around the one-call/two-call boundary of WriteUE (value + 1 = 2^32)
  // and at the ends of the encodable range.
  const std::uint64_t ue_edges[] = {0,
                                     1,
                                     2,
                                     (1ull << 31) - 1,
                                     (1ull << 32) - 2,
                                     (1ull << 32) - 1,
                                     1ull << 32,
                                     kTwo63 - 1,
                                     kTwo63,
                                     ~std::uint64_t{0} - 1};
  const std::int64_t se_edges[] = {0, 1, -1, kMaxSe, -kMaxSe};
  util::Rng rng(20261018);
  for (int rep = 0; rep < 20; ++rep) {
    util::BitWriter got;
    BitAtATimeWriter want;
    for (int op = 0; op < 400; ++op) {
      const std::uint64_t raw = rng.NextU64();
      const auto shift = static_cast<int>(rng.NextBelow(64));
      switch (rng.NextBelow(4)) {
        case 0: {
          const int bit = static_cast<int>(rng.NextBelow(3));  // 2 writes a 1
          got.WriteBit(bit);
          want.WriteBit(bit);
          break;
        }
        case 1: {
          const auto bits = static_cast<int>(rng.NextBelow(65));
          got.WriteBits(raw, bits);
          want.WriteBits(raw, bits);
          break;
        }
        case 2: {
          // Random magnitudes below 2^63, 2^63 itself, or an edge value.
          const std::uint64_t value =
              rng.Chance(0.1) ? ue_edges[rng.NextBelow(std::size(ue_edges))]
              : shift == 0    ? kTwo63
                              : raw >> shift;
          got.WriteUE(value);
          want.WriteUE(value);
          break;
        }
        default: {
          const auto magnitude =
              static_cast<std::int64_t>(raw >> std::max(shift, 1));
          const std::int64_t value =
              rng.Chance(0.1) ? se_edges[rng.NextBelow(std::size(se_edges))]
              : rng.Chance(0.5) ? -magnitude
                                : magnitude;
          got.WriteSE(value);
          want.WriteSE(value);
          break;
        }
      }
      ASSERT_EQ(got.BitCount(), want.bit_count) << "rep " << rep << " op " << op;
    }
    EXPECT_EQ(got.Finish(), want.bytes) << "rep " << rep;
  }
}

// One bit per step: the definition the byte-stepping BitReader must match,
// in values, position and exception types.
class BitAtATimeReader {
 public:
  explicit BitAtATimeReader(const std::vector<std::uint8_t>& bytes)
      : bytes_(bytes) {}
  int ReadBit() {
    if (pos_ >= bytes_.size() * 8) throw std::out_of_range("past end");
    const int bit = (bytes_[pos_ >> 3] >> (7 - (pos_ & 7))) & 1;
    ++pos_;
    return bit;
  }
  std::uint64_t ReadBits(int bits) {
    std::uint64_t value = 0;
    for (int i = 0; i < bits; ++i) {
      value = (value << 1) | static_cast<unsigned>(ReadBit());
    }
    return value;
  }
  std::uint64_t ReadUE() {
    int len = 0;
    while (ReadBit() == 0) {
      if (++len > 63) throw std::runtime_error("corrupt UE code");
    }
    return ((std::uint64_t{1} << len) | ReadBits(len)) - 1;
  }
  std::int64_t ReadSE() {
    const std::uint64_t mapped = ReadUE();
    const auto half = static_cast<std::int64_t>(mapped / 2 + (mapped & 1));
    return (mapped & 1) ? half : -half;
  }
  std::size_t BitsRemaining() const { return bytes_.size() * 8 - pos_; }

 private:
  const std::vector<std::uint8_t>& bytes_;
  std::size_t pos_ = 0;
};

// What a read returned, or the type of exception it threw.
struct ReadOutcome {
  std::uint64_t value = 0;
  std::string error;  // empty, "out_of_range", "runtime_error" or "other"
};

template <typename Read>
ReadOutcome OutcomeOf(Read read) {
  ReadOutcome out;
  try {
    out.value = static_cast<std::uint64_t>(read());
  } catch (const std::out_of_range&) {
    out.error = "out_of_range";
  } catch (const std::runtime_error&) {
    out.error = "runtime_error";
  } catch (const std::exception&) {
    out.error = "other";
  }
  return out;
}

// Applies read `op` (0 bit, 1 bits, 2 UE, 3 SE) to both readers and checks
// they agree on the outcome and the position after it. Returns whether the
// read threw.
bool ReadBoth(util::BitReader& got, BitAtATimeReader& want, int op, int bits) {
  ReadOutcome g, w;
  switch (op) {
    case 0:
      g = OutcomeOf([&] { return got.ReadBit(); });
      w = OutcomeOf([&] { return want.ReadBit(); });
      break;
    case 1:
      g = OutcomeOf([&] { return got.ReadBits(bits); });
      w = OutcomeOf([&] { return want.ReadBits(bits); });
      break;
    case 2:
      g = OutcomeOf([&] { return got.ReadUE(); });
      w = OutcomeOf([&] { return want.ReadUE(); });
      break;
    default:
      g = OutcomeOf([&] { return got.ReadSE(); });
      w = OutcomeOf([&] { return want.ReadSE(); });
      break;
  }
  EXPECT_EQ(g.error, w.error) << "op " << op << " bits " << bits;
  EXPECT_EQ(g.value, w.value) << "op " << op << " bits " << bits;
  EXPECT_EQ(got.BitsRemaining(), want.BitsRemaining())
      << "op " << op << " bits " << bits;
  return !w.error.empty();
}

TEST(Bitstream, ReaderMatchesBitAtATimeDefinition) {
  util::Rng rng(20261020);
  // Random streams of codes, raw bits and runs of 60-70 zeros, some cut
  // short, read back either with the ops that wrote them or with random
  // ops, until a read throws.
  for (int rep = 0; rep < 400; ++rep) {
    BitAtATimeWriter writer;
    std::vector<std::pair<int, int>> written;  // (op, bits) per write
    const int writes = rng.UniformInt(1, 40);
    for (int i = 0; i < writes; ++i) {
      const std::uint64_t raw = rng.NextU64() >> rng.UniformInt(1, 63);
      const auto op = static_cast<int>(rng.NextBelow(5));
      int bits = 0;
      switch (op) {
        case 0:
          writer.WriteBit(static_cast<int>(raw & 1));
          break;
        case 1:
          bits = static_cast<int>(rng.NextBelow(65));
          writer.WriteBits(rng.NextU64(), bits);
          break;
        case 2:
          writer.WriteUE(raw);
          break;
        case 3:
          writer.WriteSE(rng.Chance(0.5) ? -static_cast<std::int64_t>(raw)
                                         : static_cast<std::int64_t>(raw));
          break;
        default:
          bits = rng.UniformInt(60, 70);
          for (int z = 0; z < bits; ++z) writer.WriteBit(0);
          break;
      }
      written.emplace_back(op == 4 ? 2 : op, bits);  // a zero run reads as UE
    }
    std::vector<std::uint8_t> bytes = writer.bytes;
    if (rng.Chance(0.3)) bytes.resize(rng.NextBelow(bytes.size() + 1));
    util::BitReader got(bytes);
    BitAtATimeReader want(bytes);
    const bool replay = rep % 2 == 0;
    for (std::size_t i = 0; i < 200; ++i) {
      SCOPED_TRACE("rep " + std::to_string(rep) + " read " + std::to_string(i));
      const int op = replay ? written[i % written.size()].first
                            : static_cast<int>(rng.NextBelow(4));
      const int bits = replay ? written[i % written.size()].second
                              : static_cast<int>(rng.NextBelow(67)) - 1;
      if (ReadBoth(got, want, op, bits)) break;
    }
  }
  // A UE code at every bit offset behind 60-70 leading zeros: at most 63
  // zeros read as a code (then a value, possibly cut short), the 64th
  // zero throws runtime_error wherever it falls.
  for (int offset = 0; offset < 8; ++offset) {
    for (int zeros = 60; zeros <= 70; ++zeros) {
      for (int cut = 0; cut <= 2; ++cut) {
        BitAtATimeWriter writer;
        writer.WriteBits(0x5a, offset);
        for (int z = 0; z < zeros; ++z) writer.WriteBit(0);
        writer.WriteBit(1);
        writer.WriteBits(rng.NextU64(), 64);
        std::vector<std::uint8_t> bytes = writer.bytes;
        bytes.resize(bytes.size() - static_cast<std::size_t>(cut) * 4);
        SCOPED_TRACE("offset " + std::to_string(offset) + " zeros " +
                     std::to_string(zeros) + " cut " + std::to_string(cut));
        util::BitReader got(bytes);
        BitAtATimeReader want(bytes);
        ReadBoth(got, want, 1, offset);
        ReadBoth(got, want, 2, 0);
      }
    }
  }
}

TEST(Bitstream, ValuesWithoutA64BitCodeThrow) {
  util::BitWriter w;
  EXPECT_THROW(w.WriteUE(std::numeric_limits<std::uint64_t>::max()),
               std::invalid_argument);
  EXPECT_THROW(w.WriteSE(std::numeric_limits<std::int64_t>::min()),
               std::invalid_argument);
  EXPECT_EQ(w.BitCount(), 0u);
  // The largest encodable magnitudes still round-trip.
  w.WriteUE(std::numeric_limits<std::uint64_t>::max() - 1);
  w.WriteSE(std::numeric_limits<std::int64_t>::min() + 1);
  w.WriteSE(std::numeric_limits<std::int64_t>::max());
  const auto bytes = w.Finish();
  util::BitReader r(bytes);
  EXPECT_EQ(r.ReadUE(), std::numeric_limits<std::uint64_t>::max() - 1);
  EXPECT_EQ(r.ReadSE(), std::numeric_limits<std::int64_t>::min() + 1);
  EXPECT_EQ(r.ReadSE(), std::numeric_limits<std::int64_t>::max());
}

// ---- DCT ----

TEST(Dct, RoundTripIsIdentity) {
  util::Rng rng(5);
  Block spatial, freq, back;
  for (auto& v : spatial) v = rng.Uniform(0, 255);
  ForwardDct(spatial, freq);
  InverseDct(freq, back);
  for (int i = 0; i < kBlockPixels; ++i) EXPECT_NEAR(back[i], spatial[i], 1e-9);
}

TEST(Dct, ConstantBlockHasOnlyDc) {
  Block spatial, freq;
  spatial.fill(100.0);
  ForwardDct(spatial, freq);
  EXPECT_NEAR(freq[0], 100.0 * 8.0, 1e-9);  // orthonormal DC gain = N
  for (int i = 1; i < kBlockPixels; ++i) EXPECT_NEAR(freq[i], 0.0, 1e-9);
}

TEST(Dct, ParsevalEnergyPreserved) {
  util::Rng rng(6);
  Block spatial, freq;
  for (auto& v : spatial) v = rng.Uniform(-100, 100);
  ForwardDct(spatial, freq);
  double es = 0, ef = 0;
  for (int i = 0; i < kBlockPixels; ++i) {
    es += spatial[i] * spatial[i];
    ef += freq[i] * freq[i];
  }
  EXPECT_NEAR(es, ef, 1e-6);
}

TEST(Dct, ZigzagIsAPermutation) {
  const auto& order = ZigzagOrder();
  std::array<bool, kBlockPixels> seen{};
  for (int idx : order) {
    ASSERT_GE(idx, 0);
    ASSERT_LT(idx, kBlockPixels);
    EXPECT_FALSE(seen[static_cast<std::size_t>(idx)]);
    seen[static_cast<std::size_t>(idx)] = true;
  }
  EXPECT_EQ(order[0], 0);      // starts at DC
  EXPECT_EQ(order[1], 1);      // then first AC
  EXPECT_EQ(order[63], 63);    // ends at highest frequency
}

TEST(QpToStep, DoublesEverySixQp) {
  EXPECT_NEAR(QpToStep(10) / QpToStep(4), 2.0, 1e-12);
  EXPECT_NEAR(QpToStep(4), 1.0, 1e-12);
  EXPECT_GT(QpToStep(51), 200.0);
}

// ---- Plane codec ----

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

CodecConfig SmallColorConfig() {
  CodecConfig c;
  c.width = 64;
  c.height = 48;
  c.kind = PlaneKind::kColor8;
  return c;
}

TEST(PlaneCodec, IntraEncoderReconstructionMatchesDecoder) {
  const CodecConfig config = SmallColorConfig();
  const Plane16 src = RandomPlane(64, 48, 255, 1);
  const auto out = EncodePlane(config, src, nullptr, 12);
  const Plane16 decoded = DecodePlane(config, out.bits, nullptr, 12);
  EXPECT_EQ(decoded, out.reconstruction);
}

TEST(PlaneCodec, InterEncoderReconstructionMatchesDecoder) {
  const CodecConfig config = SmallColorConfig();
  const Plane16 frame0 = RandomPlane(64, 48, 255, 1);
  const auto intra = EncodePlane(config, frame0, nullptr, 12);
  Plane16 frame1 = frame0;
  for (int y = 8; y < 24; ++y)
    for (int x = 8; x < 24; ++x) frame1.at(x, y) = 200;  // moving patch
  const auto inter = EncodePlane(config, frame1, &intra.reconstruction, 12);
  const Plane16 ref = DecodePlane(config, intra.bits, nullptr, 12);
  const Plane16 decoded = DecodePlane(config, inter.bits, &ref, 12);
  EXPECT_EQ(decoded, inter.reconstruction);
}

TEST(PlaneCodec, LowQpIsNearLossless) {
  const CodecConfig config = SmallColorConfig();
  const Plane16 src = RandomPlane(64, 48, 255, 2);
  const auto out = EncodePlane(config, src, nullptr, 2);
  EXPECT_LT(PlaneRmse(src, out.reconstruction), 1.0);
}

TEST(PlaneCodec, DistortionIncreasesWithQp) {
  const CodecConfig config = SmallColorConfig();
  const Plane16 src = RandomPlane(64, 48, 255, 3);
  double last_rmse = -1.0;
  for (int qp : {4, 16, 28, 40}) {
    const auto out = EncodePlane(config, src, nullptr, qp);
    const double rmse = PlaneRmse(src, out.reconstruction);
    EXPECT_GT(rmse, last_rmse);
    last_rmse = rmse;
  }
}

TEST(PlaneCodec, SizeDecreasesWithQp) {
  const CodecConfig config = SmallColorConfig();
  const Plane16 src = RandomPlane(64, 48, 255, 4);
  std::size_t last_size = SIZE_MAX;
  for (int qp : {4, 16, 28, 40}) {
    const auto out = EncodePlane(config, src, nullptr, qp);
    EXPECT_LT(out.bits.size(), last_size);
    last_size = out.bits.size();
  }
}

TEST(PlaneCodec, StaticSceneCompressesToAlmostNothingInter) {
  const CodecConfig config = SmallColorConfig();
  const Plane16 src = RandomPlane(64, 48, 255, 5);
  const auto intra = EncodePlane(config, src, nullptr, 16);
  // Re-encoding the reconstruction yields exactly-zero residuals, so every
  // block SKIPs and the P-frame is tiny vs the I-frame.
  const auto inter =
      EncodePlane(config, intra.reconstruction, &intra.reconstruction, 16);
  EXPECT_LT(inter.bits.size() * 20, intra.bits.size());
}

TEST(PlaneCodec, MotionCompensationBeatsZeroMotion) {
  // A translating texture should cost fewer bits with motion search on.
  CodecConfig with_mv = SmallColorConfig();
  with_mv.motion_search = true;
  CodecConfig without_mv = with_mv;
  without_mv.motion_search = false;

  const Plane16 frame0 = RandomPlane(64, 48, 255, 6);
  Plane16 frame1(64, 48);
  for (int y = 0; y < 48; ++y) {
    for (int x = 0; x < 64; ++x) {
      frame1.at(x, y) = frame0.at(std::max(0, x - 2), y);  // shift right 2px
    }
  }
  const auto ref = EncodePlane(with_mv, frame0, nullptr, 12);
  const auto mv = EncodePlane(with_mv, frame1, &ref.reconstruction, 12);
  const auto no_mv = EncodePlane(without_mv, frame1, &ref.reconstruction, 12);
  EXPECT_LT(mv.bits.size(), no_mv.bits.size());
}

TEST(PlaneCodec, Depth16BitModeRoundTrip) {
  CodecConfig config;
  config.width = 64;
  config.height = 48;
  config.kind = PlaneKind::kDepth16;
  const Plane16 src = RandomPlane(64, 48, 65535, 7);
  const auto out = EncodePlane(config, src, nullptr, 8);
  const Plane16 decoded = DecodePlane(config, out.bits, nullptr, 8);
  EXPECT_EQ(decoded, out.reconstruction);
  // Relative error small against the 16-bit range.
  EXPECT_LT(PlaneRmse(src, out.reconstruction), 65535.0 * 0.002);
}

TEST(PlaneCodec, NonBlockAlignedThrows) {
  CodecConfig config = SmallColorConfig();
  const Plane16 src(60, 48);
  EXPECT_THROW(EncodePlane(config, src, nullptr, 10), std::invalid_argument);
}

TEST(PlaneCodec, CorruptStreamThrows) {
  const CodecConfig config = SmallColorConfig();
  const Plane16 src = RandomPlane(64, 48, 255, 8);
  auto out = EncodePlane(config, src, nullptr, 10);
  out.bits.resize(out.bits.size() / 4);  // truncate
  EXPECT_THROW(DecodePlane(config, out.bits, nullptr, 10), std::exception);
}

// A one-slice plane of a single 8x8 block whose bits `write_block` writes.
std::vector<std::uint8_t> OneBlockPlane(
    const std::function<void(util::BitWriter&)>& write_block) {
  util::BitWriter block;
  write_block(block);
  const std::vector<std::uint8_t> segment = block.Finish();
  util::BitWriter header;
  header.WriteUE(1);
  header.WriteUE(segment.size());
  std::vector<std::uint8_t> bits = header.Finish();
  bits.insert(bits.end(), segment.begin(), segment.end());
  return bits;
}

// A P-frame block coded as a motion-vector block with (dx, dy) and no
// residual. Mode 2 is the codec's motion-compensated mode; a run of 64
// ends the block.
std::vector<std::uint8_t> OneBlockMvPlane(std::int64_t dx, std::int64_t dy) {
  return OneBlockPlane([&](util::BitWriter& block) {
    block.WriteUE(2);
    block.WriteSE(dx);
    block.WriteSE(dy);
    block.WriteUE(64);
  });
}

// An intra block whose first coefficient (run 0) has `level`.
std::vector<std::uint8_t> OneBlockLevelPlane(std::int64_t level) {
  return OneBlockPlane([&](util::BitWriter& block) {
    block.WriteUE(0);
    block.WriteSE(level);
    block.WriteUE(64);
  });
}

TEST(PlaneCodec, DecoderRejectsModeCodeBeyond32Bits) {
  CodecConfig config;
  config.width = 8;
  config.height = 8;
  const Plane16 ref(8, 8, 100);
  // 2^32 + 1 narrows to 1, the zero-motion inter mode.
  const auto plane = [](std::uint64_t mode) {
    return OneBlockPlane([&](util::BitWriter& block) {
      block.WriteUE(mode);
      block.WriteUE(64);
    });
  };
  EXPECT_EQ(DecodePlane(config, plane(1), &ref, 12), ref);
  EXPECT_THROW(DecodePlane(config, plane((std::uint64_t{1} << 32) + 1), &ref, 12),
               std::runtime_error);
}

TEST(PlaneCodec, DecoderRejectsLevelBeyond32Bits) {
  CodecConfig config;
  config.width = 8;
  config.height = 8;
  // 2^32 + 5 narrows to 5, a level the encoder emits.
  EXPECT_NO_THROW(DecodePlane(config, OneBlockLevelPlane(5), nullptr, 12));
  EXPECT_THROW(
      DecodePlane(config, OneBlockLevelPlane((std::int64_t{1} << 32) + 5),
                  nullptr, 12),
      std::runtime_error);
}

TEST(PlaneCodec, DecoderRejectsLevelAboveTheEncodersRange) {
  CodecConfig config;
  config.width = 8;
  config.height = 8;
  // At QP 4 (step 1) an 8-bit plane's levels stay within 8 * 255 + 1/2;
  // the decoder accepts up to 2041.
  EXPECT_NO_THROW(DecodePlane(config, OneBlockLevelPlane(2041), nullptr, 4));
  EXPECT_NO_THROW(DecodePlane(config, OneBlockLevelPlane(-2041), nullptr, 4));
  for (const std::int64_t level :
       {std::int64_t{2042}, std::int64_t{-2042},
        std::int64_t{std::numeric_limits<std::int32_t>::max()} - 1,
        std::int64_t{std::numeric_limits<std::int32_t>::min()}}) {
    EXPECT_THROW(DecodePlane(config, OneBlockLevelPlane(level), nullptr, 4),
                 std::runtime_error)
        << "level " << level;
  }
}

TEST(PlaneCodec, DecoderRejectsMotionVectorOutsideSearchRange) {
  CodecConfig config;
  config.width = 8;
  config.height = 8;
  const Plane16 ref(8, 8, 100);
  EXPECT_EQ(DecodePlane(config, OneBlockMvPlane(3, -3), &ref, 12), ref);
  for (const auto& [dx, dy] : std::vector<std::pair<std::int64_t, std::int64_t>>{
           {4, 0},
           {0, -4},
           {std::numeric_limits<std::int32_t>::max(), 0},
           {0, std::int64_t{1} << 40}}) {
    EXPECT_THROW(DecodePlane(config, OneBlockMvPlane(dx, dy), &ref, 12),
                 std::runtime_error)
        << "mv (" << dx << ", " << dy << ")";
  }
}

TEST(PlaneCodec, DecoderRejectsReferenceOfAnotherShape) {
  const CodecConfig config = SmallColorConfig();
  const auto intra = EncodePlane(config, RandomPlane(64, 48, 255, 9), nullptr, 12);
  // Re-encoding the reconstruction makes every block a SKIP block, which
  // reads the reference directly.
  const auto inter =
      EncodePlane(config, intra.reconstruction, &intra.reconstruction, 12);
  EXPECT_EQ(DecodePlane(config, inter.bits, &intra.reconstruction, 12),
            intra.reconstruction);
  for (const auto& [w, h] :
       std::vector<std::pair<int, int>>{{32, 48}, {64, 40}, {72, 48}}) {
    const Plane16 wrong(w, h);
    EXPECT_THROW(DecodePlane(config, inter.bits, &wrong, 12),
                 std::invalid_argument)
        << w << "x" << h;
  }
}

// ---- Color conversion ----

TEST(ColorConvert, RoundTripWithinRounding) {
  ColorImage rgb(16, 16);
  util::Rng rng(9);
  for (int y = 0; y < 16; ++y) {
    for (int x = 0; x < 16; ++x) {
      rgb.SetPixel(x, y, static_cast<std::uint8_t>(rng.NextBelow(256)),
                   static_cast<std::uint8_t>(rng.NextBelow(256)),
                   static_cast<std::uint8_t>(rng.NextBelow(256)));
    }
  }
  const auto planes = RgbToYcbcr(rgb);
  const ColorImage back = YcbcrToRgb(planes);
  for (int y = 0; y < 16; ++y) {
    for (int x = 0; x < 16; ++x) {
      EXPECT_NEAR(back.r.at(x, y), rgb.r.at(x, y), 2);
      EXPECT_NEAR(back.g.at(x, y), rgb.g.at(x, y), 2);
      EXPECT_NEAR(back.b.at(x, y), rgb.b.at(x, y), 2);
    }
  }
}

TEST(ColorConvert, GrayIsPureLuma) {
  ColorImage rgb(8, 8);
  for (int y = 0; y < 8; ++y)
    for (int x = 0; x < 8; ++x) rgb.SetPixel(x, y, 77, 77, 77);
  const auto planes = RgbToYcbcr(rgb);
  EXPECT_EQ(planes[0].at(0, 0), 77);
  EXPECT_EQ(planes[1].at(0, 0), 128);
  EXPECT_EQ(planes[2].at(0, 0), 128);
}

// ---- Frame codec + rate control ----

std::vector<Plane16> RandomColorPlanes(int w, int h, std::uint64_t seed) {
  return {RandomPlane(w, h, 255, seed), RandomPlane(w, h, 255, seed + 100),
          RandomPlane(w, h, 255, seed + 200)};
}

TEST(VideoCodec, SerializeDeserializeFrame) {
  EncodedFrame frame;
  frame.frame_index = 42;
  frame.keyframe = true;
  frame.qp = 17;
  frame.planes.push_back({{1, 2, 3, 4, 5}});
  frame.planes.push_back({{9, 8}});
  const auto bytes = SerializeFrame(frame);
  const EncodedFrame back = DeserializeFrame(bytes);
  EXPECT_EQ(back.frame_index, 42u);
  EXPECT_TRUE(back.keyframe);
  EXPECT_EQ(back.qp, 17);
  ASSERT_EQ(back.planes.size(), 2u);
  EXPECT_EQ(back.planes[0].bits, frame.planes[0].bits);
  EXPECT_EQ(back.planes[1].bits, frame.planes[1].bits);
}

TEST(VideoCodec, DeserializeTruncatedThrows) {
  EncodedFrame frame;
  frame.planes.push_back({{1, 2, 3}});
  auto bytes = SerializeFrame(frame);
  bytes.resize(bytes.size() - 2);
  EXPECT_THROW(DeserializeFrame(bytes), std::runtime_error);
}

TEST(VideoCodec, EncoderDecoderSequenceRoundTrip) {
  CodecConfig config = SmallColorConfig();
  VideoEncoder encoder(config, 3);
  VideoDecoder decoder(config, 3);
  util::Rng rng(33);
  auto planes = RandomColorPlanes(64, 48, 12);
  for (int f = 0; f < 5; ++f) {
    // Drift the content a little each frame.
    for (auto& p : planes) {
      for (auto& v : p.data()) {
        v = static_cast<std::uint16_t>(
            std::clamp<int>(int(v) + rng.UniformInt(-2, 2), 0, 255));
      }
    }
    const EncodeResult result = encoder.EncodeAtQp(planes, 10);
    EXPECT_EQ(result.frame.keyframe, f == 0);
    const auto decoded = decoder.Decode(result.frame);
    ASSERT_EQ(decoded.size(), 3u);
    for (int p = 0; p < 3; ++p) {
      EXPECT_EQ(decoded[static_cast<std::size_t>(p)],
                result.reconstruction[static_cast<std::size_t>(p)])
          << "frame " << f << " plane " << p;
    }
  }
}

TEST(VideoCodec, GopInsertsPeriodicKeyframes) {
  CodecConfig config = SmallColorConfig();
  config.gop_length = 3;
  VideoEncoder encoder(config, 1);
  const std::vector<Plane16> planes{RandomPlane(64, 48, 255, 20)};
  for (int f = 0; f < 7; ++f) {
    const EncodeResult r = encoder.EncodeAtQp(planes, 10);
    EXPECT_EQ(r.frame.keyframe, f % 3 == 0) << "frame " << f;
  }
}

TEST(VideoCodec, RequestKeyframeForcesIntra) {
  CodecConfig config = SmallColorConfig();
  config.gop_length = 1000;
  VideoEncoder encoder(config, 1);
  const std::vector<Plane16> planes{RandomPlane(64, 48, 255, 21)};
  encoder.EncodeAtQp(planes, 10);
  auto p = encoder.EncodeAtQp(planes, 10);
  EXPECT_FALSE(p.frame.keyframe);
  encoder.RequestKeyframe();
  auto k = encoder.EncodeAtQp(planes, 10);
  EXPECT_TRUE(k.frame.keyframe);
}

TEST(VideoCodec, RateControlHitsTarget) {
  CodecConfig config = SmallColorConfig();
  VideoEncoder encoder(config, 3);
  const auto planes = RandomColorPlanes(64, 48, 30);
  // First probe the unconstrained size at a mid QP to pick a feasible target.
  RateControlStats stats;
  const EncodeResult r = encoder.EncodeToTarget(planes, 3000, &stats);
  EXPECT_LE(r.frame.SizeBytes(), 3000u);
  EXPECT_EQ(stats.actual_bytes, r.frame.SizeBytes());
  EXPECT_GE(stats.trials, 1);
}

TEST(VideoCodec, RateControlUsesBudget) {
  // Given a generous budget the encoder should not massively undershoot
  // (that is MeshReduce's indirect-adaptation pathology, Table 1).
  CodecConfig config = SmallColorConfig();
  VideoEncoder big(config, 3);
  VideoEncoder small(config, 3);
  const auto planes = RandomColorPlanes(64, 48, 31);
  const auto r_big = big.EncodeToTarget(planes, 6000);
  const auto r_small = small.EncodeToTarget(planes, 1200);
  EXPECT_LE(r_small.frame.SizeBytes(), 1200u);
  EXPECT_GT(r_big.frame.SizeBytes(), r_small.frame.SizeBytes());
  // Higher budget => lower QP => better quality.
  EXPECT_LT(r_big.frame.qp, r_small.frame.qp);
}

TEST(VideoCodec, RateControlWarmStartConvergesFast) {
  CodecConfig config = SmallColorConfig();
  VideoEncoder encoder(config, 3);
  auto planes = RandomColorPlanes(64, 48, 32);
  util::Rng rng(77);
  const auto drift = [&] {
    for (auto& p : planes) {
      for (auto& v : p.data()) {
        v = static_cast<std::uint16_t>(
            std::clamp<int>(int(v) + rng.UniformInt(-3, 3), 0, 255));
      }
    }
  };
  RateControlStats stats;
  encoder.EncodeToTarget(planes, 1800, &stats);
  // Steady state: stable scene complexity and target => the warm-started
  // search should settle within a few trials (2 in the ideal case: confirm
  // last QP fits and QP-1 does not).
  for (int i = 0; i < 4; ++i) {
    drift();
    encoder.EncodeToTarget(planes, 1800, &stats);
  }
  EXPECT_LE(stats.trials, 3);
}

TEST(VideoCodec, ImpossibleTargetReturnsOvershoot) {
  CodecConfig config = SmallColorConfig();
  VideoEncoder encoder(config, 3);
  const auto planes = RandomColorPlanes(64, 48, 33);
  RateControlStats stats;
  const auto r = encoder.EncodeToTarget(planes, 10, &stats);  // absurd target
  EXPECT_GT(r.frame.SizeBytes(), 10u);  // overshoot reported honestly
  EXPECT_EQ(r.frame.qp, config.qp_max);
}

// ---- Precise rate control, pinned from unreachable to unbounded targets ----

// What one kPrecise EncodeToTarget chose: its QP, its trial count and an
// FNV-1a of the serialized frame.
struct SearchPin {
  int qp;
  int trials;
  std::uint64_t hash;
};

// One sweep point: the keyframe's search, then the P-frame's.
struct SweepPin {
  SearchPin key;
  SearchPin p;
};

std::uint64_t FrameHash(const EncodedFrame& frame) {
  const std::vector<std::uint8_t> bytes = SerializeFrame(frame);
  util::Fnv1a h;
  h.MixBytes(bytes.data(), bytes.size());
  return h.value();
}

// The size EncodeToTarget measures for `planes` coded at `qp` against
// `reference` (nullptr for a keyframe), computed without an encoder.
std::size_t FrameBytesAt(const CodecConfig& config,
                         const std::vector<Plane16>& planes,
                         const std::vector<Plane16>* reference, int qp) {
  std::size_t total = EncodedFrame::kFrameHeaderBytes;
  for (std::size_t p = 0; p < planes.size(); ++p) {
    const Plane16* ref = reference != nullptr ? &(*reference)[p] : nullptr;
    total += EncodePlane(config, planes[p], ref, qp).bits.size() + 4;
  }
  return total;
}

// Targets for a frame whose qp_max encode is `small` bytes and whose qp_min
// encode is `large`: unreachable, one byte short of qp_max, exactly qp_max,
// four steps between (1/16 to 1/2 of the span above qp_max), exactly
// qp_min, and unbounded.
std::vector<std::size_t> SweepTargets(std::size_t small, std::size_t large) {
  const std::size_t span = large - small;
  return {10,
          small - 1,
          small,
          small + span / 16,
          small + span / 8,
          small + span / 4,
          small + span / 2,
          large,
          std::numeric_limits<std::size_t>::max()};
}

// `planes` moved 2 px right and 1 px down (edge samples repeat): the
// P-frame's content, which has motion for the encoder to find.
std::vector<Plane16> MovedPlanes(const std::vector<Plane16>& planes) {
  std::vector<Plane16> out;
  for (const Plane16& p : planes) {
    Plane16 moved(p.width(), p.height());
    for (int y = 0; y < p.height(); ++y) {
      for (int x = 0; x < p.width(); ++x) {
        moved.at(x, y) = p.at(std::max(x - 2, 0), std::max(y - 1, 0));
      }
    }
    out.push_back(std::move(moved));
  }
  return out;
}

// Runs a keyframe then a P-frame through kPrecise EncodeToTarget at each
// sweep point and checks every result against `pins`, against a twin
// encoder's EncodeAtQp at the chosen QP (bits and reconstruction) and
// against the decoder. Trials below qp_max stop once they overshoot: at
// the unreachable target every trial but the last (at qp_max) stops, at
// the unbounded one none does. The unreachable target's allowance is
// negative before a byte is written, so only stops at the other targets
// show that slices draw what they write. The encodes are serial, so the
// counts are exact.
void CheckPreciseSweep(const CodecConfig& config,
                       const std::vector<Plane16>& frame0,
                       const std::vector<SweepPin>& pins) {
  obs::Counter& stopped =
      obs::Registry::Get().GetCounter("codec.encode_trials_stopped");
  std::uint64_t stops_after_draws = 0;
  const int num_planes = static_cast<int>(frame0.size());
  const std::vector<Plane16> frame1 = MovedPlanes(frame0);
  const std::vector<std::size_t> key_targets =
      SweepTargets(FrameBytesAt(config, frame0, nullptr, config.qp_max),
                   FrameBytesAt(config, frame0, nullptr, config.qp_min));
  ASSERT_EQ(pins.size(), key_targets.size());
  const std::size_t last = key_targets.size() - 1;
  std::uint64_t stopped_before = 0;
  const auto check = [&](const EncodeResult& got, const EncodeResult& twin,
                         const RateControlStats& stats, std::size_t target,
                         const SearchPin& pin, std::size_t i) {
    const std::uint64_t stops = stopped.value() - stopped_before;
    if (i == 0) {
      EXPECT_EQ(stops, static_cast<std::uint64_t>(stats.trials - 1));
    } else {
      stops_after_draws += stops;
    }
    if (i == last) {
      EXPECT_EQ(stops, 0u);
    }
    EXPECT_EQ(got.frame.qp, pin.qp);
    EXPECT_EQ(stats.trials, pin.trials);
    EXPECT_EQ(FrameHash(got.frame), pin.hash);
    EXPECT_TRUE(got.frame.SizeBytes() <= target ||
                got.frame.qp == config.qp_max);
    EXPECT_EQ(SerializeFrame(got.frame), SerializeFrame(twin.frame));
    EXPECT_EQ(got.reconstruction, twin.reconstruction);
  };
  for (std::size_t i = 0; i < key_targets.size(); ++i) {
    SCOPED_TRACE("sweep point " + std::to_string(i));
    VideoEncoder encoder(config, num_planes);
    VideoEncoder twin(config, num_planes);
    VideoDecoder decoder(config, num_planes);

    RateControlStats key_stats;
    stopped_before = stopped.value();
    const EncodeResult key =
        encoder.EncodeToTarget(frame0, key_targets[i], &key_stats);
    ASSERT_TRUE(key.frame.keyframe);
    check(key, twin.EncodeAtQp(frame0, key.frame.qp), key_stats,
          key_targets[i], pins[i].key, i);
    EXPECT_EQ(decoder.Decode(key.frame), key.reconstruction);

    const std::size_t p_target = SweepTargets(
        FrameBytesAt(config, frame1, &key.reconstruction, config.qp_max),
        FrameBytesAt(config, frame1, &key.reconstruction, config.qp_min))[i];
    RateControlStats p_stats;
    stopped_before = stopped.value();
    const EncodeResult p = encoder.EncodeToTarget(frame1, p_target, &p_stats);
    ASSERT_FALSE(p.frame.keyframe);
    check(p, twin.EncodeAtQp(frame1, p.frame.qp), p_stats, p_target,
          pins[i].p, i);
    EXPECT_EQ(decoder.Decode(p.frame), p.reconstruction);
  }
  EXPECT_GT(stops_after_draws, 0u);
}

TEST(VideoCodec, PreciseSearchPinnedFromUnreachableToUnboundedTargets) {
  CodecConfig color = SmallColorConfig();
  color.qp_max = 62;
  color.slice_height = 16;
  CheckPreciseSweep(
      color, RandomColorPlanes(64, 48, 34),
      {{{62, 6, 0x505034ee6515d434ull}, {62, 1, 0xc4dbc14d07aec42eull}},
       {{62, 6, 0x505034ee6515d434ull}, {62, 1, 0xc4dbc14d07aec42eull}},
       {{60, 6, 0x1576736d58e2e7f0ull}, {49, 8, 0x7c859df1ff1c22bbull}},
       {{27, 7, 0xd923a3d01ef035abull}, {28, 6, 0xed130d37834b6a98ull}},
       {{25, 7, 0x6454a3b614d8a77aull}, {25, 2, 0xb71826a9d73f9a49ull}},
       {{22, 7, 0x5a73007527b229b6ull}, {21, 7, 0x34d37b94428a93fdull}},
       {{16, 7, 0xd329801d94bdcfbfull}, {13, 6, 0xefdab2c1f76898f5ull}},
       {{2, 6, 0x1d79f19906d73fe6ull}, {2, 1, 0x4f3c914cea575828ull}},
       {{2, 6, 0x1d79f19906d73fe6ull}, {2, 1, 0x4f3c914cea575828ull}}});

  CodecConfig depth = SmallColorConfig();
  depth.kind = PlaneKind::kDepth16;
  depth.qp_max = 92;
  depth.slice_height = 16;
  CheckPreciseSweep(
      depth, {RandomPlane(64, 48, 65535, 35)},
      {{{92, 7, 0x9a2645e144b769a7ull}, {92, 1, 0x9bfa290d055c319aull}},
       {{92, 7, 0x9a2645e144b769a7ull}, {92, 1, 0x9bfa290d055c319aull}},
       {{92, 7, 0x9a2645e144b769a7ull}, {86, 8, 0xa498c89f248f3840ull}},
       {{70, 7, 0xcdf4ed5026462e8cull}, {69, 8, 0xb7e7b670cfa75391ull}},
       {{65, 6, 0xde3e2e8df1dd4b99ull}, {61, 8, 0x0756172cda15018cull}},
       {{53, 6, 0x7b95ae04e4427120ull}, {45, 8, 0x9113671b4de40674ull}},
       {{35, 7, 0x617869e72c49ab04ull}, {25, 7, 0x95e778d82801e4c4ull}},
       {{2, 7, 0x9242e3595b433f95ull}, {2, 1, 0xe75b190947569e33ull}},
       {{2, 7, 0x9242e3595b433f95ull}, {2, 1, 0xe75b190947569e33ull}}});
}

TEST(VideoCodec, DecoderRejectsPFrameBeforeKeyframe) {
  CodecConfig config = SmallColorConfig();
  VideoEncoder encoder(config, 1);
  VideoDecoder decoder(config, 1);
  const std::vector<Plane16> planes{RandomPlane(64, 48, 255, 40)};
  encoder.EncodeAtQp(planes, 10);                 // keyframe, not delivered
  const auto p = encoder.EncodeAtQp(planes, 10);  // P-frame
  EXPECT_THROW(decoder.Decode(p.frame), std::runtime_error);
}

TEST(VideoCodec, CanDecodeCleanlyDetectsGaps) {
  CodecConfig config = SmallColorConfig();
  VideoEncoder encoder(config, 1);
  VideoDecoder decoder(config, 1);
  const std::vector<Plane16> planes{RandomPlane(64, 48, 255, 41)};
  const auto k = encoder.EncodeAtQp(planes, 10);
  decoder.Decode(k.frame);
  const auto p1 = encoder.EncodeAtQp(planes, 10);
  const auto p2 = encoder.EncodeAtQp(planes, 10);
  EXPECT_TRUE(decoder.CanDecodeCleanly(p1.frame));
  EXPECT_FALSE(decoder.CanDecodeCleanly(p2.frame));  // p1 missing
}

// ---- Depth coding quality property (paper Fig 17 rationale) ----

TEST(DepthCoding, ScaledDepthBeatsUnscaledAtSameQp) {
  // Scaled depth uses the full 16-bit range, so for the same quantization
  // step the effective millimetre error is ~11x smaller.
  CodecConfig config;
  config.width = 64;
  config.height = 48;
  config.kind = PlaneKind::kDepth16;

  // Smooth depth ramp 1000..4000 mm with gentle texture.
  Plane16 depth_mm(64, 48);
  for (int y = 0; y < 48; ++y) {
    for (int x = 0; x < 64; ++x) {
      depth_mm.at(x, y) = static_cast<std::uint16_t>(
          1000 + x * 40 + static_cast<int>(200 * std::sin(y * 0.3)));
    }
  }
  const image::DepthScaler scaler{6000};
  const Plane16 scaled = image::ScaleDepth(depth_mm, scaler);

  const int qp = 40;
  const auto out_unscaled = EncodePlane(config, depth_mm, nullptr, qp);
  const auto out_scaled = EncodePlane(config, scaled, nullptr, qp);
  const Plane16 recovered = image::UnscaleDepth(out_scaled.reconstruction, scaler);

  const double rmse_unscaled = PlaneRmse(depth_mm, out_unscaled.reconstruction);
  const double rmse_scaled = PlaneRmse(depth_mm, recovered);
  EXPECT_LT(rmse_scaled, rmse_unscaled);
}

}  // namespace
}  // namespace livo::video
