#include "video/plane_codec.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "image/plane_pool.h"
#include "kernels/kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/bitstream.h"
#include "util/clock.h"
#include "util/thread_pool.h"
#include "video/dct.h"

namespace livo::video {
namespace {

using image::Plane16;
using util::BitReader;
using util::BitWriter;

// Motion vectors searched by the encoder and accepted by the decoder span
// [-kMotionRangePx, kMotionRangePx] on each axis.
constexpr int kMotionRangePx = 3;

enum BlockMode : int {
  kModeSkip = 0,      // copy co-located reference block, no residual
  kModeInterZero = 1, // co-located prediction + residual
  kModeInterMv = 2,   // motion-compensated prediction + residual
  kModeIntraDc = 3,   // DC prediction from reconstructed neighbours
};

// One independent horizontal band of a plane: pixel rows [y0, y1), both
// multiples of the block size. All prediction — intra DC neighbours and
// motion-compensated reference reads — is confined to the band, so each
// slice is a pure function of its own rows of (src, reference) and slices
// can encode/decode concurrently.
struct SliceBand {
  int y0 = 0;
  int y1 = 0;
};

std::vector<SliceBand> SlicePartition(const CodecConfig& config, int height) {
  const int slice_height =
      config.slice_height > 0 ? config.slice_height : height;
  std::vector<SliceBand> slices;
  for (int y0 = 0; y0 < height; y0 += slice_height) {
    slices.push_back({y0, std::min(y0 + slice_height, height)});
  }
  return slices;
}

void ValidateSliceConfig(const CodecConfig& config) {
  if (config.slice_height % kBlockSize != 0 || config.slice_height < 0) {
    throw std::invalid_argument(
        "slice_height must be a non-negative multiple of 8");
  }
}

util::ThreadPool& Pool(const CodecConfig& config) {
  return config.pool != nullptr ? *config.pool : util::SharedPool();
}

// Loads the 8x8 source block at (bx, by) in block units.
void LoadBlock(const Plane16& plane, int bx, int by, IntBlock& out) {
  const int x0 = bx * kBlockSize, y0 = by * kBlockSize;
  for (int y = 0; y < kBlockSize; ++y) {
    const auto* row = plane.row(y0 + y) + x0;
    for (int x = 0; x < kBlockSize; ++x) out[y * kBlockSize + x] = row[x];
  }
}

// True when the prediction block at pixel origin (x0, y0) lies entirely
// inside the plane horizontally and inside the slice band vertically, i.e.
// no border clamping can occur.
inline bool PredictionIsInterior(const Plane16& ref, const SliceBand& band,
                                 int x0, int y0) {
  return x0 >= 0 && x0 + kBlockSize <= ref.width() && y0 >= band.y0 &&
         y0 + kBlockSize <= band.y1;
}

// Builds the motion-compensated prediction block at offset (dx, dy).
// Reference reads clamp to the slice band (not the whole plane) so slices
// stay independent; the interior fast path skips per-pixel clamping
// entirely, which is the common case for every co-located (zero-motion)
// block and most motion candidates.
void LoadPrediction(const Plane16& ref, const SliceBand& band, int bx, int by,
                    int dx, int dy, IntBlock& out) {
  const int x0 = bx * kBlockSize + dx, y0 = by * kBlockSize + dy;
  if (PredictionIsInterior(ref, band, x0, y0)) {
    for (int y = 0; y < kBlockSize; ++y) {
      const auto* row = ref.row(y0 + y) + x0;
      for (int x = 0; x < kBlockSize; ++x) out[y * kBlockSize + x] = row[x];
    }
    return;
  }
  const int max_x = ref.width() - 1;
  for (int y = 0; y < kBlockSize; ++y) {
    const int ry = std::clamp(y0 + y, band.y0, band.y1 - 1);
    const auto* row = ref.row(ry);
    for (int x = 0; x < kBlockSize; ++x) {
      out[y * kBlockSize + x] = row[std::clamp(x0 + x, 0, max_x)];
    }
  }
}

long long Sad(const kernels::KernelTable& kt, const IntBlock& a,
              const IntBlock& b) {
  return kt.sad_block(a.data(), b.data());
}

// SAD between `src` and the candidate prediction at pixel origin (x0, y0),
// aborting once the partial sum reaches `bound`: the candidate can no
// longer beat the current best (comparison is strict <), so the exact
// value is irrelevant. Fuses the prediction fetch into the accumulation —
// no candidate block is materialized. The interior fast path keeps the
// historical per-row early exit, with each row's SAD computed by the
// dispatched kernel.
long long SadBounded(const kernels::KernelTable& kt, const Plane16& ref,
                     const SliceBand& band, const IntBlock& src, int x0,
                     int y0, long long bound) {
  long long s = 0;
  if (PredictionIsInterior(ref, band, x0, y0)) {
    for (int y = 0; y < kBlockSize; ++y) {
      s += kt.sad_row8_u16(src.data() + y * kBlockSize, ref.row(y0 + y) + x0);
      if (s >= bound) return s;
    }
    return s;
  }
  const int max_x = ref.width() - 1;
  for (int y = 0; y < kBlockSize; ++y) {
    const int ry = std::clamp(y0 + y, band.y0, band.y1 - 1);
    const auto* row = ref.row(ry);
    const int* srow = src.data() + y * kBlockSize;
    for (int x = 0; x < kBlockSize; ++x) {
      s += std::abs(srow[x] - row[std::clamp(x0 + x, 0, max_x)]);
    }
    if (s >= bound) return s;
  }
  return s;
}

// DC intra prediction from reconstructed pixels above and left of the block.
// Mirrored exactly by the decoder (both operate on the same reconstruction).
// Neighbours above the slice's first block row are treated as unavailable so
// the prediction never reads another slice's reconstruction.
int IntraDcPrediction(const Plane16& recon, const SliceBand& band, int bx,
                      int by, int mid_value) {
  const int x0 = bx * kBlockSize, y0 = by * kBlockSize;
  long long sum = 0;
  int count = 0;
  if (y0 > band.y0) {
    for (int x = 0; x < kBlockSize; ++x) sum += recon.at(x0 + x, y0 - 1);
    count += kBlockSize;
  }
  if (x0 > 0) {
    for (int y = 0; y < kBlockSize; ++y) sum += recon.at(x0 - 1, y0 + y);
    count += kBlockSize;
  }
  return count > 0 ? static_cast<int>(sum / count) : mid_value;
}

void FillBlock(int value, IntBlock& out) { out.fill(value); }

// Transforms and quantizes a residual; returns quantized levels in raster
// order and whether any level is non-zero. Transform + rounding live in the
// kernel layer (round-half-away-from-zero contract).
bool QuantizeResidual(const kernels::KernelTable& kt, const IntBlock& residual,
                      double step, IntBlock& levels) {
  return kt.quantize_residual(residual.data(), step, levels.data());
}

// Dequantizes and inverse-transforms levels into a spatial residual.
void ReconstructResidual(const kernels::KernelTable& kt, const IntBlock& levels,
                         double step, IntBlock& residual) {
  kt.reconstruct_residual(levels.data(), step, residual.data());
}

// Ends a block's levels; a block whose levels are all zero is this code
// alone.
void WriteEndOfBlock(BitWriter& writer) { writer.WriteUE(kBlockPixels); }

// Entropy-codes quantized levels: zigzag (run, level) pairs, EOB = run 64.
void WriteLevels(BitWriter& writer, const IntBlock& levels) {
  int run = 0;
  for (int pos = 0; pos < kBlockPixels; ++pos) {
    const int level = levels[kZigzagOrder[pos]];
    if (level == 0) {
      ++run;
    } else {
      writer.WriteUE(static_cast<std::uint64_t>(run));
      writer.WriteSE(level);
      run = 0;
    }
  }
  WriteEndOfBlock(writer);
}

// Largest |level| the encoder emits at quantization `step`: a residual
// sample is at most max_value in magnitude, an orthonormal 8x8 DCT basis
// vector has L1 norm at most 8, and quantization rounds half away from
// zero, so |level| <= 8 * max_value / step + 1/2.
std::int64_t MaxLevel(int max_value, double step) {
  return static_cast<std::int64_t>(8.0 * max_value / step) + 1;
}

// Inverse of WriteLevels; rejects a level above `max_level` in magnitude,
// which no encoder at this QP emits. Returns whether it stored a non-zero
// level: a stream may code an explicit 0, so "read a level" is not enough.
bool ReadLevels(BitReader& reader, std::int64_t max_level, IntBlock& levels) {
  levels.fill(0);
  bool any_level = false;
  int pos = 0;
  for (;;) {
    const auto run = reader.ReadUE();
    if (run >= kBlockPixels) break;  // EOB
    pos += static_cast<int>(run);
    if (pos >= kBlockPixels) throw std::runtime_error("corrupt level run");
    const std::int64_t level = reader.ReadSE();
    if (level < -max_level || level > max_level) {
      throw std::runtime_error("corrupt level");
    }
    levels[kZigzagOrder[pos]] = static_cast<int>(level);
    any_level = any_level || level != 0;
    ++pos;
  }
  return any_level;
}

// Reconstructs a SKIP block: copies the co-located reference block's eight
// rows. This equals StoreBlock of that prediction with a zero residual,
// because the co-located block is always interior and every reference
// sample is an earlier StoreBlock output, already in [0, max_value].
void CopyBlock(const Plane16& ref, int bx, int by, Plane16& recon) {
  const int x0 = bx * kBlockSize, y0 = by * kBlockSize;
  for (int y = 0; y < kBlockSize; ++y) {
    std::memcpy(recon.row(y0 + y) + x0, ref.row(y0 + y) + x0,
                kBlockSize * sizeof(std::uint16_t));
  }
}

// The spatial residual of a block whose levels are all zero: each
// dequantized level is 0, the inverse transform's sums of products with 0
// are +-0, and rounding half away from zero maps +-0 to 0.
constexpr IntBlock kZeroResidual{};

// Writes the reconstructed block (prediction + residual, clamped) into the
// reconstruction plane.
void StoreBlock(Plane16& recon, int bx, int by, const IntBlock& prediction,
                const IntBlock& residual, int max_value) {
  const int x0 = bx * kBlockSize, y0 = by * kBlockSize;
  for (int y = 0; y < kBlockSize; ++y) {
    auto* row = recon.row(y0 + y) + x0;
    for (int x = 0; x < kBlockSize; ++x) {
      const int i = y * kBlockSize + x;
      row[x] = static_cast<std::uint16_t>(
          std::clamp(prediction[i] + residual[i], 0, max_value));
    }
  }
}

// Small full search over [-kMotionRangePx, kMotionRangePx]^2 minimizing
// SAD. (0, 0) with SAD `sad_zero` is the incumbent, so the result never
// regresses; each other candidate is evaluated with an early-exit bound at
// the current best, which discards most candidates after a few rows.
void MotionSearch(const kernels::KernelTable& kt, const Plane16& ref,
                  const SliceBand& band, const IntBlock& src, int bx, int by,
                  long long sad_zero, int& best_dx, int& best_dy,
                  long long& best_sad) {
  const int px = bx * kBlockSize, py = by * kBlockSize;
  best_dx = 0;
  best_dy = 0;
  best_sad = sad_zero;
  for (int dy = -kMotionRangePx; dy <= kMotionRangePx; ++dy) {
    for (int dx = -kMotionRangePx; dx <= kMotionRangePx; ++dx) {
      if (dx == 0 && dy == 0) continue;
      const long long sad =
          SadBounded(kt, ref, band, src, px + dx, py + dy, best_sad);
      if (sad < best_sad) {
        best_sad = sad;
        best_dx = dx;
        best_dy = dy;
      }
    }
  }
}

// Encodes pixel rows [band.y0, band.y1) of `src` into an independent
// bitstream segment, writing the slice's rows of `recon` (disjoint across
// slices, so concurrent slice encodes never touch the same bytes). With a
// `budget`, each block row first draws the whole bytes written since the
// last draw and the slice stops once the allowance is negative
// (EncodePlane).
std::vector<std::uint8_t> EncodeSlice(const CodecConfig& config,
                                      const Plane16& src,
                                      const Plane16* reference, int qp,
                                      const SliceBand& band, Plane16& recon,
                                      std::atomic<std::int64_t>* budget) {
  const double step = QpToStep(qp);
  const int max_value = config.MaxSampleValue();
  const int blocks_x = src.width() / kBlockSize;
  const int by_begin = band.y0 / kBlockSize;
  const int by_end = band.y1 / kBlockSize;
  const bool is_inter = reference != nullptr;
  const kernels::KernelTable& kt = kernels::Active();

  BitWriter writer;
  IntBlock src_block, zero_pred, prediction, residual, levels, recon_residual;
  // If the co-located residual energy is below the quantization noise
  // floor, coding it cannot improve the reconstruction: SKIP.
  const double noise_floor = (step * step / 12.0) * kBlockPixels;
  std::size_t drawn = 0;  // whole bytes of `writer` drawn from `budget`

  for (int by = by_begin; by < by_end; ++by) {
    if (budget != nullptr) {
      const std::size_t whole = writer.BitCount() / 8;
      const auto draw = static_cast<std::int64_t>(whole - drawn);
      drawn = whole;
      // fetch_sub returns the allowance before the draw, which leaves it
      // negative exactly when it held less than the draw.
      if (budget->fetch_sub(draw, std::memory_order_relaxed) < draw) break;
    }
    for (int bx = 0; bx < blocks_x; ++bx) {
      if (is_inter) {
        // The SKIP test reads both planes in place (the co-located block is
        // always interior), so a skipped block is never copied into an
        // IntBlock.
        const int x0 = bx * kBlockSize, y0 = by * kBlockSize;
        const std::uint64_t sse_zero =
            kt.ssd_block_u16(src.row(y0) + x0, src.width(),
                             reference->row(y0) + x0, reference->width());
        if (static_cast<double>(sse_zero) <= noise_floor) {
          writer.WriteUE(kModeSkip);
          CopyBlock(*reference, bx, by, recon);
          continue;
        }
      }
      LoadBlock(src, bx, by, src_block);

      int mode = kModeIntraDc;
      int mv_dx = 0, mv_dy = 0;

      if (is_inter) {
        // Candidate evaluation by SAD with small mode-cost biases.
        LoadPrediction(*reference, band, bx, by, 0, 0, zero_pred);
        const long long sad_zero = Sad(kt, src_block, zero_pred);
        long long sad_mv = sad_zero;
        if (config.motion_search) {
          MotionSearch(kt, *reference, band, src_block, bx, by, sad_zero,
                       mv_dx, mv_dy, sad_mv);
        }
        const int dc_pred =
            IntraDcPrediction(recon, band, bx, by, config.MidSampleValue());
        IntBlock intra_pred;
        FillBlock(dc_pred, intra_pred);
        const long long sad_intra = Sad(kt, src_block, intra_pred);

        // Bias terms approximate signalling cost (mv bits, intra's weaker
        // temporal continuity) in units of SAD.
        const auto lambda = static_cast<long long>(step * kBlockSize);
        const long long cost_zero = sad_zero;
        const long long cost_mv =
            (mv_dx == 0 && mv_dy == 0) ? sad_zero : sad_mv + lambda;
        const long long cost_intra = sad_intra + 2 * lambda;

        if (cost_mv < cost_zero && cost_mv <= cost_intra) {
          mode = kModeInterMv;
        } else if (cost_zero <= cost_intra) {
          mode = kModeInterZero;
        } else {
          mode = kModeIntraDc;
        }
      }

      // Build the chosen prediction; zero motion reuses the SAD test's.
      const IntBlock* pred = &prediction;
      switch (mode) {
        case kModeInterZero:
          pred = &zero_pred;
          break;
        case kModeInterMv:
          LoadPrediction(*reference, band, bx, by, mv_dx, mv_dy, prediction);
          break;
        case kModeIntraDc:
        default:
          FillBlock(
              IntraDcPrediction(recon, band, bx, by, config.MidSampleValue()),
              prediction);
          break;
      }

      int residual_bits = 0;
      for (int i = 0; i < kBlockPixels; ++i) {
        residual[i] = src_block[i] - (*pred)[i];
        residual_bits |= residual[i];
      }
      // A zero residual needs no forward transform: every coefficient is a
      // sum of products with 0, and +-0 / step rounds to level 0.
      const bool any_level =
          residual_bits != 0 && QuantizeResidual(kt, residual, step, levels);

      // Exact late skip: a zero-motion inter block whose residual quantizes
      // to all zeros reconstructs identically to SKIP, which costs 1 symbol
      // instead of mode + EOB.
      if (is_inter && mode == kModeInterZero && !any_level) {
        writer.WriteUE(kModeSkip);
        CopyBlock(*reference, bx, by, recon);
        continue;
      }

      if (is_inter) {
        writer.WriteUE(static_cast<std::uint64_t>(mode));
        if (mode == kModeInterMv) {
          writer.WriteSE(mv_dx);
          writer.WriteSE(mv_dy);
        }
      }
      // All-zero levels need no inverse transform (kZeroResidual).
      if (!any_level) {
        WriteEndOfBlock(writer);
        StoreBlock(recon, bx, by, *pred, kZeroResidual, max_value);
        continue;
      }
      WriteLevels(writer, levels);
      ReconstructResidual(kt, levels, step, recon_residual);
      StoreBlock(recon, bx, by, *pred, recon_residual, max_value);
    }
  }

  return writer.Finish();
}

// Decodes one slice segment into its rows of `recon`.
void DecodeSlice(const CodecConfig& config, const std::uint8_t* data,
                 std::size_t size, const Plane16* reference, int qp,
                 const SliceBand& band, Plane16& recon) {
  const double step = QpToStep(qp);
  const int max_value = config.MaxSampleValue();
  const std::int64_t max_level = MaxLevel(max_value, step);
  const int blocks_x = config.width / kBlockSize;
  const int by_begin = band.y0 / kBlockSize;
  const int by_end = band.y1 / kBlockSize;
  const bool is_inter = reference != nullptr;

  const kernels::KernelTable& kt = kernels::Active();
  BitReader reader(data, size);
  IntBlock prediction, levels, residual;

  for (int by = by_begin; by < by_end; ++by) {
    for (int bx = 0; bx < blocks_x; ++bx) {
      int mode = kModeIntraDc;
      int mv_dx = 0, mv_dy = 0;
      if (is_inter) {
        const std::uint64_t code = reader.ReadUE();
        if (code > kModeIntraDc) throw std::runtime_error("corrupt block mode");
        mode = static_cast<int>(code);
        if (mode == kModeInterMv) {
          const std::int64_t dx = reader.ReadSE();
          const std::int64_t dy = reader.ReadSE();
          if (dx < -kMotionRangePx || dx > kMotionRangePx ||
              dy < -kMotionRangePx || dy > kMotionRangePx) {
            throw std::runtime_error("corrupt motion vector");
          }
          mv_dx = static_cast<int>(dx);
          mv_dy = static_cast<int>(dy);
        }
      }

      if (mode == kModeSkip) {
        CopyBlock(*reference, bx, by, recon);
        continue;
      }

      switch (mode) {
        case kModeInterZero:
          LoadPrediction(*reference, band, bx, by, 0, 0, prediction);
          break;
        case kModeInterMv:
          LoadPrediction(*reference, band, bx, by, mv_dx, mv_dy, prediction);
          break;
        case kModeIntraDc:
        default:
          FillBlock(
              IntraDcPrediction(recon, band, bx, by, config.MidSampleValue()),
              prediction);
          break;
      }

      if (ReadLevels(reader, max_level, levels)) {
        ReconstructResidual(kt, levels, step, residual);
        StoreBlock(recon, bx, by, prediction, residual, max_value);
      } else {
        StoreBlock(recon, bx, by, prediction, kZeroResidual, max_value);
      }
    }
  }
}

}  // namespace

PlaneEncodeOutput EncodePlane(const CodecConfig& config, const Plane16& src,
                              const Plane16* reference, int qp,
                              std::atomic<std::int64_t>* budget) {
  LIVO_SPAN("codec.encode_plane");
  if (src.width() % kBlockSize != 0 || src.height() % kBlockSize != 0) {
    throw std::invalid_argument("plane dimensions must be multiples of 8");
  }
  if (reference != nullptr && !reference->SameShape(src)) {
    throw std::invalid_argument("reference shape mismatch");
  }
  ValidateSliceConfig(config);
  const std::vector<SliceBand> slices = SlicePartition(config, src.height());
  const auto slice_count = slices.size();

  PlaneEncodeOutput out;
  // Pooled storage: every pixel is written by exactly one slice below
  // (unless the budget stops the encode), so the unspecified initial
  // contents never leak.
  out.reconstruction = image::AcquirePooledPlane(src.width(), src.height());

  // Encode slices concurrently; each writes a disjoint row band of the
  // reconstruction and its own bitstream segment, keyed by slice index.
  std::vector<std::vector<std::uint8_t>> segments(slice_count);
  std::vector<double> slice_busy_ms(slice_count, 0.0);
  util::Stopwatch wall;
  Pool(config).ParallelFor(
      static_cast<int>(slice_count), config.max_threads, [&](int i) {
        LIVO_SPAN("codec.slice_encode");
        util::Stopwatch watch;
        segments[static_cast<std::size_t>(i)] =
            EncodeSlice(config, src, reference, qp,
                        slices[static_cast<std::size_t>(i)],
                        out.reconstruction, budget);
        slice_busy_ms[static_cast<std::size_t>(i)] = watch.ElapsedMs();
      });

  if (slice_count > 1 && config.max_threads != 1) {
    // Effective speedup of the fan-out: total slice compute over wall time
    // of the parallel section (1.0 = no gain, ~lane count = ideal).
    static obs::Gauge& speedup =
        obs::Registry::Get().GetGauge("codec.parallel_speedup");
    const double wall_ms = wall.ElapsedMs();
    double busy_ms = 0.0;
    for (const double ms : slice_busy_ms) busy_ms += ms;
    if (wall_ms > 0.0) speedup.Set(busy_ms / wall_ms);
  }

  // Deterministic assembly: a slice table (count + per-slice byte length)
  // followed by the segments concatenated in slice order, so the bitstream
  // is byte-identical no matter how the encode was scheduled.
  BitWriter header;
  header.WriteUE(slice_count);
  for (const auto& segment : segments) header.WriteUE(segment.size());
  out.bits = header.Finish();
  for (const auto& segment : segments) {
    out.bits.insert(out.bits.end(), segment.begin(), segment.end());
  }
  return out;
}

Plane16 DecodePlane(const CodecConfig& config,
                    const std::vector<std::uint8_t>& bits,
                    const Plane16* reference, int qp) {
  LIVO_SPAN("codec.decode_plane");
  if (config.width % kBlockSize != 0 || config.height % kBlockSize != 0) {
    throw std::invalid_argument("plane dimensions must be multiples of 8");
  }
  if (reference != nullptr && (reference->width() != config.width ||
                               reference->height() != config.height)) {
    throw std::invalid_argument("reference shape mismatch");
  }
  ValidateSliceConfig(config);
  const std::vector<SliceBand> slices = SlicePartition(config, config.height);

  // Parse and validate the slice table before fanning out.
  BitReader header(bits);
  const std::uint64_t slice_count = header.ReadUE();
  if (slice_count != slices.size()) {
    throw std::runtime_error("corrupt slice header: slice count mismatch");
  }
  std::vector<std::size_t> lengths(slices.size());
  for (auto& len : lengths) {
    len = static_cast<std::size_t>(header.ReadUE());
  }
  const std::size_t header_bytes =
      (bits.size() * 8 - header.BitsRemaining() + 7) / 8;
  std::vector<std::size_t> offsets(slices.size());
  std::size_t pos = header_bytes;
  for (std::size_t i = 0; i < slices.size(); ++i) {
    if (lengths[i] > bits.size() - pos) {
      throw std::runtime_error("corrupt slice header: segment overruns stream");
    }
    offsets[i] = pos;
    pos += lengths[i];
  }

  Plane16 recon = image::AcquirePooledPlane(config.width, config.height);
  Pool(config).ParallelFor(
      static_cast<int>(slices.size()), config.max_threads, [&](int i) {
        LIVO_SPAN("codec.slice_decode");
        const auto s = static_cast<std::size_t>(i);
        DecodeSlice(config, bits.data() + offsets[s], lengths[s], reference,
                    qp, slices[s], recon);
      });
  return recon;
}

}  // namespace livo::video
