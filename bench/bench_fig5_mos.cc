// Fig 5: aggregated opinion scores for the 4 schemes.
// Paper anchors: Draco-Oracle MOS 1.5, MeshReduce 2.5, LiVo-NoCull 3.4,
// LiVo 4.1 (20 participants, 57 ratings per scheme). Here each session's
// measured quality/stall/fps statistics feed the calibrated opinion model
// (metrics::MosScore; see DESIGN.md §1 on this substitution) and synthetic
// per-rater scores reproduce the distribution view.
#include <array>

#include "bench_util.h"
#include "core/experiment.h"
#include "metrics/mos.h"

int main() {
  using namespace livo;
  bench::PrintHeader("Fig 5", "Aggregated opinion scores (4 schemes)");

  core::MatrixConfig matrix;
  const auto summaries = core::RunOrLoadMatrix(matrix);

  bench::PrintRow({"Scheme", "MOS", "Median", "1", "2", "3", "4", "5"}, 9);
  for (const std::string scheme :
       {"Draco-Oracle", "MeshReduce", "LiVo-NoCull", "LiVo"}) {
    const auto rows = core::Select(summaries, {.scheme = scheme});
    std::vector<int> all_ratings;
    double mos_sum = 0.0;
    std::uint64_t seed = 1;
    for (const auto* s : rows) {
      metrics::SessionQuality q;
      q.pssim_geometry = s->pssim_geometry;
      q.pssim_color = s->pssim_color;
      q.stall_rate = s->stall_rate;
      q.fps = s->fps;
      q.target_fps = s->target_fps;
      mos_sum += metrics::MosScore(q);
      // ~2 raters per <video, user, net> cell approximates the paper's 57
      // ratings per scheme over 30 cells.
      const auto ratings = metrics::SyntheticRatings(q, 2, seed++);
      all_ratings.insert(all_ratings.end(), ratings.begin(), ratings.end());
    }
    std::array<int, 6> histogram{};
    for (int r : all_ratings) ++histogram[static_cast<std::size_t>(r)];
    std::vector<int> sorted = all_ratings;
    std::sort(sorted.begin(), sorted.end());
    const double median =
        sorted.empty() ? 0.0 : sorted[sorted.size() / 2];
    bench::PrintRow(
        {scheme, bench::Fmt(rows.empty() ? 0.0 : mos_sum / rows.size(), 2),
         bench::Fmt(median, 1), std::to_string(histogram[1]),
         std::to_string(histogram[2]), std::to_string(histogram[3]),
         std::to_string(histogram[4]), std::to_string(histogram[5])},
        9);
  }
  std::printf(
      "\nExpected shape (paper): LiVo ~4.1 > LiVo-NoCull ~3.4 > MeshReduce\n"
      "~2.5 > Draco-Oracle ~1.5. Ordering here is emergent from measured\n"
      "PSSIM/stall/fps; only the opinion-model constants are calibrated.\n");
  return 0;
}
