// Fig 6: opinion scores per video for the 4 schemes.
// Paper: LiVo beats MeshReduce by 48-135% and LiVo-NoCull by 10-33% in MOS
// across videos; on dance5 (single dancer, nothing to cull) LiVo and
// LiVo-NoCull are comparable.
#include "bench_util.h"
#include "core/experiment.h"
#include "metrics/mos.h"

int main() {
  using namespace livo;
  bench::PrintHeader("Fig 6", "Opinion scores per video");

  core::MatrixConfig matrix;
  const auto summaries = core::RunOrLoadMatrix(matrix);

  bench::PrintRow({"Video", "Draco-Oracle", "MeshReduce", "LiVo-NoCull",
                   "LiVo"}, 14);
  for (const auto& video : matrix.videos) {
    std::vector<std::string> cells{video};
    for (const std::string scheme :
         {"Draco-Oracle", "MeshReduce", "LiVo-NoCull", "LiVo"}) {
      const auto rows =
          core::Select(summaries, {.scheme = scheme, .video = video});
      double mos = 0.0;
      for (const auto* s : rows) {
        metrics::SessionQuality q{s->pssim_geometry, s->pssim_color,
                                  s->stall_rate, s->fps, s->target_fps};
        mos += metrics::MosScore(q);
      }
      cells.push_back(bench::Fmt(rows.empty() ? 0.0 : mos / rows.size(), 2));
    }
    bench::PrintRow(cells, 14);
  }
  std::printf(
      "\nExpected shape: LiVo leads on every video; the LiVo vs LiVo-NoCull\n"
      "gap is smallest on dance5 (one subject, culling cannot help).\n");
  return 0;
}
