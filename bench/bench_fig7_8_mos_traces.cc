// Figs 7 & 8: opinion scores per video, split by bandwidth trace.
// Paper: on trace-1 LiVo reaches MOS ~4.3 (up to 4.5 on pizza1); on
// trace-2 (lower bandwidth) LiVo's MOS is ~3.9; quality improves with
// bandwidth for every scheme.
#include "bench_util.h"
#include "core/experiment.h"
#include "metrics/mos.h"

int main() {
  using namespace livo;
  core::MatrixConfig matrix;
  const auto summaries = core::RunOrLoadMatrix(matrix);

  for (const std::string trace : {"trace-1", "trace-2"}) {
    bench::PrintHeader(trace == "trace-1" ? "Fig 7" : "Fig 8",
                       "Opinion scores per video, " + trace);
    bench::PrintRow({"Video", "Draco-Oracle", "MeshReduce", "LiVo-NoCull",
                     "LiVo"}, 14);
    for (const auto& video : matrix.videos) {
      std::vector<std::string> cells{video};
      for (const std::string scheme :
           {"Draco-Oracle", "MeshReduce", "LiVo-NoCull", "LiVo"}) {
        const auto rows = core::Select(
            summaries, {.scheme = scheme, .video = video, .net_trace = trace});
        double mos = 0.0;
        for (const auto* s : rows) {
          metrics::SessionQuality q{s->pssim_geometry, s->pssim_color,
                                    s->stall_rate, s->fps, s->target_fps};
          mos += metrics::MosScore(q);
        }
        cells.push_back(
            bench::Fmt(rows.empty() ? 0.0 : mos / rows.size(), 2));
      }
      bench::PrintRow(cells, 14);
    }
    std::printf("\n");
  }
  std::printf(
      "Expected shape: every scheme scores higher on trace-1 than trace-2;\n"
      "LiVo's advantage over LiVo-NoCull persists on both except dance5.\n");
  return 0;
}
