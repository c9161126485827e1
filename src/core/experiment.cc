#include "core/experiment.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "obs/log.h"
#include "util/fnv1a.h"

namespace livo::core {

const char* SchemeName(Scheme scheme) {
  switch (scheme) {
    case Scheme::kLiVo: return "LiVo";
    case Scheme::kLiVoNoCull: return "LiVo-NoCull";
    case Scheme::kLiVoNoAdapt: return "LiVo-NoAdapt";
    case Scheme::kMeshReduce: return "MeshReduce";
    case Scheme::kDracoOracle: return "Draco-Oracle";
  }
  return "?";
}

SessionSummary SessionSummary::FromResult(const SessionResult& r) {
  SessionSummary s;
  s.scheme = r.scheme;
  s.video = r.video;
  s.user_trace = r.user_trace;
  s.net_trace = r.net_trace;
  s.pssim_geometry = r.mean_pssim_geometry;
  s.pssim_color = r.mean_pssim_color;
  s.stall_rate = r.stall_rate;
  s.fps = r.fps;
  s.target_fps = r.target_fps;
  s.latency_ms = r.mean_latency_ms;
  s.throughput_mbps = r.mean_throughput_mbps;
  s.capacity_mbps = r.mean_capacity_mbps;
  s.utilization = r.utilization;
  return s;
}

namespace {

// Full-fidelity config descriptions for the cache key. Every field that
// changes session outcomes must be streamed here: the key is the only
// thing standing between a stale .bench_cache entry and a silently wrong
// table after a config edit. Constants are not streamed: a constant is
// code, and editing one moves the key's version, like any code change
// that moves results (v7 dropped the tuning values that became
// constants).
void Describe(std::ostream& os, const geom::FrustumParams& v) {
  os << v.vertical_fov_rad << ',' << v.aspect << ',' << v.near_m << ','
     << v.far_m;
}

void Describe(std::ostream& os, const net::LinkConfig& l) {
  os << l.propagation_delay_ms << ',' << l.max_queue_delay_ms << ','
     << l.loss_rate << ',' << l.bandwidth_scale << ',' << l.seed;
}

void Describe(std::ostream& os, const LiVoConfig& c) {
  // codec_threads is left out: results do not depend on it (tests assert
  // that), so it must not split cache entries.
  os << c.layout.canvas_width() << 'x' << c.layout.canvas_height() << '/'
     << c.layout.tile_height() << ',' << c.fps << ',' << c.enable_culling
     << ',' << c.enable_adaptation << "|split:" << c.split.initial << ','
     << c.split.min << ',' << c.split.max << ',' << c.split.epsilon << ','
     << c.split.update_every << "|pred:";
  Describe(os, c.predictor.viewer);
  const video::CodecConfig color = c.ColorCodecConfig();
  const video::CodecConfig depth = c.DepthCodecConfig();
  os << "|codec:" << color.qp_min << '-' << color.qp_max << '/'
     << color.slice_height << ',' << depth.qp_min << '-' << depth.qp_max
     << '/' << depth.slice_height;
}

void Describe(std::ostream& os, const ReplayOptions& o) {
  os << "link:";
  Describe(os, o.channel.link);
  os << "|gcc:" << o.channel.gcc.initial_bps << ',' << o.channel.gcc.min_bps
     << ',' << o.channel.gcc.max_bps << "|ch:" << o.channel.jitter_buffer_ms
     << ',' << o.channel.enable_nack << '|' << o.bandwidth_scale << ','
     << o.metric_every << ',' << o.pssim_anchors;
}

}  // namespace

std::string MatrixConfig::CacheKey() const {
  std::ostringstream os;
  os.precision(17);
  os << "v7|" << profile.camera_count << "x" << profile.camera_width << "x"
     << profile.camera_height << "|f" << frames << "|u" << user_traces
     << "|t" << trace_duration_s << "|";
  // Key on the full config tuple each scheme will actually run with, not
  // just the scheme names: edits to LiVoConfig/ReplayOptions defaults (or
  // to the profile's scale knobs) must invalidate stale cache entries.
  for (Scheme s : schemes) {
    os << SchemeName(s) << '{';
    switch (s) {
      case Scheme::kLiVo:
      case Scheme::kLiVoNoCull:
      case Scheme::kLiVoNoAdapt: {
        Describe(os, MakeLiVoConfig(s, profile));
        os << ';';
        Describe(os, MakeReplayOptions(profile));
        break;
      }
      case Scheme::kMeshReduce:
      case Scheme::kDracoOracle:
        os << profile.bandwidth_scale;
        break;
    }
    os << '}';
  }
  os << "|";
  for (const auto& v : videos) os << v << ",";
  os << "|" << both_traces;
  const std::string description = os.str();
  util::Fnv1a h;
  h.MixBytes(description.data(), description.size());
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h.value()));
  return buf;
}

LiVoConfig MakeLiVoConfig(Scheme scheme, const sim::ScaleProfile& profile) {
  LiVoConfig config;
  config.layout = image::TileLayout(profile.camera_count, profile.camera_width,
                                    profile.camera_height);
  config.fps = profile.fps;
  switch (scheme) {
    case Scheme::kLiVo:
      break;
    case Scheme::kLiVoNoCull:
      config.enable_culling = false;
      break;
    case Scheme::kLiVoNoAdapt:
      config.enable_culling = false;
      config.enable_adaptation = false;
      break;
    default:
      break;
  }
  return config;
}

ReplayOptions MakeReplayOptions(const sim::ScaleProfile& profile) {
  ReplayOptions options;
  options.bandwidth_scale = profile.bandwidth_scale;
  return options;
}

SessionResult RunScheme(Scheme scheme, const sim::CapturedSequence& sequence,
                        const sim::UserTrace& user,
                        const sim::BandwidthTrace& net,
                        const sim::ScaleProfile& profile) {
  switch (scheme) {
    case Scheme::kLiVo:
    case Scheme::kLiVoNoCull:
    case Scheme::kLiVoNoAdapt: {
      const LiVoConfig config = MakeLiVoConfig(scheme, profile);
      ReplayOptions options = MakeReplayOptions(profile);
      options.scheme_name = SchemeName(scheme);
      // Each user-trace style starts its replay 3.1 s further into the
      // network trace, so the matrix's three users meet different segments.
      // The offset depends on the style alone: every video's user of one
      // style replays the same segment in the three LiVo variants. The
      // baselines below take no offset: MeshReduce replays the trace from
      // its start and Draco-Oracle reads capacity from t = 0, so for the
      // walk-in and focus users they meet other network conditions than
      // LiVo does (a ROADMAP open item).
      options.trace_offset_ms = 3100.0 * static_cast<int>(user.style);
      return RunLiVoSession(sequence, user, net, config, options);
    }
    case Scheme::kMeshReduce:
      return RunMeshReduce(sequence, user, net, profile.bandwidth_scale);
    case Scheme::kDracoOracle:
      return RunDracoOracle(sequence, user, net, profile.bandwidth_scale);
  }
  throw std::logic_error("unknown scheme");
}

namespace {

constexpr char kCacheDir[] = ".bench_cache";

std::string CachePath(const MatrixConfig& config) {
  return std::string(kCacheDir) + "/matrix_" + config.CacheKey() + ".tsv";
}

std::optional<std::vector<SessionSummary>> LoadCache(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::vector<SessionSummary> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    SessionSummary s;
    if (!(ls >> s.scheme >> s.video >> s.user_trace >> s.net_trace >>
          s.pssim_geometry >> s.pssim_color >> s.stall_rate >> s.fps >>
          s.target_fps >> s.latency_ms >> s.throughput_mbps >>
          s.capacity_mbps >> s.utilization)) {
      return std::nullopt;  // corrupt cache: re-run
    }
    out.push_back(std::move(s));
  }
  if (out.empty()) return std::nullopt;
  return out;
}

void SaveCache(const std::string& path,
               const std::vector<SessionSummary>& summaries) {
  std::filesystem::create_directories(kCacheDir);
  std::ofstream out(path);
  // max_digits10, so a loaded matrix equals the run that wrote it.
  out.precision(17);
  out << "# scheme video user net pssim_g pssim_c stall fps target_fps "
         "latency thpt cap util\n";
  for (const auto& s : summaries) {
    out << s.scheme << ' ' << s.video << ' ' << s.user_trace << ' '
        << s.net_trace << ' ' << s.pssim_geometry << ' ' << s.pssim_color
        << ' ' << s.stall_rate << ' ' << s.fps << ' ' << s.target_fps << ' '
        << s.latency_ms << ' ' << s.throughput_mbps << ' ' << s.capacity_mbps
        << ' ' << s.utilization << '\n';
  }
}

}  // namespace

std::vector<SessionSummary> RunOrLoadMatrix(const MatrixConfig& config,
                                            bool verbose) {
  // Long-running benches pass verbose=true and expect progress lines, so
  // raise the logger floor to Info for them; everything stays routed
  // through the leveled logger (and its sink) either way.
  if (verbose && !obs::LogEnabled(obs::LogLevel::kInfo)) {
    obs::SetMinLogLevel(obs::LogLevel::kInfo);
  }
  const std::string path = CachePath(config);
  if (auto cached = LoadCache(path)) {
    LIVO_LOG(Info) << "matrix: loaded " << cached->size()
                   << " cached sessions from " << path;
    return *cached;
  }

  std::vector<SessionSummary> summaries;
  const auto nets = [&] {
    std::vector<sim::BandwidthTrace> t{sim::MakeTrace2(config.trace_duration_s)};
    if (config.both_traces) t.push_back(sim::MakeTrace1(config.trace_duration_s));
    return t;
  }();

  for (const std::string& video : config.videos) {
    LIVO_LOG(Info) << "matrix: capturing " << video << "...";
    const sim::CapturedSequence sequence =
        sim::CaptureVideo(video, config.profile, config.frames);
    const auto users = sim::StandardTraces(
        video, config.frames + 90, config.profile.fps);
    for (int u = 0; u < config.user_traces && u < static_cast<int>(users.size());
         ++u) {
      for (const auto& net : nets) {
        for (Scheme scheme : config.schemes) {
          LIVO_LOG(Info) << "matrix: " << SchemeName(scheme) << " / " << video
                         << " / user" << u << " / " << net.name;
          const SessionResult result =
              RunScheme(scheme, sequence, users[static_cast<std::size_t>(u)],
                        net, config.profile);
          summaries.push_back(SessionSummary::FromResult(result));
        }
      }
    }
  }
  SaveCache(path, summaries);
  LIVO_LOG(Info) << "matrix: cached " << summaries.size() << " sessions at "
                 << path;
  return summaries;
}

std::vector<const SessionSummary*> Select(
    const std::vector<SessionSummary>& all, const Filter& filter) {
  std::vector<const SessionSummary*> out;
  for (const auto& s : all) {
    if (!filter.scheme.empty() && s.scheme != filter.scheme) continue;
    if (!filter.video.empty() && s.video != filter.video) continue;
    if (!filter.net_trace.empty() && s.net_trace != filter.net_trace) continue;
    out.push_back(&s);
  }
  return out;
}

double MeanOf(const std::vector<const SessionSummary*>& rows,
              double SessionSummary::* field) {
  if (rows.empty()) return 0.0;
  double sum = 0.0;
  for (const auto* r : rows) sum += r->*field;
  return sum / static_cast<double>(rows.size());
}

double StdOf(const std::vector<const SessionSummary*>& rows,
             double SessionSummary::* field) {
  if (rows.size() < 2) return 0.0;
  const double m = MeanOf(rows, field);
  double sum = 0.0;
  for (const auto* r : rows) sum += (r->*field - m) * (r->*field - m);
  return std::sqrt(sum / static_cast<double>(rows.size() - 1));
}

}  // namespace livo::core
