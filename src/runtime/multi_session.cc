#include "runtime/multi_session.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "obs/obs.h"
#include "runtime/loop_group.h"
#include "util/clock.h"
#include "util/fnv1a.h"

namespace livo::runtime {

MultiSessionResult RunMultiSession(std::vector<SessionSpec> specs,
                                   const MultiSessionOptions& options) {
  MultiSessionResult result;
  // A shared bottleneck couples every flow at event fidelity, so the whole
  // run collapses to one domain on one loop; independent sessions are one
  // domain each and spread over the shards round-robin.
  const int max_domains = specs.empty() ? 1 : static_cast<int>(specs.size());
  const int shards =
      options.share_link ? 1 : std::clamp(options.shards, 1, max_domains);
  LoopGroup group(shards);
  result.shards = shards;

  std::unique_ptr<SharedLink> bottleneck;
  ReplayLink flow;
  if (options.share_link && !specs.empty()) {
    bottleneck = std::make_unique<SharedLink>(
        options.shared_trace.Replayed(core::ReplayOptions::trace_time_accel,
                                      0.0),
        options.shared_link_config);
    // Flows warm-start at their fair share of the shared bottleneck.
    flow = ReplayLink{
        .trace = &options.shared_trace,
        .bandwidth_scale = options.shared_link_config.bandwidth_scale,
        .shared = bottleneck.get(),
        .flows = static_cast<int>(specs.size())};
  }

  std::vector<std::unique_ptr<SessionActor>> actors;
  actors.reserve(specs.size());
  int domain = 0;
  for (SessionSpec& spec : specs) {
    EventLoop& loop = group.loop(bottleneck ? 0 : domain++);
    actors.push_back(std::make_unique<SessionActor>(
        loop, std::move(spec), bottleneck ? &flow : nullptr));
  }

  for (auto& actor : actors) actor->Start();

  const util::Stopwatch wall;
  group.Run();
  result.wall_ms = wall.ElapsedMs();

  result.sessions.reserve(actors.size());
  for (auto& actor : actors) {
    result.sessions.push_back(actor->TakeResult());
  }
  result.events_dispatched = group.events_dispatched();
  result.events_scheduled = group.events_scheduled();
  result.virtual_ms = group.MaxDispatchMs();
  LIVO_LOG(Info) << "multi-session run: " << result.sessions.size()
                 << " sessions on " << shards << " shard(s), "
                 << result.events_dispatched << " events over "
                 << result.virtual_ms << " virtual ms in " << result.wall_ms
                 << " wall ms";
  return result;
}

std::uint64_t MultiSessionFingerprint(const MultiSessionResult& result) {
  util::Fnv1a h;
  h.Mix(static_cast<std::uint64_t>(result.sessions.size()));
  for (const core::SessionResult& session : result.sessions) {
    h.Mix(static_cast<std::uint64_t>(session.frames.size()));
    for (const core::FrameRecord& frame : session.frames) {
      h.Mix(static_cast<std::uint64_t>(frame.frame_index));
      h.Mix(static_cast<std::uint64_t>(frame.rendered));
      h.Mix(frame.capture_time_ms);
      h.Mix(frame.render_time_ms);
      h.Mix(frame.pssim_geometry);
      h.Mix(frame.pssim_color);
      h.Mix(frame.sender.split);
      h.Mix(frame.sender.target_bps);
      h.Mix(static_cast<std::uint64_t>(frame.sender.color_bytes));
      h.Mix(static_cast<std::uint64_t>(frame.sender.depth_bytes));
      h.Mix(frame.sender.cull_kept_fraction);
      h.Mix(frame.sender.rmse_color);
      h.Mix(frame.sender.rmse_depth);
    }
    h.Mix(session.stall_rate);
    h.Mix(session.fps);
    h.Mix(session.mean_pssim_geometry);
    h.Mix(session.mean_pssim_color);
    // mean_latency_ms is wall-clock-derived (real encode/decode time) and
    // deliberately excluded, like wall_ms.
    h.Mix(session.mean_throughput_mbps);
    h.Mix(session.mean_capacity_mbps);
    h.Mix(session.utilization);
  }
  h.Mix(result.events_dispatched);
  h.Mix(result.events_scheduled);
  h.Mix(result.virtual_ms);
  return h.value();
}

}  // namespace livo::runtime
