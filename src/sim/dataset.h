// The five evaluation sequences (Table 3 substitute).
//
// The paper uses five Panoptic-Studio videos; this module synthesizes five
// scenes with matching names, relative complexity (object counts 9/1/7/14/3
// including people), and motion character:
//   band2    - musical performance: 4 performers + instruments, rhythmic sway
//   dance5   - single dancer, large orbiting motion, empty stage
//   office1  - one worker + desk/chairs/monitor, low motion
//   pizza1   - party: 6 people + table + food props, moderate motion
//   toddler4 - child + 2 toys, bouncy motion
// Every scene also contains the floor, making it a *full-scene* capture
// rather than a segmented person (the paper's key workload distinction).
#pragma once

#include <string>
#include <vector>

#include "geom/camera.h"
#include "sim/scene.h"

namespace livo::sim {

// Experiment scale knobs. Defaults are CI-scale; EXPERIMENTS.md's "Scale
// model" lists the paper testbed's values next to them.
struct ScaleProfile {
  int camera_count = 10;
  int camera_width = 80;    // per-camera depth/color resolution
  int camera_height = 72;
  double fps = 30.0;
  // Network traces are recorded at broadband scale (Table 4, Mbps); the
  // synthetic scenes are ~28x smaller than Panoptic full-scene frames, so
  // links apply trace_rate * bandwidth_scale to keep the bandwidth-to-
  // content ratio of the paper. Utilization metrics are scale-free.
  double bandwidth_scale = 1.0 / 48.0;

  static ScaleProfile Default() { return {}; }
};

struct VideoSpec {
  std::string name;
  int objects = 0;          // Table 3 "Objects" (people + props)
  int people = 0;
  int paper_duration_s = 0; // Table 3 duration (for documentation)
  double paper_frame_mb = 0;// Table 3 mean raw frame size
};

// Specs of the five sequences, in Table 3 order.
const std::vector<VideoSpec>& AllVideos();

// Looks up a spec by name; throws for unknown names.
const VideoSpec& VideoByName(const std::string& name);

// Builds the animated scene for a named sequence. Deterministic.
Scene MakeScene(const VideoSpec& spec);

// Builds the capture rig for a profile: profile.camera_count cameras of a
// 70 degree horizontal field of view, evenly spaced on a circle of radius
// 2.6 m at 1.4 m height, all aimed 0.9 m above the stage centre.
std::vector<geom::RgbdCamera> MakeRig(const ScaleProfile& profile);

// Convenience: a fully rendered sequence = per-frame per-camera RGB-D views.
struct CapturedSequence {
  VideoSpec spec;
  std::vector<geom::RgbdCamera> rig;
  std::vector<std::vector<image::RgbdFrame>> frames;  // [frame][camera]
  double fps = 30.0;
};

// Renders `frames` frames of the named video at the profile's scale.
// This is the trace-replay "read RGB-D frames from disk" stage (§4.1).
CapturedSequence CaptureVideo(const std::string& name,
                              const ScaleProfile& profile, int frames);

}  // namespace livo::sim
