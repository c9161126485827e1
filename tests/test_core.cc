// Unit and integration tests for livo::core — split controller, view
// culling, frustum predictor, sender/receiver round trips, and full
// replay sessions (LiVo, Draco-Oracle, MeshReduce).
#include <filesystem>
#include <ios>

#include <gtest/gtest.h>

#include "core/culling.h"
#include "core/draco_oracle.h"
#include "core/experiment.h"
#include "core/meshreduce.h"
#include "core/receiver.h"
#include "core/sender.h"
#include "core/session.h"
#include "core/split.h"
#include "image/depth_encoding.h"
#include "kernels/buffer_pool.h"
#include "kernels/kernels.h"
#include "metrics/pointssim.h"
#include "obs/metrics.h"
#include "sim/dataset.h"
#include "sim/nettrace.h"
#include "sim/usertrace.h"
#include "video/color_convert.h"
#include "video/video_codec.h"

namespace livo::core {
namespace {

// A small-profile capture shared across the heavier tests.
sim::ScaleProfile SmallProfile() {
  sim::ScaleProfile profile;
  profile.camera_count = 4;
  profile.camera_width = 48;
  profile.camera_height = 40;
  return profile;
}

const sim::CapturedSequence& SmallSequence() {
  static const sim::CapturedSequence seq =
      sim::CaptureVideo("toddler4", SmallProfile(), 14);
  return seq;
}

LiVoConfig SmallConfig() {
  LiVoConfig config;
  const auto profile = SmallProfile();
  config.layout = image::TileLayout(profile.camera_count, profile.camera_width,
                                    profile.camera_height);
  return config;
}

// ---- SplitController ----

TEST(SplitController, HoldsInsideDeadband) {
  SplitConfig config;
  config.initial = 0.7;
  config.epsilon = 2.0;
  SplitController controller(config);
  controller.Update(10.0, 9.0);  // |diff| <= eps
  EXPECT_DOUBLE_EQ(controller.split(), 0.7);
}

TEST(SplitController, MovesTowardWorseStream) {
  SplitConfig config;
  config.initial = 0.7;
  SplitController controller(config);
  controller.Update(100.0, 5.0);  // depth much worse: raise split
  EXPECT_DOUBLE_EQ(controller.split(), 0.705);
  controller.Update(1.0, 50.0);   // color much worse: lower split
  EXPECT_DOUBLE_EQ(controller.split(), 0.7);
}

TEST(SplitController, ClampsToConfiguredRange) {
  SplitConfig config;
  config.initial = 0.89;
  SplitController controller(config);
  for (int i = 0; i < 100; ++i) controller.Update(1000.0, 0.0);
  EXPECT_DOUBLE_EQ(controller.split(), 0.9);   // upper clamp (§3.3)
  for (int i = 0; i < 200; ++i) controller.Update(0.0, 1000.0);
  EXPECT_DOUBLE_EQ(controller.split(), 0.5);   // lower clamp
}

TEST(SplitController, ProbeCadence) {
  SplitConfig config;
  config.update_every = 3;
  SplitController controller(config);
  EXPECT_TRUE(controller.ShouldProbe(0));
  EXPECT_FALSE(controller.ShouldProbe(1));
  EXPECT_FALSE(controller.ShouldProbe(2));
  EXPECT_TRUE(controller.ShouldProbe(3));
}

TEST(SplitController, ConvergesToBalancePoint) {
  // Synthetic quality model: rmse_d - rmse_c crosses zero at s = 0.82.
  SplitConfig config;
  config.initial = 0.6;
  config.epsilon = 0.1;
  SplitController controller(config);
  for (int i = 0; i < 200; ++i) {
    const double s = controller.split();
    const double rmse_d = 100.0 * (0.82 - s);  // positive below 0.82
    controller.Update(rmse_d, 0.0);
  }
  EXPECT_NEAR(controller.split(), 0.82, 0.01);
}

// ---- View culling ----

TEST(Culling, ZeroesPixelsOutsideFrustum) {
  const auto& seq = SmallSequence();
  auto views = seq.frames[0];
  // A narrow frustum looking at the scene centre from close by.
  const geom::Frustum frustum(
      geom::Pose::LookAt({1.2, 1.0, 1.2}, {0, 0.6, 0}),
      geom::FrustumParams{geom::DegToRad(30.0), 1.0, 0.1, 3.0});
  const CullStats stats = CullViews(views, seq.rig, frustum);
  EXPECT_GT(stats.total_pixels, 0u);
  EXPECT_LT(stats.kept_pixels, stats.total_pixels);
  // Culled views reconstruct to a cloud fully inside the frustum.
  const auto cloud = pointcloud::ReconstructFromViews(views, seq.rig);
  int outside = 0;
  for (const auto& p : cloud.points()) {
    if (!frustum.Expanded(0.05).Contains(p.position)) ++outside;
  }
  // Pixel-centre quantization allows a tiny leak near the planes.
  EXPECT_LT(outside, static_cast<int>(cloud.size() / 100 + 3));
}

TEST(Culling, FullSceneFrustumKeepsEverything) {
  const auto& seq = SmallSequence();
  auto views = seq.frames[0];
  const geom::Frustum wide(
      geom::Pose::LookAt({0, 1.5, 6.0}, {0, 0.8, 0}),
      geom::FrustumParams{geom::DegToRad(90.0), 1.8, 0.1, 20.0});
  const CullStats stats = CullViews(views, seq.rig, wide);
  EXPECT_EQ(stats.kept_pixels, stats.total_pixels);
}

TEST(Culling, MatchesPointCloudCulling) {
  // Culling RGB-D views without reconstructing the cloud must keep the
  // same surface as reconstruct-then-cull (§3.4's correctness claim).
  const auto& seq = SmallSequence();
  const geom::Frustum frustum(
      geom::Pose::LookAt({1.5, 1.2, 1.5}, {0, 0.7, 0}),
      geom::FrustumParams{geom::DegToRad(45.0), 1.3, 0.1, 4.0});

  auto culled_views = seq.frames[0];
  CullViews(culled_views, seq.rig, frustum);
  const auto cloud_a = pointcloud::ReconstructFromViews(culled_views, seq.rig);
  const auto cloud_b =
      pointcloud::ReconstructFromViews(seq.frames[0], seq.rig)
          .CulledTo(frustum);
  EXPECT_EQ(cloud_a.size(), cloud_b.size());
}

TEST(Culling, EvaluateCullingPerfectWhenPredictedEqualsActual) {
  const auto& seq = SmallSequence();
  const geom::Frustum frustum(
      geom::Pose::LookAt({1.5, 1.2, 1.5}, {0, 0.7, 0}), geom::FrustumParams{});
  const CullAccuracy acc =
      EvaluateCulling(seq.frames[0], seq.rig, frustum, frustum);
  EXPECT_DOUBLE_EQ(acc.recall, 1.0);
}

TEST(Culling, GuardBandImprovesRecallUnderError) {
  const auto& seq = SmallSequence();
  const geom::Pose actual_pose = geom::Pose::LookAt({1.5, 1.2, 1.5}, {0, 0.7, 0});
  const geom::Pose wrong_pose =
      geom::Pose::LookAt({1.7, 1.25, 1.35}, {0.15, 0.7, 0.1});
  const geom::Frustum actual(actual_pose, geom::FrustumParams{});
  const geom::Frustum predicted(wrong_pose, geom::FrustumParams{});
  const CullAccuracy bare =
      EvaluateCulling(seq.frames[0], seq.rig, predicted, actual);
  const CullAccuracy guarded = EvaluateCulling(
      seq.frames[0], seq.rig, predicted.Expanded(0.2), actual);
  EXPECT_GT(guarded.recall, bare.recall);
  EXPECT_GT(guarded.kept_fraction, bare.kept_fraction);
}

TEST(Culling, MismatchedViewAndCameraCountsThrow) {
  const auto& seq = SmallSequence();
  const geom::Frustum frustum(
      geom::Pose::LookAt({1.5, 1.2, 1.5}, {0, 0.7, 0}), geom::FrustumParams{});
  auto views = seq.frames[0];
  views.pop_back();  // one fewer view than cameras
  EXPECT_THROW(CullViews(views, seq.rig, frustum), std::invalid_argument);
  EXPECT_THROW(EvaluateCulling(views, seq.rig, frustum, frustum),
               std::invalid_argument);
}

// ---- FrustumPredictor ----

TEST(FrustumPredictor, NotReadyBeforeFeedback) {
  FrustumPredictor predictor;
  EXPECT_FALSE(predictor.ready());
}

TEST(FrustumPredictor, HorizonIsHalfRtt) {
  FrustumPredictor predictor;
  for (int i = 0; i < 20; ++i) predictor.ObserveRtt(120.0);
  EXPECT_NEAR(predictor.HorizonMs(), 60.0, 1.0);
}

TEST(FrustumPredictor, PredictsMovingViewer) {
  FrustumPredictor predictor;
  for (int i = 0; i < 40; ++i) predictor.ObserveRtt(100.0);
  for (int i = 0; i < 60; ++i) {
    geom::TimedPose tp;
    tp.time_ms = i * 33.33;
    tp.pose = geom::Pose::LookAt({i * 0.02, 1.6, 2.0}, {0, 0.8, 0});
    predictor.ObservePose(tp);
  }
  const geom::Pose predicted = predictor.PredictPose();
  // 50 ms ahead of the last sample at 0.6 m/s in +x.
  EXPECT_NEAR(predicted.position.x, 59 * 0.02 + 0.03, 0.02);
}

// ---- Sender/receiver round trip (no network) ----

TEST(SenderReceiver, LosslessPathReconstructsScene) {
  const auto& seq = SmallSequence();
  const LiVoConfig config = SmallConfig();
  LiVoSender sender(config, seq.rig);
  ReceiverConfig receiver_config;
  receiver_config.final_cull = false;  // keep the whole cloud
  LiVoReceiver receiver(config, receiver_config, seq.rig);

  // Feed a pose so the predictor is ready (wide view: nothing culled).
  geom::TimedPose tp;
  tp.pose = geom::Pose::LookAt({0, 1.4, 4.5}, {0, 0.8, 0});
  sender.ObservePoseFeedback(tp);

  const geom::Frustum live(tp.pose, config.predictor.viewer);
  metrics::PointSsimConfig pssim_config;
  pssim_config.max_anchors = 600;

  for (std::uint32_t f = 0; f < 4; ++f) {
    SenderOutput out =
        sender.ProcessFrame(seq.frames[f], f, 40e6);  // generous bitrate
    std::vector<net::ReceivedFrame> frames(2);
    frames[0].stream_id = kColorStream;
    frames[0].frame_index = f;
    frames[0].data = out.color_frame;
    frames[1].stream_id = kDepthStream;
    frames[1].frame_index = f;
    frames[1].data = out.depth_frame;
    const auto rendered = receiver.OnFrames(frames, f * 33.3, live);
    ASSERT_EQ(rendered.size(), 1u);
    EXPECT_EQ(rendered[0].frame_index, f);
    EXPECT_TRUE(rendered[0].marker_verified);
    EXPECT_GT(rendered[0].cloud.size(), 500u);

    const auto reference = GroundTruthCloud(seq.frames[f], seq.rig, live,
                                            receiver_config);
    const auto pssim =
        metrics::PointSsim(reference, rendered[0].cloud, pssim_config);
    EXPECT_GT(pssim.geometry, 80.0) << "frame " << f;
    EXPECT_GT(pssim.color, 80.0) << "frame " << f;
  }
}

TEST(SenderReceiver, SkipsFrameMissingOneStream) {
  const auto& seq = SmallSequence();
  const LiVoConfig config = SmallConfig();
  LiVoSender sender(config, seq.rig);
  ReceiverConfig rc;
  rc.max_pair_lag = 1;
  LiVoReceiver receiver(config, rc, seq.rig);
  const geom::Frustum live(geom::Pose::LookAt({0, 1.4, 4.5}, {0, 0.8, 0}),
                           config.predictor.viewer);

  auto out0 = sender.ProcessFrame(seq.frames[0], 0, 20e6);
  auto out1 = sender.ProcessFrame(seq.frames[1], 1, 20e6);
  auto out2 = sender.ProcessFrame(seq.frames[2], 2, 20e6);

  std::vector<net::ReceivedFrame> frames;
  const auto push = [&](std::uint32_t stream, std::uint32_t index,
                        const auto& data) {
    net::ReceivedFrame f;
    f.stream_id = stream;
    f.frame_index = index;
    f.data = data;
    frames.push_back(f);
  };
  // Frame 0 complete; frame 1's depth never arrives; frame 2 complete.
  push(kColorStream, 0, out0.color_frame);
  push(kDepthStream, 0, out0.depth_frame);
  push(kColorStream, 1, out1.color_frame);
  push(kColorStream, 2, out2.color_frame);
  push(kDepthStream, 2, out2.depth_frame);

  const auto rendered = receiver.OnFrames(frames, 100.0, live);
  ASSERT_EQ(rendered.size(), 2u);
  EXPECT_EQ(rendered[0].frame_index, 0u);
  EXPECT_EQ(rendered[1].frame_index, 2u);
  EXPECT_EQ(receiver.skipped_frames(), 1u);
}

// ---- Receiver: OnFrames without a frustum against the cloud overload ----

struct EncodedPair {
  std::shared_ptr<const std::vector<std::uint8_t>> color;
  std::shared_ptr<const std::vector<std::uint8_t>> depth;
};

// Frames beyond frame 0's keyframe that re-key: color alone at 2, both
// streams at 4 (see kReceiverBatches).
bool ColorKeyAt(std::uint32_t f) { return f == 2 || f == 4; }
bool DepthKeyAt(std::uint32_t f) { return f == 4; }

// What a receiver at `divisor` decodes from a 3-layer sender over frames
// 0..13 of SmallSequence(): the top layer (1) or the halved L0 stream (2).
const std::vector<EncodedPair>& LadderStream(int divisor) {
  static const std::vector<std::vector<EncodedPair>> streams = [] {
    const auto& seq = SmallSequence();
    LiVoConfig config = SmallConfig();
    config.simulcast_layers = 3;
    LiVoSender sender(config, seq.rig);
    std::vector<std::vector<EncodedPair>> out(2);  // by divisor - 1
    for (std::uint32_t f = 0; f < seq.frames.size(); ++f) {
      if (ColorKeyAt(f)) sender.RequestKeyframe(kColorStream);
      if (DepthKeyAt(f)) sender.RequestKeyframe(kDepthStream);
      const SenderOutput o = sender.ProcessFrame(seq.frames[f], f, 8e6);
      out[0].push_back({o.color_frame, o.depth_frame});
      out[1].push_back({o.lower_layers[0].color_frame,
                        o.lower_layers[0].depth_frame});
    }
    return out;
  }();
  return streams[static_cast<std::size_t>(divisor - 1)];
}

// The ladder's L0 stream for a layout LiVoSender cannot encode: a tile
// height off the codec's 8-row slice grid, the only way to an odd
// MarkerY(), is rejected by the full-resolution layers, while L0 codes each
// plane as one slice. The sender's L0 steps: tile, convert, scale depth,
// halve (box-filtered color, picked depth), encode.
std::vector<EncodedPair> EncodeL0(
    const LiVoConfig& config,
    const std::vector<std::vector<image::RgbdFrame>>& frames) {
  const video::CodecConfig color_config =
      HalveForLadder(config.ColorCodecConfig());
  video::VideoEncoder color_encoder(color_config, 3);
  video::VideoEncoder depth_encoder(HalveForLadder(config.DepthCodecConfig()),
                                    1);
  const kernels::KernelTable& kt = kernels::Active();
  const auto halve = [&](const image::Plane16& plane, bool avg) {
    image::Plane16 half(color_config.width, color_config.height);
    (avg ? kt.downscale2x_avg_u16 : kt.downscale2x_pick_u16)(
        plane.data().data(), plane.width(), plane.height(), half.data().data(),
        half.width(), half.height());
    return half;
  };
  const auto serialize = [](const video::EncodeResult& r) {
    return std::make_shared<const std::vector<std::uint8_t>>(
        video::SerializeFrame(r.frame));
  };
  std::vector<EncodedPair> stream;
  for (std::uint32_t f = 0; f < frames.size(); ++f) {
    if (ColorKeyAt(f)) color_encoder.RequestKeyframe();
    if (DepthKeyAt(f)) depth_encoder.RequestKeyframe();
    const image::TiledFramePair tiled = image::Tile(config.layout, frames[f], f);
    std::vector<image::Plane16> color;
    for (const image::Plane16& plane : video::RgbToYcbcr(tiled.color)) {
      color.push_back(halve(plane, true));
    }
    image::Plane16 depth = tiled.depth;
    image::ScaleDepthInPlace(depth, kDepthScaler);
    stream.push_back(
        {serialize(color_encoder.EncodeAtQp(color, kFixedColorQp)),
         serialize(depth_encoder.EncodeAtQp({halve(depth, false)},
                                            kFixedDepthQp))});
  }
  return stream;
}

// Released batches of (frame, depth half arrived). 1 is a P-pair whose
// keyframe 0 was withheld; 2 and 3 carry a depth P-frame with no depth
// keyframe yet (only a decoder that really decodes depth skips them); 5
// and 8 lack their depth half; 8 waits for 9 and is skipped at 10.
const std::vector<std::vector<std::pair<std::uint32_t, bool>>>
    kReceiverBatches = {{{1, true}},
                        {{2, true}},
                        {{3, true}},
                        {{4, true}},
                        {{5, false}, {6, true}, {7, true}},
                        {{8, false}, {9, true}},
                        {{10, true}},
                        {{11, true}}};

// Feeds kReceiverBatches of `stream` through three fresh receivers: the
// OnFrames overload without a frustum, the frustum overload on every frame,
// and the frustum overload on every third frame (rendered frames 6 and 9).
// Everything but the cloud must agree; the cadenced receiver's clouds equal
// the every-frame ones on its frames and are empty on the others.
void ExpectOverloadsAgree(const LiVoConfig& config,
                          const std::vector<geom::RgbdCamera>& rig,
                          int divisor, const std::vector<EncodedPair>& stream) {
  LiVoReceiver with_cloud(config, ReceiverConfig{}, rig, divisor);
  LiVoReceiver without_cloud(config, ReceiverConfig{}, rig, divisor);
  LiVoReceiver cadenced(config, ReceiverConfig{}, rig, divisor);
  const geom::Frustum live(geom::Pose::LookAt({0, 1.4, 4.5}, {0, 0.8, 0}),
                           config.predictor.viewer);
  std::vector<std::uint32_t> rendered;
  for (std::size_t b = 0; b < kReceiverBatches.size(); ++b) {
    std::vector<net::ReceivedFrame> frames;
    for (const auto& [index, has_depth] : kReceiverBatches[b]) {
      net::ReceivedFrame f;
      f.frame_index = index;
      f.stream_id = kColorStream;
      f.data = stream[index].color;
      frames.push_back(f);
      if (!has_depth) continue;
      f.stream_id = kDepthStream;
      f.data = stream[index].depth;
      frames.push_back(f);
    }
    const double now_ms = 100.0 + 33.0 * static_cast<double>(b);
    const auto clouds = with_cloud.OnFrames(frames, now_ms, live);
    const auto checked = without_cloud.OnFrames(frames, now_ms);
    const auto sampled = cadenced.OnFrames(frames, now_ms, live, 3);
    ASSERT_EQ(clouds.size(), checked.size()) << "batch " << b;
    ASSERT_EQ(clouds.size(), sampled.size()) << "batch " << b;
    for (std::size_t i = 0; i < clouds.size(); ++i) {
      EXPECT_EQ(clouds[i].frame_index, checked[i].frame_index);
      EXPECT_EQ(clouds[i].render_time_ms, checked[i].render_time_ms);
      EXPECT_EQ(clouds[i].marker_verified, checked[i].marker_verified)
          << "frame " << clouds[i].frame_index;
      EXPECT_FALSE(clouds[i].cloud.empty());
      EXPECT_TRUE(checked[i].cloud.empty());
      EXPECT_EQ(sampled[i].frame_index, clouds[i].frame_index);
      EXPECT_EQ(sampled[i].render_time_ms, clouds[i].render_time_ms);
      EXPECT_EQ(sampled[i].marker_verified, clouds[i].marker_verified)
          << "frame " << clouds[i].frame_index;
      if (clouds[i].frame_index % 3 == 0) {
        EXPECT_EQ(sampled[i].cloud.points(), clouds[i].cloud.points())
            << "frame " << clouds[i].frame_index;
      } else {
        EXPECT_TRUE(sampled[i].cloud.empty());
        EXPECT_EQ(sampled[i].reconstruct_ms, 0.0);
        EXPECT_EQ(sampled[i].render_ms, 0.0);
      }
      // Frame 4 re-keys both streams, so its marker must read back intact.
      if (checked[i].frame_index == 4) {
        EXPECT_TRUE(checked[i].marker_verified);
      }
      rendered.push_back(checked[i].frame_index);
    }
    EXPECT_EQ(with_cloud.skipped_frames(), without_cloud.skipped_frames());
    EXPECT_EQ(with_cloud.skipped_frames(), cadenced.skipped_frames());
    EXPECT_EQ(with_cloud.marker_mismatches(),
              without_cloud.marker_mismatches());
    EXPECT_EQ(with_cloud.marker_mismatches(), cadenced.marker_mismatches());
  }
  EXPECT_EQ(rendered, (std::vector<std::uint32_t>{4, 6, 7, 9, 10, 11}));
  EXPECT_EQ(without_cloud.skipped_frames(), 5u);
}

TEST(Receiver, OverloadsAgreeOnFullCanvas) {
  ExpectOverloadsAgree(SmallConfig(), SmallSequence().rig, 1, LadderStream(1));
}

TEST(Receiver, OverloadsAgreeOnHalvedLadderLayer) {
  ExpectOverloadsAgree(SmallConfig(), SmallSequence().rig, 2, LadderStream(2));
}

TEST(Receiver, OverloadsAgreeWithOddMarkerRow) {
  // One 48x37 camera: the marker starts at canvas row 37, mid-way through
  // a row pair of the halved canvas.
  const auto& seq = SmallSequence();
  LiVoConfig config;
  config.layout = image::TileLayout(1, 48, 37);
  ASSERT_EQ(config.layout.MarkerY() % 2, 1);
  std::vector<std::vector<image::RgbdFrame>> frames;
  for (const auto& views : seq.frames) {
    const image::RgbdFrame& v = views[0];
    image::RgbdFrame crop;
    crop.color.r = v.color.r.Crop(0, 0, 48, 37);
    crop.color.g = v.color.g.Crop(0, 0, 48, 37);
    crop.color.b = v.color.b.Crop(0, 0, 48, 37);
    crop.depth = v.depth.Crop(0, 0, 48, 37);
    frames.push_back({crop});
  }
  ExpectOverloadsAgree(config, {seq.rig[0]}, 2, EncodeL0(config, frames));
}

TEST(Receiver, ZeroCloudCadenceThrows) {
  LiVoReceiver receiver(SmallConfig(), ReceiverConfig{}, SmallSequence().rig);
  const geom::Frustum live(geom::Pose::LookAt({0, 1.4, 4.5}, {0, 0.8, 0}),
                           SmallConfig().predictor.viewer);
  EXPECT_THROW(receiver.OnFrames({}, 0.0, live, 0), std::invalid_argument);
}

// After warm-up, decoding and checking a pair without building its cloud
// recycles every plane through the pool, at either canvas scale.
TEST(Receiver, NoCloudSteadyStateHasZeroPoolMisses) {
  auto& pool = kernels::BufferPool::Global();
  auto& misses = obs::Registry::Get().GetCounter("kernels.pool_misses");
  for (int divisor : {1, 2}) {
    const std::vector<EncodedPair>& stream = LadderStream(divisor);
    pool.Clear();
    LiVoReceiver receiver(SmallConfig(), ReceiverConfig{}, SmallSequence().rig,
                          divisor);
    const auto run = [&](std::uint32_t from, std::uint32_t to) {
      for (std::uint32_t f = from; f < to; ++f) {
        std::vector<net::ReceivedFrame> frames(2);
        frames[0].stream_id = kColorStream;
        frames[0].data = stream[f].color;
        frames[1].stream_id = kDepthStream;
        frames[1].data = stream[f].depth;
        for (net::ReceivedFrame& fr : frames) fr.frame_index = f;
        const auto rendered = receiver.OnFrames(frames, f * 33.0);
        ASSERT_EQ(rendered.size(), 1u);
        EXPECT_TRUE(rendered[0].cloud.empty());
      }
    };
    run(0, 8);  // warm-up: keyframes, P-frames, every pooled size
    const auto before = misses.value();
    run(8, 14);
    EXPECT_EQ(misses.value() - before, 0u) << "divisor " << divisor;
  }
  pool.Clear();
}

// Encode-once discipline, allocation half: after warm-up, a 3-layer
// ladder sender re-uses its canvas, halved-canvas, and codec buffers on
// every frame — the steady-state loop performs zero frame-sized
// allocations, observed through the global pool's miss counter.
TEST(Sender, LadderSteadyStateEncodeHasZeroPoolMisses) {
  auto& pool = kernels::BufferPool::Global();
  pool.Clear();
  const auto& seq = SmallSequence();
  LiVoConfig config = SmallConfig();
  config.simulcast_layers = 3;
  LiVoSender sender(config, seq.rig);
  geom::TimedPose tp;
  tp.pose = geom::Pose::LookAt({0, 1.4, 4.5}, {0, 0.8, 0});
  sender.ObservePoseFeedback(tp);
  auto& misses = obs::Registry::Get().GetCounter("kernels.pool_misses");
  const auto run = [&](std::uint32_t from, std::uint32_t to) {
    for (std::uint32_t f = from; f < to; ++f) {
      const auto out =
          sender.ProcessFrame(seq.frames[f % seq.frames.size()], f, 8e6);
      EXPECT_EQ(out.lower_layers.size(), 2u);
    }
  };
  run(0, 8);  // warm-up: keyframe, P-frames, split probes, at every layer
  const auto before = misses.value();
  run(8, 14);
  EXPECT_EQ(misses.value() - before, 0u)
      << "ladder steady-state encode allocated frame-sized buffers";
  pool.Clear();
}

TEST(Sender, SplitRespondsToContent) {
  const auto& seq = SmallSequence();
  LiVoConfig config = SmallConfig();
  config.split.update_every = 1;
  LiVoSender sender(config, seq.rig);
  const double initial = sender.splitter().split();
  // A tight bitrate forces visible quantization error, pushing the raw
  // depth RMSE far above color RMSE, so the line search must move.
  for (std::uint32_t f = 0; f < 6; ++f) {
    sender.ProcessFrame(seq.frames[f % seq.frames.size()], f, 1.2e6);
  }
  EXPECT_GT(sender.splitter().split(), initial);
}

TEST(Sender, StaticSplitStaysPinned) {
  const auto& seq = SmallSequence();
  LiVoConfig config = SmallConfig();
  config.split = SplitConfig{.initial = 0.8, .min = 0.8, .max = 0.8};
  LiVoSender sender(config, seq.rig);
  for (std::uint32_t f = 0; f < 4; ++f) {
    sender.ProcessFrame(seq.frames[f], f, 6e6);
  }
  EXPECT_DOUBLE_EQ(sender.splitter().split(), 0.8);
}

TEST(Sender, NoAdaptUsesFixedQp) {
  const auto& seq = SmallSequence();
  LiVoConfig config = SmallConfig();
  config.enable_adaptation = false;
  LiVoSender sender(config, seq.rig);
  // Identical output size regardless of the target bitrate.
  auto a = sender.ProcessFrame(seq.frames[0], 0, 1e6);
  LiVoSender sender2(config, seq.rig);
  auto b = sender2.ProcessFrame(seq.frames[0], 0, 100e6);
  EXPECT_EQ(a.stats.color_bytes, b.stats.color_bytes);
  EXPECT_EQ(a.stats.depth_bytes, b.stats.depth_bytes);
}

TEST(Sender, CullingReducesEncodedBytes) {
  const auto& seq = SmallSequence();
  LiVoConfig with_cull = SmallConfig();
  LiVoConfig no_cull = SmallConfig();
  no_cull.enable_culling = false;

  LiVoSender a(with_cull, seq.rig), b(no_cull, seq.rig);
  geom::TimedPose tp;
  // Narrow close-up view: culling removes most of the scene.
  tp.pose = geom::Pose::LookAt({0.9, 1.0, 0.9}, {0.4, 0.6, 0.4});
  a.ObservePoseFeedback(tp);
  b.ObservePoseFeedback(tp);

  // Fixed-QP encodes isolate content size from rate control.
  with_cull.enable_adaptation = false;
  std::size_t culled_total = 0, full_total = 0;
  for (std::uint32_t f = 0; f < 4; ++f) {
    culled_total += a.ProcessFrame(seq.frames[f], f, 50e6).stats.depth_bytes +
                    a.ProcessFrame(seq.frames[f], f + 100, 50e6).stats.color_bytes;
    full_total += b.ProcessFrame(seq.frames[f], f, 50e6).stats.depth_bytes +
                  b.ProcessFrame(seq.frames[f], f + 100, 50e6).stats.color_bytes;
  }
  EXPECT_LT(culled_total, full_total);
}

// ---- Full replay sessions ----

class SessionTest : public ::testing::Test {
 protected:
  static sim::BandwidthTrace FlatTrace(double mbps) {
    sim::BandwidthTrace t;
    t.name = "flat";
    t.mbps.assign(600, mbps);
    return t;
  }
  // 45, 90 and 135 Mbps in turn, one per trace sample (mean 90): which of
  // them a baseline's frames meet depends on its trace acceleration.
  static sim::BandwidthTrace SteppedTrace() {
    sim::BandwidthTrace t;
    t.name = "stepped";
    for (int i = 0; i < 600; ++i) t.mbps.push_back(45.0 * (1 + i % 3));
    return t;
  }
};

TEST_F(SessionTest, LiVoSessionDeliversAllFramesAtAmpleBandwidth) {
  const auto& seq = SmallSequence();
  const auto user = sim::GenerateUserTrace("toddler4",
                                           sim::TraceStyle::kOrbit, 80);
  LiVoConfig config = SmallConfig();
  ReplayOptions options;
  options.bandwidth_scale = 1.0 / 48.0;
  const SessionResult r =
      RunLiVoSession(seq, user, FlatTrace(400.0), config, options);
  EXPECT_EQ(r.stall_rate, 0.0);
  EXPECT_NEAR(r.fps, 30.0, 0.8);
  EXPECT_GT(r.mean_pssim_geometry, 60.0);
  EXPECT_GT(r.mean_pssim_color, 60.0);
  EXPECT_LT(r.mean_latency_ms, 300.0);  // the paper's latency requirement
  EXPECT_GT(r.mean_latency_ms, 100.0);  // jitter buffer floor
}

TEST_F(SessionTest, LiVoSessionStallsAtStarvedBandwidth) {
  const auto& seq = SmallSequence();
  const auto user = sim::GenerateUserTrace("toddler4",
                                           sim::TraceStyle::kOrbit, 80);
  LiVoConfig config = SmallConfig();
  ReplayOptions options;
  options.bandwidth_scale = 1.0 / 48.0;
  // 2 Mbps paper-scale: ~42 kbps sim-scale, unusable (this rig's 96x112
  // canvas stalls on more than 30% of frames below 3.5 Mbps).
  const SessionResult r =
      RunLiVoSession(seq, user, FlatTrace(2.0), config, options);
  EXPECT_GT(r.stall_rate, 0.3);
}

TEST_F(SessionTest, QualityImprovesWithBandwidth) {
  const auto& seq = SmallSequence();
  const auto user = sim::GenerateUserTrace("toddler4",
                                           sim::TraceStyle::kFocus, 80);
  LiVoConfig config = SmallConfig();
  ReplayOptions options;
  options.bandwidth_scale = 1.0 / 48.0;
  const SessionResult low =
      RunLiVoSession(seq, user, FlatTrace(60.0), config, options);
  const SessionResult high =
      RunLiVoSession(seq, user, FlatTrace(300.0), config, options);
  EXPECT_GT(high.mean_pssim_geometry, low.mean_pssim_geometry);
}

TEST_F(SessionTest, DracoOracleRunsAndRecordsTrade) {
  const auto& seq = SmallSequence();
  const auto user = sim::GenerateUserTrace("toddler4",
                                           sim::TraceStyle::kOrbit, 80);
  const SessionResult r =
      RunDracoOracle(seq, user, FlatTrace(90.0), 1.0 / 48.0);
  EXPECT_EQ(r.scheme, "Draco-Oracle");
  EXPECT_EQ(r.target_fps, 15.0);
  EXPECT_GE(r.stall_rate, 0.0);
  EXPECT_LE(r.stall_rate, 1.0);
  EXPECT_EQ(r.frames.size(), seq.frames.size() / 2);  // 15 of 30 fps
  // Every aggregate, bit for bit: the oracle runs in virtual time (its
  // latency is the modelled encode time plus one interval), so a change to
  // its trace reads, scoring or close moves one of these.
  EXPECT_EQ(r.stall_rate, 0x0p+0) << std::hexfloat << r.stall_rate;
  EXPECT_EQ(r.fps, 0x1.ep+3) << std::hexfloat << r.fps;
  EXPECT_EQ(r.mean_latency_ms, 0x1.3d2efd72549a3p+6)
      << std::hexfloat << r.mean_latency_ms;
  EXPECT_EQ(r.mean_pssim_geometry, 0x1.8b4c16c03ca83p+6)
      << std::hexfloat << r.mean_pssim_geometry;
  EXPECT_EQ(r.mean_pssim_color, 0x1.8cd2ee8f947d8p+6)
      << std::hexfloat << r.mean_pssim_color;
  EXPECT_EQ(r.mean_throughput_mbps, 0x1.14bbc2b94d941p+6)
      << std::hexfloat << r.mean_throughput_mbps;
  EXPECT_EQ(r.mean_capacity_mbps, 0x1.68p+6)
      << std::hexfloat << r.mean_capacity_mbps;
  EXPECT_EQ(r.utilization, 0x1.899392189bd84p-1)
      << std::hexfloat << r.utilization;

  // Over the stepped trace; at half the scale the coarsest quantization
  // is the only one some frames' budgets afford.
  struct Golden {
    double bandwidth_scale;
    double latency_ms;
    double pssim_geometry;
    double throughput_mbps;
  };
  constexpr Golden kGolden[] = {
      {1.0 / 48.0, 0x1.3848629555499p+6, 0x1.8073d54e51755p+6,
       0x1.090f09c59a4d6p+6},
      {1.0 / 96.0, 0x1.358b43e60f45ep+6, 0x1.041bc91248d1dp+6,
       0x1.2ce703afb7e91p+6},
  };
  for (const Golden& golden : kGolden) {
    SCOPED_TRACE(golden.bandwidth_scale);
    const SessionResult stepped =
        RunDracoOracle(seq, user, SteppedTrace(), golden.bandwidth_scale);
    EXPECT_EQ(stepped.mean_latency_ms, golden.latency_ms)
        << std::hexfloat << stepped.mean_latency_ms;
    EXPECT_EQ(stepped.mean_pssim_geometry, golden.pssim_geometry)
        << std::hexfloat << stepped.mean_pssim_geometry;
    EXPECT_EQ(stepped.mean_throughput_mbps, golden.throughput_mbps)
        << std::hexfloat << stepped.mean_throughput_mbps;
  }
}

TEST_F(SessionTest, MeshReduceDeliversWithoutStalls) {
  const auto& seq = SmallSequence();
  const auto user = sim::GenerateUserTrace("toddler4",
                                           sim::TraceStyle::kOrbit, 80);
  const SessionResult r =
      RunMeshReduce(seq, user, FlatTrace(90.0), 1.0 / 48.0);
  EXPECT_EQ(r.stall_rate, 0.0);
  EXPECT_GT(r.fps, 5.0);
  EXPECT_LE(r.fps, 15.5);
  EXPECT_GT(r.mean_pssim_geometry, 20.0);
  // Every aggregate, bit for bit: MeshReduce runs in virtual time (its
  // latency is the reliable channel's delivery time), so a change to its
  // trace replay, scoring or close moves one of these.
  EXPECT_EQ(r.fps, 0x1.ep+3) << std::hexfloat << r.fps;
  EXPECT_EQ(r.mean_latency_ms, 0x1.7690d3a66b24ap+5)
      << std::hexfloat << r.mean_latency_ms;
  EXPECT_EQ(r.mean_pssim_geometry, 0x1.a06c8f3db0028p+5)
      << std::hexfloat << r.mean_pssim_geometry;
  EXPECT_EQ(r.mean_pssim_color, 0x1.09818c81dc5fbp+6)
      << std::hexfloat << r.mean_pssim_color;
  EXPECT_EQ(r.mean_throughput_mbps, 0x1.d10355d728331p+4)
      << std::hexfloat << r.mean_throughput_mbps;
  EXPECT_EQ(r.mean_capacity_mbps, 0x1.68p+6)
      << std::hexfloat << r.mean_capacity_mbps;
  EXPECT_EQ(r.utilization, 0x1.4aad09d7940d9p-2)
      << std::hexfloat << r.utilization;

  // Three scales at which the offline profile sits on an edge, over the
  // stepped trace. At 1/20 the budget is 16.9 kB per frame and only the
  // finest stride at 9 bits (15.6 kB) fits at stride 1. At 1/291.4 it is
  // 1158 B: the 3-frame mean of stride 4 at 9 bits (1159 B) misses it, the
  // 2- and 4-frame means fit, and the coarsest stride decides. At 1/517.6
  // it is 652 B, within 5% of stride 6 at 10 bits (625 B) and at 11 bits
  // (679 B).
  struct Golden {
    double bandwidth_scale;
    double latency_ms;
    double pssim_geometry;
    double throughput_mbps;
  };
  constexpr Golden kGolden[] = {
      {1.0 / 20.0, 0x1.0cc71303476a6p+6, 0x1.d6ec48191cad8p+5,
       0x1.2a594af4f0d84p+5},
      {1.0 / 291.4, 0x1.7f548ab837bbdp+5, 0x1.14d704fe11f8cp+3,
       0x1.6d44075971e76p+4},
      {1.0 / 517.6, 0x1.f9757b0bc720dp+5, 0x1.197f4d9a3b61p+3,
       0x1.29da896c9fa2ep+5},
  };
  for (const Golden& golden : kGolden) {
    SCOPED_TRACE(golden.bandwidth_scale);
    const SessionResult e =
        RunMeshReduce(seq, user, SteppedTrace(), golden.bandwidth_scale);
    EXPECT_EQ(e.mean_latency_ms, golden.latency_ms)
        << std::hexfloat << e.mean_latency_ms;
    EXPECT_EQ(e.mean_pssim_geometry, golden.pssim_geometry)
        << std::hexfloat << e.mean_pssim_geometry;
    EXPECT_EQ(e.mean_throughput_mbps, golden.throughput_mbps)
        << std::hexfloat << e.mean_throughput_mbps;
  }
}

// ---- Experiment helpers ----

TEST(Experiment, SchemeConfigsDifferCorrectly) {
  const auto profile = SmallProfile();
  const LiVoConfig livo = MakeLiVoConfig(Scheme::kLiVo, profile);
  const LiVoConfig nocull = MakeLiVoConfig(Scheme::kLiVoNoCull, profile);
  const LiVoConfig noadapt = MakeLiVoConfig(Scheme::kLiVoNoAdapt, profile);
  EXPECT_TRUE(livo.enable_culling);
  EXPECT_FALSE(nocull.enable_culling);
  EXPECT_TRUE(nocull.enable_adaptation);
  EXPECT_FALSE(noadapt.enable_adaptation);
}

TEST(Experiment, CacheKeyChangesWithConfig) {
  MatrixConfig a, b;
  b.frames = a.frames + 1;
  EXPECT_NE(a.CacheKey(), b.CacheKey());
  MatrixConfig c = a;
  EXPECT_EQ(a.CacheKey(), c.CacheKey());
}

// The key must cover every knob that changes results, not just the matrix
// shape: the full LiVoConfig/ReplayOptions derived from the profile and
// the scheme list all feed the hash.
TEST(Experiment, CacheKeyCoversDerivedSessionConfigs) {
  const MatrixConfig base;
  {
    MatrixConfig m;  // profile knob that only alters derived ReplayOptions
    m.profile.bandwidth_scale = base.profile.bandwidth_scale * 2.0;
    EXPECT_NE(base.CacheKey(), m.CacheKey());
  }
  {
    MatrixConfig m;  // profile knob that alters the derived tile layout
    m.profile.camera_width = base.profile.camera_width + 8;
    EXPECT_NE(base.CacheKey(), m.CacheKey());
  }
  {
    MatrixConfig m;
    m.schemes = {Scheme::kLiVo};
    EXPECT_NE(base.CacheKey(), m.CacheKey());
  }
  {
    MatrixConfig m;
    m.videos = {"band2"};
    EXPECT_NE(base.CacheKey(), m.CacheKey());
  }
  {
    MatrixConfig m;
    m.both_traces = false;
    EXPECT_NE(base.CacheKey(), m.CacheKey());
  }
}

// The paper benches read the matrix back from ./.bench_cache, so a loaded
// matrix must equal the run that wrote it, to the last bit.
TEST(Experiment, CachedMatrixReproducesFreshRun) {
  MatrixConfig config;
  config.profile = SmallProfile();
  config.frames = 4;
  config.user_traces = 1;
  config.trace_duration_s = 10.0;
  config.schemes = {Scheme::kLiVo};
  config.videos = {"dance5"};
  config.both_traces = false;
  const std::filesystem::path path =
      std::filesystem::path(".bench_cache") /
      ("matrix_" + config.CacheKey() + ".tsv");
  std::filesystem::remove(path);
  const std::vector<SessionSummary> fresh = RunOrLoadMatrix(config, false);
  ASSERT_TRUE(std::filesystem::exists(path));
  const std::vector<SessionSummary> loaded = RunOrLoadMatrix(config, false);
  std::filesystem::remove(path);

  ASSERT_EQ(fresh.size(), 1u);
  ASSERT_EQ(loaded.size(), fresh.size());
  for (double SessionSummary::*field :
       {&SessionSummary::pssim_geometry, &SessionSummary::pssim_color,
        &SessionSummary::stall_rate, &SessionSummary::fps,
        &SessionSummary::target_fps, &SessionSummary::latency_ms,
        &SessionSummary::throughput_mbps, &SessionSummary::capacity_mbps,
        &SessionSummary::utilization}) {
    EXPECT_EQ(loaded[0].*field, fresh[0].*field);
  }
}

TEST(Experiment, SelectAndAggregateHelpers) {
  std::vector<SessionSummary> all(3);
  all[0].scheme = "LiVo";
  all[0].video = "band2";
  all[0].pssim_geometry = 80;
  all[1].scheme = "LiVo";
  all[1].video = "dance5";
  all[1].pssim_geometry = 90;
  all[2].scheme = "MeshReduce";
  all[2].video = "band2";
  all[2].pssim_geometry = 60;
  const auto livo_rows = Select(all, {.scheme = "LiVo"});
  EXPECT_EQ(livo_rows.size(), 2u);
  EXPECT_DOUBLE_EQ(MeanOf(livo_rows, &SessionSummary::pssim_geometry), 85.0);
  const auto band2_rows = Select(all, {.video = "band2"});
  EXPECT_EQ(band2_rows.size(), 2u);
}

}  // namespace
}  // namespace livo::core
