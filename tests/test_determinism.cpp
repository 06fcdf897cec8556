/// RNG determinism: the serialized RNG state is the complete description of
/// the stochastic process, and the filter's substream derivation and
/// stream-split schedule are pinned here with hardcoded draws so they cannot
/// silently change. Replay invariance across reruns, lane counts, SIMD
/// backends and attached instrumentation is the table in
/// `test_replay_invariance.cpp`.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "common/rng.hpp"
#include "core/synpf.hpp"
#include "replay_fixture.hpp"

namespace srl {
namespace {

TEST(DeterminismTest, RngStateRoundTripsThroughStreams) {
  Rng original{12345};
  // Consume an odd number of gaussians so the Box-Muller cache is "charged";
  // the serialized state must include it.
  for (int i = 0; i < 7; ++i) original.gaussian(1.0);

  std::stringstream state;
  state << original;
  Rng restored{999};  // different seed, fully overwritten by the restore
  state >> restored;

  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(original.next_seed(), restored.next_seed());
    EXPECT_TRUE(bitwise_equal(original.gaussian(2.0), restored.gaussian(2.0)));
  }
}

TEST(DeterminismTest, ReplayAfterRngSaveRestoreIsBitwiseIdentical) {
  const Track track = replay_oval();
  const SensorTrace trace = record_drive(track, oval_lap(15.0));
  auto map = std::make_shared<const OccupancyGrid>(track.grid);
  SynPfConfig cfg;
  cfg.filter.n_particles = 400;

  SynPf a{cfg, map, LidarConfig{}};
  const auto ra = trace.replay(a);
  ASSERT_FALSE(ra.estimates.empty());

  SynPf c{cfg, map, LidarConfig{}};
  std::stringstream saved;
  saved << c.filter().rng();
  // Scramble the generator, then restore: the replay must be oblivious.
  for (int i = 0; i < 1000; ++i) c.filter().rng().uniform();
  saved >> c.filter().rng();
  expect_bitwise_identical(ra, trace.replay(c));
}

// ---------------------------------------------------------------------------
// Substream derivation pinning (the PR-3 "Fix" satellite): the filter's
// randomness is split across named streams (PfStream schedule in
// core/particle_filter.hpp). These tests freeze the derivation — SplitMix64
// chain over (master seed, stream tag, index) — with hardcoded draws, so any
// change to the mixing, the tag values, or which component consumes which
// stream fails loudly instead of silently re-keying every replay.
// mt19937_64's output sequence is fully specified by the standard, so the
// constants are portable. Regenerate them ONLY for an intentional,
// changelog-documented break of replay compatibility.
// ---------------------------------------------------------------------------

TEST(RngSubstream, DerivationIsPinned) {
  EXPECT_EQ(splitmix64(0), 16294208416658607535ULL);
  EXPECT_EQ(splitmix64(42), 13679457532755275413ULL);

  Rng master{42};
  Rng predict0 = master.substream(kPfStreamPredictNoise, 0);
  EXPECT_EQ(predict0.next_seed(), 5240070184307236169ULL);
  EXPECT_EQ(predict0.next_seed(), 9041309703565127724ULL);
  EXPECT_EQ(master.substream(kPfStreamPredictNoise, 1).next_seed(),
            11239911459078627731ULL);
  EXPECT_EQ(master.substream(kPfStreamRecovery, 0).next_seed(),
            16653311168010206230ULL);
}

TEST(RngSubstream, IndependentOfParentDrawHistory) {
  Rng a{7};
  Rng b{7};
  for (int i = 0; i < 1000; ++i) b.uniform();  // draw history must not matter
  for (std::uint64_t stream : {1ULL, 2ULL, 77ULL}) {
    Rng sa = a.substream(stream, 5);
    Rng sb = b.substream(stream, 5);
    for (int i = 0; i < 32; ++i) {
      EXPECT_EQ(sa.next_seed(), sb.next_seed());
    }
  }
}

TEST(RngSubstream, DistinctKeysYieldDistinctStreams) {
  Rng master{123};
  EXPECT_NE(master.substream(1, 0).next_seed(),
            master.substream(1, 1).next_seed());
  EXPECT_NE(master.substream(1, 0).next_seed(),
            master.substream(2, 0).next_seed());
  EXPECT_NE(master.substream(1, 0).next_seed(), Rng{123}.next_seed());
}

TEST(RngSubstream, SerializationCarriesMasterSeed) {
  Rng original{4242};
  for (int i = 0; i < 5; ++i) original.gaussian(1.0);
  std::stringstream state;
  state << original;
  Rng restored{1};  // wrong seed, fully overwritten by the restore
  state >> restored;
  EXPECT_EQ(restored.master_seed(), 4242ULL);
  // Substreams derive from the restored master seed, not the ctor seed.
  EXPECT_EQ(original.substream(1, 9).next_seed(),
            restored.substream(1, 9).next_seed());
}

/// Pins the stream split itself: predict noise must come from per-slot
/// substreams, never the master stream, so extra master draws between
/// updates cannot reorder it (this was the PR-3 fix — one shared Rng used
/// to serve predict noise, resampling jitter and recovery injection).
TEST(PfStreamSplit, PredictNoiseDecoupledFromMasterStream) {
  auto grid = std::make_shared<OccupancyGrid>(100, 100, 0.05, Vec2{0.0, 0.0},
                                              OccupancyGrid::kFree);
  const auto make = [&] {
    SynPfConfig cfg;
    cfg.filter.n_particles = 64;
    return SynPf{cfg, grid, LidarConfig{}};
  };
  SynPf a = make();
  SynPf b = make();
  a.initialize(Pose2{2.5, 2.5, 0.0});
  b.initialize(Pose2{2.5, 2.5, 0.0});
  // Scramble b's master stream after init: predict must be oblivious.
  for (int i = 0; i < 333; ++i) b.filter().rng().uniform();

  OdometryDelta odom;
  odom.delta = Pose2{0.1, 0.0, 0.01};
  odom.v = 1.0;
  odom.dt = 0.05;
  a.filter().predict(odom);
  b.filter().predict(odom);
  const auto pa = a.filter().particles_snapshot();
  const auto pb = b.filter().particles_snapshot();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_TRUE(bitwise_equal(pa[i].pose, pb[i].pose)) << "particle " << i;
  }
}

}  // namespace
}  // namespace srl
