#include "gridmap/map_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <string>

#include "common/rng.hpp"
#include "gridmap/track_generator.hpp"

namespace srl {
namespace {

class MapIoTest : public ::testing::Test {
 protected:
  void TearDown() override {
    std::remove((stem_ + ".pgm").c_str());
    std::remove((stem_ + ".yaml").c_str());
  }
  std::string stem_ = "map_io_test_tmp";
};

TEST_F(MapIoTest, RoundTripPreservesCells) {
  OccupancyGrid g{17, 9, 0.05, Vec2{-1.25, 3.5}};
  Rng rng{3};
  for (int y = 0; y < g.height(); ++y) {
    for (int x = 0; x < g.width(); ++x) {
      const int pick = rng.uniform_int(0, 2);
      g.at(x, y) = pick == 0 ? OccupancyGrid::kFree
                             : (pick == 1 ? OccupancyGrid::kOccupied
                                          : OccupancyGrid::kUnknown);
    }
  }
  ASSERT_TRUE(save_map(g, stem_));
  const auto loaded = load_map(stem_);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->width(), g.width());
  EXPECT_EQ(loaded->height(), g.height());
  EXPECT_DOUBLE_EQ(loaded->resolution(), g.resolution());
  EXPECT_NEAR(loaded->origin().x, g.origin().x, 1e-9);
  EXPECT_NEAR(loaded->origin().y, g.origin().y, 1e-9);
  for (int y = 0; y < g.height(); ++y) {
    for (int x = 0; x < g.width(); ++x) {
      EXPECT_EQ(loaded->at(x, y), g.at(x, y)) << x << "," << y;
    }
  }
}

TEST_F(MapIoTest, RoundTripGeneratedTrack) {
  const Track track = TrackGenerator::oval(6.0, 2.0);
  ASSERT_TRUE(save_map(track.grid, stem_));
  const auto loaded = load_map(stem_);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->count(OccupancyGrid::kFree),
            track.grid.count(OccupancyGrid::kFree));
  EXPECT_EQ(loaded->count(OccupancyGrid::kOccupied),
            track.grid.count(OccupancyGrid::kOccupied));
}

TEST_F(MapIoTest, LoadMissingFileFails) {
  EXPECT_FALSE(load_map("definitely_not_a_map").has_value());
}

// A malformed PGM header is a refusal, never an exception out of a function
// that returns std::optional.
TEST_F(MapIoTest, MalformedHeaderIsRefusedWithoutThrowing) {
  ASSERT_TRUE(save_map(OccupancyGrid{4, 4, 0.05, Vec2{}}, stem_));
  const auto load_with_header = [this](const char* header) {
    {
      std::ofstream pgm{stem_ + ".pgm", std::ios::binary};
      pgm << header << std::string(16, '\xfe');
    }
    std::optional<OccupancyGrid> loaded;
    EXPECT_NO_THROW(loaded = load_map(stem_)) << header;
    return loaded;
  };
  EXPECT_TRUE(load_with_header("P5\n4 4\n255\n").has_value());
  for (const char* header :
       {"P5\nabc 4\n255\n", "P5\n99999999999 4\n255\n", "P5\n4x 4\n255\n",
        "P5\n-4 4\n255\n", "P5\n4 4\n"}) {
    EXPECT_FALSE(load_with_header(header).has_value()) << header;
  }
}

}  // namespace
}  // namespace srl
