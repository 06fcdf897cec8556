#include "gridmap/map_io.hpp"

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/parse.hpp"

namespace srl {
namespace {

constexpr unsigned char kPgmFree = 254;
constexpr unsigned char kPgmOccupied = 0;
constexpr unsigned char kPgmUnknown = 205;  // map_server convention

unsigned char cell_to_gray(std::int8_t v) {
  if (v == OccupancyGrid::kFree) return kPgmFree;
  if (v == OccupancyGrid::kOccupied) return kPgmOccupied;
  return kPgmUnknown;
}

std::int8_t gray_to_cell(unsigned char g) {
  // Threshold like map_server: dark = occupied, light = free.
  if (g < 100) return OccupancyGrid::kOccupied;
  if (g > 240) return OccupancyGrid::kFree;
  return OccupancyGrid::kUnknown;
}

}  // namespace

bool save_map(const OccupancyGrid& grid, const std::string& path_stem) {
  {
    std::ofstream pgm{path_stem + ".pgm", std::ios::binary};
    if (!pgm) return false;
    pgm << "P5\n"
        << grid.width() << " " << grid.height() << "\n255\n";
    std::vector<unsigned char> row(static_cast<std::size_t>(grid.width()));
    for (int iy = grid.height() - 1; iy >= 0; --iy) {
      for (int ix = 0; ix < grid.width(); ++ix)
        row[static_cast<std::size_t>(ix)] = cell_to_gray(grid.at(ix, iy));
      pgm.write(reinterpret_cast<const char*>(row.data()),
                static_cast<std::streamsize>(row.size()));
    }
    if (!pgm) return false;
  }
  std::ofstream yaml{path_stem + ".yaml"};
  if (!yaml) return false;
  yaml << "image: " << path_stem << ".pgm\n"
       << "resolution: " << grid.resolution() << "\n"
       << "origin: [" << grid.origin().x << ", " << grid.origin().y
       << ", 0.0]\n"
       << "negate: 0\noccupied_thresh: 0.65\nfree_thresh: 0.196\n";
  return static_cast<bool>(yaml);
}

std::optional<OccupancyGrid> load_map(const std::string& path_stem) {
  double resolution = 0.05;
  Vec2 origin{};
  {
    std::ifstream yaml{path_stem + ".yaml"};
    if (!yaml) return std::nullopt;
    std::string line;
    while (std::getline(yaml, line)) {
      std::istringstream is{line};
      std::string key;
      is >> key;
      if (key == "resolution:") {
        is >> resolution;
      } else if (key == "origin:") {
        char c = 0;
        is >> c >> origin.x >> c >> origin.y;
      }
    }
  }
  std::ifstream pgm{path_stem + ".pgm", std::ios::binary};
  if (!pgm) return std::nullopt;
  std::string magic;
  pgm >> magic;
  if (magic != "P5") return std::nullopt;
  // Skip comments and read dimensions + maxval.
  auto next_int = [&pgm]() -> int {
    std::string tok;
    while (pgm >> tok) {
      if (tok[0] == '#') {
        std::string rest;
        std::getline(pgm, rest);
        continue;
      }
      return parse_number<int>(tok).value_or(-1);  // malformed = missing
    }
    return -1;
  };
  const int w = next_int();
  const int h = next_int();
  const int maxval = next_int();
  if (w <= 0 || h <= 0 || maxval <= 0 || maxval > 255) return std::nullopt;
  pgm.get();  // single whitespace after maxval

  OccupancyGrid grid{w, h, resolution, origin};
  std::vector<unsigned char> row(static_cast<std::size_t>(w));
  for (int iy = h - 1; iy >= 0; --iy) {
    pgm.read(reinterpret_cast<char*>(row.data()),
             static_cast<std::streamsize>(row.size()));
    if (!pgm) return std::nullopt;
    for (int ix = 0; ix < w; ++ix)
      grid.at(ix, iy) = gray_to_cell(row[static_cast<std::size_t>(ix)]);
  }
  return grid;
}

}  // namespace srl
