#include "eval/throughput_json.hpp"

#include <cstdio>

#include "common/fingerprint.hpp"

namespace srl {

std::uint64_t estimates_hash(std::span<const Pose2> estimates) {
  Fnv1a h;
  for (const Pose2& p : estimates) {
    h.value(p.x);
    h.value(p.y);
    h.value(p.theta);
  }
  return h.digest();
}

std::string ThroughputCell::key() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s simd=%s n=%d t=%d", stage.c_str(),
                simd.c_str(), particles, threads);
  return buf;
}

json::Value throughput_to_json(const ThroughputDocument& doc) {
  json::Value root = json::Value::object();
  root.set("schema", json::Value::string(kBenchThroughputSchema));

  json::Value provenance = json::Value::object();
  doc.provenance.write(provenance);
  provenance.set("seed",
                 json::Value::number(static_cast<double>(doc.provenance.seed)));
  provenance.set("laps", json::Value::number(doc.provenance.laps));
  provenance.set("fast_mode", json::Value::boolean(doc.provenance.fast_mode));
  root.set("provenance", std::move(provenance));

  root.set("simd_active", json::Value::string(doc.simd_active));
  root.set("avx2_available", json::Value::boolean(doc.avx2_available));
  root.set("n_scans", json::Value::number(doc.n_scans));
  root.set("determinism_hash",
           json::Value::string(to_hex(doc.determinism_hash)));

  json::Value cells = json::Value::array();
  for (const ThroughputCell& cell : doc.cells) {
    json::Value c = json::Value::object();
    c.set("stage", json::Value::string(cell.stage));
    c.set("simd", json::Value::string(cell.simd));
    c.set("particles", json::Value::number(cell.particles));
    c.set("threads", json::Value::number(cell.threads));
    c.set("beams", json::Value::number(cell.beams));
    c.set("mean_ms", json::Value::number(cell.mean_ms));
    c.set("items_per_sec", json::Value::number(cell.items_per_sec));
    c.set("hash", json::Value::string(to_hex(cell.hash)));
    cells.push_back(std::move(c));
  }
  root.set("cells", std::move(cells));
  return root;
}

bool write_throughput_json(const std::string& path,
                           const ThroughputDocument& doc) {
  return throughput_to_json(doc).save(path);
}

std::optional<ThroughputDocument> throughput_from_json(
    const json::Value& root) {
  if (!root.is_object()) return std::nullopt;
  if (str(root, "schema") != kBenchThroughputSchema) return std::nullopt;

  ThroughputDocument doc;
  if (const json::Value* p = root.find("provenance");
      p != nullptr && p->is_object()) {
    static_cast<BuildInfo&>(doc.provenance) = BuildInfo::read(*p);
    doc.provenance.seed = static_cast<std::uint64_t>(num(*p, "seed"));
    doc.provenance.laps = static_cast<int>(num(*p, "laps"));
    doc.provenance.fast_mode = flag(*p, "fast_mode");
  }
  doc.simd_active = str(root, "simd_active");
  doc.avx2_available = flag(root, "avx2_available");
  doc.n_scans = static_cast<int>(num(root, "n_scans"));
  const std::optional<std::uint64_t> doc_hash =
      parse_hex(str(root, "determinism_hash"));
  if (!doc_hash.has_value()) return std::nullopt;
  doc.determinism_hash = *doc_hash;

  const json::Value* cells = root.find("cells");
  if (cells == nullptr || !cells->is_array()) return std::nullopt;
  for (std::size_t i = 0; i < cells->size(); ++i) {
    const json::Value& c = *cells->at(i);
    if (!c.is_object()) return std::nullopt;
    ThroughputCell cell;
    cell.stage = str(c, "stage");
    cell.simd = str(c, "simd");
    cell.particles = static_cast<int>(num(c, "particles"));
    cell.threads = static_cast<int>(num(c, "threads"));
    cell.beams = static_cast<int>(num(c, "beams"));
    cell.mean_ms = num(c, "mean_ms");
    cell.items_per_sec = num(c, "items_per_sec");
    const std::optional<std::uint64_t> hash = parse_hex(str(c, "hash"));
    if (!hash.has_value()) return std::nullopt;
    cell.hash = *hash;
    doc.cells.push_back(std::move(cell));
  }
  return doc;
}

std::optional<ThroughputDocument> read_throughput_json(
    const std::string& path) {
  std::optional<json::Value> root = json::Value::load(path);
  if (!root.has_value()) return std::nullopt;
  return throughput_from_json(*root);
}

}  // namespace srl
