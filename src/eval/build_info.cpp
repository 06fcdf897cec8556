#include "eval/build_info.hpp"

#include <cstdlib>

namespace srl {

BuildInfo BuildInfo::current() {
  BuildInfo info;
#if defined(__clang__)
  info.compiler = "clang " + std::to_string(__clang_major__) + "." +
                  std::to_string(__clang_minor__) + "." +
                  std::to_string(__clang_patchlevel__);
#elif defined(__GNUC__)
  info.compiler = "gcc " + std::to_string(__GNUC__) + "." +
                  std::to_string(__GNUC_MINOR__) + "." +
                  std::to_string(__GNUC_PATCHLEVEL__);
#else
  info.compiler = "unknown";
#endif
#ifdef NDEBUG
  info.build = "release";
#else
  info.build = "debug";
#endif
  const char* sha = std::getenv("SRL_GIT_SHA");
  info.git_sha = sha != nullptr ? sha : "";
  return info;
}

void BuildInfo::write(json::Value& provenance) const {
  provenance.set("compiler", json::Value::string(compiler));
  provenance.set("build", json::Value::string(build));
  provenance.set("git_sha", json::Value::string(git_sha));
}

BuildInfo BuildInfo::read(const json::Value& provenance) {
  return BuildInfo{json::str(provenance, "compiler"),
                   json::str(provenance, "build"),
                   json::str(provenance, "git_sha")};
}

}  // namespace srl
