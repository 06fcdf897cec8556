#pragma once

/// \file build_info.hpp
/// \brief Which build produced an artifact: the three members every
/// artifact schema writes first in its "provenance" object.

#include <string>

#include "common/json.hpp"

namespace srl {

/// Build provenance (informational; no gate compares it).
struct BuildInfo {
  std::string compiler;  ///< e.g. "gcc 13.2.0"
  std::string build;     ///< "release" (NDEBUG) or "debug"
  std::string git_sha;   ///< $SRL_GIT_SHA, empty when unset

  /// The running program's build.
  static BuildInfo current();

  /// Set "compiler", "build", "git_sha" on `provenance`, in that order.
  void write(json::Value& provenance) const;
  /// Read them back; absent members read empty.
  static BuildInfo read(const json::Value& provenance);
};

}  // namespace srl
