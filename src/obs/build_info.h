// Build identity: which binary produced this artifact.
//
// Every serialized artifact (metric snapshots, bench ledgers, run reports)
// embeds the same small build_info record — git hash, compiler, build type,
// and how the power-law alpha is configured — so a committed BENCH_*.json or
// a saved snapshot is self-identifying: you can tell whether two artifacts
// came from comparable binaries without consulting CI logs.
//
// The git hash is read at build time by the speedscale_git_hash target
// (src/obs/write_git_hash.cmake), which rewrites its generated header only
// when the hash changed: a commit recompiles this translation unit alone, and
// an incremental build after a commit reports the new hash.
#pragma once

#include <string>

namespace speedscale::obs {

struct BuildInfo {
  std::string git_hash;      ///< short commit hash, or "unknown" outside git
  std::string compiler;      ///< e.g. "gcc 13.2.0"
  std::string build_type;    ///< CMAKE_BUILD_TYPE, or "unknown"
  std::string cxx_standard;  ///< __cplusplus, e.g. "202002"
  /// How alpha enters the build: always "runtime" here — alpha is a per-run
  /// parameter, recorded per artifact (ledger config, suite JSON), never
  /// compiled in.
  std::string alpha_config;
};

/// The process's build identity (computed once).
[[nodiscard]] const BuildInfo& build_info();

/// Appends `info` as one sorted-key JSON object, byte-stable for equal
/// inputs (src/obs/json_util.h contract):
///   {"alpha_config":...,"build_type":...,"compiler":...,
///    "cxx_standard":...,"git_hash":...}
void append_build_info_json(std::string& out, const BuildInfo& info);
/// Same, for the process's own identity.
void append_build_info_json(std::string& out);

}  // namespace speedscale::obs
