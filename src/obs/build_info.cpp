#include "src/obs/build_info.h"

#include "src/obs/json_util.h"

// SPEEDSCALE_GIT_HASH comes from a header generated at build time
// (src/obs/write_git_hash.cmake), SPEEDSCALE_BUILD_TYPE from a per-TU
// definition (src/CMakeLists.txt); both default to "unknown" so builds
// without them still link.
#if __has_include("speedscale_git_hash.h")
#include "speedscale_git_hash.h"
#endif
#ifndef SPEEDSCALE_GIT_HASH
#define SPEEDSCALE_GIT_HASH "unknown"
#endif
#ifndef SPEEDSCALE_BUILD_TYPE
#define SPEEDSCALE_BUILD_TYPE "unknown"
#endif

namespace speedscale::obs {

namespace {

std::string compiler_string() {
#if defined(__clang__)
  return "clang " + std::to_string(__clang_major__) + "." + std::to_string(__clang_minor__) + "." +
         std::to_string(__clang_patchlevel__);
#elif defined(__GNUC__)
  return "gcc " + std::to_string(__GNUC__) + "." + std::to_string(__GNUC_MINOR__) + "." +
         std::to_string(__GNUC_PATCHLEVEL__);
#else
  return "unknown";
#endif
}

}  // namespace

const BuildInfo& build_info() {
  static const BuildInfo info = [] {
    BuildInfo b;
    b.git_hash = SPEEDSCALE_GIT_HASH;
    b.compiler = compiler_string();
    b.build_type = SPEEDSCALE_BUILD_TYPE;
    b.cxx_standard = std::to_string(__cplusplus);  // 202002L -> "202002"
    b.alpha_config = "runtime";
    return b;
  }();
  return info;
}

void append_build_info_json(std::string& out, const BuildInfo& info) {
  out += "{\"alpha_config\":";
  append_json_string(out, info.alpha_config);
  out += ",\"build_type\":";
  append_json_string(out, info.build_type);
  out += ",\"compiler\":";
  append_json_string(out, info.compiler);
  out += ",\"cxx_standard\":";
  append_json_string(out, info.cxx_standard);
  out += ",\"git_hash\":";
  append_json_string(out, info.git_hash);
  out += '}';
}

void append_build_info_json(std::string& out) { append_build_info_json(out, build_info()); }

}  // namespace speedscale::obs
