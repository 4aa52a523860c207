#include "src/util/provenance.hpp"

#include <algorithm>
#include <fstream>
#include <thread>

#ifndef SUBSONIC_CXX_FLAGS
#define SUBSONIC_CXX_FLAGS "unknown"
#endif
#ifndef SUBSONIC_SOLVER_FLAGS
#define SUBSONIC_SOLVER_FLAGS "unknown"
#endif
#ifndef SUBSONIC_BUILD_TYPE
#define SUBSONIC_BUILD_TYPE "unknown"
#endif

namespace subsonic {

namespace {

std::string cpu_model_name() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    const auto key = line.find("model name");
    if (key == std::string::npos) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    auto value = line.substr(colon + 1);
    const auto first = value.find_first_not_of(" \t");
    return first == std::string::npos ? value : value.substr(first);
  }
  return "unknown";
}

std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

void append_escaped(std::string& out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
}

}  // namespace

Provenance collect_provenance() {
  Provenance p;
  p.cpu_model = cpu_model_name();
  p.hardware_threads = std::max(
      1, static_cast<int>(std::thread::hardware_concurrency()));
  p.compiler = compiler_id();
  p.flags = SUBSONIC_CXX_FLAGS;
  p.solver_flags = SUBSONIC_SOLVER_FLAGS;
  p.build_type = SUBSONIC_BUILD_TYPE;
  return p;
}

std::string provenance_json(const Provenance& p) {
  std::string out = "{\"cpu_model\": \"";
  append_escaped(out, p.cpu_model);
  out += "\", \"hardware_threads\": " + std::to_string(p.hardware_threads);
  out += ", \"compiler\": \"";
  append_escaped(out, p.compiler);
  out += "\", \"flags\": \"";
  append_escaped(out, p.flags);
  out += "\", \"solver_flags\": \"";
  append_escaped(out, p.solver_flags);
  out += "\", \"build_type\": \"";
  append_escaped(out, p.build_type);
  out += "\"}";
  return out;
}

}  // namespace subsonic
