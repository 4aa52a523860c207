// Machine/toolchain provenance for committed benchmark results.  A perf
// number without the machine it was measured on is noise once the repo
// moves hosts; every BENCH_*.json embeds this record so the trajectory
// stays comparable (or is visibly *not* comparable) across machines.
#pragma once

#include <string>

namespace subsonic {

struct Provenance {
  std::string cpu_model;     ///< /proc/cpuinfo "model name" (or "unknown")
  int hardware_threads = 0;  ///< std::thread::hardware_concurrency()
  std::string compiler;      ///< e.g. "gcc 13.2.0"
  std::string flags;         ///< effective CMAKE_CXX_FLAGS at build time
  std::string solver_flags;  ///< the same plus subsonic_solver's own options
  std::string build_type;    ///< CMAKE_BUILD_TYPE
};

/// Gathers the provenance of the running binary.
Provenance collect_provenance();

/// The record as a JSON object, e.g. for embedding under a "provenance"
/// key: {"cpu_model": "...", "hardware_threads": 8, ...}.
std::string provenance_json(const Provenance& p);

}  // namespace subsonic
