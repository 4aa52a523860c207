#include "src/cluster/kernel_speeds.hpp"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string_view>

#include "src/solver/schedule.hpp"
#include "src/util/check.hpp"

namespace subsonic {

namespace {

/// Finds `"key"` inside `obj` and returns the raw token after the colon
/// (up to the next ',' or '}'), or nullopt when absent.
std::optional<std::string> raw_value(const std::string& obj,
                                     const std::string& key) {
  const std::string quoted = "\"" + key + "\"";
  const size_t k = obj.find(quoted);
  if (k == std::string::npos) return std::nullopt;
  size_t p = obj.find(':', k + quoted.size());
  if (p == std::string::npos) return std::nullopt;
  ++p;
  while (p < obj.size() && std::isspace(static_cast<unsigned char>(obj[p])))
    ++p;
  size_t e = p;
  if (e < obj.size() && obj[e] == '"') {  // string value
    const size_t close = obj.find('"', e + 1);
    if (close == std::string::npos) return std::nullopt;
    return obj.substr(p + 1, close - p - 1);
  }
  while (e < obj.size() && obj[e] != ',' && obj[e] != '}') ++e;
  while (e > p && std::isspace(static_cast<unsigned char>(obj[e - 1]))) --e;
  return obj.substr(p, e - p);
}

std::optional<double> number_value(const std::string& obj,
                                   const std::string& key) {
  const auto raw = raw_value(obj, key);
  if (!raw) return std::nullopt;
  char* end = nullptr;
  const double v = std::strtod(raw->c_str(), &end);
  if (end == raw->c_str()) return std::nullopt;
  return v;
}

}  // namespace

KernelSpeedTable KernelSpeedTable::from_bench_json(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  SUBSONIC_REQUIRE_MSG(in.good(),
                       "KernelSpeedTable: cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  KernelSpeedTable table;
  std::map<std::string, double> best_side;
  // Every bench case is a flat object that contains a "kernel" key; the
  // provenance object does not, so scanning by that key visits exactly
  // the cases.  Case objects hold only scalar values — no nested braces —
  // so the enclosing object is the {...} around each occurrence.
  for (size_t k = text.find("\"kernel\""); k != std::string::npos;
       k = text.find("\"kernel\"", k + 1)) {
    const size_t open = text.rfind('{', k);
    const size_t close = text.find('}', k);
    if (open == std::string::npos || close == std::string::npos) continue;
    const std::string obj = text.substr(open, close - open + 1);
    const auto kernel = raw_value(obj, "kernel");
    const auto side = number_value(obj, "side");
    const auto threads = number_value(obj, "threads");
    const auto mlups = number_value(obj, "mlups");
    if (!kernel || !side || !threads || !mlups) continue;
    if (*threads != 1 || *mlups <= 0) continue;
    auto it = best_side.find(*kernel);
    if (it == best_side.end() || *side > it->second) {
      best_side[*kernel] = *side;
      table.mlups_[*kernel] = *mlups;
    }
  }
  SUBSONIC_REQUIRE_MSG(!table.mlups_.empty(),
                       "KernelSpeedTable: no threads == 1 case in " + path);
  return table;
}

std::optional<double> KernelSpeedTable::mlups(
    const std::string& kernel) const {
  const auto it = mlups_.find(kernel);
  if (it != mlups_.end()) return it->second;
  // Variant fallback: <base>_<variant> -> <base> -> <base>_scalar.  Only
  // the known dispatch suffixes participate; an arbitrary unknown kernel
  // name must stay a miss, not resolve to some prefix of itself.
  for (const char* suffix : {"_avx2", "_scalar"}) {
    const std::string s = suffix;
    if (kernel.size() > s.size() &&
        kernel.compare(kernel.size() - s.size(), s.size(), s) == 0) {
      const std::string base = kernel.substr(0, kernel.size() - s.size());
      const auto b = mlups_.find(base);
      if (b != mlups_.end()) return b->second;
      const auto sc = mlups_.find(base + "_scalar");
      if (sc != mlups_.end()) return sc->second;
      return std::nullopt;
    }
  }
  return std::nullopt;
}

std::optional<double> KernelSpeedTable::node_rate(
    Method method, const std::string& variant) const {
  const std::string suffix = variant.empty() ? "" : "_" + variant;
  const std::string_view timer_prefix = "compute.";
  double seconds_per_meganode = 0;  // sum of 1 / MLUPS over the passes
  for (const Phase& phase : make_schedule<2>(method)) {
    if (phase.kind != Phase::Kind::kCompute) continue;
    // Bench rows are named like the phase timers, without the prefix.
    const std::string kernel =
        std::string(compute_phase_name(phase.compute))
            .substr(timer_prefix.size());
    const auto m = mlups(kernel + suffix);
    if (!m) return std::nullopt;
    seconds_per_meganode += 1.0 / *m;
  }
  return 1e6 / seconds_per_meganode;
}

void KernelSpeedTable::set(const std::string& kernel, double mlups) {
  SUBSONIC_REQUIRE(mlups > 0);
  mlups_[kernel] = mlups;
}

}  // namespace subsonic
