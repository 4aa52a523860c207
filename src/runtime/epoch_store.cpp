#include "src/runtime/epoch_store.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "src/io/atomic_file.hpp"

namespace subsonic {

namespace epoch {

namespace {

std::string manifest_path(const std::string& workdir) {
  return workdir + "/MANIFEST";
}

}  // namespace

std::string block_dump_path(const std::string& workdir, int block, long e) {
  return workdir + "/block_" + std::to_string(block) + ".epoch_" +
         std::to_string(e) + ".dump";
}

std::vector<std::string> dump_paths(const std::string& workdir,
                                    const std::vector<int>& blocks, long e) {
  std::vector<std::string> paths;
  for (int b : blocks) paths.push_back(block_dump_path(workdir, b, e));
  return paths;
}

void commit(const std::string& workdir, const Manifest& m) {
  std::ostringstream out;
  out << "epoch " << m.epoch << '\n' << "step " << m.step << '\n' << "blocks";
  for (int b : m.blocks) out << ' ' << b;
  out << '\n';
  const std::string text = out.str();
  atomic_write_file(manifest_path(workdir), text.data(), text.size());
  for (long e = m.epoch - 1; e >= 0; --e) {
    bool any = false;
    for (const std::string& path : dump_paths(workdir, m.blocks, e))
      any = std::remove(path.c_str()) == 0 || any;
    if (!any) break;  // older epochs were already collected
  }
}

std::optional<Manifest> read_manifest(const std::string& workdir) {
  std::ifstream in(manifest_path(workdir));
  if (!in.good()) return std::nullopt;
  Manifest m;
  std::string key;
  if (!(in >> key) || key != "epoch" || !(in >> m.epoch)) return std::nullopt;
  if (!(in >> key) || key != "step" || !(in >> m.step)) return std::nullopt;
  if (!(in >> key) || key != "blocks") return std::nullopt;
  int b = 0;
  while (in >> b) m.blocks.push_back(b);
  if (m.epoch < 0 || m.blocks.empty()) return std::nullopt;
  return m;
}

std::vector<std::optional<CheckpointInfo>> verify(
    const std::vector<std::string>& paths) {
  std::vector<std::optional<CheckpointInfo>> out(paths.size());
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i = next++; i < paths.size(); i = next++) {
      try {
        out[i] = inspect_checkpoint(paths[i]);
      } catch (const std::exception&) {
        // Missing, torn or corrupt: left empty.
      }
    }
  };
  const std::size_t threads = std::min<std::size_t>(
      paths.size(), std::thread::hardware_concurrency());
  std::vector<std::thread> helpers;
  for (std::size_t t = 1; t < threads; ++t) helpers.emplace_back(work);
  work();
  for (std::thread& t : helpers) t.join();
  return out;
}

void clear_run_state(const std::string& workdir,
                     const std::optional<Manifest>& keep) {
  namespace fs = std::filesystem;
  std::set<std::string> kept;
  if (keep)
    for (const std::string& path : dump_paths(workdir, keep->blocks, keep->epoch))
      kept.insert(fs::path(path).filename());
  else
    std::remove(manifest_path(workdir).c_str());
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(workdir, ec)) {
    const std::string name = entry.path().filename();
    if (name.ends_with(".tmp") ||
        (name.starts_with("rank_") &&
         (name.ends_with(".dump") || name.ends_with(".metrics.jsonl") ||
          name.ends_with(".trace.json"))) ||
        (name.starts_with("block_") && name.ends_with(".dump") &&
         !kept.count(name)))
      fs::remove(entry.path(), ec);
  }
}

}  // namespace epoch

}  // namespace subsonic
