#include "src/runtime/epoch_store.hpp"

#include <dirent.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/io/atomic_file.hpp"

namespace subsonic {

namespace epoch {

std::string manifest_path(const std::string& workdir) {
  return workdir + "/MANIFEST";
}

std::string block_dump_path(const std::string& workdir, int block, long e) {
  return workdir + "/block_" + std::to_string(block) + ".epoch_" +
         std::to_string(e) + ".dump";
}

void commit_manifest(const std::string& workdir, const Manifest& m) {
  std::ostringstream out;
  out << "epoch " << m.epoch << '\n' << "step " << m.step << '\n' << "ranks";
  for (int r : m.ranks) out << ' ' << r;
  out << '\n';
  const std::string text = out.str();
  atomic_write_file(manifest_path(workdir), text.data(), text.size());
}

std::optional<Manifest> read_manifest(const std::string& workdir) {
  std::ifstream in(manifest_path(workdir));
  if (!in.good()) return std::nullopt;
  Manifest m;
  std::string key;
  if (!(in >> key) || key != "epoch" || !(in >> m.epoch)) return std::nullopt;
  if (!(in >> key) || key != "step" || !(in >> m.step)) return std::nullopt;
  if (!(in >> key) || key != "ranks") return std::nullopt;
  int r = 0;
  while (in >> r) m.ranks.push_back(r);
  if (m.epoch < 0 || m.ranks.empty()) return std::nullopt;
  return m;
}

void gc_block_epochs(const std::string& workdir,
                     const std::vector<int>& blocks, long keep_from) {
  for (long e = keep_from - 1; e >= 0; --e) {
    bool any = false;
    for (int b : blocks)
      if (std::remove(block_dump_path(workdir, b, e).c_str()) == 0)
        any = true;
    if (!any) break;  // older epochs were already collected
  }
}

void clear_run_state(const std::string& workdir) {
  std::remove(manifest_path(workdir).c_str());
  DIR* dir = ::opendir(workdir.c_str());
  if (!dir) return;
  std::vector<std::string> doomed;
  while (dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    const bool epoch_dump = (name.rfind("rank_", 0) == 0 ||
                             name.rfind("block_", 0) == 0) &&
                            name.find(".epoch_") != std::string::npos &&
                            name.size() >= 5 &&
                            name.compare(name.size() - 5, 5, ".dump") == 0;
    const bool tmp = name.size() >= 4 &&
                     name.compare(name.size() - 4, 4, ".tmp") == 0;
    if (epoch_dump || tmp) doomed.push_back(workdir + "/" + name);
  }
  ::closedir(dir);
  for (const std::string& path : doomed) std::remove(path.c_str());
}

}  // namespace epoch

}  // namespace subsonic
