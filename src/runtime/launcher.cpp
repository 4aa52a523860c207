#include "src/runtime/launcher.hpp"

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>

extern char** environ;

#ifndef SUBSONIC_CHILD_BIN_DEFAULT
#define SUBSONIC_CHILD_BIN_DEFAULT ""
#endif

namespace subsonic::launcher {

pid_t Launcher::reap(const ChildHandle& h, int* status, bool block) {
  if (h.pid <= 0) return -1;
  return ::waitpid(h.pid, status, block ? 0 : WNOHANG);
}

ChildHandle ForkLauncher::spawn(const ChildSpec& spec) {
  // Flush before fork so buffered output is not emitted twice.
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0)
    throw SpawnError(std::string("fork failed: ") + std::strerror(errno),
                     spec.rank, spec.host);
  if (pid == 0) {
    if (spec.stderr_fd >= 0) {
      ::dup2(spec.stderr_fd, 2);
      if (spec.stderr_fd != 2) ::close(spec.stderr_fd);
    }
    for (int fd : spec.close_in_child)
      if (fd >= 0) ::close(fd);
    spec.entry(spec.cfg);  // never returns
    ::_exit(127);
  }
  return ChildHandle{pid};
}

std::string ExecLauncher::child_binary() {
  const char* env = std::getenv("SUBSONIC_CHILD_BIN");
  if (env && *env) return env;
  return SUBSONIC_CHILD_BIN_DEFAULT;
}

ExecLauncher::ExecLauncher() : binary_(child_binary()) {
  if (binary_.empty())
    throw std::runtime_error(
        "exec launcher: no child binary (set SUBSONIC_CHILD_BIN or build "
        "the subsonic_child target)");
  if (::access(binary_.c_str(), X_OK) != 0)
    throw std::runtime_error("exec launcher: child binary not executable: " +
                             binary_);
}

ChildHandle ExecLauncher::spawn(const ChildSpec& spec) {
  const cohort::ChildConfig& cfg = spec.cfg;
  std::vector<std::string> args;
  args.push_back(binary_);
  const auto add = [&args](const char* key, long long v) {
    args.push_back(std::string(key) + "=" + std::to_string(v));
  };
  const auto add_str = [&args](const char* key, const std::string& v) {
    args.push_back(std::string(key) + "=" + v);
  };
  add("rank", cfg.rank);
  add("generation", cfg.generation);
  add("target_step", cfg.target_step);
  add("start_step", cfg.start_step);
  add("restore_epoch", cfg.restore_epoch);
  add("checkpoint_interval", cfg.checkpoint_interval);
  add("stagger_index", cfg.stagger_index);
  add("recv_deadline_ms", cfg.recv_deadline_ms);
  add("sched", static_cast<int>(cfg.sched));
  add("threads", cfg.threads);
  add("trace", cfg.trace ? 1 : 0);
  add("origin_ns", cfg.origin_ns);
  add("heartbeat_fd", cfg.heartbeat_fd);
  add("control_fd", cfg.control_fd);
  add("beacon_interval_ms", cfg.beacon_interval_ms);
  add("metrics_flush_interval", cfg.metrics_flush_interval);
  add("dim", spec.dim);
  add_str("workdir", spec.workdir);
  add_str("registry", spec.registry);
  add_str("spec", spec.spec_path);
  add_str("faults", spec.faults);
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t fa;
  ::posix_spawn_file_actions_init(&fa);
  if (spec.stderr_fd >= 0 && spec.stderr_fd != 2) {
    ::posix_spawn_file_actions_adddup2(&fa, spec.stderr_fd, 2);
    ::posix_spawn_file_actions_addclose(&fa, spec.stderr_fd);
  }
  std::set<int> closed;
  for (int fd : spec.close_in_child)
    if (fd > 2 && fd != spec.stderr_fd && closed.insert(fd).second)
      ::posix_spawn_file_actions_addclose(&fa, fd);

  std::fflush(nullptr);
  pid_t pid = -1;
  const int rc =
      ::posix_spawn(&pid, binary_.c_str(), &fa, nullptr, argv.data(), environ);
  ::posix_spawn_file_actions_destroy(&fa);
  if (rc != 0)
    throw SpawnError("posix_spawn of " + binary_ +
                         " failed: " + std::strerror(rc),
                     spec.rank, spec.host);
  return ChildHandle{pid};
}

std::string resolve_launcher_name(const std::string& requested) {
  std::string name = requested;
  if (name.empty()) {
    const char* env = std::getenv("SUBSONIC_LAUNCHER");
    if (env && *env) name = env;
  }
  if (name.empty()) name = "fork";
  if (name != "fork" && name != "exec")
    throw std::invalid_argument("unknown launcher \"" + name +
                                "\" (expected \"fork\" or \"exec\")");
  return name;
}

std::unique_ptr<Launcher> make_launcher(const std::string& requested) {
  const std::string name = resolve_launcher_name(requested);
  if (name == "exec") return std::make_unique<ExecLauncher>();
  return std::make_unique<ForkLauncher>();
}

std::string local_host_tag() {
  char buf[256] = {};
  if (::gethostname(buf, sizeof buf - 1) == 0 && buf[0] != '\0')
    return buf;
  return "localhost";
}

}  // namespace subsonic::launcher
