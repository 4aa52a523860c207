// Process placement, factored out of the supervisors.  The paper's
// job-submit program "begins a parallel subprocess on each workstation";
// a Launcher is exactly that seam: the supervisor describes the child it
// wants (ChildSpec) and the launcher decides *how* a process comes to
// exist, returning a ChildHandle whose pid the supervisor signals and
// reaps with ::kill and ::waitpid.
//
//   * ForkLauncher — today's single-host mechanics, bitwise-preserving:
//     fork(), redirect stderr into the tagging pipe, close the fds that
//     belong to other children, run the child body in-process.
//   * ExecLauncher — posix_spawn of the subsonic_child binary, which
//     reconstructs its ChildConfig from argv and its world from the
//     cohort spec file.  The child inherits *no* supervisor state beyond
//     the explicitly-numbered channel fds (none with socket channels,
//     which it dials at its registry), which is the proof obligation for
//     the next launcher in line (SSH/agent onto a remote host, where
//     inheritance is impossible by construction).
//
// Selection: ProcessRunOptions::launcher, else SUBSONIC_LAUNCHER
// ("fork" | "exec"), else fork.
#pragma once

#include <sys/types.h>

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/runtime/cohort.hpp"

namespace subsonic::launcher {

/// Everything a launcher needs to start one rank process.
struct ChildSpec {
  int rank = -1;
  std::string host;  ///< placement tag, threaded into liveness records
  cohort::ChildConfig cfg;
  std::string workdir;
  std::string registry;   ///< the supervisor's rendezvous endpoint
  std::string spec_path;  ///< cohort spec file (exec children rebuild from it)
  std::string faults;     ///< fault spec string ("" = child reads env)
  int dim = 2;
  int stderr_fd = -1;  ///< dup2'd onto fd 2 in the child (tagging pipe)
  /// Fds that belong to the supervisor or to sibling children; the child
  /// must not hold them open (fork closes them, exec never passes them).
  std::vector<int> close_in_child;
  /// The child body for in-process launchers; receives the final
  /// ChildConfig and never returns.  Exec launchers ignore it — the
  /// subsonic_child binary is the body.
  std::function<void(const cohort::ChildConfig&)> entry;
};

struct ChildHandle {
  pid_t pid = -1;
};

/// A launch that failed before a child process existed (dead host,
/// missing binary, injected spawn_fail) — the supervisor surfaces it as
/// a clean ProcessRunError naming the rank and host.
class SpawnError : public std::runtime_error {
 public:
  SpawnError(const std::string& what, int rank_in, std::string host_in)
      : std::runtime_error(what), rank(rank_in), host(std::move(host_in)) {}
  int rank;
  std::string host;
};

class Launcher {
 public:
  virtual ~Launcher() = default;

  /// "fork" / "exec" — the tag shown in /status and subsonic_top.
  virtual const char* name() const = 0;

  /// Starts one child; throws SpawnError when no process came to exist.
  virtual ChildHandle spawn(const ChildSpec& spec) = 0;

  /// waitpid() on the handle's pid: every launcher's children are local
  /// processes.
  pid_t reap(const ChildHandle& h, int* status, bool block);
};

/// fork() + run the child body in-process: the child shares the parent's
/// address space copy, so masks/decompositions need no serialization.
class ForkLauncher : public Launcher {
 public:
  const char* name() const override { return "fork"; }
  ChildHandle spawn(const ChildSpec& spec) override;
};

/// posix_spawn of the subsonic_child binary (SUBSONIC_CHILD_BIN env, else
/// the build-time default).  Channel fds survive by number; everything
/// else the child needs travels through argv and the cohort spec file.
class ExecLauncher : public Launcher {
 public:
  /// Throws std::runtime_error when no child binary can be resolved.
  ExecLauncher();
  const char* name() const override { return "exec"; }
  ChildHandle spawn(const ChildSpec& spec) override;

  /// The resolved child binary path ("" when none is configured).
  static std::string child_binary();

 private:
  std::string binary_;
};

/// Resolves the launcher request: explicit name, else SUBSONIC_LAUNCHER,
/// else "fork".  Throws std::invalid_argument on an unknown name.
std::string resolve_launcher_name(const std::string& requested);

std::unique_ptr<Launcher> make_launcher(const std::string& requested);

/// This machine's host tag for liveness records (gethostname, falling
/// back to "localhost").
std::string local_host_tag();

}  // namespace subsonic::launcher
