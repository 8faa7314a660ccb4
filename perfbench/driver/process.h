#pragma once

/// \file process.h
/// Child processes whose set-up the benchmark times: spawned, then read on
/// stdout until they announce they are ready.

#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// A spawned child.  Construction returns once the child printed a line
/// containing `ready_token` on stdout (30 s limit); stderr goes to
/// `log_path`.  The destructor stops a child that is still running.
class ready_process {
 public:
  ready_process(std::vector<std::string> args, const std::string& log_path,
                std::string_view ready_token);
  ~ready_process();

  ready_process(const ready_process&) = delete;
  ready_process& operator=(const ready_process&) = delete;

  [[nodiscard]] int pid() const { return pid_; }
  /// Spawn → ready line read.
  [[nodiscard]] double ready_seconds() const { return ready_seconds_; }
  /// The line that held the ready token, without its newline.
  [[nodiscard]] const std::string& ready_line() const { return ready_line_; }

  /// SIGTERM, then SIGKILL after 20 s; with `graceful` false, SIGKILL at
  /// once.  Reaps the child.  True when it exited 0 on its own.
  bool stop(bool graceful = true);

 private:
  void wait_ready(std::string_view ready_token);

  int pid_ = -1;
  int stdout_fd_ = -1;
  double ready_seconds_ = 0.0;
  std::string ready_line_;
};

/// This executable's path (/proc/self/exe).
[[nodiscard]] std::string self_executable();

}  // namespace perfbench
