#include "process.h"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common.h"

extern char** environ;

namespace perfbench {

ready_process::ready_process(std::vector<std::string> args, const std::string& log_path,
                             std::string_view ready_token) {
  int out[2] = {-1, -1};
  if (::pipe(out) != 0) throw std::runtime_error{"pipe failed"};
  stdout_fd_ = out[0];
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, out[0]);
  posix_spawn_file_actions_addclose(&actions, out[1]);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  const std::int64_t start = now_ns();
  pid_t pid = -1;
  const int spawned = posix_spawn(&pid, args[0].c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(out[1]);
  if (spawned != 0) {
    ::close(stdout_fd_);
    throw std::runtime_error{"cannot spawn " + args[0]};
  }
  pid_ = pid;
  try {
    wait_ready(ready_token);
  } catch (...) {
    stop(/*graceful=*/false);  // the destructor does not run for a half-built object
    ::close(stdout_fd_);
    throw;
  }
  ready_seconds_ = seconds_between(start, now_ns());
}

ready_process::~ready_process() {
  if (pid_ > 0) stop();
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
}

bool ready_process::stop(bool graceful) {
  if (pid_ <= 0) return false;
  ::kill(pid_, graceful ? SIGTERM : SIGKILL);
  int status = 0;
  bool clean = false;
  for (int waited_ms = 0;; waited_ms += 5) {
    const pid_t done = ::waitpid(pid_, &status, WNOHANG);
    if (done == pid_) {
      clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
      break;
    }
    if (done < 0 && errno != EINTR) break;
    if (waited_ms >= 20000) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
  }
  pid_ = -1;
  return clean;
}

void ready_process::wait_ready(std::string_view ready_token) {
  std::string text;
  const std::int64_t deadline = now_ns() + 30'000'000'000LL;
  while (text.find(ready_token) == std::string::npos || text.back() != '\n') {
    const auto left_ms = static_cast<int>((deadline - now_ns()) / 1'000'000);
    pollfd waiting{stdout_fd_, POLLIN, 0};
    if (left_ms <= 0 || ::poll(&waiting, 1, left_ms) <= 0) {
      throw std::runtime_error{"child did not report ready"};
    }
    char buffer[256];
    const ssize_t got = ::read(stdout_fd_, buffer, sizeof buffer);
    if (got <= 0) throw std::runtime_error{"child exited before ready"};
    text.append(buffer, static_cast<std::size_t>(got));
  }
  const std::size_t token = text.find(ready_token);
  const std::size_t line_start = text.rfind('\n', token);
  const std::size_t first = line_start == std::string::npos ? 0 : line_start + 1;
  ready_line_ = text.substr(first, text.find('\n', token) - first);
}

std::string self_executable() {
  char path[4096];
  const ssize_t length = ::readlink("/proc/self/exe", path, sizeof path - 1);
  if (length <= 0) throw std::runtime_error{"cannot resolve /proc/self/exe"};
  return std::string(path, static_cast<std::size_t>(length));
}

}  // namespace perfbench
