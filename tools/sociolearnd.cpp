// sociolearnd — the long-lived experiment service.
//
//   sociolearnd --socket /tmp/sgl.sock --store /var/lib/sociolearn
//       listens on a Unix-domain stream socket.  Each connection is one
//       session: newline-delimited JSON requests in (submit / status /
//       cancel), JSONL events out (job_accepted, cache_hit, point_done,
//       job_done, ...).  See DESIGN.md "Service mode" for the protocol.
//   sociolearnd --once --store /var/lib/sociolearn < requests.jsonl
//       no socket: requests from stdin, events to stdout, exit when every
//       submitted job has finished.  The same protocol, usable from CI
//       and shell pipelines without managing a daemon.
//
// Jobs are decomposed into (point × shard) work items run by helper
// threads that each job starts and joins; every point result is keyed by its content digest and
// persisted to the store before its event is sent, so points already in
// the store are served as cache_hit events without recomputation, and a
// killed daemon resumes a resubmitted sweep from exactly the points it
// had persisted.
//
// Robustness knobs (DESIGN.md "Failure model and recovery guarantees"):
// --max-queued bounds the waiting queue (submits past it get an explicit
// job_rejected backpressure reply); --job-timeout caps any job's wall
// clock; SIGTERM/SIGINT trigger a graceful drain — stop accepting, cancel
// every job at its next work item (completed points stay persisted), send
// the pending job_done events, then exit 0.  SGL_FAILPOINTS= scripts
// deterministic faults into the store/socket/queue edges (support/
// failpoint.h) for torture testing; the site `daemon.point_computed`
// fires right after a computed point's event is written, and the daemon
// then calls _Exit — so SGL_FAILPOINTS=daemon.point_computed=N crashes it
// after the Nth computed point, at a deterministic place of the protocol,
// and the kill-and-resume contract is testable without signal races.

#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>

#include "service/job_queue.h"
#include "service/result_store.h"
#include "service/service.h"
#include "service/socket.h"
#include "support/failpoint.h"
#include "support/flags.h"

namespace {

using namespace sgl;

/// Set by the SIGTERM/SIGINT handler; the accept loop polls it.
std::atomic<bool> g_shutdown{false};

void request_shutdown(int) noexcept { g_shutdown.store(true, std::memory_order_release); }

struct daemon_config {
  service::job_queue* queue = nullptr;
  double job_timeout_seconds = 0.0;  // 0 = none; per-job default

  // Live connection fds, so a drain can unblock their readers: shutdown()
  // forces each blocked read() to return 0 (EOF) and the session winds
  // down through its normal end-of-stream path.
  std::mutex connections_mutex;
  std::vector<int> connection_fds;
};

service::session_options make_session_options(
    daemon_config& daemon, std::function<bool(std::string_view)> write_line) {
  service::session_options options;
  options.write_line = std::move(write_line);
  options.default_timeout_seconds = daemon.job_timeout_seconds;
  options.on_point_computed = [] {
    if (failpoints::check("daemon.point_computed")) {
      // The crash under test: die without flushing, unwinding, or
      // persisting anything further.  Everything already acknowledged is
      // in the store (persist-then-emit), nothing else may be.
      std::_Exit(0);
    }
  };
  return options;
}

void serve_connection(service::unix_fd fd, daemon_config& daemon) {
  {
    const std::lock_guard<std::mutex> lock{daemon.connections_mutex};
    daemon.connection_fds.push_back(fd.get());
  }
  service::session session{
      *daemon.queue, make_session_options(daemon, [&fd](std::string_view line) {
        std::string out{line};
        out += '\n';
        if (service::write_all(fd.get(), out)) return true;
        // The reply path is broken, so the conversation is over — but the
        // reader below may be blocked in read() waiting for a request that
        // will never matter.  Shut the socket down so it sees EOF and the
        // session can wind down (cancelling this connection's jobs)
        // instead of holding the connection until the peer times out.
        ::shutdown(fd.get(), SHUT_RDWR);
        return false;
      })};
  try {
    service::line_reader reader;
    while (std::optional<std::string> line = reader.next_line(fd.get())) {
      session.handle_line(*line);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sociolearnd: connection error: %s\n", e.what());
  }
  {
    const std::lock_guard<std::mutex> lock{daemon.connections_mutex};
    std::erase(daemon.connection_fds, fd.get());
  }
  // The session destructor waits for this session's jobs (or cancels
  // them when the peer is already gone) before the socket closes.
}

int run_once(daemon_config& daemon) {
  service::session session{
      *daemon.queue, make_session_options(daemon, [](std::string_view line) {
        std::cout << line << '\n' << std::flush;
        return static_cast<bool>(std::cout);
      })};
  std::string line;
  while (std::getline(std::cin, line)) session.handle_line(line);
  session.finish();
  return 0;
}

int run_daemon(daemon_config& daemon, const std::string& socket_path) {
  service::unix_fd listener = service::unix_listen(socket_path);

  // Graceful drain on SIGTERM/SIGINT; SIGPIPE is already neutralized by
  // MSG_NOSIGNAL, but belt and suspenders for platforms without it.
  std::signal(SIGTERM, request_shutdown);
  std::signal(SIGINT, request_shutdown);
  std::signal(SIGPIPE, SIG_IGN);

  // The ready line is the startup handshake: scripts wait for it instead
  // of polling the socket path.
  std::printf("{\"event\":\"ready\",\"socket\":\"%s\"}\n", socket_path.c_str());
  std::fflush(stdout);

  std::vector<std::thread> connections;
  while (!g_shutdown.load(std::memory_order_acquire)) {
    // Poll-based accept so the signal flag is observed within 200 ms even
    // when the signal lands on some other thread mid-read.
    service::unix_fd fd = service::unix_accept_interruptible(listener, 200);
    if (!fd.valid()) continue;  // timeout / EINTR; re-check the flag
    connections.emplace_back(
        [&daemon](service::unix_fd conn) { serve_connection(std::move(conn), daemon); },
        std::move(fd));
  }

  // Drain: no new connections (listener closes below), every job stops at
  // its next work item, completed points are already persisted
  // (persist-then-emit), and the pending job_done events go out before
  // the sockets close.
  std::fprintf(stderr, "sociolearnd: draining (%zu jobs cancelled)\n",
               daemon.queue->cancel_all());
  daemon.queue->drain();
  {
    // Readers blocked in read() never see the queue settle; shutdown()
    // hands each one EOF so its session destructor can run.
    const std::lock_guard<std::mutex> lock{daemon.connections_mutex};
    for (const int fd : daemon.connection_fds) ::shutdown(fd, SHUT_RD);
  }
  for (std::thread& connection : connections) connection.join();
  std::fprintf(stderr, "sociolearnd: drained, exiting\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  flag_set flags{"sociolearnd",
                 "the sociolearn experiment service: a job queue with a "
                 "content-addressed result cache over a Unix-domain socket "
                 "(or stdin/stdout with --once)"};
  flags.add_string("socket", "", "Unix-domain socket path to listen on");
  flags.add_string("store", "", "result store directory (created if missing)");
  flags.add_bool("once", false,
                 "serve one session from stdin/stdout and exit when every "
                 "submitted job has finished (no socket)");
  flags.add_int64("threads", 0,
                  "worker threads for replication shards (0 = all cores); "
                  "results are bit-identical for any value");
  flags.add_int64("max-queued", 0,
                  "bound on jobs waiting to run; submits past it get an "
                  "explicit job_rejected reply (0 = unbounded)");
  flags.add_int64("job-timeout", 0,
                  "default per-job wall-clock budget in seconds; an expired "
                  "job fails but keeps every persisted point (0 = none; a "
                  "request's own 'timeout' field overrides)");
  if (flags.parse(argc, argv) != parse_status::ok) return 2;

  const std::string& store_path = flags.get_string("store");
  const std::string& socket_path = flags.get_string("socket");
  const bool once = flags.get_bool("once");
  if (store_path.empty()) {
    std::fprintf(stderr, "sociolearnd: --store is required\n");
    return 2;
  }
  if (once != socket_path.empty()) {  // exactly one of --once / --socket
    std::fprintf(stderr, "sociolearnd: pass either --socket PATH or --once\n");
    return 2;
  }
  if (flags.get_int64("threads") < 0 ||
      flags.get_int64("threads") > std::numeric_limits<int>::max() ||
      flags.get_int64("max-queued") < 0 || flags.get_int64("job-timeout") < 0) {
    std::fprintf(stderr,
                 "sociolearnd: --threads must be in [0, %d]; --max-queued and "
                 "--job-timeout must be >= 0\n",
                 std::numeric_limits<int>::max());
    return 2;
  }

  try {
    failpoints::init_from_env();  // SGL_FAILPOINTS= fault schedules
    for (const std::string& site : failpoints::configured_sites()) {
      std::fprintf(stderr, "sociolearnd: fail point armed: %s\n", site.c_str());
    }
    service::result_store store{store_path};
    if (store.tmp_collected() > 0) {
      std::fprintf(stderr, "sociolearnd: collected %llu stale tmp file(s) from %s\n",
                   static_cast<unsigned long long>(store.tmp_collected()),
                   store_path.c_str());
    }
    service::job_queue queue{store, static_cast<unsigned>(flags.get_int64("threads")),
                             static_cast<std::size_t>(flags.get_int64("max-queued"))};
    daemon_config daemon;
    daemon.queue = &queue;
    daemon.job_timeout_seconds = static_cast<double>(flags.get_int64("job-timeout"));
    return once ? run_once(daemon) : run_daemon(daemon, socket_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sociolearnd: %s\n", e.what());
    return 1;
  }
}
