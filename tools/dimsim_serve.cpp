// dimsim-serve: the long-lived batching simulation daemon (docs/serving.md).
//
// What repeated requests amortize stays resident in one process:
// assembled programs and memoized sweep cells (snap::ResultStore under
// --store). Clients speak one JSON object per line — over a Unix
// socket (--socket) or stdin/stdout (--stdio) — and get one response line
// per request in per-session admission order. Compatible sweep work
// drained in one dispatcher pass merges into a single SweepEngine grid;
// budgeted runs execute in run_until checkpoint chunks so `cancel`
// requests and shutdown take effect promptly; a full admission queue
// answers `overloaded` instead of buffering without bound.
//
// With --procs N the daemon instead runs as a supervised pre-forked pool
// of N worker processes (serve::Supervisor): same protocol, front end and
// transports, plus crash-tolerant execution — a SIGKILLed worker is
// respawned and its in-flight request re-runs (from a migration snapshot
// when --store is set) with byte-identical responses.
//
// Usage:
//   dimsim-serve (--socket PATH | --stdio) [--workers N] [--procs N]
//                [--store DIR] [--queue N] [--batch N] [--checkpoint N]
//
// Exit codes: 0 = clean shutdown, 2 = usage error, 3 = cannot listen.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>

#include "serve/server.hpp"
#include "serve/supervisor.hpp"
#include "serve/transport.hpp"

namespace {

constexpr const char* kUsage =
    "usage: dimsim-serve (--socket PATH | --stdio) [--workers N]\n"
    "                    [--procs N] [--store DIR] [--queue N] [--batch N]\n"
    "                    [--checkpoint N]\n";

bool parse_count(const char* text, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  bool stdio = false;
  uint64_t procs = 0;  // 0 = single-process Server; N = Supervisor pool
  dim::serve::ServerOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n%s", flag, kUsage);
        std::exit(2);
      }
      return argv[++i];
    };
    uint64_t n = 0;
    if (arg == "--socket") {
      socket_path = next("--socket");
    } else if (arg == "--stdio") {
      stdio = true;
    } else if (arg == "--store") {
      options.store_dir = next("--store");
    } else if (arg == "--workers") {
      if (!parse_count(next("--workers"), &n)) return 2;
      options.worker_threads = static_cast<unsigned>(n);
    } else if (arg == "--queue") {
      if (!parse_count(next("--queue"), &n) || n == 0) return 2;
      options.queue_capacity = static_cast<size_t>(n);
    } else if (arg == "--batch") {
      if (!parse_count(next("--batch"), &n) || n == 0) return 2;
      options.batch_max = static_cast<size_t>(n);
    } else if (arg == "--procs") {
      if (!parse_count(next("--procs"), &n) || n == 0 || n > 64) return 2;
      procs = n;
    } else if (arg == "--checkpoint") {
      if (!parse_count(next("--checkpoint"), &n) || n == 0) return 2;
      options.checkpoint_interval = n;
    } else {
      std::fprintf(stderr, "unknown flag %s\n%s", arg.c_str(), kUsage);
      return 2;
    }
  }
  const bool have_socket = !socket_path.empty();
  if (stdio == have_socket) {  // exactly one transport
    std::fputs(kUsage, stderr);
    return 2;
  }

  // Build whichever topology was asked for behind the one SessionHost
  // surface; transports don't know the difference.
  std::unique_ptr<dim::serve::SessionHost> host;
  if (procs > 0) {
    dim::serve::SupervisorOptions sup;
    sup.workers = static_cast<int>(procs);
    sup.queue_capacity = options.queue_capacity;
    sup.store_dir = options.store_dir;
    sup.checkpoint_interval = options.checkpoint_interval;
    sup.engine_threads = options.worker_threads;
    host = std::make_unique<dim::serve::Supervisor>(sup);
  } else {
    host = std::make_unique<dim::serve::Server>(options);
  }

  if (stdio) {
    dim::serve::serve_stdio(*host, std::cin, std::cout);
    host->shutdown();
    return 0;
  }

  dim::serve::UnixSocketServer listener(*host, socket_path);
  std::string error;
  if (!listener.start(&error)) {
    std::fprintf(stderr, "dimsim-serve: %s\n", error.c_str());
    return 3;
  }
  std::fprintf(stderr, "dimsim-serve: listening on %s\n", socket_path.c_str());
  listener.run();  // returns once a shutdown request lands
  host->shutdown();
  return 0;
}
