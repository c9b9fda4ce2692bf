// bench_serve_load: the byte-determinism and warm-store gates of the
// dimsim-serve daemon. Serve latency is measured by perfbench's serve_open
// workload, not here.
//
// Replays a fixed, deterministic request mix (sweeps, plain runs, budgeted
// runs) through a serve::Server twice — a cold pass that fills the
// resident result store and a warm pass that must be served from it. The
// warm pass asserts the store counters moved by zero stores and zero
// misses: repeated requests re-simulate nothing.
//
// Modes:
//   (default)        in-process server, workers from --workers
//   --procs LIST     multi-process mode: for each N in LIST (e.g. 1,2,4)
//                    run the stream through an in-process serve::Supervisor
//                    with N forked workers and a fresh store, and compare
//                    every response byte-for-byte against a single-process
//                    reference
//   --connect PATH   drive an already-running dimsim-serve over its socket
//   --check FILE     also dump every response line of both passes (stats
//                    excluded) to FILE; diffing two dumps pins
//                    byte-determinism across worker counts and daemon
//                    restarts (CI serve job)
//
// Other flags: --requests N (default 30), --workers N, --store DIR
// (default: a store under /tmp so the warm pass has something to hit).
// Exits nonzero when a gate fails.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "serve/json.hpp"
#include "serve/server.hpp"
#include "serve/supervisor.hpp"
#include "serve/transport.hpp"

namespace {

struct Options {
  size_t requests = 30;
  unsigned workers = 0;
  std::string store_dir;
  std::string check_path;
  std::string connect_path;
  std::vector<int> procs;  // multi-process mode when non-empty
};

// Deterministic mix: half sweeps over two fast workloads, the rest plain
// and budgeted runs. Ids are stable ("q<i>") so two replays of the stream
// produce byte-identical response dumps.
std::vector<std::string> build_stream(size_t n) {
  std::vector<std::string> stream;
  stream.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const char* workload = (i % 2 == 0) ? "crc32" : "bitcount";
    const std::string id = "\"id\": \"q" + std::to_string(i) + "\"";
    std::string line;
    switch (i % 10) {
      case 0: case 1: case 2: case 3: case 4: {
        const bool both_shapes = i % 4 < 2;
        line = "{" + id + ", \"kind\": \"sweep\", \"workload\": \"" + workload +
               "\", \"shapes\": [\"config1\"" +
               (both_shapes ? std::string(", \"config2\"") : std::string()) +
               "], \"slots_axis\": [16, 64]}";
        break;
      }
      case 5: case 6: case 7:
        line = "{" + id + ", \"kind\": \"run\", \"workload\": \"" + workload + "\"}";
        break;
      case 8:
        line = "{" + id + ", \"kind\": \"run\", \"workload\": \"" + workload +
               "\", \"budget\": 100000}";
        break;
      default:
        line = "{" + id + ", \"kind\": \"run\", \"workload\": \"" + workload +
               "\", \"budget\": 200000}";
        break;
    }
    stream.push_back(std::move(line));
  }
  return stream;
}

// Response lines of one pass, in admission order.
using Pass = std::vector<std::string>;

// All requests are submitted up front (the pipelined-client shape that
// actually exercises batching).
Pass run_pass_inprocess(dim::serve::SessionHost& server,
                        const std::vector<std::string>& stream) {
  Pass pass;
  std::mutex mutex;
  auto session = server.open_session([&](const std::string& line) {
    std::lock_guard<std::mutex> lock(mutex);
    pass.push_back(line);
  });
  for (const std::string& line : stream) session->submit(line);
  session->drain();
  return pass;
}

Pass run_pass_socket(dim::serve::UnixSocketClient& client,
                     const std::vector<std::string>& stream) {
  Pass pass;
  for (const std::string& line : stream) {
    if (!client.send_line(line)) {
      std::fprintf(stderr, "send failed\n");
      std::exit(1);
    }
  }
  std::string line;
  for (size_t i = 0; i < stream.size(); ++i) {
    if (!client.recv_line(line)) {
      std::fprintf(stderr, "connection closed after %zu responses\n", i);
      std::exit(1);
    }
    pass.push_back(line + "\n");
  }
  return pass;
}

// Store counters via the protocol (works both in-process and over the
// socket): send a stats request and pull the store object out of the
// response.
struct StoreCounters {
  bool present = false;
  uint64_t misses = 0;
  uint64_t stores = 0;
};

StoreCounters parse_store_counters(const std::string& response) {
  StoreCounters c;
  const dim::serve::JsonValue doc = dim::serve::parse_json(response);
  if (const dim::serve::JsonValue* store = doc.get("store")) {
    c.present = true;
    if (const auto* v = store->get("misses")) c.misses = v->as_u64();
    if (const auto* v = store->get("stores")) c.stores = v->as_u64();
  }
  return c;
}

StoreCounters query_stats_inprocess(dim::serve::SessionHost& server) {
  return parse_store_counters(
      run_pass_inprocess(server, {"{\"id\": \"stats\", \"kind\": \"stats\"}"}).at(0));
}

StoreCounters query_stats_socket(dim::serve::UnixSocketClient& client) {
  return parse_store_counters(
      run_pass_socket(client, {"{\"id\": \"stats\", \"kind\": \"stats\"}"}).at(0));
}

void dump_check(const std::string& path, const std::vector<Pass>& passes) {
  std::ofstream out(path);
  for (const Pass& pass : passes) {
    for (const std::string& line : pass) {
      if (line.find("\"kind\": \"stats\"") != std::string::npos) continue;
      out << line;
    }
  }
}

// One pass per worker count, each against a fresh store, plus a
// single-process reference pass. Every topology must return byte-identical
// responses — that is the whole point of the exercise.
int run_procs_mode(const Options& opt) {
  const std::vector<std::string> stream = build_stream(opt.requests);
  const std::string store_base = opt.store_dir.empty()
                                     ? std::string("/tmp/dimsim-bench-serve-procs")
                                     : opt.store_dir;

  const std::string ref_store = store_base + "-ref";
  std::filesystem::remove_all(ref_store);
  Pass reference;
  {
    dim::serve::ServerOptions server_opt;
    server_opt.worker_threads = opt.workers;
    server_opt.store_dir = ref_store;
    dim::serve::Server server(server_opt);
    reference = run_pass_inprocess(server, stream);
    server.shutdown();
  }

  std::vector<Pass> passes;
  bool identical = true;
  for (const int procs : opt.procs) {
    const std::string store = store_base + "-p" + std::to_string(procs);
    std::filesystem::remove_all(store);
    dim::serve::SupervisorOptions sup;
    sup.workers = procs;
    sup.store_dir = store;
    sup.engine_threads = opt.workers;
    dim::serve::Supervisor supervisor(sup);
    passes.push_back(run_pass_inprocess(supervisor, stream));
    supervisor.shutdown();
    if (passes.back() != reference) {
      identical = false;
      std::fprintf(stderr, "RESPONSE BYTES DIVERGED at procs=%d\n", procs);
    }
  }

  std::printf("serve load (multi-process): %zu requests\n", stream.size());
  std::printf("  response bytes identical across topologies: %s\n",
              identical ? "yes" : "NO");
  if (!opt.check_path.empty()) dump_check(opt.check_path, passes);
  return identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--requests") opt.requests = std::strtoul(value(), nullptr, 10);
    else if (arg == "--workers") opt.workers = static_cast<unsigned>(std::strtoul(value(), nullptr, 10));
    else if (arg == "--store") opt.store_dir = value();
    else if (arg == "--check") opt.check_path = value();
    else if (arg == "--connect") opt.connect_path = value();
    else if (arg == "--procs") {
      std::string list = value();
      size_t pos = 0;
      while (pos < list.size()) {
        const size_t comma = list.find(',', pos);
        const std::string tok = list.substr(pos, comma == std::string::npos
                                                     ? std::string::npos
                                                     : comma - pos);
        const long n = std::strtol(tok.c_str(), nullptr, 10);
        if (n < 1 || n > 64) {
          std::fprintf(stderr, "--procs entries must be in [1, 64]\n");
          return 2;
        }
        opt.procs.push_back(static_cast<int>(n));
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    }
    else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    }
  }
  if (!opt.procs.empty()) return run_procs_mode(opt);

  const std::vector<std::string> stream = build_stream(opt.requests);
  Pass cold;
  Pass warm;
  StoreCounters before_warm;
  StoreCounters after_warm;

  if (!opt.connect_path.empty()) {
    dim::serve::UnixSocketClient client;
    std::string error;
    if (!client.connect(opt.connect_path, &error)) {
      std::fprintf(stderr, "bench_serve_load: %s\n", error.c_str());
      return 1;
    }
    cold = run_pass_socket(client, stream);
    before_warm = query_stats_socket(client);
    warm = run_pass_socket(client, stream);
    after_warm = query_stats_socket(client);
  } else {
    if (opt.store_dir.empty()) {
      opt.store_dir = "/tmp/dimsim-bench-serve-store";
      std::filesystem::remove_all(opt.store_dir);
    }
    dim::serve::ServerOptions server_opt;
    server_opt.worker_threads = opt.workers;
    server_opt.store_dir = opt.store_dir;
    dim::serve::Server server(server_opt);
    cold = run_pass_inprocess(server, stream);
    before_warm = query_stats_inprocess(server);
    warm = run_pass_inprocess(server, stream);
    after_warm = query_stats_inprocess(server);
    server.shutdown();
  }

  // The warm pass must be served from the resident store: no cell was
  // recomputed (zero misses) and nothing new was written (zero stores).
  if (before_warm.present &&
      (after_warm.misses != before_warm.misses ||
       after_warm.stores != before_warm.stores)) {
    std::fprintf(stderr,
                 "WARM PASS RE-SIMULATED: misses %llu -> %llu, stores %llu -> %llu\n",
                 static_cast<unsigned long long>(before_warm.misses),
                 static_cast<unsigned long long>(after_warm.misses),
                 static_cast<unsigned long long>(before_warm.stores),
                 static_cast<unsigned long long>(after_warm.stores));
    return 1;
  }

  if (!opt.check_path.empty()) dump_check(opt.check_path, {cold, warm});

  std::printf("serve load: %zu requests, workers=%u: %s\n", stream.size(), opt.workers,
              before_warm.present ? "warm pass re-simulated nothing"
                                  : "no result store, warm pass unchecked");
  return 0;
}
