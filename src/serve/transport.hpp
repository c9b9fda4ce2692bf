// Transports that move protocol lines in and out of a SessionHost.
//
// Two transports share every byte of server logic: serve_stdio drives one
// session over an istream/ostream pair (CI pipes, quick local use), and
// UnixSocketServer accepts local clients on a filesystem socket, one
// session per connection with a dedicated reader thread. Responses go out
// through the session sink, which SessionHost already serializes in
// admission order, so a transport only moves bytes.
#pragma once

#include <istream>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "serve/host.hpp"

namespace dim::serve {

// Feeds `in` line-by-line into one session and writes responses to `out`
// (flushed per line). Returns when the input reaches EOF or the server
// begins shutting down; all submitted requests have been answered.
void serve_stdio(SessionHost& server, std::istream& in, std::ostream& out);

// SOCK_STREAM listener on a filesystem path. start() binds (replacing a
// stale socket file left by a dead daemon), run() accepts until the
// server shuts down, the destructor joins connection threads and unlinks
// the path.
class UnixSocketServer {
 public:
  UnixSocketServer(SessionHost& server, std::string path);
  ~UnixSocketServer();

  UnixSocketServer(const UnixSocketServer&) = delete;
  UnixSocketServer& operator=(const UnixSocketServer&) = delete;

  // False (with *error filled) when the path is unbindable.
  bool start(std::string* error);

  // Accept loop; returns once the server is shutting down and every
  // connection thread has finished.
  void run();

 private:
  struct Connection {
    int fd = -1;
    std::thread thread;
  };

  void handle_connection(int fd);
  // Unblocks readers stuck on idle clients (SHUT_RD), joins, closes.
  void join_connections();

  SessionHost& server_;
  std::string path_;
  int listen_fd_ = -1;
  std::mutex connections_mutex_;
  std::vector<Connection> connections_;
};

// Blocking line-oriented client for tests and the load bench.
class UnixSocketClient {
 public:
  UnixSocketClient() = default;
  ~UnixSocketClient();

  UnixSocketClient(const UnixSocketClient&) = delete;
  UnixSocketClient& operator=(const UnixSocketClient&) = delete;

  bool connect(const std::string& path, std::string* error);
  // Appends the trailing '\n' if missing; false on a broken connection.
  bool send_line(const std::string& line);
  // One response line without its '\n'; false on EOF/error.
  bool recv_line(std::string& out);
  void close();

 private:
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace dim::serve
