#include "serve/ipc.hpp"

#include <sys/socket.h>

#include <cerrno>
#include <cstring>

namespace dim::serve {
namespace {

bool send_all(int fd, const char* data, size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

// Reads exactly `size` bytes; false on error or on EOF, even mid-buffer.
bool recv_exact(int fd, char* data, size_t size) {
  size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd, data + got, size - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    got += static_cast<size_t>(n);
  }
  return true;
}

std::string encode(char type, uint64_t job_id, const std::string& body) {
  std::string payload;
  payload.reserve(body.size() + 24);
  payload.push_back(type);
  payload.push_back('\t');
  payload += std::to_string(job_id);
  payload.push_back('\t');
  payload += body;
  return payload;
}

bool decode(char type, const std::string& payload, uint64_t& job_id,
            std::string& body) {
  if (payload.size() < 3 || payload[0] != type || payload[1] != '\t') {
    return false;
  }
  const size_t id_end = payload.find('\t', 2);
  if (id_end == std::string::npos || id_end == 2) return false;
  uint64_t id = 0;
  for (size_t i = 2; i < id_end; ++i) {
    const char c = payload[i];
    if (c < '0' || c > '9') return false;
    id = id * 10 + static_cast<uint64_t>(c - '0');
  }
  job_id = id;
  body.assign(payload, id_end + 1, std::string::npos);
  return true;
}

}  // namespace

bool send_frame(int fd, const std::string& payload) {
  if (payload.size() > kMaxFrameBytes) return false;
  const uint32_t size = static_cast<uint32_t>(payload.size());
  char header[4] = {static_cast<char>(size & 0xff),
                    static_cast<char>((size >> 8) & 0xff),
                    static_cast<char>((size >> 16) & 0xff),
                    static_cast<char>((size >> 24) & 0xff)};
  if (!send_all(fd, header, sizeof header)) return false;
  return send_all(fd, payload.data(), payload.size());
}

bool recv_frame(int fd, std::string& out) {
  char header[4];
  if (!recv_exact(fd, header, sizeof header)) return false;
  const uint32_t size = static_cast<uint32_t>(static_cast<unsigned char>(header[0])) |
                        (static_cast<uint32_t>(static_cast<unsigned char>(header[1])) << 8) |
                        (static_cast<uint32_t>(static_cast<unsigned char>(header[2])) << 16) |
                        (static_cast<uint32_t>(static_cast<unsigned char>(header[3])) << 24);
  if (size > kMaxFrameBytes) return false;
  out.resize(size);
  return size == 0 || recv_exact(fd, out.data(), size);
}

std::string encode_job_frame(uint64_t job_id, const std::string& line) {
  return encode('J', job_id, line);
}

std::string encode_response_frame(uint64_t job_id, const std::string& response) {
  return encode('R', job_id, response);
}

bool decode_job_frame(const std::string& payload, uint64_t& job_id,
                      std::string& line) {
  return decode('J', payload, job_id, line);
}

bool decode_response_frame(const std::string& payload, uint64_t& job_id,
                           std::string& response) {
  return decode('R', payload, job_id, response);
}

}  // namespace dim::serve
