// Bounds-checked binary writer/reader for persistence payloads, plus the
// container framing (header + CRC) and atomic file helpers.
//
// Every multi-byte integer is little-endian with a fixed width, written
// byte-by-byte — the encoded stream is identical on any host. The Reader
// throws SnapshotError(kMalformed) on any out-of-bounds access, so a
// fuzzed payload can never index past the buffer; element counts must be
// validated against the remaining byte budget (`expect_count`) before any
// allocation, so a corrupted count cannot trigger a huge allocation.
#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "snap/format.hpp"

namespace dim::snap {

// Writer and Reader share their field-method names, so one function
// template per persisted struct drives both directions:
//
//   template <class IO> void point_fields(IO& io, Field<IO, Point>& p) {
//     io.u32(p.x);
//     if constexpr (IO::kReading) { if (p.x > 9) io.fail("x out of range"); }
//   }
//
// Checks that only make sense on untrusted input go in a kReading block.
class Writer {
 public:
  static constexpr bool kReading = false;

  void u8(uint8_t v) { bytes_.push_back(v); }
  void u16(uint16_t v) {
    u8(static_cast<uint8_t>(v));
    u8(static_cast<uint8_t>(v >> 8));
  }
  void u32(uint32_t v) {
    u16(static_cast<uint16_t>(v));
    u16(static_cast<uint16_t>(v >> 16));
  }
  void u64(uint64_t v) {
    u32(static_cast<uint32_t>(v));
    u32(static_cast<uint32_t>(v >> 32));
  }
  void i32(int32_t v) { u32(static_cast<uint32_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(const std::string& s) {
    u64(s.size());
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }
  void raw(const void* data, size_t size) {
    const auto* p = static_cast<const uint8_t*>(data);
    bytes_.insert(bytes_.end(), p, p + size);
  }
  // A one-byte enum; the range is the Reader's to check.
  template <class E>
  void enum8(E v, E /*first*/, E /*last*/) {
    u8(static_cast<uint8_t>(v));
  }
  // An element count (u64) ahead of the elements themselves.
  template <class T>
  void count(const std::vector<T>& v, size_t /*min_elem_bytes*/) {
    u64(v.size());
  }

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  std::vector<uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<uint8_t> bytes_;
};

class Reader {
 public:
  static constexpr bool kReading = true;

  Reader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit Reader(const std::vector<uint8_t>& bytes)
      : Reader(bytes.data(), bytes.size()) {}

  uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  uint16_t u16() {
    const uint16_t lo = u8();
    return static_cast<uint16_t>(lo | (static_cast<uint16_t>(u8()) << 8));
  }
  uint32_t u32() {
    const uint32_t lo = u16();
    return lo | (static_cast<uint32_t>(u16()) << 16);
  }
  uint64_t u64() {
    const uint64_t lo = u32();
    return lo | (static_cast<uint64_t>(u32()) << 32);
  }
  int32_t i32() { return static_cast<int32_t>(u32()); }
  bool boolean() {
    const uint8_t v = u8();
    if (v > 1) fail("boolean field is " + std::to_string(v));
    return v != 0;
  }
  std::string str() {
    const uint64_t n = u64();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }
  void raw(void* out, size_t size) {
    need(size);
    std::copy(data_ + pos_, data_ + pos_ + size, static_cast<uint8_t*>(out));
    pos_ += size;
  }

  // Reference forms: the field-function side of the shared interface.
  void u8(uint8_t& v) { v = u8(); }
  void u16(uint16_t& v) { v = u16(); }
  void u32(uint32_t& v) { v = u32(); }
  void u64(uint64_t& v) { v = u64(); }
  void i32(int32_t& v) { v = i32(); }
  void boolean(bool& v) { v = boolean(); }
  void str(std::string& v) { v = str(); }
  template <class E>
  void enum8(E& v, E first, E last) {
    const uint8_t raw = u8();
    if (raw < static_cast<uint8_t>(first) || raw > static_cast<uint8_t>(last)) {
      fail("enum value " + std::to_string(raw) + " out of range");
    }
    v = static_cast<E>(raw);
  }
  // Reads an element count and sizes `v` to it, after checking that many
  // elements of at least `min_elem_bytes` each still fit.
  template <class T>
  void count(std::vector<T>& v, size_t min_elem_bytes) {
    const uint64_t n = u64();
    expect_count(n, min_elem_bytes);
    v.resize(n);
  }

  // Validates a deserialized element count against the bytes actually left:
  // `count` elements of at least `min_elem_bytes` each must fit. Call
  // before reserving/resizing any container sized by untrusted input.
  void expect_count(uint64_t count, size_t min_elem_bytes) const {
    if (min_elem_bytes == 0 || count > remaining() / min_elem_bytes) {
      fail("element count " + std::to_string(count) +
           " exceeds remaining payload");
    }
  }

  size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }

  [[noreturn]] void fail(const std::string& what) const {
    throw SnapshotError(SnapErrc::kMalformed,
                        what + " (offset " + std::to_string(pos_) + ")");
  }

 private:
  void need(uint64_t n) {
    if (n > remaining()) fail("read past end of payload");
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

// `T` as a field function sees it: read-only when writing, filled when
// reading.
template <class IO, class T>
using Field = std::conditional_t<IO::kReading, T, const T>;

// Writes header (magic, version, kind, payload size, payload CRC-32) then
// the payload.
void write_container(std::ostream& out, ArtifactKind kind,
                     const std::vector<uint8_t>& payload);

// Reads and validates one container. Throws SnapshotError with the precise
// failure class: kBadMagic / kBadVersion / kTruncated / kCrcMismatch, or
// kMismatch when the artifact kind differs from `expected_kind` (pass
// nullptr to accept any kind and receive the one found).
std::vector<uint8_t> read_container(std::istream& in, ArtifactKind expected_kind);
std::vector<uint8_t> read_container(std::istream& in, ArtifactKind* kind_out);

// Writes `kind` + `payload` to `path` atomically: the bytes go to a
// temporary file in the same directory which is then renamed over the
// target, so a concurrent reader sees either the old artifact or the new
// one, never a torn write. Throws SnapshotError(kIo) on failure (a full
// disk included); the target then keeps its old bytes and no temporary
// file is left behind.
void write_artifact_file(const std::string& path, ArtifactKind kind,
                         const std::vector<uint8_t>& payload);

// Opens and validates an artifact file. Throws SnapshotError (kIo if the
// file cannot be opened, otherwise the container failure class).
std::vector<uint8_t> read_artifact_file(const std::string& path,
                                        ArtifactKind expected_kind);
std::vector<uint8_t> read_artifact_file(const std::string& path,
                                        ArtifactKind* kind_out);

}  // namespace dim::snap
