#pragma once

#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace tora::util {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `data`,
/// continuing from `seed` (pass the previous result to checksum a stream in
/// pieces). Used by the recovery journal to detect torn or corrupted
/// records; the protocol's per-line FNV hash stays separate (different
/// failure model: wire corruption vs. partial disk writes). Slicing-by-8:
/// eight table lookups per 8-byte word, a byte-wise loop for the tail.
std::uint32_t crc32(std::string_view data, std::uint32_t seed = 0) noexcept;

/// Converts between host order and little-endian (an involution).
template <std::unsigned_integral U>
constexpr U little_endian(U v) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    return v;
  } else {
    U out = 0;
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      out = static_cast<U>((out << 8) | (v & 0xFFu));
      v = static_cast<U>(v >> 8);
    }
    return out;
  }
}

/// Appends the little-endian bytes of `v` to `out` in one append.
template <std::unsigned_integral U>
void append_le(std::string& out, U v) {
  const U le = little_endian(v);
  char bytes[sizeof(U)];
  std::memcpy(bytes, &le, sizeof(U));
  out.append(bytes, sizeof(U));
}

/// Reads a little-endian U from the sizeof(U) bytes at `p` (any alignment).
template <std::unsigned_integral U>
U load_le(const char* p) noexcept {
  U v = 0;
  std::memcpy(&v, p, sizeof(U));
  return little_endian(v);
}

/// Little-endian binary encoder for the recovery snapshot/journal formats.
/// Explicit byte order keeps the files portable across hosts (a manager may
/// recover on a different node than the one that crashed).
class ByteWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { append_le(out_, v); }
  void u64(std::uint64_t v) { append_le(out_, v); }
  /// Doubles travel as their IEEE-754 bit pattern; the value round-trips
  /// exactly (bit-for-bit recovery depends on it).
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  /// Length-prefixed (u32) byte string.
  void str(std::string_view s);
  /// Capacity hint for a writer whose final size is known or guessable;
  /// changes no byte.
  void reserve(std::size_t n) { out_.reserve(n); }

  const std::string& bytes() const noexcept { return out_; }
  std::string take() noexcept { return std::move(out_); }
  std::size_t size() const noexcept { return out_.size(); }

 private:
  std::string out_;
};

/// Little-endian decoder matching ByteWriter. Every read throws
/// std::runtime_error on underflow, so a truncated snapshot surfaces as a
/// recoverable error instead of undefined behavior.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  std::string str();

  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool done() const noexcept { return pos_ == data_.size(); }
  std::size_t position() const noexcept { return pos_; }

 private:
  void need(std::size_t n) const;

  std::string_view data_;
  std::size_t pos_ = 0;
};

}  // namespace tora::util
