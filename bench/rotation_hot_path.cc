// Snapshot-rotation byte path perf smoke: what one rotation of a 2 MiB
// snapshot body costs in CRC-32, fixed-width encoding and frame building,
// against replicas of the byte-at-a-time code those paths used before.
//
// The legacy replicas (see git history of util/bytes.cpp,
// core/recovery/snapshot.cpp and core/replication/replication.cpp) are a
// one-table byte-wise CRC-32, a ByteWriter that pushes back one byte at a
// time into a string grown from empty, a seal_snapshot that builds its
// version and crc through extra writers, and an encode_rotate that copies
// the body into a writer and copies it again while sealing. Every series is
// gated on identical bytes: same CRC values, same encoded body, same sealed
// snapshot, same Rotate frame; the binary exits 1 otherwise.
//
// The last series is a full RecoveryLog::rotate on MemStorage with a sync
// JournalShipper feeding a StandbyReplica in process: the primary's seal,
// the Rotate frame's seal, the standby's decode and the standby's own seal,
// i.e. four CRC passes over the body. Its gate: both disks byte-identical
// and the committed snapshot equal to the legacy replica's seal.
//
// Emits BENCH_rotation.json (CI uploads it as the perf-smoke artifact) and,
// when given a committed baseline, enforces a 3x regression guard on the
// full-rotation microseconds.
//
// Usage: rotation_hot_path [out.json] [baseline.json]

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/recovery/recovery_log.hpp"
#include "core/recovery/snapshot.hpp"
#include "core/recovery/storage.hpp"
#include "core/replication/replication.hpp"
#include "util/bytes.hpp"

namespace {

using tora::core::recovery::MemStorage;
using tora::core::recovery::RecoveryLog;
using tora::core::replication::decode_frame;
using tora::core::replication::encode_rotate;
using tora::core::replication::JournalShipper;
using tora::core::replication::ReplicationFrame;
using tora::core::replication::StandbyReplica;

constexpr std::size_t kBodyBytes = 2u << 20;  // 2 MiB
constexpr std::size_t kWords = kBodyBytes / 8;

namespace legacy {

constexpr std::uint32_t table_entry(std::uint32_t i) {
  for (int k = 0; k < 8; ++k) i = (i & 1u) ? 0xEDB88320u ^ (i >> 1) : i >> 1;
  return i;
}

std::uint32_t crc32(std::string_view data, std::uint32_t seed = 0) {
  static const auto table = [] {
    std::vector<std::uint32_t> t(256);
    for (std::uint32_t i = 0; i < 256; ++i) t[i] = table_entry(i);
    return t;
  }();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (unsigned char byte : data) c = table[(c ^ byte) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

struct Writer {
  std::string out;
  void u8(std::uint8_t v) { out.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
  }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out.append(s.data(), s.size());
  }
};

std::uint32_t read_u32(std::string_view b, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(b[at + i]))
         << (8 * i);
  }
  return v;
}

std::string seal_snapshot(std::string_view body) {
  std::string out;
  out.reserve(8 + 4 + body.size() + 4);
  out += "TORASNAP";
  Writer w;
  w.u32(1);
  out += w.out;
  out += body;
  Writer crc;
  crc.u32(crc32(out));
  out += crc.out;
  return out;
}

std::string encode_rotate(std::uint64_t epoch, std::string_view body,
                          std::uint64_t tick) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(ReplicationFrame::Op::Rotate));
  w.u64(epoch);
  w.u64(tick);
  w.str(body);
  const std::string fields = w.out;  // seal(std::string) took a copy
  const std::uint32_t crc = crc32(fields);
  std::string out;
  out.reserve(1 + fields.size() + 4);
  out.push_back('R');
  out += fields;
  Writer tail;
  tail.u32(crc);
  out += tail.out;
  return out;
}

/// Decodes a Rotate frame the byte-wise way; the body or nullopt.
std::optional<std::string> decode_rotate_body(std::string_view bytes) {
  if (bytes.size() < 1 + 1 + 8 + 8 + 4 + 4 || bytes.front() != 'R') {
    return std::nullopt;
  }
  const std::string_view fields = bytes.substr(1, bytes.size() - 5);
  if (read_u32(bytes, bytes.size() - 4) != crc32(fields)) return std::nullopt;
  const std::uint32_t n = read_u32(fields, 1 + 8 + 8);
  if (fields.size() != 1 + 8 + 8 + 4 + n) return std::nullopt;
  return std::string(fields.substr(1 + 8 + 8 + 4, n));
}

}  // namespace legacy

/// Snapshot-shaped words: counters, ticks and doubles' bit patterns.
std::vector<std::uint64_t> make_words() {
  std::vector<std::uint64_t> words(kWords);
  std::uint64_t s = 0x9E3779B97F4A7C15ull;
  for (std::size_t i = 0; i < kWords; ++i) {
    s ^= s >> 12;
    s ^= s << 25;
    s ^= s >> 27;
    words[i] = (i % 3 == 0) ? i : s * 0x2545F4914F6CDD1Dull;
  }
  return words;
}

/// Best-of-`reps` wall time of `fn`, in microseconds.
template <typename Fn>
double best_us(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    best = std::min(best, us);
  }
  return best;
}

struct Pair {
  double legacy_us = 0.0;
  double us = 0.0;
  bool match = false;
};

/// In-process primary <-> standby wire with sync commit.
struct Deployment {
  MemStorage primary_disk;
  MemStorage standby_disk;
  std::deque<std::string> to_standby;
  std::deque<std::string> to_primary;
  static std::optional<std::string> pop(std::deque<std::string>& q) {
    if (q.empty()) return std::nullopt;
    std::string f = std::move(q.front());
    q.pop_front();
    return f;
  }
  StandbyReplica replica{
      standby_disk,
      [this](std::string f) { to_primary.push_back(std::move(f)); },
      [this] { return pop(to_standby); }, nullptr, nullptr};
  JournalShipper shipper{
      {}, [this](std::string f) { to_standby.push_back(std::move(f)); },
      [this] { return pop(to_primary); }, nullptr};
  RecoveryLog log{primary_disk, nullptr, nullptr};

  Deployment() {
    shipper.set_service([this] { replica.pump(); });
    log.set_observer(&shipper);
    log.open_fresh();
  }
};

bool disks_equal(const MemStorage& a, const MemStorage& b) {
  if (a.list() != b.list()) return false;
  for (const auto& name : a.list()) {
    if (a.read_file(name) != b.read_file(name)) return false;
  }
  return true;
}

double parse_guard(const std::string& path, const std::string& name) {
  std::ifstream in(path);
  if (!in) return 0.0;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  const std::string key = "\"" + name + "\":";
  const auto pos = text.find(key);
  if (pos == std::string::npos) return 0.0;
  return std::stod(text.substr(pos + key.size()));
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_rotation.json";
  const std::string baseline_path = argc > 2 ? argv[2] : "";
  constexpr int kReps = 15;

  const std::vector<std::uint64_t> words = make_words();

  // Fixed-width encoding of the body.
  Pair encode;
  std::string body;
  std::string legacy_body;
  encode.legacy_us = best_us(kReps, [&] {
    legacy::Writer w;
    for (std::uint64_t v : words) w.u64(v);
    legacy_body = std::move(w.out);
  });
  encode.us = best_us(kReps, [&] {
    tora::util::ByteWriter w;
    w.reserve(kBodyBytes);
    for (std::uint64_t v : words) w.u64(v);
    body = w.take();
  });
  encode.match = body == legacy_body;

  // CRC-32 over the body.
  Pair crc;
  std::uint32_t crc_new = 0;
  std::uint32_t crc_old = 0;
  crc.legacy_us = best_us(kReps, [&] { crc_old = legacy::crc32(body); });
  crc.us = best_us(kReps, [&] { crc_new = tora::util::crc32(body); });
  crc.match = crc_new == crc_old;
  const double mb = static_cast<double>(kBodyBytes) / 1e6;

  // Snapshot seal.
  Pair seal;
  std::string sealed;
  std::string legacy_sealed;
  seal.legacy_us =
      best_us(kReps, [&] { legacy_sealed = legacy::seal_snapshot(body); });
  seal.us = best_us(kReps, [&] {
    sealed = tora::core::recovery::seal_snapshot(body);
  });
  seal.match = sealed == legacy_sealed;

  // Rotate frame: encode on the primary, decode on the standby.
  Pair frame;
  std::string wire;
  std::string legacy_wire;
  std::optional<std::string> legacy_decoded;
  std::optional<ReplicationFrame> decoded;
  frame.legacy_us = best_us(kReps, [&] {
    legacy_wire = legacy::encode_rotate(7, body, 99);
    legacy_decoded = legacy::decode_rotate_body(legacy_wire);
  });
  frame.us = best_us(kReps, [&] {
    wire = encode_rotate(7, body, 99);
    decoded = decode_frame(wire);
  });
  frame.match = wire == legacy_wire && decoded && legacy_decoded &&
                decoded->body == body && *legacy_decoded == body &&
                decoded->epoch == 7 && decoded->tick == 99;

  // Full rotation through the replication tier.
  Deployment d;
  std::vector<double> rotation_us;
  constexpr int kRotations = 20;
  for (int i = 0; i < kRotations; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    d.log.rotate(body, static_cast<std::uint64_t>(i + 1));
    rotation_us.push_back(std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
  }
  std::sort(rotation_us.begin(), rotation_us.end());
  const double full_best = rotation_us.front();
  const double full_median = rotation_us[rotation_us.size() / 2];
  const auto committed = d.primary_disk.read_file(
      "snapshot-" + std::to_string(d.log.epoch()));
  const bool full_match =
      committed && *committed == legacy_sealed &&
      disks_equal(d.primary_disk, d.standby_disk) &&
      d.shipper.acked() == d.shipper.shipped() && !d.shipper.standby_lost();

  const bool all_match =
      encode.match && crc.match && seal.match && frame.match && full_match;

  const auto row = [](const char* name, const Pair& p) {
    std::cout << "  " << name << ": legacy " << p.legacy_us << " us, now "
              << p.us << " us (" << p.legacy_us / p.us << "x), bytes "
              << (p.match ? "identical" : "DIFFER") << "\n";
  };
  std::cout << "rotation_hot_path: " << kBodyBytes << "-byte body, best of "
            << kReps << "\n";
  row("encode u64s   ", encode);
  row("crc32         ", crc);
  row("seal_snapshot ", seal);
  row("rotate frame  ", frame);
  std::cout << "  crc32 MB/s: legacy " << mb / (crc.legacy_us * 1e-6)
            << ", now " << mb / (crc.us * 1e-6) << "\n"
            << "  full rotation (" << kRotations << " rotations): best "
            << full_best << " us, median " << full_median << " us, disks "
            << (full_match ? "identical" : "DIFFER") << "\n";

  const auto json_pair = [](const Pair& p) {
    std::ostringstream o;
    o << "{\"legacy_us\": " << p.legacy_us << ", \"us\": " << p.us
      << ", \"speedup\": " << p.legacy_us / p.us
      << ", \"bytes_match\": " << (p.match ? "true" : "false") << "}";
    return o.str();
  };
  std::ofstream out(out_path);
  out << "{\n"
      << "  \"benchmark\": \"rotation_hot_path\",\n"
      << "  \"body_bytes\": " << kBodyBytes << ",\n"
      << "  \"reps\": " << kReps << ",\n"
      << "  \"encode_u64\": " << json_pair(encode) << ",\n"
      << "  \"crc32\": " << json_pair(crc) << ",\n"
      << "  \"crc32_legacy_mb_per_s\": " << mb / (crc.legacy_us * 1e-6) << ",\n"
      << "  \"crc32_mb_per_s\": " << mb / (crc.us * 1e-6) << ",\n"
      << "  \"seal_snapshot\": " << json_pair(seal) << ",\n"
      << "  \"rotate_encode_decode\": " << json_pair(frame) << ",\n"
      << "  \"full_rotation_rotations\": " << kRotations << ",\n"
      << "  \"full_rotation_median_us\": " << full_median << ",\n"
      << "  \"full_rotation_bytes_match\": "
      << (full_match ? "true" : "false") << ",\n"
      << "  \"guard_full_rotation_us\": " << full_best << ",\n"
      << "  \"bytes_match\": " << (all_match ? "true" : "false") << "\n"
      << "}\n";

  if (!all_match) {
    std::cerr << "rotation_hot_path: bytes differ from the legacy replica\n";
    return 1;
  }

  if (!baseline_path.empty()) {
    const double base = parse_guard(baseline_path, "guard_full_rotation_us");
    if (base > 0.0 && full_best > 3.0 * base) {
      std::cerr << "perf regression: full rotation " << full_best
                << " us exceeds 3x the committed baseline (" << base
                << " us)\n";
      return 1;
    }
    std::cout << "regression guard (full rotation): " << full_best
              << " us vs baseline " << base << " us (limit 3x)\n";
  }
  return 0;
}
