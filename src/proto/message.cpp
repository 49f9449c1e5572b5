#include "proto/message.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>
#include <vector>

#include "util/rng.hpp"

namespace tora::proto {

namespace {

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    if (c == ' ' || c == '=' || c == '%' || c == '\n' || c == '\r') {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02X", c);
      out += buf;
    } else {
      out += static_cast<char>(c);
    }
  }
  return out;
}

std::optional<std::string> unescape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '%') {
      if (i + 2 >= s.size()) return std::nullopt;
      unsigned value = 0;
      const auto hex = [](char c) -> int {
        if (c >= '0' && c <= '9') return c - '0';
        if (c >= 'A' && c <= 'F') return c - 'A' + 10;
        if (c >= 'a' && c <= 'f') return c - 'a' + 10;
        return -1;
      };
      const int hi = hex(s[i + 1]);
      const int lo = hex(s[i + 2]);
      if (hi < 0 || lo < 0) return std::nullopt;
      value = static_cast<unsigned>(hi * 16 + lo);
      out += static_cast<char>(value);
      i += 2;
    } else {
      out += s[i];
    }
  }
  return out;
}

void put(std::ostringstream& oss, const char* key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  oss << ' ' << key << '=' << buf;
}

void put(std::ostringstream& oss, const char* key, std::uint64_t v) {
  oss << ' ' << key << '=' << v;
}

struct Fields {
  std::map<std::string, std::string, std::less<>> kv;

  /// A finite number; `nan`/`inf` spellings are rejected because every
  /// numeric field feeds the allocator's arithmetic.
  std::optional<double> number(std::string_view key) const {
    const auto it = kv.find(key);
    if (it == kv.end()) return std::nullopt;
    try {
      std::size_t pos = 0;
      const double v = std::stod(it->second, &pos);
      if (pos != it->second.size() || !std::isfinite(v)) return std::nullopt;
      return v;
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }

  /// A decimal integer in [0, 2^64), parsed exactly (a detour through
  /// double would round ids above 2^53).
  std::optional<std::uint64_t> uint(std::string_view key) const {
    const auto it = kv.find(key);
    if (it == kv.end()) return std::nullopt;
    const std::string& s = it->second;
    std::uint64_t v = 0;
    const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (ec != std::errc{} || end != s.data() + s.size()) return std::nullopt;
    return v;
  }
};

std::optional<Fields> parse_fields(std::string_view rest) {
  Fields f;
  std::size_t pos = 0;
  while (pos < rest.size()) {
    while (pos < rest.size() && rest[pos] == ' ') ++pos;
    if (pos >= rest.size()) break;
    const std::size_t end = rest.find(' ', pos);
    const std::string_view token =
        rest.substr(pos, end == std::string_view::npos ? rest.size() - pos
                                                       : end - pos);
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos || eq == 0) return std::nullopt;
    f.kv.emplace(std::string(token.substr(0, eq)),
                 std::string(token.substr(eq + 1)));
    if (end == std::string_view::npos) break;
    pos = end + 1;
  }
  return f;
}

std::optional<core::ResourceVector> parse_resources(const Fields& f) {
  const auto cores = f.number("cores");
  const auto mem = f.number("memory");
  const auto disk = f.number("disk");
  const auto time = f.number("time");
  if (!cores || !mem || !disk || !time) return std::nullopt;
  return core::ResourceVector{*cores, *mem, *disk, *time};
}

void put_resources(std::ostringstream& oss, const core::ResourceVector& r) {
  put(oss, "cores", r.cores());
  put(oss, "memory", r.memory_mb());
  put(oss, "disk", r.disk_mb());
  put(oss, "time", r.time_s());
}

constexpr std::string_view kCrcToken = " crc=";
constexpr std::size_t kCrcHexDigits = 16;

/// Verifies the mandatory integrity checksum. The canonical wire position
/// is directly after the verb, but any position is accepted as long as the
/// FNV-1a hash of the line with the `crc` token spliced out matches — which
/// is exactly what encode() produced. A line without the token is rejected
/// outright: if absence were tolerated, a mutation hitting the token's key
/// (e.g. `crc=` -> `Xrc=`) would disable verification while other
/// mutations alter the payload, smuggling a different-but-valid message
/// through as an "unchecksummed" line.
bool crc_ok(std::string_view line) {
  const std::size_t pos = line.find(kCrcToken);
  if (pos == std::string_view::npos) return false;
  const std::size_t value_at = pos + kCrcToken.size();
  std::string_view hex = line.substr(value_at);
  const std::size_t sp = hex.find(' ');
  if (sp != std::string_view::npos) hex = hex.substr(0, sp);
  if (hex.size() != kCrcHexDigits) return false;
  std::uint64_t want = 0;
  const auto [end, ec] =
      std::from_chars(hex.data(), hex.data() + hex.size(), want, 16);
  if (ec != std::errc{} || end != hex.data() + hex.size()) return false;
  std::string content;
  content.reserve(line.size());
  content.append(line.substr(0, pos));
  content.append(line.substr(value_at + hex.size()));
  return util::hash64(content) == want;
}

}  // namespace

std::string_view to_string(MsgType type) noexcept {
  switch (type) {
    case MsgType::WorkerReady: return "ready";
    case MsgType::TaskDispatch: return "dispatch";
    case MsgType::TaskResult: return "result";
    case MsgType::Evict: return "evict";
    case MsgType::Shutdown: return "shutdown";
    case MsgType::Heartbeat: return "heartbeat";
  }
  return "?";
}

std::string_view to_string(Outcome outcome) noexcept {
  switch (outcome) {
    case Outcome::Success: return "success";
    case Outcome::ResourceExhausted: return "exhausted";
  }
  return "?";
}

std::string encode(const Message& msg) {
  std::ostringstream oss;  // the key=value fields, each preceded by a space
  put(oss, "worker", msg.worker_id);
  switch (msg.type) {
    case MsgType::WorkerReady:
    case MsgType::Heartbeat:
      put_resources(oss, msg.resources);
      break;
    case MsgType::TaskDispatch:
      put(oss, "task", msg.task_id);
      put(oss, "attempt", msg.attempt);
      oss << " category=" << escape(msg.category);
      put_resources(oss, msg.resources);
      break;
    case MsgType::TaskResult:
      put(oss, "task", msg.task_id);
      put(oss, "attempt", msg.attempt);
      oss << " outcome=" << to_string(msg.outcome);
      put(oss, "runtime", msg.runtime_s);
      put(oss, "exceeded", static_cast<std::uint64_t>(msg.exceeded_mask));
      put_resources(oss, msg.resources);
      break;
    case MsgType::Evict:
      put(oss, "task", msg.task_id);
      break;
    case MsgType::Shutdown:
      break;
  }
  const std::string fields = oss.str();
  std::string line(to_string(msg.type));
  // Checksum over verb + fields, spliced in directly after the verb so any
  // corruption or truncation of the variable-length tail breaks it.
  char crc[kCrcHexDigits + 1];
  std::snprintf(crc, sizeof(crc), "%016llx",
                static_cast<unsigned long long>(util::hash64(line + fields)));
  line.append(kCrcToken);
  line.append(crc);
  line.append(fields);
  return line;
}

std::optional<Message> decode(std::string_view line) {
  if (!crc_ok(line)) return std::nullopt;
  const std::size_t sp = line.find(' ');
  const std::string_view verb = line.substr(0, sp);
  const std::string_view rest =
      sp == std::string_view::npos ? std::string_view{} : line.substr(sp + 1);
  const auto fields = parse_fields(rest);
  if (!fields) return std::nullopt;

  Message m;
  if (verb == "ready") m.type = MsgType::WorkerReady;
  else if (verb == "dispatch") m.type = MsgType::TaskDispatch;
  else if (verb == "result") m.type = MsgType::TaskResult;
  else if (verb == "evict") m.type = MsgType::Evict;
  else if (verb == "shutdown") m.type = MsgType::Shutdown;
  else if (verb == "heartbeat") m.type = MsgType::Heartbeat;
  else return std::nullopt;

  const auto worker = fields->uint("worker");
  if (!worker) return std::nullopt;
  m.worker_id = *worker;

  switch (m.type) {
    case MsgType::WorkerReady:
    case MsgType::Heartbeat: {
      const auto res = parse_resources(*fields);
      if (!res) return std::nullopt;
      m.resources = *res;
      break;
    }
    case MsgType::TaskDispatch: {
      const auto task = fields->uint("task");
      const auto res = parse_resources(*fields);
      const auto cat = fields->kv.find("category");
      if (!task || !res || cat == fields->kv.end()) return std::nullopt;
      const auto unescaped = unescape(cat->second);
      if (!unescaped) return std::nullopt;
      m.task_id = *task;
      m.attempt = fields->uint("attempt").value_or(0);
      m.resources = *res;
      m.category = *unescaped;
      break;
    }
    case MsgType::TaskResult: {
      const auto task = fields->uint("task");
      const auto res = parse_resources(*fields);
      const auto runtime = fields->number("runtime");
      const auto exceeded = fields->uint("exceeded");
      const auto outcome = fields->kv.find("outcome");
      if (!task || !res || !runtime || !exceeded ||
          outcome == fields->kv.end()) {
        return std::nullopt;
      }
      if (outcome->second == "success") m.outcome = Outcome::Success;
      else if (outcome->second == "exhausted") {
        m.outcome = Outcome::ResourceExhausted;
      } else {
        return std::nullopt;
      }
      m.task_id = *task;
      m.attempt = fields->uint("attempt").value_or(0);
      m.resources = *res;
      m.runtime_s = *runtime;
      m.exceeded_mask = static_cast<unsigned>(*exceeded);
      break;
    }
    case MsgType::Evict: {
      const auto task = fields->uint("task");
      if (!task) return std::nullopt;
      m.task_id = *task;
      break;
    }
    case MsgType::Shutdown:
      break;
  }
  return m;
}

}  // namespace tora::proto
