#include "workloads/trace.hpp"

#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/csv.hpp"

namespace tora::workloads {

namespace {

constexpr const char* kHeader =
    "id,category,cores,memory_mb,disk_mb,duration_s,peak_fraction";

double parse_double(const std::string& s, const char* what) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(s, &pos);
    if (pos != s.size() || !std::isfinite(v)) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument(std::string("trace: bad ") + what + " field: '" +
                                s + "'");
  }
}

}  // namespace

void write_trace(std::ostream& out, const Workload& w) {
  out << kHeader << '\n';
  util::CsvWriter csv(out);
  for (const core::TaskSpec& t : w.tasks) {
    csv.field(static_cast<unsigned long long>(t.id))
        .field(t.category)
        .field(t.demand.cores())
        .field(t.demand.memory_mb())
        .field(t.demand.disk_mb())
        .field(t.duration_s)
        .field(t.peak_fraction);
    csv.end_row();
  }
}

Workload read_trace(std::istream& in, std::string name) {
  std::ostringstream buf;
  buf << in.rdbuf();
  const auto rows = util::parse_csv(buf.str());
  if (rows.empty() || util::parse_csv_line(kHeader) != rows.front()) {
    throw std::invalid_argument("trace: missing or malformed header");
  }
  Workload w;
  w.name = std::move(name);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    const auto& r = rows[i];
    if (r.size() != 7) {
      throw std::invalid_argument("trace: row with wrong field count");
    }
    core::TaskSpec t;
    // Compared as a double before any cast: converting a negative or
    // out-of-range value to an integer is undefined.
    if (parse_double(r[0], "id") != static_cast<double>(i - 1)) {
      throw std::invalid_argument("trace: ids must be dense and ordered");
    }
    t.id = i - 1;
    t.category = r[1];
    t.demand[core::ResourceKind::Cores] = parse_double(r[2], "cores");
    t.demand[core::ResourceKind::MemoryMB] = parse_double(r[3], "memory_mb");
    t.demand[core::ResourceKind::DiskMB] = parse_double(r[4], "disk_mb");
    t.duration_s = parse_double(r[5], "duration_s");
    t.demand[core::ResourceKind::TimeS] = t.duration_s;
    t.peak_fraction = parse_double(r[6], "peak_fraction");
    w.tasks.push_back(std::move(t));
  }
  return w;
}

void save_trace(const std::string& path, const Workload& w) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("trace: cannot open for write: " + path);
  write_trace(out, w);
  if (!out.good()) throw std::runtime_error("trace: write failed: " + path);
}

Workload load_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("trace: cannot open for read: " + path);
  return read_trace(in, path);
}

}  // namespace tora::workloads
