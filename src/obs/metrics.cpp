#include "obs/metrics.hpp"

#include <cstdio>
#include <sstream>

namespace cts::obs {

namespace {

// Minimal JSON string escaping; metric names are plain identifiers but a
// stray quote or backslash must not produce invalid output.
void append_json_string(std::ostringstream& out, const std::string& s) {
  out << '"';
  for (char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

}  // namespace

std::string MetricsRegistry::to_json() const {
  std::ostringstream out;
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    append_json_string(out, name);
    out << ": " << c.value;
  }
  out << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : gauges_) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    append_json_string(out, name);
    out << ": " << v;
  }
  out << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    append_json_string(out, name);
    out << ": {\"count\": " << h.count() << ", \"mean\": " << h.mean()
        << ", \"p50\": " << h.percentile(0.5) << ", \"p99\": " << h.percentile(0.99)
        << ", \"min\": " << h.min() << ", \"max\": " << h.max()
        << ", \"mode_bin\": " << h.mode_bin() << ", \"underflow\": " << h.underflow()
        << ", \"overflow\": " << h.overflow() << ", \"bin_width\": " << h.bin_width()
        << ", \"density\": [";
    bool fd = true;
    for (auto [bin, d] : h.density()) {
      if (!fd) out << ", ";
      fd = false;
      out << "[" << bin << ", " << d << "]";
    }
    out << "]}";
  }
  out << (first ? "" : "\n  ") << "}\n}\n";
  return out.str();
}

std::string MetricsRegistry::summary() const {
  std::ostringstream out;
  for (const auto& [name, c] : counters_) out << name << " " << c.value << "\n";
  for (const auto& [name, v] : gauges_) out << name << " " << v << "\n";
  for (const auto& [name, h] : histograms_) {
    out << name << " n=" << h.count() << " mean=" << h.mean() << "us p50=" << h.percentile(0.5)
        << "us p99=" << h.percentile(0.99) << "us mode=" << h.mode_bin() << "us";
    if (h.underflow() > 0) out << " underflow=" << h.underflow();
    if (h.overflow() > 0) out << " overflow=" << h.overflow();
    out << "\n";
  }
  return out.str();
}

}  // namespace cts::obs
