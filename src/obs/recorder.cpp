#include "obs/recorder.hpp"

#include <map>
#include <sstream>

namespace cts::obs {

std::string Recorder::summary() {
  sync_sim_stats();
  std::ostringstream out;
  out << metrics_.summary();
  // detlint:allow(hot-path-map): export-time tally over the finished trace,
  // not a per-event path; sorted-by-name output is the point.
  std::map<std::string, std::size_t> tallies;
  for (const TraceEvent& e : trace_) ++tallies[to_string(e.kind)];
  for (const auto& [name, n] : tallies) out << "trace." << name << " " << n << "\n";
  if (trace_.dropped() > 0) out << "trace.dropped " << trace_.dropped() << "\n";
  return out.str();
}

bool Recorder::export_files(const std::string& metrics_path,
                            const std::string& trace_path) {
  return obs::export_files({this}, metrics_path, trace_path);
}

}  // namespace cts::obs
