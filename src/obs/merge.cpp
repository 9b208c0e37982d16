#include "obs/merge.hpp"

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "obs/recorder.hpp"
#include "obs/trace.hpp"

namespace cts::obs {

namespace {

// Streams the merged document row by row, so a file export never holds it
// as one string.  One cursor per island: each island's log is
// non-decreasing in `at` (trace.hpp), so taking the smallest (at, island)
// head each time yields the canonical (at, island, within-island position)
// order.
void write_merged_trace_jsonl(std::ostream& out, const std::vector<Recorder*>& islands) {
  struct Cursor {
    TraceLog::const_iterator head;
    std::size_t left;
  };
  std::vector<Cursor> cursors;
  cursors.reserve(islands.size());
  for (const Recorder* rec : islands) cursors.push_back({rec->trace().begin(), rec->trace().size()});
  for (;;) {
    Cursor* next = nullptr;
    std::size_t island = 0;
    for (std::size_t i = 0; i < cursors.size(); ++i) {
      Cursor& c = cursors[i];
      if (c.left > 0 && (next == nullptr || c.head->at < next->head->at)) {
        next = &c;
        island = i;
      }
    }
    if (next == nullptr) return;
    write_jsonl_row(out, *next->head, island);
    ++next->head;
    --next->left;
  }
}

/// Write one document to `path`; false if the file could not be opened or
/// written.
template <class Write>
bool write_file(const std::string& path, const Write& write) {
  std::ofstream f(path);
  if (!f) return false;
  write(f);
  return static_cast<bool>(f);
}

}  // namespace

std::string merged_trace_jsonl(const std::vector<Recorder*>& islands) {
  std::ostringstream out;
  write_merged_trace_jsonl(out, islands);
  return out.str();
}

std::string merged_metrics_json(const std::vector<Recorder*>& islands) {
  std::ostringstream out;
  out << "{\"islands\": [";
  for (std::size_t i = 0; i < islands.size(); ++i) {
    islands[i]->sync_sim_stats();
    if (i != 0) out << ", ";
    out << "{\"island\": " << i << ", \"metrics\": " << islands[i]->metrics().to_json() << "}";
  }
  out << "]}\n";
  return out.str();
}

bool export_files(const std::vector<Recorder*>& recs, const std::string& metrics_path,
                  const std::string& trace_path) {
  for (Recorder* rec : recs) rec->sync_sim_stats();
  const bool merged = recs.size() != 1;
  const auto write_metrics = [&](std::ostream& out) {
    out << (merged ? merged_metrics_json(recs) : recs[0]->metrics().to_json());
  };
  const auto write_trace = [&](std::ostream& out) {
    if (merged) {
      write_merged_trace_jsonl(out, recs);
    } else {
      for (const TraceEvent& e : recs[0]->trace()) write_jsonl_row(out, e);
    }
  };
  const bool metrics_ok = metrics_path.empty() || write_file(metrics_path, write_metrics);
  const bool trace_ok = trace_path.empty() || write_file(trace_path, write_trace);
  return metrics_ok && trace_ok;
}

int export_from_env(const std::vector<Recorder*>& recs, const std::string& label) {
  int written = 0;
  // The variables are an explicit request to export, so a failed write
  // (typically a missing directory) warns instead of silently skipping.
  const auto emit = [&](const std::string& path, bool metrics) {
    if (path.empty()) return;
    if (metrics ? export_files(recs, path, "") : export_files(recs, "", path)) {
      ++written;
    } else {
      std::fprintf(stderr, "warning: could not write %s to %s\n", metrics ? "metrics" : "trace",
                   path.c_str());
    }
  };
  if (const char* dir = std::getenv("CTS_OBS_DIR"); dir && *dir) {
    const std::string base = std::string(dir) + "/" + label;
    emit(base + ".metrics.json", true);
    emit(base + ".trace.jsonl", false);
  }
  const char* mj = std::getenv("CTS_METRICS_JSON");
  const char* tj = std::getenv("CTS_TRACE_JSONL");
  emit(mj ? mj : "", true);
  emit(tj ? tj : "", false);
  return written;
}

}  // namespace cts::obs
