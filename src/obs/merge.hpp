// Export of one run's Recorders, and the deterministic merge of several.
//
// A single-ring run has one Recorder; a parallel (archipelago) run has one
// per island.  export_files() and export_from_env() are the only ways a
// run's metrics and trace reach disk, and the document format follows from
// the recorder count alone:
//
//   * one recorder — its registry's to_json() and its trace log's rows
//     (TraceLog::to_jsonl() format);
//   * several — the two merges below, which are pure functions of the
//     recorders' contents and the island order the caller passes (island
//     ids ascending, by convention), so they never depend on worker count
//     or thread timing:
//       - merged_trace_jsonl — one JSONL stream ordered by (time, island,
//         within-island record order).  Rows are the standard TraceLog
//         format with an "island" field appended;
//       - merged_metrics_json — {"islands": [{"island": i, "metrics": ...}]}
//         with each island's registry rendered by its own to_json().
//
// The double-run determinism test diffs the merges byte-for-byte between
// serial and parallel executions of the same archipelago.
#pragma once

#include <string>
#include <vector>

namespace cts::obs {

class Recorder;

/// Merge the islands' trace logs into one JSONL document, ordered by
/// (at, island index, record order).  Each row is TraceLog::to_jsonl()'s
/// format plus `"island": <i>` after the "at" field.
[[nodiscard]] std::string merged_trace_jsonl(const std::vector<Recorder*>& islands);

/// All islands' metrics as one JSON object.  Syncs each island's simulator
/// stats into its registry first (same rule as export_files).
[[nodiscard]] std::string merged_metrics_json(const std::vector<Recorder*>& islands);

/// Write the run's metrics JSON and trace JSONL: one recorder's own
/// documents, or the merged documents for several.  Syncs every recorder's
/// simulator stats first.  Empty path skips that file; returns true if
/// every requested write succeeded.
bool export_files(const std::vector<Recorder*>& recs, const std::string& metrics_path,
                  const std::string& trace_path);

/// Honor the observability environment variables with export_files():
///   CTS_OBS_DIR=<dir>        — write <dir>/<label>.metrics.json and
///                              <dir>/<label>.trace.jsonl
///   CTS_METRICS_JSON=<path>  — write the metrics document to <path>
///   CTS_TRACE_JSONL=<path>   — write the trace document to <path>
/// Exact-path variables are meant for single-run tools; multi-run benches
/// pass a distinct label per run and set CTS_OBS_DIR.  Returns the number
/// of files written (0 when no variable is set); failed writes warn.
int export_from_env(const std::vector<Recorder*>& recs, const std::string& label);

}  // namespace cts::obs
