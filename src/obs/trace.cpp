#include "obs/trace.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

namespace cts::obs {

const char* to_string(EventKind k) {
  switch (k) {
    case EventKind::kNetDrop: return "net_drop";
    case EventKind::kNetCorrupt: return "net_corrupt";
    case EventKind::kNetPartition: return "net_partition";
    case EventKind::kNetHeal: return "net_heal";
    case EventKind::kTokenPass: return "token_pass";
    case EventKind::kTokenRetransmit: return "token_retransmit";
    case EventKind::kMsgRetransmit: return "msg_retransmit";
    case EventKind::kRingChange: return "ring_change";
    case EventKind::kWindowStall: return "window_stall";
    case EventKind::kGcsDeliver: return "gcs_deliver";
    case EventKind::kGcsViewChange: return "gcs_view_change";
    case EventKind::kGcsSendCancelled: return "gcs_send_cancelled";
    case EventKind::kCcsRoundStart: return "ccs_round_start";
    case EventKind::kCcsRoundComplete: return "ccs_round_complete";
    case EventKind::kSynchronizerWin: return "synchronizer_win";
    case EventKind::kCcsSendAvoided: return "ccs_send_avoided";
    case EventKind::kProposalResent: return "proposal_resent";
    case EventKind::kSkewSample: return "skew_sample";
    case EventKind::kCcsReentrantCall: return "ccs_reentrant_call";
    case EventKind::kCheckpointTaken: return "checkpoint_taken";
    case EventKind::kCheckpointApplied: return "checkpoint_applied";
    case EventKind::kStateTransfer: return "state_transfer";
    case EventKind::kFailover: return "failover";
    case EventKind::kRecoveryStart: return "recovery_start";
    case EventKind::kRecoveryComplete: return "recovery_complete";
    case EventKind::kOracleViolation: return "oracle_violation";
    case EventKind::kStampRejected: return "stamp_rejected";
    case EventKind::kGatewayForward: return "gateway_forward";
    case EventKind::kHandoffExport: return "handoff_export";
    case EventKind::kHandoffAdopt: return "handoff_adopt";
  }
  return "unknown";
}

std::size_t TraceLog::count(EventKind kind) const {
  return static_cast<std::size_t>(std::count_if(
      events_.begin(), events_.end(), [kind](const TraceEvent& e) { return e.kind == kind; }));
}

std::vector<TraceEvent> TraceLog::select(EventKind kind) const {
  std::vector<TraceEvent> out;
  for (const auto& e : events_) {
    if (e.kind == kind) out.push_back(e);
  }
  return out;
}

void write_jsonl_row(std::ostream& out, const TraceEvent& e, std::optional<std::size_t> island) {
  out << "{\"at\": " << e.at;
  if (island) out << ", \"island\": " << *island;
  out << ", \"kind\": \"" << to_string(e.kind) << "\", \"node\": ";
  if (e.node == NodeId::kInvalid) {
    out << "null";
  } else {
    out << e.node;
  }
  out << ", \"replica\": ";
  if (e.replica == ReplicaId::kInvalid) {
    out << "null";
  } else {
    out << e.replica;
  }
  out << ", \"a\": " << e.a << ", \"b\": " << e.b << ", \"c\": " << e.c << "}\n";
}

std::string TraceLog::to_jsonl() const {
  std::ostringstream out;
  for (const auto& e : events_) write_jsonl_row(out, e);
  return out.str();
}

}  // namespace cts::obs
