#include "obs/trace.hpp"

#include <algorithm>
#include <charconv>
#include <ostream>
#include <sstream>
#include <string_view>

namespace cts::obs {

namespace {

// A record never straddles two blocks: a new block starts whenever fewer
// than kMaxRecordBytes remain, a rule the decoder replays to find the
// block boundary without storing it.
constexpr std::size_t kBlockBytes = std::size_t{1} << 16;
// kind, at (up to 10 varint bytes), node and replica (5 each), a/b/c.
constexpr std::size_t kMaxRecordBytes = 1 + 10 + 5 + 5 + 3 * 10;

bool block_full(std::size_t used) { return used + kMaxRecordBytes > kBlockBytes; }

std::uint8_t* put_varint(std::uint8_t* p, std::uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<std::uint8_t>(v | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<std::uint8_t>(v);
  return p;
}

std::uint64_t get_varint(const std::uint8_t*& p) {
  std::uint64_t v = 0;
  for (unsigned shift = 0;; shift += 7) {
    const std::uint8_t byte = *p++;
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if (byte < 0x80) return v;
  }
}

std::uint64_t zigzag(std::uint64_t d) { return (d << 1) ^ (0 - (d >> 63)); }
std::uint64_t unzigzag(std::uint64_t z) { return (z >> 1) ^ (0 - (z & 1)); }

}  // namespace

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

void TraceLog::append(const TraceEvent& e) {
  if (blocks_.empty() || block_full(tail_)) {
    blocks_.push_back(std::make_unique_for_overwrite<std::uint8_t[]>(kBlockBytes));
    tail_ = 0;
  }
  std::uint8_t* const start = blocks_.back().get() + tail_;
  std::uint8_t* p = start;
  *p++ = static_cast<std::uint8_t>(e.kind);
  const auto at = static_cast<std::uint64_t>(e.at);
  p = put_varint(p, at - base_.at);
  base_.at = at;
  p = put_varint(p, std::uint32_t{e.node + 1});
  p = put_varint(p, std::uint32_t{e.replica + 1});
  auto& prev = base_.abc[static_cast<std::uint8_t>(e.kind)];
  const std::int64_t fields[3] = {e.a, e.b, e.c};
  for (std::size_t i = 0; i < 3; ++i) {
    const auto v = static_cast<std::uint64_t>(fields[i]);
    p = put_varint(p, zigzag(v - prev[i]));
    prev[i] = v;
  }
  tail_ += static_cast<std::size_t>(p - start);
  ++size_;
}

TraceLog::const_iterator::const_iterator(const TraceLog* log, std::size_t index)
    : log_(log), index_(index) {
  if (index_ < log_->size_) decode();
}

void TraceLog::const_iterator::decode() {
  const std::uint8_t* const start = log_->blocks_[block_].get() + offset_;
  const std::uint8_t* p = start;
  cur_.kind = static_cast<EventKind>(*p++);
  base_.at += get_varint(p);
  cur_.at = static_cast<Micros>(base_.at);
  cur_.node = static_cast<std::uint32_t>(get_varint(p)) - 1;
  cur_.replica = static_cast<std::uint32_t>(get_varint(p)) - 1;
  auto& prev = base_.abc[static_cast<std::uint8_t>(cur_.kind)];
  for (std::uint64_t& v : prev) v += unzigzag(get_varint(p));
  cur_.a = static_cast<std::int64_t>(prev[0]);
  cur_.b = static_cast<std::int64_t>(prev[1]);
  cur_.c = static_cast<std::int64_t>(prev[2]);
  offset_ += static_cast<std::size_t>(p - start);
  if (block_full(offset_)) {
    ++block_;
    offset_ = 0;
  }
}

std::size_t TraceLog::count(EventKind kind) const {
  std::size_t n = 0;
  for (const TraceEvent& e : *this) n += e.kind == kind;
  return n;
}

std::vector<TraceEvent> TraceLog::select(EventKind kind) const {
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : *this) {
    if (e.kind == kind) out.push_back(e);
  }
  return out;
}

void write_jsonl_row(std::ostream& out, const TraceEvent& e, std::optional<std::size_t> island) {
  // A row is at most 215 bytes: formatted here and written once.
  char buf[320];
  char* p = buf;
  const auto put = [&p](std::string_view s) {
    p = std::copy(s.begin(), s.end(), p);
  };
  const auto num = [&p](auto v) { p = std::to_chars(p, p + 24, v).ptr; };
  const auto id = [&](std::uint32_t v, std::uint32_t invalid) {
    if (v == invalid) {
      put("null");
    } else {
      num(v);
    }
  };
  put("{\"at\": ");
  num(e.at);
  if (island) {
    put(", \"island\": ");
    num(*island);
  }
  put(", \"kind\": \"");
  put(to_string(e.kind));
  put("\", \"node\": ");
  id(e.node, NodeId::kInvalid);
  put(", \"replica\": ");
  id(e.replica, ReplicaId::kInvalid);
  put(", \"a\": ");
  num(e.a);
  put(", \"b\": ");
  num(e.b);
  put(", \"c\": ");
  num(e.c);
  put("}\n");
  out.write(buf, p - buf);
}

std::string TraceLog::to_jsonl() const {
  std::ostringstream out;
  for (const TraceEvent& e : *this) write_jsonl_row(out, e);
  return out.str();
}

}  // namespace cts::obs
