#include "gcs/gcs.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace cts::gcs {

const char* to_string(MsgType t) {
  switch (t) {
    case MsgType::kUserRequest:
      return "UserRequest";
    case MsgType::kUserReply:
      return "UserReply";
    case MsgType::kCcs:
      return "CCS";
    case MsgType::kGetState:
      return "GetState";
    case MsgType::kState:
      return "State";
    case MsgType::kGroupJoin:
      return "GroupJoin";
    case MsgType::kGroupLeave:
      return "GroupLeave";
    case MsgType::kFragment:
      return "Fragment";
  }
  return "?";
}

namespace {
bool is_control(MsgType t) { return t == MsgType::kGroupJoin || t == MsgType::kGroupLeave; }
}  // namespace

GcsEndpoint::GcsEndpoint(sim::Simulator& sim, totem::TotemNode& totem)
    : sim_(sim), totem_(totem) {
  totem_.set_deliver_handler(
      [this](NodeId sender, const SharedBytes& data) { on_totem_deliver(sender, data); });
  totem_.set_view_handler([this](const totem::View& v) { on_totem_view(v); });
}

// --- Wire format ------------------------------------------------------------

Bytes GcsEndpoint::encode(const Message& m) {
  BytesWriter w;
  w.u8(static_cast<std::uint8_t>(m.hdr.type));
  w.u32(m.hdr.src_grp.value);
  w.u32(m.hdr.dst_grp.value);
  w.u32(m.hdr.conn.value);
  w.u32(m.hdr.tag.value);
  w.u64(m.hdr.seq);
  w.u32(m.hdr.sender_replica.value);
  w.u32(m.hdr.sender_node.value);
  w.bytes(m.payload);
  return std::move(w).take();
}

namespace {
MessageHeader decode_header(BytesReader& r) {
  MessageHeader h;
  h.type = static_cast<MsgType>(r.u8());
  h.src_grp = GroupId{r.u32()};
  h.dst_grp = GroupId{r.u32()};
  h.conn = ConnectionId{r.u32()};
  h.tag = ThreadId{r.u32()};
  h.seq = r.u64();
  h.sender_replica = ReplicaId{r.u32()};
  h.sender_node = NodeId{r.u32()};
  return h;
}
}  // namespace

Message GcsEndpoint::decode(std::span<const std::uint8_t> b) {
  BytesReader r(b);
  Message m;
  m.hdr = decode_header(r);
  m.payload = r.bytes();
  if (!r.done()) throw CodecError("trailing garbage after GCS message");
  return m;
}

Message GcsEndpoint::decode_view(const SharedBytes& packet) {
  BytesReader r(packet.span());
  Message m;
  m.hdr = decode_header(r);
  // Zero copy: the payload aliases the packet (which itself aliases the
  // batched Totem frame it arrived in).
  const std::uint32_t len = r.u32();
  const std::size_t off = r.pos();
  r.skip(len);
  if (!r.done()) throw CodecError("trailing garbage after GCS message");
  m.payload = packet.slice(off, len);
  return m;
}

// --- Group membership ----------------------------------------------------------

void GcsEndpoint::join_group(GroupId g, ReplicaId r) {
  local_members_.emplace_back(g, r);
  Message m;
  m.hdr.type = MsgType::kGroupJoin;
  m.hdr.src_grp = g;
  m.hdr.dst_grp = g;
  m.hdr.sender_replica = r;
  m.hdr.sender_node = totem_.id();
  totem_.multicast(encode(m));
}

void GcsEndpoint::leave_group(GroupId g, ReplicaId r) {
  std::erase(local_members_, std::make_pair(g, r));
  Message m;
  m.hdr.type = MsgType::kGroupLeave;
  m.hdr.src_grp = g;
  m.hdr.dst_grp = g;
  m.hdr.sender_replica = r;
  m.hdr.sender_node = totem_.id();
  totem_.multicast(encode(m));
}

void GcsEndpoint::subscribe(GroupId g, DeliverFn fn) {
  subscribers_[g].push_back(std::make_unique<DeliverFn>(std::move(fn)));
}

void GcsEndpoint::subscribe_view(GroupId g, ViewFn fn) {
  view_subscribers_[g].push_back(std::move(fn));
}

const GroupView& GcsEndpoint::view(GroupId g) {
  auto& v = views_[g];
  v.group = g;
  return v;
}

void GcsEndpoint::bump_view(GroupId g) {
  auto& v = views_[g];
  v.group = g;
  ++v.view_num;
  if (c_view_changes_) ++*c_view_changes_;
  if (rec_) {
    rec_->event(obs::EventKind::kGcsViewChange, totem_.id(), ReplicaId{},
                static_cast<std::int64_t>(g.value), static_cast<std::int64_t>(v.members.size()));
  }
  // Callbacks get a snapshot of the view, and the subscriber list is
  // re-found on every iteration: a callback may touch views_ (dangling the
  // `v` reference above) or register new view subscribers (growing /
  // reallocating the vector and the map) — FlatMap references do not
  // survive either.
  const GroupView snapshot = v;
  for (std::size_t i = 0;; ++i) {
    auto it = view_subscribers_.find(g);
    if (it == view_subscribers_.end() || i >= it->second.size()) break;
    it->second[i](snapshot);
  }
}

void GcsEndpoint::apply_group_join(const Message& m) {
  auto& v = views_[m.hdr.dst_grp];
  v.group = m.hdr.dst_grp;
  const GroupMember member{m.hdr.sender_node, m.hdr.sender_replica};
  auto it = std::lower_bound(v.members.begin(), v.members.end(), member);
  if (it != v.members.end() && *it == member) return;  // idempotent re-announce
  v.members.insert(it, member);
  bump_view(m.hdr.dst_grp);
}

void GcsEndpoint::apply_group_leave(const Message& m) {
  auto& v = views_[m.hdr.dst_grp];
  const GroupMember member{m.hdr.sender_node, m.hdr.sender_replica};
  auto n = std::erase(v.members, member);
  if (n > 0) bump_view(m.hdr.dst_grp);
}

void GcsEndpoint::on_totem_view(const totem::View& v) {
  if (orc_) orc_->on_view_installed(totem_.id(), v.ring_id, v.members);
  // Drop group members hosted on nodes that left the ring.  Every endpoint
  // applies the same rule to the same Totem view, so group views stay
  // consistent without extra messages.  Iterate over a snapshot of the
  // group ids: bump_view runs callbacks that may insert into views_, which
  // invalidates FlatMap iterators.  (A group inserted mid-loop has no
  // members yet, so skipping it is the same no-op the ordered-map walk
  // produced.)
  std::vector<GroupId> groups;
  groups.reserve(views_.size());
  for (const auto& [g, gv] : views_) groups.push_back(g);
  for (GroupId g : groups) {
    auto it = views_.find(g);
    if (it == views_.end()) continue;
    auto& gv = it->second;
    const auto before = gv.members.size();
    std::erase_if(gv.members, [&](const GroupMember& m) {
      return std::find(v.members.begin(), v.members.end(), m.node) == v.members.end();
    });
    if (gv.members.size() != before) bump_view(g);
  }
  // Re-announce our local members so hosts that just (re)joined the ring
  // learn about them; joins are idempotent at every receiver.
  for (const auto& [g, r] : local_members_) {
    Message m;
    m.hdr.type = MsgType::kGroupJoin;
    m.hdr.src_grp = g;
    m.hdr.dst_grp = g;
    m.hdr.sender_replica = r;
    m.hdr.sender_node = totem_.id();
    totem_.multicast(encode(m));
  }
}

// --- Send path -----------------------------------------------------------------

std::uint64_t GcsEndpoint::send(Message m) {
  m.hdr.sender_node = totem_.id();
  const auto type_idx = static_cast<std::size_t>(m.hdr.type);
  ++stats_.sent_attempted[type_idx];
  const std::uint64_t h = next_handle_++;

  std::vector<std::uint64_t> totem_handles;
  if (m.payload.size() <= max_fragment_payload_) {
    totem_handles.push_back(totem_.multicast(encode(m)));
  } else {
    // Fragment: each chunk rides a kFragment message carrying the original
    // header (so the logical identity is preserved) plus its index.
    const std::size_t chunk = max_fragment_payload_;
    const auto count =
        static_cast<std::uint32_t>((m.payload.size() + chunk - 1) / chunk);
    for (std::uint32_t i = 0; i < count; ++i) {
      Message frag;
      frag.hdr = m.hdr;
      frag.hdr.type = MsgType::kFragment;
      BytesWriter w;
      w.u8(static_cast<std::uint8_t>(m.hdr.type));
      w.u32(i);
      w.u32(count);
      const std::size_t begin = i * chunk;
      const std::size_t end = std::min(m.payload.size(), begin + chunk);
      w.bytes(std::span<const std::uint8_t>(m.payload.data() + begin, end - begin));
      frag.payload = std::move(w).take();
      totem_handles.push_back(totem_.multicast(encode(frag)));
      ++stats_.fragments_sent;
    }
  }

  if (!is_control(m.hdr.type)) {
    pending_[MsgIdKey{
        stream_key(m.hdr.conn.value, static_cast<std::uint8_t>(m.hdr.type), m.hdr.tag.value),
        m.hdr.seq}] = PendingSend{h, std::move(totem_handles), m.hdr.type};
  }
  return h;
}

bool GcsEndpoint::cancel(std::uint64_t handle) {
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    if (it->second.gcs_handle == handle) {
      bool all = true;
      for (auto th : it->second.totem_handles) all &= totem_.cancel(th);
      if (all) ++stats_.sent_cancelled[static_cast<std::size_t>(it->second.type)];
      pending_.erase(it);
      return all;
    }
  }
  return false;
}

// --- Delivery path ----------------------------------------------------------------

void GcsEndpoint::on_totem_deliver(NodeId /*sender*/, const SharedBytes& data) {
  Message m;
  try {
    m = decode_view(data);
  } catch (const CodecError& e) {
    CTS_WARN() << to_string(totem_.id()) << " dropped malformed GCS message: " << e.what();
    return;
  }
  if (m.hdr.type == MsgType::kFragment) {
    on_fragment(m);
    return;
  }
  process_message(std::move(m));
}

void GcsEndpoint::on_fragment(const Message& frag) {
  ++stats_.fragments_received;
  std::uint8_t original_type = 0;
  std::uint32_t idx = 0, count = 0;
  std::size_t chunk_off = 0, chunk_len = 0;
  try {
    BytesReader r(frag.payload);
    original_type = r.u8();
    idx = r.u32();
    count = r.u32();
    // Locate the chunk instead of copying it out; it is appended straight
    // from the shared fragment payload into the reassembly buffer below.
    chunk_len = r.u32();
    chunk_off = r.pos();
    r.skip(chunk_len);
    if (!r.done()) throw CodecError("trailing garbage after fragment");
  } catch (const CodecError& e) {
    CTS_WARN() << to_string(totem_.id()) << " dropped malformed fragment: " << e.what();
    return;
  }

  const ReasmKey key{
      (static_cast<std::uint64_t>(frag.hdr.sender_node.value) << 32) | frag.hdr.conn.value,
      (static_cast<std::uint64_t>(original_type) << 32) | frag.hdr.tag.value, frag.hdr.seq};
  Reassembly& re = reassembly_[key];
  if (idx == 0) {
    re = Reassembly{};
    re.count = count;
    re.original_type = static_cast<MsgType>(original_type);
  }
  if (idx != re.next || count != re.count) {
    // Out-of-order or inconsistent fragment: the total order makes this
    // impossible for a correct sender; drop the partial message.
    reassembly_.erase(key);
    return;
  }
  re.data.insert(re.data.end(), frag.payload.data() + chunk_off,
                 frag.payload.data() + chunk_off + chunk_len);
  ++re.next;
  if (re.next < re.count) return;

  Message m;
  m.hdr = frag.hdr;
  m.hdr.type = re.original_type;
  m.payload = std::move(re.data);
  reassembly_.erase(key);
  process_message(std::move(m));
}

void GcsEndpoint::process_message(Message m) {
  if (m.hdr.type == MsgType::kGroupJoin) {
    apply_group_join(m);
    return;
  }
  if (m.hdr.type == MsgType::kGroupLeave) {
    apply_group_leave(m);
    return;
  }

  const auto type_idx = static_cast<std::size_t>(m.hdr.type);

  // Sender-side suppression: a copy of this logical message has now been
  // ordered, so a still-queued local copy must never reach the wire.
  const StreamKey sk =
      stream_key(m.hdr.conn.value, static_cast<std::uint8_t>(m.hdr.type), m.hdr.tag.value);
  const MsgIdKey pending_key{sk, m.hdr.seq};
  if (auto it = pending_.find(pending_key); it != pending_.end()) {
    if (m.hdr.sender_node != totem_.id()) {
      // Someone else's copy won the race; cancel ours if still queued.
      bool all = true;
      for (auto th : it->second.totem_handles) all &= totem_.cancel(th);
      if (all) {
        ++stats_.sent_cancelled[static_cast<std::size_t>(it->second.type)];
        if (c_cancelled_) ++*c_cancelled_;
        if (rec_) {
          rec_->event(obs::EventKind::kGcsSendCancelled, totem_.id(), m.hdr.sender_replica,
                      static_cast<std::int64_t>(it->second.type),
                      static_cast<std::int64_t>(m.hdr.seq));
        }
      }
    }
    pending_.erase(it);
  }

  // Receiver-side duplicate detection.
  auto [it, fresh] = last_delivered_.try_emplace(sk, 0);
  if (!fresh && m.hdr.seq <= it->second) {
    ++stats_.duplicates_dropped[type_idx];
    if (c_duplicates_) ++*c_duplicates_;
    return;
  }
  it->second = m.hdr.seq;

  ++stats_.delivered[type_idx];
  if (c_delivered_) ++*c_delivered_;
  if (type_idx < 16 && c_delivered_by_type_[type_idx]) ++*c_delivered_by_type_[type_idx];
  if (rec_) {
    rec_->event(obs::EventKind::kGcsDeliver, totem_.id(), m.hdr.sender_replica,
                static_cast<std::int64_t>(m.hdr.type), static_cast<std::int64_t>(m.hdr.seq),
                static_cast<std::int64_t>(m.hdr.conn.value));
  }
  if (orc_) {
    orc_->on_gcs_deliver(totem_.id(), m.hdr.dst_grp, m.hdr.conn,
                         static_cast<std::uint8_t>(m.hdr.type), m.hdr.tag, m.hdr.seq,
                         m.hdr.sender_node, m.payload.span(), totem_.delivered_up_to());
  }
  // Index loop with a re-find per iteration: a callback may subscribe (CTS
  // construction during recovery paths), growing the vector — or a whole
  // new group's entry — mid-delivery; both the vector reference and the
  // FlatMap entry can move across the reallocation (the callables
  // themselves stay put).  New subscribers do not see the message that
  // triggered their registration.
  for (std::size_t i = 0;; ++i) {
    auto sub = subscribers_.find(m.hdr.dst_grp);
    if (sub == subscribers_.end() || i >= sub->second.size()) break;
    (*sub->second[i])(m);
  }
}

void GcsEndpoint::set_recorder(obs::Recorder* rec) {
  rec_ = rec;
  orc_ = rec ? rec->oracle() : nullptr;
  totem_.set_recorder(rec);
  if (rec) {
    c_delivered_ = &rec->counter("gcs.delivered");
    c_duplicates_ = &rec->counter("gcs.duplicates_dropped");
    c_cancelled_ = &rec->counter("gcs.sent_cancelled");
    c_view_changes_ = &rec->counter("gcs.view_changes");
    for (std::size_t i = 1; i <= static_cast<std::size_t>(MsgType::kFragment); ++i) {
      c_delivered_by_type_[i] =
          &rec->counter(std::string("gcs.delivered.") + to_string(static_cast<MsgType>(i)));
    }
  } else {
    c_delivered_ = c_duplicates_ = c_cancelled_ = c_view_changes_ = nullptr;
    for (auto& c : c_delivered_by_type_) c = nullptr;
  }
}

}  // namespace cts::gcs
