#include "replication/replica_manager.hpp"

#include <cassert>
#include <stdexcept>

#include "common/logging.hpp"

namespace cts::replication {

namespace {
/// Tag values for the kState streams (dedup is per (conn, type, tag)).
constexpr ThreadId kRecoveryStateTag{0};
constexpr ThreadId kPeriodicStateTag{1};
constexpr ThreadId kColdStateTag{2};

/// Stable-storage key for the local checkpoint.
const char* const kCheckpointKey = "replica-checkpoint";

/// The covered-request count a snapshot declares (its trailing u64),
/// without applying it.  Throws CodecError on a malformed snapshot.
std::uint64_t peek_covered(std::span<const std::uint8_t> snapshot) {
  BytesReader r(snapshot);
  const auto lane_count = r.u32();
  for (std::uint32_t i = 0; i < lane_count; ++i) r.skip(r.u32());  // app states
  r.skip(r.u32());                                                  // cts state
  return r.u64();
}
}  // namespace

ReplicaManager::ReplicaManager(sim::Simulator& sim, gcs::GcsEndpoint& gcs,
                               clock::PhysicalClock& clk, ManagerConfig cfg,
                               ReplicaFactory factory)
    : sim_(sim),
      gcs_(gcs),
      scope_(gcs.scope()),
      cfg_(cfg),
      cts_(sim, gcs, clk, [&cfg] {
        ccs::CtsConfig c;
        c.group = cfg.group;
        c.ccs_conn = cfg.ccs_conn;
        c.replica = cfg.replica;
        c.style = cfg.style;
        c.drift = cfg.drift;
        c.mean_delay_us = cfg.mean_delay_us;
        c.reference_gain = cfg.reference_gain;
        return c;
      }()) {
  if (cfg_.lanes < 1 || (cfg_.lanes > 1 && cfg_.style == ReplicationStyle::kPassive)) {
    throw std::invalid_argument("ReplicaManager: passive replication takes exactly one lane, "
                                "active/semi-active at least one");
  }

  // Create the lanes in index order — the paper's requirement that threads
  // be created in the same order at every replica.
  lanes_.resize(cfg_.lanes);
  for (std::uint32_t i = 0; i < cfg_.lanes; ++i) {
    const ThreadId thread{cfg_.processing_thread.value + i};
    lanes_[i].ctx = std::make_unique<ReplicaContext>(
        ReplicaContext{sim, cts_, cfg_.group, cfg_.replica, thread, clk, &gcs_});
    lanes_[i].app = factory(*lanes_[i].ctx);
    cts_.register_thread(thread);
  }

  gcs_.subscribe(cfg_.group, [this](const gcs::Message& m) { on_message(m); });
  gcs_.subscribe_view(cfg_.group, [this](const gcs::GroupView& v) { on_view(v); });
}

// --- Lifecycle -----------------------------------------------------------------

ReplicaManager::~ReplicaManager() {
  // Self-referential timers (GET_STATE retry, pump trampolines) may still
  // be pending — e.g. Testbed::restart_server destroys the old manager
  // mid-simulation.  Cancel them through the node's scope, which outlives
  // the manager; cancellation consumes no sequence numbers, so surviving
  // events keep their positions in the deterministic schedule.
  scope_.cancel(get_state_timer_);
  for (auto& sh : lanes_) scope_.cancel(sh.pump_event);
}

void ReplicaManager::start() {
  recovering_ = false;
  gcs_.join_group(cfg_.group, cfg_.replica);
}

void ReplicaManager::start_recovering(InlineFn<void()> recovered) {
  recovering_ = true;
  clock_initialized_ = false;
  saw_own_get_state_ = false;
  recovered_cb_ = std::move(recovered);
  if (rec_) {
    ++*c_recoveries_started_;
    rec_->event(obs::EventKind::kRecoveryStart, gcs_.node_id(), cfg_.replica);
  }
  cts_.begin_recovery([this](Micros) { clock_initialized_ = true; });

  // Evict our dead predecessor incarnation from the group view.  If the
  // host rebooted faster than the ring's token-loss detection, the Totem
  // membership never changed, so the old (node, replica) entry is still a
  // member everywhere — a ghost that would keep a dead primary "elected"
  // and wedge the group.  We are its successor on this host, so we know it
  // is gone; announce the departure through the ordered stream.
  gcs_.leave_group(cfg_.group, cfg_.replica);

  // NOTE: the replica does NOT join the group yet — it becomes a member
  // (and primary-eligible) only once its state is initialized.  It still
  // observes the ordered stream, which is how it queues the requests it
  // must process after the checkpoint.
  send_get_state();
}

void ReplicaManager::send_get_state() {
  // A (re-)issued GET_STATE supersedes any previous recovery epoch.  The
  // checkpoint the new epoch produces is taken at a quiescent point AFTER
  // everything ordered before the new GET_STATE — including the requests
  // queued since the OLD GET_STATE was ordered.  Replaying those from the
  // queue on top of the new snapshot would apply them twice, so drop them
  // and re-arm the queue discipline on the new epoch.  (On the first issue
  // the queues are empty and this is a no-op.)
  saw_own_get_state_ = false;
  for (auto& sh : lanes_) sh.queue.clear();

  gcs::Message m;
  m.hdr.type = gcs::MsgType::kGetState;
  m.hdr.src_grp = cfg_.group;
  m.hdr.dst_grp = cfg_.group;
  m.hdr.conn = cfg_.state_conn;
  m.hdr.tag = kRecoveryStateTag;
  // Simulated time is strictly monotone across this replica's recoveries,
  // so it serves as a unique recovery-epoch number.
  m.hdr.seq = static_cast<MsgSeqNum>(sim_.now()) + 1;
  m.hdr.sender_replica = cfg_.replica;
  recovery_epoch_ = m.hdr.seq;
  if (orc_) orc_->on_recovery_epoch(cfg_.group, cfg_.replica, recovery_epoch_);
  gcs_.send(std::move(m));

  // Re-issues can overlap an armed retry (e.g. a checkpoint raced clock
  // initialization): drop the stale timer first — it would only bail on its
  // epoch check anyway, and cancellation consumes no sequence numbers.
  scope_.cancel(get_state_timer_);
  get_state_timer_ = scope_.after(cfg_.get_state_retry_us, [this, epoch = recovery_epoch_] {
    if (recovering_ && recovery_epoch_ == epoch) {
      CTS_WARN() << "replica " << to_string(cfg_.replica)
                 << " state transfer timed out; re-issuing GET_STATE";
      send_get_state();
    }
  });
}

void ReplicaManager::start_cold() {
  recovering_ = false;
  if (cfg_.stable_store != nullptr) {
    if (auto state = cfg_.stable_store->read(kCheckpointKey)) {
      // Disk contents survive crashes but not corruption: the persisted
      // payload carries its header chain, so a damaged checkpoint is
      // detected and ignored instead of booting the replica into garbage.
      if (auto d = verify_state_payload(*state)) {
        apply_full_checkpoint(d->snapshot);
        chain_ = std::move(d->headers);
        note_chain(/*verified=*/true);
        delivery_count_ = processed_count_;
        CTS_INFO() << "replica " << to_string(cfg_.replica) << " cold-started from disk ("
                   << processed_count_ << " requests covered)";
      } else {
        CTS_WARN() << "replica " << to_string(cfg_.replica)
                   << " ignoring corrupt on-disk checkpoint";
      }
    }
  }
  gcs_.join_group(cfg_.group, cfg_.replica);
  // Announce the restored state: peers whose disks are staler adopt it.
  // (Deterministic processing means equal covered-counts imply equal
  // state, so the announcement with the highest count wins everywhere.)
  gcs::Message m;
  m.hdr.type = gcs::MsgType::kState;
  m.hdr.src_grp = cfg_.group;
  m.hdr.dst_grp = cfg_.group;
  m.hdr.conn = cfg_.state_conn;
  m.hdr.tag = kColdStateTag;
  m.hdr.seq = processed_count_ + 1;  // dedup keeps the freshest announcement
  m.hdr.sender_replica = cfg_.replica;
  m.payload = chained_checkpoint();
  gcs_.send(std::move(m));
}

// --- Message routing ---------------------------------------------------------------

void ReplicaManager::on_message(const gcs::Message& m) {
  switch (m.hdr.type) {
    case gcs::MsgType::kUserRequest:
      on_request(m);
      break;
    case gcs::MsgType::kGetState:
      on_get_state(m);
      break;
    case gcs::MsgType::kState:
      on_state(m);
      break;
    default:
      break;  // kCcs is consumed by the ConsistentTimeService
  }
}

void ReplicaManager::on_view(const gcs::GroupView& v) {
  const gcs::GroupMember me{gcs_.node_id(), cfg_.replica};
  const bool now_primary = !v.members.empty() && v.members.front() == me;
  if (now_primary && !primary_) {
    ++stats_.promotions;
    primary_ = true;
    CTS_INFO() << "replica " << to_string(cfg_.replica) << " promoted to primary";
    if (rec_) {
      ++*c_promotions_;
      rec_->event(obs::EventKind::kFailover, gcs_.node_id(), cfg_.replica,
                  static_cast<std::int64_t>(stats_.promotions));
    }
    cts_.set_primary(true);
    if (cfg_.style == ReplicationStyle::kSemiActive) {
      // Re-send the replies the old primary may never have transmitted;
      // the client's duplicate detection drops any it already received.
      for (auto& m : reply_cache_) {
        gcs_.send(m);
        ++stats_.replies_sent;
      }
      reply_cache_.clear();
    }
    if (cfg_.style == ReplicationStyle::kPassive && !log_.empty()) {
      // Replay the logged requests the old primary never checkpointed.
      // Clock reads during replay consume the CCS messages the old primary
      // already distributed, so the group clock stays continuous.
      auto& lane = lanes_[0];  // passive is single-lane
      for (auto it = log_.rbegin(); it != log_.rend(); ++it) lane.queue.push_front(*it);
      stats_.requests_replayed += log_.size();
      log_.clear();
      pump(0);
    }
  } else if (!now_primary && primary_) {
    primary_ = false;
    cts_.set_primary(false);
  }
}

// --- Requests --------------------------------------------------------------------------

bool ReplicaManager::should_process() const {
  if (recovering_) return false;
  if (cfg_.style == ReplicationStyle::kPassive) return primary_;
  return true;  // active & semi-active: everyone processes
}

std::uint32_t ReplicaManager::lane_of(const gcs::Message& m) const {
  if (lanes_.size() == 1) return 0;
  if (cfg_.lane_fn) return cfg_.lane_fn(m) % static_cast<std::uint32_t>(lanes_.size());
  return 0;
}

void ReplicaManager::on_request(const gcs::Message& m) {
  if (recovering_) {
    // Requests ordered before our GET_STATE are covered by the checkpoint;
    // queue only what comes after.
    if (saw_own_get_state_) {
      lanes_[lane_of(m)].queue.push_back(PendingRequest{m, 0});
    }
    return;
  }
  ++delivery_count_;
  if (should_process()) {
    const auto s = lane_of(m);
    lanes_[s].queue.push_back(PendingRequest{m, delivery_count_});
    pump(s);
  } else if (cfg_.style == ReplicationStyle::kPassive) {
    log_.push_back(PendingRequest{m, delivery_count_});
    ++stats_.requests_logged;
  }
}

void ReplicaManager::pump(std::uint32_t lane) {
  Lane& sh = lanes_[lane];
  if (sh.processing || sh.at_barrier || sh.queue.empty()) return;

  if (sh.queue.front().msg.hdr.type == gcs::MsgType::kGetState) {
    // Barrier: this lane is quiescent for the pending state transfer.
    sh.at_barrier = true;
    maybe_serve_barrier();
    return;
  }

  sh.processing = true;
  PendingRequest req = std::move(sh.queue.front());
  sh.queue.pop_front();
  process(lane, std::move(req));
}

void ReplicaManager::process(std::uint32_t lane, PendingRequest req) {
  const gcs::Message request = req.msg;
  lanes_[lane].app->handle_request(request.payload, [this, lane, request](Bytes reply) {
    ++stats_.requests_processed;
    ++processed_count_;
    ++since_checkpoint_;
    if (cfg_.style == ReplicationStyle::kActive || primary_) {
      send_reply(request, reply);
    } else if (cfg_.style == ReplicationStyle::kSemiActive) {
      // Remember the reply we computed but did not transmit, in case the
      // primary dies before its copy reaches the client.
      gcs::Message m;
      m.hdr.type = gcs::MsgType::kUserReply;
      m.hdr.src_grp = cfg_.group;
      m.hdr.dst_grp = request.hdr.src_grp;
      m.hdr.conn = request.hdr.conn;
      m.hdr.tag = request.hdr.tag;
      m.hdr.seq = request.hdr.seq;
      m.hdr.sender_replica = cfg_.replica;
      m.payload = reply;
      reply_cache_.push_back(std::move(m));
      if (reply_cache_.size() > kReplyCacheSize) reply_cache_.pop_front();
    }
    if (cfg_.style == ReplicationStyle::kPassive && primary_ &&
        cfg_.checkpoint_every_requests > 0 &&
        since_checkpoint_ >= cfg_.checkpoint_every_requests) {
      take_periodic_checkpoint();
    }
    Lane& sh = lanes_[lane];
    sh.processing = false;
    maybe_persist_after_request();
    // Trampoline through the event queue so long synchronous bursts do not
    // recurse.  The event is scope-owned: a crash (or manager destruction)
    // cancels it instead of pumping a dead replica.
    if (!sim_.scheduled(sh.pump_event)) {
      sh.pump_event = scope_.after(0, [this, lane] { pump(lane); });
    }
  });
}

void ReplicaManager::send_reply(const gcs::Message& request, const Bytes& reply) {
  gcs::Message m;
  m.hdr.type = gcs::MsgType::kUserReply;
  m.hdr.src_grp = cfg_.group;
  m.hdr.dst_grp = request.hdr.src_grp;
  m.hdr.conn = request.hdr.conn;
  m.hdr.tag = request.hdr.tag;
  m.hdr.seq = request.hdr.seq;
  m.hdr.sender_replica = cfg_.replica;
  m.payload = reply;
  gcs_.send(std::move(m));
  ++stats_.replies_sent;
}

// --- State transfer -----------------------------------------------------------------------

Bytes ReplicaManager::full_checkpoint() const {
  BytesWriter w;
  w.u32(static_cast<std::uint32_t>(lanes_.size()));
  for (const auto& sh : lanes_) w.bytes(sh.app->checkpoint());
  w.bytes(cts_.checkpoint());
  w.u64(processed_count_);  // requests covered by this checkpoint
  return std::move(w).take();
}

Bytes ReplicaManager::chained_checkpoint() {
  const Bytes snapshot = full_checkpoint();
  extend_chain(chain_, processed_count_, snapshot);
  note_chain(/*verified=*/true);
  return encode_chained_checkpoint(snapshot, chain_);
}

std::optional<DecodedCheckpoint> ReplicaManager::verify_state_payload(
    std::span<const std::uint8_t> payload) {
  auto d = decode_chained_checkpoint(payload);
  bool ok = d.has_value() && verify_chained_checkpoint(*d);
  if (ok) {
    // The newest link must describe THIS snapshot's covered count, or the
    // chain was grafted onto a different snapshot.
    try {
      ok = d->headers.back().upto == peek_covered(d->snapshot);
    } catch (const CodecError&) {
      ok = false;
    }
  }
  if (!ok) {
    ++stats_.checkpoints_rejected;
    if (rec_) ++*c_checkpoints_rejected_;
    return std::nullopt;
  }
  return d;
}

void ReplicaManager::apply_full_checkpoint(std::span<const std::uint8_t> state) {
  BytesReader r(state);
  const auto lane_count = r.u32();
  assert(lane_count == lanes_.size() && "checkpoint lane layout mismatch");
  for (std::uint32_t i = 0; i < lane_count; ++i) {
    const Bytes app_state = r.bytes();
    lanes_[i].app->restore(app_state);
  }
  const Bytes cts_state = r.bytes();
  const std::uint64_t covered = r.u64();
  cts_.restore(cts_state);
  processed_count_ = covered;
  ++stats_.checkpoints_applied;
  if (rec_) {
    ++*c_checkpoints_applied_;
    rec_->event(obs::EventKind::kCheckpointApplied, gcs_.node_id(), cfg_.replica,
                static_cast<std::int64_t>(covered));
  }

  if (recovering_) {
    // Renumber the queued requests with group-consistent delivery indexes:
    // everything queued was ordered after GET_STATE, i.e. after `covered`.
    // (Re-deliver in a merged pass to keep per-lane FIFO order intact —
    // queues were filled in delivery order already, so only the indexes
    // need fixing.)
    delivery_count_ = covered;
    for (auto& sh : lanes_) {
      for (auto& q : sh.queue) q.delivery_index = ++delivery_count_;
    }
  } else {
    // Passive backup: drop logged requests now covered by the checkpoint.
    std::erase_if(log_, [&](const PendingRequest& p) { return p.delivery_index <= covered; });
    since_checkpoint_ = 0;
  }
}

void ReplicaManager::on_get_state(const gcs::Message& m) {
  if (recovering_) {
    if (m.hdr.sender_replica == cfg_.replica && m.hdr.seq == recovery_epoch_) {
      saw_own_get_state_ = true;  // requests after this point must be queued
    }
    return;
  }
  // Passive backups do not serve state transfer (they may be stale); the
  // primary — and, for active/semi-active, every replica — handles
  // GET_STATE at a quiescent point: the barrier entry stalls each lane
  // until all lanes drained everything ordered before it.
  if (!should_process()) return;
  for (std::uint32_t s = 0; s < lanes_.size(); ++s) {
    lanes_[s].queue.push_back(PendingRequest{m, 0});
    pump(s);
  }
}

void ReplicaManager::maybe_serve_barrier() {
  for (const auto& sh : lanes_) {
    if (!sh.at_barrier) return;  // someone is still draining
  }
  // Global quiescence: all lanes stalled on the same (totally ordered)
  // GET_STATE.  Serve it once, then release every lane.
  const gcs::Message get_state = lanes_[0].queue.front().msg;
  serve_state_transfer(get_state);
}

void ReplicaManager::serve_state_transfer(const gcs::Message& get_state) {
  ++stats_.state_transfers_served;
  if (rec_) {
    ++*c_state_transfers_served_;
    rec_->event(obs::EventKind::kStateTransfer, gcs_.node_id(), cfg_.replica,
                static_cast<std::int64_t>(log_.size()));
  }
  // Section 3.2: a special round of consistent clock synchronization is
  // taken immediately before the checkpoint, so the recovering replica can
  // initialize its offset from the group clock.
  cts_.run_special_round([this, get_state](Micros) {
    gcs::Message m;
    m.hdr.type = gcs::MsgType::kState;
    m.hdr.src_grp = cfg_.group;
    m.hdr.dst_grp = cfg_.group;
    m.hdr.conn = cfg_.state_conn;
    m.hdr.tag = kRecoveryStateTag;
    m.hdr.seq = get_state.hdr.seq;  // pairs the checkpoint with its request
    m.hdr.sender_replica = cfg_.replica;
    m.payload = chained_checkpoint();
    const auto ckpt_bytes = m.payload.size();
    gcs_.send(std::move(m));
    ++stats_.checkpoints_taken;
    if (rec_) {
      ++*c_checkpoints_taken_;
      rec_->event(obs::EventKind::kCheckpointTaken, gcs_.node_id(), cfg_.replica,
                  static_cast<std::int64_t>(ckpt_bytes));
    }
    // Release the barriers (scope-owned trampolines, same as pump()).
    for (std::uint32_t s = 0; s < lanes_.size(); ++s) {
      Lane& sh = lanes_[s];
      assert(sh.at_barrier && !sh.queue.empty());
      sh.queue.pop_front();
      sh.at_barrier = false;
      if (!sim_.scheduled(sh.pump_event)) {
        sh.pump_event = scope_.after(0, [this, s] { pump(s); });
      }
    }
  });
}

void ReplicaManager::persist_locally() {
  if (cfg_.stable_store == nullptr) return;
  cfg_.stable_store->write(kCheckpointKey, chained_checkpoint());
  ++stats_.checkpoints_persisted;
}

void ReplicaManager::maybe_persist_after_request() {
  if (cfg_.stable_store == nullptr || cfg_.persist_every_requests == 0) return;
  if (processed_count_ < persist_low_water_ + cfg_.persist_every_requests) return;
  // Persist only from a globally quiescent instant so the snapshot is not
  // torn across concurrently-processing lanes.
  for (const auto& sh : lanes_) {
    if (sh.processing) return;  // try again after the next completion
  }
  persist_low_water_ = processed_count_;
  persist_locally();
}

void ReplicaManager::take_periodic_checkpoint() {
  gcs::Message m;
  m.hdr.type = gcs::MsgType::kState;
  m.hdr.src_grp = cfg_.group;
  m.hdr.dst_grp = cfg_.group;
  m.hdr.conn = cfg_.state_conn;
  m.hdr.tag = kPeriodicStateTag;
  m.hdr.seq = ++checkpoint_seq_;
  m.hdr.sender_replica = cfg_.replica;
  m.payload = chained_checkpoint();
  const auto ckpt_bytes = m.payload.size();
  gcs_.send(std::move(m));
  ++stats_.checkpoints_taken;
  if (rec_) {
    ++*c_checkpoints_taken_;
    rec_->event(obs::EventKind::kCheckpointTaken, gcs_.node_id(), cfg_.replica,
                static_cast<std::int64_t>(ckpt_bytes));
  }
  since_checkpoint_ = 0;
  persist_locally();
}

void ReplicaManager::on_state(const gcs::Message& m) {
  if (recovering_) {
    // Dedupe against the recovery epoch: a reply paired with a GET_STATE we
    // have since superseded (its reply crossed our retry in flight) must be
    // dropped, not applied — the queued requests only line up with the
    // checkpoint of the CURRENT epoch.
    if (m.hdr.tag != kRecoveryStateTag || m.hdr.seq != recovery_epoch_) return;
    if (!clock_initialized_) {
      // The special CCS round is ordered before the checkpoint, so this
      // cannot happen unless the serving replica misbehaved.
      CTS_WARN() << "checkpoint arrived before clock initialization; re-requesting";
      send_get_state();
      return;
    }
    auto d = verify_state_payload(m.payload);
    if (!d) {
      // Chain verification failed: do not adopt the state; ask again.
      CTS_WARN() << "replica " << to_string(cfg_.replica)
                 << " rejected checkpoint with broken hash chain; re-requesting";
      send_get_state();
      return;
    }
    apply_full_checkpoint(d->snapshot);
    chain_ = std::move(d->headers);
    note_chain(/*verified=*/true);
    persist_locally();
    recovering_ = false;
    gcs_.join_group(cfg_.group, cfg_.replica);  // now a full member
    std::size_t queued = 0;
    for (auto& sh : lanes_) queued += sh.queue.size();
    CTS_INFO() << "replica " << to_string(cfg_.replica) << " recovered (" << queued
               << " queued requests to drain)";
    if (rec_) {
      ++*c_recoveries_completed_;
      rec_->event(obs::EventKind::kRecoveryComplete, gcs_.node_id(), cfg_.replica,
                  static_cast<std::int64_t>(queued));
    }
    if (recovered_cb_) {
      auto cb = std::move(recovered_cb_);
      recovered_cb_ = nullptr;
      cb();
    }
    for (std::uint32_t s = 0; s < lanes_.size(); ++s) pump(s);
    return;
  }
  auto d = verify_state_payload(m.payload);
  if (!d) {
    CTS_WARN() << "replica " << to_string(cfg_.replica)
               << " ignoring checkpoint with broken hash chain";
    return;
  }
  if (m.hdr.tag == kColdStateTag) {
    // A cold-start announcement: adopt it only if it is strictly fresher
    // than our own restored state (equal counts imply equal state).
    if (d->headers.back().upto > processed_count_) {
      apply_full_checkpoint(d->snapshot);
      chain_ = std::move(d->headers);
      note_chain(/*verified=*/true);
      delivery_count_ = processed_count_;
      persist_locally();
    }
    return;
  }
  // A state transfer served for an epoch we have already moved past (e.g.
  // the late reply to a superseded GET_STATE, delivered after this replica
  // finished recovering) must not roll a fresher replica backward.
  if (d->headers.back().upto < processed_count_) return;
  // Existing replicas: the primary ignores its own checkpoints; passive
  // backups apply both periodic and recovery checkpoints to stay fresh.
  if (cfg_.style == ReplicationStyle::kPassive && !primary_) {
    apply_full_checkpoint(d->snapshot);
    chain_ = std::move(d->headers);
    note_chain(/*verified=*/true);
    persist_locally();
  }
}

void ReplicaManager::note_chain(bool verified) {
  if (!orc_) return;
  std::vector<obs::CheckpointLink> links;
  links.reserve(chain_.size());
  for (const auto& h : chain_) links.push_back({h.upto, h.digest, h.parent, h.link});
  orc_->on_checkpoint_chain(cfg_.group, cfg_.replica, links, verified);
}

void ReplicaManager::set_recorder(obs::Recorder* rec) {
  rec_ = rec;
  orc_ = rec ? rec->oracle() : nullptr;
  if (rec != nullptr) {
    // Resolve the repl.* counter handles once per wiring instead of paying
    // a by-name registry lookup on every checkpoint / recovery event.
    c_recoveries_started_ = &rec->counter("repl.recoveries_started");
    c_recoveries_completed_ = &rec->counter("repl.recoveries_completed");
    c_promotions_ = &rec->counter("repl.promotions");
    c_checkpoints_taken_ = &rec->counter("repl.checkpoints_taken");
    c_checkpoints_applied_ = &rec->counter("repl.checkpoints_applied");
    c_checkpoints_rejected_ = &rec->counter("repl.checkpoints_rejected");
    c_state_transfers_served_ = &rec->counter("repl.state_transfers_served");
  }
  cts_.set_recorder(rec);
}

}  // namespace cts::replication
