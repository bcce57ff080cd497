#include "src/themis/themis_d.h"

#include "src/telemetry/trace.h"

namespace themis {

bool ThemisD::OnIngress(Switch& sw, Packet& pkt, int in_port) {
  if (!enabled_) {
    return true;
  }
  if (pkt.type == PacketType::kData) {
    // Track only data packets about to take the last hop to a local NIC.
    if (!sw.IsLastHop(pkt.dst_host)) {
      return true;
    }
    if (is_cross_rack_ && !is_cross_rack_(pkt)) {
      return true;
    }
    return HandleData(sw, pkt);
  }
  if (pkt.type == PacketType::kNack) {
    // Validate only NACKs freshly emitted by a local NIC.
    if (!sw.IsHostPort(in_port)) {
      return true;
    }
    return HandleNack(sw, pkt);
  }
  if (pkt.type == PacketType::kAck && sw.IsHostPort(in_port)) {
    // Snoop the NIC's cumulative ACK stream (the ACK carries the ePSN).
    FlowEntry* entry = flows_.Find(pkt.flow_id, sw.sim()->now());
    if (entry != nullptr) {
      ObserveCumulativeAck(sw, pkt.flow_id, *entry, pkt.psn);
    }
  }
  return true;
}

void ThemisD::ObserveCumulativeAck(Switch& sw, uint32_t flow_id, FlowEntry& entry,
                                   uint32_t epsn) {
  if (!entry.cum_ack_seen || PsnGt(epsn, entry.cum_ack)) {
    entry.cum_ack = epsn;
    entry.cum_ack_seen = true;
  }
  // Everything below cum_ack was received: a pending compensation for an
  // already-acknowledged BePSN is moot.
  if (entry.valid && PsnLt(entry.blocked_epsn, entry.cum_ack)) {
    entry.valid = false;
    ++stats_.compensations_cancelled;
    TraceThemis(sw.sim(), ThemisTrace::kCompCancelled, static_cast<uint16_t>(sw.id()),
                flow_id, entry.blocked_epsn);
  }
  // A cumulative ACK passing a pending valid verdict means the receiver got
  // the audited ePSN — yet this hook saw neither the original nor a
  // retransmission while the window was open. A retransmission crossing the
  // last hop is always caught in HandleData, so the packet that satisfied
  // the receiver must be the original, slipped past *before* the NACK armed
  // the audit (it was queued below this hook or in flight on the host
  // link). The forwarded NACK was spurious.
  if (entry.valid_pending && PsnGt(entry.cum_ack, entry.valid_epsn)) {
    entry.valid_pending = false;
    ++stats_.nacks_forwarded_spurious;
    if (counter_registry_ != nullptr) {
      ++TelemetryFor(flow_id).nacks_spurious;
    }
    TraceThemis(sw.sim(), ThemisTrace::kSpuriousValid, static_cast<uint16_t>(sw.id()),
                flow_id, entry.valid_epsn);
  }
  // The cumulative ACK passing a parked grace NACK's ePSN proves the
  // receiver got that packet: the "loss" was pause delay and the NACK
  // would have been spurious. Drop it.
  if (entry.grace_pending && PsnGt(entry.cum_ack, entry.grace_nack.psn)) {
    CancelGrace(sw, flow_id, entry);
  } else {
    ExpireGraceIfDue(sw, flow_id, entry);
  }
}

void ThemisD::CancelGrace(Switch& sw, uint32_t flow_id, FlowEntry& entry) {
  if (!entry.grace_pending) {
    return;
  }
  entry.grace_pending = false;
  ++stats_.grace_cancelled;
  if (counter_registry_ != nullptr) {
    ++TelemetryFor(flow_id).grace_cancelled;
  }
  TraceThemis(sw.sim(), ThemisTrace::kGraceCancelled, static_cast<uint16_t>(sw.id()),
              flow_id, entry.grace_nack.psn);
}

void ThemisD::ReleaseGrace(Switch& sw, uint32_t flow_id, FlowEntry& entry) {
  if (!entry.grace_pending) {
    return;
  }
  entry.grace_pending = false;
  ++stats_.grace_expired;
  ++stats_.nacks_forwarded_valid;
  if (counter_registry_ != nullptr) {
    ++TelemetryFor(flow_id).nacks_valid;
  }
  // From here on the released NACK is indistinguishable from an
  // immediately-forwarded valid one — including the spurious/genuine audit.
  entry.valid_epsn = entry.grace_nack.psn;
  entry.valid_pending = true;
  TraceThemis(sw.sim(), ThemisTrace::kGraceExpired, static_cast<uint16_t>(sw.id()), flow_id,
              entry.grace_nack.psn,
              static_cast<uint64_t>(sw.sim()->now() - entry.grace_armed));
  sw.Forward(entry.grace_nack);
}

void ThemisD::ExpireGraceIfDue(Switch& sw, uint32_t flow_id, FlowEntry& entry) {
  if (!entry.grace_pending) {
    return;
  }
  // The deadline recedes while pauses keep overlapping the suspect window
  // (a paused path cannot deliver) and freezes `slack` after the last one:
  // a merely pause-delayed ePSN packet arrives within the post-pause drain
  // time, a genuinely lost one never does.
  const TimePs now = sw.sim()->now();
  const TimePs overlap = sw.MaxIngressPauseOverlapPs(entry.grace_from, now);
  if (now >= entry.grace_armed + overlap + config_.grace_slack_ps) {
    ReleaseGrace(sw, flow_id, entry);
  }
}

void ThemisD::OnFlowEvicted(Switch& sw, uint32_t flow_id, FlowEntry&& entry, bool aged) {
  // The slot is about to be reused: a cached pointer to this flow would
  // alias its replacement (the bug the old "ResetFlowState is the only
  // removal path" comment papered over).
  if (cached_entry_ != nullptr && cached_flow_id_ == flow_id) {
    cached_entry_ = nullptr;
    cached_slot_ = -1;
  }
  if (aged) {
    ++stats_.flows_aged_out;
  } else {
    ++stats_.flows_evicted;
  }
  TraceThemis(sw.sim(), ThemisTrace::kFlowMiss, static_cast<uint16_t>(sw.id()), flow_id,
              /*a=*/aged ? 1u : 0u);
  // Fail open, never dangle. A parked grace NACK is released to the sender
  // (a withheld NACK must not vanish with its state); an armed Section 3.4
  // compensation is delivered now — the RNIC will never re-NACK that ePSN,
  // so dropping the obligation could stall the sender until RTO. At worst
  // both are spurious (the packet was merely delayed), which NIC-SR absorbs
  // as a duplicate retransmission.
  if (entry.grace_pending) {
    entry.grace_pending = false;
    ++stats_.grace_evicted;
    sw.Forward(entry.grace_nack);
  }
  if (entry.valid) {
    entry.valid = false;
    ++stats_.compensations_evicted;
    Packet nack = MakeControlPacket(PacketType::kNack, flow_id,
                                    /*src=*/entry.dst_host, /*dst=*/entry.src_host,
                                    entry.blocked_epsn, entry.udp_sport);
    sw.Forward(nack);
  }
}

void ThemisD::set_telemetry(CounterRegistry* registry, std::string prefix) {
  counter_registry_ = registry;
  counter_prefix_ = std::move(prefix);
  if (registry == nullptr) {
    return;
  }
  // Flow-table pressure columns, registered eagerly so they exist (and keep
  // a deterministic registry position) whether or not eviction ever fires.
  const FlowTableStats& table = flows_.stats();
  const std::string prefix_ft = counter_prefix_ + ".flow_table";
  registry->RegisterCounter(prefix_ft + ".inserts", &table.inserts);
  registry->RegisterCounter(prefix_ft + ".evictions", &table.evictions);
  registry->RegisterCounter(prefix_ft + ".aged_out", &table.aged_out);
  registry->RegisterCounter(prefix_ft + ".rejected", &table.rejected);
  registry->RegisterCounter(prefix_ft + ".telemetry_overflow", &telemetry_overflow_);
  registry->RegisterGauge(prefix_ft + ".occupancy",
                          [this] { return static_cast<double>(flows_.size()); });
  registry->RegisterGauge(prefix_ft + ".model_bytes",
                          [this] { return static_cast<double>(flows_.ModelBytes()); });
}

ThemisD::FlowTelemetry& ThemisD::TelemetryFor(uint32_t flow_id) {
  auto it = flow_telemetry_.find(flow_id);
  if (it != flow_telemetry_.end()) {
    return it->second;
  }
  // Aggregate-beyond-N cap: at million-flow scale, per-flow lazy counter
  // registration is O(flows) registry growth forever. Flows past the cap
  // share one overflow bucket.
  if (flow_telemetry_.size() >= config_.telemetry_flow_cap) {
    ++telemetry_overflow_;
    return overflow_telemetry_;
  }
  auto [inserted_it, inserted] = flow_telemetry_.try_emplace(flow_id);
  if (inserted && counter_registry_ != nullptr) {
    FlowTelemetry* t = &inserted_it->second;
    const std::string prefix = counter_prefix_ + ".flow" + std::to_string(flow_id);
    counter_registry_->RegisterCounter(prefix + ".nack_valid", &t->nacks_valid);
    counter_registry_->RegisterCounter(prefix + ".nack_blocked", &t->nacks_blocked);
    counter_registry_->RegisterCounter(prefix + ".nack_spurious", &t->nacks_spurious);
    counter_registry_->RegisterCounter(prefix + ".grace_deferred", &t->grace_deferred);
    counter_registry_->RegisterCounter(prefix + ".grace_cancelled", &t->grace_cancelled);
    counter_registry_->RegisterGauge(prefix + ".bepsn_lag", [this, flow_id] {
      // Peek, not Find: a telemetry probe must not touch the clock
      // reference bit, or attaching a sampler would change eviction order.
      const FlowEntry* entry = flows_.Peek(flow_id);
      if (entry == nullptr || !entry->valid || !entry->cum_ack_seen) {
        return 0.0;
      }
      return static_cast<double>(PsnDiff(entry->blocked_epsn, entry->cum_ack));
    });
  }
  return inserted_it->second;
}

bool ThemisD::HandleData(Switch& sw, const Packet& pkt) {
  const TimePs now = sw.sim()->now();
  FlowEntry* cached = cached_entry_;
  if (cached == nullptr || cached_flow_id_ != pkt.flow_id) {
    bool inserted = false;
    cached = flows_.FindOrCreate(
        pkt.flow_id, now, &inserted,
        [this, &pkt] {
          FlowEntry entry(config_);
          entry.src_host = pkt.src_host;
          entry.dst_host = pkt.dst_host;
          entry.udp_sport = pkt.udp_sport;
          return entry;
        },
        [this, &sw](uint32_t key, FlowEntry&& victim, bool aged) {
          OnFlowEvicted(sw, key, std::move(victim), aged);
        });
    if (cached == nullptr) {
      // Register array full and the policy refuses to evict: the flow stays
      // untracked and its NACKs fail open at the table-miss path.
      ++stats_.flows_rejected;
      return true;
    }
    if (inserted) {
      // Models the connection-setup handshake interception that provisions
      // the per-QP ring queue and flow-table entry.
      ++stats_.flows_created;
      TraceThemis(sw.sim(), ThemisTrace::kFlowCreate, static_cast<uint16_t>(sw.id()),
                  pkt.flow_id);
      if (counter_registry_ != nullptr) {
        TelemetryFor(pkt.flow_id);  // provision the per-flow counter columns
      }
    }
    cached_flow_id_ = pkt.flow_id;
    cached_entry_ = cached;
    cached_slot_ = flows_.last_slot();
  } else if (cached_slot_ >= 0) {
    // Cache hit: keep the clock reference bit honest without re-probing —
    // a flow streaming through the cache must look hot to the evictor.
    flows_.TouchSlot(cached_slot_, now);
  }
  FlowEntry& entry = *cached;

  // Fast path: no audit, grace, or compensation armed — the packet only
  // needs its PSN pushed (the common case whenever nothing is in flight
  // with the validator).
  if (!entry.valid_pending && !entry.grace_pending && !entry.valid) {
    entry.queue.Push(pkt.psn, now);
    ++stats_.data_tracked;
    TraceThemis(sw.sim(), ThemisTrace::kRingPush, static_cast<uint16_t>(sw.id()),
                pkt.flow_id, pkt.psn, entry.queue.size());
    return true;
  }

  // Verdict audit: the ePSN of a valid-forwarded NACK arriving as an
  // *original* transmission proves the packet was delayed (e.g. behind a PFC
  // pause on its path), not lost — the forwarded NACK was spurious and the
  // retransmission it triggers is pure waste. The sender's retransmission
  // arriving first proves the opposite.
  if (entry.valid_pending && pkt.psn == entry.valid_epsn) {
    entry.valid_pending = false;
    if (pkt.retransmission) {
      ++stats_.nacks_forwarded_genuine;
    } else {
      ++stats_.nacks_forwarded_spurious;
      if (counter_registry_ != nullptr) {
        ++TelemetryFor(pkt.flow_id).nacks_spurious;
      }
      TraceThemis(sw.sim(), ThemisTrace::kSpuriousValid, static_cast<uint16_t>(sw.id()),
                  pkt.flow_id, pkt.psn);
    }
  }

  // Grace resolution: the parked NACK's ePSN arriving (original — pause
  // delay, not loss — or the sender's RTO retransmission, which makes the
  // NACK moot either way) cancels the hold; any other packet just gives the
  // deadline a chance to fire.
  if (entry.grace_pending) {
    if (pkt.psn == entry.grace_nack.psn) {
      CancelGrace(sw, pkt.flow_id, entry);
    } else {
      ExpireGraceIfDue(sw, pkt.flow_id, entry);
    }
  }

  // NACK compensation (Section 3.4), checked before the packet is enqueued.
  if (entry.valid) {
    if (pkt.psn == entry.blocked_epsn) {
      // The supposedly-lost packet arrived: no compensation needed.
      entry.valid = false;
      ++stats_.compensations_cancelled;
      TraceThemis(sw.sim(), ThemisTrace::kCompCancelled, static_cast<uint16_t>(sw.id()),
                  pkt.flow_id, entry.blocked_epsn);
    } else if (PsnGt(pkt.psn, entry.blocked_epsn) && SamePath(pkt.psn, entry.blocked_epsn)) {
      // A later packet from the *same path* overtook BePSN: the BePSN
      // packet is genuinely lost. Generate the NACK the RNIC cannot.
      Packet nack = MakeControlPacket(PacketType::kNack, pkt.flow_id,
                                      /*src=*/pkt.dst_host, /*dst=*/pkt.src_host,
                                      entry.blocked_epsn, pkt.udp_sport);
      sw.Forward(nack);
      entry.valid = false;
      ++stats_.compensated_nacks;
      TraceThemis(sw.sim(), ThemisTrace::kCompensate, static_cast<uint16_t>(sw.id()),
                  pkt.flow_id, entry.blocked_epsn);
    }
  }

  entry.queue.Push(pkt.psn, now);
  ++stats_.data_tracked;
  TraceThemis(sw.sim(), ThemisTrace::kRingPush, static_cast<uint16_t>(sw.id()), pkt.flow_id,
              pkt.psn, entry.queue.size());
  return true;
}

bool ThemisD::HandleNack(Switch& sw, const Packet& pkt) {
  FlowEntry* found = flows_.Find(pkt.flow_id, sw.sim()->now());
  if (found == nullptr) {
    TraceThemis(sw.sim(), ThemisTrace::kFlowMiss, static_cast<uint16_t>(sw.id()),
                pkt.flow_id, pkt.psn);
    return true;  // untracked flow (intra-rack, evicted, or rejected): fail open
  }
  ++stats_.nacks_seen;
  TraceThemis(sw.sim(), ThemisTrace::kFlowHit, static_cast<uint16_t>(sw.id()), pkt.flow_id,
              pkt.psn);
  FlowEntry& entry = *found;
  // A NACK's ePSN is also a cumulative acknowledgment.
  ObserveCumulativeAck(sw, pkt.flow_id, entry, pkt.psn);

  // The NACK carries only the ePSN; recover the tPSN from the ring queue.
  const std::optional<uint32_t> tpsn = entry.queue.PopUntilGreater(pkt.psn);
  TraceThemis(sw.sim(), ThemisTrace::kRingPop, static_cast<uint16_t>(sw.id()), pkt.flow_id,
              tpsn.value_or(0), entry.queue.size());
  if (!tpsn.has_value()) {
    ++stats_.nacks_forwarded_unmatched;
    TraceThemis(sw.sim(), ThemisTrace::kNackUnmatched, static_cast<uint16_t>(sw.id()),
                pkt.flow_id, pkt.psn);
    return true;  // cannot prove anything: fail open
  }

  if (SamePath(*tpsn, pkt.psn)) {
    // Eq. 3 holds: the OOO packet shared the expected packet's path, so the
    // expected packet is genuinely lost — *if* the path only ever delays by
    // queuing. A PFC pause breaks that premise: park the NACK for the pause
    // overlap (plus slack) instead of forwarding it.
    if (config_.pause_grace) {
      const TimePs now = sw.sim()->now();
      const TimePs seen = entry.queue.last_match_time();
      const TimePs from =
          seen > config_.grace_lookback_ps ? seen - config_.grace_lookback_ps : 0;
      const TimePs overlap = sw.MaxIngressPauseOverlapPs(from, now);
      if (overlap > 0) {
        if (entry.grace_pending) {
          // One slot per flow: a newer valid verdict releases the older
          // parked NACK rather than silently dropping it (fail open).
          ReleaseGrace(sw, pkt.flow_id, entry);
        }
        entry.grace_nack = pkt;
        entry.grace_from = from;
        entry.grace_armed = now;
        entry.grace_pending = true;
        ++stats_.grace_deferred;
        if (counter_registry_ != nullptr) {
          ++TelemetryFor(pkt.flow_id).grace_deferred;
        }
        TraceThemis(sw.sim(), ThemisTrace::kGraceDeferred, static_cast<uint16_t>(sw.id()),
                    pkt.flow_id, pkt.psn, static_cast<uint64_t>(overlap));
        return false;  // held at the ToR; resolved by this flow's own traffic
      }
    }
    ++stats_.nacks_forwarded_valid;
    // Arm the verdict audit: watch whether this ePSN's original still shows
    // up (spurious) or the retransmission wins (genuine).
    entry.valid_epsn = pkt.psn;
    entry.valid_pending = true;
    if (counter_registry_ != nullptr) {
      ++TelemetryFor(pkt.flow_id).nacks_valid;
    }
    TraceThemis(sw.sim(), ThemisTrace::kNackValid, static_cast<uint16_t>(sw.id()),
                pkt.flow_id, *tpsn, pkt.psn);
    return true;
  }

  // Different path: delay variation, not loss. Block, and arm compensation —
  // unless the ePSN packet already passed this ToR (it arrived after the
  // triggering packet and is still queued on the last hop): then it is
  // provably not lost and no compensation may ever fire for it.
  ++stats_.nacks_blocked;
  if (counter_registry_ != nullptr) {
    ++TelemetryFor(pkt.flow_id).nacks_blocked;
  }
  TraceThemis(sw.sim(), ThemisTrace::kNackBlocked, static_cast<uint16_t>(sw.id()),
              pkt.flow_id, *tpsn, pkt.psn);
  if (entry.queue.Contains(pkt.psn, pkt.psn)) {
    entry.valid = false;
    ++stats_.compensations_suppressed;
    return false;
  }
  entry.blocked_epsn = pkt.psn;
  entry.valid = config_.compensation_enabled;
  return false;
}

uint64_t ThemisD::TotalQueueOverflows() const {
  uint64_t total = 0;
  flows_.ForEach([&total](uint32_t, const FlowEntry& entry) {
    total += entry.queue.overflows();
  });
  return total;
}

ThemisD::RingOccupancy ThemisD::SnapshotRingOccupancy() const {
  RingOccupancy occupancy;
  uint64_t total = 0;
  flows_.ForEach([&occupancy, &total](uint32_t, const FlowEntry& entry) {
    ++occupancy.flows;
    total += entry.queue.size();
    if (entry.queue.size() > occupancy.max_entries) {
      occupancy.max_entries = entry.queue.size();
    }
  });
  occupancy.mean_entries =
      occupancy.flows == 0 ? 0.0
                           : static_cast<double>(total) / static_cast<double>(occupancy.flows);
  return occupancy;
}

}  // namespace themis
