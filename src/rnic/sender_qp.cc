#include "src/rnic/sender_qp.h"

#include <cassert>

#include "src/rnic/rnic_host.h"
#include "src/sim/logging.h"
#include "src/telemetry/trace.h"

namespace themis {

SenderQp::SenderQp(RnicHost* host, uint32_t flow_id, int dst_host, const QpConfig& config)
    : host_(host),
      flow_id_(flow_id),
      dst_host_(dst_host),
      config_(config),
      rto_timer_(host->sim(), [this] { OnRetransmitTimeout(); }) {
  switch (config_.cc) {
    case CcKind::kDcqcn:
      cc_ = std::make_unique<DcqcnCc>(host->sim(), config_.dcqcn, flow_id,
                                      static_cast<uint16_t>(host->id()));
      break;
    case CcKind::kFixedRate:
      cc_ = std::make_unique<FixedRateCc>(config_.fixed_rate);
      break;
  }
}

SenderQp::~SenderQp() {
  rto_timer_.Cancel();
  cc_->Shutdown();
}

void SenderQp::PostMessage(uint64_t bytes, std::function<void()> on_complete) {
  if (stats_.first_post_time < 0) {
    stats_.first_post_time = host_->sim()->now();
  }
  ++stats_.messages_posted;
  if (bytes == 0) {
    ++stats_.messages_completed;
    stats_.last_completion_time = host_->sim()->now();
    if (on_complete) {
      on_complete();
    }
    if (flow_completion_hook_ && AllCompleted()) {
      flow_completion_hook_(*this);
    }
    return;
  }
  stats_.bytes_posted += bytes;
  post_queue_.push_back(PendingMessage{bytes});
  message_callbacks_.push_back(std::move(on_complete));
  host_->NotifyWork();
}

bool SenderQp::HasWork() {
  // Drop retransmit entries that were cumulatively acknowledged after being
  // queued; otherwise a stale entry would make this claim work that
  // DequeuePacket() cannot deliver.
  while (!rtx_queue_.empty() && unacked_.find(rtx_queue_.front()) == unacked_.end()) {
    rtx_members_.erase(rtx_queue_.front());
    rtx_queue_.pop_front();
  }
  if (!rtx_queue_.empty()) {
    return true;
  }
  if (post_queue_.empty()) {
    return false;
  }
  return unacked_bytes_ < config_.max_unacked_bytes;
}

Packet SenderQp::DequeuePacket() {
  uint32_t psn = 0;
  uint32_t payload = 0;
  bool is_rtx = false;

  // Retransmissions take priority over fresh data.
  while (!rtx_queue_.empty()) {
    const uint32_t candidate = rtx_queue_.front();
    rtx_queue_.pop_front();
    rtx_members_.erase(candidate);
    auto it = unacked_.find(candidate);
    if (it == unacked_.end()) {
      continue;  // acknowledged while queued for retransmit
    }
    psn = candidate;
    payload = it->second;
    is_rtx = true;
    break;
  }

  if (!is_rtx) {
    assert(!post_queue_.empty() && "DequeuePacket without work");
    PendingMessage& msg = post_queue_.front();
    payload = static_cast<uint32_t>(
        std::min<uint64_t>(config_.PayloadPerPacket(), msg.remaining));
    psn = snd_nxt_;
    snd_nxt_ = PsnAdd(snd_nxt_, 1);
    unacked_.emplace(psn, payload);
    unacked_bytes_ += payload;
    msg.remaining -= payload;
    if (msg.remaining == 0) {
      completions_.push_back(CompletionRecord{psn, std::move(message_callbacks_.front())});
      message_callbacks_.pop_front();
      post_queue_.pop_front();
    }
  }

  Packet pkt =
      MakeDataPacket(flow_id_, host_->id(), dst_host_, psn, payload, config_.udp_sport);
  pkt.retransmission = is_rtx;

  TraceRnic(host_->sim(), is_rtx ? RnicTrace::kRetransmit : RnicTrace::kSend,
            static_cast<uint16_t>(host_->id()), flow_id_, psn, pkt.wire_bytes);

  ++stats_.data_packets_sent;
  stats_.data_bytes_sent += pkt.wire_bytes;
  stats_.payload_bytes_sent += payload;
  if (is_rtx) {
    ++stats_.rtx_packets;
    stats_.rtx_bytes += pkt.wire_bytes;
  }

  // Advance the hardware pacer at the CC rate (wire bytes).
  const Rate rate = cc_->rate();
  const TimePs gap = rate.SerializationTime(pkt.wire_bytes);
  next_send_time_ = host_->sim()->now() + gap;
  cc_->OnPacketSent(pkt.wire_bytes);

  ResetRtoIfNeeded();
  return pkt;
}

void SenderQp::EnqueueRetransmit(uint32_t psn) {
  if (unacked_.find(psn) == unacked_.end()) {
    return;  // already acknowledged
  }
  if (rtx_members_.insert(psn).second) {
    rtx_queue_.push_back(psn);
  }
}

void SenderQp::AdvanceUna(uint32_t new_una) {
  if (!PsnGt(new_una, snd_una_)) {
    return;
  }
  uint64_t acked_bytes = 0;
  while (PsnLt(snd_una_, new_una)) {
    auto it = unacked_.find(snd_una_);
    if (it != unacked_.end()) {
      acked_bytes += it->second;
      unacked_bytes_ -= it->second;
      unacked_.erase(it);
    }
    retransmitted_once_.erase(snd_una_);
    snd_una_ = PsnAdd(snd_una_, 1);
  }
  head_rtx_fired_ = false;  // a new head: head-loss detection re-arms
  cc_->OnAck(acked_bytes);

  bool completed_any = false;
  while (!completions_.empty() && PsnLt(completions_.front().last_psn, new_una)) {
    CompletionRecord record = std::move(completions_.front());
    completions_.pop_front();
    ++stats_.messages_completed;
    stats_.last_completion_time = host_->sim()->now();
    completed_any = true;
    if (record.callback) {
      record.callback();
    }
  }
  if (completed_any && flow_completion_hook_ && AllCompleted()) {
    flow_completion_hook_(*this);
  }
  ResetRtoIfNeeded();
  // Window space may have opened, or retransmits may now be moot.
  host_->NotifyWork();
}

void SenderQp::HandleAck(const Packet& ack) {
  ++stats_.acks_received;
  TraceRnic(host_->sim(), RnicTrace::kAckRx, static_cast<uint16_t>(host_->id()), flow_id_,
            ack.psn, ack.aux_psn);
  AdvanceUna(ack.psn);
  if (config_.transport == TransportKind::kMultipath) {
    ProcessSack(ack.aux_psn);
  }
}

void SenderQp::ProcessSack(uint32_t sacked_psn) {
  if (PsnLt(sacked_psn, snd_una_)) {
    return;  // already cumulatively covered
  }
  if (!any_sacked_ || PsnGt(sacked_psn, highest_sacked_)) {
    highest_sacked_ = sacked_psn;
    any_sacked_ = true;
  }
  // Head-loss detection: if packets far beyond the unacknowledged head have
  // been selectively acknowledged, the head has been overtaken by more than
  // the fabric's reordering depth — declare it lost and retransmit it.
  if (any_sacked_ && !head_rtx_fired_ && !unacked_.empty() &&
      PsnDiff(highest_sacked_, snd_una_) >
          static_cast<int32_t>(config_.multipath_reorder_threshold)) {
    head_rtx_fired_ = true;
    EnqueueRetransmit(snd_una_);
    host_->NotifyWork();
  }
}

void SenderQp::HandleNack(const Packet& nack) {
  ++stats_.nacks_received;
  TraceRnic(host_->sim(), RnicTrace::kNackRx, static_cast<uint16_t>(host_->id()), flow_id_,
            nack.psn, nack.aux_psn);
  // A NACK's ePSN cumulatively acknowledges everything before it.
  AdvanceUna(nack.psn);

  switch (config_.transport) {
    case TransportKind::kGoBackN:
      // Go-back-N: resend the NACKed PSN and everything after it.
      for (uint32_t psn = nack.psn; PsnLt(psn, snd_nxt_); psn = PsnAdd(psn, 1)) {
        EnqueueRetransmit(psn);
      }
      break;
    case TransportKind::kIrn:
      // IRN: the NACK names the gap precisely — retransmit [ePSN, tPSN),
      // but each packet at most once per loss epoch (IRN tracks per-packet
      // state; without this every subsequent per-OOO NACK would refire the
      // same gap).
      for (uint32_t psn = nack.psn; PsnLt(psn, nack.aux_psn); psn = PsnAdd(psn, 1)) {
        if (unacked_.count(psn) != 0 && retransmitted_once_.count(psn) == 0) {
          retransmitted_once_.insert(psn);
          EnqueueRetransmit(psn);
        }
      }
      break;
    default:
      // Commodity selective repeat: resend only the PSN named by the NACK.
      EnqueueRetransmit(nack.psn);
      break;
  }

  // Commodity-RNIC behaviour: the NACK doubles as a congestion signal
  // (Section 2.2 "unnecessary slow starts"). IRN explicitly decouples loss
  // recovery from congestion control and does not reduce the rate.
  if (config_.transport != TransportKind::kIrn) {
    cc_->OnNack();
  }
  host_->NotifyWork();
}

void SenderQp::HandleCnp(const Packet& cnp) {
  (void)cnp;
  ++stats_.cnps_received;
  TraceRnic(host_->sim(), RnicTrace::kCnpRx, static_cast<uint16_t>(host_->id()), flow_id_);
  cc_->OnCnp();
}

void SenderQp::OnRetransmitTimeout() {
  if (unacked_.empty()) {
    return;
  }
  // The timer is armed lazily: if progress happened since arming, push the
  // deadline out instead of firing (avoids rescheduling on every packet).
  const TimePs idle = host_->sim()->now() - last_progress_time_;
  if (idle < config_.retransmit_timeout) {
    rto_timer_.Arm(config_.retransmit_timeout - idle);
    return;
  }
  ++stats_.timeouts;
  TraceRnic(host_->sim(), RnicTrace::kTimeout, static_cast<uint16_t>(host_->id()), flow_id_,
            snd_una_);
  THEMIS_LOG(LogLevel::kDebug, host_->sim()->now(), "flow %u: RTO fired, snd_una=%u",
             flow_id_, snd_una_);
  if (config_.transport == TransportKind::kGoBackN) {
    for (uint32_t psn = snd_una_; PsnLt(psn, snd_nxt_); psn = PsnAdd(psn, 1)) {
      EnqueueRetransmit(psn);
    }
  } else {
    EnqueueRetransmit(snd_una_);
  }
  cc_->OnTimeout();
  rto_timer_.Arm(config_.retransmit_timeout);
  host_->NotifyWork();
}

void SenderQp::ResetRtoIfNeeded() {
  last_progress_time_ = host_->sim()->now();
  if (unacked_.empty()) {
    rto_timer_.Cancel();
  } else if (!rto_timer_.armed()) {
    rto_timer_.Arm(config_.retransmit_timeout);
  }
}

}  // namespace themis
