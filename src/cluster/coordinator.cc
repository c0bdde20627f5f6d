#include "cluster/coordinator.h"

#include <iterator>
#include <utility>

#include "common/flat_hash.h"
#include "net/codec.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace datacron {

ClusterEngine::ClusterEngine(Options opts,
                             std::vector<std::unique_ptr<Transport>> nodes)
    : local_(std::move(opts.engine)),
      nodes_(std::move(nodes)),
      watermarks_(nodes_.size()) {}

Status ClusterEngine::Connect() {
  if (connected_) return Status::OK();
  const std::size_t n_nodes = nodes_.size();
  if (n_nodes == 0) {
    return Status::InvalidArgument("cluster has no nodes");
  }
  // Transports may arrive in any accept order (TCP); the Hello's node id
  // puts each one in its routing slot.
  std::vector<std::unique_ptr<Transport>> ordered(n_nodes);
  std::vector<HelloMsg> hellos(n_nodes);
  for (std::size_t i = 0; i < n_nodes; ++i) {
    Result<std::string> payload = nodes_[i]->Recv();
    if (!payload.ok()) return payload.status();
    HelloMsg hello;
    if (Status s = Decode(payload.value(), &hello); !s.ok()) return s;
    if (hello.num_nodes != n_nodes) {
      return Status::FailedPrecondition("node fleet-size mismatch");
    }
    if (hello.node_id >= n_nodes || ordered[hello.node_id] != nullptr) {
      return Status::FailedPrecondition("duplicate or bad node id");
    }
    ordered[hello.node_id] = std::move(nodes_[i]);
    hellos[hello.node_id] = std::move(hello);
  }
  nodes_ = std::move(ordered);

  // Seed each node's remap with its construction-time baseline. The nodes
  // share this engine's config, so the baselines resolve to the ids the
  // coordinator's own vocabulary already holds.
  remap_.assign(n_nodes, {});
  for (std::size_t n = 0; n < n_nodes; ++n) {
    local_.dictionary()->ImportDelta(hellos[n].baseline, &remap_[n]);
  }
  connected_ = true;
  return Status::OK();
}

Status ClusterEngine::ValidateReplies(
    const PendingEpoch& e, const std::vector<EpochResultMsg>& replies) const {
  using ShardSlot = DatacronEngine::ShardSlot;
  for (std::size_t n = 0; n < replies.size(); ++n) {
    const EpochResultMsg& r = replies[n];
    if (r.epoch != e.id) {
      return Status::Internal("epoch result out of order");
    }
    if (r.dict_size_before != remap_[n].size()) {
      return Status::Internal("node dictionary delta stream out of sync");
    }
    if (r.slots.size() != e.routing.by_part[n].size()) {
      return Status::Internal("epoch result count mismatch");
    }
    // Each watermark column cuts its buffer into per-report slices: it
    // never decreases and ends exactly at the buffer's size.
    const auto cuts = [&r](std::size_t ShardSlot::*mark, std::size_t size) {
      std::size_t prev = 0;
      for (const ShardSlot& slot : r.slots) {
        if (slot.*mark < prev) return false;
        prev = slot.*mark;
      }
      return prev == size;
    };
    if (!cuts(&ShardSlot::terms_end, r.new_terms.size()) ||
        !cuts(&ShardSlot::triples_end, r.triples.size()) ||
        !cuts(&ShardSlot::episodes_end, r.episodes.size()) ||
        !cuts(&ShardSlot::events_end, r.events.size()) ||
        !cuts(&ShardSlot::subs_end, r.sub_deltas.size())) {
      return Status::Internal("epoch result watermarks do not cut its arena");
    }
    // A report's triples may name only terms its node had interned by the
    // end of that report; the epoch-level side tables, any term of the
    // epoch.
    const auto known = [](TermId id, std::uint64_t limit) {
      return id != kInvalidTermId && id <= limit;
    };
    std::size_t t = 0;
    for (const ShardSlot& slot : r.slots) {
      const std::uint64_t limit = r.dict_size_before + slot.terms_end;
      for (; t < slot.triples_end; ++t) {
        const Triple& triple = r.triples[t];
        if (!known(triple.s, limit) || !known(triple.p, limit) ||
            !known(triple.o, limit)) {
          return Status::Internal("triple term id outside node dictionary");
        }
      }
    }
    const std::uint64_t limit = r.dict_size_before + r.new_terms.size();
    for (const auto& [id, tag] : r.tags) {
      if (!known(id, limit)) {
        return Status::Internal("tag term id outside node dictionary");
      }
    }
    for (const auto& [id, geo] : r.node_geo) {
      if (!known(id, limit)) {
        return Status::Internal("node-geo term id outside node dictionary");
      }
    }
  }
  return Status::OK();
}

namespace {

/// Node dictionary id k as an arena-local id: the coordinator's remap for
/// that node holds k's canonical id at index k - 1.
TermId ArenaLocal(TermId node_id) { return kLocalTermBit | (node_id - 1); }

/// Moves a validated reply into the engine's arena shape.
void MoveToArena(EpochResultMsg& r, DatacronEngine::EpochArena* a) {
  a->new_terms = std::move(r.new_terms);
  a->triples = std::move(r.triples);
  for (Triple& t : a->triples) {
    t = {ArenaLocal(t.s), ArenaLocal(t.p), ArenaLocal(t.o)};
  }
  a->episodes = std::move(r.episodes);
  a->events = std::move(r.events);
  a->sub_deltas = std::move(r.sub_deltas);
  for (const auto& [id, tag] : r.tags) a->tags.emplace(ArenaLocal(id), tag);
  for (const auto& [id, geo] : r.node_geo) {
    a->node_geo.emplace(ArenaLocal(id), geo);
  }
  for (const auto& [id, count] : r.sub_counts) a->sub_counts[id] = count;
}

}  // namespace

Status ClusterEngine::RetireFront(std::deque<PendingEpoch>* ring,
                                  std::vector<Event>* events) {
  PendingEpoch& e = ring->front();
  const std::size_t n_nodes = nodes_.size();
  obs::ScopedTraceContext trace_ctx(e.id);

  obs::TraceSpan recv_span("cluster.epoch_recv", "cluster");
  std::vector<EpochResultMsg> replies(n_nodes);
  for (std::size_t n = 0; n < n_nodes; ++n) {
    Result<std::string> payload = nodes_[n]->Recv();
    if (!payload.ok()) return payload.status();
    MsgType type;
    if (Status s = DecodeType(payload.value(), &type); !s.ok()) return s;
    if (type == MsgType::kWatermark) {
      // An empty sub-batch's reply: an empty arena that interned nothing.
      WatermarkMsg wm;
      if (Status s = Decode(payload.value(), &wm); !s.ok()) return s;
      replies[n].epoch = wm.epoch;
      replies[n].dict_size_before = remap_[n].size();
    } else if (Status s = Decode(payload.value(), &replies[n]); !s.ok()) {
      return s;
    }
  }
  recv_span.End();

  DATACRON_TRACE_SPAN("cluster.epoch_absorb", "cluster");
  // Every reply is checked before any of it reaches coordinator state, so
  // a bad reply leaves the coordinator exactly as it was.
  if (Status s = ValidateReplies(e, replies); !s.ok()) return s;
  for (std::size_t n = 0; n < n_nodes; ++n) watermarks_.Advance(n, e.id);
  if (!watermarks_.AllPassed(e.id)) {
    return Status::Internal("epoch barrier did not release");
  }

  // The replies become the epoch's arenas, one per node, and the slots
  // return to input order; AbsorbEpoch imports each report's term slice
  // into its node's persistent remap in that order.
  static obs::Counter* delta_terms_counter =
      obs::MetricsRegistry::Global().counter("cluster.delta_terms");
  std::vector<DatacronEngine::EpochArena> arenas(n_nodes);
  std::vector<DatacronEngine::ShardSlot> slots(e.items.size());
  for (std::size_t n = 0; n < n_nodes; ++n) {
    EpochResultMsg& r = replies[n];
    delta_terms_counter->Add(r.new_terms.size());
    const std::vector<std::uint32_t>& routed = e.routing.by_part[n];
    for (std::size_t j = 0; j < routed.size(); ++j) {
      slots[routed[j]] = r.slots[j];
      slots[routed[j]].arena = static_cast<std::uint32_t>(n);
    }
    MoveToArena(r, &arenas[n]);
  }
  local_.AbsorbEpoch(e.items, slots, arenas, remap_, events,
                     /*pool=*/nullptr);
  ring->pop_front();
  return Status::OK();
}

Status ClusterEngine::BroadcastSubControl(const std::string& frame) {
  Status first = Status::OK();
  for (const std::unique_ptr<Transport>& node : nodes_) {
    if (Status s = node->Send(frame); !s.ok() && first.ok()) first = s;
  }
  for (const std::unique_ptr<Transport>& node : nodes_) {
    Result<std::string> payload = node->Recv();
    if (!payload.ok()) {
      if (first.ok()) first = payload.status();
      continue;
    }
    SubAckMsg ack;
    if (Status s = Decode(payload.value(), &ack); !s.ok()) {
      if (first.ok()) first = s;
    } else if (!ack.ok && first.ok()) {
      first = Status::Internal("node rejected subscription: " + ack.error);
    }
  }
  return first;
}

Result<SubscriptionId> ClusterEngine::Subscribe(SubscriberId subscriber,
                                                const SubscriptionSpec& spec) {
  if (Status s = Connect(); !s.ok()) return s;
  Result<SubscriptionId> id = local_.subscriptions()->Subscribe(subscriber,
                                                                spec);
  if (!id.ok()) return id;
  SubscribeMsg msg;
  msg.id = id.value();
  msg.subscriber = subscriber;
  msg.spec = spec;
  if (Status s = BroadcastSubControl(Encode(msg)); !s.ok()) return s;
  return id;
}

Status ClusterEngine::Unsubscribe(SubscriptionId id) {
  if (Status s = Connect(); !s.ok()) return s;
  if (!local_.subscriptions()->Unsubscribe(id)) {
    return Status::InvalidArgument("unknown or inactive subscription");
  }
  UnsubscribeMsg msg;
  msg.id = id;
  return BroadcastSubControl(Encode(msg));
}

Result<std::vector<Event>> ClusterEngine::IngestBatch(
    std::span<const PositionReport> reports) {
  if (Status s = Connect(); !s.ok()) return s;
  const std::size_t n_nodes = nodes_.size();
  std::vector<Event> events;
  std::deque<PendingEpoch> ring;
  Status failure = Status::OK();
  std::int64_t epochs = 0;

  ForEachEpoch(reports.size(), local_.config().epoch_size,
               [&](std::int64_t id, std::size_t pos, std::size_t len) {
    if (!failure.ok()) return;
    while (ring.size() >= local_.config().max_epochs_in_flight) {
      if (Status s = RetireFront(&ring, &events); !s.ok()) {
        failure = s;
        return;
      }
    }
    PendingEpoch e;
    e.id = next_epoch_ + id;
    e.items = reports.subspan(pos, len);
    e.routing = EpochRouting::Build(
        e.items, n_nodes,
        [](const PositionReport& r) { return MixU64(r.entity_id); });
    // Every node receives every epoch (possibly empty) so its reply
    // stream stays aligned with the epoch sequence and the watermark
    // barrier can release.
    obs::TraceSpan send_span("cluster.epoch_send", "cluster");
    send_span.set_epoch(e.id);
    for (std::size_t n = 0; n < n_nodes; ++n) {
      ReportBatchMsg msg;
      msg.epoch = e.id;
      msg.reports.reserve(e.routing.by_part[n].size());
      for (std::uint32_t idx : e.routing.by_part[n]) {
        msg.reports.push_back(e.items[idx]);
      }
      if (Status s = nodes_[n]->Send(Encode(msg)); !s.ok()) {
        failure = s;
        return;
      }
    }
    ring.push_back(std::move(e));
    epochs = id + 1;
  });
  if (!failure.ok()) return failure;
  while (!ring.empty()) {
    if (Status s = RetireFront(&ring, &events); !s.ok()) return s;
  }
  next_epoch_ += epochs;
  return events;
}

Result<std::vector<Event>> ClusterEngine::IngestFromQueue(
    AdmissionQueue<PositionReport>* queue) {
  std::vector<Event> events;
  const std::size_t batch_max =
      local_.config().epoch_size * local_.config().max_epochs_in_flight;
  for (;;) {
    std::vector<PositionReport> batch = queue->PopBatch(batch_max);
    if (batch.empty()) break;  // closed and drained
    Result<std::vector<Event>> r = IngestBatch(batch);
    if (!r.ok()) return r.status();
    std::vector<Event> chunk = std::move(r).value();
    events.insert(events.end(), std::make_move_iterator(chunk.begin()),
                  std::make_move_iterator(chunk.end()));
  }
  local_.RecordAdmissionDrops(*queue);
  return events;
}

Result<std::vector<Event>> ClusterEngine::Finish() {
  if (Status s = Connect(); !s.ok()) return s;
  const std::size_t n_nodes = nodes_.size();
  for (std::size_t n = 0; n < n_nodes; ++n) {
    if (Status s = nodes_[n]->Send(EncodeControl(MsgType::kFlushRequest));
        !s.ok()) {
      return s;
    }
  }
  // Entity sets are disjoint across nodes (entity-sticky routing), so
  // FinishFromFlushes' ascending-entity merge over the collected flushes
  // reproduces the serial Finish order.
  std::vector<KeyedFlush> flushes(n_nodes);
  for (std::size_t n = 0; n < n_nodes; ++n) {
    Result<std::string> payload = nodes_[n]->Recv();
    if (!payload.ok()) return payload.status();
    FlushResultMsg msg;
    if (Status s = Decode(payload.value(), &msg); !s.ok()) return s;
    flushes[n] = std::move(msg.flush);
  }
  return local_.FinishFromFlushes(flushes);
}

Result<obs::MetricsSnapshot> ClusterEngine::MetricsSnapshot() {
  if (Status s = Connect(); !s.ok()) return s;
  for (const std::unique_ptr<Transport>& node : nodes_) {
    if (Status s = node->Send(EncodeControl(MsgType::kMetricsRequest));
        !s.ok()) {
      return s;
    }
  }
  obs::MetricsSnapshot fleet = local_.MetricsSnapshot();
  for (const std::unique_ptr<Transport>& node : nodes_) {
    Result<std::string> payload = node->Recv();
    if (!payload.ok()) return payload.status();
    MetricsResultMsg msg;
    if (Status s = Decode(payload.value(), &msg); !s.ok()) return s;
    fleet.Merge(msg.snapshot);
  }
  return fleet;
}

Result<std::string> ClusterEngine::MetricsReport() {
  Result<obs::MetricsSnapshot> fleet = MetricsSnapshot();
  if (!fleet.ok()) return fleet.status();
  return RenderMetricsReport(fleet.value());
}

Status ClusterEngine::Shutdown() {
  Status first = Status::OK();
  for (const std::unique_ptr<Transport>& node : nodes_) {
    if (Status s = node->Send(EncodeControl(MsgType::kShutdown));
        !s.ok() && first.ok()) {
      first = s;
    }
    node->Close();
  }
  return first;
}

}  // namespace datacron
