#include "datacron/engine.h"

#include <algorithm>
#include <cstdio>
#include <iterator>

#include "common/flat_hash.h"
#include "common/thread_pool.h"
#include "common/time_utils.h"
#include "obs/trace.h"
#include "stream/sharded_runtime.h"

namespace datacron {

// The engine's placement of each operator must agree with the operator's
// own declared stage kind — a keyed operator accidentally holding
// cross-entity state would silently break shard-count invariance.
static_assert(CriticalPointDetector::kStage == StageKind::kKeyed);
static_assert(AreaEventDetector::kStage == StageKind::kKeyed);
static_assert(LoiteringDetector::kStage == StageKind::kKeyed);
static_assert(GapDetector::kStage == StageKind::kKeyed);
static_assert(SpeedAnomalyDetector::kStage == StageKind::kKeyed);
static_assert(EpisodeBuilder::kStage == StageKind::kKeyed);
static_assert(ProximityDetector::kStage == StageKind::kGlobal);
static_assert(CapacityMonitor::kStage == StageKind::kGlobal);
static_assert(HotspotDetector::kStage == StageKind::kGlobal);

DatacronEngine::DatacronEngine(Config config)
    : config_(std::move(config)),
      merge_terms_counter_(
          obs::MetricsRegistry::Global().counter("engine.merge_terms")),
      merge_terms_hist_(obs::MetricsRegistry::Global().histogram(
          "engine.merge_terms_per_epoch")),
      vocab_(std::make_unique<Vocab>(&dict_)),
      rdfizer_(std::make_unique<Rdfizer>(config_.rdf, &dict_, vocab_.get())),
      proximity_(config_.proximity) {
  if (config_.num_shards == 0) config_.num_shards = 1;
  // A zero epoch or window would make IngestFromQueue pop empty batches
  // and mistake them for end-of-stream.
  if (config_.epoch_size == 0) config_.epoch_size = 1;
  if (config_.max_epochs_in_flight == 0) config_.max_epochs_in_flight = 1;
  shards_.reserve(config_.num_shards);
  for (std::size_t s = 0; s < config_.num_shards; ++s) {
    shards_.emplace_back(config_);
  }
  SubscriptionRegistry::Options sub_opts;
  sub_opts.num_shards = config_.num_shards;
  subs_ = std::make_unique<SubscriptionRegistry>(sub_opts);
  if (!config_.sectors.empty()) {
    capacity_ = std::make_unique<CapacityMonitor>(config_.sectors,
                                                  config_.capacity);
  }
  if (config_.hotspot_window > 0) {
    hotspots_ = std::make_unique<HotspotDetector>(config_.hotspot,
                                                  config_.hotspot_window);
  }
}

std::size_t DatacronEngine::ShardOf(EntityId entity) const {
  return MixU64(entity) % shards_.size();
}

void DatacronEngine::EpochArena::Clear() {
  terms.reset();
  new_terms.clear();
  triples.clear();
  episodes.clear();
  events.clear();
  tags.clear();
  node_geo.clear();
  sub_deltas.clear();
  sub_counts.Clear();
}

void DatacronEngine::ProcessKeyedArena(std::size_t shard_idx,
                                       const PositionReport& report,
                                       ShardSlot* slot, EpochArena* arena,
                                       bool use_batch) {
  Shard* shard = &shards_[shard_idx];
  TermSource* terms = &dict_;
  if (use_batch) {
    // One batch-local dictionary per shard-epoch; every report of the
    // shard's epoch interns into it, so the merge cost is paid once per
    // epoch, not once per report.
    if (arena->terms == nullptr) {
      arena->terms = std::make_unique<TermBatch>(&dict_);
    }
    terms = arena->terms.get();
  }

  // 1. In-situ processing: synopses.
  const std::int64_t t0 = MonotonicNanos();
  std::vector<CriticalPoint> cps;
  shard->detector.ProcessCounted(report, &cps);
  const std::int64_t t1 = MonotonicNanos();

  // 2. Data transformation: critical points (or everything) to RDF, and
  //    semantic-trajectory episodes derived from the synopsis.
  if (config_.rdfize_all_reports || !cps.empty()) {
    // Pre-seed the sink with this entity's RDF continuation state,
    // reconstructed by re-interning IRI text. Each IRI either already
    // exists in the global dictionary or was first interned by an earlier
    // report of this same entity — which merges earlier in input order —
    // so re-interning never allocates an id out of first-occurrence order
    // and the ids match the serial run.
    const EntityId entity = report.entity_id;
    std::unordered_map<EntityId, TermId> prev_node;
    std::unordered_map<EntityId, TermId> known;
    if (shard->rdf_known.count(entity) > 0) {
      known.emplace(entity, terms->Intern(EntityIri(entity)));
    }
    if (config_.rdf.emit_sequence_links) {
      auto prev_it = shard->prev_node_ts.find(entity);
      if (prev_it != shard->prev_node_ts.end()) {
        prev_node.emplace(
            entity, terms->Intern(PositionNodeIri(entity, prev_it->second)));
      }
    }
    Rdfizer::Sink rdf_sink;
    rdf_sink.terms = terms;
    rdf_sink.tags = &arena->tags;
    rdf_sink.node_geo = &arena->node_geo;
    rdf_sink.prev_node = &prev_node;
    rdf_sink.known_entities = &known;

    if (config_.rdfize_all_reports) {
      rdfizer_->TransformReportInto(report, rdf_sink, &arena->triples);
      shard->prev_node_ts[entity] = report.timestamp;
      shard->rdf_known.insert(entity);
    } else {
      for (const CriticalPoint& cp : cps) {
        rdfizer_->TransformCriticalPointInto(cp, rdf_sink, &arena->triples);
        // Gap-start points carry the pre-gap report, so the last cp's
        // timestamp — not the report's — is the continuation point.
        shard->prev_node_ts[cp.report.entity_id] = cp.report.timestamp;
        shard->rdf_known.insert(cp.report.entity_id);
      }
    }
    std::vector<Episode> completed;
    for (const CriticalPoint& cp : cps) {
      shard->episode_builder.Process(cp, &completed);
    }
    for (const Episode& e : completed) {
      rdfizer_->TransformEpisodeInto(e, rdf_sink, &arena->triples);
    }
    arena->episodes.insert(arena->episodes.end(),
                           std::make_move_iterator(completed.begin()),
                           std::make_move_iterator(completed.end()));
  }
  const std::int64_t t2 = MonotonicNanos();

  // 4a. Keyed complex event recognition (global CEP runs in the absorb
  //     stage, which splices these events in after proximity).
  shard->area_events.ProcessCounted(report, &arena->events);
  shard->loitering.ProcessCounted(report, &arena->events);
  shard->gap.ProcessCounted(report, &arena->events);
  shard->speed_anomaly.ProcessCounted(report, &arena->events);

  // 4c. Shard-local standing-query evaluation: geofence transitions and
  //     hotspot count increments land in the arena and cross the barrier
  //     only when a subscription fires.
  if (subs_->keyed_active()) {
    subs_->EvalKeyed(shard_idx, report, &arena->sub_deltas,
                     &arena->sub_counts);
  }

  slot->cp_count = static_cast<std::uint32_t>(cps.size());
  slot->terms_end = use_batch ? arena->terms->local_size() : 0;
  slot->triples_end = arena->triples.size();
  slot->episodes_end = arena->episodes.size();
  slot->events_end = arena->events.size();
  slot->subs_end = arena->sub_deltas.size();
  slot->synopses_ns = t1 - t0;
  slot->transform_ns = t2 - t1;
  slot->keyed_cep_ns = MonotonicNanos() - t2;
}

void DatacronEngine::ProcessKeyedEpoch(std::span<const PositionReport> reports,
                                       std::vector<ShardSlot>* slots,
                                       EpochArena* arena) {
  arena->Clear();
  slots->assign(reports.size(), ShardSlot{});
  const std::size_t dict_base = dict_.size();
  for (std::size_t i = 0; i < reports.size(); ++i) {
    ShardSlot* slot = &(*slots)[i];
    ProcessKeyedArena(ShardOf(reports[i].entity_id), reports[i], slot, arena,
                      /*use_batch=*/false);
    slot->terms_end = dict_.size() - dict_base;
  }
}

std::span<std::vector<TermId>> DatacronEngine::FreshRemaps(std::size_t n) {
  epoch_remaps_.resize(n);
  for (std::vector<TermId>& remap : epoch_remaps_) remap.clear();
  return epoch_remaps_;
}

void DatacronEngine::AbsorbEpoch(std::span<const PositionReport> items,
                                 std::span<ShardSlot> slots,
                                 std::span<EpochArena> arenas,
                                 std::span<std::vector<TermId>> remaps,
                                 std::vector<Event>* events,
                                 ThreadPool* pool) {
  const std::size_t n = arenas.size();
  absorb_cursors_.assign(n, ArenaCursor{});

  // Phase 1 — one coalesced dictionary merge for the whole epoch. Each
  // report's new terms occupy the contiguous slice between its
  // predecessor's watermark and its own, so replaying those slices in
  // input order reproduces serial first-occurrence id assignment exactly
  // (terms new to several arenas are idempotent re-interns). Arenas that
  // interned straight into dict_ have nothing to merge.
  bool merge = false;
  bool remote = false;
  for (const EpochArena& a : arenas) {
    merge |= a.terms != nullptr || !a.new_terms.empty();
    remote |= !a.new_terms.empty();
  }
  if (merge) {
    obs::TraceSpan span(remote ? "cluster.delta_import"
                               : "engine.term_merge_epoch",
                        remote ? "cluster" : "engine");
    std::size_t merged = 0;
    for (const ShardSlot& slot : slots) {
      const EpochArena& a = arenas[slot.arena];
      std::vector<TermId>& remap = remaps[slot.arena];
      std::size_t& from = absorb_cursors_[slot.arena].terms;
      if (a.terms != nullptr) {
        for (std::size_t j = from; j < slot.terms_end; ++j) {
          remap.push_back(dict_.Intern(a.terms->local_text(j),
                                       a.terms->local_kind(j)));
        }
      } else if (slot.terms_end > from) {
        dict_.ImportDelta(std::span<const TermExport>(a.new_terms)
                              .subspan(from, slot.terms_end - from),
                          &remap);
      }
      merged += slot.terms_end - from;
      from = slot.terms_end;
    }
    merge_terms_counter_->Add(merged);
    merge_terms_hist_->Observe(static_cast<double>(merged));
  }

  // Phase 2 — columnar bulk remap, one pass per arena. Side tables are
  // key->value overwrites whose shared keys always carry equal values
  // (grid-cell tags) or are entity-owned (node geometry), so per-arena
  // absorption is order-independent.
  for (std::size_t s = 0; s < n; ++s) {
    EpochArena& a = arenas[s];
    const std::vector<TermId>& remap = remaps[s];
    if (!remap.empty()) {
      for (Triple& t : a.triples) {
        t.s = RemapTerm(t.s, remap);
        t.p = RemapTerm(t.p, remap);
        t.o = RemapTerm(t.o, remap);
      }
    }
    if (!a.tags.empty() || !a.node_geo.empty()) {
      rdfizer_->AbsorbSideTables(a.tags, a.node_geo, remap);
    }
  }

  // Phase 3a — epoch-batched global proximity CEP: the detector plans
  // candidate CPA pairs serially in input order, evaluates them
  // cell-parallel on the pool, and emits into prox_events_ with
  // per-report offsets. Running it once over the whole epoch (instead of
  // per report in the walk below) is what lets the pairwise CPA math —
  // the dominant global cost — leave the coordinator thread.
  std::int64_t prox_ns = 0;
  {
    DATACRON_TRACE_SPAN("engine.global_cep_epoch", "engine");
    prox_events_.clear();
    const std::int64_t b0 = MonotonicNanos();
    proximity_.ProcessBatchCounted(items, pool, &prox_events_,
                                   &prox_offsets_);
    prox_ns = MonotonicNanos() - b0;
  }
  // The batch cost is attributed evenly across the epoch's reports in
  // the per-report stage histograms.
  const std::int64_t prox_share_ns =
      items.empty() ? 0
                    : prox_ns / static_cast<std::int64_t>(items.size());

  // Phase 3b — input-order walk: splice each report's arena slices and
  // its proximity slice into the global sequences and run the remaining
  // cross-entity CEP per report, so triples/episodes/events land
  // byte-identically to a serial run.
  const bool subs_active = subs_->ever_active();
  for (std::size_t i = 0; i < items.size(); ++i) {
    const PositionReport& report = items[i];
    const ShardSlot& slot = slots[i];
    EpochArena& a = arenas[slot.arena];
    ArenaCursor& cur = absorb_cursors_[slot.arena];
    ++reports_ingested_;
    critical_points_ += slot.cp_count;

    const std::int64_t t0 = MonotonicNanos();
    triples_.insert(triples_.end(), a.triples.begin() + cur.triples,
                    a.triples.begin() + slot.triples_end);
    cur.triples = slot.triples_end;
    for (std::size_t j = cur.episodes; j < slot.episodes_end; ++j) {
      episodes_.push_back(std::move(a.episodes[j]));
    }
    cur.episodes = slot.episodes_end;
    trajectories_.Add(report);
    predictor_.Observe(report);
    const std::int64_t t1 = MonotonicNanos();

    events->insert(events->end(), prox_events_.begin() + prox_offsets_[i],
                   prox_events_.begin() + prox_offsets_[i + 1]);
    events->insert(events->end(), a.events.begin() + cur.events,
                   a.events.begin() + slot.events_end);
    cur.events = slot.events_end;
    if (capacity_ != nullptr) capacity_->ProcessCounted(report, events);
    if (hotspots_ != nullptr) hotspots_->ProcessCounted(report, events);

    // Subscription barrier feed in global input order: each report's
    // shard-local delta slice, then the proximity events that can wake
    // proximity subscriptions.
    if (subs_active) {
      subs_->AddKeyedDeltas(std::span<const SubDelta>(
          a.sub_deltas.data() + cur.subs, slot.subs_end - cur.subs));
      cur.subs = slot.subs_end;
      subs_->AddGlobalEvents(std::span<const Event>(
          prox_events_.data() + prox_offsets_[i],
          prox_offsets_[i + 1] - prox_offsets_[i]));
    }
    const std::int64_t t2 = MonotonicNanos();

    const std::int64_t cep_ns = slot.keyed_cep_ns + (t2 - t1) + prox_share_ns;
    synopses_ns_.Add(static_cast<double>(slot.synopses_ns));
    transform_ns_.Add(static_cast<double>(slot.transform_ns));
    trajectory_ns_.Add(static_cast<double>(t1 - t0));
    cep_ns_.Add(static_cast<double>(cep_ns));
    total_ns_.Add(static_cast<double>(slot.synopses_ns + slot.transform_ns +
                                      (t1 - t0) + cep_ns));
  }

  // Hotspot counts are summed (order-independent), so the per-arena maps
  // fold in at the end; then the epoch closes — coalesce + delta push.
  if (subs_active) {
    for (const EpochArena& a : arenas) subs_->AddHotspotCounts(a.sub_counts);
    subs_->CloseEpoch(items.empty() ? 0 : items.back().timestamp);
  }
}

std::vector<Event> DatacronEngine::Ingest(const PositionReport& report) {
  DATACRON_TRACE_SPAN("engine.ingest", "engine");
  std::vector<Event> events;
  // An epoch of one report in one arena; ingest_slot_.arena stays 0.
  ingest_arena_.Clear();
  ProcessKeyedArena(ShardOf(report.entity_id), report, &ingest_slot_,
                    &ingest_arena_, /*use_batch=*/false);
  AbsorbEpoch(std::span<const PositionReport>(&report, 1),
              std::span<ShardSlot>(&ingest_slot_, 1),
              std::span<EpochArena>(&ingest_arena_, 1), FreshRemaps(1),
              &events, nullptr);
  return events;
}

std::vector<Event> DatacronEngine::IngestBatch(
    std::span<const PositionReport> reports, ThreadPool* pool) {
  std::vector<Event> events;
  using Runtime = ShardedRuntime<PositionReport, ShardSlot, EpochArena>;
  typename Runtime::Options opts;
  opts.num_shards = shards_.size();
  opts.epoch_size = config_.epoch_size;
  opts.max_epochs_in_flight = config_.max_epochs_in_flight;
  Runtime runtime(opts);

  // Without real parallelism, intern straight into the global dictionary
  // (no TermBatch indirection); the runtime routes by the same key and
  // accumulates into the same arenas either way, so keyed state and the
  // epoch-granular absorb path are identical.
  const bool parallel = pool != nullptr && shards_.size() > 1;
  runtime.Run(
      reports, parallel ? pool : nullptr,
      [](const PositionReport& r) { return MixU64(r.entity_id); },
      [this, parallel](std::size_t shard, const PositionReport& r,
                       ShardSlot* slot, EpochArena* arena) {
        slot->arena = static_cast<std::uint32_t>(shard);
        ProcessKeyedArena(shard, r, slot, arena, parallel);
      },
      [this, &events, pool](std::span<const PositionReport> items,
                            std::span<ShardSlot> slots,
                            std::span<EpochArena> arenas) {
        // The CPA fan-out takes the pool whenever one exists — even a
        // single-shard run parallelizes the global stage.
        AbsorbEpoch(items, slots, arenas, FreshRemaps(arenas.size()),
                    &events, pool);
      });
  return events;
}

std::vector<Event> DatacronEngine::Finish() {
  KeyedFlush flush = FlushKeyed();
  return FinishFromFlushes(std::span<KeyedFlush>(&flush, 1));
}

KeyedFlush DatacronEngine::FlushKeyed() {
  KeyedFlush f;

  // Per-shard trajectory-end flushes, merged in ascending entity order —
  // exactly the std::map iteration order a single detector would emit.
  // Entity sets are disjoint across shards, so the order is total.
  for (Shard& s : shards_) s.detector.Flush(&f.critical_points);
  std::stable_sort(f.critical_points.begin(), f.critical_points.end(),
                   [](const CriticalPoint& a, const CriticalPoint& b) {
                     return a.report.entity_id < b.report.entity_id;
                   });

  // RDF continuation state for every entity in the flush, so the
  // coordinator-side transform can chain sequence links correctly.
  std::unordered_set<EntityId> seen;
  for (const CriticalPoint& cp : f.critical_points) {
    const EntityId entity = cp.report.entity_id;
    if (!seen.insert(entity).second) continue;
    Shard& shard = shards_[ShardOf(entity)];
    EntityRdfContinuation c;
    c.entity = entity;
    c.rdf_known = shard.rdf_known.count(entity) > 0;
    auto prev_it = shard.prev_node_ts.find(entity);
    if (prev_it != shard.prev_node_ts.end()) {
      c.has_prev_node = true;
      c.prev_node_ts = prev_it->second;
    }
    f.continuations.push_back(c);
  }

  // Feed the flush points through the episode builders (keyed state, no
  // dictionary access), then flush the still-open episodes per entity.
  for (const CriticalPoint& cp : f.critical_points) {
    shards_[ShardOf(cp.report.entity_id)].episode_builder.Process(
        cp, &f.completed_episodes);
  }
  for (Shard& s : shards_) s.episode_builder.Flush(&f.trailing_episodes);
  std::stable_sort(f.trailing_episodes.begin(), f.trailing_episodes.end(),
                   [](const Episode& a, const Episode& b) {
                     return a.entity < b.entity;
                   });

  // Keyed CEP flushes are no-ops today; looped per shard for symmetry.
  for (Shard& s : shards_) s.area_events.Flush(&f.events);
  for (Shard& s : shards_) s.loitering.Flush(&f.events);
  return f;
}

std::vector<Event> DatacronEngine::FinishFromFlushes(
    std::span<KeyedFlush> flushes) {
  std::vector<Event> events;

  // Entity sets are disjoint across flushes (one node owns each entity),
  // and every per-flush list is already grouped by ascending entity, so a
  // stable sort of the concatenation reproduces the order a single
  // engine's flush would have produced.
  std::vector<CriticalPoint> cps;
  std::unordered_map<EntityId, TimestampMs> prev_node_ts;
  std::unordered_set<EntityId> rdf_known;
  for (KeyedFlush& f : flushes) {
    cps.insert(cps.end(), f.critical_points.begin(),
               f.critical_points.end());
    for (const EntityRdfContinuation& c : f.continuations) {
      if (c.has_prev_node) prev_node_ts[c.entity] = c.prev_node_ts;
      if (c.rdf_known) rdf_known.insert(c.entity);
    }
  }
  std::stable_sort(cps.begin(), cps.end(),
                   [](const CriticalPoint& a, const CriticalPoint& b) {
                     return a.report.entity_id < b.report.entity_id;
                   });
  critical_points_ += cps.size();

  std::unordered_map<TermId, StTag> tags;
  std::unordered_map<TermId, NodeGeo> node_geo;
  if (!config_.rdfize_all_reports) {
    for (const CriticalPoint& cp : cps) {
      const EntityId entity = cp.report.entity_id;
      std::unordered_map<EntityId, TermId> prev_node;
      std::unordered_map<EntityId, TermId> known;
      if (rdf_known.count(entity) > 0) {
        known.emplace(entity, dict_.Intern(EntityIri(entity)));
      }
      if (config_.rdf.emit_sequence_links) {
        auto prev_it = prev_node_ts.find(entity);
        if (prev_it != prev_node_ts.end()) {
          prev_node.emplace(
              entity, dict_.Intern(PositionNodeIri(entity, prev_it->second)));
        }
      }
      Rdfizer::Sink sink;
      sink.terms = &dict_;
      sink.tags = &tags;
      sink.node_geo = &node_geo;
      sink.prev_node = &prev_node;
      sink.known_entities = &known;
      rdfizer_->TransformCriticalPointInto(cp, sink, &triples_);
      prev_node_ts[entity] = cp.report.timestamp;
      rdf_known.insert(entity);
    }
  }

  std::vector<Episode> completed;
  std::vector<Episode> trailing;
  for (KeyedFlush& f : flushes) {
    completed.insert(completed.end(), f.completed_episodes.begin(),
                     f.completed_episodes.end());
    trailing.insert(trailing.end(), f.trailing_episodes.begin(),
                    f.trailing_episodes.end());
  }
  const auto by_entity = [](const Episode& a, const Episode& b) {
    return a.entity < b.entity;
  };
  std::stable_sort(completed.begin(), completed.end(), by_entity);
  std::stable_sort(trailing.begin(), trailing.end(), by_entity);
  completed.insert(completed.end(), trailing.begin(), trailing.end());

  Rdfizer::Sink episode_sink;
  episode_sink.terms = &dict_;
  episode_sink.tags = &tags;
  episode_sink.node_geo = &node_geo;
  for (const Episode& e : completed) {
    rdfizer_->TransformEpisodeInto(e, episode_sink, &triples_);
    episodes_.push_back(e);
  }
  rdfizer_->AbsorbSideTables(tags, node_geo, {});

  proximity_.Flush(&events);
  for (KeyedFlush& f : flushes) {
    events.insert(events.end(), f.events.begin(), f.events.end());
  }
  if (capacity_ != nullptr) capacity_->Flush(&events);
  if (hotspots_ != nullptr) hotspots_->Flush(&events);
  return events;
}

TripleStore DatacronEngine::BuildStore(ThreadPool* pool) const {
  TripleStore store;
  store.AddBatch(triples_);
  store.Seal(pool);
  return store;
}

obs::MetricsSnapshot DatacronEngine::MetricsSnapshot() const {
  obs::MetricsSnapshot snap;
  const auto add = [&snap](const char* stage, const OperatorMetrics& m) {
    obs::AddOperatorMetrics(std::string("engine.") + stage + "." + m.name, m,
                            &snap);
  };
  // Per-shard instances of a keyed operator share a name, so adding each
  // merges them.
  for (const Shard& s : shards_) {
    add("synopses", s.detector.metrics());
    add("cep-keyed", s.area_events.metrics());
    add("cep-keyed", s.loitering.metrics());
    add("cep-keyed", s.gap.metrics());
    add("cep-keyed", s.speed_anomaly.metrics());
  }
  add("cep-global", proximity_.metrics());
  if (capacity_ != nullptr) add("cep-global", capacity_->metrics());
  if (hotspots_ != nullptr) add("cep-global", hotspots_->metrics());

  snap.AddHistogram("engine.synopses_ns", synopses_ns_);
  snap.AddHistogram("engine.transform_ns", transform_ns_);
  snap.AddHistogram("engine.trajectory_ns", trajectory_ns_);
  snap.AddHistogram("engine.cep_ns", cep_ns_);
  snap.AddHistogram("engine.total_ns", total_ns_);
  snap.AddCounter("engine.reports", reports_ingested_);
  snap.AddCounter("engine.critical_points", critical_points_);
  snap.AddCounter("engine.triples", triples_.size());
  snap.AddCounter("engine.episodes", episodes_.size());

  snap.AddGauge("engine.admission.policy",
                static_cast<std::int64_t>(config_.admission));
  snap.AddCounter("engine.admission.dropped", admission_dropped_);
  for (const auto& [entity, dropped] : admission_drops_) {
    snap.AddCounter("engine.admission.dropped." + std::to_string(entity),
                    dropped);
  }
  return snap;
}

std::string DatacronEngine::MetricsReport() const {
  return RenderMetricsReport(MetricsSnapshot());
}

std::string RenderMetricsReport(const obs::MetricsSnapshot& snap) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "%-10s %-24s %10s %10s %7s %10s %10s %6s\n", "stage",
                "operator", "items_in", "items_out", "sel%", "p50_ns",
                "p99_ns", "per");
  out += line;
  const auto counter = [&snap](const std::string& name) -> std::uint64_t {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };
  constexpr std::string_view kEngine = "engine.";
  constexpr std::string_view kItemsIn = ".items_in";
  for (const auto& [name, items_in] : snap.counters) {
    // Operator rows are "engine.<stage>.<operator>.items_in".
    if (!name.starts_with(kEngine) || !name.ends_with(kItemsIn)) continue;
    const std::string prefix = name.substr(0, name.size() - kItemsIn.size());
    const std::size_t dot = prefix.find('.', kEngine.size());
    if (dot == std::string::npos) continue;
    const std::string stage =
        prefix.substr(kEngine.size(), dot - kEngine.size());
    const std::string op = prefix.substr(dot + 1);
    const std::uint64_t items_out = counter(prefix + ".items_out");
    const LogHistogram* latency = nullptr;
    const char* unit = "-";
    for (const auto& [suffix, label] : {std::pair{".process_ns", "report"},
                                        std::pair{".epoch_ns", "epoch"}}) {
      const auto it = snap.histograms.find(prefix + suffix);
      if (it != snap.histograms.end()) {
        latency = &it->second;
        unit = label;
        break;
      }
    }
    std::snprintf(
        line, sizeof(line),
        "%-10s %-24s %10llu %10llu %6.1f%% %10.0f %10.0f %6s\n",
        stage.c_str(), op.c_str(), static_cast<unsigned long long>(items_in),
        static_cast<unsigned long long>(items_out),
        items_in == 0 ? 0.0 : 100.0 * items_out / items_in,
        latency == nullptr ? 0.0 : latency->p50(),
        latency == nullptr ? 0.0 : latency->p99(), unit);
    out += line;
  }

  // A lossy admission policy is part of the engine's observable contract,
  // so the report names it even before anything was shed.
  const std::string dropped_name = "engine.admission.dropped";
  const auto policy_it = snap.gauges.find("engine.admission.policy");
  const auto policy = static_cast<AdmissionPolicy>(
      policy_it == snap.gauges.end() ? 0 : policy_it->second);
  const std::uint64_t dropped = counter(dropped_name);
  if (dropped == 0 && policy == AdmissionPolicy::kBlock) return out;
  // Per-entity counters sort right after the total.
  std::vector<std::pair<std::string, std::uint64_t>> by_entity;
  const std::string entity_prefix = dropped_name + ".";
  for (auto it = snap.counters.lower_bound(entity_prefix);
       it != snap.counters.end() && it->first.starts_with(entity_prefix);
       ++it) {
    by_entity.emplace_back(it->first.substr(entity_prefix.size()),
                           it->second);
  }
  std::snprintf(line, sizeof(line),
                "admission: policy=%s dropped=%llu entities_hit=%zu\n",
                AdmissionPolicyName(policy),
                static_cast<unsigned long long>(dropped), by_entity.size());
  out += line;
  // Worst offenders first so the report names who was shed.
  std::stable_sort(by_entity.begin(), by_entity.end(),
                   [](const auto& a, const auto& b) {
                     return a.second > b.second;
                   });
  const std::size_t shown = std::min<std::size_t>(by_entity.size(), 8);
  for (std::size_t i = 0; i < shown; ++i) {
    std::snprintf(line, sizeof(line), "  entity %s: %llu dropped\n",
                  by_entity[i].first.c_str(),
                  static_cast<unsigned long long>(by_entity[i].second));
    out += line;
  }
  return out;
}

std::unique_ptr<AdmissionQueue<PositionReport>>
DatacronEngine::NewAdmissionQueue() const {
  AdmissionQueue<PositionReport>::Options opts;
  opts.capacity = config_.admission_capacity != 0
                      ? config_.admission_capacity
                      : config_.epoch_size * config_.max_epochs_in_flight;
  opts.policy = config_.admission;
  opts.drop_key = [](const PositionReport& r) {
    return static_cast<std::uint64_t>(r.entity_id);
  };
  return std::make_unique<AdmissionQueue<PositionReport>>(std::move(opts));
}

std::vector<Event> DatacronEngine::IngestFromQueue(
    AdmissionQueue<PositionReport>* queue, ThreadPool* pool) {
  std::vector<Event> events;
  for (;;) {
    const std::vector<PositionReport> batch =
        queue->PopBatch(config_.epoch_size * config_.max_epochs_in_flight);
    if (batch.empty()) break;  // closed and drained
    const std::vector<Event> evs = IngestBatch(batch, pool);
    events.insert(events.end(), evs.begin(), evs.end());
  }
  RecordAdmissionDrops(*queue);
  return events;
}

void DatacronEngine::RecordAdmissionDrops(
    const AdmissionQueue<PositionReport>& queue) {
  admission_dropped_ = queue.dropped();
  admission_drops_ = queue.DropsByKey();
}

}  // namespace datacron
