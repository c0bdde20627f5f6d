#ifndef DATACRON_DATACRON_ENGINE_H_
#define DATACRON_DATACRON_ENGINE_H_

#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cep/anomaly.h"
#include "cep/detectors.h"
#include "cep/event.h"
#include "cep/hotspot.h"
#include "common/flat_hash.h"
#include "common/stats.h"
#include "forecast/kinematic.h"
#include "obs/metrics.h"
#include "link/link_discovery.h"
#include "rdf/rdfizer.h"
#include "rdf/triple_store.h"
#include "sources/model.h"
#include "stream/admission.h"
#include "stream/operator.h"
#include "sub/registry.h"
#include "synopses/critical_points.h"
#include "trajectory/episodes.h"
#include "trajectory/trajectory_store.h"

namespace datacron {

/// Per-entity RDF continuation state a keyed shard holds between reports,
/// exported at flush time so the coordinator (cluster Finish, see
/// FlushKeyed/FinishFromFlushes) can reconstruct sequence links and
/// entity-typing decisions for the trailing critical points.
struct EntityRdfContinuation {
  EntityId entity = 0;
  /// Timestamp of the entity's last emitted RDF node (valid when
  /// has_prev_node); the node IRI is reconstructed from it.
  bool has_prev_node = false;
  TimestampMs prev_node_ts = 0;
  /// Entity-level typing triples were already emitted for this entity.
  bool rdf_known = false;

  bool operator==(const EntityRdfContinuation&) const = default;
};

/// Everything the keyed half of the engine emits when its stateful
/// operators are flushed at end-of-stream — the unit a cluster node ships
/// to the coordinator so the final merge runs in one place, in the same
/// order a single-process Finish would use.
struct KeyedFlush {
  /// Trajectory-end (and friends) critical points, ascending entity order.
  std::vector<CriticalPoint> critical_points;
  /// Continuation state for every entity appearing in critical_points.
  std::vector<EntityRdfContinuation> continuations;
  /// Episodes completed by feeding critical_points through the builders.
  std::vector<Episode> completed_episodes;
  /// Still-open episodes flushed from the builders, ascending entity.
  std::vector<Episode> trailing_episodes;
  /// Keyed CEP flush events (empty for today's detectors).
  std::vector<Event> events;

  bool operator==(const KeyedFlush&) const = default;
};

/// The overall datAcron architecture (paper Section 2) as one object:
///
///   data sources -> in-situ processing (synopses) -> data transformation
///   (RDF-ization) -> store  +  analytics (trajectory mgmt, CEP,
///   forecasting) fed directly from the stream.
///
/// Ingest() pushes one report through every stage and accounts wall time
/// per stage — the "operational latency in ms" requirement of Section 4
/// is validated by E10 over the engine.*_ns histograms of
/// MetricsSnapshot().
///
/// The engine is key-partitioned: every per-entity ("keyed") operator —
/// synopses, keyed CEP detectors, episode building, per-entity RDF
/// continuation state — lives in one of `Config::num_shards` shards,
/// selected by hashing the entity id. The cross-entity ("global") stages —
/// proximity/capacity/hotspot CEP, dictionary merge, trajectory store,
/// predictor — run on the calling thread in input order. One unit crosses
/// from the keyed half to the global half: a shard-epoch arena
/// (EpochArena) plus one slot per report (ShardSlot), absorbed by
/// AbsorbEpoch. Serial Ingest is an epoch of one report, IngestBatch fills
/// one arena per shard per epoch on a ThreadPool via ShardedRuntime, and a
/// cluster node ships one arena per epoch over the wire. Events, triples,
/// episodes, trajectories and dictionary ids are therefore byte-identical
/// to a serial run at any shard or node count (see DESIGN.md, "Sharded
/// online engine").
class DatacronEngine {
 public:
  struct Config {
    BoundingBox region = BoundingBox::Of(35.0, 23.0, 39.0, 27.0);
    CriticalPointConfig synopses;
    Rdfizer::Config rdf;
    ProximityDetector::Config proximity;
    LoiteringDetector::Config loitering;
    GapDetector::Config gap;
    SpeedAnomalyDetector::Config speed_anomaly;
    std::vector<NamedArea> areas;
    /// ATM-style capacity-monitored sectors (empty = monitor disabled).
    std::vector<CapacityMonitor::Sector> sectors;
    CapacityMonitor::Config capacity;
    /// Hotspot analysis window (0 = hotspot detection disabled).
    DurationMs hotspot_window = 0;
    HotspotAnalyzer::Config hotspot;
    /// RDF-ize every report instead of only critical points (costlier;
    /// default keeps the synopses-compressed path the paper advocates).
    bool rdfize_all_reports = false;
    /// Keyed-state partitions (clamped to >= 1). IngestBatch runs them in
    /// parallel; output is identical at any value.
    std::size_t num_shards = 1;
    /// Reports per epoch of the sharded runtime and the cluster (clamped
    /// to >= 1).
    std::size_t epoch_size = 1024;
    /// Epochs the router may run ahead of the in-order merge stage
    /// (clamped to >= 1).
    std::size_t max_epochs_in_flight = 4;
    /// What a live push source does when the in-flight window is full
    /// (see NewAdmissionQueue / IngestFromQueue).
    AdmissionPolicy admission = AdmissionPolicy::kBlock;
    /// Admission buffer capacity; 0 derives the in-flight window
    /// (epoch_size * max_epochs_in_flight).
    std::size_t admission_capacity = 0;
  };

  explicit DatacronEngine(Config config);

  /// The configuration in effect, after clamping.
  const Config& config() const { return config_; }

  /// Processes one report through all stages; returns the complex events
  /// it triggered. This is an epoch of one report: the report runs through
  /// its shard inline into one arena, then through AbsorbEpoch.
  std::vector<Event> Ingest(const PositionReport& report);

  /// Processes a batch through the sharded runtime: keyed stages in
  /// parallel on `pool` (null pool or a single shard degrade to the
  /// serial path), global stages on the calling thread in input order.
  /// Returns the concatenated events in the same order a serial
  /// report-by-report Ingest loop would produce.
  std::vector<Event> IngestBatch(std::span<const PositionReport> reports,
                                 ThreadPool* pool);

  /// Drains a live push source: repeatedly pops admitted batches from
  /// `queue` and runs them through IngestBatch until the queue is closed
  /// and empty. With Config::admission == kBlock the source stalls when
  /// the engine lags; with kDropOldest stale reports are shed at the
  /// queue (queue->dropped() counts them) and everything admitted is
  /// still processed in arrival order.
  std::vector<Event> IngestFromQueue(AdmissionQueue<PositionReport>* queue,
                                     ThreadPool* pool);

  /// Builds the admission buffer matching this engine's configuration:
  /// capacity = Config::admission_capacity (default: the in-flight window
  /// epoch_size * max_epochs_in_flight) and policy = Config::admission.
  /// The queue counts kDropOldest evictions per entity id.
  std::unique_ptr<AdmissionQueue<PositionReport>> NewAdmissionQueue() const;

  /// Copies `queue`'s cumulative shedding totals (dropped() and
  /// DropsByKey()) into this engine so MetricsReport()/MetricsSnapshot()
  /// can attribute load shedding. IngestFromQueue calls it on drain; the
  /// cluster coordinator calls it for its own queue loop.
  void RecordAdmissionDrops(const AdmissionQueue<PositionReport>& queue);

  /// Flushes stateful operators (trajectory ends, last windows).
  /// Per-shard flush outputs are merged in ascending entity order, so the
  /// result is independent of the shard count. Equivalent to
  /// FinishFromFlushes over this engine's own FlushKeyed().
  std::vector<Event> Finish();

  // -- the keyed->global handoff -------------------------------------
  //
  // Every executor hands the global half the same unit: per shard-epoch,
  // one EpochArena holding everything the keyed stage produced, and per
  // report, one ShardSlot whose watermarks cut the arena back into
  // per-report slices. AbsorbEpoch is the only way keyed output enters
  // global state. The executors differ only in where an arena's new terms
  // live until the merge:
  //
  //  - serial Ingest: an epoch of one report, interned straight into this
  //    engine's dictionary (nothing left to merge);
  //  - IngestBatch: one arena per shard per epoch, each interning into its
  //    own TermBatch on a pool worker;
  //  - cluster: a node runs its sub-batch into one arena against its own
  //    dictionary (ProcessKeyedEpoch) and ships it with that dictionary's
  //    epoch delta; the coordinator passes the decoded arenas and its
  //    persistent per-node remaps to AbsorbEpoch, and runs FinishFromFlushes
  //    over every node's FlushKeyed at end-of-stream.

  /// Per-report slot: scalar results plus watermarks into the report's
  /// arena — buffer sizes *after* the report ran; the previous report of
  /// the same arena (or 0) starts the slice.
  struct ShardSlot {
    /// Index of the report's arena in the epoch: its shard in-process, its
    /// node in a cluster (set by the coordinator, not shipped).
    std::uint32_t arena = 0;
    std::uint32_t cp_count = 0;
    /// New terms the global stage still has to import, counted from the
    /// arena's start (0 when the keyed stage interned into this engine's
    /// dictionary directly).
    std::size_t terms_end = 0;
    std::size_t triples_end = 0;
    std::size_t episodes_end = 0;
    std::size_t events_end = 0;
    std::size_t subs_end = 0;
    std::int64_t synopses_ns = 0;
    std::int64_t transform_ns = 0;
    std::int64_t keyed_cep_ns = 0;

    bool operator==(const ShardSlot&) const = default;
  };

  /// Everything one shard's (or one node's) reports of one epoch produce,
  /// in contiguous buffers. Term ids are real ids of this engine's
  /// dictionary, or arena-local ids (kLocalTermBit | i) that AbsorbEpoch
  /// resolves through the arena's remap.
  struct EpochArena {
    /// The arena's new terms in first-occurrence order, when they are not
    /// in this engine's dictionary yet: a TermBatch (IngestBatch on a
    /// pool) or a cluster node's decoded dictionary delta. Neither is set
    /// when the keyed stage interned straight into the dictionary.
    std::unique_ptr<TermBatch> terms;
    std::vector<TermExport> new_terms;
    std::vector<Triple> triples;
    std::vector<Episode> episodes;
    std::vector<Event> events;  // keyed CEP events
    std::unordered_map<TermId, StTag> tags;
    std::unordered_map<TermId, NodeGeo> node_geo;
    /// Subscription deltas in report order (sliced via subs_end) and the
    /// epoch's hotspot counts by subscription id.
    std::vector<SubDelta> sub_deltas;
    FlatHashMap<std::uint64_t, double> sub_counts;

    /// Empties every buffer, keeping capacity for reuse.
    void Clear();
  };

  /// The keyed half of one epoch on a cluster node: runs `reports` in
  /// order through their shards into the single `arena` (cleared first),
  /// interning straight into this engine's dictionary, and writes one
  /// slot per report. Because that dictionary is not the global one, each
  /// slot's terms_end counts the dictionary's growth since the call began.
  void ProcessKeyedEpoch(std::span<const PositionReport> reports,
                         std::vector<ShardSlot>* slots, EpochArena* arena);

  /// The global half of one epoch, on the calling thread. `slots[i]`
  /// belongs to `items[i]` and names its arena; `remaps[a]` is arena a's
  /// local-id table, which phase 1 extends — empty and fresh per epoch
  /// in-process, the node's persistent table in a cluster.
  ///
  ///  1. Imports each report's slice of new terms in input order, so every
  ///     term gets its id at its first occurrence in the input, exactly as
  ///     a serial run assigns it.
  ///  2. Rewrites arena-local ids through the remaps in bulk and absorbs
  ///     the side tables.
  ///  3. Runs proximity once over the epoch (candidate CPA pairs evaluated
  ///     cell-parallel on `pool`; null = inline), then walks the reports in
  ///     input order, splicing their slices and running the remaining
  ///     global CEP and the subscription barrier; closes the subscription
  ///     epoch.
  ///
  /// Never fails: a caller holding untrusted arenas (the cluster
  /// coordinator) validates them first.
  void AbsorbEpoch(std::span<const PositionReport> items,
                   std::span<ShardSlot> slots, std::span<EpochArena> arenas,
                   std::span<std::vector<TermId>> remaps,
                   std::vector<Event>* events, ThreadPool* pool);

  /// Drains this engine's keyed state (detector + builder flushes and the
  /// RDF continuation tables) without running any global stage or
  /// touching the dictionary — the node half of Finish.
  KeyedFlush FlushKeyed();

  /// The coordinator half of Finish: merges any number of keyed flushes
  /// (entity sets must be disjoint — each entity lives on one node) in
  /// ascending entity order, transforms the trailing critical points and
  /// episodes against this engine's dictionary, and flushes the global
  /// detectors. With a single flush from the same engine this is exactly
  /// the serial Finish.
  std::vector<Event> FinishFromFlushes(std::span<KeyedFlush> flushes);

  // -- continuous-query subscriptions (src/sub) -----------------------

  /// The standing-query registry evaluated inside this engine's shards.
  /// Register/unregister between ingest calls (control plane and data
  /// plane are phased); deltas are coalesced and pushed when AbsorbEpoch
  /// closes an epoch — after every report on serial Ingest, the
  /// epoch-of-one case.
  SubscriptionRegistry* subscriptions() { return subs_.get(); }
  const SubscriptionRegistry* subscriptions() const { return subs_.get(); }

  // -- component access -----------------------------------------------

  const TrajectoryStore& trajectories() const { return trajectories_; }
  TermDictionary* dictionary() { return &dict_; }
  const TermDictionary& dictionary() const { return dict_; }
  const Vocab& vocab() const { return *vocab_; }
  Rdfizer* rdfizer() { return rdfizer_.get(); }

  /// All triples produced so far (synopses path + links); sealed copy.
  const std::vector<Triple>& triples() const { return triples_; }

  /// Semantic-trajectory episodes completed so far (stop/move/gap per
  /// entity, derived online from the synopsis and also RDF-ized).
  const std::vector<Episode>& episodes() const { return episodes_; }

  /// Convenience: sealed single-node store over triples(). With a pool,
  /// sealing (the three permutation sorts) runs on the pool.
  TripleStore BuildStore(ThreadPool* pool = nullptr) const;

  /// Dead-reckoning predictor fed from the live stream (always-on cheap
  /// forecaster; heavier predictors are offline-trained, see forecast/).
  const DeadReckoningPredictor& predictor() const { return predictor_; }

  // -- observability -------------------------------------------------

  std::size_t reports_ingested() const { return reports_ingested_; }
  std::size_t critical_points() const { return critical_points_; }
  std::size_t num_shards() const { return shards_.size(); }

  /// This engine's metrics, and nothing else's (the process-wide
  /// registry is not folded in):
  ///  - per operator, "engine.<stage>.<operator>.items_in/items_out"
  ///    counters and a latency histogram, "process_ns" (one sample per
  ///    report) or "epoch_ns" (one per epoch batch); keyed operators are
  ///    merged across shards;
  ///  - per report, the stage histograms "engine.synopses_ns",
  ///    "engine.transform_ns", "engine.trajectory_ns", "engine.cep_ns"
  ///    and "engine.total_ns";
  ///  - the totals "engine.reports", "engine.critical_points",
  ///    "engine.triples" and "engine.episodes";
  ///  - admission shedding: "engine.admission.policy" (gauge),
  ///    "engine.admission.dropped" and one
  ///    "engine.admission.dropped.<entity>" counter per entity shed.
  /// Snapshots of several engines (a cluster's nodes and coordinator)
  /// merge with obs::MetricsSnapshot::Merge.
  obs::MetricsSnapshot MetricsSnapshot() const;

  /// RenderMetricsReport(MetricsSnapshot()).
  std::string MetricsReport() const;

 private:
  /// All keyed (entity-partitioned) state. Each entity is owned by
  /// exactly one shard (ShardOf), so shards never share mutable state and
  /// the keyed stage runs lock-free in parallel.
  struct Shard {
    explicit Shard(const Config& config)
        : detector(config.synopses),
          area_events(config.areas),
          loitering(config.loitering),
          gap(config.gap),
          speed_anomaly(config.speed_anomaly),
          episode_builder(config.areas) {}

    CriticalPointDetector detector;
    AreaEventDetector area_events;
    LoiteringDetector loitering;
    GapDetector gap;
    SpeedAnomalyDetector speed_anomaly;
    EpisodeBuilder episode_builder;
    /// Timestamp of the entity's last emitted RDF node; the previous-node
    /// IRI is reconstructed from it when pre-seeding a transform sink, so
    /// sequence links chain correctly across reports without the shard
    /// holding (possibly batch-local) TermIds.
    std::unordered_map<EntityId, TimestampMs> prev_node_ts;
    /// Entities whose entity-level typing triples were already emitted.
    std::unordered_set<EntityId> rdf_known;
  };

  std::size_t ShardOf(EntityId entity) const;

  /// Keyed stage for one report: synopses, RDF transform, episode
  /// building, keyed CEP and shard-local subscription evaluation. Touches
  /// only shard `shard`'s state and `arena`, and records the slot's
  /// results and watermarks (not its `arena` index, which is the
  /// caller's). With `use_batch` the transform interns into the arena's
  /// TermBatch (created on first use); otherwise straight into dict_.
  void ProcessKeyedArena(std::size_t shard, const PositionReport& report,
                         ShardSlot* slot, EpochArena* arena, bool use_batch);

  /// epoch_remaps_ resized to `n` empty tables: the in-process remaps.
  std::span<std::vector<TermId>> FreshRemaps(std::size_t n);

  Config config_;
  TermDictionary dict_;
  /// Registry instruments for the per-epoch term merge, resolved once at
  /// construction (no static-guard check per epoch).
  obs::Counter* merge_terms_counter_;
  obs::AtomicLogHistogram* merge_terms_hist_;
  std::unique_ptr<Vocab> vocab_;
  std::unique_ptr<Rdfizer> rdfizer_;
  std::vector<Shard> shards_;
  /// Standing-query registry, sharded like shards_. Always constructed;
  /// every hook is guarded by ever_active()/keyed_active() so a
  /// subscription-free stream pays one predictable branch per report.
  std::unique_ptr<SubscriptionRegistry> subs_;
  ProximityDetector proximity_;
  std::unique_ptr<CapacityMonitor> capacity_;   // null when no sectors
  std::unique_ptr<HotspotDetector> hotspots_;   // null when window == 0
  std::vector<Episode> episodes_;
  TrajectoryStore trajectories_;
  DeadReckoningPredictor predictor_;
  std::vector<Triple> triples_;
  /// Per-report stage latencies, one sample per report each.
  LogHistogram synopses_ns_;
  LogHistogram transform_ns_;
  LogHistogram trajectory_ns_;
  LogHistogram cep_ns_;
  LogHistogram total_ns_;
  std::size_t reports_ingested_ = 0;
  std::size_t critical_points_ = 0;
  /// AbsorbEpoch scratch for the epoch-batched proximity stage, reused
  /// across epochs: the epoch's proximity events and the per-report
  /// cumulative offsets that slice them back into input order.
  std::vector<Event> prox_events_;
  std::vector<std::size_t> prox_offsets_;
  /// AbsorbEpoch's per-arena read positions (phase 1 terms, phase 3
  /// slices) and the in-process remaps, reused across epochs.
  struct ArenaCursor {
    std::size_t terms = 0;
    std::size_t triples = 0;
    std::size_t episodes = 0;
    std::size_t events = 0;
    std::size_t subs = 0;
  };
  std::vector<ArenaCursor> absorb_cursors_;
  std::vector<std::vector<TermId>> epoch_remaps_;
  /// Serial Ingest's epoch-of-one scratch, cleared per report.
  EpochArena ingest_arena_;
  ShardSlot ingest_slot_;
  /// Latest admission-queue shedding totals, captured by IngestFromQueue
  /// when its queue closes (cumulative per queue; kBlock leaves them 0).
  std::size_t admission_dropped_ = 0;
  std::vector<std::pair<std::uint64_t, std::size_t>> admission_drops_;
};

/// The stage/operator table of an engine or fleet snapshot: one row per
/// "engine.<stage>.<operator>" operator with items in/out, selectivity
/// and p50/p99 latency, labelled with the latency's unit ("report" for
/// process_ns, "epoch" for epoch_ns). An admission section follows when
/// reports were shed or the policy is lossy: policy, total, entities hit
/// and the worst-hit entities.
std::string RenderMetricsReport(const obs::MetricsSnapshot& snap);

}  // namespace datacron

#endif  // DATACRON_DATACRON_ENGINE_H_
