// Byte-identity of the sharded engine runtime: IngestBatch at any shard
// count must reproduce the serial Ingest loop exactly — events, triples,
// episodes, trajectories and dictionary ids. Also unit-covers the
// ShardedRuntime scheduling invariants, OperatorMetrics::Merge and the
// engine's MetricsSnapshot (latency units, per-engine counts).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/thread_pool.h"
#include "datacron/engine.h"
#include "obs/metrics.h"
#include "sources/adsb_generator.h"
#include "sources/ais_generator.h"
#include "stream/operator.h"
#include "stream/sharded_runtime.h"

namespace datacron {
namespace {

// ---------------------------------------------------------------------
// ShardedRuntime units
// ---------------------------------------------------------------------

struct SlotRecord {
  std::size_t shard = 0;
  std::size_t seq = 0;  // per-shard sequence number at processing time
};

TEST(ShardedRuntimeTest, GlobalStageSeesInputOrderAndKeyedRoutingHolds) {
  constexpr std::size_t kShards = 5;
  std::vector<int> input(1000);
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<int>(i);
  }

  ShardedRuntime<int, SlotRecord>::Options opts;
  opts.num_shards = kShards;
  opts.epoch_size = 16;
  opts.max_epochs_in_flight = 2;
  ShardedRuntime<int, SlotRecord> runtime(opts);

  // Keyed state: one counter per shard, touched only by its own shard.
  std::vector<std::size_t> shard_seq(kShards, 0);
  std::vector<int> consumed;
  std::vector<SlotRecord> records(input.size());

  ThreadPool pool(4);
  runtime.Run(
      std::span<const int>(input), &pool,
      [](const int& v) { return static_cast<std::uint64_t>(v) % 7; },
      [&](std::size_t shard, const int& v, SlotRecord* slot, NoShardArena*) {
        slot->shard = shard;
        slot->seq = shard_seq[shard]++;
        records[static_cast<std::size_t>(v)] = *slot;
      },
      [&](std::span<const int> items, std::span<SlotRecord> slots,
          std::span<NoShardArena>) {
        (void)slots;
        consumed.insert(consumed.end(), items.begin(), items.end());
      });

  // The global stage consumed every item in input order.
  ASSERT_EQ(consumed, input);
  // Every item ran on the shard its key selects, and each shard saw its
  // items in input order (FIFO mailboxes, serialized drains).
  std::vector<std::size_t> expect_seq(kShards, 0);
  for (std::size_t i = 0; i < input.size(); ++i) {
    const std::size_t shard = (i % 7) % kShards;
    EXPECT_EQ(records[i].shard, shard);
    EXPECT_EQ(records[i].seq, expect_seq[shard]++);
  }
}

TEST(ShardedRuntimeTest, SerialFallbackStillRoutesByKey) {
  ShardedRuntime<int, std::size_t>::Options opts;
  opts.num_shards = 4;
  opts.epoch_size = 8;
  ShardedRuntime<int, std::size_t> runtime(opts);

  std::vector<int> input = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
  std::vector<std::size_t> shards_seen;
  obs::Counter* epochs = obs::MetricsRegistry::Global().counter("shard.epochs");
  const std::uint64_t epochs_before = epochs->Value();
  runtime.Run(
      std::span<const int>(input), /*pool=*/nullptr,
      [](const int& v) { return static_cast<std::uint64_t>(v); },
      [&](std::size_t shard, const int& v, std::size_t* slot, NoShardArena*) {
        *slot = shard;
        EXPECT_EQ(shard, static_cast<std::size_t>(v) % 4);
        shards_seen.push_back(shard);
      },
      [](std::span<const int>, std::span<std::size_t>,
         std::span<NoShardArena>) {});
  EXPECT_EQ(shards_seen.size(), input.size());
  // The inline path counts its epochs like the pooled one: 12 items in
  // epochs of 8.
  EXPECT_EQ(epochs->Value() - epochs_before, 2u);
}

TEST(ShardedRuntimeTest, KeyedExceptionPropagatesWithoutHanging) {
  ShardedRuntime<int, int>::Options opts;
  opts.num_shards = 3;
  opts.epoch_size = 4;
  ShardedRuntime<int, int> runtime(opts);

  std::vector<int> input(64);
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<int>(i);
  }
  ThreadPool pool(2);
  EXPECT_THROW(
      runtime.Run(
          std::span<const int>(input), &pool,
          [](const int& v) { return static_cast<std::uint64_t>(v); },
          [](std::size_t, const int& v, int* slot, NoShardArena*) {
            if (v == 17) throw std::runtime_error("keyed stage failure");
            *slot = v;
          },
          [](std::span<const int>, std::span<int>, std::span<NoShardArena>) {
          }),
      std::runtime_error);
}

TEST(ShardedRuntimeTest, ArenasAccumulatePerShardPerEpoch) {
  struct Watermark {
    std::size_t shard = 0;
    std::size_t end = 0;  // arena size after this item ran
  };
  ShardedRuntime<int, Watermark, std::vector<int>>::Options opts;
  opts.num_shards = 3;
  opts.epoch_size = 10;
  ShardedRuntime<int, Watermark, std::vector<int>> runtime(opts);

  std::vector<int> input(100);
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<int>(i);
  }
  ThreadPool pool(4);
  std::vector<int> replayed;
  runtime.Run(
      std::span<const int>(input), &pool,
      [](const int& v) { return static_cast<std::uint64_t>(v); },
      [](std::size_t shard, const int& v, Watermark* slot,
         std::vector<int>* arena) {
        arena->push_back(v);
        slot->shard = shard;
        slot->end = arena->size();
      },
      [&](std::span<const int> items, std::span<Watermark> slots,
          std::span<std::vector<int>> arenas) {
        // Fresh arenas every epoch, one per shard; per-item watermarks
        // slice them back into input order.
        ASSERT_EQ(arenas.size(), 3u);
        std::size_t total = 0;
        for (const std::vector<int>& a : arenas) total += a.size();
        EXPECT_EQ(total, items.size());
        std::vector<std::size_t> cursor(arenas.size(), 0);
        for (std::size_t i = 0; i < items.size(); ++i) {
          const Watermark& wm = slots[i];
          ASSERT_EQ(wm.end, cursor[wm.shard] + 1);
          replayed.push_back(arenas[wm.shard][cursor[wm.shard]]);
          cursor[wm.shard] = wm.end;
        }
      });
  EXPECT_EQ(replayed, input);
}

// ---------------------------------------------------------------------
// OperatorMetrics::Merge
// ---------------------------------------------------------------------

TEST(OperatorMetricsTest, MergeFoldsPerShardCopies) {
  FilterOperator<int> even_a("evens", [](const int& v) { return v % 2 == 0; });
  FilterOperator<int> even_b("evens", [](const int& v) { return v % 2 == 0; });
  std::vector<int> out;
  for (int i = 0; i < 10; ++i) even_a.ProcessCounted(i, &out);
  for (int i = 10; i < 30; ++i) even_b.ProcessCounted(i, &out);

  OperatorMetrics merged;
  merged.Merge(even_a.metrics());
  merged.Merge(even_b.metrics());
  EXPECT_EQ(merged.name, "evens");
  EXPECT_EQ(merged.items_in, 30u);
  EXPECT_EQ(merged.items_out, 15u);
  EXPECT_DOUBLE_EQ(merged.SelectivityPct(), 50.0);
  EXPECT_EQ(merged.epoch_ns.count(), 0u);
  EXPECT_EQ(merged.latency_ns.count(), 30u);
  EXPECT_GE(merged.latency_ns.p99(), merged.latency_ns.p50());
}

// ---------------------------------------------------------------------
// Engine byte-identity
// ---------------------------------------------------------------------

DatacronEngine::Config ShardConfig(std::size_t num_shards,
                                   std::size_t epoch_size) {
  DatacronEngine::Config cfg;
  cfg.areas.push_back(NamedArea{
      "port_alpha", Polygon::Rectangle(BoundingBox::Of(36, 24, 36.5, 24.5))});
  cfg.sectors.push_back(CapacityMonitor::Sector{
      "aegean", Polygon::Rectangle(BoundingBox::Of(35.0, 23.0, 39.0, 27.0)),
      5});
  cfg.hotspot_window = 10 * kMinute;
  cfg.hotspot.zscore_threshold = 2.0;
  cfg.gap.gap_threshold = 5 * kMinute;
  cfg.synopses.gap_threshold = 5 * kMinute;
  cfg.num_shards = num_shards;
  cfg.epoch_size = epoch_size;
  return cfg;
}

/// Mixed AIS + ADS-B replay merged in arrival order, with an injected
/// per-entity silence so gap events and gap critical points exercise the
/// shard continuation state (including across epoch boundaries).
std::vector<PositionReport> MixedStream() {
  AisGeneratorConfig fleet;
  fleet.num_vessels = 12;
  fleet.duration = 40 * kMinute;
  ObservationConfig obs;
  obs.fixed_interval_ms = 15 * kSecond;
  std::vector<PositionReport> ais = ObserveFleet(GenerateAisFleet(fleet), obs);

  AdsbGeneratorConfig air;
  air.region = BoundingBox::Of(35.0, 23.0, 39.0, 27.0);
  air.num_airports = 4;
  air.num_flights = 6;
  air.duration = 40 * kMinute;
  air.departure_window = 10 * kMinute;
  std::vector<PositionReport> adsb;
  ObservationConfig air_obs;
  air_obs.fixed_interval_ms = 10 * kSecond;
  adsb = ObserveFleet(GenerateAdsbTraffic(air), air_obs);

  std::vector<PositionReport> merged;
  merged.reserve(ais.size() + adsb.size());
  merged.insert(merged.end(), ais.begin(), ais.end());
  merged.insert(merged.end(), adsb.begin(), adsb.end());
  std::sort(merged.begin(), merged.end(), ReportTimeOrder());

  // Silence one vessel for 20 minutes mid-stream: drop its reports in
  // the window so the detector sees a communication gap on reappearance.
  const EntityId silenced = merged.front().entity_id;
  const TimestampMs t0 = merged.front().timestamp + 10 * kMinute;
  const TimestampMs t1 = t0 + 20 * kMinute;
  std::erase_if(merged, [&](const PositionReport& r) {
    return r.entity_id == silenced && r.timestamp >= t0 && r.timestamp < t1;
  });
  return merged;
}

struct EngineRun {
  std::vector<Event> events;
  std::vector<Triple> triples;
  std::vector<Episode> episodes;
  std::size_t critical_points = 0;
  std::size_t reports = 0;
  std::size_t dict_size = 0;
  std::size_t entity_count = 0;
  std::size_t total_points = 0;
};

EngineRun Snapshot(DatacronEngine* engine, std::vector<Event> events) {
  EngineRun run;
  run.events = std::move(events);
  run.triples = engine->triples();
  run.episodes = engine->episodes();
  run.critical_points = engine->critical_points();
  run.reports = engine->reports_ingested();
  run.dict_size = engine->dictionary()->size();
  run.entity_count = engine->trajectories().EntityCount();
  run.total_points = engine->trajectories().TotalPoints();
  return run;
}

EngineRun RunSerial(const std::vector<PositionReport>& stream,
                    bool rdfize_all = false) {
  DatacronEngine::Config cfg = ShardConfig(1, 1024);
  cfg.rdfize_all_reports = rdfize_all;
  DatacronEngine engine(cfg);
  std::vector<Event> events;
  for (const PositionReport& r : stream) {
    const auto evs = engine.Ingest(r);
    events.insert(events.end(), evs.begin(), evs.end());
  }
  const auto final_events = engine.Finish();
  events.insert(events.end(), final_events.begin(), final_events.end());
  return Snapshot(&engine, std::move(events));
}

EngineRun RunSharded(const std::vector<PositionReport>& stream,
                     std::size_t shards, std::size_t epoch_size,
                     ThreadPool* pool, bool rdfize_all = false) {
  DatacronEngine::Config cfg = ShardConfig(shards, epoch_size);
  cfg.rdfize_all_reports = rdfize_all;
  DatacronEngine engine(cfg);
  std::vector<Event> events = engine.IngestBatch(stream, pool);
  const auto final_events = engine.Finish();
  events.insert(events.end(), final_events.begin(), final_events.end());
  return Snapshot(&engine, std::move(events));
}

void ExpectIdentical(const EngineRun& a, const EngineRun& b) {
  EXPECT_EQ(a.reports, b.reports);
  EXPECT_EQ(a.critical_points, b.critical_points);
  EXPECT_EQ(a.dict_size, b.dict_size);
  EXPECT_EQ(a.entity_count, b.entity_count);
  EXPECT_EQ(a.total_points, b.total_points);
  ASSERT_EQ(a.events.size(), b.events.size());
  EXPECT_TRUE(a.events == b.events);
  ASSERT_EQ(a.triples.size(), b.triples.size());
  EXPECT_TRUE(a.triples == b.triples);
  ASSERT_EQ(a.episodes.size(), b.episodes.size());
  EXPECT_TRUE(a.episodes == b.episodes);
}

TEST(EngineShardTest, ByteIdenticalAcrossShardCounts) {
  const auto stream = MixedStream();
  ASSERT_GT(stream.size(), 1000u);
  const EngineRun serial = RunSerial(stream);
  ASSERT_FALSE(serial.events.empty());
  ASSERT_FALSE(serial.triples.empty());
  ASSERT_FALSE(serial.episodes.empty());
  // The injected silence produced gap events through the sharded state.
  bool has_gap = false;
  for (const Event& e : serial.events) {
    if (e.kind == EventKind::kGap) has_gap = true;
  }
  EXPECT_TRUE(has_gap);

  ThreadPool pool(4);
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(shards);
    const EngineRun run = RunSharded(stream, shards, 128, &pool);
    ExpectIdentical(serial, run);
  }
}

TEST(EngineShardTest, ByteIdenticalAtEpochBoundaryEdgeCases) {
  const auto stream = MixedStream();
  const EngineRun serial = RunSerial(stream);
  ThreadPool pool(4);
  // Tiny epochs force gap/flush edge cases to straddle epoch barriers;
  // max-in-flight 4 keeps several epochs live at once.
  for (const std::size_t epoch_size : {1u, 32u}) {
    SCOPED_TRACE(epoch_size);
    const EngineRun run = RunSharded(stream, 4, epoch_size, &pool);
    ExpectIdentical(serial, run);
  }
}

TEST(EngineShardTest, ByteIdenticalWhenEpochExceedsBatch) {
  // One epoch swallows the whole stream: the coalesced per-epoch merge
  // runs exactly once and must still replay input order.
  const auto stream = MixedStream();
  const EngineRun serial = RunSerial(stream);
  ThreadPool pool(4);
  const EngineRun run =
      RunSharded(stream, 4, stream.size() * 2, &pool);
  ExpectIdentical(serial, run);
}

TEST(EngineShardTest, ByteIdenticalWhenBatchesStraddleEpochFlushes) {
  // Feed IngestBatch in uneven chunks that never align with the epoch
  // size, so shard-epoch arenas are cut mid-entity and continuation
  // state (sequence links, gap detection) must survive the seams.
  const auto stream = MixedStream();
  const EngineRun serial = RunSerial(stream);
  ThreadPool pool(4);
  DatacronEngine engine(ShardConfig(4, 128));
  std::vector<Event> events;
  const std::span<const PositionReport> all(stream);
  for (std::size_t pos = 0; pos < all.size(); pos += 777) {
    const auto evs =
        engine.IngestBatch(all.subspan(pos, std::min<std::size_t>(
                                                777, all.size() - pos)),
                           &pool);
    events.insert(events.end(), evs.begin(), evs.end());
  }
  const auto final_events = engine.Finish();
  events.insert(events.end(), final_events.begin(), final_events.end());
  ExpectIdentical(serial, Snapshot(&engine, std::move(events)));
}

TEST(EngineShardTest, ByteIdenticalWhenRdfizingAllReports) {
  const auto stream = MixedStream();
  const EngineRun serial = RunSerial(stream, /*rdfize_all=*/true);
  ThreadPool pool(4);
  const EngineRun run =
      RunSharded(stream, 4, 128, &pool, /*rdfize_all=*/true);
  ExpectIdentical(serial, run);
}

TEST(EngineShardTest, NullPoolFallbackMatchesSerial) {
  const auto stream = MixedStream();
  const EngineRun serial = RunSerial(stream);
  const EngineRun run = RunSharded(stream, 4, 128, /*pool=*/nullptr);
  ExpectIdentical(serial, run);
}

TEST(EngineShardTest, MixedIngestThenBatchMatchesSerial) {
  const auto stream = MixedStream();
  const EngineRun serial = RunSerial(stream);

  DatacronEngine engine(ShardConfig(4, 128));
  ThreadPool pool(4);
  std::vector<Event> events;
  const std::size_t half = stream.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    const auto evs = engine.Ingest(stream[i]);
    events.insert(events.end(), evs.begin(), evs.end());
  }
  const auto batch_events = engine.IngestBatch(
      std::span<const PositionReport>(stream).subspan(half), &pool);
  events.insert(events.end(), batch_events.begin(), batch_events.end());
  const auto final_events = engine.Finish();
  events.insert(events.end(), final_events.begin(), final_events.end());
  ExpectIdentical(serial, Snapshot(&engine, std::move(events)));
}

TEST(EngineShardTest, MetricsReportCoversAllDetectors) {
  DatacronEngine engine(ShardConfig(4, 128));
  ThreadPool pool(2);
  const auto stream = MixedStream();
  engine.IngestBatch(stream, &pool);
  const std::string report = engine.MetricsReport();
  for (const char* name :
       {"critical_point_detector", "area_event_detector",
        "loitering_detector", "gap_detector", "speed_anomaly_detector",
        "proximity_detector", "capacity_monitor", "hotspot_detector"}) {
    EXPECT_NE(report.find(name), std::string::npos) << name;
  }
  // The merged keyed rows account for every report exactly once.
  EXPECT_NE(report.find("cep-keyed"), std::string::npos);
  EXPECT_NE(report.find("cep-global"), std::string::npos);
}

// ---------------------------------------------------------------------
// Engine metrics snapshot
// ---------------------------------------------------------------------

std::set<std::string> MetricNames(const obs::MetricsSnapshot& snap) {
  std::set<std::string> names;
  for (const auto& [name, v] : snap.counters) names.insert(name);
  for (const auto& [name, v] : snap.gauges) names.insert(name);
  for (const auto& [name, h] : snap.histograms) names.insert(name);
  return names;
}

TEST(EngineMetricsTest, EpochBatchSamplesHaveTheirOwnHistogram) {
  const auto stream = MixedStream();
  DatacronEngine serial(ShardConfig(1, 1024));
  for (const PositionReport& r : stream) serial.Ingest(r);
  DatacronEngine sharded(ShardConfig(2, 128));
  ThreadPool pool(2);
  sharded.IngestBatch(stream, &pool);

  const std::string prox = "engine.cep-global.proximity_detector";
  // Serial Ingest is an epoch of one report.
  for (const auto& [engine, epochs] :
       {std::pair{&serial, stream.size()},
        std::pair{&sharded, (stream.size() + 127) / 128}}) {
    SCOPED_TRACE(engine->num_shards());
    obs::MetricsSnapshot snap = engine->MetricsSnapshot();
    EXPECT_EQ(snap.histograms.count(prox + ".process_ns"), 0u);
    EXPECT_EQ(snap.histograms[prox + ".epoch_ns"].count(), epochs);
    EXPECT_EQ(snap.counters[prox + ".items_in"], stream.size());
    for (const auto& [name, h] : snap.histograms) {
      if (!name.ends_with(".epoch_ns")) continue;
      const std::string op = name.substr(0, name.size() - 9);
      EXPECT_EQ(snap.histograms.count(op + ".process_ns"), 0u) << name;
    }
  }
}

TEST(EngineMetricsTest, TwoEnginesInOneProcessKeepDisjointMetrics) {
  const auto stream = MixedStream();
  const std::span<const PositionReport> all(stream);
  const std::size_t short_len = stream.size() / 3;
  DatacronEngine a(ShardConfig(1, 1024));
  DatacronEngine b(ShardConfig(2, 64));
  ThreadPool pool(2);
  // Interleave the two engines' work.
  for (const PositionReport& r : all.first(stream.size() / 2)) a.Ingest(r);
  b.IngestBatch(all.first(short_len), &pool);
  for (const PositionReport& r : all.subspan(stream.size() / 2)) a.Ingest(r);

  const std::set<std::string> global =
      MetricNames(obs::MetricsRegistry::Global().Snapshot());
  for (const auto& [engine, reports] :
       {std::pair{&a, stream.size()}, std::pair{&b, short_len}}) {
    SCOPED_TRACE(reports);
    obs::MetricsSnapshot snap = engine->MetricsSnapshot();
    EXPECT_EQ(snap.counters["engine.reports"], reports);
    for (const char* stage :
         {"engine.synopses_ns", "engine.transform_ns", "engine.trajectory_ns",
          "engine.cep_ns", "engine.total_ns"}) {
      EXPECT_EQ(snap.histograms[stage].count(), reports) << stage;
    }
    std::size_t operators = 0;
    for (const auto& [name, items_in] : snap.counters) {
      if (!name.ends_with(".items_in")) continue;
      ++operators;
      EXPECT_EQ(items_in, reports) << name;
    }
    EXPECT_EQ(operators, 8u);
    for (const std::string& name : MetricNames(snap)) {
      EXPECT_EQ(global.count(name), 0u) << name;
    }
  }
}

}  // namespace
}  // namespace datacron
