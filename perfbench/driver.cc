// Open-loop benchmark driver for the datAcron engine.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Each workload runs one executor (serial Ingest, sharded IngestBatch, or
// a loopback LocalCluster) over a seeded AIS fleet. A run is:
//
//   1. inputs from --seed (fleet, NMEA sentences, Poisson arrival
//      schedule, subscription set, churn plan);
//   2. the serial Ingest reference over the same decoded input and its
//      output digest (untimed);
//   3. --trace 0: live repetitions (timed set-up, then the post-warm-up
//      stream offered open loop at the workload's fixed rate, each report
//      timed from its due time) and replay repetitions (timed set-up,
//      then the same stream closed loop), every repetition checked
//      against the reference digest;
//      --trace 1: the per-layer breakdown (see RunLayers).
//
// The last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// A digest mismatch prints correct=false and exits 1.
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "cep/anomaly.h"
#include "cep/detectors.h"
#include "cep/hotspot.h"
#include "cluster/local_cluster.h"
#include "common/flat_hash.h"
#include "common/thread_pool.h"
#include "common/time_utils.h"
#include "datacron/engine.h"
#include "forecast/kinematic.h"
#include "harness.h"
#include "net/codec.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rdf/rdfizer.h"
#include "rdf/vocab.h"
#include "sources/ais_generator.h"
#include "sources/nmea.h"
#include "sub/registry.h"
#include "synopses/critical_points.h"
#include "trajectory/episodes.h"
#include "trajectory/trajectory_store.h"

namespace datacron::perfbench {
namespace {

enum class Exec { kSerial, kSharded, kCluster };

const char* ExecName(Exec e) {
  switch (e) {
    case Exec::kSerial: return "serial";
    case Exec::kSharded: return "sharded";
    case Exec::kCluster: return "cluster";
  }
  return "?";
}

/// One workload. Stream length, rate and subscription counts are fixed
/// here; --seed only changes which fleet, schedule and subscriptions are
/// drawn. The offered rate is a constant, never derived from a capacity
/// measured at run time.
struct Workload {
  const char* name;
  Exec exec;
  BoundingBox region;
  std::size_t vessels;
  DurationMs duration;
  /// Feed AIVDM sentences through DecodeAivdm instead of reports.
  bool nmea;
  /// Proximity is always on; this adds capacity sectors and the hotspot
  /// window (the global CEP stage at full weight).
  bool global_cep;
  double rate_hz;
  std::size_t warmup_reports;
  std::size_t live_reports;
  std::size_t entity_geofences;
  /// > 0: entity geofences all watch this many entities.
  std::size_t hot_entities;
  std::size_t fleet_geofences;
  std::size_t proximity_subs;
  std::size_t hotspot_subs;
  /// Every churn_every post-warm-up reports, churn_quota subscriptions
  /// are unsubscribed and registered again (0 = no churn).
  std::size_t churn_every;
  std::size_t churn_quota;
};

// Why each workload exists (see README.md):
//  coastal_live    serial per-report path (NMEA decode, ReportOutput,
//                  per-report global CEP, epoch-of-one subscription close);
//                  runnable by name but not in BENCHMARK.json, because its
//                  timings spread beyond the bound on a shared host;
//  strait_surge    epoch machinery + global CEP: routing, barrier, term
//                  merge, cell-parallel CPA, capacity, hotspot; runnable
//                  by name but not in BENCHMARK.json, because its timings
//                  followed the load of a shared host beyond the bound;
//  watchlist_fanin subscription fan-in with control-plane churn;
//  cluster_relay   codec, framing, coordinator remap/absorb, in-flight
//                  window of a 2-node loopback cluster.
const Workload kWorkloads[] = {
    {"coastal_live", Exec::kSerial, BoundingBox::Of(35.0, 23.0, 39.0, 27.0),
     /*vessels=*/150, /*duration=*/90 * kMinute, /*nmea=*/true,
     /*global_cep=*/false, /*rate_hz=*/20000.0, /*warmup=*/20000,
     /*live=*/20000, /*entity_geofences=*/1500, /*hot_entities=*/0,
     /*fleet_geofences=*/300, /*proximity_subs=*/200, /*hotspot_subs=*/0,
     /*churn_every=*/0, /*churn_quota=*/0},
    {"strait_surge", Exec::kSharded, BoundingBox::Of(36.0, 24.0, 36.5, 24.5),
     /*vessels=*/300, /*duration=*/40 * kMinute, /*nmea=*/false,
     /*global_cep=*/true, /*rate_hz=*/10000.0, /*warmup=*/15000,
     /*live=*/15000, /*entity_geofences=*/0, /*hot_entities=*/0,
     /*fleet_geofences=*/200, /*proximity_subs=*/0, /*hotspot_subs=*/5,
     /*churn_every=*/0, /*churn_quota=*/0},
    {"watchlist_fanin", Exec::kSharded,
     BoundingBox::Of(35.0, 23.0, 39.0, 27.0),
     /*vessels=*/20, /*duration=*/60 * kMinute, /*nmea=*/false,
     /*global_cep=*/false, /*rate_hz=*/400.0, /*warmup=*/1500,
     /*live=*/1200, /*entity_geofences=*/100000, /*hot_entities=*/20,
     /*fleet_geofences=*/0, /*proximity_subs=*/0, /*hotspot_subs=*/0,
     /*churn_every=*/300, /*churn_quota=*/500},
    {"cluster_relay", Exec::kCluster, BoundingBox::Of(35.0, 23.0, 39.0, 27.0),
     /*vessels=*/300, /*duration=*/40 * kMinute, /*nmea=*/false,
     /*global_cep=*/false, /*rate_hz=*/10000.0, /*warmup=*/20000,
     /*live=*/20000, /*entity_geofences=*/800, /*hot_entities=*/0,
     /*fleet_geofences=*/160, /*proximity_subs=*/40, /*hotspot_subs=*/0,
     /*churn_every=*/0, /*churn_quota=*/0},
};

std::vector<CapacityMonitor::Sector> SectorGrid(const BoundingBox& r) {
  std::vector<CapacityMonitor::Sector> sectors;
  const double dlat = (r.max_lat - r.min_lat) / 4;
  const double dlon = (r.max_lon - r.min_lon) / 4;
  for (int iy = 0; iy < 4; ++iy) {
    for (int ix = 0; ix < 4; ++ix) {
      const double lat0 = r.min_lat + dlat * iy;
      const double lon0 = r.min_lon + dlon * ix;
      CapacityMonitor::Sector s;
      s.name = "s";
      s.name += std::to_string(iy * 4 + ix);
      s.polygon = Polygon::Rectangle(
          BoundingBox::Of(lat0, lon0, lat0 + dlat, lon0 + dlon));
      s.capacity = 8;
      sectors.push_back(std::move(s));
    }
  }
  return sectors;
}

constexpr DurationMs kHotspotWindow = 5 * kMinute;

HotspotAnalyzer::Config HotspotConfig(const BoundingBox& region) {
  HotspotAnalyzer::Config h;
  h.region = region;
  h.cell_deg = (region.max_lat - region.min_lat) / 10;
  return h;
}

DatacronEngine::Config EngineConfig(const Workload& w) {
  DatacronEngine::Config cfg;
  cfg.region = w.region;
  cfg.rdf.region = w.region;
  cfg.proximity.region = w.region;
  const double dlat = w.region.max_lat - w.region.min_lat;
  const double dlon = w.region.max_lon - w.region.min_lon;
  cfg.areas.push_back(NamedArea{
      "zone_a", Polygon::Rectangle(BoundingBox::Of(
                    w.region.min_lat + 0.1 * dlat, w.region.min_lon + 0.1 * dlon,
                    w.region.min_lat + 0.35 * dlat,
                    w.region.min_lon + 0.35 * dlon))});
  cfg.areas.push_back(NamedArea{
      "zone_b", Polygon::Rectangle(BoundingBox::Of(
                    w.region.min_lat + 0.5 * dlat, w.region.min_lon + 0.5 * dlon,
                    w.region.min_lat + 0.75 * dlat,
                    w.region.min_lon + 0.75 * dlon))});
  if (w.global_cep) {
    cfg.sectors = SectorGrid(w.region);
    cfg.hotspot_window = kHotspotWindow;
    cfg.hotspot = HotspotConfig(w.region);
  }
  return cfg;
}

// --- inputs ----------------------------------------------------------------

struct Registration {
  SubscriberId subscriber = 0;
  SubscriptionSpec spec;
};

struct Inputs {
  /// Warm-up prefix followed by the live/replay stream, decoded.
  std::vector<PositionReport> reports;
  /// NMEA workloads: reports[i] as an AIVDM sentence and the simulated
  /// receive time DecodeAivdm gets.
  std::vector<std::string> sentences;
  std::vector<TimestampMs> receive_ms;
  std::size_t rejected = 0;  // sentences the decoder refused
  std::size_t warmup = 0;
  /// Due times of the post-warm-up reports, ns after the live start.
  std::vector<std::int64_t> due_ns;
  std::vector<Registration> subs;
  /// churn[k] lists the subscription slots re-registered before
  /// post-warm-up report (k + 1) * churn_every.
  std::vector<std::vector<std::size_t>> churn;
  std::size_t churn_every = 0;
  TriggerIndex triggers;

  std::size_t live_count() const { return reports.size() - warmup; }
};

BoundingBox RandomBox(std::mt19937_64* rng, const BoundingBox& region,
                      double min_frac, double max_frac) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const double dlat = region.max_lat - region.min_lat;
  const double dlon = region.max_lon - region.min_lon;
  const double h = dlat * (min_frac + (max_frac - min_frac) * u(*rng));
  const double w = dlon * (min_frac + (max_frac - min_frac) * u(*rng));
  const double lat0 = region.min_lat + (dlat - h) * u(*rng);
  const double lon0 = region.min_lon + (dlon - w) * u(*rng);
  return BoundingBox::Of(lat0, lon0, lat0 + h, lon0 + w);
}

bool MakeInputs(const Workload& w, std::uint64_t seed, Inputs* in) {
  AisGeneratorConfig fleet;
  fleet.region = w.region;
  fleet.num_vessels = w.vessels;
  fleet.duration = w.duration;
  fleet.seed = seed;
  ObservationConfig obs;
  obs.seed = seed ^ 0x9e3779b97f4a7c15ULL;
  // One cadence for every vessel, so a seed changes the fleet but not
  // its report mix (the speed-dependent AIS cadence would make the share
  // of each vessel's reports, and so the hot-entity load, vary by seed).
  obs.fixed_interval_ms = 10 * kSecond;
  std::vector<PositionReport> stream =
      ObserveFleet(GenerateAisFleet(fleet), obs);
  std::stable_sort(stream.begin(), stream.end(), ReportTimeOrder());
  const std::size_t need = w.warmup_reports + w.live_reports;
  if (stream.size() < need) {
    std::fprintf(stderr, "%s: fleet yields %zu reports, workload needs %zu\n",
                 w.name, stream.size(), need);
    return false;
  }
  stream.resize(need);
  in->warmup = w.warmup_reports;

  if (w.nmea) {
    in->reports.reserve(need);
    for (const PositionReport& r : stream) {
      in->sentences.push_back(EncodeAivdm(r));
      in->receive_ms.push_back(r.timestamp);
      Result<PositionReport> d = DecodeAivdm(in->sentences.back(), r.timestamp);
      if (!d.ok()) {
        ++in->rejected;
        in->sentences.pop_back();
        in->receive_ms.pop_back();
        continue;
      }
      in->reports.push_back(d.value());
    }
    if (in->reports.size() <= in->warmup) return false;
  } else {
    in->reports = std::move(stream);
  }
  for (std::size_t i = 0; i < in->reports.size(); ++i) {
    in->triggers.Add(in->reports[i].entity_id, in->reports[i].timestamp, i);
  }
  in->triggers.Seal();
  in->due_ns = PoissonSchedule(in->live_count(), w.rate_hz, seed * 31 + 1);

  // Subscriptions, drawn from the entities present in the stream.
  std::mt19937_64 rng(seed * 131 + 7);
  std::vector<EntityId> entities;
  for (const PositionReport& r : in->reports) entities.push_back(r.entity_id);
  std::sort(entities.begin(), entities.end());
  entities.erase(std::unique(entities.begin(), entities.end()),
                 entities.end());
  std::shuffle(entities.begin(), entities.end(), rng);
  const std::size_t watched =
      w.hot_entities > 0 ? std::min(w.hot_entities, entities.size())
                         : entities.size();
  std::uniform_int_distribution<std::size_t> pick(0, watched - 1);
  std::uniform_int_distribution<std::size_t> any(0, entities.size() - 1);
  auto subscriber = [&] {
    return static_cast<SubscriberId>(in->subs.size() % 64 + 1);
  };
  for (std::size_t i = 0; i < w.entity_geofences; ++i) {
    GeofenceSpec g;
    g.bbox = RandomBox(&rng, w.region, 0.05, 0.3);
    g.entity = entities[pick(rng)];
    g.dwell_ms = i % 4 == 0 ? 10 * kMinute : 0;
    in->subs.push_back({subscriber(), SubscriptionSpec::Geofence(g)});
  }
  for (std::size_t i = 0; i < w.fleet_geofences; ++i) {
    GeofenceSpec g;
    g.bbox = RandomBox(&rng, w.region, 0.02, 0.15);
    g.all_entities = true;
    in->subs.push_back({subscriber(), SubscriptionSpec::Geofence(g)});
  }
  for (std::size_t i = 0; i < w.proximity_subs; ++i) {
    ProximitySpec p;
    p.entity = entities[any(rng)];
    p.min_interval_ms = kMinute;
    in->subs.push_back({subscriber(), SubscriptionSpec::Proximity(p)});
  }
  for (std::size_t i = 0; i < w.hotspot_subs; ++i) {
    HotspotSpec h;
    h.bbox = RandomBox(&rng, w.region, 0.3, 0.6);
    h.threshold = 40.0;
    h.window_epochs = 4;
    in->subs.push_back({subscriber(), SubscriptionSpec::Hotspot(h)});
  }
  in->churn_every = w.churn_every;
  if (w.churn_every > 0 && !in->subs.empty()) {
    std::uniform_int_distribution<std::size_t> slot(0, in->subs.size() - 1);
    for (std::size_t p = w.churn_every; p < in->live_count();
         p += w.churn_every) {
      std::vector<std::size_t> step;
      for (std::size_t q = 0; q < w.churn_quota; ++q) step.push_back(slot(rng));
      std::sort(step.begin(), step.end());
      step.erase(std::unique(step.begin(), step.end()), step.end());
      in->churn.push_back(std::move(step));
    }
  }
  return true;
}

// --- one engine instance of the workload's executor --------------------------

/// Counts of one repetition: failures are reports not processed, ingest
/// calls that returned an error, refused subscription requests and
/// rejected sentences.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Everything one repetition produced, for the digest check. Events
/// enter the digest as they are emitted; deltas are kept, because they
/// enter it in canonical order at the end.
struct RunOutput {
  Digest events;
  std::vector<SubDelta> deltas;
  /// Live phase: delta push latencies, filled by the delta sink.
  bool live = false;
  std::int64_t live_start_ns = 0;
  std::vector<double> delta_ms;
  Tally tally;
};

class Target {
 public:
  Target(const Workload& w, const Inputs& in, Exec exec)
      : w_(w), in_(in), exec_(exec) {}

  Target(const Target&) = delete;
  Target& operator=(const Target&) = delete;

  ~Target() {
    if (cluster_ == nullptr) return;
    if (Status s = cluster_->Stop(); !s.ok()) {
      std::fprintf(stderr, "cluster stop failed: %s\n", s.ToString().c_str());
    }
  }

  /// Builds the engine (or starts the cluster), installs the delta sink
  /// and registers every subscription.
  Status Start(RunOutput* out) {
    DatacronEngine::Config cfg = EngineConfig(w_);
    cfg.num_shards = exec_ == Exec::kSharded ? 2 : 1;
    if (exec_ == Exec::kCluster) {
      LocalCluster::Options copts;
      copts.engine = cfg;
      copts.num_nodes = 2;
      copts.wire = LocalCluster::Wire::kLoopback;
      Result<std::unique_ptr<LocalCluster>> c = LocalCluster::Start(copts);
      if (!c.ok()) return c.status();
      cluster_ = std::move(c).value();
    } else {
      engine_ = std::make_unique<DatacronEngine>(cfg);
      if (exec_ == Exec::kSharded) pool_ = std::make_unique<ThreadPool>(2);
    }
    registry()->SetDeltaSink([this, out](const DeltaBatch& batch) {
      OnDeltas(batch, out);
    });
    ids_.assign(in_.subs.size(), 0);
    for (std::size_t i = 0; i < in_.subs.size(); ++i) {
      ++out->tally.attempted;
      if (!Register(i).ok()) ++out->tally.failed;
    }
    return Status::OK();
  }

  /// Registers subscription slot `i` (again), keeping its new id.
  Status Register(std::size_t i) {
    const Registration& r = in_.subs[i];
    Result<SubscriptionId> id =
        cluster_ != nullptr
            ? cluster_->engine().Subscribe(r.subscriber, r.spec)
            : engine_->subscriptions()->Subscribe(r.subscriber, r.spec);
    if (!id.ok()) return id.status();
    ids_[i] = id.value();
    return Status::OK();
  }

  Status Unregister(std::size_t i) {
    if (cluster_ != nullptr) return cluster_->engine().Unsubscribe(ids_[i]);
    return engine_->subscriptions()->Unsubscribe(ids_[i])
               ? Status::OK()
               : Status::NotFound("unknown subscription");
  }

  /// Churn step k: unsubscribe and re-register its slots.
  void Churn(std::size_t k, RunOutput* out) {
    for (std::size_t slot : in_.churn[k]) {
      out->tally.attempted += 2;
      if (!Unregister(slot).ok()) ++out->tally.failed;
      if (!Register(slot).ok()) ++out->tally.failed;
    }
  }

  /// Ingests input reports [begin, begin + count) in one executor call
  /// (the serial executor takes them one Ingest at a time). NMEA
  /// workloads decode each sentence first, as part of the call.
  void Feed(std::size_t begin, std::size_t count, RunOutput* out) {
    out->tally.attempted += count;
    std::span<const PositionReport> batch(in_.reports.data() + begin, count);
    if (w_.nmea) {
      decoded_.clear();
      for (std::size_t i = begin; i < begin + count; ++i) {
        Result<PositionReport> r =
            DecodeAivdm(in_.sentences[i], in_.receive_ms[i]);
        if (!r.ok() || !(r.value() == in_.reports[i])) {
          ++out->tally.failed;
          continue;
        }
        decoded_.push_back(r.value());
      }
      batch = decoded_;
    }
    auto emit = [out](const std::vector<Event>& events) {
      for (const Event& e : events) out->events.Add(e);
    };
    switch (exec_) {
      case Exec::kSerial:
        for (const PositionReport& r : batch) emit(engine_->Ingest(r));
        break;
      case Exec::kSharded:
        emit(engine_->IngestBatch(batch, pool_.get()));
        break;
      case Exec::kCluster: {
        Result<std::vector<Event>> ev = cluster_->engine().IngestBatch(batch);
        if (!ev.ok()) {
          out->tally.failed += batch.size();
          break;
        }
        emit(ev.value());
        break;
      }
    }
  }

  SubscriptionRegistry* registry() {
    return cluster_ != nullptr ? cluster_->engine().subscriptions()
                               : engine_->subscriptions();
  }
  const DatacronEngine& engine() const {
    return cluster_ != nullptr ? cluster_->engine().engine() : *engine_;
  }
  ThreadPool* pool() { return pool_.get(); }

 private:
  void OnDeltas(const DeltaBatch& batch, RunOutput* out) {
    const std::int64_t now = MonotonicNanos();
    for (const SubDelta& d : batch.deltas) {
      out->deltas.push_back(d);
      if (!out->live || !IsGeofenceDelta(d)) continue;
      const std::int64_t idx = in_.triggers.Find(d.entity, d.time);
      if (idx < static_cast<std::int64_t>(in_.warmup)) continue;
      const std::int64_t due =
          out->live_start_ns + in_.due_ns[static_cast<std::size_t>(idx) -
                                          in_.warmup];
      out->delta_ms.push_back(static_cast<double>(now - due) / 1e6);
    }
  }

  const Workload& w_;
  const Inputs& in_;
  Exec exec_;
  std::unique_ptr<DatacronEngine> engine_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<LocalCluster> cluster_;
  std::vector<SubscriptionId> ids_;
  std::vector<PositionReport> decoded_;
};

/// Output digest: events in emission order, epoch-invariant deltas in
/// canonical order, triple count and dictionary size. Puts the kept
/// deltas in canonical order.
std::uint64_t OutputDigest(RunOutput* out, const DatacronEngine& e) {
  Digest d;
  d.Pod(out->events.value());
  CanonicalizeDeltas(&out->deltas);
  for (const SubDelta& sd : out->deltas) d.Add(sd);
  d.Pod(e.triples().size());
  d.Pod(e.dictionary().size());
  return d.value();
}

/// Timed set-up: construction (or cluster start and Hello handshake),
/// subscription registration, and the warm-up prefix.
std::unique_ptr<Target> SetUp(const Workload& w, const Inputs& in, Exec exec,
                              RunOutput* out, double* setup_s) {
  const std::int64_t t0 = MonotonicNanos();
  auto t = std::make_unique<Target>(w, in, exec);
  if (Status s = t->Start(out); !s.ok()) {
    std::fprintf(stderr, "%s: start failed: %s\n", w.name,
                 s.ToString().c_str());
    return nullptr;
  }
  t->Feed(0, in.warmup, out);
  *setup_s = static_cast<double>(MonotonicNanos() - t0) / 1e9;
  return t;
}

/// Closed-loop replay of the post-warm-up stream in executor calls that
/// end at churn points.
/// With `segment` > 0, calls also end every `segment` reports and
/// `between` runs, untimed, after each segment. Returns the timed
/// seconds.
double Replay(Target* t, const Inputs& in, RunOutput* out,
              std::size_t segment = 0,
              const std::function<void()>& between = nullptr) {
  const std::size_t n = in.live_count();
  std::int64_t timed = 0;
  std::size_t churn_k = 0;
  std::int64_t t0 = MonotonicNanos();
  for (std::size_t p = 0; p < n;) {
    if (churn_k < in.churn.size() && p == (churn_k + 1) * in.churn_every) {
      t->Churn(churn_k++, out);
    }
    std::size_t end = n;
    if (churn_k < in.churn.size()) {
      end = std::min(end, (churn_k + 1) * in.churn_every);
    }
    if (segment > 0) end = std::min(end, p + segment);
    t->Feed(in.warmup + p, end - p, out);
    p = end;
    if (segment > 0 && between) {
      timed += MonotonicNanos() - t0;
      between();
      t0 = MonotonicNanos();
    }
  }
  timed += MonotonicNanos() - t0;
  return static_cast<double>(timed) / 1e9;
}

/// Open-loop live phase: report i is due at start + due_ns[i]; the driver
/// spins until the next report is due, then hands every due report to
/// one executor call (one report per call for the serial executor), so a
/// slow call delays the reports queued behind it.
DueBook Live(Target* t, const Inputs& in, Exec exec, RunOutput* out) {
  DueBook book(in.due_ns);
  const std::size_t n = in.live_count();
  const std::int64_t start = MonotonicNanos() + 2'000'000;
  out->live = true;
  out->live_start_ns = start;
  std::size_t churn_k = 0;
  while (book.next() < n) {
    const std::size_t p = book.next();
    if (churn_k < in.churn.size() && p == (churn_k + 1) * in.churn_every) {
      t->Churn(churn_k++, out);
    }
    std::int64_t now = MonotonicNanos();
    while (now < start + in.due_ns[p]) now = MonotonicNanos();
    std::size_t count =
        exec == Exec::kSerial ? 1 : book.DueCount(now - start);
    if (churn_k < in.churn.size()) {
      count = std::min(count, (churn_k + 1) * in.churn_every - p);
    }
    t->Feed(in.warmup + p, count, out);
    book.Record(count, now - start, MonotonicNanos() - start);
  }
  out->live = false;
  return book;
}

/// The serial Ingest reference over the same decoded input, with the
/// same subscriptions and churn positions.
std::uint64_t ReferenceDigest(const Workload& w, const Inputs& in) {
  Workload serial = w;
  serial.nmea = false;  // the reference ingests the decoded reports
  RunOutput out;
  double ignored = 0.0;
  std::unique_ptr<Target> t = SetUp(serial, in, Exec::kSerial, &out, &ignored);
  if (t == nullptr) return 0;
  Replay(t.get(), in, &out);
  return OutputDigest(&out, t->engine());
}

/// Starts a new peak-RSS window: hands freed heap back to the kernel and
/// resets the kernel's high-water mark to the current resident set, so
/// the peak read later covers only what runs after this call (Linux).
bool ResetPeakRss() {
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

/// High-water mark of the resident set since the last ResetPeakRss, in
/// MiB; NaN when /proc/self/status has none.
double PeakRssMb() {
  double mb = std::nan("");
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return mb;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    long kib = 0;
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) {
      mb = static_cast<double>(kib) / 1024.0;
    }
  }
  std::fclose(f);
  return mb;
}

/// Progress note on stderr: seconds since the process started.
void Phase(const char* what) {
  static const std::int64_t t0 = MonotonicNanos();
  std::fprintf(stderr, "[%7.2f s] %s\n", (MonotonicNanos() - t0) / 1e9, what);
}

// --- output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Prints the result line and returns whether the run counts as correct:
/// outputs matched the reference and every metric is a finite number. An
/// incorrect run reports every attempted operation as failed.
bool PrintResult(bool correct, Tally tally,
                 const std::vector<Metric>& metrics) {
  std::string body;
  for (const Metric& m : metrics) {
    double value = m.value;
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "metric %s is not finite\n", m.name.c_str());
      correct = false;
      value = 0.0;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                  body.empty() ? "" : ", ", m.name.c_str(), value, m.unit);
    body += buf;
  }
  if (!correct) tally.failed = tally.attempted;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed), body.c_str());
  std::fflush(stdout);
  return correct;
}

// --- end-to-end run (--trace 0) ------------------------------------------------

int RunEndToEnd(const Workload& w, const Inputs& in, std::uint64_t ref,
                double seconds) {
  Tally tally;
  tally.attempted += in.rejected;
  tally.failed += in.rejected;
  bool correct = true;
  std::vector<double> setups;
  std::vector<double> p50s;
  std::vector<double> p90s;
  std::vector<double> delta_p50s;
  std::vector<double> rps;
  std::size_t emit_n = 0;
  std::size_t delta_n = 0;

  auto check = [&](RunOutput* out, const Target& t, const char* phase) {
    tally.attempted += out->tally.attempted;
    tally.failed += out->tally.failed;
    if (OutputDigest(out, t.engine()) != ref) {
      std::fprintf(stderr, "%s: %s output differs from serial Ingest\n",
                   w.name, phase);
      correct = false;
    }
  };

  // Replay repetitions run until the budget is spent (at least
  // kMinReplays), each after its own set-up. Live repetitions, whose
  // latencies are printed but not gated, get about a quarter of the time
  // (at least one). Every figure is a median over repetitions: a burst of
  // host noise shorter than half the run does not move it.
  constexpr std::size_t kMinReplays = 5;
  const std::int64_t begin = MonotonicNanos();
  std::int64_t live_ns = 0;
  while (rps.size() < kMinReplays ||
         (MonotonicNanos() - begin) / 1e9 < seconds) {
    const std::int64_t rep_start = MonotonicNanos();
    const bool live = p50s.empty() || 4 * live_ns < rep_start - begin;
    RunOutput out;
    double setup_s = 0.0;
    std::unique_ptr<Target> t = SetUp(w, in, w.exec, &out, &setup_s);
    if (t == nullptr) return 1;
    setups.push_back(setup_s);
    if (live) {
      DueBook book = Live(t.get(), in, w.exec, &out);
      emit_n += book.emit_ms().size();
      delta_n += out.delta_ms.size();
      p50s.push_back(Percentile(&book.emit_ms(), 50));
      p90s.push_back(Percentile(&book.emit_ms(), 90));
      if (!out.delta_ms.empty()) {
        delta_p50s.push_back(Percentile(&out.delta_ms, 50));
      }
      check(&out, *t, "live");
      live_ns += MonotonicNanos() - rep_start;
      std::fprintf(stderr, "  live   set-up %.4f s, emit p50 %.4f ms\n",
                   setup_s, p50s.back());
    } else {
      const double secs = Replay(t.get(), in, &out);
      rps.push_back(static_cast<double>(in.live_count()) / secs);
      check(&out, *t, "replay");
      std::fprintf(stderr, "  replay set-up %.4f s, %.0f reports/s\n",
                   setup_s, rps.back());
    }
  }

  // Ingest-to-emit latencies are printed, not gated: on a shared host
  // the executors' thread wake-ups make them swing several-fold between
  // runs (README.md, "Why the latencies are not gated").
  std::printf("# %s (%s): %zu live and %zu replay repetitions, %zu emit "
              "samples, %zu geofence delta samples, %zu subscriptions\n"
              "# emit p50 %.4f ms, emit p90 %.4f ms, delta p50 %.4f ms "
              "(medians over live repetitions)\n",
              w.name, ExecName(w.exec), p50s.size(), rps.size(), emit_n,
              delta_n, in.subs.size(), Median(p50s), Median(p90s),
              Median(delta_p50s));
  std::vector<Metric> m = {
      {"setup_s", Median(setups), "s"},
      {"replay_rps", Median(rps), "1/s"},
      {"peak_rss_mb", PeakRssMb(), "MiB"},
  };
  return PrintResult(correct, tally, m) ? 0 : 1;
}

// --- per-layer run (--trace 1) -------------------------------------------------

/// Summed durations of the spans named `name`, and how many there were.
struct SpanSum {
  double ns = 0.0;
  std::size_t count = 0;
};

std::map<std::string, SpanSum> SumSpans(
    const std::vector<obs::TraceSpanRecord>& spans) {
  std::map<std::string, SpanSum> sums;
  for (const obs::TraceSpanRecord& s : spans) {
    SpanSum& e = sums[s.name];
    e.ns += static_cast<double>(s.dur_ns);
    ++e.count;
  }
  return sums;
}

/// One replay of the post-warm-up stream through `exec`; with `traced`
/// the program's tracer records it and its spans are kept. Replays run in
/// 8192-report segments so the tracer's per-thread rings are drained
/// (untimed) before they overflow; untraced replays use the same
/// segments so both sides of the overhead comparison do the same calls.
struct ExecReplay {
  double seconds = 0.0;
  std::vector<obs::TraceSpanRecord> spans;
  double pool_queue_ns = 0.0;
  std::size_t triples = 0;
  std::size_t dict_terms = 0;
  double subscribe_us = 0.0;
  double unsubscribe_us = 0.0;
};

constexpr std::size_t kTraceSegment = 8192;

/// Mean of a log2-bucketed histogram, taking each bucket at its midpoint.
double BucketMean(const LogHistogram& h) {
  double sum = 0.0;
  for (std::size_t b = 1; b < LogHistogram::num_buckets(); ++b) {
    sum += static_cast<double>(h.bucket_count(b)) * 1.5 *
           std::ldexp(1.0, static_cast<int>(b) - 1);
  }
  return h.count() > 0 ? sum / static_cast<double>(h.count()) : 0.0;
}

bool RunExecReplay(const Workload& w, const Inputs& in, std::uint64_t ref,
                   Exec exec, bool traced, bool time_control, Tally* tally,
                   ExecReplay* r) {
  RunOutput out;
  double setup_s = 0.0;
  std::unique_ptr<Target> t = SetUp(w, in, exec, &out, &setup_s);
  if (t == nullptr) return false;
  obs::TraceCollector::Discard();
  obs::EnableTracing(traced);
  auto drain = [&] {
    std::vector<obs::TraceSpanRecord> s = obs::TraceCollector::Drain();
    if (traced) r->spans.insert(r->spans.end(), s.begin(), s.end());
  };
  r->seconds = Replay(t.get(), in, &out, kTraceSegment, drain);
  obs::EnableTracing(false);
  drain();
  if (t->pool() != nullptr) r->pool_queue_ns = BucketMean(t->pool()->QueueWaitNanos());
  r->triples = t->engine().triples().size();
  r->dict_terms = t->engine().dictionary().size();
  tally->attempted += out.tally.attempted;
  tally->failed += out.tally.failed;
  const bool ok = OutputDigest(&out, t->engine()) == ref;
  if (!ok) {
    std::fprintf(stderr, "%s: %s replay output differs from serial Ingest\n",
                 w.name, ExecName(exec));
  }
  if (time_control && !in.subs.empty()) {
    // Control plane on the full registry: unsubscribe and re-register an
    // evenly spread sample of subscriptions, one call at a time.
    const std::size_t k = std::min<std::size_t>(500, in.subs.size());
    std::vector<std::size_t> slots;
    for (std::size_t i = 0; i < k; ++i) slots.push_back(i * in.subs.size() / k);
    const std::int64_t u0 = MonotonicNanos();
    for (std::size_t s : slots) {
      if (!t->Unregister(s).ok()) ++tally->failed;
    }
    const std::int64_t u1 = MonotonicNanos();
    for (std::size_t s : slots) {
      if (!t->Register(s).ok()) ++tally->failed;
    }
    const std::int64_t u2 = MonotonicNanos();
    tally->attempted += 2 * k;
    r->unsubscribe_us = static_cast<double>(u1 - u0) / 1e3 / k;
    r->subscribe_us = static_cast<double>(u2 - u1) / 1e3 / k;
  }
  return ok;
}

/// Per-report (or per-item) costs of each layer, from calling the layer's
/// own public functions over the workload's inputs in pipeline order. Each
/// layer first consumes the warm-up prefix untimed, so its state matches
/// the executor's at the start of the replayed stream.
struct LayerCosts {
  double decode_ns = 0, rejected = 0;
  double synopses_ns = 0, cp_ratio = 0;
  double transform_ns = 0;  // per critical point (episodes included)
  double trajectory_ns = 0, forecast_ns = 0, keyed_ns = 0;
  double proximity_ns = 0, cpa_pairs = 0, alarm_ratio = 0;
  double capacity_ns = 0, hotspot_ns = 0;
  double eval_ns = 0, watchers = 0, delta_ratio = 0, close_ns = 0;
  double reports_per_close = 1;
  double encode_ns = 0, decode_frame_ns = 0, bytes_per_report = 0;
  std::size_t frames_failed = 0;  // frames that did not round-trip
};

LayerCosts MeasureLayers(const Workload& w, const Inputs& in) {
  LayerCosts c;
  const DatacronEngine::Config cfg = EngineConfig(w);
  const std::size_t n = in.live_count();
  const std::span<const PositionReport> warm(in.reports.data(), in.warmup);
  const std::span<const PositionReport> post(in.reports.data() + in.warmup, n);
  auto per = [](std::int64_t ns, double items) {
    return items > 0 ? static_cast<double>(ns) / items : 0.0;
  };

  Phase("layers: sources");
  // sources: AIVDM decode per sentence (non-NMEA workloads encode their
  // own reports first, untimed).
  {
    std::vector<std::string> sentences;
    std::vector<TimestampMs> receive;
    for (std::size_t i = in.warmup; i < in.reports.size(); ++i) {
      sentences.push_back(w.nmea ? in.sentences[i]
                                 : EncodeAivdm(in.reports[i]));
      receive.push_back(w.nmea ? in.receive_ms[i] : in.reports[i].timestamp);
    }
    std::size_t rejected = 0;
    const std::int64_t t0 = MonotonicNanos();
    for (std::size_t i = 0; i < sentences.size(); ++i) {
      if (!DecodeAivdm(sentences[i], receive[i]).ok()) ++rejected;
    }
    c.decode_ns = per(MonotonicNanos() - t0, sentences.size());
    c.rejected = static_cast<double>(rejected + in.rejected);
  }

  Phase("layers: synopses");
  // synopses: critical points per report.
  CriticalPointDetector detector(cfg.synopses);
  std::vector<CriticalPoint> warm_cps;
  for (const PositionReport& r : warm) detector.Process(r, &warm_cps);
  std::vector<CriticalPoint> cps;
  std::vector<std::size_t> cp_end(n);
  {
    const std::int64_t t0 = MonotonicNanos();
    for (std::size_t i = 0; i < n; ++i) {
      detector.Process(post[i], &cps);
      cp_end[i] = cps.size();
    }
    c.synopses_ns = per(MonotonicNanos() - t0, n);
    c.cp_ratio = static_cast<double>(cps.size()) / n;
  }

  Phase("layers: trajectory");
  // trajectory: store + episode builder per report.
  TrajectoryStore store;
  EpisodeBuilder builder(cfg.areas);
  std::vector<Episode> warm_episodes;
  for (const PositionReport& r : warm) store.Add(r);
  for (const CriticalPoint& cp : warm_cps) builder.Process(cp, &warm_episodes);
  std::vector<Episode> episodes;
  {
    const std::int64_t t0 = MonotonicNanos();
    std::size_t k = 0;
    for (std::size_t i = 0; i < n; ++i) {
      store.Add(post[i]);
      for (; k < cp_end[i]; ++k) builder.Process(cps[k], &episodes);
    }
    c.trajectory_ns = per(MonotonicNanos() - t0, n);
  }

  Phase("layers: rdf");
  // rdf: critical points and completed episodes to triples.
  {
    TermDictionary dict;
    Vocab vocab(&dict);
    Rdfizer rdf(cfg.rdf, &dict, &vocab);
    std::vector<Triple> triples;
    auto append = [&triples](std::vector<Triple> t) {
      triples.insert(triples.end(), t.begin(), t.end());
    };
    for (const CriticalPoint& cp : warm_cps) append(rdf.TransformCriticalPoint(cp));
    for (const Episode& e : warm_episodes) append(rdf.TransformEpisode(e));
    const std::int64_t t0 = MonotonicNanos();
    for (const CriticalPoint& cp : cps) append(rdf.TransformCriticalPoint(cp));
    for (const Episode& e : episodes) append(rdf.TransformEpisode(e));
    c.transform_ns = per(MonotonicNanos() - t0, cps.size());
  }

  Phase("layers: forecast");
  // forecast: dead-reckoning observe per report.
  {
    DeadReckoningPredictor predictor;
    for (const PositionReport& r : warm) predictor.Observe(r);
    const std::int64_t t0 = MonotonicNanos();
    for (const PositionReport& r : post) predictor.Observe(r);
    c.forecast_ns = per(MonotonicNanos() - t0, n);
  }

  Phase("layers: cep keyed");
  // cep (keyed): area, loitering, gap and speed detectors per report.
  {
    AreaEventDetector area(cfg.areas);
    LoiteringDetector loiter(cfg.loitering);
    GapDetector gap(cfg.gap);
    SpeedAnomalyDetector speed(cfg.speed_anomaly);
    std::vector<Event> ev;
    auto run = [&](const PositionReport& r) {
      area.Process(r, &ev);
      loiter.Process(r, &ev);
      gap.Process(r, &ev);
      speed.Process(r, &ev);
    };
    for (const PositionReport& r : warm) run(r);
    const std::int64_t t0 = MonotonicNanos();
    for (const PositionReport& r : post) run(r);
    c.keyed_ns = per(MonotonicNanos() - t0, n);
  }

  Phase("layers: cep proximity");
  // cep (global): proximity at the executor's epoch size and pool (the
  // sharded executor batches 1024-report epochs on its 2-thread pool; the
  // serial path and the cluster coordinator run it per report).
  const std::size_t epoch = w.exec == Exec::kSharded ? cfg.epoch_size : 1;
  std::vector<Event> prox_events;
  std::vector<std::size_t> prox_end(n);
  {
    ThreadPool pool(2);
    ThreadPool* p = w.exec == Exec::kSharded ? &pool : nullptr;
    ProximityDetector prox(cfg.proximity);
    std::vector<Event> ignored;
    for (std::size_t i = 0; i < warm.size(); i += epoch) {
      prox.ProcessBatch(warm.subspan(i, std::min(epoch, warm.size() - i)), p,
                        &ignored, nullptr);
    }
    obs::Counter* pairs = obs::MetricsRegistry::Global().counter("cep.cpa_pairs");
    const std::uint64_t pairs0 = pairs->Value();
    std::vector<std::size_t> offsets;
    const std::int64_t t0 = MonotonicNanos();
    for (std::size_t i = 0; i < n; i += epoch) {
      const std::size_t len = std::min(epoch, n - i);
      prox.ProcessBatch(post.subspan(i, len), p, &prox_events, &offsets);
      for (std::size_t j = 0; j < len; ++j) prox_end[i + j] = offsets[j + 1];
    }
    c.proximity_ns = per(MonotonicNanos() - t0, n);
    const double pair_count = static_cast<double>(pairs->Value() - pairs0);
    c.cpa_pairs = pair_count / n;
    c.alarm_ratio = pair_count > 0 ? prox_events.size() / pair_count : 0.0;
  }

  Phase("layers: cep capacity/hotspot");
  // cep (global): capacity sectors and hotspot window. Workloads without
  // them in their engine config still time the layer, over a 4x4 sector
  // grid and a 5-minute window on their own region.
  {
    CapacityMonitor capacity(
        cfg.sectors.empty() ? SectorGrid(w.region) : cfg.sectors, cfg.capacity);
    HotspotDetector hotspot(HotspotConfig(w.region), kHotspotWindow);
    std::vector<Event> ev;
    for (const PositionReport& r : warm) {
      capacity.Process(r, &ev);
      hotspot.Process(r, &ev);
    }
    std::int64_t t0 = MonotonicNanos();
    for (const PositionReport& r : post) capacity.Process(r, &ev);
    c.capacity_ns = per(MonotonicNanos() - t0, n);
    t0 = MonotonicNanos();
    for (const PositionReport& r : post) hotspot.Process(r, &ev);
    c.hotspot_ns = per(MonotonicNanos() - t0, n);
  }

  Phase("layers: sub");
  // sub (data plane): keyed evaluation per report, then one epoch close
  // per executor epoch (every report for serial Ingest and the cluster
  // coordinator, 1024 reports for the sharded replay).
  if (!in.subs.empty()) {
    SubscriptionRegistry reg;
    std::size_t pushed = 0;
    reg.SetDeltaSink([&pushed](const DeltaBatch& b) { pushed += b.deltas.size(); });
    for (const Registration& r : in.subs) {
      if (!reg.Subscribe(r.subscriber, r.spec).ok()) return c;
    }
    // Watchers of a report: geofences on its entity plus fleet-wide
    // geofences whose box contains it.
    FlatHashMap<EntityId, std::size_t> by_entity;
    std::vector<BoundingBox> fleet_boxes;
    for (const Registration& r : in.subs) {
      if (r.spec.kind != SubKind::kGeofence) continue;
      if (r.spec.geofence.all_entities) {
        fleet_boxes.push_back(r.spec.geofence.bbox);
      } else {
        ++by_entity[r.spec.geofence.entity];
      }
    }
    std::vector<SubDelta> deltas;
    FlatHashMap<std::uint64_t, double> counts;
    auto close = [&](std::span<const PositionReport> reports,
                     std::span<const Event> events) {
      reg.AddKeyedDeltas(deltas);
      reg.AddHotspotCounts(counts);
      reg.AddGlobalEvents(events);
      reg.CloseEpoch(reports.back().timestamp);
      deltas.clear();
      counts.Clear();
    };
    for (std::size_t i = 0; i < warm.size(); i += epoch) {
      const auto part = warm.subspan(i, std::min(epoch, warm.size() - i));
      for (const PositionReport& r : part) reg.EvalKeyed(0, r, &deltas, &counts);
      close(part, {});
    }
    std::int64_t eval_ns = 0;
    std::int64_t close_ns = 0;
    std::size_t closes = 0;
    std::size_t keyed_deltas = 0;
    for (std::size_t i = 0; i < n; i += epoch) {
      const std::size_t len = std::min(epoch, n - i);
      const auto part = post.subspan(i, len);
      const std::int64_t t0 = MonotonicNanos();
      for (const PositionReport& r : part) reg.EvalKeyed(0, r, &deltas, &counts);
      const std::int64_t t1 = MonotonicNanos();
      keyed_deltas += deltas.size();
      const std::size_t ev0 = i == 0 ? 0 : prox_end[i - 1];
      close(part, std::span<const Event>(prox_events.data() + ev0,
                                         prox_end[i + len - 1] - ev0));
      close_ns += MonotonicNanos() - t1;
      eval_ns += t1 - t0;
      ++closes;
    }
    double watchers = 0.0;
    for (const PositionReport& r : post) {
      if (const std::size_t* k = by_entity.Find(r.entity_id)) watchers += *k;
      for (const BoundingBox& b : fleet_boxes) {
        watchers += b.Contains(r.position.ll()) ? 1 : 0;
      }
    }
    c.eval_ns = per(eval_ns, n);
    c.watchers = watchers / n;
    c.delta_ratio = watchers > 0 ? keyed_deltas / watchers : 0.0;
    c.close_ns = per(close_ns, closes);
    c.reports_per_close = static_cast<double>(n) / closes;
  }

  Phase("layers: net");
  // net: each cluster epoch's per-node report batch through the codec
  // and the frame layer, in both directions.
  {
    const std::size_t cluster_epoch = cfg.epoch_size;
    std::int64_t enc_ns = 0;
    std::int64_t dec_ns = 0;
    std::size_t frames = 0;
    std::size_t bytes = 0;
    std::int64_t id = 0;
    for (std::size_t i = 0; i < n; i += cluster_epoch, ++id) {
      const std::size_t len = std::min(cluster_epoch, n - i);
      for (std::uint64_t node = 0; node < 2; ++node) {
        ReportBatchMsg msg;
        msg.epoch = id;
        for (const PositionReport& r : post.subspan(i, len)) {
          if (MixU64(r.entity_id) % 2 == node) msg.reports.push_back(r);
        }
        const std::int64_t t0 = MonotonicNanos();
        const std::string frame = EncodeFrame(Encode(msg));
        const std::int64_t t1 = MonotonicNanos();
        const std::string payload = frame.substr(kFrameHeaderBytes);
        const std::int64_t t2 = MonotonicNanos();
        ReportBatchMsg back;
        const bool ok = VerifyFramePayload(frame.data(), payload).ok() &&
                        Decode(payload, &back).ok() && back == msg;
        const std::int64_t t3 = MonotonicNanos();
        if (!ok) ++c.frames_failed;
        enc_ns += t1 - t0;
        dec_ns += t3 - t2;
        bytes += frame.size();
        ++frames;
      }
    }
    c.encode_ns = per(enc_ns, frames);
    c.decode_frame_ns = per(dec_ns, frames);
    c.bytes_per_report = static_cast<double>(bytes) / n;
  }
  return c;
}

int RunLayers(const Workload& w, const Inputs& in, std::uint64_t ref) {
  Tally tally;
  tally.attempted += in.rejected;
  tally.failed += in.rejected;
  bool correct = true;
  const std::size_t n = in.live_count();

  // Driver view: one untraced live repetition.
  RunOutput live_out;
  double setup_s = 0.0;
  std::unique_ptr<Target> live_target =
      SetUp(w, in, w.exec, &live_out, &setup_s);
  if (live_target == nullptr) return 1;
  DueBook book = Live(live_target.get(), in, w.exec, &live_out);
  tally.attempted += live_out.tally.attempted;
  tally.failed += live_out.tally.failed;
  if (OutputDigest(&live_out, live_target->engine()) != ref) correct = false;
  live_target.reset();

  // The workload's executor, untraced and traced, alternating; then the
  // executors that own the spans this one lacks (barrier and term merge
  // live in the sharded runtime, absorb and round trips in the cluster).
  std::vector<double> plain_s;
  std::vector<double> traced_s;
  ExecReplay own;
  for (int rep = 0; rep < 2; ++rep) {
    ExecReplay plain;
    correct &= RunExecReplay(w, in, ref, w.exec, false, rep == 0, &tally, &plain);
    plain_s.push_back(plain.seconds);
    if (rep == 0) {
      own.subscribe_us = plain.subscribe_us;
      own.unsubscribe_us = plain.unsubscribe_us;
      own.triples = plain.triples;
      own.dict_terms = plain.dict_terms;
    }
    ExecReplay traced;
    correct &= RunExecReplay(w, in, ref, w.exec, true, false, &tally, &traced);
    traced_s.push_back(traced.seconds);
    if (rep == 0) {
      own.seconds = traced.seconds;
      own.spans = std::move(traced.spans);
      own.pool_queue_ns = traced.pool_queue_ns;
    }
  }
  ExecReplay sharded_side;
  ExecReplay cluster_side;
  const ExecReplay* sharded = &own;
  const ExecReplay* cluster = &own;
  if (w.exec != Exec::kSharded) {
    correct &= RunExecReplay(w, in, ref, Exec::kSharded, true, false, &tally,
                             &sharded_side);
    sharded = &sharded_side;
  }
  if (w.exec != Exec::kCluster) {
    correct &= RunExecReplay(w, in, ref, Exec::kCluster, true, false, &tally,
                             &cluster_side);
    cluster = &cluster_side;
  }

  Phase("executor replays done");
  const LayerCosts c = MeasureLayers(w, in);
  Phase("layers done");
  tally.attempted += n;
  tally.failed += static_cast<std::uint64_t>(c.rejected) - in.rejected +
                  c.frames_failed;

  // Spans of the programs' own instrumentation.
  auto sh = SumSpans(sharded->spans);
  auto cl = SumSpans(cluster->spans);
  auto ow = SumSpans(own.spans);
  const double sharded_epochs = std::max<double>(1, sh["shard.global"].count);
  const double sharded_rpe = n / sharded_epochs;
  const double barrier_ns = sh["shard.barrier"].ns / sharded_epochs;
  const SpanSum merge = sh["engine.term_merge_epoch"];
  const double term_merge_ns = merge.count > 0 ? merge.ns / merge.count : 0.0;
  double reports_per_epoch = 1.0;
  if (w.exec == Exec::kSharded) {
    reports_per_epoch = n / std::max<double>(1, ow["shard.global"].count);
  } else if (w.exec == Exec::kCluster) {
    reports_per_epoch = n / std::max<double>(1, ow["cluster.epoch_absorb"].count);
  }
  // Cluster epoch round trip: first send of an epoch to the end of its
  // receive on the coordinator.
  std::map<std::int64_t, std::int64_t> send_start;
  std::map<std::int64_t, std::int64_t> recv_end;
  for (const obs::TraceSpanRecord& s : cluster->spans) {
    if (std::strcmp(s.name, "cluster.epoch_send") == 0) {
      send_start.emplace(s.epoch, s.start_ns);
    } else if (std::strcmp(s.name, "cluster.epoch_recv") == 0) {
      recv_end[s.epoch] = s.start_ns + s.dur_ns;
    }
  }
  double rtt_sum = 0.0;
  std::size_t rtt_n = 0;
  for (const auto& [epoch, start] : send_start) {
    auto it = recv_end.find(epoch);
    if (it == recv_end.end()) continue;
    rtt_sum += static_cast<double>(it->second - start);
    ++rtt_n;
  }
  const double absorb_ns = cl["cluster.epoch_absorb"].ns / n;
  const double node_busy =
      cl["cluster.node_batch"].ns / (cluster->seconds * 1e9 * 2);

  const double ingest_ns = Median(plain_s) * 1e9 / n;
  const double overhead_pct =
      100.0 * (Median(traced_s) - Median(plain_s)) / Median(plain_s);

  // Reconciliation against the thread that makes the executor call. The
  // serial executor runs every layer on it. The sharded coordinator waits
  // at the barrier while the shards run the keyed layers, then runs the
  // term merge and the global layers. The cluster coordinator's call is
  // its epoch send, receive and absorb spans. Layers off that thread are
  // listed for reference but not summed.
  const bool serial = w.exec == Exec::kSerial;
  const bool sharded_exec = w.exec == Exec::kSharded;
  const bool coordinator = w.exec != Exec::kCluster;
  struct Part {
    const char* name;
    double ns;
    bool summed;
  };
  std::vector<Part> parts = {
      {"sources.decode", c.decode_ns, serial && w.nmea},
      {"synopses", c.synopses_ns, serial},
      {"rdf.transform", c.transform_ns * c.cp_ratio, serial},
      {"cep.keyed", c.keyed_ns, serial},
      {"sub.eval", c.eval_ns, serial},
      {"stream.barrier_wait", barrier_ns / sharded_rpe, sharded_exec},
      {"rdf.term_merge", term_merge_ns / sharded_rpe, sharded_exec},
      {"trajectory", c.trajectory_ns, coordinator},
      {"forecast", c.forecast_ns, coordinator},
      {"cep.proximity", c.proximity_ns, coordinator},
      {"cep.capacity", c.capacity_ns, coordinator && w.global_cep},
      {"cep.hotspot", c.hotspot_ns, coordinator && w.global_cep},
      {"sub.close_epoch", c.close_ns / c.reports_per_close, coordinator},
      {"cluster.epoch_send", cl["cluster.epoch_send"].ns / n, !coordinator},
      {"cluster.epoch_recv", cl["cluster.epoch_recv"].ns / n, !coordinator},
      {"cluster.absorb", absorb_ns, !coordinator},
  };
  double layer_sum = 0.0;
  std::printf("# %s (%s) per-report cost, ns (* = on the calling thread, "
              "summed):\n", w.name, ExecName(w.exec));
  for (const Part& p : parts) {
    if (p.summed) layer_sum += p.ns;
    std::printf("#   %-22s %12.1f %s\n", p.name, p.ns, p.summed ? "*" : "");
  }
  std::printf("#   %-22s %12.1f\n#   %-22s %12.1f\n#   %-22s %12.1f\n",
              "layer sum", layer_sum, "engine.ingest", ingest_ns,
              "unexplained", ingest_ns - layer_sum);

  std::vector<double>& late = book.late_ms();
  std::vector<double>& emit = book.emit_ms();
  std::vector<Metric> m = {
      {"sources.decode_ns", c.decode_ns, "ns"},
      {"sources.rejected", c.rejected, "count"},
      {"stream.late_p90_ms", Percentile(&late, 90), "ms"},
      {"stream.backlog_max", static_cast<double>(book.backlog_max()), "count"},
      {"driver.emit_p50_ms", Percentile(&emit, 50), "ms"},
      {"driver.emit_p90_ms", Percentile(&emit, 90), "ms"},
      {"driver.emit_p99_ms", Percentile(&emit, 99), "ms"},
      {"driver.delta_p50_ms", Percentile(&live_out.delta_ms, 50), "ms"},
      {"stream.reports_per_epoch", reports_per_epoch, "count"},
      {"stream.barrier_wait_ns", barrier_ns, "ns"},
      {"pool.queue_wait_ns", sharded->pool_queue_ns, "ns"},
      {"synopses.ns", c.synopses_ns, "ns"},
      {"synopses.cp_ratio", c.cp_ratio, "ratio"},
      {"rdf.transform_ns", c.transform_ns, "ns"},
      {"rdf.term_merge_ns", term_merge_ns, "ns"},
      {"rdf.triples", static_cast<double>(own.triples), "count"},
      {"rdf.dict_terms", static_cast<double>(own.dict_terms), "count"},
      {"trajectory.add_ns", c.trajectory_ns, "ns"},
      {"forecast.observe_ns", c.forecast_ns, "ns"},
      {"cep.keyed_ns", c.keyed_ns, "ns"},
      {"cep.proximity_ns", c.proximity_ns, "ns"},
      {"cep.cpa_pairs", c.cpa_pairs, "count"},
      {"cep.alarm_ratio", c.alarm_ratio, "ratio"},
      {"cep.capacity_ns", c.capacity_ns, "ns"},
      {"cep.hotspot_ns", c.hotspot_ns, "ns"},
      {"sub.eval_ns", c.eval_ns, "ns"},
      {"sub.watchers_per_report", c.watchers, "count"},
      {"sub.delta_ratio", c.delta_ratio, "ratio"},
      {"sub.close_epoch_ns", c.close_ns, "ns"},
      {"sub.subscribe_us", own.subscribe_us, "us"},
      {"sub.unsubscribe_us", own.unsubscribe_us, "us"},
      {"net.encode_ns", c.encode_ns, "ns"},
      {"net.decode_ns", c.decode_frame_ns, "ns"},
      {"net.bytes_per_report", c.bytes_per_report, "B"},
      {"cluster.epoch_rtt_us", rtt_n > 0 ? rtt_sum / rtt_n / 1e3 : 0.0, "us"},
      {"cluster.absorb_ns", absorb_ns, "ns"},
      {"cluster.node_busy_frac", node_busy, "ratio"},
      {"engine.ingest_ns", ingest_ns, "ns"},
      {"engine.unexplained_ns", ingest_ns - layer_sum, "ns"},
      {"obs.trace_overhead_pct", overhead_pct, "%"},
  };
  return PrintResult(correct, tally, m) ? 0 : 1;
}

}  // namespace
}  // namespace datacron::perfbench

int main(int argc, char** argv) {
  using namespace datacron::perfbench;
  const char* workload = nullptr;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s needs a value\n", argv[i]);
      return 2;
    }
    if (std::strcmp(argv[i], "--workload") == 0) {
      workload = argv[i + 1];
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--seconds") == 0) {
      seconds = std::strtod(argv[i + 1], nullptr);
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      trace = std::atoi(argv[i + 1]);
    } else {
      std::fprintf(stderr, "unknown argument %s\n", argv[i]);
      return 2;
    }
  }
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (workload != nullptr && std::strcmp(cand.name, workload) == 0) {
      w = &cand;
    }
  }
  if (w == nullptr || seconds <= 0) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  Phase("start");
  Inputs in;
  if (!MakeInputs(*w, seed, &in)) return 1;
  Phase("inputs ready");
  const std::uint64_t ref = ReferenceDigest(*w, in);
  Phase("reference digest ready");
  // peak_rss_mb covers the timed repetitions, not the reference run.
  if (trace == 0 && !ResetPeakRss()) {
    std::fprintf(stderr, "cannot reset the peak resident set\n");
    return 1;
  }
  return trace != 0 ? RunLayers(*w, in, ref)
                    : RunEndToEnd(*w, in, ref, seconds);
}
