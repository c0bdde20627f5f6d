// Helpers of the open-loop benchmark driver that carry its measurement
// rules: percentile selection, the seeded Poisson arrival schedule,
// due-time bookkeeping for calls that handle a batch, the order-sensitive
// output digest, and (entity, timestamp) matching of subscription deltas
// back to the report that triggered them. Header-only so the helper tests
// link them without the driver.
#ifndef DATACRON_PERFBENCH_HARNESS_H_
#define DATACRON_PERFBENCH_HARNESS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <span>
#include <string_view>
#include <tuple>
#include <vector>

#include "cep/event.h"
#include "sub/subscription.h"

namespace datacron::perfbench {

/// Nearest-rank percentile (q in [0, 100]) of `values`; reorders them.
/// Returns 0 for an empty sample. q = 50 of {1,2,3,4} is 2, q = 90 of
/// 1..10 is 9: the smallest value with at least q% of the sample at or
/// below it.
inline double Percentile(std::vector<double>* values, double q) {
  if (values->empty()) return 0.0;
  const double n = static_cast<double>(values->size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, values->size());
  auto nth = values->begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(values->begin(), nth, values->end());
  return *nth;
}

/// Median of a copy of `values` (nearest rank).
inline double Median(std::vector<double> values) {
  return Percentile(&values, 50.0);
}

/// Due times (nanoseconds after the schedule starts) of `n` arrivals of a
/// Poisson process with `rate_hz` arrivals per second. The schedule is a
/// pure function of (n, rate_hz, seed): it never looks at the clock, so
/// it does not slow down when the system does.
inline std::vector<std::int64_t> PoissonSchedule(std::size_t n,
                                                 double rate_hz,
                                                 std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::int64_t> due(n);
  double t_ns = 0.0;
  const double mean_gap_ns = 1e9 / rate_hz;
  for (std::size_t i = 0; i < n; ++i) {
    // 53 random bits -> u in (0, 1]; -log(u) is Exp(1).
    const double u =
        (static_cast<double>(rng() >> 11) + 1.0) * 0x1.0p-53;
    t_ns += -std::log(u) * mean_gap_ns;
    due[i] = static_cast<std::int64_t>(t_ns);
  }
  return due;
}

/// Per-report timing of an open-loop run. A call that handles reports
/// [first, first + count) starts at `start_ns` and returns at `end_ns`;
/// every report of the call is emitted when the call returns, so each one
/// is charged from its own due time to `end_ns` (queueing included).
class DueBook {
 public:
  explicit DueBook(std::span<const std::int64_t> due_ns) : due_(due_ns) {}

  /// Index of the first report not yet handed to a call.
  std::size_t next() const { return next_; }

  /// Number of reports due at `now_ns` that no call has taken yet.
  std::size_t DueCount(std::int64_t now_ns) const {
    const auto end = std::upper_bound(due_.begin() + next_, due_.end(),
                                      now_ns);
    return static_cast<std::size_t>(end - (due_.begin() + next_));
  }

  /// Records one call over the next `count` reports.
  void Record(std::size_t count, std::int64_t start_ns, std::int64_t end_ns) {
    backlog_max_ = std::max(backlog_max_, DueCount(start_ns));
    for (std::size_t i = next_; i < next_ + count; ++i) {
      late_ms_.push_back(static_cast<double>(start_ns - due_[i]) / 1e6);
      emit_ms_.push_back(static_cast<double>(end_ns - due_[i]) / 1e6);
    }
    next_ += count;
  }

  std::vector<double>& emit_ms() { return emit_ms_; }
  std::vector<double>& late_ms() { return late_ms_; }
  std::size_t backlog_max() const { return backlog_max_; }

 private:
  std::span<const std::int64_t> due_;
  std::size_t next_ = 0;
  std::size_t backlog_max_ = 0;
  std::vector<double> emit_ms_;
  std::vector<double> late_ms_;
};

/// Order-sensitive 64-bit FNV-1a digest: feeding the same values in
/// another order gives another digest.
class Digest {
 public:
  void Bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  template <typename T>
  void Pod(const T& v) {
    Bytes(&v, sizeof(v));
  }
  void Str(std::string_view s) {
    Pod(s.size());
    Bytes(s.data(), s.size());
  }
  void Add(const Event& e) {
    Pod(e.kind);
    Pod(e.time);
    Pod(e.predicted_time);
    Pod(e.entities.size());
    for (EntityId id : e.entities) Pod(id);
    Pod(e.position.lat_deg);
    Pod(e.position.lon_deg);
    Pod(e.position.alt_m);
    Str(e.label);
    Pod(e.attributes.size());
    for (const auto& [k, v] : e.attributes) {
      Str(k);
      Pod(v);
    }
  }
  void Add(const SubDelta& d) {
    Pod(d.sub);
    Pod(d.kind);
    Pod(d.entity);
    Pod(d.time);
    Pod(d.value);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Deltas whose content does not depend on where epochs close: hotspot
/// crossings are decided per epoch window, so they differ between a
/// serial run (an epoch per report) and a batched one and are left out
/// of the cross-executor comparison.
inline bool EpochInvariant(const SubDelta& d) {
  return d.kind != DeltaKind::kHotspotOn && d.kind != DeltaKind::kHotspotOff;
}

/// Geofence deltas carry the triggering report's (entity, timestamp).
inline bool IsGeofenceDelta(const SubDelta& d) {
  return d.kind == DeltaKind::kEnter || d.kind == DeltaKind::kExit ||
         d.kind == DeltaKind::kDwell;
}

/// Puts epoch-invariant deltas in one executor-independent order: by
/// trigger time, then entity, subscription, kind and value. Executors
/// coalesce deltas per epoch and subscriber, so their push order differs
/// even when the deltas are the same.
inline void CanonicalizeDeltas(std::vector<SubDelta>* deltas) {
  std::erase_if(*deltas, [](const SubDelta& d) { return !EpochInvariant(d); });
  std::sort(deltas->begin(), deltas->end(),
            [](const SubDelta& a, const SubDelta& b) {
              return std::tie(a.time, a.entity, a.sub, a.kind, a.value) <
                     std::tie(b.time, b.entity, b.sub, b.kind, b.value);
            });
}

/// Finds the input position of the report a geofence delta was triggered
/// by, from the delta's (entity, timestamp).
class TriggerIndex {
 public:
  void Add(EntityId entity, TimestampMs ts, std::size_t index) {
    keys_.push_back({entity, ts, index});
  }
  /// Call once after the last Add.
  void Seal() { std::sort(keys_.begin(), keys_.end()); }

  /// Input position of the report (entity, ts), or -1 when none matches.
  std::int64_t Find(EntityId entity, TimestampMs ts) const {
    const Key probe{entity, ts, 0};
    auto it = std::lower_bound(keys_.begin(), keys_.end(), probe);
    if (it == keys_.end() || it->entity != entity || it->ts != ts) return -1;
    return static_cast<std::int64_t>(it->index);
  }

 private:
  struct Key {
    EntityId entity;
    TimestampMs ts;
    std::size_t index;
    bool operator<(const Key& o) const {
      return std::tie(entity, ts, index) < std::tie(o.entity, o.ts, o.index);
    }
  };
  std::vector<Key> keys_;
};

}  // namespace datacron::perfbench

#endif  // DATACRON_PERFBENCH_HARNESS_H_
