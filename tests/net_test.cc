// Wire codec and transport units: encode/decode round-trips over randomized
// messages (seeded, reproducible), rejection of truncated and corrupted
// payloads without crashing, frame checksum behavior, and loopback/TCP
// transport semantics.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "net/codec.h"
#include "net/transport.h"
#include "net/wire.h"
#include "sub/subscription.h"

namespace datacron {
namespace {

// ---------------------------------------------------------------------
// Randomized message builders (seeded — every failure is reproducible).
// ---------------------------------------------------------------------

std::string RandString(Rng& rng, std::size_t max_len) {
  const std::size_t len =
      static_cast<std::size_t>(rng.UniformInt(0, static_cast<std::int64_t>(max_len)));
  std::string s;
  s.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    s.push_back(static_cast<char>('a' + rng.UniformInt(0, 25)));
  }
  return s;
}

PositionReport RandReport(Rng& rng) {
  PositionReport r;
  r.entity_id = static_cast<EntityId>(rng.NextUint64());
  r.domain = rng.Bernoulli(0.5) ? Domain::kMaritime : Domain::kAviation;
  r.timestamp = rng.UniformInt(0, 1'000'000'000);
  r.position = {rng.Uniform(-90, 90), rng.Uniform(-180, 180),
                rng.Uniform(0, 12000)};
  r.speed_mps = rng.Uniform(0, 300);
  r.course_deg = rng.Uniform(0, 360);
  r.vertical_rate_mps = rng.Uniform(-20, 20);
  return r;
}

Event RandEvent(Rng& rng) {
  Event e;
  e.kind = static_cast<EventKind>(rng.UniformInt(0, 11));
  e.time = rng.UniformInt(0, 1'000'000'000);
  e.predicted_time = e.time + rng.UniformInt(0, 60'000);
  const std::size_t n = static_cast<std::size_t>(rng.UniformInt(0, 3));
  for (std::size_t i = 0; i < n; ++i) {
    e.entities.push_back(static_cast<EntityId>(rng.NextUint64()));
  }
  e.position = {rng.Uniform(-90, 90), rng.Uniform(-180, 180), 0.0};
  e.label = RandString(rng, 12);
  const std::size_t attrs = static_cast<std::size_t>(rng.UniformInt(0, 3));
  for (std::size_t i = 0; i < attrs; ++i) {
    e.attributes[RandString(rng, 8)] = rng.Uniform(-1e6, 1e6);
  }
  return e;
}

Episode RandEpisode(Rng& rng) {
  Episode e;
  e.entity = static_cast<EntityId>(rng.NextUint64());
  e.kind = static_cast<EpisodeKind>(rng.UniformInt(0, 2));
  e.start_time = rng.UniformInt(0, 1'000'000'000);
  e.end_time = e.start_time + rng.UniformInt(0, 3'600'000);
  e.start_pos = {rng.Uniform(-90, 90), rng.Uniform(-180, 180), 0.0};
  e.end_pos = {rng.Uniform(-90, 90), rng.Uniform(-180, 180), 0.0};
  e.area = RandString(rng, 10);
  e.displacement_m = rng.Uniform(0, 1e5);
  e.path_m = e.displacement_m + rng.Uniform(0, 1e4);
  return e;
}

TermExport RandTerm(Rng& rng) {
  TermExport t;
  t.text = RandString(rng, 24);
  t.kind = static_cast<TermKind>(rng.UniformInt(0, 4));
  return t;
}

/// A random node arena as a well-behaved node sends it: each report
/// appends to the columns, and its slot's watermarks record where the
/// columns end, so every watermark column cuts its buffer exactly.
EpochResultMsg RandEpochResult(Rng& rng, std::int64_t min_reports = 0) {
  EpochResultMsg msg;
  msg.epoch = rng.UniformInt(0, 1000);
  msg.dict_size_before = rng.NextUint64() % 10000;
  const TermId max_id = msg.dict_size_before + 1;
  for (std::int64_t i = rng.UniformInt(min_reports, 4); i > 0; --i) {
    for (std::int64_t k = rng.UniformInt(0, 3); k > 0; --k) {
      msg.new_terms.push_back(RandTerm(rng));
    }
    for (std::int64_t k = rng.UniformInt(0, 4); k > 0; --k) {
      const TermId limit = max_id + msg.new_terms.size();
      msg.triples.push_back({rng.NextUint64() % limit + 1,
                             rng.NextUint64() % limit + 1,
                             rng.NextUint64() % limit + 1});
    }
    for (std::int64_t k = rng.UniformInt(0, 2); k > 0; --k) {
      msg.episodes.push_back(RandEpisode(rng));
    }
    for (std::int64_t k = rng.UniformInt(0, 2); k > 0; --k) {
      msg.events.push_back(RandEvent(rng));
    }
    for (std::int64_t k = rng.UniformInt(0, 3); k > 0; --k) {
      SubDelta d;
      d.sub = rng.NextUint64() % 100 + 1;
      d.kind = static_cast<DeltaKind>(rng.UniformInt(0, 6));
      d.entity = static_cast<EntityId>(rng.NextUint64());
      d.time = rng.UniformInt(0, 1'000'000'000);
      d.value = rng.Uniform(0, 1e6);
      msg.sub_deltas.push_back(d);
    }
    DatacronEngine::ShardSlot slot;
    slot.cp_count = static_cast<std::uint32_t>(rng.NextUint64() % 4);
    slot.terms_end = msg.new_terms.size();
    slot.triples_end = msg.triples.size();
    slot.episodes_end = msg.episodes.size();
    slot.events_end = msg.events.size();
    slot.subs_end = msg.sub_deltas.size();
    slot.synopses_ns = rng.UniformInt(0, 1'000'000);
    slot.transform_ns = rng.UniformInt(0, 1'000'000);
    slot.keyed_cep_ns = rng.UniformInt(0, 1'000'000);
    msg.slots.push_back(slot);
  }
  // Epoch-level side tables, id-sorted like a node sends them.
  const TermId limit = max_id + msg.new_terms.size();
  for (std::int64_t i = rng.UniformInt(0, 3); i > 0; --i) {
    msg.tags.push_back(
        {rng.NextUint64() % limit + 1,
         StTag{{static_cast<std::int32_t>(rng.UniformInt(-50, 50)),
                static_cast<std::int32_t>(rng.UniformInt(-50, 50))},
               rng.UniformInt(0, 1000)}});
  }
  for (std::int64_t i = rng.UniformInt(0, 3); i > 0; --i) {
    msg.node_geo.push_back(
        {rng.NextUint64() % limit + 1,
         NodeGeo{rng.Uniform(-90, 90), rng.Uniform(-180, 180), 0.0,
                 rng.UniformInt(0, 1'000'000)}});
  }
  for (std::int64_t i = rng.UniformInt(0, 3); i > 0; --i) {
    msg.sub_counts.push_back({rng.NextUint64() % 100 + 1,
                              static_cast<double>(rng.UniformInt(1, 50))});
  }
  const auto by_id = [](const auto& x, const auto& y) {
    return x.first < y.first;
  };
  std::sort(msg.tags.begin(), msg.tags.end(), by_id);
  std::sort(msg.node_geo.begin(), msg.node_geo.end(), by_id);
  std::sort(msg.sub_counts.begin(), msg.sub_counts.end(), by_id);
  return msg;
}

/// Valid by ValidateSpec — the Subscribe decoder validates, so round-trip
/// inputs must be legal subscriptions.
SubscriptionSpec RandSpec(Rng& rng) {
  switch (rng.UniformInt(0, 2)) {
    case 0: {
      GeofenceSpec g;
      const double lat = rng.Uniform(-60, 60);
      const double lon = rng.Uniform(-160, 160);
      if (rng.Bernoulli(0.3)) {
        const std::int64_t n = rng.UniformInt(3, 8);
        for (std::int64_t i = 0; i < n; ++i) {
          g.polygon.push_back({lat + rng.Uniform(-2, 2),
                               lon + rng.Uniform(-2, 2)});
        }
      } else if (rng.Bernoulli(0.2)) {
        // Antimeridian wrap: min_lon > max_lon by convention.
        g.bbox = BoundingBox::Of(lat, 175.0, lat + 5.0, -175.0);
      } else {
        g.bbox = BoundingBox::Of(lat, lon, lat + rng.Uniform(0.1, 5),
                                 lon + rng.Uniform(0.1, 5));
      }
      g.all_entities = rng.Bernoulli(0.3);
      if (!g.all_entities) {
        g.entity = static_cast<EntityId>(rng.UniformInt(1, 1'000'000));
      }
      if (rng.Bernoulli(0.5)) g.dwell_ms = rng.UniformInt(0, 600'000);
      return SubscriptionSpec::Geofence(std::move(g));
    }
    case 1: {
      ProximitySpec p;
      p.entity = static_cast<EntityId>(rng.UniformInt(1, 1'000'000));
      p.min_interval_ms = rng.UniformInt(0, 600'000);
      return SubscriptionSpec::Proximity(p);
    }
    default: {
      HotspotSpec h;
      const double lat = rng.Uniform(-60, 60);
      const double lon = rng.Uniform(-160, 160);
      h.bbox = BoundingBox::Of(lat, lon, lat + rng.Uniform(0.1, 5),
                               lon + rng.Uniform(0.1, 5));
      h.threshold = rng.Uniform(0.5, 500);
      h.window_epochs = static_cast<std::uint32_t>(rng.UniformInt(1, 16));
      return SubscriptionSpec::Hotspot(h);
    }
  }
}

SubDelta RandDelta(Rng& rng) {
  SubDelta d;
  d.sub = static_cast<SubscriptionId>(rng.UniformInt(1, 1'000'000));
  d.kind = static_cast<DeltaKind>(rng.UniformInt(0, 6));
  d.entity = static_cast<EntityId>(rng.NextUint64());
  d.time = rng.UniformInt(0, 1'000'000'000);
  d.value = rng.Uniform(-1e6, 1e6);
  return d;
}

CriticalPoint RandCriticalPoint(Rng& rng) {
  CriticalPoint cp;
  cp.report = RandReport(rng);
  cp.type = static_cast<CriticalPointType>(rng.UniformInt(0, 9));
  return cp;
}

obs::MetricsSnapshot RandMetricsSnapshot(Rng& rng) {
  obs::MetricsSnapshot snap;
  for (std::int64_t i = rng.UniformInt(0, 6); i > 0; --i) {
    snap.counters[RandString(rng, 24)] = rng.NextUint64();
  }
  for (std::int64_t i = rng.UniformInt(0, 3); i > 0; --i) {
    snap.gauges[RandString(rng, 24)] =
        static_cast<std::int64_t>(rng.NextUint64());
  }
  for (std::int64_t i = rng.UniformInt(0, 4); i > 0; --i) {
    LogHistogram& h = snap.histograms[RandString(rng, 24)];
    for (std::int64_t j = rng.UniformInt(0, 64); j > 0; --j) {
      h.Add(rng.Uniform(0, 1e7));
    }
  }
  return snap;
}

template <typename Msg>
void ExpectRoundTrip(const Msg& msg) {
  const std::string payload = Encode(msg);
  Msg decoded;
  const Status s = Decode(payload, &decoded);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(msg == decoded);
}

/// Every strict prefix of a valid payload must be rejected — the decoder
/// reads deterministically from the front, so truncation always surfaces
/// as ParseError, never a partial decode or a crash.
template <typename Msg>
void ExpectTruncationRejected(const Msg& msg) {
  const std::string payload = Encode(msg);
  for (std::size_t len = 0; len < payload.size(); ++len) {
    Msg decoded;
    const Status s = Decode(payload.substr(0, len), &decoded);
    EXPECT_FALSE(s.ok()) << "prefix length " << len << " of "
                         << payload.size();
  }
}

TEST(CodecTest, RoundTripPropertyOverRandomMessages) {
  Rng rng(0xC0DEC);
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE(trial);
    HelloMsg hello;
    hello.node_id = static_cast<std::uint32_t>(rng.UniformInt(0, 7));
    hello.num_nodes = hello.node_id + 1;
    for (std::int64_t i = rng.UniformInt(0, 10); i > 0; --i) {
      hello.baseline.push_back(RandTerm(rng));
    }
    ExpectRoundTrip(hello);

    ReportBatchMsg batch;
    batch.epoch = rng.UniformInt(0, 1000);
    for (std::int64_t i = rng.UniformInt(0, 8); i > 0; --i) {
      batch.reports.push_back(RandReport(rng));
    }
    ExpectRoundTrip(batch);

    // A node's epoch arena: per-report slots over columnar outputs, with
    // the coalesced dictionary delta beside them.
    ExpectRoundTrip(RandEpochResult(rng));

    WatermarkMsg wm;
    wm.epoch = rng.UniformInt(0, 1000);
    ExpectRoundTrip(wm);

    FlushResultMsg flush;
    for (std::int64_t i = rng.UniformInt(0, 5); i > 0; --i) {
      flush.flush.critical_points.push_back(RandCriticalPoint(rng));
    }
    for (std::int64_t i = rng.UniformInt(0, 5); i > 0; --i) {
      flush.flush.continuations.push_back(
          {static_cast<EntityId>(rng.NextUint64()), rng.Bernoulli(0.5),
           rng.UniformInt(0, 1'000'000'000), rng.Bernoulli(0.5)});
    }
    for (std::int64_t i = rng.UniformInt(0, 3); i > 0; --i) {
      flush.flush.completed_episodes.push_back(RandEpisode(rng));
    }
    for (std::int64_t i = rng.UniformInt(0, 3); i > 0; --i) {
      flush.flush.trailing_episodes.push_back(RandEpisode(rng));
    }
    for (std::int64_t i = rng.UniformInt(0, 2); i > 0; --i) {
      flush.flush.events.push_back(RandEvent(rng));
    }
    ExpectRoundTrip(flush);

    MetricsResultMsg metrics;
    metrics.snapshot = RandMetricsSnapshot(rng);
    ExpectRoundTrip(metrics);
  }
}

TEST(CodecTest, SubscriptionMessagesRoundTrip) {
  Rng rng(0x5AB5C12B);
  for (int trial = 0; trial < 60; ++trial) {
    SCOPED_TRACE(trial);
    SubscribeMsg sub;
    sub.id = rng.NextUint64() % 1'000'000;
    sub.subscriber = static_cast<SubscriberId>(rng.UniformInt(0, 1'000));
    sub.spec = RandSpec(rng);
    ExpectRoundTrip(sub);

    UnsubscribeMsg unsub;
    unsub.id = rng.NextUint64() % 1'000'000 + 1;
    unsub.subscriber = static_cast<SubscriberId>(rng.UniformInt(0, 1'000));
    ExpectRoundTrip(unsub);

    SubAckMsg ack;
    ack.id = rng.NextUint64() % 1'000'000;
    ack.ok = rng.Bernoulli(0.7);
    if (!ack.ok) ack.error = RandString(rng, 24);
    ExpectRoundTrip(ack);

    DeltaBatchMsg batch;
    batch.batch.subscriber =
        static_cast<SubscriberId>(rng.UniformInt(0, 1'000));
    batch.batch.epoch = rng.UniformInt(0, 1'000'000);
    for (std::int64_t i = rng.UniformInt(0, 6); i > 0; --i) {
      batch.batch.deltas.push_back(RandDelta(rng));
    }
    ExpectRoundTrip(batch);
  }
}

TEST(CodecTest, SubscriptionTruncationRejectedAtEveryPrefix) {
  Rng rng(0x7A12);
  SubscribeMsg sub;
  sub.id = 7;
  sub.subscriber = 3;
  sub.spec = RandSpec(rng);
  ExpectTruncationRejected(sub);

  UnsubscribeMsg unsub;
  unsub.id = 9;
  unsub.subscriber = 1;
  ExpectTruncationRejected(unsub);

  SubAckMsg ack;
  ack.id = 11;
  ack.ok = false;
  ack.error = "nope";
  ExpectTruncationRejected(ack);

  DeltaBatchMsg batch;
  batch.batch.subscriber = 5;
  batch.batch.epoch = 42;
  for (int i = 0; i < 3; ++i) batch.batch.deltas.push_back(RandDelta(rng));
  ExpectTruncationRejected(batch);
}

TEST(CodecTest, SubscriptionCorruptedBytesNeverCrashTheDecoder) {
  Rng rng(0x5AB0BAD);
  SubscribeMsg sub;
  sub.id = 12;
  sub.subscriber = 4;
  sub.spec = RandSpec(rng);
  std::string payload = Encode(sub);
  for (std::size_t off = 0; off < payload.size(); ++off) {
    std::string corrupt = payload;
    corrupt[off] = static_cast<char>(corrupt[off] ^ 0x5A);
    SubscribeMsg decoded;
    (void)Decode(corrupt, &decoded);
  }

  DeltaBatchMsg batch;
  batch.batch.subscriber = 2;
  batch.batch.epoch = 3;
  for (int i = 0; i < 4; ++i) batch.batch.deltas.push_back(RandDelta(rng));
  payload = Encode(batch);
  for (std::size_t off = 0; off < payload.size(); ++off) {
    std::string corrupt = payload;
    corrupt[off] = static_cast<char>(corrupt[off] ^ 0x5A);
    DeltaBatchMsg decoded;
    (void)Decode(corrupt, &decoded);
  }
}

TEST(CodecTest, SubscribePredicatePayloadBoundsAreEnforced) {
  // Hand-built frames: envelope + id + subscriber + length-prefixed
  // predicate. The decoder must reject before parsing a byte of an empty
  // or oversized predicate.
  const auto frame_with_predicate = [](const std::string& predicate) {
    WireWriter w;
    w.U16(static_cast<std::uint16_t>(MsgType::kSubscribe));
    w.U64(1);
    w.U32(2);
    w.Str(predicate);
    return w.Take();
  };

  SubscribeMsg decoded;
  Status s = Decode(frame_with_predicate(""), &decoded);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("empty"), std::string::npos) << s.ToString();

  s = Decode(frame_with_predicate(std::string(kMaxSubPredicateBytes + 1,
                                              '\x01')),
             &decoded);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("oversized"), std::string::npos)
      << s.ToString();

  // A well-formed predicate that fails semantic validation (hotspot with
  // zero threshold) is also rejected at decode time.
  SubscribeMsg bad;
  bad.subscriber = 2;
  bad.spec = SubscriptionSpec::Hotspot(
      {BoundingBox::Of(0, 0, 1, 1), /*threshold=*/0.0,
       /*window_epochs=*/1});
  EXPECT_FALSE(Decode(Encode(bad), &decoded).ok());

  // An out-of-range delta kind inside a batch is corruption.
  DeltaBatchMsg batch;
  batch.batch.subscriber = 1;
  SubDelta d;
  d.kind = static_cast<DeltaKind>(0x7E);
  batch.batch.deltas.push_back(d);
  DeltaBatchMsg decoded_batch;
  EXPECT_FALSE(Decode(Encode(batch), &decoded_batch).ok());
}

TEST(CodecTest, MetricsRoundTripPreservesMergeBehavior) {
  // The histogram-bucket encoding must reproduce snapshots that merge
  // exactly like the originals — that is what makes fleet-wide metrics
  // merging across processes possible.
  Rng rng(0x5EED);
  MetricsResultMsg a;
  MetricsResultMsg b;
  a.snapshot = RandMetricsSnapshot(rng);
  b.snapshot = RandMetricsSnapshot(rng);
  // One name in both, so the merge folds something.
  a.snapshot.counters["op.items_in"] = 3;
  b.snapshot.counters["op.items_in"] = 4;
  a.snapshot.histograms["op.process_ns"].Add(100);
  b.snapshot.histograms["op.process_ns"].Add(1e6);
  MetricsResultMsg a_decoded;
  MetricsResultMsg b_decoded;
  ASSERT_TRUE(Decode(Encode(a), &a_decoded).ok());
  ASSERT_TRUE(Decode(Encode(b), &b_decoded).ok());

  obs::MetricsSnapshot direct = a.snapshot;
  direct.Merge(b.snapshot);
  obs::MetricsSnapshot via_wire = a_decoded.snapshot;
  via_wire.Merge(b_decoded.snapshot);
  EXPECT_TRUE(direct == via_wire);
  EXPECT_EQ(via_wire.counters["op.items_in"], 7u);
  EXPECT_DOUBLE_EQ(direct.histograms["op.process_ns"].p99(),
                   via_wire.histograms["op.process_ns"].p99());
}

TEST(CodecTest, TruncatedPayloadsAreRejectedAtEveryPrefix) {
  Rng rng(0x7A11);
  EpochResultMsg result = RandEpochResult(rng, /*min_reports=*/1);
  result.new_terms.push_back(RandTerm(rng));
  result.slots.back().terms_end = result.new_terms.size();
  ExpectTruncationRejected(result);

  FlushResultMsg flush;
  flush.flush.critical_points.push_back(RandCriticalPoint(rng));
  flush.flush.continuations.push_back({42, true, 1234, false});
  ExpectTruncationRejected(flush);

  MetricsResultMsg metrics;
  metrics.snapshot.counters["engine.reports"] = 42;
  metrics.snapshot.gauges["engine.admission.policy"] = 1;
  metrics.snapshot.histograms["engine.total_ns"].Add(5000);
  ExpectTruncationRejected(metrics);
}

TEST(CodecTest, CorruptedBytesNeverCrashTheDecoder) {
  Rng rng(0xBADF00D);
  EpochResultMsg result = RandEpochResult(rng, /*min_reports=*/3);
  const std::string payload = Encode(result);

  // Single-byte corruption at every offset: the decoder must return
  // (either outcome is legal for payload bytes — a flipped double is just
  // a different double) without crashing or over-allocating.
  for (std::size_t off = 0; off < payload.size(); ++off) {
    std::string corrupt = payload;
    corrupt[off] = static_cast<char>(corrupt[off] ^ 0x5A);
    EpochResultMsg decoded;
    (void)Decode(corrupt, &decoded);
  }
}

/// One sequence field of one message, encoded twice: with the field empty
/// and with it holding `elements` minimum-size elements (default-constructed
/// wherever the decoder accepts that). Everything else stays default, so the
/// field's u32 count is the first byte where the two encodings differ.
struct SequenceCase {
  std::string field;
  std::string empty;
  std::string filled;
  std::size_t elements = 0;
  /// Encoded size of one minimum-size element.
  std::size_t element_bytes = 0;
  std::size_t count_offset = 0;
  /// Decodes a payload as the case's message type; OK only if it decodes
  /// to the filled message.
  std::function<Status(const std::string&)> decode;
};

template <typename Msg>
SequenceCase MakeSequenceCase(std::string field, const Msg& empty,
                              const Msg& filled, std::size_t elements,
                              std::size_t element_bytes) {
  SequenceCase c;
  c.field = std::move(field);
  c.empty = Encode(empty);
  c.filled = Encode(filled);
  c.elements = elements;
  c.element_bytes = element_bytes;
  c.count_offset = static_cast<std::size_t>(
      std::mismatch(c.empty.begin(), c.empty.end(), c.filled.begin(),
                    c.filled.end())
          .first -
      c.empty.begin());
  c.decode = [filled](const std::string& payload) {
    Msg decoded;
    Status s = Decode(payload, &decoded);
    if (s.ok() && !(decoded == filled)) {
      s = Status::Internal("decoded message differs");
    }
    return s;
  };
  return c;
}

/// Every sequence field of every message, top-level and nested. The
/// element sizes are the wire layout's minimums: report 61, event 53,
/// episode 89, triple 24, term 5, tag 24, node-geo 40, lat/lon 16, sub
/// delta 29, sub count 16, critical point 62, continuation 14, slot 68,
/// entity id 4, attribute 12, counter 12, gauge 12, histogram 8,
/// histogram bucket 9.
std::vector<SequenceCase> SequenceFieldCases() {
  // More elements than there are payload bytes after the sequence, so a
  // per-element minimum even one byte too large rejects the filled frame.
  constexpr std::size_t kMany = 64;
  std::vector<SequenceCase> cases;

  HelloMsg hello;
  hello.baseline.resize(kMany);
  cases.push_back(
      MakeSequenceCase("Hello.baseline", HelloMsg{}, hello, kMany, 5));

  ReportBatchMsg batch;
  batch.reports.resize(kMany);
  cases.push_back(MakeSequenceCase("ReportBatch.reports", ReportBatchMsg{},
                                   batch, kMany, 61));

  const auto epoch_column = [&](const char* field, std::size_t bytes,
                                auto fill) {
    EpochResultMsg filled;
    fill(filled);
    cases.push_back(MakeSequenceCase(std::string("EpochResult.") + field,
                                     EpochResultMsg{}, filled, kMany, bytes));
  };
  epoch_column("slots", 68, [](auto& m) { m.slots.resize(kMany); });
  epoch_column("triples", 24, [](auto& m) { m.triples.resize(kMany); });
  epoch_column("episodes", 89, [](auto& m) { m.episodes.resize(kMany); });
  epoch_column("events", 53, [](auto& m) { m.events.resize(kMany); });
  epoch_column("sub_deltas", 29,
               [](auto& m) { m.sub_deltas.resize(kMany); });
  epoch_column("tags", 24, [](auto& m) { m.tags.resize(kMany); });
  epoch_column("node_geo", 40, [](auto& m) { m.node_geo.resize(kMany); });
  epoch_column("sub_counts", 16,
               [](auto& m) { m.sub_counts.resize(kMany); });
  epoch_column("new_terms", 5, [](auto& m) { m.new_terms.resize(kMany); });

  EpochResultMsg one_event;
  one_event.events.resize(1);
  EpochResultMsg entities = one_event;
  entities.events[0].entities.resize(kMany);
  cases.push_back(MakeSequenceCase("EpochResult.events[0].entities",
                                   one_event, entities, kMany, 4));

  const auto flush_column = [&](const char* field, std::size_t bytes,
                                auto fill) {
    FlushResultMsg filled;
    fill(filled.flush);
    cases.push_back(MakeSequenceCase(std::string("FlushResult.") + field,
                                     FlushResultMsg{}, filled, kMany, bytes));
  };
  flush_column("critical_points", 62,
               [](auto& f) { f.critical_points.resize(kMany); });
  flush_column("continuations", 14,
               [](auto& f) { f.continuations.resize(kMany); });
  flush_column("completed_episodes", 89,
               [](auto& f) { f.completed_episodes.resize(kMany); });
  flush_column("trailing_episodes", 89,
               [](auto& f) { f.trailing_episodes.resize(kMany); });
  flush_column("events", 53, [](auto& f) { f.events.resize(kMany); });

  // A map holds one default element; as the last bytes of the frame it
  // still leaves no slack for a too-large minimum.
  FlushResultMsg flush_event;
  flush_event.flush.events.resize(1);
  FlushResultMsg attributes = flush_event;
  attributes.flush.events[0].attributes[""] = 0.0;
  cases.push_back(MakeSequenceCase("FlushResult.events[0].attributes",
                                   flush_event, attributes, 1, 12));

  // Snapshot maps are keyed by name, so each holds one default element.
  // Only the histograms map ends the frame; the counters and gauges maps
  // are followed by the later maps' counts (8 and 4 bytes of slack).
  MetricsResultMsg counters;
  counters.snapshot.counters[""] = 0;
  cases.push_back(MakeSequenceCase("MetricsResult.snapshot.counters",
                                   MetricsResultMsg{}, counters, 1, 12));
  MetricsResultMsg gauges;
  gauges.snapshot.gauges[""] = 0;
  cases.push_back(MakeSequenceCase("MetricsResult.snapshot.gauges",
                                   MetricsResultMsg{}, gauges, 1, 12));
  MetricsResultMsg one_histogram;
  one_histogram.snapshot.histograms[""] = LogHistogram();
  cases.push_back(MakeSequenceCase("MetricsResult.snapshot.histograms",
                                   MetricsResultMsg{}, one_histogram, 1, 8));

  // Histogram buckets must be nonzero, so the minimum-size bucket is any
  // (index, count) pair; all 64 buckets are filled.
  MetricsResultMsg buckets = one_histogram;
  for (std::size_t b = 0; b < LogHistogram::num_buckets(); ++b) {
    buckets.snapshot.histograms[""].AddBucketCount(b, 1);
  }
  cases.push_back(
      MakeSequenceCase("MetricsResult.snapshot.histograms[0].buckets",
                       one_histogram, buckets, LogHistogram::num_buckets(),
                       9));

  // The polygon sits in the nested predicate payload, whose length prefix
  // differs first: its count follows the envelope, id, subscriber, that
  // prefix, the spec kind and the bbox.
  SubscribeMsg bbox_fence;
  bbox_fence.spec = SubscriptionSpec::Geofence(
      {BoundingBox::Of(0.0, 0.0, 1.0, 1.0), {}, 1, false, 0});
  SubscribeMsg polygon = bbox_fence;
  for (std::size_t i = 0; i < kMany; ++i) {
    polygon.spec.geofence.polygon.push_back(
        {static_cast<double>(i % 2), static_cast<double>(i)});
  }
  cases.push_back(MakeSequenceCase("Subscribe.spec.geofence.polygon",
                                   bbox_fence, polygon, kMany, 16));
  cases.back().count_offset = 2 + 8 + 4 + 4 + 1 + 32;

  DeltaBatchMsg deltas;
  deltas.batch.deltas.resize(kMany);
  cases.push_back(MakeSequenceCase("DeltaBatch.deltas", DeltaBatchMsg{},
                                   deltas, kMany, 29));
  return cases;
}

std::uint32_t ReadCount(const std::string& payload, std::size_t offset) {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(
             static_cast<unsigned char>(payload[offset + i]))
         << (8 * i);
  }
  return v;
}

TEST(CodecTest, StructuralCorruptionIsRejected) {
  WatermarkMsg wm;
  wm.epoch = 9;
  std::string payload = Encode(wm);

  // Wrong type tag.
  std::string wrong_type = payload;
  wrong_type[0] = static_cast<char>(0x7F);
  WatermarkMsg decoded;
  EXPECT_FALSE(Decode(wrong_type, &decoded).ok());
  MsgType type;
  EXPECT_FALSE(DecodeType(wrong_type, &type).ok());

  // Trailing bytes.
  std::string trailing = payload + "x";
  EXPECT_FALSE(Decode(trailing, &decoded).ok());

  // Inflated sequence count: a count far beyond the remaining payload is
  // caught before any allocation happens.
  ReportBatchMsg batch;
  batch.epoch = 1;
  batch.reports.push_back(PositionReport{});
  std::string inflated = Encode(batch);
  // The count field sits right after the u16 type and i64 epoch.
  inflated[10] = static_cast<char>(0xFF);
  inflated[11] = static_cast<char>(0xFF);
  inflated[12] = static_cast<char>(0xFF);
  inflated[13] = static_cast<char>(0xFF);
  ReportBatchMsg decoded_batch;
  EXPECT_FALSE(Decode(inflated, &decoded_batch).ok());

  // Out-of-range enum (Domain byte of the first report).
  std::string bad_enum = Encode(batch);
  bad_enum[14 + 4] = static_cast<char>(0x9);
  EXPECT_FALSE(Decode(bad_enum, &decoded_batch).ok());

  // Inflated arena column: the triples count of an epoch result, after
  // the u16 type, i64 epoch, u64 dict_size_before and the slots column
  // (u32 count + 68 bytes per slot).
  EpochResultMsg result;
  result.epoch = 2;
  result.slots.push_back({});
  result.slots.back().triples_end = 1;
  result.triples.push_back({1, 2, 3});
  std::string inflated_column = Encode(result);
  const std::size_t triples_count = 2 + 8 + 8 + 4 + 68;
  ASSERT_EQ(inflated_column[triples_count], 1);  // one triple, little-endian
  for (std::size_t i = 0; i < 4; ++i) {
    inflated_column[triples_count + i] = static_cast<char>(0xFF);
  }
  EpochResultMsg decoded_result;
  EXPECT_TRUE(Decode(Encode(result), &decoded_result).ok());
  EXPECT_FALSE(Decode(inflated_column, &decoded_result).ok());

  // Every sequence field of every message, nested ones included: a count
  // inflated far past the remaining payload is rejected before anything
  // is allocated for it.
  for (const SequenceCase& c : SequenceFieldCases()) {
    SCOPED_TRACE(c.field);
    ASSERT_LE(c.count_offset + 4, c.filled.size());
    ASSERT_EQ(ReadCount(c.filled, c.count_offset), c.elements);
    std::string inflated_count = c.filled;
    for (std::size_t i = 0; i < 4; ++i) {
      inflated_count[c.count_offset + i] = static_cast<char>(0xFF);
    }
    EXPECT_EQ(c.decode(inflated_count).code(), StatusCode::kParseError);
  }
}

TEST(CodecTest, MinimumSizeElementsRoundTrip) {
  // Each sequence filled with minimum-size elements grows the frame by
  // exactly the element minimum per element, and still decodes: a count
  // bound built from a larger per-element minimum would reject it.
  for (const SequenceCase& c : SequenceFieldCases()) {
    SCOPED_TRACE(c.field);
    EXPECT_EQ(c.filled.size() - c.empty.size(),
              c.elements * c.element_bytes);
    const Status s = c.decode(c.filled);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }

  // And one message with a default element in every sequence at once.
  EpochResultMsg result;
  result.slots.resize(1);
  result.triples.resize(1);
  result.episodes.resize(1);
  result.events.resize(1);
  result.events[0].entities.resize(1);
  result.events[0].attributes[""] = 0.0;
  result.sub_deltas.resize(1);
  result.tags.resize(1);
  result.node_geo.resize(1);
  result.sub_counts.resize(1);
  result.new_terms.resize(1);
  ExpectRoundTrip(result);

  FlushResultMsg flush;
  flush.flush.critical_points.resize(1);
  flush.flush.continuations.resize(1);
  flush.flush.completed_episodes.resize(1);
  flush.flush.trailing_episodes.resize(1);
  flush.flush.events.resize(1);
  ExpectRoundTrip(flush);
}

// ---------------------------------------------------------------------
// Golden frames: one fixed instance of every MsgType, compared byte for
// byte against the committed layout. Round trips cannot see a layout
// change that the encoder and decoder make together; these can.
// ---------------------------------------------------------------------

std::string Hex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(2 * bytes.size());
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

PositionReport GoldenReport() {
  PositionReport r;
  r.entity_id = 257;
  r.domain = Domain::kAviation;
  r.timestamp = 1000;
  r.position = {1.5, -2.25, 300.0};
  r.speed_mps = 12.5;
  r.course_deg = 90.0;
  r.vertical_rate_mps = -1.0;
  return r;
}

Event GoldenEvent() {
  Event e;
  e.kind = EventKind::kComposite;
  e.time = 1000;
  e.predicted_time = 2000;
  e.entities = {257, 258};
  e.position = {1.5, -2.25, 0.0};
  e.label = "cpa";
  e.attributes = {{"cpa_m", 12.5}, {"d", -1.0}};
  return e;
}

Episode GoldenEpisode(EpisodeKind kind) {
  Episode e;
  e.entity = 257;
  e.kind = kind;
  e.start_time = 1000;
  e.end_time = 5000;
  e.start_pos = {1.5, -2.25, 0.0};
  e.end_pos = {1.75, -2.0, 0.0};
  e.area = "port";
  e.displacement_m = 10.5;
  e.path_m = 20.25;
  return e;
}

SubDelta GoldenDelta(DeltaKind kind) {
  SubDelta d;
  d.sub = 7;
  d.kind = kind;
  d.entity = 257;
  d.time = 1000;
  d.value = 3.5;
  return d;
}

EpochResultMsg GoldenEpochResult() {
  EpochResultMsg msg;
  msg.epoch = 6;
  msg.dict_size_before = 40;
  DatacronEngine::ShardSlot slot;
  slot.cp_count = 2;
  slot.terms_end = 1;
  slot.triples_end = 1;
  slot.episodes_end = 1;
  slot.events_end = 1;
  slot.subs_end = 1;
  slot.synopses_ns = 11;
  slot.transform_ns = 22;
  slot.keyed_cep_ns = 33;
  msg.slots = {slot};
  msg.triples = {{41, 2, 3}};
  msg.episodes = {GoldenEpisode(EpisodeKind::kGap)};
  msg.events = {GoldenEvent()};
  msg.sub_deltas = {GoldenDelta(DeltaKind::kDwell)};
  msg.tags = {{41, StTag{{-4, 5}, 6}}};
  msg.node_geo = {{41, NodeGeo{1.5, -2.25, 0.0, 1000}}};
  msg.sub_counts = {{7, 3.0}};
  msg.new_terms = {{"dc:n", TermKind::kIri}};
  return msg;
}

FlushResultMsg GoldenFlushResult() {
  FlushResultMsg msg;
  msg.flush.critical_points = {
      {GoldenReport(), CriticalPointType::kTrajectoryEnd}};
  msg.flush.continuations = {{257, true, 1000, true}};
  msg.flush.completed_episodes = {GoldenEpisode(EpisodeKind::kMove)};
  msg.flush.trailing_episodes = {GoldenEpisode(EpisodeKind::kStop)};
  msg.flush.events = {GoldenEvent()};
  return msg;
}

MetricsResultMsg GoldenMetricsResult() {
  MetricsResultMsg msg;
  msg.snapshot.counters = {{"cp.items_in", 3}, {"cp.items_out", 1}};
  msg.snapshot.gauges = {{"policy", -2}};
  for (const double ns : {128.0, 512.0, 1024.0}) {
    msg.snapshot.histograms["cp.process_ns"].Add(ns);
  }
  return msg;
}

SubscribeMsg GoldenSubscribe(SubKind kind) {
  SubscribeMsg msg;
  msg.id = 9;
  msg.subscriber = 3;
  switch (kind) {
    case SubKind::kGeofence: {
      GeofenceSpec g;
      g.bbox = BoundingBox::Of(1.0, 2.0, 3.0, 4.0);
      g.polygon = {{1.0, 2.0}, {3.0, 2.0}, {3.0, 4.0}};
      g.entity = 257;
      g.dwell_ms = 60'000;
      msg.spec = SubscriptionSpec::Geofence(std::move(g));
      break;
    }
    case SubKind::kProximity:
      msg.spec = SubscriptionSpec::Proximity({257, 5'000});
      break;
    case SubKind::kHotspot:
      msg.spec = SubscriptionSpec::Hotspot(
          {BoundingBox::Of(1.0, 2.0, 3.0, 4.0), 2.5, 4});
      break;
  }
  return msg;
}

/// Encodes `msg`, compares it with the committed hex, and decodes the
/// committed bytes back into `msg`.
template <typename Msg>
void ExpectGolden(const Msg& msg, const std::string& hex) {
  const std::string payload = Encode(msg);
  EXPECT_EQ(Hex(payload), hex);
  Msg decoded;
  const Status s = Decode(payload, &decoded);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(decoded == msg);
}

TEST(CodecTest, GoldenFramesMatchTheCommittedLayout) {
  {
    SCOPED_TRACE("Hello");
    HelloMsg msg;
    msg.node_id = 1;
    msg.num_nodes = 2;
    msg.baseline = {{"dc:a", TermKind::kIri},
                    {"7", TermKind::kLiteralDateTime}};
    ExpectGolden(msg,
        "01000100000002000000020000000400000064633a6100010000003704");
  }
  {
    SCOPED_TRACE("ReportBatch");
    ReportBatchMsg msg;
    msg.epoch = 5;
    msg.reports = {GoldenReport()};
    ExpectGolden(msg,
        "02000500000000000000010000000101000001e8030000000000000000000000"
        "00f83f00000000000002c00000000000c0724000000000000029400000000000"
        "805640000000000000f0bf");
  }
  {
    SCOPED_TRACE("EpochResult");
    ExpectGolden(GoldenEpochResult(),
        "0300060000000000000028000000000000000100000002000000010000000000"
        "0000010000000000000001000000000000000100000000000000010000000000"
        "00000b0000000000000016000000000000002100000000000000010000002900"
        "00000000000002000000000000000300000000000000010000000101000002e8"
        "030000000000008813000000000000000000000000f83f00000000000002c000"
        "00000000000000000000000000fc3f00000000000000c0000000000000000004"
        "000000706f727400000000000025400000000000403440010000000be8030000"
        "00000000d007000000000000020000000101000002010000000000000000f83f"
        "00000000000002c0000000000000000003000000637061020000000500000063"
        "70615f6d00000000000029400100000064000000000000f0bf01000000070000"
        "00000000000201010000e8030000000000000000000000000c40010000002900"
        "000000000000fcffffff05000000060000000000000001000000290000000000"
        "0000000000000000f83f00000000000002c00000000000000000e80300000000"
        "0000010000000700000000000000000000000000084001000000040000006463"
        "3a6e00");
  }
  {
    SCOPED_TRACE("Watermark");
    WatermarkMsg msg;
    msg.epoch = -7;
    ExpectGolden(msg, "0400f9ffffffffffffff");
  }
  {
    SCOPED_TRACE("FlushResult");
    ExpectGolden(GoldenFlushResult(),
        "0600010000000101000001e803000000000000000000000000f83f0000000000"
        "0002c00000000000c07240000000000000294000000000008056400000000000"
        "00f0bf09010000000101000001e80300000000000001010000000101000001e8"
        "030000000000008813000000000000000000000000f83f00000000000002c000"
        "00000000000000000000000000fc3f00000000000000c0000000000000000004"
        "000000706f727400000000000025400000000000403440010000000101000000"
        "e8030000000000008813000000000000000000000000f83f00000000000002c0"
        "0000000000000000000000000000fc3f00000000000000c00000000000000000"
        "04000000706f727400000000000025400000000000403440010000000be80300"
        "0000000000d007000000000000020000000101000002010000000000000000f8"
        "3f00000000000002c00000000000000000030000006370610200000005000000"
        "6370615f6d00000000000029400100000064000000000000f0bf");
  }
  {
    SCOPED_TRACE("MetricsResult");
    ExpectGolden(GoldenMetricsResult(),
        "0800020000000b00000063702e6974656d735f696e03000000000000000c0000"
        "0063702e6974656d735f6f757401000000000000000100000006000000706f6c"
        "696379feffffffffffffff010000000d00000063702e70726f636573735f6e73"
        "030000000801000000000000000a01000000000000000b0100000000000000");
  }
  {
    SCOPED_TRACE("Subscribe geofence");
    ExpectGolden(GoldenSubscribe(SubKind::kGeofence),
        "0a000900000000000000030000006200000000000000000000f03f0000000000"
        "0000400000000000000840000000000000104003000000000000000000f03f00"
        "0000000000004000000000000008400000000000000040000000000000084000"
        "00000000001040010100000060ea000000000000");
  }
  {
    SCOPED_TRACE("Subscribe proximity");
    ExpectGolden(GoldenSubscribe(SubKind::kProximity),
        "0a000900000000000000030000000d00000001010100008813000000000000");
  }
  {
    SCOPED_TRACE("Subscribe hotspot");
    ExpectGolden(GoldenSubscribe(SubKind::kHotspot),
        "0a000900000000000000030000002d00000002000000000000f03f0000000000"
        "00004000000000000008400000000000001040000000000000044004000000");
  }
  {
    SCOPED_TRACE("Unsubscribe");
    UnsubscribeMsg msg;
    msg.id = 9;
    msg.subscriber = 3;
    ExpectGolden(msg, "0b00090000000000000003000000");
  }
  {
    SCOPED_TRACE("SubAck");
    SubAckMsg msg;
    msg.id = 9;
    msg.ok = false;
    msg.error = "no";
    ExpectGolden(msg, "0c00090000000000000000020000006e6f");
  }
  {
    SCOPED_TRACE("DeltaBatch");
    DeltaBatchMsg msg;
    msg.batch.subscriber = 3;
    msg.batch.epoch = 8;
    msg.batch.deltas = {GoldenDelta(DeltaKind::kHotspotOff)};
    ExpectGolden(msg,
        "0d000300000008000000000000000100000007000000000000000601010000e8"
        "030000000000000000000000000c40");
  }
  EXPECT_EQ(Hex(EncodeControl(MsgType::kFlushRequest)), "0500");
  EXPECT_EQ(Hex(EncodeControl(MsgType::kMetricsRequest)), "0700");
  EXPECT_EQ(Hex(EncodeControl(MsgType::kShutdown)), "0900");
}

// ---------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------

TEST(FrameTest, EncodeDecodeVerifyRoundTrip) {
  const std::string payload = "the quick brown fox";
  const std::string frame = EncodeFrame(payload);
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + payload.size());

  std::uint32_t len = 0;
  ASSERT_TRUE(DecodeFrameHeader(frame.data(), &len).ok());
  EXPECT_EQ(len, payload.size());
  EXPECT_TRUE(
      VerifyFramePayload(frame.data(), frame.substr(kFrameHeaderBytes))
          .ok());
}

TEST(FrameTest, BadMagicAndOversizeLengthAreRejected) {
  std::string frame = EncodeFrame("abc");
  std::uint32_t len = 0;
  frame[0] = 'X';
  EXPECT_FALSE(DecodeFrameHeader(frame.data(), &len).ok());

  WireWriter w;
  w.U32(kFrameMagic);
  w.U32(kMaxFramePayloadBytes + 1);
  w.U32(0);
  EXPECT_FALSE(DecodeFrameHeader(w.data().data(), &len).ok());
}

TEST(FrameTest, ChecksumCatchesPayloadCorruption) {
  const std::string payload = "sensitive bits";
  const std::string frame = EncodeFrame(payload);
  std::string corrupt = frame.substr(kFrameHeaderBytes);
  corrupt[3] = static_cast<char>(corrupt[3] ^ 0x01);
  EXPECT_FALSE(VerifyFramePayload(frame.data(), corrupt).ok());
  // Length mismatch is also caught.
  EXPECT_FALSE(VerifyFramePayload(frame.data(), payload + "z").ok());
}

// ---------------------------------------------------------------------
// Transports
// ---------------------------------------------------------------------

TEST(LoopbackTransportTest, DeliversInFifoOrderBothWays) {
  auto [a, b] = LoopbackTransport::CreatePair();
  ASSERT_TRUE(a->Send("one").ok());
  ASSERT_TRUE(a->Send("two").ok());
  ASSERT_TRUE(b->Send("reply").ok());

  Result<std::string> r1 = b->Recv();
  Result<std::string> r2 = b->Recv();
  Result<std::string> r3 = a->Recv();
  ASSERT_TRUE(r1.ok() && r2.ok() && r3.ok());
  EXPECT_EQ(r1.value(), "one");
  EXPECT_EQ(r2.value(), "two");
  EXPECT_EQ(r3.value(), "reply");
}

TEST(LoopbackTransportTest, CloseWakesBlockedReceiver) {
  auto [a, b] = LoopbackTransport::CreatePair();
  std::thread closer([&a] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    a->Close();
  });
  Result<std::string> r = b->Recv();
  closer.join();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(b->Send("late").ok());
}

TEST(TcpTransportTest, FramedRoundTripIncludingLargeAndEmptyPayloads) {
  Result<std::unique_ptr<TcpListener>> listener = TcpListener::Create();
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();

  Result<std::unique_ptr<Transport>> client =
      TcpConnect(listener.value()->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Result<std::unique_ptr<Transport>> server = listener.value()->Accept();
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  std::string big(1 << 20, '\0');
  Rng rng(0xB16);
  for (char& c : big) c = static_cast<char>(rng.NextUint64());

  ASSERT_TRUE(client.value()->Send("hello").ok());
  ASSERT_TRUE(client.value()->Send("").ok());
  ASSERT_TRUE(client.value()->Send(big).ok());

  Result<std::string> r1 = server.value()->Recv();
  Result<std::string> r2 = server.value()->Recv();
  Result<std::string> r3 = server.value()->Recv();
  ASSERT_TRUE(r1.ok() && r2.ok() && r3.ok());
  EXPECT_EQ(r1.value(), "hello");
  EXPECT_EQ(r2.value(), "");
  EXPECT_TRUE(r3.value() == big);

  client.value()->Close();
  Result<std::string> eof = server.value()->Recv();
  EXPECT_FALSE(eof.ok());
  EXPECT_EQ(eof.status().code(), StatusCode::kFailedPrecondition);
}

TEST(TcpTransportTest, GarbageStreamIsRejectedNotCrashed) {
  Result<std::unique_ptr<TcpListener>> listener = TcpListener::Create();
  ASSERT_TRUE(listener.ok());
  const std::uint16_t port = listener.value()->port();

  // A raw socket writing non-frame bytes: Recv must fail with ParseError
  // (bad magic), not hang or crash.
  std::thread writer([port] {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    const char garbage[] = "this is not a DACR frame at all............";
    (void)::send(fd, garbage, sizeof(garbage), 0);
    ::close(fd);
  });
  Result<std::unique_ptr<Transport>> server = listener.value()->Accept();
  ASSERT_TRUE(server.ok());
  Result<std::string> r = server.value()->Recv();
  writer.join();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

}  // namespace
}  // namespace datacron
