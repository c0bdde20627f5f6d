#include "net/codec.h"

#include <concepts>
#include <map>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

namespace datacron {

namespace {

/// Status propagation for the deeply nested decoders.
#define DC_RET(expr)                              \
  do {                                            \
    if (Status _s = (expr); !_s.ok()) return _s;  \
  } while (0)

using ShardSlot = DatacronEngine::ShardSlot;

// --- enum ranges ---------------------------------------------------------
//
// The largest valid value of every enum on the wire. Enums travel as one
// byte; the decoder rejects anything past the maximum, so a corrupted
// frame never produces an out-of-range enum.

constexpr Domain EnumMax(Domain) { return Domain::kAviation; }
constexpr EventKind EnumMax(EventKind) { return EventKind::kComposite; }
constexpr EpisodeKind EnumMax(EpisodeKind) { return EpisodeKind::kGap; }
constexpr TermKind EnumMax(TermKind) { return TermKind::kLiteralDateTime; }
constexpr DeltaKind EnumMax(DeltaKind) { return DeltaKind::kHotspotOff; }
constexpr CriticalPointType EnumMax(CriticalPointType) {
  return CriticalPointType::kTrajectoryEnd;
}
constexpr SubKind EnumMax(SubKind) { return SubKind::kHotspot; }
/// The envelope's u16 tag, checked by DecodeType.
constexpr MsgType EnumMax(MsgType) { return MsgType::kDeltaBatch; }

// --- field lists ---------------------------------------------------------
//
// One per wire struct: its members in wire order, as a tuple of
// references. `T` is the struct or the const struct, so the same list
// serves the encoder and the decoder. A member left out does not travel.

template <typename T, typename U>
concept Is = std::same_as<std::remove_const_t<T>, U>;

template <typename T>
constexpr bool kIsPair = false;
template <typename A, typename B>
constexpr bool kIsPair<std::pair<A, B>> = true;

/// Side-table entries, sub counts, map entries and histogram buckets.
template <typename T>
  requires kIsPair<std::remove_const_t<T>>
auto Fields(T& p) { return std::tie(p.first, p.second); }

template <Is<GeoPoint> T>
auto Fields(T& p) { return std::tie(p.lat_deg, p.lon_deg, p.alt_m); }

template <Is<LatLon> T>
auto Fields(T& p) { return std::tie(p.lat_deg, p.lon_deg); }

template <Is<BoundingBox> T>
auto Fields(T& b) {
  return std::tie(b.min_lat, b.min_lon, b.max_lat, b.max_lon);
}

template <Is<GridCell> T>
auto Fields(T& c) { return std::tie(c.ix, c.iy); }

template <Is<PositionReport> T>
auto Fields(T& r) {
  return std::tie(r.entity_id, r.domain, r.timestamp, r.position,
                  r.speed_mps, r.course_deg, r.vertical_rate_mps);
}

template <Is<Event> T>
auto Fields(T& e) {
  return std::tie(e.kind, e.time, e.predicted_time, e.entities, e.position,
                  e.label, e.attributes);
}

template <Is<Episode> T>
auto Fields(T& e) {
  return std::tie(e.entity, e.kind, e.start_time, e.end_time, e.start_pos,
                  e.end_pos, e.area, e.displacement_m, e.path_m);
}

template <Is<Triple> T>
auto Fields(T& t) { return std::tie(t.s, t.p, t.o); }

template <Is<TermExport> T>
auto Fields(T& t) { return std::tie(t.text, t.kind); }

template <Is<StTag> T>
auto Fields(T& t) { return std::tie(t.cell, t.bucket); }

template <Is<NodeGeo> T>
auto Fields(T& g) {
  return std::tie(g.lat_deg, g.lon_deg, g.alt_m, g.timestamp);
}

template <Is<SubDelta> T>
auto Fields(T& d) { return std::tie(d.sub, d.kind, d.entity, d.time, d.value); }

template <Is<CriticalPoint> T>
auto Fields(T& cp) { return std::tie(cp.report, cp.type); }

template <Is<EntityRdfContinuation> T>
auto Fields(T& c) {
  return std::tie(c.entity, c.has_prev_node, c.prev_node_ts, c.rdf_known);
}

/// `arena` is not shipped: the coordinator assigns it.
template <Is<ShardSlot> T>
auto Fields(T& s) {
  return std::tie(s.cp_count, s.terms_end, s.triples_end, s.episodes_end,
                  s.events_end, s.subs_end, s.synopses_ns, s.transform_ns,
                  s.keyed_cep_ns);
}

template <Is<KeyedFlush> T>
auto Fields(T& f) {
  return std::tie(f.critical_points, f.continuations, f.completed_episodes,
                  f.trailing_episodes, f.events);
}

template <Is<obs::MetricsSnapshot> T>
auto Fields(T& s) { return std::tie(s.counters, s.gauges, s.histograms); }

template <Is<GeofenceSpec> T>
auto Fields(T& g) {
  return std::tie(g.bbox, g.polygon, g.entity, g.all_entities, g.dwell_ms);
}

template <Is<ProximitySpec> T>
auto Fields(T& p) { return std::tie(p.entity, p.min_interval_ms); }

template <Is<HotspotSpec> T>
auto Fields(T& h) { return std::tie(h.bbox, h.threshold, h.window_epochs); }

template <Is<DeltaBatch> T>
auto Fields(T& b) { return std::tie(b.subscriber, b.epoch, b.deltas); }

// Messages (the u16 kType envelope precedes the list).

template <Is<HelloMsg> T>
auto Fields(T& m) { return std::tie(m.node_id, m.num_nodes, m.baseline); }

template <Is<ReportBatchMsg> T>
auto Fields(T& m) { return std::tie(m.epoch, m.reports); }

template <Is<EpochResultMsg> T>
auto Fields(T& m) {
  return std::tie(m.epoch, m.dict_size_before, m.slots, m.triples,
                  m.episodes, m.events, m.sub_deltas, m.tags, m.node_geo,
                  m.sub_counts, m.new_terms);
}

template <Is<WatermarkMsg> T>
auto Fields(T& m) { return std::tie(m.epoch); }

template <Is<FlushResultMsg> T>
auto Fields(T& m) { return std::tie(m.flush); }

template <Is<MetricsResultMsg> T>
auto Fields(T& m) { return std::tie(m.snapshot); }

template <Is<SubscribeMsg> T>
auto Fields(T& m) { return std::tie(m.id, m.subscriber, m.spec); }

template <Is<UnsubscribeMsg> T>
auto Fields(T& m) { return std::tie(m.id, m.subscriber); }

template <Is<SubAckMsg> T>
auto Fields(T& m) { return std::tie(m.id, m.ok, m.error); }

template <Is<DeltaBatchMsg> T>
auto Fields(T& m) { return std::tie(m.batch); }

template <typename T>
concept HasFields = requires(T& x) { Fields(x); };

template <typename T>
concept WireEnum = std::is_enum_v<T> && sizeof(T) == 1;

/// A LogHistogram's nonzero buckets: (index, count).
using HistogramBuckets = std::vector<std::pair<std::uint8_t, std::uint64_t>>;

// --- visitors ------------------------------------------------------------

/// Encodes any wire value: a struct field by field through its list, a
/// sequence as a u32 count then its elements, a leaf as its primitive.
class Writer {
 public:
  explicit Writer(WireWriter& w) : w_(w) {}

  template <std::integral I>
  void operator()(I v) {
    if constexpr (std::same_as<I, bool>) {
      w_.Bool(v);
    } else if constexpr (sizeof(I) == 1) {
      w_.U8(static_cast<std::uint8_t>(v));
    } else if constexpr (sizeof(I) == 4) {
      w_.U32(static_cast<std::uint32_t>(v));
    } else {
      static_assert(sizeof(I) == 8);
      w_.U64(static_cast<std::uint64_t>(v));
    }
  }
  void operator()(double v) { w_.F64(v); }
  void operator()(const std::string& s) { w_.Str(s); }
  template <WireEnum E>
  void operator()(E e) {
    w_.U8(static_cast<std::uint8_t>(e));
  }
  template <typename T>
  void operator()(const std::vector<T>& v) {
    w_.U32(static_cast<std::uint32_t>(v.size()));
    for (const T& item : v) (*this)(item);
  }
  template <typename K, typename V>
  void operator()(const std::map<K, V>& m) {
    w_.U32(static_cast<std::uint32_t>(m.size()));
    for (const auto& entry : m) (*this)(entry);
  }
  template <HasFields T>
  void operator()(const T& x) {
    std::apply([this](const auto&... f) { All(f...); }, Fields(x));
  }

  void operator()(const LogHistogram& h);
  void operator()(const SubscriptionSpec& spec);

 private:
  template <typename... F>
  void All(const F&... f) {
    ((*this)(f), ...);
  }

  WireWriter& w_;
};

/// The encoded size of a default-constructed T, computed once per type:
/// the fewest bytes a sequence element of type T occupies (its strings
/// and sequences empty), and so the bound on a sequence's count.
template <typename T>
std::size_t MinBytes() {
  static const std::size_t bytes = [] {
    WireWriter w;
    Writer writer(w);
    writer(T{});
    return w.size();
  }();
  return bytes;
}

/// Decodes what Writer encodes, checking every enum range, bool and
/// sequence count on the way.
class Reader {
 public:
  explicit Reader(WireReader& r) : r_(r) {}

  template <std::integral I>
  Status operator()(I& v) {
    if constexpr (std::same_as<I, bool>) {
      return r_.Bool(&v);
    } else {
      std::make_unsigned_t<I> u = 0;
      Status s = ReadUint(&u);
      v = static_cast<I>(u);
      return s;
    }
  }
  Status operator()(double& v) { return r_.F64(&v); }
  Status operator()(std::string& s) { return r_.Str(&s); }
  template <WireEnum E>
  Status operator()(E& e) {
    std::uint8_t u = 0;
    DC_RET(r_.U8(&u));
    if (u > static_cast<std::uint8_t>(EnumMax(E{}))) {
      return Status::ParseError("enum value out of range");
    }
    e = static_cast<E>(u);
    return Status::OK();
  }
  template <typename T>
  Status operator()(std::vector<T>& v) {
    std::size_t n = 0;
    DC_RET(r_.Count(&n, MinBytes<T>()));
    v.resize(n);
    for (T& item : v) DC_RET((*this)(item));
    return Status::OK();
  }
  template <typename K, typename V>
  Status operator()(std::map<K, V>& m) {
    std::size_t n = 0;
    DC_RET(r_.Count(&n, MinBytes<std::pair<K, V>>()));
    m.clear();
    for (std::size_t i = 0; i < n; ++i) {
      std::pair<K, V> entry;
      DC_RET((*this)(entry));
      m.emplace_hint(m.end(), std::move(entry));
    }
    return Status::OK();
  }
  template <HasFields T>
  Status operator()(T& x) {
    return std::apply([this](auto&... f) { return All(f...); }, Fields(x));
  }

  Status operator()(LogHistogram& h);
  Status operator()(SubscriptionSpec& spec);

 private:
  Status ReadUint(std::uint8_t* u) { return r_.U8(u); }
  Status ReadUint(std::uint32_t* u) { return r_.U32(u); }
  Status ReadUint(std::uint64_t* u) { return r_.U64(u); }

  /// Reads the fields in order and stops at the first failure.
  template <typename... F>
  Status All(F&... f) {
    Status error;
    (void)(Ok((*this)(f), &error) && ...);
    return error;
  }
  static bool Ok(Status s, Status* error) {
    if (s.ok()) return true;
    *error = std::move(s);
    return false;
  }

  WireReader& r_;
};

// --- hand-written leaves -------------------------------------------------

/// A LogHistogram ships its nonzero buckets in index order (sparse — most
/// of the 64 log2 buckets are empty for any real latency distribution);
/// rebuilt through AddBucketCount, it merges exactly like the original.
void Writer::operator()(const LogHistogram& h) {
  HistogramBuckets buckets;
  for (std::size_t b = 0; b < LogHistogram::num_buckets(); ++b) {
    if (const std::size_t c = h.bucket_count(b); c != 0) {
      buckets.emplace_back(static_cast<std::uint8_t>(b), c);
    }
  }
  (*this)(buckets);
}

Status Reader::operator()(LogHistogram& h) {
  HistogramBuckets buckets;
  DC_RET((*this)(buckets));
  h = LogHistogram();
  for (const auto& [b, c] : buckets) {
    if (b >= LogHistogram::num_buckets() || c == 0) {
      return Status::ParseError("bad histogram bucket");
    }
    h.AddBucketCount(b, c);
  }
  return Status::OK();
}

/// The predicate travels as a nested length-prefixed payload, the kind
/// then that kind's spec, so the decoder can bound it before parsing a
/// single field of it.
void Writer::operator()(const SubscriptionSpec& spec) {
  WireWriter inner;
  Writer writer(inner);
  writer(spec.kind);
  switch (spec.kind) {
    case SubKind::kGeofence:
      writer(spec.geofence);
      break;
    case SubKind::kProximity:
      writer(spec.proximity);
      break;
    case SubKind::kHotspot:
      writer(spec.hotspot);
      break;
  }
  w_.Str(inner.data());
}

Status Reader::operator()(SubscriptionSpec& spec) {
  std::string predicate;
  DC_RET(r_.Str(&predicate));
  // Bound the nested payload before parsing any of it: an empty predicate
  // is not a subscription, and an oversized one is corruption (or abuse),
  // not a request.
  if (predicate.empty()) {
    return Status::ParseError("empty subscription predicate");
  }
  if (predicate.size() > kMaxSubPredicateBytes) {
    return Status::ParseError("oversized subscription predicate");
  }
  WireReader pr(predicate);
  Reader reader(pr);
  spec = SubscriptionSpec{};
  DC_RET(reader(spec.kind));
  switch (spec.kind) {
    case SubKind::kGeofence:
      DC_RET(reader(spec.geofence));
      if (spec.geofence.polygon.size() > kMaxGeofenceVertices) {
        return Status::ParseError("geofence polygon too large");
      }
      break;
    case SubKind::kProximity:
      DC_RET(reader(spec.proximity));
      break;
    case SubKind::kHotspot:
      DC_RET(reader(spec.hotspot));
      break;
  }
  DC_RET(pr.ExpectEnd());
  return ValidateSpec(spec);
}

WireWriter Envelope(MsgType type) {
  WireWriter w;
  w.U16(static_cast<std::uint16_t>(type));
  return w;
}

}  // namespace

template <WireMessage Msg>
std::string Encode(const Msg& msg) {
  WireWriter w = Envelope(Msg::kType);
  Writer writer(w);
  writer(msg);
  return w.Take();
}

std::string EncodeControl(MsgType type) {
  return Envelope(type).Take();
}

Status DecodeType(const std::string& payload, MsgType* type) {
  WireReader r(payload);
  std::uint16_t t = 0;
  DC_RET(r.U16(&t));
  if (t < static_cast<std::uint16_t>(MsgType::kHello) ||
      t > static_cast<std::uint16_t>(EnumMax(MsgType{}))) {
    return Status::ParseError("unknown message type");
  }
  *type = static_cast<MsgType>(t);
  return Status::OK();
}

template <WireMessage Msg>
Status Decode(const std::string& payload, Msg* msg) {
  WireReader r(payload);
  std::uint16_t type = 0;
  DC_RET(r.U16(&type));
  if (type != static_cast<std::uint16_t>(Msg::kType)) {
    return Status::ParseError("unexpected message type");
  }
  Reader reader(r);
  DC_RET(reader(*msg));
  return r.ExpectEnd();
}

template std::string Encode(const HelloMsg&);
template std::string Encode(const ReportBatchMsg&);
template std::string Encode(const EpochResultMsg&);
template std::string Encode(const WatermarkMsg&);
template std::string Encode(const FlushResultMsg&);
template std::string Encode(const MetricsResultMsg&);
template std::string Encode(const SubscribeMsg&);
template std::string Encode(const UnsubscribeMsg&);
template std::string Encode(const SubAckMsg&);
template std::string Encode(const DeltaBatchMsg&);

template Status Decode(const std::string&, HelloMsg*);
template Status Decode(const std::string&, ReportBatchMsg*);
template Status Decode(const std::string&, EpochResultMsg*);
template Status Decode(const std::string&, WatermarkMsg*);
template Status Decode(const std::string&, FlushResultMsg*);
template Status Decode(const std::string&, MetricsResultMsg*);
template Status Decode(const std::string&, SubscribeMsg*);
template Status Decode(const std::string&, UnsubscribeMsg*);
template Status Decode(const std::string&, SubAckMsg*);
template Status Decode(const std::string&, DeltaBatchMsg*);

#undef DC_RET

}  // namespace datacron
