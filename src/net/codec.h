#ifndef DATACRON_NET_CODEC_H_
#define DATACRON_NET_CODEC_H_

#include <concepts>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "datacron/engine.h"
#include "net/wire.h"
#include "rdf/term.h"

namespace datacron {

/// Cluster protocol messages. Every payload is a u16 message type (the
/// message's `kType`) followed by the body, encoded with the wire
/// primitives (net/wire.h). Decoders validate the type tag, every enum
/// value, every bool, every sequence count, and that the body consumes the
/// payload exactly; anything off returns ParseError.
///
/// Field lists. Every message below and every struct it carries has one
/// field list in codec.cc: a `Fields` overload that names the members in
/// wire order. One visitor walks a list over a WireWriter, the other over
/// a WireReader, so encode and decode cannot disagree, and the per-element
/// minimum that bounds a sequence count is the encoded size of a
/// default-constructed element. To add a field, add the member to its
/// struct and to that struct's `Fields` list; a member left out of the
/// list does not travel. A new enum also declares its largest value
/// (`EnumMax`), a new message its `kType`, its `Fields` list and its
/// Encode/Decode instantiation, all in codec.cc. Two leaves are written
/// by hand: LogHistogram (its nonzero buckets) and SubscriptionSpec (a
/// tagged union inside a nested, length-bounded payload).
///
/// Flow (coordinator <-> node):
///
///   node        -> Hello            once, after connect: node id, fleet
///                                   size, and the node dictionary's
///                                   construction-time baseline terms
///   coordinator -> ReportBatch      one per (epoch, node); may be empty
///   node        -> EpochResult      for a nonempty batch: the epoch's
///                                   keyed arena (per-report slots over
///                                   columnar outputs) + one coalesced
///                                   dictionary delta
///   node        -> Watermark        in place of EpochResult for an empty
///                                   batch: advances the epoch barrier
///   coordinator -> FlushRequest     end-of-stream
///   node        -> FlushResult      the node's KeyedFlush
///   coordinator -> MetricsRequest
///   node        -> MetricsResult    the node engine's MetricsSnapshot
///   coordinator -> Shutdown         node serve loop exits
///
/// Subscription tier (subscriber <-> coordinator, coordinator -> node):
///
///   subscriber  -> Subscribe        one standing query; predicate travels
///                                   as a nested length-prefixed payload
///   subscriber  -> Unsubscribe      by subscription id
///   coordinator -> SubAck           assigned id (or error) per request
///   coordinator -> DeltaBatch       one subscriber's coalesced deltas for
///                                   one closed epoch; push-only
///
/// The coordinator also forwards Subscribe/Unsubscribe to every node so
/// shard-local evaluation sees the same registry under the same ids.
enum class MsgType : std::uint16_t {
  kHello = 1,
  kReportBatch,
  kEpochResult,
  kWatermark,
  kFlushRequest,
  kFlushResult,
  kMetricsRequest,
  kMetricsResult,
  kShutdown,
  kSubscribe,
  kUnsubscribe,
  kSubAck,
  kDeltaBatch,
};

struct HelloMsg {
  static constexpr MsgType kType = MsgType::kHello;

  std::uint32_t node_id = 0;
  std::uint32_t num_nodes = 0;
  /// The node dictionary's contents at connect time (vocab terms interned
  /// by construction, ids 1..baseline.size()); seeds the coordinator's
  /// id remap before any report flows.
  std::vector<TermExport> baseline;

  bool operator==(const HelloMsg&) const = default;
};

struct ReportBatchMsg {
  static constexpr MsgType kType = MsgType::kReportBatch;

  std::int64_t epoch = 0;
  std::vector<PositionReport> reports;

  bool operator==(const ReportBatchMsg&) const = default;
};

/// A node's keyed half of one epoch: the DatacronEngine::EpochArena its
/// sub-batch ran into, laid out for the wire. One slot per report of the
/// sub-batch, in sub-batch order; the slots' watermark columns cut each
/// buffer — and new_terms — into per-report slices. Term ids are
/// node-dictionary ids. Side tables and sub counts travel id-sorted, so the
/// encoded bytes are canonical regardless of hash-map iteration order. The
/// codec checks structure only; the coordinator checks the watermarks and
/// id ranges before absorbing anything.
struct EpochResultMsg {
  static constexpr MsgType kType = MsgType::kEpochResult;

  std::int64_t epoch = 0;
  /// Node dictionary size before the epoch's first report; the
  /// coordinator cross-checks it against its remap table to catch lost or
  /// reordered epochs.
  std::uint64_t dict_size_before = 0;
  /// ShardSlot::arena is not shipped (decodes as 0).
  std::vector<DatacronEngine::ShardSlot> slots;
  std::vector<Triple> triples;
  std::vector<Episode> episodes;
  std::vector<Event> events;
  std::vector<SubDelta> sub_deltas;
  std::vector<std::pair<TermId, StTag>> tags;
  std::vector<std::pair<TermId, NodeGeo>> node_geo;
  std::vector<std::pair<std::uint64_t, double>> sub_counts;
  /// One coalesced dictionary delta for the whole epoch: the contiguous
  /// id range the node dictionary grew by, in intern order.
  std::vector<TermExport> new_terms;

  bool operator==(const EpochResultMsg&) const = default;
};

/// Epoch-watermark control message: the node saw epoch `epoch` (an empty
/// sub-batch) and the coordinator's barrier may advance past it.
struct WatermarkMsg {
  static constexpr MsgType kType = MsgType::kWatermark;

  std::int64_t epoch = 0;

  bool operator==(const WatermarkMsg&) const = default;
};

struct FlushResultMsg {
  static constexpr MsgType kType = MsgType::kFlushResult;

  KeyedFlush flush;

  bool operator==(const FlushResultMsg&) const = default;
};

/// A node engine's DatacronEngine::MetricsSnapshot: its counters, gauges
/// and histograms, each map in name order. The coordinator merges every
/// node's snapshot into its own.
struct MetricsResultMsg {
  static constexpr MsgType kType = MsgType::kMetricsResult;

  obs::MetricsSnapshot snapshot;

  bool operator==(const MetricsResultMsg&) const = default;
};

/// Standing-query registration. `id` is 0 from a subscriber (the
/// coordinator assigns one) and nonzero on the coordinator->node
/// broadcast (every node registers the same id). The predicate itself is
/// a nested length-prefixed payload inside the frame; the decoder rejects
/// zero-length and larger-than-kMaxSubPredicateBytes payloads outright,
/// and validates the decoded spec with ValidateSpec.
struct SubscribeMsg {
  static constexpr MsgType kType = MsgType::kSubscribe;

  SubscriptionId id = 0;
  SubscriberId subscriber = 0;
  SubscriptionSpec spec;

  bool operator==(const SubscribeMsg&) const = default;
};

struct UnsubscribeMsg {
  static constexpr MsgType kType = MsgType::kUnsubscribe;

  SubscriptionId id = 0;
  SubscriberId subscriber = 0;

  bool operator==(const UnsubscribeMsg&) const = default;
};

/// Reply to Subscribe/Unsubscribe: `id` echoes (or assigns) the
/// subscription id; `ok` false carries a diagnostic in `error`.
struct SubAckMsg {
  static constexpr MsgType kType = MsgType::kSubAck;

  SubscriptionId id = 0;
  bool ok = true;
  std::string error;

  bool operator==(const SubAckMsg&) const = default;
};

/// One coalesced epoch of deltas for one subscriber.
struct DeltaBatchMsg {
  static constexpr MsgType kType = MsgType::kDeltaBatch;

  DeltaBatch batch;

  bool operator==(const DeltaBatchMsg&) const = default;
};

/// A cluster protocol message: one of the structs above, tagged with the
/// MsgType its payload starts with.
template <typename Msg>
concept WireMessage = requires {
  { Msg::kType } -> std::convertible_to<MsgType>;
};

/// --- encode -------------------------------------------------------------

/// The message's kType, then its field list. Instantiated in codec.cc for
/// every message above.
template <WireMessage Msg>
std::string Encode(const Msg& msg);
/// kFlushRequest, kMetricsRequest, kShutdown: type tag only.
std::string EncodeControl(MsgType type);

/// --- decode -------------------------------------------------------------

/// Peeks the envelope's message type without consuming the body.
Status DecodeType(const std::string& payload, MsgType* type);

/// OK only if `payload` is exactly one Msg: its kType, then its field list.
template <WireMessage Msg>
Status Decode(const std::string& payload, Msg* msg);

}  // namespace datacron

#endif  // DATACRON_NET_CODEC_H_
