#ifndef DATACRON_RDF_TERM_H_
#define DATACRON_RDF_TERM_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace datacron {

/// Dictionary-encoded RDF term identifier. 0 is reserved (invalid).
using TermId = std::uint64_t;

constexpr TermId kInvalidTermId = 0;

/// High bit marking a *batch-local* id produced by TermBatch during
/// parallel ingest. Local ids never escape: TermDictionary::MergeBatch
/// rewrites them to global ids before triples reach any store.
constexpr TermId kLocalTermBit = TermId{1} << 63;

/// Kind of an RDF term. Spatiotemporal resource ids additionally embed a
/// grid cell / time bucket (see SpatioTemporalEncoder) but remain ordinary
/// IRIs at the dictionary level.
enum class TermKind : std::uint8_t {
  kIri = 0,
  kLiteralString,
  kLiteralInt,
  kLiteralDouble,
  kLiteralDateTime,
};

/// Anything that can intern terms: the global TermDictionary on the serial
/// path, a TermBatch on the parallel ingest path. The typed-literal
/// helpers render the value and forward to Intern.
class TermSource {
 public:
  virtual ~TermSource() = default;

  /// Returns the id of `text` (of kind `kind`), interning it if new.
  virtual TermId Intern(std::string_view text,
                        TermKind kind = TermKind::kIri) = 0;

  /// Convenience: intern a typed literal rendered from a value.
  TermId InternInt(std::int64_t value);
  TermId InternDouble(double value);
  TermId InternDateTime(std::int64_t epoch_ms);
};

class TermBatch;

/// One exported dictionary entry: the unit of the epoch dictionary deltas
/// a cluster node ships to the coordinator (see cluster/). Exported in id
/// order, so importing a delta reproduces the node's interning order.
struct TermExport {
  std::string text;
  TermKind kind = TermKind::kIri;

  bool operator==(const TermExport&) const = default;
};

/// Bidirectional string<->id dictionary. Encoding datasets once and
/// operating on fixed-width ids is what makes triple joins cheap — the
/// standard design of RDF stores (RDF-3X, Virtuoso) that datAcron's
/// parallel stores build on.
///
/// Thread-safe via lock striping: the text->id map is sharded into
/// kStripes stripes keyed by the text hash, so concurrent Intern/Find
/// calls only contend when they touch the same stripe (misses additionally
/// serialize briefly on the id allocator). Ids stay dense and are assigned
/// in arrival order, so the single-threaded path is bit-for-bit what it
/// always was; deterministic ids under parallel ingest come from the
/// two-phase TermBatch + MergeBatch scheme (see DESIGN.md).
class TermDictionary : public TermSource {
 public:
  TermDictionary();

  TermDictionary(const TermDictionary&) = delete;
  TermDictionary& operator=(const TermDictionary&) = delete;

  /// Returns the id of `text` (of kind `kind`), interning it if new.
  /// Deterministic: the same insertion sequence yields the same ids.
  TermId Intern(std::string_view text, TermKind kind = TermKind::kIri) override;

  /// Lookup without interning; kInvalidTermId when absent.
  TermId Find(std::string_view text) const;

  /// Inverse mapping. Returns an error for unknown ids.
  Result<std::string> Text(TermId id) const;

  TermKind Kind(TermId id) const;

  std::size_t size() const { return count_.load(std::memory_order_acquire); }

  /// Interns every batch-local term of `batch` in local-id order and
  /// returns the remap table: remap[i] is the global id of local id i.
  /// Because local dictionaries preserve first-occurrence order and
  /// callers merge chunks in input order, the resulting global ids are
  /// identical to what serial interning of the full input would produce —
  /// independent of thread count and chunk boundaries.
  std::vector<TermId> MergeBatch(const TermBatch& batch);

  /// Exports the `count` entries starting at id `first_id` in id order —
  /// a cluster node's dictionary delta for one epoch. Ids outside
  /// [1, size()] yield an error, never a crash.
  Result<std::vector<TermExport>> ExportRange(TermId first_id,
                                              std::size_t count) const;

  /// Interns an exported delta in order, appending one global id per
  /// entry to `remap`. After importing node deltas in the node's id
  /// order, `(*remap)[i]` is the global id of node-local id `i + base`
  /// where `base` is the remap size before the first import — exactly the
  /// node-local-to-global translation table the cluster coordinator keeps
  /// per node. Idempotent: entries already present resolve to their
  /// existing ids. Taking a span lets the cluster coordinator replay
  /// sub-ranges of one coalesced per-epoch delta (sliced per report by
  /// the slots' terms_end watermarks) without copying.
  void ImportDelta(std::span<const TermExport> delta,
                   std::vector<TermId>* remap);

 private:
  static constexpr std::size_t kStripes = 16;  // power of two

  struct Stripe {
    mutable std::mutex mu;
    /// Keys view into texts_ entries (std::deque never relocates), so the
    /// hot lookup path hashes the caller's bytes directly — no temporary
    /// std::string per probe.
    std::unordered_map<std::string_view, TermId> ids;
  };

  Stripe& StripeOf(std::string_view text) const;

  std::array<Stripe, kStripes> stripes_;
  mutable std::mutex id_mu_;       // guards texts_/kinds_ growth
  std::deque<std::string> texts_;  // index = id - 1; stable storage
  std::deque<TermKind> kinds_;
  std::atomic<std::size_t> count_{0};
};

/// Thread-local dictionary for one ingest chunk (phase 1 of the two-phase
/// parallel intern). Global hits resolve to real ids via a read-only probe
/// of the shared dictionary; new terms get batch-local ids tagged with
/// kLocalTermBit, later rewritten by TermDictionary::MergeBatch. No locks
/// on this path — each worker owns its batch exclusively.
class TermBatch : public TermSource {
 public:
  /// `global` may be null (pure local batch). Concurrent mutation of
  /// `global` while this batch interns is allowed (Find is lock-striped):
  /// a probe that misses a term another thread is adding just produces a
  /// batch-local id, and MergeBatch re-interning it later is idempotent —
  /// the remap resolves to the already-assigned global id.
  explicit TermBatch(const TermDictionary* global) : global_(global) {}

  TermId Intern(std::string_view text, TermKind kind = TermKind::kIri) override;

  /// Number of batch-local (new) terms.
  std::size_t local_size() const { return texts_.size(); }

  /// Local term text/kind by local index, in first-occurrence order.
  const std::string& local_text(std::size_t i) const { return texts_[i]; }
  TermKind local_kind(std::size_t i) const { return kinds_[i]; }

 private:
  const TermDictionary* global_;
  std::unordered_map<std::string_view, TermId> ids_;
  std::deque<std::string> texts_;  // stable storage for map keys
  std::vector<TermKind> kinds_;
};

/// Rewrites a possibly batch-local id through `remap` (from MergeBatch);
/// global ids pass through unchanged.
inline TermId RemapTerm(TermId id, const std::vector<TermId>& remap) {
  return (id & kLocalTermBit) ? remap[id & ~kLocalTermBit] : id;
}

}  // namespace datacron

#endif  // DATACRON_RDF_TERM_H_
