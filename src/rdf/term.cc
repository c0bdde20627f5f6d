#include "rdf/term.h"

#include <functional>

#include "common/strings.h"

namespace datacron {

TermId TermSource::InternInt(std::int64_t value) {
  return Intern(StrFormat("%lld", static_cast<long long>(value)),
                TermKind::kLiteralInt);
}

TermId TermSource::InternDouble(double value) {
  return Intern(StrFormat("%.10g", value), TermKind::kLiteralDouble);
}

TermId TermSource::InternDateTime(std::int64_t epoch_ms) {
  return Intern(StrFormat("dt:%lld", static_cast<long long>(epoch_ms)),
                TermKind::kLiteralDateTime);
}

TermDictionary::TermDictionary() = default;

TermDictionary::Stripe& TermDictionary::StripeOf(std::string_view text) const {
  const std::size_t h = std::hash<std::string_view>{}(text);
  // kStripes is a power of two; mix the high bits in so unordered_map
  // bucket selection (low bits) and stripe selection stay independent.
  return const_cast<Stripe&>(stripes_[(h ^ (h >> 17)) & (kStripes - 1)]);
}

TermId TermDictionary::Intern(std::string_view text, TermKind kind) {
  Stripe& stripe = StripeOf(text);
  std::lock_guard<std::mutex> stripe_lock(stripe.mu);
  auto it = stripe.ids.find(text);
  if (it != stripe.ids.end()) return it->second;

  TermId id;
  std::string_view stored;
  {
    std::lock_guard<std::mutex> id_lock(id_mu_);
    texts_.emplace_back(text);
    kinds_.push_back(kind);
    id = static_cast<TermId>(texts_.size());
    stored = texts_.back();
  }
  count_.fetch_add(1, std::memory_order_release);
  stripe.ids.emplace(stored, id);
  return id;
}

TermId TermDictionary::Find(std::string_view text) const {
  const Stripe& stripe = StripeOf(text);
  std::lock_guard<std::mutex> stripe_lock(stripe.mu);
  auto it = stripe.ids.find(text);
  return it == stripe.ids.end() ? kInvalidTermId : it->second;
}

Result<std::string> TermDictionary::Text(TermId id) const {
  std::lock_guard<std::mutex> id_lock(id_mu_);
  if (id == kInvalidTermId || id > texts_.size()) {
    return Status::NotFound(StrFormat("unknown term id %llu",
                                      static_cast<unsigned long long>(id)));
  }
  return texts_[id - 1];
}

TermKind TermDictionary::Kind(TermId id) const {
  std::lock_guard<std::mutex> id_lock(id_mu_);
  if (id == kInvalidTermId || id > kinds_.size()) return TermKind::kIri;
  return kinds_[id - 1];
}

Result<std::vector<TermExport>> TermDictionary::ExportRange(
    TermId first_id, std::size_t count) const {
  std::vector<TermExport> out;
  out.reserve(count);
  std::lock_guard<std::mutex> id_lock(id_mu_);
  if (first_id == kInvalidTermId || first_id + count > texts_.size() + 1) {
    return Status::OutOfRange(
        StrFormat("export range [%llu, %llu) exceeds dictionary size %zu",
                  static_cast<unsigned long long>(first_id),
                  static_cast<unsigned long long>(first_id + count),
                  texts_.size()));
  }
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(TermExport{texts_[first_id - 1 + i],
                             kinds_[first_id - 1 + i]});
  }
  return out;
}

void TermDictionary::ImportDelta(std::span<const TermExport> delta,
                                 std::vector<TermId>* remap) {
  // No exact-fit reserve: callers import many small slices into one
  // long-lived remap, and reserving size() + slice each time would copy
  // the whole table on every call.
  for (const TermExport& t : delta) {
    remap->push_back(Intern(t.text, t.kind));
  }
}

std::vector<TermId> TermDictionary::MergeBatch(const TermBatch& batch) {
  std::vector<TermId> remap(batch.local_size());
  for (std::size_t i = 0; i < batch.local_size(); ++i) {
    remap[i] = Intern(batch.local_text(i), batch.local_kind(i));
  }
  return remap;
}

TermId TermBatch::Intern(std::string_view text, TermKind kind) {
  if (global_ != nullptr) {
    const TermId global_id = global_->Find(text);
    if (global_id != kInvalidTermId) return global_id;
  }
  auto it = ids_.find(text);
  if (it != ids_.end()) return it->second;
  texts_.emplace_back(text);
  kinds_.push_back(kind);
  const TermId id = kLocalTermBit | static_cast<TermId>(texts_.size() - 1);
  ids_.emplace(std::string_view(texts_.back()), id);
  return id;
}

}  // namespace datacron
