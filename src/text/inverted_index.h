#ifndef SAMA_TEXT_INVERTED_INDEX_H_
#define SAMA_TEXT_INVERTED_INDEX_H_

#include <cstdint>
#include <cstddef>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "text/thesaurus.h"
#include "text/tokenizer.h"

namespace sama {

// The Lucene-Domain-index substitute (§6.1): an inverted index from
// label tokens to element ids (node ids, edge ids or path ids,
// depending on what the caller indexes). Lookups return a cursor over
// a sorted postings list; multi-token labels intersect their token
// postings; the thesaurus-aware lookup unions postings over the
// semantic expansion of the label.
class InvertedLabelIndex {
 public:
  // Forward-iterates one postings list (ascending ids).
  class Cursor {
   public:
    Cursor() : postings_(nullptr) {}
    explicit Cursor(const std::vector<uint64_t>* postings)
        : postings_(postings) {}

    bool Done() const {
      return postings_ == nullptr || pos_ >= postings_->size();
    }
    uint64_t Value() const { return (*postings_)[pos_]; }
    void Next() { ++pos_; }
    // Advances to the first posting >= target (galloping).
    void SeekTo(uint64_t target);
    size_t size() const { return postings_ == nullptr ? 0 : postings_->size(); }

   private:
    const std::vector<uint64_t>* postings_;
    size_t pos_ = 0;
  };

  InvertedLabelIndex() = default;

  // Indexes `label` (tokenized + exact form) under element `id`. Ids
  // must be added in non-decreasing order per distinct token for the
  // postings to stay sorted; Finish() sorts and dedups regardless.
  void Add(std::string_view label, uint64_t id);

  // Sorts and dedups every postings list. Idempotent; called once after
  // the build loop.
  void Finish();

  // Cursor over elements whose label normalises exactly to `label`.
  Cursor LookupExact(std::string_view label) const;

  // Elements whose label contains every token of `label` (AND).
  std::vector<uint64_t> LookupTokens(std::string_view label) const;

  // LookupExact unioned over the thesaurus expansion of `label`; falls
  // back to token AND-matching when no exact postings exist. This is
  // the semantic lookup the clustering step uses (through PathIndex,
  // whose candidate-list memo sits in front of it).
  std::vector<uint64_t> LookupSemantic(std::string_view label,
                                       const Thesaurus* thesaurus) const;

  size_t distinct_tokens() const { return token_postings_.size(); }
  size_t distinct_labels() const { return exact_postings_.size(); }
  uint64_t MemoryBytes() const;

  // Appends a compact binary image (sorted keys, delta-coded postings)
  // to `out`. The index must be Finish()ed first.
  void Serialize(std::vector<uint8_t>* out) const;
  // Restores an index from Serialize() output at buf[*pos...],
  // advancing *pos. Replaces the current contents.
  bool Deserialize(const std::vector<uint8_t>& buf, size_t* pos);

 private:
  static void SortDedup(std::vector<uint64_t>* v);

  std::unordered_map<std::string, std::vector<uint64_t>> token_postings_;
  std::unordered_map<std::string, std::vector<uint64_t>> exact_postings_;
  bool finished_ = false;
};

}  // namespace sama

#endif  // SAMA_TEXT_INVERTED_INDEX_H_
