#ifndef SAMA_TEXT_THESAURUS_H_
#define SAMA_TEXT_THESAURUS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/sharded_cache.h"
#include "common/status.h"

namespace sama {

// WordNet substitute (§6.1: "semantically similar entries such as
// synonyms, hyponyms and hypernyms are extracted from WordNet").
// Stores synsets (synonym rings) and is-a links between synsets;
// queries ask whether two labels are semantically related. All lookups
// are case-insensitive on normalised labels.
class Thesaurus {
 public:
  Thesaurus();
  // Copies share the source's content identity (equal content) but get
  // their own empty relatedness cache; a later mutation of either side
  // assigns that side a fresh identity, so cache keys derived from
  // identity() can never alias two different vocabularies.
  Thesaurus(const Thesaurus& other);
  Thesaurus& operator=(const Thesaurus& other);
  Thesaurus(Thesaurus&&) = default;
  Thesaurus& operator=(Thesaurus&&) = default;

  // Declares the given words to be mutual synonyms (merging any synsets
  // they already belong to).
  void AddSynonyms(const std::vector<std::string>& words);

  // Declares `word` is-a `parent_word` (hyponym → hypernym). Both words
  // get singleton synsets if unseen.
  void AddHypernym(const std::string& word, const std::string& parent_word);

  // True when the words share a synset.
  bool AreSynonyms(std::string_view a, std::string_view b) const;

  // True when the words are synonyms or connected through at most
  // `max_hops` is-a links (in either direction, through synsets).
  // `stats` (optional) receives this call's relatedness-memo traffic —
  // the per-query attribution sink (see CacheCounters).
  bool AreRelated(std::string_view a, std::string_view b, int max_hops = 1,
                  CacheCounters* stats = nullptr) const;

  // Every word related to `word` within `max_hops` is-a links,
  // including its synonyms (and `word` itself, normalised).
  std::vector<std::string> Expand(std::string_view word,
                                  int max_hops = 1) const;

  size_t synset_count() const { return synsets_.size(); }
  size_t word_count() const { return synset_of_.size(); }

  // A process-unique token for the current CONTENT of this thesaurus:
  // every mutation (AddSynonyms/AddHypernym/Load*) assigns a fresh
  // value. Query-side caches (path-index lookups, the alignment memo)
  // fold it into their keys so entries computed under one vocabulary
  // are never served under another.
  uint64_t identity() const { return identity_; }

  // Hit/miss totals of the internal AreRelated memo (QueryStats).
  CacheCounters relatedness_cache_counters() const;
  // Memo hits that skipped the LRU touch under write contention.
  uint64_t relatedness_cache_lock_skips() const;

  // Seeds the thesaurus with a small built-in English vocabulary
  // covering the benchmark domains (people/gender/teaching/commerce),
  // standing in for the WordNet dump.
  static Thesaurus BuiltinEnglish();

  // Merges entries from a thesaurus file into this instance. Format,
  // one entry per line ('#' comments allowed):
  //   syn: word, word, word     — a synonym ring
  //   isa: child, parent        — a hypernym link
  // Returns ParseError naming the offending line on malformed input.
  Status LoadFromFile(const std::string& path);
  Status LoadFromString(std::string_view text);

 private:
  using SynsetId = uint32_t;

  SynsetId SynsetFor(const std::string& normalized_word);
  SynsetId FindSynset(std::string_view word) const;
  // Union of hypernym/hyponym neighbour synsets of `s`.
  std::vector<SynsetId> Neighbors(SynsetId s) const;

  struct Synset {
    std::vector<std::string> words;
    std::vector<SynsetId> hypernyms;
    std::vector<SynsetId> hyponyms;
  };

  // Fresh process-unique identity; called on construction and on every
  // mutation.
  static uint64_t NextIdentity();
  // Mutation prologue: new identity + empty relatedness cache.
  void Invalidate();

  std::vector<Synset> synsets_;
  std::unordered_map<std::string, SynsetId> synset_of_;
  uint64_t identity_ = 0;
  // Memo over AreRelated's synset-pair BFS. Lookups are symmetric, so
  // the key is the ordered (min, max, hops) triple. Mutable because
  // AreRelated is logically const; internally thread-safe.
  mutable std::unique_ptr<ShardedLruCache<uint64_t, bool>> related_cache_;
};

}  // namespace sama

#endif  // SAMA_TEXT_THESAURUS_H_
