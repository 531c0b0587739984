#include "text/inverted_index.h"

#include <algorithm>
#include <cstddef>
#include <map>

#include "storage/coding.h"

namespace sama {

void InvertedLabelIndex::Cursor::SeekTo(uint64_t target) {
  if (Done()) return;
  // Gallop then binary search within the located window.
  size_t lo = pos_;
  size_t step = 1;
  while (lo + step < postings_->size() && (*postings_)[lo + step] < target) {
    lo += step;
    step *= 2;
  }
  size_t hi = std::min(lo + step + 1, postings_->size());
  pos_ = static_cast<size_t>(
      std::lower_bound(postings_->begin() + static_cast<std::ptrdiff_t>(lo),
                       postings_->begin() + static_cast<std::ptrdiff_t>(hi),
                       target) -
      postings_->begin());
}

void InvertedLabelIndex::Add(std::string_view label, uint64_t id) {
  finished_ = false;
  exact_postings_[NormalizeLabel(label)].push_back(id);
  for (const std::string& token : TokenizeLabel(label)) {
    token_postings_[token].push_back(id);
  }
}

void InvertedLabelIndex::SortDedup(std::vector<uint64_t>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

void InvertedLabelIndex::Finish() {
  if (finished_) return;
  for (auto& [token, postings] : token_postings_) SortDedup(&postings);
  for (auto& [label, postings] : exact_postings_) SortDedup(&postings);
  finished_ = true;
}

InvertedLabelIndex::Cursor InvertedLabelIndex::LookupExact(
    std::string_view label) const {
  auto it = exact_postings_.find(NormalizeLabel(label));
  if (it == exact_postings_.end()) return Cursor();
  return Cursor(&it->second);
}

std::vector<uint64_t> InvertedLabelIndex::LookupTokens(
    std::string_view label) const {
  std::vector<std::string> tokens = TokenizeLabel(label);
  if (tokens.empty()) return {};
  // Gather cursors; missing token => empty intersection.
  std::vector<Cursor> cursors;
  cursors.reserve(tokens.size());
  for (const std::string& token : tokens) {
    auto it = token_postings_.find(token);
    if (it == token_postings_.end()) return {};
    cursors.emplace_back(&it->second);
  }
  // k-way intersection driven by the first cursor.
  std::vector<uint64_t> out;
  while (!cursors[0].Done()) {
    uint64_t candidate = cursors[0].Value();
    bool all = true;
    for (size_t i = 1; i < cursors.size(); ++i) {
      cursors[i].SeekTo(candidate);
      if (cursors[i].Done()) return out;
      if (cursors[i].Value() != candidate) {
        cursors[0].SeekTo(cursors[i].Value());
        all = false;
        break;
      }
    }
    if (all) {
      out.push_back(candidate);
      cursors[0].Next();
    }
  }
  return out;
}

std::vector<uint64_t> InvertedLabelIndex::LookupSemantic(
    std::string_view label, const Thesaurus* thesaurus) const {
  std::string normalized = NormalizeLabel(label);
  std::vector<uint64_t> out;
  for (Cursor c = LookupExact(label); !c.Done(); c.Next()) {
    out.push_back(c.Value());
  }
  if (thesaurus != nullptr) {
    for (const std::string& alt : thesaurus->Expand(label)) {
      if (alt == normalized) continue;
      for (Cursor c = LookupExact(alt); !c.Done(); c.Next()) {
        out.push_back(c.Value());
      }
    }
  }
  if (out.empty()) {
    out = LookupTokens(label);
  } else {
    SortDedup(&out);
  }
  return out;
}

namespace {

void SerializePostingsMap(
    const std::unordered_map<std::string, std::vector<uint64_t>>& map,
    std::vector<uint8_t>* out) {
  // Keys sorted for a deterministic image.
  std::map<std::string, const std::vector<uint64_t>*> sorted;
  for (const auto& [key, postings] : map) sorted.emplace(key, &postings);
  PutVarint64(out, sorted.size());
  for (const auto& [key, postings] : sorted) {
    PutVarint64(out, key.size());
    out->insert(out->end(), key.begin(), key.end());
    PutVarint64(out, postings->size());
    uint64_t previous = 0;
    for (uint64_t id : *postings) {
      PutVarint64(out, id - previous);  // Sorted: deltas are small.
      previous = id;
    }
  }
}

bool DeserializePostingsMap(
    const std::vector<uint8_t>& buf, size_t* pos,
    std::unordered_map<std::string, std::vector<uint64_t>>* map) {
  map->clear();
  uint64_t entries = 0;
  if (!GetVarint64(buf, pos, &entries)) return false;
  for (uint64_t e = 0; e < entries; ++e) {
    uint64_t key_size = 0;
    if (!GetVarint64(buf, pos, &key_size)) return false;
    if (buf.size() - *pos < key_size) return false;
    std::string key(buf.begin() + static_cast<long>(*pos),
                    buf.begin() + static_cast<long>(*pos + key_size));
    *pos += key_size;
    uint64_t count = 0;
    if (!GetVarint64(buf, pos, &count)) return false;
    std::vector<uint64_t> postings(count);
    uint64_t previous = 0;
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t delta = 0;
      if (!GetVarint64(buf, pos, &delta)) return false;
      previous += delta;
      postings[i] = previous;
    }
    map->emplace(std::move(key), std::move(postings));
  }
  return true;
}

}  // namespace

void InvertedLabelIndex::Serialize(std::vector<uint8_t>* out) const {
  SerializePostingsMap(exact_postings_, out);
  SerializePostingsMap(token_postings_, out);
}

bool InvertedLabelIndex::Deserialize(const std::vector<uint8_t>& buf,
                                     size_t* pos) {
  if (!DeserializePostingsMap(buf, pos, &exact_postings_)) return false;
  if (!DeserializePostingsMap(buf, pos, &token_postings_)) return false;
  finished_ = true;  // Serialized images are always Finish()ed.
  return true;
}

uint64_t InvertedLabelIndex::MemoryBytes() const {
  uint64_t bytes = sizeof(*this);
  for (const auto& [token, postings] : token_postings_) {
    bytes += token.size() + postings.capacity() * sizeof(uint64_t) + 64;
  }
  for (const auto& [label, postings] : exact_postings_) {
    bytes += label.size() + postings.capacity() * sizeof(uint64_t) + 64;
  }
  return bytes;
}

}  // namespace sama
