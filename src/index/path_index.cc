#include "index/path_index.h"

#include <algorithm>
#include <functional>

#include "common/fault_injection.h"
#include "common/hash.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "storage/coding.h"
#include "storage/manifest.h"
#include "storage/triple_codec.h"
#include "text/tokenizer.h"

namespace sama {
namespace {

const std::vector<PathId> kNoPaths;

// On-disk artifact names. Builds stage everything under kStageDirName
// and rename into the index directory at commit; kMetaFile is renamed
// LAST — its presence in the index directory IS the commit record.
constexpr char kStageDirName[] = "build.tmp";
constexpr char kMetaFile[] = "index.meta";
const char* const kDataArtifacts[] = {
    "paths.dat", "paths.dat.manifest", "hypergraph.dat",
    "hypergraph.dat.vertices", "hypergraph.dat.hyperedges"};

Env* OrDefault(Env* env) { return env == nullptr ? Env::Default() : env; }

// Removes `dir` and the flat set of files inside it (build staging
// directories never nest). Missing directory is fine.
Status RemoveDirTree(const std::string& dir, Env* env) {
  if (!env->FileExists(dir)) return Status::Ok();
  auto entries = env->ListDir(dir);
  if (!entries.ok()) return entries.status();
  for (const std::string& name : *entries) {
    SAMA_RETURN_IF_ERROR(env->RemoveFile(dir + "/" + name));
  }
  return env->RemoveDir(dir);
}

// The commit protocol: publish a complete staged build into `dir`.
//  1. delete the old commit record (dir/index.meta) — from here until
//     step 3 completes the directory deliberately holds NO committed
//     index, so a crash recovers to "rebuild" rather than to a mix of
//     old and new files;
//  2. rename every data artifact from the staging dir into place
//     (artifacts the new build did not produce are removed so a stale
//     copy from the previous index cannot shadow the new state);
//  3. rename index.meta — the atomic commit point;
// with directory fsyncs after each batch of renames. The staging dir
// itself is removed best-effort afterwards; Open() also clears it.
Status CommitBuild(const std::string& dir, const std::string& stage_dir,
                   Env* env) {
  SAMA_RETURN_IF_ERROR(FailPoints::Trigger("path_index.commit.begin"));
  SAMA_RETURN_IF_ERROR(env->RemoveFile(dir + "/" + kMetaFile));
  SAMA_RETURN_IF_ERROR(env->SyncDir(dir));
  SAMA_RETURN_IF_ERROR(
      FailPoints::Trigger("path_index.commit.uncommitted_old"));
  for (const char* name : kDataArtifacts) {
    std::string staged = stage_dir + "/" + name;
    std::string final_path = dir + "/" + name;
    if (env->FileExists(staged)) {
      SAMA_RETURN_IF_ERROR(env->RenameFile(staged, final_path));
    } else {
      SAMA_RETURN_IF_ERROR(env->RemoveFile(final_path));
    }
  }
  SAMA_RETURN_IF_ERROR(env->SyncDir(dir));
  SAMA_RETURN_IF_ERROR(FailPoints::Trigger("path_index.commit.data_renamed"));
  SAMA_RETURN_IF_ERROR(env->RenameFile(stage_dir + "/" + kMetaFile,
                                       dir + "/" + kMetaFile));
  SAMA_RETURN_IF_ERROR(env->SyncDir(dir));
  SAMA_RETURN_IF_ERROR(FailPoints::Trigger("path_index.commit.committed"));
  (void)RemoveDirTree(stage_dir, env);  // Cosmetic; Open() also clears it.
  return Status::Ok();
}

}  // namespace

Status PathIndex::Build(const DataGraph& graph,
                        const PathIndexOptions& options) {
  WallTimer timer;
  graph_ = &graph;
  options_ = options;
  // The shard-build hooks are borrowed for the duration of this call
  // only; the retained options must not dangle into later updates.
  options_.start_mask = nullptr;
  options_.per_start_counts = nullptr;
  base_fingerprint_ = GraphFingerprint(graph);
  update_journal_.clear();
  DropQueryCaches();  // A rebuild invalidates every memoized answer.

  // Disk builds are staged: every artifact is written into
  // dir/build.tmp and published by CommitBuild() only once complete,
  // so a build that dies at any point leaves either the previous
  // committed index or a partial staging dir that Open() discards.
  Env* env = OrDefault(options.env);
  std::string stage_dir;
  if (!options.dir.empty()) {
    SAMA_RETURN_IF_ERROR(env->CreateDir(options.dir));
    stage_dir = options.dir + "/" + kStageDirName;
    SAMA_RETURN_IF_ERROR(RemoveDirTree(stage_dir, env));
    SAMA_RETURN_IF_ERROR(env->CreateDir(stage_dir));
  }

  PathStore::Options store_options;
  if (!stage_dir.empty()) {
    store_options.path = stage_dir + "/paths.dat";
  }
  store_options.buffer_pool_pages = options.buffer_pool_pages;
  store_options.env = options.env;
  SAMA_RETURN_IF_ERROR(store_.Open(store_options));

  // Step (i): hash every vertex and edge label (element-to-element
  // mapping).
  for (NodeId n = 0; n < graph.node_count(); ++n) {
    node_index_.Add(graph.node_term(n).DisplayLabel(), n);
  }
  for (EdgeId e = 0; e < graph.edge_count(); ++e) {
    edge_index_.Add(graph.edge_term(e).DisplayLabel(), e);
  }

  // Step (ii): identify sources and sinks.
  sources_ = graph.Sources();
  sinks_ = graph.Sinks();

  // Step (iii): compute all paths, traversing concurrently from each
  // start node. Every start enumerates into its own slot and the slots
  // concatenate in start order, so path ids are IDENTICAL for every
  // thread count — a reopened index never depends on how many cores
  // built it.
  std::vector<NodeId> starts = graph.StartNodes();
  if (options.start_mask != nullptr) {
    // Sharded build: this index enumerates only its owned starts. A
    // global path cap cannot be restricted to a shard coherently (the
    // cut point depends on the other shards' counts), so reject it.
    if (options.enumerate.max_paths != 0) {
      return Status::InvalidArgument(
          "start_mask (sharded build) requires enumerate.max_paths == 0");
    }
    std::vector<NodeId> owned;
    owned.reserve(starts.size());
    for (NodeId start : starts) {
      if (start < options.start_mask->size() &&
          (*options.start_mask)[start] != 0) {
        owned.push_back(start);
      }
    }
    starts = std::move(owned);
  }
  if (options.per_start_counts != nullptr) options.per_start_counts->clear();
  std::vector<Path> paths;
  size_t threads = std::max<size_t>(1, options.num_threads);
  if (threads == 1 || starts.size() <= 1) {
    PathEnumeratorOptions enum_options = options.enumerate;
    for (NodeId start : starts) {
      size_t before = paths.size();
      EnumeratePathsFrom(graph, start, enum_options, [&](const Path& p) {
        paths.push_back(p);
        return options.enumerate.max_paths == 0 ||
               paths.size() < options.enumerate.max_paths;
      });
      if (options.per_start_counts != nullptr) {
        options.per_start_counts->emplace_back(
            start, static_cast<uint64_t>(paths.size() - before));
      }
      if (options.enumerate.max_paths != 0 &&
          paths.size() >= options.enumerate.max_paths) {
        break;
      }
    }
  } else {
    ThreadPool pool(threads - 1);
    std::vector<std::vector<Path>> per_start(starts.size());
    SAMA_RETURN_IF_ERROR(
        ParallelFor(&pool, starts.size(), [&](size_t i) -> Status {
          EnumeratePathsFrom(graph, starts[i], options.enumerate,
                             [&](const Path& p) {
                               per_start[i].push_back(p);
                               return true;
                             });
          return Status::Ok();
        }));
    for (size_t i = 0; i < starts.size(); ++i) {
      if (options.per_start_counts != nullptr) {
        options.per_start_counts->emplace_back(
            starts[i], static_cast<uint64_t>(per_start[i].size()));
      }
      for (Path& p : per_start[i]) paths.push_back(std::move(p));
    }
    if (options.enumerate.max_paths != 0 &&
        paths.size() > options.enumerate.max_paths) {
      paths.resize(options.enumerate.max_paths);
    }
  }

  // Persist the paths and index them by sink and by content. Bulk mode:
  // no memoized lookups can exist yet, so no changed labels are tracked.
  for (const Path& p : paths) {
    SAMA_RETURN_IF_ERROR(IndexOnePath(p));
  }
  node_index_.Finish();
  edge_index_.Finish();
  sink_index_.Finish();
  content_index_.Finish();
  SAMA_RETURN_IF_ERROR(store_.Flush());
  if (!stage_dir.empty()) {
    SAMA_RETURN_IF_ERROR(
        FailPoints::Trigger("path_index.build.paths_flushed"));
  }

  if (options.build_hypergraph) {
    HypergraphStore::Options hg_options;
    if (!stage_dir.empty()) {
      hg_options.path = stage_dir + "/hypergraph.dat";
    }
    hg_options.buffer_pool_pages = options.buffer_pool_pages;
    hg_options.env = options.env;
    SAMA_RETURN_IF_ERROR(hypergraph_.Open(hg_options));
    SAMA_RETURN_IF_ERROR(BuildHypergraph(graph, paths));
  }

  stats_.num_triples = graph.live_edge_count();
  stats_.num_paths = store_.path_count();
  stats_.hv = hypergraph_.vertex_count();
  stats_.he = hypergraph_.hyperedge_count();
  stats_.build_millis = timer.ElapsedMillis();
  stats_.disk_bytes = store_.size_bytes() + hypergraph_.size_bytes() +
                      node_index_.MemoryBytes() + edge_index_.MemoryBytes() +
                      sink_index_.MemoryBytes() +
                      content_index_.MemoryBytes();
  if (!options.dir.empty()) {
    SAMA_RETURN_IF_ERROR(SaveMetadata(stage_dir));
    SAMA_RETURN_IF_ERROR(
        FailPoints::Trigger("path_index.build.tmp_complete"));
    // Close the staged stores so their files are complete and synced,
    // publish them, then reattach to the committed locations.
    SAMA_RETURN_IF_ERROR(store_.Close());
    SAMA_RETURN_IF_ERROR(hypergraph_.Close());
    SAMA_RETURN_IF_ERROR(CommitBuild(options.dir, stage_dir, env));
    store_options.path = options.dir + "/paths.dat";
    store_options.truncate = false;
    SAMA_RETURN_IF_ERROR(store_.Open(store_options));
    if (options.build_hypergraph) {
      HypergraphStore::Options hg_options;
      hg_options.path = options.dir + "/hypergraph.dat";
      hg_options.truncate = false;
      hg_options.buffer_pool_pages = options.buffer_pool_pages;
      hg_options.env = options.env;
      SAMA_RETURN_IF_ERROR(hypergraph_.Open(hg_options));
    }
  }
  return Status::Ok();
}

std::vector<std::string> PathIndex::BuildCrashPoints() {
  return {"path_index.build.paths_flushed",
          "path_index.build.tmp_complete",
          "path_index.commit.begin",
          "path_index.commit.uncommitted_old",
          "path_index.commit.data_renamed",
          "path_index.commit.committed"};
}

uint64_t PathIndex::GraphFingerprint(const DataGraph& graph) {
  uint64_t h = 0x5afeC0deULL;
  h = HashCombine(h, graph.node_count());
  h = HashCombine(h, graph.edge_count());
  // Sample edges (all of them for small graphs) so swapped datasets are
  // rejected without hashing every byte of a huge graph.
  size_t step = graph.edge_count() / 1024 + 1;
  for (EdgeId e = 0; e < graph.edge_count();
       e += static_cast<EdgeId>(step)) {
    const DataGraph::Edge& edge = graph.edge(e);
    h = HashCombine(h, edge.from);
    h = HashCombine(h, edge.to);
    h = HashCombine(h, edge.label);
  }
  return h;
}

// Term/triple bytes come from storage/triple_codec.h, the codec shared
// with the WAL record payloads — both sides round-trip the exact same
// layout.

Status PathIndex::SaveMetadata(const std::string& dir) const {
  std::vector<uint8_t> blob;
  PutVarint64(&blob, base_fingerprint_);
  // The checkpoint LSN sits right after the fingerprint so
  // ReadCheckpointLsn can stop after two varints.
  PutVarint64(&blob, applied_lsn_);
  PutVarint64(&blob, stats_.num_triples);
  PutVarint64(&blob, stats_.num_paths);
  PutVarint64(&blob, stats_.hv);
  PutVarint64(&blob, stats_.he);
  PutVarint64(&blob, static_cast<uint64_t>(stats_.build_millis * 1000));
  PutVarint64(&blob, stats_.disk_bytes);
  PutVarint64(&blob, sources_.size());
  for (NodeId n : sources_) PutVarint32(&blob, n);
  PutVarint64(&blob, sinks_.size());
  for (NodeId n : sinks_) PutVarint32(&blob, n);
  PutVarint64(&blob, by_sink_.size());
  for (const auto& [label, ids] : by_sink_) {
    PutVarint32(&blob, label);
    PutVarint64(&blob, ids.size());
    uint64_t previous = 0;
    for (PathId id : ids) {
      PutVarint64(&blob, id - previous);
      previous = id;
    }
  }
  node_index_.Serialize(&blob);
  edge_index_.Serialize(&blob);
  sink_index_.Serialize(&blob);
  content_index_.Serialize(&blob);
  // Dictionary image: restores the exact TermId space on Open.
  const TermDictionary& dict = graph_->dict();
  PutVarint64(&blob, dict.size());
  for (TermId i = 0; i < dict.size(); ++i) PutTerm(&blob, dict.term(i));
  // Journal of AddTriple/RemoveTriple updates, replayed into the base
  // graph on Open.
  PutVarint64(&blob, update_journal_.size());
  for (const JournalEntry& entry : update_journal_) {
    PutVarint64(&blob, entry.op);
    PutTriple(&blob, entry.triple);
  }
  // Tombstoned path ids.
  PutVarint64(&blob, deleted_paths_.size());
  for (PathId id : deleted_paths_) PutVarint64(&blob, id);
  return WriteBlobFile(dir + "/" + kMetaFile, blob, options_.env);
}

Status PathIndex::LoadMetadata(const std::string& dir,
                               uint64_t fingerprint) {
  auto blob_or = ReadBlobFile(dir + "/" + kMetaFile, options_.env);
  if (!blob_or.ok()) return blob_or.status();
  const std::vector<uint8_t>& blob = *blob_or;
  size_t pos = 0;
  uint64_t v = 0;
  auto next = [&](uint64_t* out) { return GetVarint64(blob, &pos, out); };
  if (!next(&v)) return Status::Corruption("index.meta header");
  if (v != fingerprint) {
    return Status::InvalidArgument(
        "index.meta was built over a different data graph");
  }
  base_fingerprint_ = v;
  if (!next(&applied_lsn_)) return Status::Corruption("index.meta lsn");
  uint64_t micros = 0;
  if (!next(&stats_.num_triples) || !next(&stats_.num_paths) ||
      !next(&stats_.hv) || !next(&stats_.he) || !next(&micros) ||
      !next(&stats_.disk_bytes)) {
    return Status::Corruption("index.meta stats");
  }
  stats_.build_millis = static_cast<double>(micros) / 1000.0;

  uint64_t count = 0;
  if (!next(&count)) return Status::Corruption("index.meta sources");
  sources_.resize(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t n = 0;
    if (!GetVarint32(blob, &pos, &n)) {
      return Status::Corruption("index.meta sources");
    }
    sources_[i] = n;
  }
  if (!next(&count)) return Status::Corruption("index.meta sinks");
  sinks_.resize(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t n = 0;
    if (!GetVarint32(blob, &pos, &n)) {
      return Status::Corruption("index.meta sinks");
    }
    sinks_[i] = n;
  }
  if (!next(&count)) return Status::Corruption("index.meta sink map");
  by_sink_.clear();
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t label = 0;
    uint64_t ids = 0;
    if (!GetVarint32(blob, &pos, &label) || !next(&ids)) {
      return Status::Corruption("index.meta sink map entry");
    }
    std::vector<PathId>& postings = by_sink_[label];
    postings.resize(ids);
    uint64_t previous = 0;
    for (uint64_t j = 0; j < ids; ++j) {
      uint64_t delta = 0;
      if (!next(&delta)) return Status::Corruption("index.meta sink ids");
      previous += delta;
      postings[j] = previous;
    }
  }
  if (!node_index_.Deserialize(blob, &pos) ||
      !edge_index_.Deserialize(blob, &pos) ||
      !sink_index_.Deserialize(blob, &pos) ||
      !content_index_.Deserialize(blob, &pos)) {
    return Status::Corruption("index.meta inverted indexes");
  }

  // Dictionary image: re-intern every saved term in order. The base
  // graph's terms must come back with their original ids (a mismatch
  // means this is not the graph the index was built over); terms
  // interned later (query variables, update entities) are restored to
  // their original slots.
  if (!next(&count)) return Status::Corruption("index.meta dictionary");
  // Open passes a mutable graph; graph_ stores it const for the query
  // path. Re-obtain mutable access through the shared dictionary handle.
  TermDictionary& dict = *graph_->shared_dict();
  for (uint64_t i = 0; i < count; ++i) {
    Term term;
    if (!GetTerm(blob, &pos, &term)) {
      return Status::Corruption("index.meta dictionary term");
    }
    TermId id = dict.Intern(term);
    if (id != i) {
      return Status::InvalidArgument(
          "dictionary drift: the provided graph interned terms in a "
          "different order than the indexed one");
    }
  }

  // Update journal.
  if (!next(&count)) return Status::Corruption("index.meta journal");
  update_journal_.resize(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t op = 0;
    if (!next(&op) || op > JournalEntry::kDelete ||
        !GetTriple(blob, &pos, &update_journal_[i].triple)) {
      return Status::Corruption("index.meta journal entry");
    }
    update_journal_[i].op = static_cast<uint8_t>(op);
  }

  // Tombstones.
  if (!next(&count)) return Status::Corruption("index.meta tombstones");
  deleted_paths_.clear();
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t id = 0;
    if (!next(&id)) return Status::Corruption("index.meta tombstone id");
    deleted_paths_.insert(id);
  }
  return Status::Ok();
}

Result<uint64_t> PathIndex::ReadCheckpointLsn(const std::string& dir,
                                              Env* env) {
  env = OrDefault(env);
  if (!env->FileExists(dir + "/" + kMetaFile)) {
    return Status::NotFound("no committed index in '" + dir + "'");
  }
  auto blob_or = ReadBlobFile(dir + "/" + kMetaFile, env);
  if (!blob_or.ok()) return blob_or.status();
  size_t pos = 0;
  uint64_t fingerprint = 0;
  uint64_t lsn = 0;
  if (!GetVarint64(*blob_or, &pos, &fingerprint) ||
      !GetVarint64(*blob_or, &pos, &lsn)) {
    return Status::Corruption("index.meta header");
  }
  return lsn;
}

Status PathIndex::Open(DataGraph* graph,
                       const PathIndexOptions& options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("PathIndex::Open requires options.dir");
  }
  graph_ = graph;
  options_ = options;
  options_.start_mask = nullptr;       // Build-time hooks; never
  options_.per_start_counts = nullptr;  // retained past the call.
  DropQueryCaches();  // Opening replaces the contents wholesale.
  Env* env = OrDefault(options.env);

  // Crash recovery. A leftover staging dir belongs to a build that
  // died before its commit point — discard it. If after that there is
  // no commit record, any data files present are partial artifacts of
  // a crashed commit; remove them and report kNotFound so the caller
  // rebuilds from the data graph.
  SAMA_RETURN_IF_ERROR(
      RemoveDirTree(options.dir + "/" + kStageDirName, env));
  if (!env->FileExists(options.dir + "/" + kMetaFile)) {
    bool partial = false;
    for (const char* name : kDataArtifacts) {
      std::string path = options.dir + "/" + name;
      if (env->FileExists(path)) {
        partial = true;
        SAMA_RETURN_IF_ERROR(env->RemoveFile(path));
      }
    }
    (void)env->RemoveFile(options.dir + "/" + std::string(kMetaFile) +
                          ".tmp");
    return Status::NotFound(
        partial ? "no committed index in '" + options.dir +
                      "' (a crashed build's partial artifacts were "
                      "discarded)"
                : "no committed index in '" + options.dir + "'");
  }

  PathStore::Options store_options;
  store_options.path = options.dir + "/paths.dat";
  store_options.truncate = false;
  store_options.buffer_pool_pages = options.buffer_pool_pages;
  store_options.env = options.env;
  SAMA_RETURN_IF_ERROR(store_.Open(store_options));

  if (options.build_hypergraph) {
    HypergraphStore::Options hg_options;
    hg_options.path = options.dir + "/hypergraph.dat";
    hg_options.truncate = false;
    hg_options.buffer_pool_pages = options.buffer_pool_pages;
    hg_options.env = options.env;
    SAMA_RETURN_IF_ERROR(hypergraph_.Open(hg_options));
  }
  SAMA_RETURN_IF_ERROR(LoadMetadata(options.dir, GraphFingerprint(*graph)));
  // Replay the journal: the graph returns to its checkpointed state
  // (the index structures are already post-update from the metadata).
  // Replaying the SAME insert/delete sequence reproduces the exact
  // edge-slot assignment of the live run — RemoveEdge tombstones a slot
  // rather than reusing it — so the EdgeId postings loaded from the
  // metadata resolve correctly.
  for (const JournalEntry& entry : update_journal_) {
    NodeId s = graph->AddNode(entry.triple.subject);
    NodeId o = graph->AddNode(entry.triple.object);
    if (entry.op == JournalEntry::kInsert) {
      graph->AddEdge(s, o, entry.triple.predicate);
    } else {
      graph->RemoveEdge(s, o, graph->dict().Find(entry.triple.predicate));
    }
  }
  return Status::Ok();
}

Status PathIndex::BuildHypergraph(const DataGraph& graph,
                                  const std::vector<Path>& paths) {
  // One hypergraph vertex per graph node; ids coincide by construction.
  for (NodeId n = 0; n < graph.node_count(); ++n) {
    auto v = hypergraph_.AddVertex(graph.node_term(n).DisplayLabel());
    if (!v.ok()) return v.status();
  }
  // One binary hyperedge per graph edge.
  for (EdgeId e = 0; e < graph.edge_count(); ++e) {
    const DataGraph::Edge& edge = graph.edge(e);
    auto he = hypergraph_.AddHyperedge({edge.from, edge.to});
    if (!he.ok()) return he.status();
  }
  // One wide hyperedge per path, grouping the path's vertices
  // (Figure 5).
  for (const Path& p : paths) {
    std::vector<VertexId> members(p.nodes.begin(), p.nodes.end());
    auto he = hypergraph_.AddHyperedge(members);
    if (!he.ok()) return he.status();
  }
  return hypergraph_.Flush();
}

const std::vector<PathId>& PathIndex::PathsWithSinkLabel(
    TermId label) const {
  auto it = by_sink_.find(label);
  return it == by_sink_.end() ? kNoPaths : it->second;
}

namespace {

// Entries of the query-side caches (ConfigureQueryCache): candidate
// lists and decoded path records.
constexpr size_t kLookupCacheEntries = 2048;
constexpr size_t kRecordCacheEntries = 16384;

constexpr char kKeySep = '\x1f';

// Lookup-cache key. Two jobs: identify the lookup uniquely (the FULL
// term form via ToString — an IRI <.../Male> and the literal "Male"
// share a display label but answer differently), and let the
// invalidation sweep recover the fields it filters on with an
// unambiguous left-to-right parse:
//
//   kind  tid-dec  US  identity-dec  US  displaylen-dec  US  display  ToString
//
// where US is 0x1f, tid is the exact dictionary id of the term
// (kInvalidTermId when unknown) and identity is the thesaurus content
// identity the entry was computed under.
std::string LookupKey(char kind, const Term& term, TermId exact,
                      const Thesaurus* thesaurus) {
  std::string display = term.DisplayLabel();
  std::string key(1, kind);
  key += std::to_string(exact);
  key.push_back(kKeySep);
  key += std::to_string(thesaurus == nullptr ? 0 : thesaurus->identity());
  key.push_back(kKeySep);
  key += std::to_string(display.size());
  key.push_back(kKeySep);
  key += display;
  key += term.ToString();
  return key;
}

// Parses the invalidation-relevant fields back out of a lookup key.
struct ParsedLookupKey {
  char kind = 0;
  TermId tid = kInvalidTermId;
  uint64_t identity = 0;
  std::string_view display;
};

bool ParseLookupKey(const std::string& key, ParsedLookupKey* out) {
  if (key.empty()) return false;
  out->kind = key[0];
  size_t pos = 1;
  auto number = [&](uint64_t* value) {
    size_t end = key.find(kKeySep, pos);
    if (end == std::string::npos || end == pos) return false;
    uint64_t v = 0;
    for (size_t i = pos; i < end; ++i) {
      if (key[i] < '0' || key[i] > '9') return false;
      v = v * 10 + static_cast<uint64_t>(key[i] - '0');
    }
    *value = v;
    pos = end + 1;
    return true;
  };
  uint64_t tid = 0;
  uint64_t len = 0;
  if (!number(&tid) || !number(&out->identity) || !number(&len) ||
      key.size() - pos < len) {
    return false;
  }
  out->tid = static_cast<TermId>(tid);
  out->display = std::string_view(key.data() + pos, len);
  return true;
}

}  // namespace

std::vector<PathId> PathIndex::PathsWithSinkMatching(
    const Term& term, const Thesaurus* thesaurus,
    IndexCacheCounters* stats) const {
  std::string key;
  CacheCounters* lookup_stats = stats ? &stats->lookups : nullptr;
  if (lookup_cache_) {
    key = LookupKey('s', term, graph_->dict().Find(term), thesaurus);
    std::vector<PathId> cached;
    if (lookup_cache_->Get(key, &cached, lookup_stats)) return cached;
  }
  // IndexOnePath files every path in sink_index_ under its sink's
  // label, so the exact postings LookupSemantic returns hold every path
  // of by_sink_ for that label.
  std::vector<PathId> out = FilterDeleted(
      sink_index_.LookupSemantic(term.DisplayLabel(), thesaurus));
  if (lookup_cache_) lookup_cache_->Put(key, out, lookup_stats);
  return out;
}

std::vector<PathId> PathIndex::PathsContaining(
    const Term& term, const Thesaurus* thesaurus,
    IndexCacheCounters* stats) const {
  std::string key;
  CacheCounters* lookup_stats = stats ? &stats->lookups : nullptr;
  if (lookup_cache_) {
    key = LookupKey('c', term, graph_->dict().Find(term), thesaurus);
    std::vector<PathId> cached;
    if (lookup_cache_->Get(key, &cached, lookup_stats)) return cached;
  }
  std::vector<PathId> out = FilterDeleted(
      content_index_.LookupSemantic(term.DisplayLabel(), thesaurus));
  if (lookup_cache_) lookup_cache_->Put(key, out, lookup_stats);
  return out;
}

Status PathIndex::GetPath(PathId id, std::shared_ptr<const Path>* out,
                          CacheCounters* record_stats) const {
  if (deleted_paths_.count(id) > 0) {
    return Status::NotFound("path " + std::to_string(id) +
                            " was invalidated by an update");
  }
  if (record_cache_ != nullptr && record_cache_->Get(id, out, record_stats)) {
    return Status::Ok();
  }
  auto path = std::make_shared<Path>();
  SAMA_RETURN_IF_ERROR(store_.Get(id, path.get()));
  // Only verified reads are memoized: a record that failed its
  // checksum or I/O must keep failing (or keep being retried) exactly
  // as if no cache existed — the strict-io and degraded-read semantics
  // depend on it.
  if (record_cache_ != nullptr) record_cache_->Put(id, path, record_stats);
  *out = std::move(path);
  return Status::Ok();
}

void PathIndex::ConfigureQueryCache(bool enabled) const {
  if (!enabled) {
    lookup_cache_.reset();
    record_cache_.reset();
    return;
  }
  lookup_cache_ =
      std::make_unique<ShardedLruCache<std::string, std::vector<PathId>>>(
          kLookupCacheEntries);
  record_cache_ = std::make_unique<
      ShardedLruCache<PathId, std::shared_ptr<const Path>>>(
      kRecordCacheEntries);
}

void PathIndex::DropQueryCaches() const {
  if (lookup_cache_) lookup_cache_->Clear();
  if (record_cache_) record_cache_->Clear();
}

uint64_t PathIndex::query_cache_lock_skips() const {
  uint64_t skips = 0;
  if (lookup_cache_) skips += lookup_cache_->lru_lock_skips();
  if (record_cache_) skips += record_cache_->lru_lock_skips();
  return skips;
}

IndexCacheCounters PathIndex::query_cache_counters() const {
  IndexCacheCounters out;
  if (lookup_cache_) out.lookups = lookup_cache_->counters();
  if (record_cache_) out.records = record_cache_->counters();
  return out;
}

std::vector<NodeId> PathIndex::NodesMatching(
    const Term& term, const Thesaurus* thesaurus) const {
  std::vector<uint64_t> raw =
      node_index_.LookupSemantic(term.DisplayLabel(), thesaurus);
  return std::vector<NodeId>(raw.begin(), raw.end());
}

std::vector<EdgeId> PathIndex::EdgesMatching(
    const Term& term, const Thesaurus* thesaurus) const {
  std::vector<uint64_t> raw =
      edge_index_.LookupSemantic(term.DisplayLabel(), thesaurus);
  std::vector<EdgeId> out;
  out.reserve(raw.size());
  // Postings keep ids of edges RemoveTriple tombstoned; screen them the
  // same way FilterDeleted screens tombstoned paths.
  for (uint64_t e : raw) {
    if (graph_->edge_live(static_cast<EdgeId>(e))) {
      out.push_back(static_cast<EdgeId>(e));
    }
  }
  return out;
}

void PathIndex::ChangedLabels::Add(const TermDictionary& dict, TermId tid) {
  if (!tids.insert(tid).second) return;
  Entry entry;
  entry.display = dict.term(tid).DisplayLabel();
  entry.normalized = NormalizeLabel(entry.display);
  entry.tokens = TokenizeLabel(entry.display);
  std::sort(entry.tokens.begin(), entry.tokens.end());
  entries.push_back(std::move(entry));
}

Status PathIndex::IndexOnePath(const Path& p, ChangedLabels* sink_labels,
                               ChangedLabels* content_labels) {
  const TermDictionary& dict = graph_->dict();
  auto id_or = store_.Put(p);
  if (!id_or.ok()) return id_or.status();
  PathId id = *id_or;
  by_sink_[p.sink_label()].push_back(id);
  sink_index_.Add(dict.term(p.sink_label()).DisplayLabel(), id);
  for (TermId label : p.node_labels) {
    content_index_.Add(dict.term(label).DisplayLabel(), id);
  }
  for (TermId label : p.edge_labels) {
    content_index_.Add(dict.term(label).DisplayLabel(), id);
  }
  if (sink_labels != nullptr) sink_labels->Add(dict, p.sink_label());
  if (content_labels != nullptr) {
    for (TermId label : p.node_labels) content_labels->Add(dict, label);
    for (TermId label : p.edge_labels) content_labels->Add(dict, label);
  }
  return Status::Ok();
}

void PathIndex::TombstonePath(PathId id, const Path& p,
                              ChangedLabels* sink_labels,
                              ChangedLabels* content_labels) {
  deleted_paths_.insert(id);
  auto it = by_sink_.find(p.sink_label());
  if (it != by_sink_.end()) {
    auto& ids = it->second;
    ids.erase(std::remove(ids.begin(), ids.end(), id), ids.end());
    if (ids.empty()) by_sink_.erase(it);
  }
  // The inverted postings keep the stale id; FilterDeleted screens it
  // out at lookup time. The lookup cache holds FILTERED lists, so the
  // labels this path answered under go into the changed sets.
  const TermDictionary& dict = graph_->dict();
  if (sink_labels != nullptr) sink_labels->Add(dict, p.sink_label());
  if (content_labels != nullptr) {
    for (TermId label : p.node_labels) content_labels->Add(dict, label);
    for (TermId label : p.edge_labels) content_labels->Add(dict, label);
  }
}

void PathIndex::InvalidateLookups(const ChangedLabels& sink_labels,
                                  const ChangedLabels& content_labels,
                                  const Thesaurus* thesaurus) const {
  if (!lookup_cache_) return;
  if (sink_labels.empty() && content_labels.empty()) return;
  uint64_t live_identity = thesaurus == nullptr ? 0 : thesaurus->identity();
  lookup_cache_->EraseIf([&](const std::string& key) {
    ParsedLookupKey parsed;
    if (!ParseLookupKey(key, &parsed)) return true;  // Unparseable: drop.
    const ChangedLabels& changed =
        parsed.kind == 's' ? sink_labels : content_labels;
    if (changed.empty()) return false;
    if (changed.tids.count(parsed.tid) > 0) return true;
    // Mirror LookupSemantic's layers with a sound superset: exact
    // normalized match, token containment (the AND-fallback can only
    // surface a label that holds EVERY lookup token), then thesaurus.
    std::string norm = NormalizeLabel(parsed.display);
    std::vector<std::string> tokens = TokenizeLabel(parsed.display);
    for (const ChangedLabels::Entry& entry : changed.entries) {
      if (norm == entry.normalized) return true;
      if (!tokens.empty()) {
        bool contained = true;
        for (const std::string& token : tokens) {
          if (!std::binary_search(entry.tokens.begin(), entry.tokens.end(),
                                  token)) {
            contained = false;
            break;
          }
        }
        if (contained) return true;
      }
    }
    if (parsed.identity == 0) return false;  // Cached without a thesaurus.
    if (thesaurus == nullptr || parsed.identity != live_identity) {
      return true;  // Can't evaluate that thesaurus: drop conservatively.
    }
    for (const ChangedLabels::Entry& entry : changed.entries) {
      if (thesaurus->AreRelated(norm, entry.display)) return true;
    }
    return false;
  });
}

std::vector<PathId> PathIndex::FilterDeleted(
    std::vector<uint64_t> ids) const {
  if (deleted_paths_.empty()) return ids;
  ids.erase(std::remove_if(ids.begin(), ids.end(),
                           [this](uint64_t id) {
                             return deleted_paths_.count(id) > 0;
                           }),
            ids.end());
  return ids;
}

namespace {

// Reverse simple paths from `end` back to the graph's sources; each
// emitted prefix runs source→...→end (inclusive). Emits an empty-prefix
// marker (just {end}) when `end` itself has no incoming edges.
void CollectPrefixes(const DataGraph& graph, NodeId end, size_t max_length,
                     std::vector<Path>* out) {
  std::vector<NodeId> stack{end};
  std::vector<TermId> edge_stack;
  std::vector<bool> on_path(graph.node_count(), false);
  on_path[end] = true;

  // Recursive walk over in-edges.
  std::function<void()> walk = [&] {
    NodeId node = stack.back();
    if (graph.in_degree(node) == 0) {
      // Reached a source: materialise the reversed walk.
      Path p;
      p.nodes.assign(stack.rbegin(), stack.rend());
      for (NodeId n : p.nodes) p.node_labels.push_back(graph.node_label(n));
      p.edge_labels.assign(edge_stack.rbegin(), edge_stack.rend());
      out->push_back(std::move(p));
      return;
    }
    if (max_length != 0 && stack.size() >= max_length) return;
    for (EdgeId e : graph.in_edges(node)) {
      const DataGraph::Edge& edge = graph.edge(e);
      if (on_path[edge.from]) continue;
      stack.push_back(edge.from);
      edge_stack.push_back(edge.label);
      on_path[edge.from] = true;
      walk();
      on_path[edge.from] = false;
      edge_stack.pop_back();
      stack.pop_back();
    }
  };
  walk();
}

// Forward simple paths from `start` to sinks, start inclusive. Emits a
// single-node path when `start` is itself a sink.
void CollectSuffixes(const DataGraph& graph, NodeId start,
                     size_t max_length, std::vector<Path>* out) {
  if (graph.out_degree(start) == 0) {
    Path p;
    p.nodes = {start};
    p.node_labels = {graph.node_label(start)};
    out->push_back(std::move(p));
    return;
  }
  EnumeratePathsFrom(graph, start,
                     PathEnumeratorOptions{0, max_length, false},
                     [out](const Path& p) {
                       out->push_back(p);
                       return true;
                     });
}

}  // namespace

Status PathIndex::AddTriple(DataGraph* graph, const Triple& triple,
                            const Thesaurus* thesaurus) {
  if (graph != graph_) {
    return Status::InvalidArgument(
        "AddTriple must receive the graph the index was built over");
  }
  size_t nodes_before = graph->node_count();
  size_t live_before = graph->live_edge_count();
  NodeId s = graph->AddNode(triple.subject);
  NodeId o = graph->AddNode(triple.object);
  bool s_was_sink =
      s < nodes_before && graph->out_degree(s) == 0 && graph->in_degree(s) > 0;
  bool o_was_source =
      o < nodes_before && graph->in_degree(o) == 0 && graph->out_degree(o) > 0;
  EdgeId new_edge = graph->AddEdge(s, o, triple.predicate);
  if (graph->live_edge_count() == live_before) {
    return Status::Ok();  // Duplicate.
  }
  update_journal_.push_back({JournalEntry::kInsert, triple});
  ChangedLabels sink_labels, content_labels;

  // Element-to-element mapping for the new elements.
  for (NodeId n = static_cast<NodeId>(nodes_before);
       n < graph->node_count(); ++n) {
    node_index_.Add(graph->node_term(n).DisplayLabel(), n);
    if (options_.build_hypergraph && hypergraph_.vertex_count() > 0) {
      auto v = hypergraph_.AddVertex(graph->node_term(n).DisplayLabel());
      if (!v.ok()) return v.status();
    }
  }
  edge_index_.Add(graph->edge_term(new_edge).DisplayLabel(), new_edge);
  if (options_.build_hypergraph && hypergraph_.vertex_count() > 0) {
    auto he = hypergraph_.AddHyperedge({s, o});
    if (!he.ok()) return he.status();
  }

  // Tombstone paths invalidated by the new edge.
  if (s_was_sink) {
    // Paths used to end at s; they now continue through the new edge.
    std::vector<PathId> stale = by_sink_[graph->node_label(s)];
    for (PathId id : stale) {
      Path p;
      SAMA_RETURN_IF_ERROR(store_.Get(id, &p));
      if (p.nodes.back() == s) {
        TombstonePath(id, p, &sink_labels, &content_labels);
      }
    }
  }
  if (o_was_source) {
    // Paths used to start at o; the prefixes now reach further back.
    std::vector<uint64_t> candidates = content_index_.LookupSemantic(
        graph->node_term(o).DisplayLabel(), nullptr);
    for (uint64_t id : FilterDeleted(std::move(candidates))) {
      Path p;
      SAMA_RETURN_IF_ERROR(store_.Get(id, &p));
      if (!p.nodes.empty() && p.nodes.front() == o) {
        TombstonePath(id, p, &sink_labels, &content_labels);
      }
    }
  }

  // New paths: every (source→…→s) prefix composed with the new edge and
  // every (o→…→sink) suffix, keeping the result a simple path.
  std::vector<Path> prefixes, suffixes;
  CollectPrefixes(*graph, s, options_.enumerate.max_length, &prefixes);
  CollectSuffixes(*graph, o, options_.enumerate.max_length, &suffixes);
  TermId edge_label = graph->edge(new_edge).label;
  size_t added = 0;
  for (const Path& prefix : prefixes) {
    for (const Path& suffix : suffixes) {
      // Simple-path check: prefix and suffix must not share nodes.
      bool disjoint = true;
      for (NodeId a : prefix.nodes) {
        for (NodeId b : suffix.nodes) {
          if (a == b) {
            disjoint = false;
            break;
          }
        }
        if (!disjoint) break;
      }
      if (!disjoint) continue;
      Path combined;
      combined.nodes = prefix.nodes;
      combined.nodes.insert(combined.nodes.end(), suffix.nodes.begin(),
                            suffix.nodes.end());
      combined.node_labels = prefix.node_labels;
      combined.node_labels.insert(combined.node_labels.end(),
                                  suffix.node_labels.begin(),
                                  suffix.node_labels.end());
      combined.edge_labels = prefix.edge_labels;
      combined.edge_labels.push_back(edge_label);
      combined.edge_labels.insert(combined.edge_labels.end(),
                                  suffix.edge_labels.begin(),
                                  suffix.edge_labels.end());
      if (options_.enumerate.max_length != 0 &&
          combined.length() > options_.enumerate.max_length) {
        continue;
      }
      PathId id = store_.path_count();
      SAMA_RETURN_IF_ERROR(
          IndexOnePath(combined, &sink_labels, &content_labels));
      ++added;
      if (options_.build_hypergraph && hypergraph_.vertex_count() > 0) {
        std::vector<VertexId> members(combined.nodes.begin(),
                                      combined.nodes.end());
        auto he = hypergraph_.AddHyperedge(members);
        if (!he.ok()) return he.status();
      }
      (void)id;
    }
  }
  node_index_.Finish();
  edge_index_.Finish();
  sink_index_.Finish();
  content_index_.Finish();
  // Candidate lists changed for the touched labels only (tombstones +
  // new paths): sweep exactly those entries instead of flushing the
  // cache — concurrent queries over unrelated clusters keep their
  // memoized lookups. The record cache is safe to keep — ids are
  // immutable and tombstones are screened before it.
  InvalidateLookups(sink_labels, content_labels, thesaurus);

  sources_ = graph->Sources();
  sinks_ = graph->Sinks();
  stats_.num_triples = graph->live_edge_count();
  stats_.num_paths = live_path_count();
  stats_.hv = hypergraph_.vertex_count();
  stats_.he = hypergraph_.hyperedge_count();
  (void)added;
  return Status::Ok();
}

Status PathIndex::RemoveTriple(DataGraph* graph, const Triple& triple,
                               const Thesaurus* thesaurus) {
  if (graph != graph_) {
    return Status::InvalidArgument(
        "RemoveTriple must receive the graph the index was built over");
  }
  NodeId s = graph->FindNode(triple.subject);
  NodeId o = graph->FindNode(triple.object);
  TermId predicate = graph->dict().Find(triple.predicate);
  if (s == kInvalidNodeId || o == kInvalidNodeId ||
      predicate == kInvalidTermId) {
    return Status::Ok();  // Absent triple: idempotent no-op.
  }
  EdgeId edge = graph->FindEdge(s, o, predicate);
  if (edge == kInvalidEdgeId) return Status::Ok();
  update_journal_.push_back({JournalEntry::kDelete, triple});
  ChangedLabels sink_labels, content_labels;

  // Tombstone every live path that traverses the edge. Candidates:
  // paths containing the subject's label (an exact superset of the
  // paths through s — content postings are keyed by label, so same-
  // label nodes add false candidates the node-id check below screens).
  std::vector<uint64_t> candidates = content_index_.LookupSemantic(
      graph->node_term(s).DisplayLabel(), nullptr);
  for (uint64_t id : FilterDeleted(std::move(candidates))) {
    Path p;
    SAMA_RETURN_IF_ERROR(store_.Get(id, &p));
    for (size_t i = 0; i + 1 < p.nodes.size(); ++i) {
      if (p.nodes[i] == s && p.nodes[i + 1] == o &&
          p.edge_labels[i] == predicate) {
        TombstonePath(id, p, &sink_labels, &content_labels);
        break;
      }
    }
  }

  graph->RemoveEdge(s, o, predicate);

  // The removal can COMPLETE paths: s with no remaining out-edges is a
  // sink again (every source→…→s walk is now a full path), and o with
  // no remaining in-edges is a source (every o→…→sink walk is one).
  // When both happen at once an o→…→s walk shows up from both ends, so
  // de-duplicate by node sequence before indexing.
  bool s_now_sink = graph->out_degree(s) == 0 && graph->in_degree(s) > 0;
  bool o_now_source = graph->in_degree(o) == 0 && graph->out_degree(o) > 0;
  std::vector<Path> completed;
  if (s_now_sink) {
    CollectPrefixes(*graph, s, options_.enumerate.max_length, &completed);
  }
  if (o_now_source) {
    CollectSuffixes(*graph, o, options_.enumerate.max_length, &completed);
  }
  std::unordered_set<std::string> seen;
  for (const Path& p : completed) {
    if (options_.enumerate.max_length != 0 &&
        p.length() > options_.enumerate.max_length) {
      continue;
    }
    std::string signature;
    for (NodeId n : p.nodes) {
      signature += std::to_string(n);
      signature.push_back(',');
    }
    if (!seen.insert(signature).second) continue;
    SAMA_RETURN_IF_ERROR(IndexOnePath(p, &sink_labels, &content_labels));
    if (options_.build_hypergraph && hypergraph_.vertex_count() > 0) {
      std::vector<VertexId> members(p.nodes.begin(), p.nodes.end());
      auto he = hypergraph_.AddHyperedge(members);
      if (!he.ok()) return he.status();
    }
  }
  sink_index_.Finish();
  content_index_.Finish();
  InvalidateLookups(sink_labels, content_labels, thesaurus);

  sources_ = graph->Sources();
  sinks_ = graph->Sinks();
  stats_.num_triples = graph->live_edge_count();
  stats_.num_paths = live_path_count();
  stats_.hv = hypergraph_.vertex_count();
  stats_.he = hypergraph_.hyperedge_count();
  return Status::Ok();
}

Status PathIndex::Checkpoint() {
  if (options_.dir.empty()) {
    return Status::InvalidArgument(
        "Checkpoint requires a disk-backed index (options.dir)");
  }
  SAMA_RETURN_IF_ERROR(store_.Flush());
  SAMA_RETURN_IF_ERROR(hypergraph_.Flush());
  return SaveMetadata(options_.dir);
}

Status PathIndex::DropCaches() {
  DropQueryCaches();
  SAMA_RETURN_IF_ERROR(store_.DropCaches());
  return hypergraph_.DropCaches();
}

}  // namespace sama
