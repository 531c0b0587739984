#ifndef SAMA_STORAGE_HYPERGRAPH_STORE_H_
#define SAMA_STORAGE_HYPERGRAPH_STORE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/record_store.h"

namespace sama {

using VertexId = uint64_t;
using HyperedgeId = uint64_t;

// The HyperGraphDB substitute (§6.1, Figure 5): a disk store modelling
// H = (X, E) where X is a vertex set and E ⊆ 2^X is a set of
// hyperedges. The index layer stores one vertex per RDF term, one
// binary hyperedge per triple, and one wide hyperedge per indexed path
// (Figure 5 groups each path's elements into a hyperedge), so the
// Table-1 quantities are |HV| = vertex_count() and
// |HE| = hyperedge_count().
//
// Thread safety: GetVertex/GetHyperedge are safe to call concurrently
// once building has finished — the record-id tables are immutable at
// query time and the RecordStore read path is lock-free over the
// buffer pool's pin protocol. AddVertex/AddHyperedge are single-writer
// and must not overlap with readers.
class HypergraphStore {
 public:
  struct Options {
    std::string path;  // Empty = in-memory.
    // truncate=false reopens an existing store from its manifests.
    bool truncate = true;
    size_t buffer_pool_pages = 1024;
    // I/O seam for fault-injection tests; nullptr = Env::Default().
    Env* env = nullptr;
  };

  HypergraphStore() = default;
  HypergraphStore(const HypergraphStore&) = delete;
  HypergraphStore& operator=(const HypergraphStore&) = delete;

  // Opens the store, dropping whatever an earlier Open of this object
  // loaded.
  Status Open(const Options& options);
  Status Close();

  // Adds a vertex carrying `label`; returns its dense id.
  Result<VertexId> AddVertex(const std::string& label);

  // Adds a hyperedge over existing vertices. Requires non-empty
  // `vertices` with every id previously returned by AddVertex.
  Result<HyperedgeId> AddHyperedge(const std::vector<VertexId>& vertices);

  // Reads back a vertex label.
  Status GetVertex(VertexId id, std::string* label) const;
  // Reads back a hyperedge's member vertices.
  Status GetHyperedge(HyperedgeId id, std::vector<VertexId>* out) const;

  uint64_t vertex_count() const { return vertex_records_.size(); }
  uint64_t hyperedge_count() const { return edge_records_.size(); }
  uint64_t size_bytes() const { return store_.size_bytes(); }

  Status Flush();
  Status DropCaches();

 private:
  Status WriteManifests();

  RecordStore store_;
  std::vector<RecordId> vertex_records_;
  std::vector<RecordId> edge_records_;
  std::string manifest_base_;
  Env* env_ = nullptr;
};

}  // namespace sama

#endif  // SAMA_STORAGE_HYPERGRAPH_STORE_H_
