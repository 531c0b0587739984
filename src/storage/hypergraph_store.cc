#include "storage/hypergraph_store.h"

#include "storage/coding.h"
#include "storage/manifest.h"

namespace sama {

Status HypergraphStore::Open(const Options& options) {
  env_ = options.env;
  vertex_records_.clear();  // Whatever an earlier Open loaded.
  edge_records_.clear();
  manifest_base_.clear();
  RecordStore::Options ro;
  ro.path = options.path;
  ro.truncate = options.truncate;
  ro.buffer_pool_pages = options.buffer_pool_pages;
  ro.env = options.env;
  SAMA_RETURN_IF_ERROR(store_.Open(ro));
  if (!options.path.empty()) {
    manifest_base_ = options.path;
    if (!options.truncate) {
      auto vertices = ReadIdManifest(manifest_base_ + ".vertices", env_);
      if (!vertices.ok()) return vertices.status();
      auto edges = ReadIdManifest(manifest_base_ + ".hyperedges", env_);
      if (!edges.ok()) return edges.status();
      vertex_records_ = std::move(*vertices);
      edge_records_ = std::move(*edges);
      if (vertex_records_.size() + edge_records_.size() !=
          store_.record_count()) {
        return Status::Corruption(
            "hypergraph manifests out of sync with record store");
      }
    }
  }
  return Status::Ok();
}

Status HypergraphStore::WriteManifests() {
  if (manifest_base_.empty()) return Status::Ok();
  SAMA_RETURN_IF_ERROR(
      WriteIdManifest(manifest_base_ + ".vertices", vertex_records_, env_));
  return WriteIdManifest(manifest_base_ + ".hyperedges", edge_records_,
                         env_);
}

Status HypergraphStore::Close() {
  SAMA_RETURN_IF_ERROR(WriteManifests());
  return store_.Close();
}

Result<VertexId> HypergraphStore::AddVertex(const std::string& label) {
  std::vector<uint8_t> buf(label.begin(), label.end());
  auto rid = store_.Append(buf);
  if (!rid.ok()) return rid.status();
  VertexId id = vertex_records_.size();
  vertex_records_.push_back(*rid);
  return id;
}

Result<HyperedgeId> HypergraphStore::AddHyperedge(
    const std::vector<VertexId>& vertices) {
  if (vertices.empty()) {
    return Status::InvalidArgument("hyperedge must be a non-empty set");
  }
  for (VertexId v : vertices) {
    if (v >= vertex_records_.size()) {
      return Status::InvalidArgument("unknown vertex " + std::to_string(v));
    }
  }
  std::vector<uint8_t> buf;
  PutVarint64(&buf, vertices.size());
  for (VertexId v : vertices) PutVarint64(&buf, v);
  auto rid = store_.Append(buf);
  if (!rid.ok()) return rid.status();
  HyperedgeId id = edge_records_.size();
  edge_records_.push_back(*rid);
  return id;
}

Status HypergraphStore::GetVertex(VertexId id, std::string* label) const {
  if (id >= vertex_records_.size()) {
    return Status::OutOfRange("vertex " + std::to_string(id));
  }
  std::vector<uint8_t> buf;
  SAMA_RETURN_IF_ERROR(store_.Read(vertex_records_[id], &buf));
  label->assign(buf.begin(), buf.end());
  return Status::Ok();
}

Status HypergraphStore::GetHyperedge(HyperedgeId id,
                                     std::vector<VertexId>* out) const {
  if (id >= edge_records_.size()) {
    return Status::OutOfRange("hyperedge " + std::to_string(id));
  }
  std::vector<uint8_t> buf;
  SAMA_RETURN_IF_ERROR(store_.Read(edge_records_[id], &buf));
  size_t pos = 0;
  uint64_t count = 0;
  if (!GetVarint64(buf, &pos, &count)) {
    return Status::Corruption("hyperedge header");
  }
  out->resize(count);
  for (uint64_t i = 0; i < count; ++i) {
    if (!GetVarint64(buf, &pos, &(*out)[i])) {
      return Status::Corruption("hyperedge members");
    }
  }
  return Status::Ok();
}

Status HypergraphStore::Flush() {
  SAMA_RETURN_IF_ERROR(WriteManifests());
  return store_.Flush();
}

Status HypergraphStore::DropCaches() { return store_.DropCaches(); }

}  // namespace sama
