#include "storage/path_store.h"

#include "storage/coding.h"
#include "storage/manifest.h"

namespace sama {

Status PathStore::Open(const Options& options) {
  compress_ = options.compress;
  env_ = options.env;
  record_ids_.clear();  // Whatever an earlier Open loaded.
  manifest_path_.clear();
  RecordStore::Options ro;
  ro.path = options.path;
  ro.truncate = options.truncate;
  ro.buffer_pool_pages = options.buffer_pool_pages;
  ro.env = options.env;
  SAMA_RETURN_IF_ERROR(store_.Open(ro));
  if (!options.path.empty()) {
    manifest_path_ = options.path + ".manifest";
    if (!options.truncate) {
      auto ids = ReadIdManifest(manifest_path_, env_);
      if (!ids.ok()) return ids.status();
      record_ids_ = std::move(*ids);
      if (record_ids_.size() != store_.record_count()) {
        return Status::Corruption(
            "path manifest out of sync with record store");
      }
    }
  }
  return Status::Ok();
}

Status PathStore::WriteManifest() {
  if (manifest_path_.empty()) return Status::Ok();
  return WriteIdManifest(manifest_path_, record_ids_, env_);
}

Status PathStore::Close() {
  SAMA_RETURN_IF_ERROR(WriteManifest());
  return store_.Close();
}

void PathStore::Encode(const Path& p, bool compress,
                       std::vector<uint8_t>* out) {
  out->clear();
  if (compress) {
    PutVarint64(out, p.node_labels.size());
    for (TermId t : p.node_labels) PutVarint32(out, t);
    for (TermId t : p.edge_labels) PutVarint32(out, t);
    for (NodeId n : p.nodes) PutVarint32(out, n);
  } else {
    PutFixed32(out, static_cast<uint32_t>(p.node_labels.size()));
    for (TermId t : p.node_labels) PutFixed32(out, t);
    for (TermId t : p.edge_labels) PutFixed32(out, t);
    for (NodeId n : p.nodes) PutFixed32(out, n);
  }
}

Status PathStore::Decode(const std::vector<uint8_t>& buf, bool compress,
                         Path* out) {
  size_t pos = 0;
  uint64_t k64 = 0;
  uint32_t k32 = 0;
  size_t k = 0;
  if (compress) {
    if (!GetVarint64(buf, &pos, &k64)) {
      return Status::Corruption("path header");
    }
    k = static_cast<size_t>(k64);
  } else {
    if (!GetFixed32(buf, &pos, &k32)) {
      return Status::Corruption("path header");
    }
    k = k32;
  }
  if (k == 0) return Status::Corruption("empty path record");
  out->node_labels.resize(k);
  out->edge_labels.resize(k - 1);
  out->nodes.resize(k);
  auto read_u32 = [&](uint32_t* v) {
    return compress ? GetVarint32(buf, &pos, v) : GetFixed32(buf, &pos, v);
  };
  for (size_t i = 0; i < k; ++i) {
    if (!read_u32(&out->node_labels[i])) {
      return Status::Corruption("path node labels");
    }
  }
  for (size_t i = 0; i + 1 < k; ++i) {
    if (!read_u32(&out->edge_labels[i])) {
      return Status::Corruption("path edge labels");
    }
  }
  for (size_t i = 0; i < k; ++i) {
    if (!read_u32(&out->nodes[i])) {
      return Status::Corruption("path node ids");
    }
  }
  return Status::Ok();
}

Result<PathId> PathStore::Put(const Path& p) {
  if (p.empty()) return Status::InvalidArgument("empty path");
  std::vector<uint8_t> buf;
  Encode(p, compress_, &buf);
  auto rid = store_.Append(buf);
  if (!rid.ok()) return rid.status();
  PathId id = record_ids_.size();
  record_ids_.push_back(*rid);
  return id;
}

Status PathStore::Get(PathId id, Path* out) const {
  if (id >= record_ids_.size()) {
    return Status::OutOfRange("path " + std::to_string(id));
  }
  std::vector<uint8_t> buf;
  SAMA_RETURN_IF_ERROR(store_.Read(record_ids_[id], &buf));
  return Decode(buf, compress_, out);
}

Status PathStore::Flush() {
  SAMA_RETURN_IF_ERROR(WriteManifest());
  return store_.Flush();
}

Status PathStore::DropCaches() { return store_.DropCaches(); }

}  // namespace sama
