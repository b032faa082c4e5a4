#include "graph/catalog.h"

#include <utility>

#include "graph/snapshot.h"
#include "graph/snapshot_io.h"

namespace gcore {

void GraphCatalog::RegisterGraphImpl(
    const std::string& name, PathPropertyGraph graph,
    std::shared_ptr<const GraphStats> stats, bool from_table) {
  graph.set_name(name);
  {
    std::lock_guard<std::mutex> lock(mu_);
    Entry& entry = graphs_[name];
    Entry old = std::move(entry);
    entry.graph =
        std::make_shared<const PathPropertyGraph>(std::move(graph));
    entry.version = next_version_++;
    entry.stats = std::move(stats);
    entry.snapshot = nullptr;
    entry.from_table = from_table;
    ++mutation_epoch_;
    RetireLocked(std::move(old));
  }
  NotifyInvalidation(name);
}

void GraphCatalog::RegisterGraph(const std::string& name,
                                 PathPropertyGraph graph) {
  RegisterGraphImpl(name, std::move(graph), nullptr, /*from_table=*/false);
}

void GraphCatalog::RegisterGraph(const std::string& name,
                                 PathPropertyGraph graph, GraphStats stats) {
  RegisterGraphImpl(name, std::move(graph),
                    std::make_shared<const GraphStats>(std::move(stats)),
                    /*from_table=*/false);
}

void GraphCatalog::RegisterGraphFromTable(const std::string& name,
                                          PathPropertyGraph graph) {
  RegisterGraphImpl(name, std::move(graph), nullptr, /*from_table=*/true);
}

Status GraphCatalog::RegisterSnapshotFile(const std::string& name,
                                          const std::string& path,
                                          bool use_mmap) {
  GCORE_ASSIGN_OR_RETURN(std::shared_ptr<GraphSnapshot> snap,
                         use_mmap ? MmapSnapshotFile(path)
                                  : LoadSnapshotFile(path));
  // The image serves the read path as is. The catalog entry owns the PPG
  // it describes, rebuilt here, for the evaluation tail that still reads
  // PPGs (CONSTRUCT, expression eval over stored paths).
  auto graph = std::make_shared<const PathPropertyGraph>(
      snap->ReconstructGraph(name));

  // Loaded ids were chosen by the saving session; keep this session's
  // allocator from re-issuing them.
  const auto node_ids = graph->NodeIds();
  if (!node_ids.empty()) ids_->ReserveNodeUpTo(node_ids.back().value());
  const auto edge_ids = graph->EdgeIds();
  if (!edge_ids.empty()) ids_->ReserveEdgeUpTo(edge_ids.back().value());
  const auto path_ids = graph->PathIds();
  if (!path_ids.empty()) ids_->ReservePathUpTo(path_ids.back().value());

  {
    std::lock_guard<std::mutex> lock(mu_);
    Entry& entry = graphs_[name];
    Entry old = std::move(entry);
    entry.graph = std::move(graph);
    entry.version = next_version_++;
    entry.stats = nullptr;
    entry.snapshot = std::move(snap);  // pre-seeded: no freeze on first read
    entry.from_table = false;
    ++mutation_epoch_;
    RetireLocked(std::move(old));
  }
  NotifyInvalidation(name);
  return Status::OK();
}

Result<const PathPropertyGraph*> GraphCatalog::Lookup(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = graphs_.find(name);
  if (it == graphs_.end()) {
    return Status::NotFound("graph '" + name + "' is not in the catalog");
  }
  return it->second.graph.get();
}

Result<std::shared_ptr<const PathPropertyGraph>> GraphCatalog::LookupShared(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = graphs_.find(name);
  if (it == graphs_.end()) {
    return Status::NotFound("graph '" + name + "' is not in the catalog");
  }
  return it->second.graph;
}

bool GraphCatalog::HasGraph(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return graphs_.count(name) > 0;
}

void GraphCatalog::DropGraph(const std::string& name) {
  bool existed = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = graphs_.find(name);
    if (it != graphs_.end()) {
      existed = true;
      RetireLocked(std::move(it->second));
      graphs_.erase(it);
      ++mutation_epoch_;
    }
  }
  if (existed) NotifyInvalidation(name);
}

uint64_t GraphCatalog::MutationEpoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return mutation_epoch_;
}

uint64_t GraphCatalog::GraphVersion(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = graphs_.find(name);
  return it == graphs_.end() ? 0 : it->second.version;
}

void GraphCatalog::SetDefaultGraph(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  default_graph_ = name;
}

std::string GraphCatalog::default_graph() const {
  std::lock_guard<std::mutex> lock(mu_);
  return default_graph_;
}

Result<std::shared_ptr<const GraphStats>> GraphCatalog::Stats(
    const std::string& name) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = graphs_.find(name);
    if (it == graphs_.end()) {
      return Status::NotFound("graph '" + name + "' is not in the catalog");
    }
    if (it->second.stats != nullptr) return it->second.stats;
  }
  GCORE_ASSIGN_OR_RETURN(std::shared_ptr<const GraphSnapshot> snapshot,
                         Snapshot(name));
  // Collect outside the lock: a first stats sweep over a large graph
  // must not block concurrent lookups on every other graph. Concurrent
  // first requests may each collect once; the publish below keeps one.
  auto stats = std::make_shared<const GraphStats>(
      GraphStats::CollectFromSnapshot(*snapshot));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = graphs_.find(name);
  // Publish only when the entry's snapshot is the one we collected from
  // (re-registration nulls it, so identity implies same graph version);
  // otherwise hand the caller its own consistent copy unpublished.
  if (it != graphs_.end() && it->second.snapshot == snapshot) {
    if (it->second.stats == nullptr) it->second.stats = stats;
    return it->second.stats;
  }
  return stats;
}

Result<std::shared_ptr<const GraphSnapshot>> GraphCatalog::Snapshot(
    const std::string& name) {
  std::shared_ptr<const PathPropertyGraph> graph;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = graphs_.find(name);
    if (it == graphs_.end()) {
      return Status::NotFound("graph '" + name + "' is not in the catalog");
    }
    if (it->second.snapshot != nullptr) return it->second.snapshot;
    graph = it->second.graph;
  }
  // Freeze outside the lock (same head-of-line rationale as Stats).
  auto snapshot = std::make_shared<const GraphSnapshot>(*graph);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = graphs_.find(name);
  // Publish only when the entry still holds the image we froze; a
  // graph replaced mid-build keeps the new entry's snapshot slot empty
  // for a fresh freeze, and the caller gets the copy matching the image
  // it started from.
  if (it != graphs_.end() && it->second.graph == graph) {
    if (it->second.snapshot == nullptr) it->second.snapshot = snapshot;
    return it->second.snapshot;
  }
  return snapshot;
}

void GraphCatalog::RegisterTable(const std::string& name, Table table) {
  bool invalidate = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tables_.find(name);
    if (it != tables_.end()) {
      invalidate = true;
      if (active_readers_.load(std::memory_order_acquire) > 0) {
        retired_.push_back(std::move(it->second));
      }
    }
    tables_[name] = std::make_shared<const Table>(std::move(table));
    // A node graph synthesized from the previous table contents
    // (Matcher::ResolveGraph on "ON <table>") is now stale: drop it so
    // the next reference re-synthesizes under a fresh version, making
    // plan-cache entries recorded against it miss their version check.
    auto git = graphs_.find(name);
    if (git != graphs_.end() && git->second.from_table) {
      RetireLocked(std::move(git->second));
      graphs_.erase(git);
      invalidate = true;
    }
    ++mutation_epoch_;
  }
  if (invalidate) NotifyInvalidation(name);
}

Result<const Table*> GraphCatalog::LookupTable(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("table '" + name + "' is not in the catalog");
  }
  return it->second.get();
}

bool GraphCatalog::HasTable(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return tables_.count(name) > 0;
}

uint64_t GraphCatalog::AddInvalidationListener(
    std::function<void(const std::string&)> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = next_listener_++;
  listeners_.emplace(id, std::move(fn));
  return id;
}

void GraphCatalog::RemoveInvalidationListener(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  listeners_.erase(id);
}

void GraphCatalog::NotifyInvalidation(const std::string& name) {
  // Copy the listeners out so callbacks run outside the catalog mutex
  // (they typically take their own lock, e.g. the plan cache's).
  std::vector<std::function<void(const std::string&)>> fns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    fns.reserve(listeners_.size());
    for (const auto& [id, fn] : listeners_) fns.push_back(fn);
  }
  for (const auto& fn : fns) fn(name);
}

void GraphCatalog::RetireLocked(Entry entry) {
  if (active_readers_.load(std::memory_order_acquire) > 0) {
    if (entry.graph != nullptr) retired_.push_back(std::move(entry.graph));
    if (entry.stats != nullptr) retired_.push_back(std::move(entry.stats));
    if (entry.snapshot != nullptr) {
      retired_.push_back(std::move(entry.snapshot));
    }
  }
  // Otherwise `entry` destructs here — no reader can hold a raw pointer.
}

void GraphCatalog::EnterReader() {
  active_readers_.fetch_add(1, std::memory_order_acq_rel);
}

void GraphCatalog::ExitReader() {
  if (active_readers_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Last reader out drains the retired epoch. Destruction happens
    // outside the lock; a shared_ptr still held elsewhere (a matcher pin)
    // defers that payload further, which is exactly the contract.
    std::vector<std::shared_ptr<const void>> drained;
    {
      std::lock_guard<std::mutex> lock(mu_);
      // Re-check under the lock: between our decrement and acquiring mu_
      // a new reader can enter and Lookup() a raw pointer that a writer
      // then retires (RetireLocked observes the count under mu_ too, so
      // this handoff is race-free). If any reader is active now, leave
      // the list for that reader to drain on its own exit.
      if (active_readers_.load(std::memory_order_acquire) == 0) {
        drained.swap(retired_);
      }
    }
  }
}

size_t GraphCatalog::RetiredCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retired_.size();
}

}  // namespace gcore
