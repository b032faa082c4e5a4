// The graph catalog: the `gr` function of Appendix A (graph identifiers →
// graphs), plus tables for the Section 5 extensions and the session-wide
// id allocator.
//
// GRAPH VIEW creates a persistent catalog entry; GRAPH ... AS creates a
// query-local one (the engine scopes those by snapshotting/restoring).
// Both are materialized at registration time, which matches the paper's
// presentation (Figure 5 shows the views as concrete graphs).
//
// Per registered graph the catalog lazily builds and caches the two
// read-path derivatives — GraphStats (stats.h) and the frozen columnar
// GraphSnapshot (snapshot.h) — and drops both when the name is
// re-registered, so they can never go stale against the graph they
// describe. Registration has a third entry point beside RegisterGraph
// and RegisterGraphFromTable: RegisterSnapshotFile attaches a snapshot
// image saved by graph/snapshot_io.h (read-back or zero-copy mmap),
// reconstructs its PPG and pre-seeds the snapshot cache, so a cold start
// skips the O(|V|+|E|+|σ|) freeze entirely.
//
// Concurrency model (the serving layer): every public member serializes
// on one mutex held only across the lookup/registration itself, so N
// sessions may call in concurrently. Each registered graph carries a
// monotonically increasing *version*, bumped on re-registration and
// drop — the plan cache keys on it, and tests can pin that an in-flight
// reader stayed on the version it started with. Graphs, stats, snapshots
// and tables are handed out through shared_ptr images; replacing an
// entry retires the old image into an epoch list that is reclaimed only
// when no reader is active (ReaderGuard), so raw pointers held by an
// in-flight query stay valid until that query finishes, while new
// sessions immediately see the new version.
#ifndef GCORE_GRAPH_CATALOG_H_
#define GCORE_GRAPH_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "graph/graph_builder.h"
#include "graph/ppg.h"
#include "graph/stats.h"
#include "snb/table.h"

namespace gcore {

class GraphSnapshot;

class GraphCatalog {
 public:
  GraphCatalog() : ids_(std::make_shared<IdAllocator>()) {}

  /// Registers (or replaces) a named graph. Replacement bumps the name's
  /// version; the old graph/stats/snapshot images are epoch-retired (kept
  /// alive until no reader is active).
  void RegisterGraph(const std::string& name, PathPropertyGraph graph);
  /// Registers a graph together with given statistics, seeding the cache
  /// Stats() reads so no collection runs later. Kept for tests that
  /// inject edited statistics (WcojTest.RewriteSurvivesMissingMaxDegree-
  /// Buckets); everything else registers without stats and lets Stats()
  /// sweep the snapshot.
  void RegisterGraph(const std::string& name, PathPropertyGraph graph,
                     GraphStats stats);
  /// Registers a graph synthesized from the same-name table (the
  /// Section 5 "ON <table>" node graph, built by Matcher::ResolveGraph).
  /// The entry is marked so a later RegisterTable of that name drops it —
  /// the synthesis describes one table image and must not outlive it.
  void RegisterGraphFromTable(const std::string& name,
                              PathPropertyGraph graph);

  /// Registers a graph from a snapshot image saved by SaveSnapshot
  /// (graph/snapshot_io.h): loads the arena (zero-copy mmap when
  /// `use_mmap`), reconstructs the PPG it describes, reserves its ids in
  /// the session allocator, and installs both with the usual
  /// version/epoch bump and retirement of any replaced entry. The entry's
  /// snapshot cache is pre-seeded with the loaded image, so the read path
  /// skips the freeze a cold RegisterGraph would pay. InvalidArgument on
  /// a corrupt or version-mismatched file.
  Status RegisterSnapshotFile(const std::string& name, const std::string& path,
                              bool use_mmap = false);

  /// gr(gid). NotFound when unregistered. The pointer stays valid for as
  /// long as the caller's ReaderGuard is open (epoch reclamation), even
  /// across a concurrent re-registration; callers without a guard should
  /// prefer LookupShared.
  Result<const PathPropertyGraph*> Lookup(const std::string& name) const;
  /// Lookup handing out shared ownership: the image survives any later
  /// re-registration for as long as the caller holds the pointer (the
  /// matcher pins every graph it resolves this way, so one query always
  /// finishes on the images it started with).
  Result<std::shared_ptr<const PathPropertyGraph>> LookupShared(
      const std::string& name) const;
  bool HasGraph(const std::string& name) const;
  void DropGraph(const std::string& name);

  /// Version of a registered graph: monotonically increasing across the
  /// whole catalog, bumped on every (re-)registration. 0 when the name is
  /// unregistered. A plan-cache entry recorded under version v is stale
  /// iff GraphVersion(name) != v.
  uint64_t GraphVersion(const std::string& name) const;

  /// Catalog-wide mutation epoch: bumped by every RegisterGraph /
  /// DropGraph / RegisterTable. An unchanged epoch across a window
  /// proves no registration completed inside it — the engine uses this
  /// to refuse caching a plan whose graph versions were read after a
  /// racing re-registration (the versions would describe a newer catalog
  /// state than the plan was built against).
  uint64_t MutationEpoch() const;

  /// Default graph used when MATCH has no ON clause (Section 3: "Systems
  /// may omit ON if there is a default graph").
  void SetDefaultGraph(const std::string& name);
  std::string default_graph() const;

  /// Tabular inputs for the Section 5 extensions (FROM <table>,
  /// MATCH (o) ON <table>). Re-registration retires the old table image,
  /// drops the graph synthesized from it (RegisterGraphFromTable) and
  /// notifies invalidation listeners, so neither a stale node graph nor
  /// a plan-cache entry keeps serving the old table contents.
  void RegisterTable(const std::string& name, Table table);
  Result<const Table*> LookupTable(const std::string& name) const;
  bool HasTable(const std::string& name) const;

  /// Statistics of a registered graph (graph/stats.h), computed on first
  /// use and cached until the graph is re-registered or dropped.
  /// NotFound when the graph is unregistered. Shared ownership: the
  /// returned statistics cannot dangle across a re-registration (they
  /// describe the graph version they were collected from). Collection is
  /// one column sweep over the (equally cached) snapshot, run *outside*
  /// the catalog mutex with a double-checked publish, so a first stats
  /// request on a large graph never blocks concurrent lookups.
  Result<std::shared_ptr<const GraphStats>> Stats(const std::string& name);

  /// Columnar snapshot of a registered graph (graph/snapshot.h), built on
  /// first use and cached until the graph is re-registered or dropped —
  /// the same lifetime as the stats cache, and in fact Stats() derives
  /// uncached statistics from this snapshot with a column sweep, so the
  /// two caches always describe the same graph state. The freeze runs
  /// outside the catalog mutex (double-checked publish; a build racing a
  /// re-registration hands the caller its consistent-but-unpublished
  /// copy). Shared ownership: in-flight queries keep their snapshot
  /// alive across a re-register. NotFound when the graph is
  /// unregistered.
  Result<std::shared_ptr<const GraphSnapshot>> Snapshot(
      const std::string& name);

  /// Invalidation listeners: called (outside the catalog mutex) with the
  /// graph name after every RegisterGraph/DropGraph. The engine hooks its
  /// plan cache here so stale entries disappear eagerly. Remove before
  /// the listening object dies.
  uint64_t AddInvalidationListener(std::function<void(const std::string&)> fn);
  void RemoveInvalidationListener(uint64_t id);

  /// Epoch-based reclamation: a ReaderGuard marks one in-flight reader
  /// (the engine opens one per Execute). While any reader is active,
  /// replaced graph/stats/snapshot/table images are parked on a retired
  /// list instead of destroyed; the last reader to leave drains it. Raw
  /// pointers obtained from the catalog are therefore stable for the
  /// guard's lifetime.
  class ReaderGuard {
   public:
    explicit ReaderGuard(GraphCatalog* catalog) : catalog_(catalog) {
      catalog_->EnterReader();
    }
    ~ReaderGuard() {
      if (catalog_ != nullptr) catalog_->ExitReader();
    }
    ReaderGuard(const ReaderGuard&) = delete;
    ReaderGuard& operator=(const ReaderGuard&) = delete;

   private:
    GraphCatalog* catalog_;
  };

  /// Retired-but-unreclaimed images (testing/introspection).
  size_t RetiredCount() const;

  /// Session-wide identifier allocator shared by all graphs.
  IdAllocator* ids() { return ids_.get(); }
  std::shared_ptr<IdAllocator> ids_ptr() { return ids_; }

 private:
  /// One registered graph with its lazily built read-path derivatives.
  struct Entry {
    std::shared_ptr<const PathPropertyGraph> graph;
    uint64_t version = 0;
    std::shared_ptr<const GraphStats> stats;
    std::shared_ptr<const GraphSnapshot> snapshot;
    /// Synthesized from the same-name table: dropped when that table is
    /// re-registered (RegisterTable), not only on an explicit DropGraph.
    bool from_table = false;
  };

  /// Shared body of the RegisterGraph variants: install the new entry,
  /// bump version + mutation epoch, retire the old images, notify.
  void RegisterGraphImpl(const std::string& name, PathPropertyGraph graph,
                         std::shared_ptr<const GraphStats> stats,
                         bool from_table);

  void EnterReader();
  void ExitReader();
  /// Parks every image of `entry` on the retired list when readers are
  /// active (destroyed immediately otherwise). Caller holds mu_.
  void RetireLocked(Entry entry);
  void NotifyInvalidation(const std::string& name);

  std::shared_ptr<IdAllocator> ids_;
  mutable std::mutex mu_;
  std::map<std::string, Entry> graphs_;
  std::map<std::string, std::shared_ptr<const Table>> tables_;
  uint64_t next_version_ = 1;
  uint64_t mutation_epoch_ = 0;
  std::atomic<int64_t> active_readers_{0};
  /// Type-erased retired images: shared_ptr<void> keeps each payload's
  /// real deleter.
  std::vector<std::shared_ptr<const void>> retired_;
  std::string default_graph_;
  std::map<uint64_t, std::function<void(const std::string&)>> listeners_;
  uint64_t next_listener_ = 1;
};

}  // namespace gcore

#endif  // GCORE_GRAPH_CATALOG_H_
