// The end-to-end benchmark harness (see README.md): workload definitions,
// set-up, result fingerprints, metric bookkeeping and the traced pass.
// Everything here drives the engine through its public API only —
// QueryEngine / QuerySession::Execute / GraphCatalog for the measured
// window, and the layer entry points (NormalizeQueryText, ParseQuery,
// ValidateQuery, Planner, Executor, Constructor) for the traced re-runs.
#ifndef GCORE_BENCH_E2E_HARNESS_H_
#define GCORE_BENCH_E2E_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "graph/catalog.h"
#include "graph/snapshot.h"

namespace gcore {
namespace e2e {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// --- metrics -----------------------------------------------------------------

/// One reported number: value, unit and the sample count behind it.
struct Metric {
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
};

/// Metrics in insertion order (the printed order).
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           size_t samples);
  const std::vector<std::pair<std::string, Metric>>& items() const {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, Metric>> items_;
  std::map<std::string, size_t> index_;
};

/// Linear-interpolated quantile (q in [0, 1]) of `values`; sorts a copy.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

// --- fingerprints --------------------------------------------------------------

/// Id-insensitive digest of a query result. Tables hash their exact
/// ToString bytes. Graphs hash node/edge/path counts plus the multisets of
/// per-object (label set, property values) — an edge's entry also covers
/// its endpoints' entries, a path's its node and edge sequences — combined
/// commutatively, so the digest is that of the sorted multisets without
/// sorting. Ids are left out because GROUP/skolem objects and stored paths
/// get fresh ids on every execution.
uint64_t Fingerprint(const QueryResult& result);

// --- workloads -----------------------------------------------------------------

/// How the workload's input graph reaches the catalog.
enum class Registration {
  kRegisterGraph,  // RegisterGraph of the generated PPG
  kSnapshotFile,   // SaveSnapshot of the frozen image, then RegisterSnapshotFile
};

/// A workload: its inputs (all derived from the seed), its load shape and
/// its request texts. Requests refer to texts by index; clients replay
/// pre-generated index sequences.
struct Workload {
  std::string name;
  size_t persons = 0;       // SNB generator size
  size_t clients = 1;       // closed-loop client sessions
  size_t parallelism = 1;   // intra-query degree of every session
  /// Whole-pass closed loop (construct, tour): a client stops at the end
  /// of the pass running when the window closes, so every query of the
  /// list is sampled equally often.
  size_t pass_length = 0;
  Registration registration = Registration::kRegisterGraph;

  std::vector<std::string> classes;  // request classes (latency_geomean_ms)
  std::vector<std::string> texts;    // distinct request texts
  std::vector<uint32_t> text_class;  // class index of each text
  /// Per-client request sequences (text indices), generated up front and
  /// replayed cyclically.
  std::vector<std::vector<uint32_t>> sequences;
  /// rw_mix: the GRAPH VIEW redefinitions of `live` (batch A, batch B) as
  /// text indices; the writer alternates between them, one write per
  /// `reads_per_write` completed reads. Empty for read-only workloads.
  std::vector<uint32_t> writes;
  size_t reads_per_write = 0;

  /// Set-up, in order: texts run to create auxiliary graphs, then the
  /// default graph is set, then the warm-up pass runs serially.
  std::vector<std::string> aux_texts;
  std::string default_graph = "social_graph";
  size_t orders_rows = 0;  // seeded `orders` table (tour)
  std::vector<uint32_t> warmup;

  /// The traced pass: request text indices, writes included.
  std::vector<uint32_t> trace_requests;

  uint64_t seed = 0;
  EngineOptions options;  // session (and engine default) options
};

/// Names of the workloads, in run order.
const std::vector<std::string>& WorkloadNames();

/// Builds workload `name` for `seed` over the generated graph `graph`
/// (request parameters are drawn from its persons).
Result<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                              const PathPropertyGraph& graph);

/// A catalog plus an engine over it (the engine goes first on
/// destruction: it unhooks its catalog listener).
struct Env {
  std::unique_ptr<GraphCatalog> catalog;
  std::unique_ptr<QueryEngine> engine;
};

/// The generated input: the PPG and, for snapshot-file registration, its
/// frozen image.
struct Input {
  PathPropertyGraph graph;
  std::shared_ptr<const GraphSnapshot> snapshot;
  uint64_t max_node_id = 0;
  uint64_t max_edge_id = 0;
  double generate_s = 0.0;
};

/// Generates the workload's SNB graph for `seed` (and freezes it when the
/// workload registers through a snapshot file).
Input GenerateInput(const std::string& workload, uint64_t seed);

/// Set-up timings of one set-up (all but the total feed per-layer
/// metrics).
struct SetupTimes {
  double total_s = 0.0;
  double register_ms = 0.0;
  double save_ms = 0.0;  // kSnapshotFile only
  double load_ms = 0.0;  // kSnapshotFile only
  double freeze_ms = 0.0;
  double stats_ms = 0.0;
  double aux_ms = 0.0;
  double warmup_s = 0.0;
  double arena_mb = 0.0;
};

/// One complete set-up: registration, forced snapshot + stats, auxiliary
/// graphs and tables, the serial warm-up pass. `scratch_path` is where the
/// snapshot file goes for kSnapshotFile registration (removed afterwards).
Result<Env> Setup(const Workload& w, const Input& input,
                  const std::string& scratch_path, SetupTimes* times);

// --- traced pass -----------------------------------------------------------------

/// A span: one timed call, nested under `parent` (-1 = root), belonging
/// to request `request`.
struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;
  int64_t request = -1;
};

/// In-memory span recorder; written out once as Chrome trace-event JSON.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}
  /// Opens a span and returns its index.
  int Begin(const std::string& name, int parent, int64_t request);
  void End(int span);
  double DurationMs(int span) const {
    return (spans_[span].end_us - spans_[span].start_us) / 1000.0;
  }
  /// Writes every span, with its self time in args.self_us.
  Status WriteChromeTrace(const std::string& path) const;

 private:
  /// Self time of every span: its duration minus the union of its
  /// children's intervals.
  std::vector<double> SelfTimesMs() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Runs the traced pass (an untraced serial pass first, for the overhead
/// figure) and adds the per-layer metrics it measures to `metrics`.
/// Returns the number of decomposed requests whose composed result did not
/// fingerprint-equal their Execute result.
Result<size_t> RunTracedPass(const Workload& w, Env* env, Tracer* tracer,
                             MetricSet* metrics);

}  // namespace e2e
}  // namespace gcore

#endif  // GCORE_BENCH_E2E_HARNESS_H_
