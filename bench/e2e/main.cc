// gcore_e2e: one workload of the end-to-end benchmark per process.
//
//   gcore_e2e --workload serve --seed 1 --seconds 20 --trace 0
//             [--smoke] [--self-test] [--out DIR]
//             [--git-sha SHA --git-dirty 0|1]
//
// Generates the workload's inputs from the seed, sets up (several times,
// reporting the median), runs the closed-loop measured window with
// tracing off, checks every response against the executable spec, and —
// with --trace 1 — runs the traced pass. Prints every metric as one
// "name value unit" line, writes the results JSON (and trace.json when
// traced) under --out, and ends standard output with one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1) named in BENCHMARK.json. Exits non-zero when any response
// was wrong or failed.
#include <malloc.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <thread>
#include <unordered_map>

#include "harness.h"

#ifndef GCORE_E2E_BUILD_TYPE
#define GCORE_E2E_BUILD_TYPE "unknown"
#endif

namespace gcore {
namespace e2e {

// --- metrics -------------------------------------------------------------------

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit, size_t samples) {
  auto it = index_.find(name);
  if (it != index_.end()) {
    items_[it->second].second = {value, unit, samples};
    return;
  }
  index_.emplace(name, items_.size());
  items_.push_back({name, {value, unit, samples}});
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

// --- fingerprints ----------------------------------------------------------------

namespace {

uint64_t Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t HashBytes(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

uint64_t ObjectHash(uint64_t kind, const LabelSet& labels,
                    const PropertyMap& props) {
  uint64_t h = Mix(kind + 1);
  for (const std::string& l : labels) h = Mix(h ^ HashBytes(l));
  for (const auto& [key, values] : props.entries()) {
    h = Mix(h ^ HashBytes(key));
    h = Mix(h ^ static_cast<uint64_t>(values.Hash()));
  }
  return h;
}

}  // namespace

uint64_t Fingerprint(const QueryResult& result) {
  if (result.IsTable()) return HashBytes(result.table->ToString());
  if (!result.IsGraph()) return 0;
  const PathPropertyGraph& g = *result.graph;
  // An edge's digest folds in its endpoints' digests (source first), a
  // path's the digests of its node and edge sequences: wiring a result to
  // the wrong objects changes the fingerprint even when ids cannot be
  // compared.
  std::unordered_map<uint64_t, uint64_t> node_hash;
  std::unordered_map<uint64_t, uint64_t> edge_hash;
  uint64_t sum = 0;  // wrapping sum: a commutative multiset digest
  g.ForEachNode([&](NodeId id) {
    const uint64_t h = ObjectHash(0, g.Labels(id), g.Properties(id));
    node_hash.emplace(id.value(), h);
    sum += Mix(h);
  });
  g.ForEachEdge([&](EdgeId id, NodeId src, NodeId dst) {
    uint64_t h = ObjectHash(1, g.Labels(id), g.Properties(id));
    h = Mix(Mix(h ^ node_hash[src.value()]) ^ node_hash[dst.value()]);
    edge_hash.emplace(id.value(), h);
    sum += Mix(h);
  });
  g.ForEachPath([&](PathId id, const PathBody& body) {
    uint64_t h = ObjectHash(2 + body.Length(), g.Labels(id), g.Properties(id));
    for (NodeId n : body.nodes) h = Mix(h ^ node_hash[n.value()]);
    for (EdgeId e : body.edges) h = Mix(h ^ edge_hash[e.value()]);
    sum += Mix(h);
  });
  return Mix(Mix(Mix(g.NumNodes()) ^ g.NumEdges()) ^ g.NumPaths()) ^ sum;
}

namespace {

// --- command line -------------------------------------------------------------------

/// The measured window of every workload, fixed so that all runs compare.
/// It equals BENCHMARK.json's run_seconds: the benchmark's command line
/// passes that value as --seconds, and any other value is refused. Only
/// --smoke shortens the window.
constexpr double kWindowSeconds = 20.0;
constexpr double kSmokeWindowSeconds = 1.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = kWindowSeconds;
  bool trace = false;
  bool smoke = false;
  bool self_test = false;
  std::string out = "build/e2e/results";
  std::string git_sha = "unknown";
  bool git_dirty = false;
};

Result<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> Result<std::string> {
      if (i + 1 >= argc) return Status::InvalidArgument(flag + " needs a value");
      return std::string(argv[++i]);
    };
    if (flag == "--smoke") {
      args.smoke = true;
    } else if (flag == "--self-test") {
      args.self_test = true;
    } else {
      GCORE_ASSIGN_OR_RETURN(std::string v, value());
      char* end = nullptr;
      if (flag == "--workload") {
        args.workload = v;
      } else if (flag == "--seed") {
        args.seed = std::strtoull(v.c_str(), &end, 10);
        if (*end != '\0') return Status::InvalidArgument("bad --seed " + v);
      } else if (flag == "--seconds") {
        const double seconds = std::strtod(v.c_str(), &end);
        if (*end != '\0' || seconds != kWindowSeconds) {
          return Status::InvalidArgument(
              "--seconds " + v + ": the window is fixed at " +
              std::to_string(static_cast<int>(kWindowSeconds)) + " s");
        }
      } else if (flag == "--trace") {
        if (v != "0" && v != "1") {
          return Status::InvalidArgument("--trace takes 0 or 1");
        }
        args.trace = v == "1";
      } else if (flag == "--out") {
        args.out = v;
      } else if (flag == "--git-sha") {
        args.git_sha = v;
      } else if (flag == "--git-dirty") {
        args.git_dirty = v == "1";
      } else {
        return Status::InvalidArgument("unknown flag " + flag);
      }
    }
  }
  const auto& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    return Status::InvalidArgument("--workload must be one of serve, rw_mix, "
                                   "construct, tour");
  }
  if (args.smoke) {
    args.seconds = kSmokeWindowSeconds;
    args.trace = false;
  }
  return args;
}

// --- the measured window ------------------------------------------------------------

/// The window is cut into sub-windows — this many equal time slices, or
/// one pass each for whole-pass workloads — and every end-to-end figure is
/// the median of its per-sub-window values: a few seconds of interference
/// from other tenants of the machine then move no reported number.
constexpr uint32_t kTimeSlices = 20;

struct Record {
  uint32_t text = 0;
  uint32_t slot = 0;  // sub-window
  double latency_ms = 0.0;
  uint64_t fingerprint = 0;
  bool ok = false;
};

struct WindowResult {
  std::vector<std::vector<Record>> clients;
  std::vector<Record> writes;
  double wall_s = 0.0;
  PlanCacheCounters cache_before;
  PlanCacheCounters cache_after;
  size_t retired_max = 0;
};

/// Closed loop: every client sends its next request when the previous one
/// returns. Fingerprinting happens between requests, outside the timed
/// Execute. The rw_mix writer fires once per `reads_per_write` completed
/// reads, so the write:read ratio is the same at any speed.
WindowResult RunWindow(const Workload& w, Env* env, double seconds) {
  WindowResult out;
  out.clients.resize(w.clients);
  GraphCatalog* catalog = env->catalog.get();

  std::mutex mu;
  std::condition_variable cv;
  bool go = false;
  bool stop = false;
  std::atomic<uint64_t> reads_done{0};
  std::atomic<size_t> retired_max{0};
  auto sample_retired = [&] {
    const size_t r = catalog->RetiredCount();
    size_t seen = retired_max.load();
    while (r > seen && !retired_max.compare_exchange_weak(seen, r)) {
    }
  };
  Clock::time_point start;
  Clock::time_point deadline;
  const double slice_ms = 1000.0 * seconds / kTimeSlices;
  auto time_slot = [&] {
    return std::min(kTimeSlices - 1,
                    static_cast<uint32_t>(MsSince(start) / slice_ms));
  };

  out.cache_before = env->engine->plan_cache_counters();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < w.clients; ++c) {
    threads.emplace_back([&, c] {
      QuerySession session = env->engine->CreateSession(w.options);
      const auto& seq = w.sequences[c];
      auto& records = out.clients[c];
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return go; });
      }
      for (size_t pos = 0;; ++pos) {
        if (Clock::now() >= deadline &&
            (w.pass_length == 0 || pos % w.pass_length == 0)) {
          break;
        }
        Record rec;
        rec.text = seq[pos % seq.size()];
        const auto t = Clock::now();
        auto r = session.Execute(w.texts[rec.text]);
        rec.latency_ms = MsSince(t);
        rec.slot = w.pass_length > 0 ? static_cast<uint32_t>(pos / w.pass_length)
                                     : time_slot();
        rec.ok = r.ok();
        if (rec.ok) rec.fingerprint = Fingerprint(*r);
        records.push_back(rec);
        if (!w.writes.empty()) {
          const uint64_t done = reads_done.fetch_add(1) + 1;
          if (done % w.reads_per_write == 0) {
            std::lock_guard<std::mutex> lock(mu);
            cv.notify_all();
          }
        }
        if (pos % 256 == 0) sample_retired();
      }
    });
  }
  std::thread writer;
  if (!w.writes.empty()) {
    writer = std::thread([&] {
      QuerySession session = env->engine->CreateSession(w.options);
      uint64_t next = w.reads_per_write;
      size_t batch = 1;  // set-up defined live as batch A
      while (true) {
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return stop || reads_done.load() >= next; });
          if (stop) break;
        }
        Record rec;
        rec.text = w.writes[batch];
        const auto t = Clock::now();
        auto r = session.Execute(w.texts[rec.text]);
        rec.latency_ms = MsSince(t);
        rec.slot = time_slot();
        rec.ok = r.ok();
        if (rec.ok) rec.fingerprint = Fingerprint(*r);
        out.writes.push_back(rec);
        sample_retired();
        batch ^= 1;
        next += w.reads_per_write;
      }
    });
  }

  {
    std::lock_guard<std::mutex> lock(mu);
    start = Clock::now();
    deadline = start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    go = true;
  }
  cv.notify_all();
  for (auto& t : threads) t.join();
  out.wall_s = MsSince(start) / 1000.0;
  if (writer.joinable()) {
    {
      std::lock_guard<std::mutex> lock(mu);
      stop = true;
    }
    cv.notify_all();
    writer.join();
  }
  out.cache_after = env->engine->plan_cache_counters();
  out.retired_max = retired_max.load();
  return out;
}

/// The end-to-end figures of the window, each the median over sub-windows
/// (kTimeSlices): qps is completed requests per second of client time spent
/// inside Execute (fingerprinting between requests excluded), latencies are
/// per-sub-window percentiles, and latency_geomean_ms is the geometric mean
/// over request classes of each class's median latency. Returns the
/// completed reads; `attempted` counts reads and writes. The per-sub-window
/// values go to `series` (written to the results JSON).
size_t WindowMetrics(const Workload& w, const WindowResult& window,
                     size_t* attempted, MetricSet* metrics,
                     std::map<std::string, std::vector<double>>* series) {
  struct Slot {
    size_t completed = 0;
    double busy_ms = 0.0;
    std::vector<double> latencies;
    std::vector<std::vector<double>> by_class;
  };
  std::map<uint32_t, Slot> slots;
  auto slot_of = [&](const Record& r) -> Slot& {
    Slot& slot = slots[r.slot];
    slot.by_class.resize(w.classes.size());
    return slot;
  };
  size_t completed = 0;
  *attempted = 0;
  for (const auto& records : window.clients) {
    for (const Record& r : records) {
      ++*attempted;
      Slot& slot = slot_of(r);
      slot.busy_ms += r.latency_ms;
      if (!r.ok) continue;
      ++completed;
      ++slot.completed;
      slot.latencies.push_back(r.latency_ms);
      slot.by_class[w.text_class[r.text]].push_back(r.latency_ms);
    }
  }
  for (const Record& r : window.writes) {
    ++*attempted;
    if (!r.ok) continue;
    slot_of(r).by_class[w.text_class[r.text]].push_back(r.latency_ms);
  }

  std::vector<double> qps, p50, p90, p99;
  std::vector<std::vector<double>> class_medians(w.classes.size());
  std::vector<size_t> class_samples(w.classes.size(), 0);
  for (const auto& [index, slot] : slots) {
    if (slot.completed > 0) {
      qps.push_back(static_cast<double>(slot.completed) * 1000.0 *
                    static_cast<double>(w.clients) / slot.busy_ms);
      p50.push_back(Quantile(slot.latencies, 0.50));
      p90.push_back(Quantile(slot.latencies, 0.90));
      p99.push_back(Quantile(slot.latencies, 0.99));
    }
    for (size_t c = 0; c < w.classes.size(); ++c) {
      if (slot.by_class[c].empty()) continue;
      class_medians[c].push_back(Median(slot.by_class[c]));
      class_samples[c] += slot.by_class[c].size();
    }
  }
  (*series)["qps"] = qps;
  (*series)["latency_p50_ms"] = p50;
  (*series)["latency_p90_ms"] = p90;
  (*series)["latency_p99_ms"] = p99;
  for (size_t c = 0; c < w.classes.size(); ++c) {
    (*series)["latency." + w.classes[c] + "_p50_ms"] = class_medians[c];
  }
  metrics->Set("window.subwindows", static_cast<double>(qps.size()), "count",
               qps.size());
  metrics->Set("qps", Median(qps), "1/s", completed);
  metrics->Set("latency_p50_ms", Median(p50), "ms", completed);
  metrics->Set("latency_p90_ms", Median(p90), "ms", completed);
  metrics->Set("latency_p99_ms", Median(p99), "ms", completed);
  double log_sum = 0.0;
  size_t classes_seen = 0;
  for (size_t c = 0; c < w.classes.size(); ++c) {
    if (class_medians[c].empty()) continue;
    const double med = Median(class_medians[c]);
    metrics->Set("latency." + w.classes[c] + "_p50_ms", med, "ms",
                 class_samples[c]);
    log_sum += std::log(med);
    ++classes_seen;
  }
  metrics->Set("latency_geomean_ms",
               classes_seen > 0 ? std::exp(log_sum / classes_seen) : 0.0, "ms",
               classes_seen);
  return completed;
}

// --- the correctness oracle ------------------------------------------------------------

struct OracleResult {
  size_t checked = 0;
  size_t distinct = 0;  // distinct request texts recomputed
  size_t failed = 0;  // errors + wrong results
  std::vector<std::string> planner_fallback;
  double seconds = 0.0;
};

/// Recomputes every distinct request through the executable spec (legacy
/// tree-walk, parallelism 1, no plan cache) and compares fingerprints.
/// rw_mix reads pass when they match under either batch. Queries the spec
/// cannot run fall back to the planner at parallelism 1 and are listed.
/// Each reference runs serially; workloads without an order between their
/// requests spread distinct requests over `workers` threads.
Result<OracleResult> CheckResponses(const Workload& w, Env* env,
                                    const WindowResult& window,
                                    bool self_test, size_t workers) {
  OracleResult out;
  const auto start = Clock::now();
  QueryEngine engine(env->catalog.get());
  EngineOptions spec = w.options;
  spec.use_planner = false;
  spec.parallelism = 1;
  engine.set_options(spec);
  engine.set_plan_cache_capacity(0);
  EngineOptions planned = w.options;
  planned.parallelism = 1;

  std::set<uint32_t> used_set;
  for (const auto& records : window.clients) {
    for (const Record& r : records) used_set.insert(r.text);
  }
  // Ascending text order is pass order for construct and tour, so view
  // redefinitions (Q10, Q11) precede their readers (Q11, Q12).
  const std::vector<uint32_t> used(used_set.begin(), used_set.end());
  out.distinct = used.size();

  std::mutex mu;  // guards out.planner_fallback and error
  Status error = Status::OK();
  auto reference = [&](QuerySession* spec_session,
                       QuerySession* planner_session,
                       uint32_t id) -> std::optional<uint64_t> {
    auto r = spec_session->Execute(w.texts[id]);
    if (!r.ok()) {
      r = planner_session->Execute(w.texts[id]);
      std::lock_guard<std::mutex> lock(mu);
      if (!r.ok()) {
        if (error.ok()) error = r.status();
        return std::nullopt;
      }
      out.planner_fallback.push_back(w.texts[id]);
    }
    return Fingerprint(*r);
  };

  // One reference state per write batch (rw_mix), else one; indexed by
  // text id.
  const size_t states = std::max<size_t>(w.writes.size(), 1);
  std::vector<std::vector<std::optional<uint64_t>>> refs(
      states, std::vector<std::optional<uint64_t>>(w.texts.size()));
  const size_t threads = w.pass_length == 0 ? std::max<size_t>(workers, 1) : 1;
  for (size_t s = 0; s < states; ++s) {
    if (!w.writes.empty()) {
      QuerySession spec_session = engine.CreateSession(spec);
      QuerySession planner_session = engine.CreateSession(planned);
      refs[s][w.writes[s]] =
          reference(&spec_session, &planner_session, w.writes[s]);
    }
    std::vector<std::thread> pool;
    for (size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&, s, t] {
        QuerySession spec_session = engine.CreateSession(spec);
        QuerySession planner_session = engine.CreateSession(planned);
        for (size_t i = t; i < used.size(); i += threads) {
          refs[s][used[i]] =
              reference(&spec_session, &planner_session, used[i]);
        }
      });
    }
    for (auto& th : pool) th.join();
  }
  GCORE_RETURN_NOT_OK(error);
  if (self_test && !used.empty()) {
    for (auto& state : refs) *state[used.front()] ^= 1;
  }
  auto matches = [&](const Record& r) {
    if (!r.ok) return false;
    for (const auto& state : refs) {
      if (state[r.text] == r.fingerprint) return true;
    }
    return false;
  };
  for (const auto& records : window.clients) {
    for (const Record& r : records) {
      ++out.checked;
      if (!matches(r)) ++out.failed;
    }
  }
  for (const Record& r : window.writes) {
    ++out.checked;
    if (!matches(r)) ++out.failed;
  }
  out.seconds = MsSince(start) / 1000.0;
  return out;
}

// --- output ----------------------------------------------------------------------------------

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

/// %.17g keeps every digit of a measured value.
std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const MetricSet& metrics,
                        const std::vector<std::string>& names,
                        bool with_samples) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : metrics.items()) {
    if (!names.empty() &&
        std::find(names.begin(), names.end(), name) == names.end()) {
      continue;
    }
    out += first ? "" : ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + Num(m.value) + ", \"unit\": \"" +
           m.unit + "\"";
    if (with_samples) out += ", \"samples\": " + std::to_string(m.samples);
    out += "}";
  }
  return out + "}";
}

/// The metric names BENCHMARK.json lists: the machine-readable last line
/// carries exactly these.
const std::vector<std::string>& EndToEndNames() {
  static const std::vector<std::string> names = {
      "setup_s", "qps", "latency_geomean_ms", "peak_rss_mb"};
  return names;
}

const std::vector<std::string>& PerLayerNames() {
  static const std::vector<std::string> names = {
      "engine.normalize_ms",
      "parser.parse_ms",
      "engine.validate_ms",
      "plan.plan_ms",
      "plan.exec_ms",
      "plan.op.NodeScan_ms",
      "plan.op.Filter_ms",
      "plan.op.Project_ms",
      "plan.rows_examined_per_result",
      "eval.construct_ms",
      "eval.construct_us_per_object",
      "engine.self_ms",
      "engine.plan_cache.hit_ratio",
      "graph.register_ms",
      "graph.freeze_ms",
      "graph.stats_ms",
      "setup.warmup_s",
      "graph.arena_mb",
      "trace.request_ms",
      "trace.overhead_pct",
  };
  return names;
}

std::string RunContextJson(const Args& args, const Workload& w,
                           const WindowResult& window) {
  utsname un{};
  uname(&un);
  std::string out = "{";
  out += "\"git_sha\": \"" + JsonEscape(args.git_sha) + "\"";
  out += ", \"git_dirty\": " + std::string(args.git_dirty ? "true" : "false");
  out += ", \"build_type\": \"" GCORE_E2E_BUILD_TYPE "\"";
  out += ", \"compiler\": \"" + JsonEscape(__VERSION__) + "\"";
  out += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"kernel\": \"" + JsonEscape(std::string(un.sysname) + " " +
                                          un.release) + "\"";
  out += ", \"seed\": " + std::to_string(args.seed);
  out += ", \"workload\": \"" + w.name + "\"";
  out += ", \"engine_options_fingerprint\": " +
         std::to_string(w.options.Fingerprint());
  out += ", \"clients\": " + std::to_string(w.clients);
  out += ", \"writer\": " + std::string(w.writes.empty() ? "false" : "true");
  out += ", \"parallelism\": " + std::to_string(w.parallelism);
  out += ", \"persons\": " + std::to_string(w.persons);
  out += ", \"window_s\": " + Num(args.seconds);
  out += ", \"measured_s\": " + Num(window.wall_s);
  out += ", \"traced\": " + std::string(args.trace ? "true" : "false");
  out += ", \"smoke\": " + std::string(args.smoke ? "true" : "false");
  out += ", \"self_test\": " + std::string(args.self_test ? "true" : "false");
  return out + "}";
}

/// Resets this process's resident-set high-water mark (Linux: "5" to
/// /proc/self/clear_refs), so PeakRssMb covers only what runs afterwards.
Status ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return Status::InvalidArgument("cannot open clear_refs");
  const bool written = std::fputs("5", f) >= 0;
  if (std::fclose(f) != 0 || !written) {
    return Status::InvalidArgument("cannot reset the peak RSS");
  }
  return Status::OK();
}

/// VmHWM of this process in MiB (-1 when /proc/self/status lacks it).
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1.0;
  char line[256];
  double kib = -1.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib < 0.0 ? -1.0 : kib / 1024.0;
}

// --- main ------------------------------------------------------------------------------------

int Run(const Args& args) {
  std::error_code ec;
  std::filesystem::create_directories(args.out, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", args.out.c_str(),
                 ec.message().c_str());
    return 2;
  }
  const size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  Input input = GenerateInput(args.workload, args.seed);
  auto made = MakeWorkload(args.workload, args.seed, input.graph);
  if (!made.ok()) {
    std::fprintf(stderr, "%s\n", made.status().ToString().c_str());
    return 2;
  }
  Workload w = std::move(*made);
  // Never more busy threads than cores.
  w.clients = std::min(w.clients, nproc);
  w.parallelism = std::min(w.parallelism, nproc);
  w.options.parallelism = w.parallelism;
  w.sequences.resize(w.clients);

  MetricSet metrics;
  metrics.Set("snb.generate_s", input.generate_s, "s", 1);

  // Set-up, several times: setup_s and its layers report the median; the
  // last environment serves the window.
  const std::string snapshot_path =
      args.out + "/" + w.name + "-" + std::to_string(getpid()) + ".snapshot";
  // At least five set-ups, more while they are cheap (serve's takes
  // under 0.1 s), so the median is not one noisy sample.
  std::vector<SetupTimes> times;
  double setup_spent_s = 0.0;
  // Held by pointer so replacing it destroys engine before catalog.
  std::unique_ptr<Env> env;
  while (times.size() < (args.smoke ? 1u : 5u) ||
         (!args.smoke && setup_spent_s < 2.0 && times.size() < 25)) {
    env.reset();
    times.emplace_back();
    auto e = Setup(w, input, snapshot_path, &times.back());
    if (!e.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   e.status().ToString().c_str());
      return 2;
    }
    env = std::make_unique<Env>(std::move(*e));
    setup_spent_s += times.back().total_s;
  }
  auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const auto& t : times) v.push_back(t.*field);
    return Median(v);
  };
  const size_t n = times.size();
  metrics.Set("setup_s", median_of(&SetupTimes::total_s), "s", n);
  metrics.Set("graph.register_ms", median_of(&SetupTimes::register_ms), "ms", n);
  if (w.registration == Registration::kSnapshotFile) {
    metrics.Set("graph.save_ms", median_of(&SetupTimes::save_ms), "ms", n);
    metrics.Set("graph.load_ms", median_of(&SetupTimes::load_ms), "ms", n);
  }
  metrics.Set("graph.freeze_ms", median_of(&SetupTimes::freeze_ms), "ms", n);
  metrics.Set("graph.stats_ms", median_of(&SetupTimes::stats_ms), "ms", n);
  metrics.Set("setup.aux_ms", median_of(&SetupTimes::aux_ms), "ms", n);
  metrics.Set("setup.warmup_s", median_of(&SetupTimes::warmup_s), "s", n);
  metrics.Set("graph.arena_mb", times.back().arena_mb, "MB", 1);

  // peak_rss_mb is the engine's: drop the harness's copy of the input
  // (and, for construct, its frozen image), hand the freed heap back to
  // the system, and start the high-water mark afresh at the window.
  input = Input();
  malloc_trim(0);
  if (const Status st = ResetPeakRss(); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 2;
  }
  const WindowResult window = RunWindow(w, env.get(), args.seconds);
  const double peak_rss_mb = PeakRssMb();

  size_t attempted = 0;
  std::map<std::string, std::vector<double>> series;
  const size_t completed =
      WindowMetrics(w, window, &attempted, &metrics, &series);
  for (const auto& t : times) series["setup_s"].push_back(t.total_s);
  metrics.Set("peak_rss_mb", peak_rss_mb, "MB", 1);

  // Window-scoped layer counters.
  const uint64_t hits = window.cache_after.hits - window.cache_before.hits;
  const uint64_t misses =
      window.cache_after.misses - window.cache_before.misses;
  const uint64_t evictions =
      window.cache_after.evictions - window.cache_before.evictions;
  const uint64_t lookups = hits + misses;
  metrics.Set("engine.plan_cache.hit_ratio",
              lookups > 0 ? static_cast<double>(hits) / lookups : 0.0,
              "ratio", lookups);
  metrics.Set("engine.plan_cache.evictions_per_1k",
              lookups > 0 ? 1000.0 * evictions / lookups : 0.0, "count",
              lookups);
  if (!w.writes.empty()) {
    metrics.Set("graph.retired_max", static_cast<double>(window.retired_max),
                "count", window.writes.size());
  }

  // Correctness, outside every timed interval.
  auto oracle = CheckResponses(w, env.get(), window, args.self_test, nproc);
  if (!oracle.ok()) {
    std::fprintf(stderr, "oracle failed: %s\n",
                 oracle.status().ToString().c_str());
    return 2;
  }
  metrics.Set("error_rate",
              attempted > 0 ? static_cast<double>(oracle->failed) / attempted
                            : 0.0,
              "ratio", attempted);

  size_t trace_mismatches = 0;
  Tracer tracer;
  if (args.trace) {
    auto traced = RunTracedPass(w, env.get(), &tracer, &metrics);
    if (!traced.ok()) {
      std::fprintf(stderr, "traced pass failed: %s\n",
                   traced.status().ToString().c_str());
      return 2;
    }
    trace_mismatches = *traced;
  }

  const bool correct = oracle->failed == 0 && trace_mismatches == 0 &&
                       completed > 0;

  // Human-readable lines, then the files, then the machine-readable line.
  for (const auto& [name, m] : metrics.items()) {
    std::printf("%-10s %-36s %16.6f %-6s n=%zu\n", w.name.c_str(),
                name.c_str(), m.value, m.unit.c_str(), m.samples);
  }
  std::printf("%-10s oracle: %zu responses (%zu distinct) checked in %.2f s, "
              "%zu failed, %zu spec fallbacks\n",
              w.name.c_str(), oracle->checked, oracle->distinct,
              oracle->seconds, oracle->failed,
              oracle->planner_fallback.size());

  const std::string stem = args.out + "/" + w.name + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0");
  std::string fallback = "[";
  for (size_t i = 0; i < oracle->planner_fallback.size(); ++i) {
    fallback += (i ? ", \"" : "\"") +
                JsonEscape(oracle->planner_fallback[i]) + "\"";
  }
  fallback += "]";
  std::string subwindows = "{";
  for (const auto& [name, values] : series) {
    subwindows += (subwindows.size() > 1 ? ", \"" : "\"") + name + "\": [";
    for (size_t i = 0; i < values.size(); ++i) {
      subwindows += (i ? ", " : "") + Num(values[i]);
    }
    subwindows += "]";
  }
  subwindows += "}";
  if (std::FILE* f = std::fopen((stem + ".json").c_str(), "w")) {
    std::fprintf(
        f,
        "{\"context\": %s,\n \"correct\": %s, \"attempted\": %zu, "
        "\"failed\": %zu, \"trace_mismatches\": %zu,\n"
        " \"spec_fallback\": %s,\n \"metrics\": %s,\n \"subwindows\": %s}\n",
        RunContextJson(args, w, window).c_str(), correct ? "true" : "false",
        attempted, oracle->failed, trace_mismatches, fallback.c_str(),
        MetricsJson(metrics, {}, true).c_str(), subwindows.c_str());
    std::fclose(f);
  } else {
    std::fprintf(stderr, "cannot write %s.json\n", stem.c_str());
  }
  if (args.trace) {
    const Status st = tracer.WriteChromeTrace(stem + ".trace.json");
    if (!st.ok()) std::fprintf(stderr, "%s\n", st.ToString().c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, oracle->failed,
              MetricsJson(metrics,
                          args.trace ? PerLayerNames() : EndToEndNames(),
                          false)
                  .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e
}  // namespace gcore

int main(int argc, char** argv) {
  auto args = gcore::e2e::ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "gcore_e2e: %s\n", args.status().ToString().c_str());
    return 2;
  }
  return gcore::e2e::Run(*args);
}
