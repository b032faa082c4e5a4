// The four workloads and their set-up. Why each exists is in README.md;
// in short: `serve` is the per-query fixed-cost serving path, `rw_mix`
// adds GRAPH VIEW redefinitions beside the reads, `construct` is
// CONSTRUCT- and UNION-bound graph building, `tour` is the paper's guided
// tour verbatim.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <numeric>
#include <optional>

#include "graph/snapshot_io.h"
#include "harness.h"
#include "paper_queries.h"
#include "snb/generator.h"
#include "snb/schema.h"

namespace gcore {
namespace e2e {
namespace {

/// splitmix64: the seed → stream derivation and the draw generator, so the
/// inputs depend on nothing but the seed (no implementation-defined
/// standard-library distributions).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  size_t Below(size_t n) { return static_cast<size_t>(Unit() * n); }

 private:
  uint64_t state_;
};

/// Zipf(1) over ranks 0..n-1 by inverse CDF.
class Zipf {
 public:
  explicit Zipf(size_t n) : cdf_(n) {
    double sum = 0.0;
    for (size_t k = 0; k < n; ++k) {
      sum += 1.0 / static_cast<double>(k + 1);
      cdf_[k] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t Draw(Rng* rng) const {
    const double u = rng->Unit();
    const size_t k =
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
    return std::min(k, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// SNB sizes: serve and rw_mix about 8k nodes / 34k edges; construct and
/// tour sized so one pass takes about 1 s on a 4-CPU box and a window
/// holds about ten passes — construct about 20k nodes / 84k edges, tour 150
/// persons (Q6 alone grows superlinearly: about 0.9 s at 200 persons).
size_t WorkloadPersons(const std::string& name) {
  if (name == "construct") return 5000;
  if (name == "tour") return 150;
  return 2000;
}

/// construct measures the cold-start path: save the frozen image, load it
/// back with its checksum verified.
Registration RegistrationOf(const std::string& name) {
  return name == "construct" ? Registration::kSnapshotFile
                             : Registration::kRegisterGraph;
}

/// Busy threads per workload: serve's clients, construct's and tour's
/// intra-query degree, rw_mix's two readers plus writer. One of the four
/// cores of the reference box stays free for the system: with all four
/// busy, serve's qps spread across runs grew from about 3% to 12-16%.
constexpr size_t kBusyThreads = 3;

/// Client sequences are this long and replay cyclically; a 60 s window at
/// the fastest measured per-client rate stays well inside one cycle.
constexpr size_t kSequenceLength = 1 << 17;
/// The traced pass of serve/rw_mix covers this prefix of client 0.
constexpr size_t kTracedRequests = 2000;

struct Person {
  std::string first;
  std::string last;
};

/// Persons in generation order (ascending node id): the k-th Person node
/// is generator index k, whose knows degree falls with k.
std::vector<Person> PersonsOf(const PathPropertyGraph& graph) {
  std::vector<Person> out;
  graph.ForEachNode([&](NodeId id) {
    if (!graph.Labels(id).Contains(snb::kPerson)) return;
    const ValueSet& first = graph.Property(id, snb::kFirstName);
    const ValueSet& last = graph.Property(id, snb::kLastName);
    if (!first.is_singleton() || !last.is_singleton()) return;
    out.push_back({first.single().ToString(), last.single().ToString()});
  });
  return out;
}

/// Zipf rank → person. A fixed stride permutation (independent of the
/// seed): popular ranks land across the whole index range instead of on
/// the generator's low-index hubs, and a rank maps to the same generator
/// index under every seed, so seeds vary the draws and the graph but not
/// which degree class the hot persons come from.
size_t PersonOfRank(size_t rank, size_t n) {
  size_t stride = 7919;
  while (std::gcd(stride, n) != 1) ++stride;
  return (rank * stride + 13) % n;
}

std::string Anchor(const std::string& var, const Person& p) {
  return var + ".firstName = '" + p.first + "' AND " + var +
         ".lastName = '" + p.last + "'";
}

/// Request text of `cls` anchored at person `p` (serve and rw_mix).
std::string AnchoredText(const std::string& cls, const Person& p) {
  if (cls == "lookup") {
    return "CONSTRUCT (n) MATCH (n:Person) WHERE " + Anchor("n", p);
  }
  if (cls == "hop_count") {
    return "SELECT COUNT(*) AS deg MATCH (n:Person)-[:knows]->(m:Person) "
           "WHERE " + Anchor("n", p);
  }
  if (cls == "profile_card") {
    // The 7-relation star join of bench_serving: DP join enumeration makes
    // planning a large share of its cost.
    return "SELECT co1.name AS employer, c1.name AS city, COUNT(*) AS fanout "
           "MATCH (a:Person)-[:knows]->(b:Person), "
           "(a)-[:isLocatedIn]->(c1:City), (b)-[:isLocatedIn]->(c2:City), "
           "(a)-[:worksAt]->(co1:Company), (b)-[:worksAt]->(co2:Company), "
           "(a)-[:hasInterest]->(t1:Tag), (b)-[:hasInterest]->(t2:Tag) "
           "WHERE " + Anchor("a", p);
  }
  if (cls == "colocation") {
    return "CONSTRUCT (n)-[:colocated]->(m) "
           "MATCH (n:Person)-[:isLocatedIn]->(c:City)<-[:isLocatedIn]-"
           "(m:Person) WHERE " + Anchor("n", p);
  }
  // reach
  return "SELECT COUNT(*) AS reach MATCH (a:Person)-/<:knows*>/->(b:Person) "
         "WHERE " + Anchor("a", p);
}

/// serve / rw_mix: Zipf-anchored request mixes over the persons.
void BuildAnchoredMix(Workload* w, const std::vector<Person>& persons,
                      const std::vector<std::string>& read_classes,
                      const std::vector<double>& weights) {
  const Zipf zipf(persons.size());
  std::vector<double> cum(weights.size());
  std::partial_sum(weights.begin(), weights.end(), cum.begin());
  for (double& c : cum) c /= cum.back();

  const size_t n = persons.size();
  std::vector<int64_t> interned(read_classes.size() * n, -1);
  auto text_of = [&](size_t cls, size_t rank) {
    // Persons have distinct names, so (class, rank) → text is one-to-one.
    int64_t& id = interned[cls * n + rank];
    if (id < 0) {
      id = static_cast<int64_t>(w->texts.size());
      w->texts.push_back(
          AnchoredText(read_classes[cls], persons[PersonOfRank(rank, n)]));
      w->text_class.push_back(static_cast<uint32_t>(cls));
    }
    return static_cast<uint32_t>(id);
  };
  // Warm-up: one request per template, anchored at the hottest person.
  for (size_t cls = 0; cls < read_classes.size(); ++cls) {
    w->warmup.push_back(text_of(cls, 0));
  }
  w->sequences.resize(w->clients);
  for (size_t c = 0; c < w->clients; ++c) {
    Rng rng(w->seed * 1000003 + 17 * (c + 1));
    auto& seq = w->sequences[c];
    seq.reserve(kSequenceLength);
    for (size_t i = 0; i < kSequenceLength; ++i) {
      const double u = rng.Unit();
      const size_t cls =
          std::upper_bound(cum.begin(), cum.end(), u) - cum.begin();
      seq.push_back(text_of(std::min(cls, cum.size() - 1), zipf.Draw(&rng)));
    }
  }
}

void BuildPassList(Workload* w, const std::vector<std::string>& names,
                   const std::vector<std::string>& texts) {
  w->classes = names;
  for (size_t i = 0; i < texts.size(); ++i) {
    w->texts.push_back(texts[i]);
    w->text_class.push_back(static_cast<uint32_t>(i));
  }
  std::vector<uint32_t> pass(texts.size());
  std::iota(pass.begin(), pass.end(), 0u);
  w->pass_length = pass.size();
  w->warmup = pass;
  w->trace_requests = pass;
  w->sequences.assign(w->clients, pass);
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"serve", "rw_mix",
                                                 "construct", "tour"};
  return names;
}

Input GenerateInput(const std::string& workload, uint64_t seed) {
  Input input;
  const auto start = Clock::now();
  IdAllocator ids;
  snb::GeneratorOptions gen;
  gen.num_persons = WorkloadPersons(workload);
  // The tour's queries are anchored at one person (John Doe), so on a
  // seeded graph their work follows the size of his city and
  // neighbourhood: the same 150-person instance serves every seed, and
  // the seed drives the tour's `orders` table.
  gen.seed = workload == "tour" ? 42 : seed;
  input.graph = snb::Generate(gen, &ids);
  input.graph.ForEachNode([&](NodeId id) {
    input.max_node_id = std::max<uint64_t>(input.max_node_id, id.value());
  });
  input.graph.ForEachEdge([&](EdgeId id, NodeId, NodeId) {
    input.max_edge_id = std::max<uint64_t>(input.max_edge_id, id.value());
  });
  // The cold-start path loads a saved image; freezing it is part of
  // producing that file, not of set-up.
  if (RegistrationOf(workload) == Registration::kSnapshotFile) {
    input.snapshot = std::make_shared<GraphSnapshot>(input.graph);
  }
  input.generate_s = MsSince(start) / 1000.0;
  return input;
}

Result<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                              const PathPropertyGraph& graph) {
  Workload w;
  w.name = name;
  w.seed = seed;
  w.persons = WorkloadPersons(name);
  const std::vector<Person> persons = PersonsOf(graph);
  if (persons.size() != w.persons) {
    return Status::InvalidArgument("generated graph has " +
                                   std::to_string(persons.size()) +
                                   " persons, expected " +
                                   std::to_string(w.persons));
  }

  if (name == "serve") {
    w.clients = kBusyThreads;
    w.parallelism = 1;
    w.classes = {"lookup", "hop_count", "profile_card", "colocation"};
    BuildAnchoredMix(&w, persons, w.classes, {60, 20, 10, 10});
    w.trace_requests.assign(w.sequences[0].begin(),
                            w.sequences[0].begin() + kTracedRequests);
  } else if (name == "rw_mix") {
    w.clients = kBusyThreads - 1;  // readers; the writer is the third
    w.parallelism = 1;
    const std::vector<std::string> reads = {"lookup", "hop_count", "reach"};
    BuildAnchoredMix(&w, persons, reads, {50, 30, 20});
    w.classes = reads;
    w.classes.push_back("write");
    const uint32_t write_cls = static_cast<uint32_t>(reads.size());
    // Batches A and B: `knows` edges between the persons of one seeded
    // last name and the co-located persons of one seeded first name. The
    // two batches differ, so every redefinition changes `live`.
    Rng rng(seed * 7919 + 5);
    std::vector<std::string> texts;
    std::string previous_last;
    for (int batch = 1; batch <= 2; ++batch) {
      std::string last;
      do {
        last = persons[rng.Below(persons.size())].last;
      } while (last == previous_last);
      previous_last = last;
      const std::string first = persons[rng.Below(persons.size())].first;
      texts.push_back(
          "GRAPH VIEW live AS (CONSTRUCT social_graph, "
          "(n)-[:knows {batch:=" + std::to_string(batch) + "}]->(m) "
          "MATCH (n:Person)-[:isLocatedIn]->(c:City)<-[:isLocatedIn]-"
          "(m:Person) ON social_graph "
          "WHERE n.lastName = '" + last + "' AND m.firstName = '" + first +
          "')");
    }
    for (const auto& t : texts) {
      w.writes.push_back(static_cast<uint32_t>(w.texts.size()));
      w.texts.push_back(t);
      w.text_class.push_back(write_cls);
    }
    w.reads_per_write = 1500;
    w.aux_texts = {texts[0]};
    w.default_graph = "live";
    // Traced pass: client 0's prefix with a write after every 750 reads
    // (the share of 1,500 completed reads one of two readers sees),
    // alternating B, A, ... like the writer (live starts as batch A).
    size_t next_write = 1;
    for (size_t i = 0; i < kTracedRequests; ++i) {
      w.trace_requests.push_back(w.sequences[0][i]);
      if ((i + 1) % (w.reads_per_write / w.clients) == 0) {
        w.trace_requests.push_back(w.writes[next_write]);
        next_write ^= 1;
      }
    }
  } else if (name == "construct") {
    w.clients = 1;
    w.parallelism = kBusyThreads;
    BuildPassList(
        &w,
        {"knows_copy", "q5_company_union", "q10_edge_count", "triangle",
         "stored_paths", "city_groups", "node_count_optional"},
        {
            "CONSTRUCT (n)-[e]->(m) MATCH (n)-[e:knows]->(m)",
            "CONSTRUCT social_graph, "
            "(x GROUP e :Company {name:=e})<-[y:worksAt]-(n) "
            "MATCH (n:Person {employer=e})",
            "CONSTRUCT (n)-[e]->(m) SET e.nr_messages := COUNT(*) "
            "MATCH (n)-[e:knows]->(m) WHERE (n:Person) AND (m:Person) "
            "OPTIONAL (n)<-[c1]-(msg1:Post|Comment), (msg1)-[:reply_of]-(msg2), "
            "(msg2:Post|Comment)-[c2]->(m) "
            "WHERE (c1:has_creator) AND (c2:has_creator)",
            "CONSTRUCT (a)-[:triangle]->(b) "
            "MATCH (a:Person)-[:knows]->(b:Person)-[:knows]->(c:Person)"
            "-[:knows]->(a)",
            "CONSTRUCT (n)-/@p:nearest/->(m) "
            "MATCH (n:Person)-/p<:knows*>/->(m:Person) "
            "WHERE n.firstName = 'John' AND n.lastName = 'Doe'",
            "CONSTRUCT (x GROUP c :CityStat {people:=COUNT(*)}) "
            "MATCH (n:Person)-[:isLocatedIn]->(c:City)",
            "CONSTRUCT (n) SET n.msgs := COUNT(*) "
            "MATCH (n:Person) OPTIONAL (msg)-[:has_creator]->(n)",
        });
  } else if (name == "tour") {
    w.clients = 1;
    w.parallelism = kBusyThreads;
    std::vector<std::string> ids;
    std::vector<std::string> texts;
    for (const auto& pq : bench::kPaperQueries) {
      ids.push_back(pq.id);
      texts.push_back(pq.text);
    }
    BuildPassList(&w, ids, texts);
    w.aux_texts = {
        "GRAPH VIEW company_graph AS "
        "(CONSTRUCT (c) MATCH (c:Company) ON social_graph)"};
    w.orders_rows = 2000;
  } else {
    return Status::InvalidArgument("unknown workload '" + name + "'");
  }
  w.registration = RegistrationOf(name);
  w.options.parallelism = w.parallelism;
  return w;
}

Result<Env> Setup(const Workload& w, const Input& input,
                  const std::string& scratch_path, SetupTimes* times) {
  // RegisterGraph consumes its argument; the copy is input preparation,
  // not set-up.
  std::optional<PathPropertyGraph> copy;
  if (w.registration == Registration::kRegisterGraph) copy = input.graph;

  Env env;
  const auto start = Clock::now();
  env.catalog = std::make_unique<GraphCatalog>();
  GraphCatalog& catalog = *env.catalog;
  // The graph was generated against another allocator: fresh ids of
  // CONSTRUCT results must not collide with its ids.
  catalog.ids()->ReserveNodeUpTo(input.max_node_id);
  catalog.ids()->ReserveEdgeUpTo(input.max_edge_id);

  auto t = Clock::now();
  if (w.registration == Registration::kSnapshotFile) {
    GCORE_RETURN_NOT_OK(SaveSnapshot(*input.snapshot, scratch_path));
    times->save_ms = MsSince(t);
    t = Clock::now();
    const Status st = catalog.RegisterSnapshotFile("social_graph",
                                                   scratch_path,
                                                   /*use_mmap=*/false);
    std::remove(scratch_path.c_str());
    GCORE_RETURN_NOT_OK(st);
    times->load_ms = MsSince(t);
    times->register_ms = times->save_ms + times->load_ms;
  } else {
    catalog.RegisterGraph("social_graph", std::move(*copy));
    times->register_ms = MsSince(t);
  }
  catalog.SetDefaultGraph("social_graph");

  t = Clock::now();
  GCORE_ASSIGN_OR_RETURN(auto snapshot, catalog.Snapshot("social_graph"));
  times->freeze_ms = MsSince(t);
  times->arena_mb = static_cast<double>(snapshot->arena().size()) / 1e6;
  t = Clock::now();
  GCORE_RETURN_NOT_OK(catalog.Stats("social_graph").status());
  times->stats_ms = MsSince(t);

  env.engine = std::make_unique<QueryEngine>(&catalog);
  // FinishBasic reads the engine's default options, not the session's:
  // keep the two equal.
  env.engine->set_options(w.options);
  QuerySession session = env.engine->CreateSession(w.options);

  t = Clock::now();
  if (w.orders_rows > 0) {
    Rng rng(w.seed * 31 + 3);
    Table orders({"custName", "prodCode"});
    for (size_t i = 0; i < w.orders_rows; ++i) {
      GCORE_RETURN_NOT_OK(orders.AddRow(
          {Value::String("cust" + std::to_string(rng.Below(300))),
           Value::String("P" + std::to_string(100 + rng.Below(100)))}));
    }
    catalog.RegisterTable("orders", std::move(orders));
  }
  for (const std::string& text : w.aux_texts) {
    GCORE_RETURN_NOT_OK(session.Execute(text).status());
  }
  if (w.default_graph != "social_graph") {
    catalog.SetDefaultGraph(w.default_graph);
    GCORE_RETURN_NOT_OK(catalog.Snapshot(w.default_graph).status());
    GCORE_RETURN_NOT_OK(catalog.Stats(w.default_graph).status());
  }
  times->aux_ms = MsSince(t);

  t = Clock::now();
  for (uint32_t id : w.warmup) {
    auto r = session.Execute(w.texts[id]);
    if (!r.ok()) {
      return Status::EvaluationError("warm-up query failed: " +
                                     r.status().ToString() + " :: " +
                                     w.texts[id]);
    }
  }
  times->warmup_s = MsSince(t) / 1000.0;
  times->total_s = MsSince(start) / 1000.0;
  return env;
}

}  // namespace e2e
}  // namespace gcore
