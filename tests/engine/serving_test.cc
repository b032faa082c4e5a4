// Concurrent serving tests: sessions on N threads produce exactly the
// serial results, a mid-flight reader stays on its graph image across a
// re-registration (epoch-retired snapshots), and the plan cache
// hits/misses/invalidates as specified. The whole file doubles as the
// ThreadSanitizer workload of the CI tsan job.
#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "engine/plan_cache.h"
#include "snb/toy_graphs.h"

namespace gcore {
namespace {

/// The serving mix: a point lookup, a one-hop expand and a path query
/// (the same shapes bench_serving drives at scale).
const char* const kQueryMix[] = {
    "SELECT n.firstName AS name MATCH (n:Person) "
    "WHERE n.employer = 'Acme'",
    "SELECT n.firstName AS src, m.firstName AS dst "
    "MATCH (n:Person)-[:knows]->(m:Person)",
    "CONSTRUCT (n) MATCH (n:Person)-/<:knows*>/->(m:Person) "
    "WHERE m.firstName = 'Frank'",
};

class ServingTest : public ::testing::Test {
 protected:
  ServingTest() { snb::RegisterToyData(&catalog); }
  GraphCatalog catalog;
};

TEST_F(ServingTest, ConcurrentSessionsMatchSerialResults) {
  QueryEngine engine(&catalog);

  // Serial reference, computed with a cold cache.
  std::vector<std::string> expected;
  for (const char* q : kQueryMix) {
    auto r = engine.Execute(q);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    expected.push_back(r->ToString());
  }

  const unsigned hw = std::thread::hardware_concurrency();
  const size_t num_threads = hw > 1 ? hw : 2;
  constexpr int kItersPerThread = 16;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  for (size_t t = 0; t < num_threads; ++t) {
    // One session per thread; all share the engine, catalog, plan cache.
    QuerySession session = engine.CreateSession();
    threads.emplace_back([session, &expected, &mismatches,
                          &failures]() mutable {
      for (int i = 0; i < kItersPerThread; ++i) {
        for (size_t q = 0; q < expected.size(); ++q) {
          auto r = session.Execute(kQueryMix[q]);
          if (!r.ok()) {
            ++failures;
          } else if (r->ToString() != expected[q]) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);

  // Every (query, knobs) pair planned exactly once; everything else hit.
  const PlanCacheCounters counters = engine.plan_cache_counters();
  EXPECT_EQ(counters.misses, 3u);
  EXPECT_EQ(counters.hits,
            3u * (num_threads * kItersPerThread + 1) - counters.misses);
}

TEST_F(ServingTest, ConcurrentConstructSetSharesCatalogPayloads) {
  // Every result shares the catalog persons' λ/σ payloads until its SET
  // detaches them: sessions on several threads copy, edit and free those
  // handles at once, and the catalog graph must read as before.
  const char* const kEdits[] = {
      "CONSTRUCT (n) SET n.x := 1 MATCH (n:Person)",
      "CONSTRUCT (n)-[e]->(m) SET e.w := COUNT(*) SET n:Seen "
      "MATCH (n:Person)-[e:knows]->(m:Person)",
      "CONSTRUCT (n) REMOVE n.employer REMOVE n:Person MATCH (n:Person)",
  };
  QueryEngine engine(&catalog);
  auto social = catalog.Lookup("social_graph");
  ASSERT_TRUE(social.ok());
  const std::string before = (*social)->ToString();
  std::vector<std::string> expected;
  for (const char* q : kEdits) {
    auto r = engine.Execute(q);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    expected.push_back(r->ToString());
  }

  constexpr size_t kThreads = 4;
  constexpr int kIters = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    QuerySession session = engine.CreateSession();
    threads.emplace_back([session, t, &kEdits, &expected,
                          &mismatches]() mutable {
      for (int i = 0; i < kIters; ++i) {
        const size_t q = (t + i) % expected.size();
        auto r = session.Execute(kEdits[q]);
        if (!r.ok() || r->ToString() != expected[q]) ++mismatches;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ((*social)->ToString(), before);
}

TEST_F(ServingTest, SessionsFreezeKnobsIndependently) {
  QueryEngine engine(&catalog);
  EngineOptions legacy;
  legacy.use_planner = false;
  QuerySession planned = engine.CreateSession();
  QuerySession walker = engine.CreateSession(legacy);
  // Flipping the engine default after creation must not affect either.
  engine.set_use_planner(false);
  EXPECT_TRUE(planned.options().use_planner);
  EXPECT_FALSE(walker.options().use_planner);
  EXPECT_NE(planned.options().Fingerprint(), walker.options().Fingerprint());

  auto a = planned.Execute(kQueryMix[1]);
  auto b = walker.Execute(kQueryMix[1]);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a->ToString(), b->ToString());
}

// The plan-cache key separates every EngineOptions field: flipping any
// one of them alone changes Fingerprint() and breaks ==, and no two
// single-field flips collide.
TEST(EngineOptionsTest, EveryFieldSeparatesFingerprintAndEquality) {
  const EngineOptions defaults;
  EXPECT_EQ(defaults, EngineOptions());
  EXPECT_EQ(defaults.Fingerprint(), EngineOptions().Fingerprint());

  std::vector<std::pair<std::string, EngineOptions>> flips(5, {"", defaults});
  flips[0].first = "use_planner";
  flips[0].second.use_planner = !defaults.use_planner;
  flips[1].first = "enable_pushdown";
  flips[1].second.enable_pushdown = !defaults.enable_pushdown;
  flips[2].first = "enable_multiway";
  flips[2].second.enable_multiway = !defaults.enable_multiway;
  flips[3].first = "parallelism";
  flips[3].second.parallelism = defaults.parallelism + 1;
  flips[4].first = "morsel_size";
  flips[4].second.morsel_size = defaults.morsel_size + 1;

  std::set<uint64_t> fingerprints = {defaults.Fingerprint()};
  for (const auto& [field, flipped] : flips) {
    EXPECT_NE(flipped.Fingerprint(), defaults.Fingerprint()) << field;
    EXPECT_TRUE(flipped != defaults) << field;
    EXPECT_FALSE(flipped == defaults) << field;
    EXPECT_TRUE(fingerprints.insert(flipped.Fingerprint()).second) << field;
  }
}

TEST_F(ServingTest, WarmSecondExecutionIsOneHitZeroPlans) {
  QueryEngine engine(&catalog);
  ASSERT_TRUE(engine.Execute(kQueryMix[0]).ok());
  const PlanCacheCounters cold = engine.plan_cache_counters();
  EXPECT_EQ(cold.hits, 0u);
  EXPECT_EQ(cold.misses, 1u);
  EXPECT_EQ(cold.plans, 1u);
  ASSERT_EQ(engine.plan_cache_size(), 1u);

  ASSERT_TRUE(engine.Execute(kQueryMix[0]).ok());
  const PlanCacheCounters warm = engine.plan_cache_counters();
  EXPECT_EQ(warm.hits, 1u);
  EXPECT_EQ(warm.misses, 1u);
  EXPECT_EQ(warm.plans, 1u);  // no second optimizer run
  EXPECT_EQ(warm.evictions, 0u);

  // Whitespace-insensitive: a reformatted text is the same entry ...
  ASSERT_TRUE(engine
                  .Execute("SELECT n.firstName   AS name\n"
                           "MATCH (n:Person) WHERE n.employer = 'Acme'")
                  .ok());
  EXPECT_EQ(engine.plan_cache_counters().hits, 2u);
  // ... but whitespace inside a string literal is load-bearing.
  ASSERT_TRUE(engine
                  .Execute("SELECT n.firstName AS name "
                           "MATCH (n:Person) WHERE n.employer = ' Acme'")
                  .ok());
  EXPECT_EQ(engine.plan_cache_counters().misses, 2u);

  // Different knobs → different fingerprint → separate entry.
  EngineOptions no_pushdown;
  no_pushdown.enable_pushdown = false;
  ASSERT_TRUE(engine.Execute(kQueryMix[0], no_pushdown).ok());
  EXPECT_EQ(engine.plan_cache_counters().misses, 3u);
}

TEST_F(ServingTest, ReRegistrationInvalidatesPlanCache) {
  QueryEngine engine(&catalog);
  ASSERT_TRUE(engine.Execute(kQueryMix[0]).ok());
  ASSERT_EQ(engine.plan_cache_size(), 1u);
  const uint64_t v1 = catalog.GraphVersion("social_graph");
  ASSERT_GT(v1, 0u);

  // Re-register the default graph: version bumps, the listener evicts.
  catalog.RegisterGraph("social_graph", snb::MakeSocialGraph(catalog.ids()));
  EXPECT_GT(catalog.GraphVersion("social_graph"), v1);
  EXPECT_EQ(engine.plan_cache_size(), 0u);
  EXPECT_GE(engine.plan_cache_counters().evictions, 1u);

  // The next execution re-plans against the new image.
  ASSERT_TRUE(engine.Execute(kQueryMix[0]).ok());
  EXPECT_EQ(engine.plan_cache_counters().plans, 2u);
}

TEST_F(ServingTest, ReaderKeepsImageAcrossReRegistration) {
  // A "mid-flight" reader modeled explicitly: pin the graph the way a
  // query does (shared_ptr via LookupShared under a ReaderGuard), then
  // re-register from the outside.
  GraphCatalog::ReaderGuard guard(&catalog);
  auto pinned = catalog.LookupShared("social_graph");
  ASSERT_TRUE(pinned.ok());
  const PathPropertyGraph* old_image = pinned->get();
  const size_t old_nodes = old_image->NumNodes();
  const uint64_t v1 = catalog.GraphVersion("social_graph");

  catalog.RegisterGraph("social_graph", PathPropertyGraph());  // empty now

  // The reader's image is unaffected; new lookups see the new version.
  EXPECT_EQ(pinned->get(), old_image);
  EXPECT_EQ((*pinned)->NumNodes(), old_nodes);
  auto fresh = catalog.LookupShared("social_graph");
  ASSERT_TRUE(fresh.ok());
  EXPECT_NE(fresh->get(), old_image);
  EXPECT_EQ((*fresh)->NumNodes(), 0u);
  EXPECT_GT(catalog.GraphVersion("social_graph"), v1);
}

TEST_F(ServingTest, ExecutionsSurviveConcurrentReRegistration) {
  QueryEngine engine(&catalog);
  // Both images answer the point query with a well-known result set:
  // the replacement graph is the same toy graph, so every read — old
  // snapshot or new — must return the identical table.
  const char* query = kQueryMix[0];
  auto reference = engine.Execute(query);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  const std::string expected = reference->ToString();

  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    QuerySession session = engine.CreateSession();
    readers.emplace_back([session, query, &expected, &stop, &bad]() mutable {
      while (!stop.load(std::memory_order_relaxed)) {
        auto r = session.Execute(query);
        if (!r.ok() || r->ToString() != expected) ++bad;
      }
    });
  }
  for (int i = 0; i < 50; ++i) {
    catalog.RegisterGraph("social_graph",
                          snb::MakeSocialGraph(catalog.ids()));
  }
  stop = true;
  for (auto& thread : readers) thread.join();
  EXPECT_EQ(bad.load(), 0);
  // All retired images drained once the last reader left.
  EXPECT_EQ(catalog.RetiredCount(), 0u);
}

TEST_F(ServingTest, RapidGuardChurnUnderReRegistration) {
  // Hammers the exact ExitReader window: guards opening/closing while a
  // writer retires images. A drain racing a just-entered reader is a
  // use-after-free that ASan/TSan catches through the Lookup below.
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([this, &stop, &bad]() {
      while (!stop.load(std::memory_order_relaxed)) {
        GraphCatalog::ReaderGuard guard(&catalog);
        auto g = catalog.Lookup("social_graph");
        if (!g.ok() || (*g)->NumNodes() == 0 ||
            (*g)->name() != "social_graph") {
          ++bad;
        }
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    catalog.RegisterGraph("social_graph",
                          snb::MakeSocialGraph(catalog.ids()));
  }
  stop = true;
  for (auto& thread : readers) thread.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST_F(ServingTest, RegisterTableInvalidatesSynthesizedGraphAndPlans) {
  QueryEngine engine(&catalog);
  const char* query =
      "SELECT o.custName AS c, o.prodCode AS p MATCH (o) ON orders";

  // First run synthesizes the node graph from the table mid-execution —
  // a catalog mutation, so the epoch check refuses to cache the plan.
  auto first = engine.Execute(query);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(catalog.HasGraph("orders"));
  EXPECT_EQ(engine.plan_cache_size(), 0u);

  // Second run plans against a stable catalog and caches.
  ASSERT_TRUE(engine.Execute(query).ok());
  ASSERT_EQ(engine.plan_cache_size(), 1u);
  ASSERT_GT(catalog.GraphVersion("orders"), 0u);

  // Re-registering the table drops the synthesized graph and evicts the
  // plan-cache entry built against it.
  Table orders({"custName", "prodCode"});
  ASSERT_TRUE(
      orders.AddRow({Value::String("Zed"), Value::String("P9")}).ok());
  catalog.RegisterTable("orders", std::move(orders));
  EXPECT_FALSE(catalog.HasGraph("orders"));
  EXPECT_EQ(engine.plan_cache_size(), 0u);

  // The next execution re-synthesizes from the new contents.
  auto fresh = engine.Execute(query);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_NE(fresh->ToString(), first->ToString());
  EXPECT_NE(fresh->ToString().find("Zed"), std::string::npos);
}

TEST_F(ServingTest, MutationEpochAdvancesOnEveryCatalogMutation) {
  const uint64_t e0 = catalog.MutationEpoch();
  catalog.RegisterGraph("tmp", PathPropertyGraph());
  const uint64_t e1 = catalog.MutationEpoch();
  EXPECT_GT(e1, e0);
  catalog.DropGraph("tmp");
  const uint64_t e2 = catalog.MutationEpoch();
  EXPECT_GT(e2, e1);
  catalog.RegisterTable("orders", snb::MakeOrdersTable());
  EXPECT_GT(catalog.MutationEpoch(), e2);
}

TEST_F(ServingTest, CapacityBoundsAndLruEviction) {
  QueryEngine engine(&catalog);
  engine.set_plan_cache_capacity(2);
  ASSERT_TRUE(engine.Execute(kQueryMix[0]).ok());
  ASSERT_TRUE(engine.Execute(kQueryMix[1]).ok());
  ASSERT_TRUE(engine.Execute(kQueryMix[0]).ok());  // 0 most recent
  ASSERT_TRUE(engine.Execute(kQueryMix[2]).ok());  // evicts 1 (LRU)
  EXPECT_EQ(engine.plan_cache_size(), 2u);
  ASSERT_TRUE(engine.Execute(kQueryMix[0]).ok());
  EXPECT_EQ(engine.plan_cache_counters().hits, 2u);
  ASSERT_TRUE(engine.Execute(kQueryMix[1]).ok());  // re-planned
  EXPECT_EQ(engine.plan_cache_counters().plans, 4u);

  // Capacity 0 disables caching entirely (the cold bench mode).
  engine.set_plan_cache_capacity(0);
  EXPECT_EQ(engine.plan_cache_size(), 0u);
  const uint64_t plans_before = engine.plan_cache_counters().plans;
  ASSERT_TRUE(engine.Execute(kQueryMix[0]).ok());
  ASSERT_TRUE(engine.Execute(kQueryMix[0]).ok());
  EXPECT_EQ(engine.plan_cache_counters().plans, plans_before + 2);
}

TEST_F(ServingTest, NormalizeQueryTextIsQuoteAware) {
  EXPECT_EQ(NormalizeQueryText("  SELECT\tn.a\n FROM   t "),
            "SELECT n.a FROM t");
  EXPECT_EQ(NormalizeQueryText("WHERE x = 'a  b'"), "WHERE x = 'a  b'");
  EXPECT_EQ(NormalizeQueryText("WHERE x = 'it''s  ok'   AND y"),
            "WHERE x = 'it''s  ok' AND y");
  // Both quote kinds the lexer accepts, plus its backslash escapes.
  EXPECT_EQ(NormalizeQueryText("WHERE x = \"a  b\""), "WHERE x = \"a  b\"");
  EXPECT_EQ(NormalizeQueryText("WHERE x = 'a\\'  b'   AND y"),
            "WHERE x = 'a\\'  b' AND y");
}

TEST_F(ServingTest, NormalizeQueryTextFoldsKeywordCase) {
  // The lexer recognizes keywords case-insensitively, so `match` and
  // `MATCH` parse identically and must normalize to one cache key.
  EXPECT_EQ(NormalizeQueryText("select n.a match (n)"),
            NormalizeQueryText("SELECT n.a MATCH (n)"));
  EXPECT_EQ(NormalizeQueryText("Select n.a Match (n)"),
            "SELECT n.a MATCH (n)");
  // Identifiers are case-sensitive and must stay byte-exact — `Ab` is a
  // different variable than `ab`, and a label is not a keyword.
  EXPECT_EQ(NormalizeQueryText("MATCH (Ab:Person)"), "MATCH (Ab:Person)");
  EXPECT_NE(NormalizeQueryText("MATCH (ab:person)"),
            NormalizeQueryText("MATCH (AB:PERSON)"));
  // Quoted literals never fold, whichever quote kind, even when their
  // content spells a keyword.
  EXPECT_EQ(NormalizeQueryText("WHERE x = 'match'"), "WHERE x = 'match'");
  EXPECT_EQ(NormalizeQueryText("WHERE x = \"match\""),
            "WHERE x = \"match\"");
}

TEST_F(ServingTest, KeywordCaseSharesOnePlanCacheEntry) {
  QueryEngine engine(&catalog);
  ASSERT_TRUE(engine
                  .Execute("select n.firstName as name match (n:Person) "
                           "where n.employer = 'Acme'")
                  .ok());
  const PlanCacheCounters cold = engine.plan_cache_counters();
  EXPECT_EQ(cold.misses, 1u);
  EXPECT_EQ(cold.plans, 1u);

  // The uppercase spelling of the same query is a hit, not a second plan.
  ASSERT_TRUE(engine.Execute(kQueryMix[0]).ok());
  const PlanCacheCounters warm = engine.plan_cache_counters();
  EXPECT_EQ(warm.hits, 1u);
  EXPECT_EQ(warm.misses, 1u);
  EXPECT_EQ(warm.plans, 1u);
  EXPECT_EQ(engine.plan_cache_size(), 1u);

  // Changing case inside the string literal is a different query.
  ASSERT_TRUE(engine
                  .Execute("SELECT n.firstName AS name MATCH (n:Person) "
                           "WHERE n.employer = 'ACME'")
                  .ok());
  EXPECT_EQ(engine.plan_cache_counters().misses, 2u);
}

}  // namespace
}  // namespace gcore
