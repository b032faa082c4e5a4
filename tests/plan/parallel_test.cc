// Threaded-executor determinism: the morsel-parallel pipeline must
// produce the same binding *sets* as the legacy recursive walk at every
// parallelism degree (1 = the serial differential mode, then ParallelFor
// fan-outs), the same rows in the same order as its own serial run, and
// the same error as its serial run when a morsel fails. Morsels are
// shrunk to a few rows so the toy graphs actually exercise multi-morsel
// execution, and a chain-join stress loop hammers the pipelines' fan-out
// + the streaming hash join (run under TSAN to check the
// synchronization).
#include <gtest/gtest.h>

#include <algorithm>

#include "engine/engine.h"
#include "eval/matcher.h"
#include "parser/parser.h"
#include "snb/toy_graphs.h"

namespace gcore {
namespace {

/// Order-insensitive canonical form: sorted "col=value" rows over
/// name-sorted columns (computed paths canonicalize to their walk; see
/// differential_test.cc).
std::string CanonicalDatum(const Datum& datum) {
  if (datum.kind() == Datum::Kind::kPath && !datum.path().from_graph) {
    const PathValue& path = datum.path();
    std::string out = "walk(";
    for (NodeId n : path.body.nodes) out += ToString(n) + ",";
    if (path.projection.has_value()) {
      for (NodeId n : path.projection->first) out += ToString(n) + ",";
      out += "|";
      for (EdgeId e : path.projection->second) out += ToString(e) + ",";
    }
    return out + ")";
  }
  return datum.ToString();
}

std::vector<std::string> Canonical(const BindingTable& table) {
  std::vector<std::string> columns = table.columns();
  std::sort(columns.begin(), columns.end());
  std::vector<std::string> rows;
  rows.reserve(table.NumRows());
  for (size_t r = 0; r < table.NumRows(); ++r) {
    std::string row;
    for (const auto& col : columns) {
      row += col + "=" + CanonicalDatum(table.Get(r, col)) + ";";
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

class ParallelExecution : public ::testing::Test {
 protected:
  ParallelExecution() {
    snb::RegisterToyData(&catalog);
    catalog.SetDefaultGraph("social_graph");
  }

  Result<BindingTable> RunMatch(const MatchClause& match, bool use_planner,
                                size_t parallelism, size_t morsel_size) {
    return RunMatchOn(&catalog, match, use_planner, parallelism, morsel_size);
  }

  static Result<BindingTable> RunMatchOn(GraphCatalog* on,
                                         const MatchClause& match,
                                         bool use_planner, size_t parallelism,
                                         size_t morsel_size) {
    MatcherContext ctx;
    ctx.catalog = on;
    ctx.default_graph = "social_graph";
    ctx.use_planner = use_planner;
    ctx.parallelism = parallelism;
    ctx.morsel_size = morsel_size;
    Matcher matcher(ctx);
    return matcher.EvalMatchClause(match);
  }

  /// Legacy walk vs. the pipeline at parallelism 1 / 2 / 8, forced onto
  /// 2-row morsels: same binding sets everywhere, and the pipeline's rows
  /// at 2 and 8 equal its rows at 1 in order. Each pipeline run gets a
  /// fresh catalog, because fresh path ids are drawn from the catalog and
  /// ToString prints them.
  void ExpectSameBindingSets(const std::string& match_query) {
    auto parsed = ParseQuery("CONSTRUCT (z) " + match_query);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    const MatchClause& match = *(*parsed)->body->basic->match;

    auto legacy = RunMatch(match, /*use_planner=*/false, 1, 0);
    ASSERT_TRUE(legacy.ok()) << match_query << ": "
                             << legacy.status().ToString();
    const std::vector<std::string> want = Canonical(*legacy);

    std::string serial_rows;
    for (size_t parallelism : {size_t{1}, size_t{2}, size_t{8}}) {
      GraphCatalog fresh;
      snb::RegisterToyData(&fresh);
      auto planned = RunMatchOn(&fresh, match, /*use_planner=*/true,
                                parallelism, /*morsel=*/2);
      ASSERT_TRUE(planned.ok())
          << match_query << " @ parallelism " << parallelism << ": "
          << planned.status().ToString();
      EXPECT_EQ(planned->columns(), legacy->columns())
          << match_query << " @ parallelism " << parallelism;
      EXPECT_EQ(Canonical(*planned), want)
          << match_query << " @ parallelism " << parallelism;
      if (parallelism == 1) {
        serial_rows = planned->ToString();
      } else {
        EXPECT_EQ(planned->ToString(), serial_rows)
            << match_query << " @ parallelism " << parallelism;
      }
    }
  }

  GraphCatalog catalog;
};

TEST_F(ParallelExecution, Scans) {
  ExpectSameBindingSets("MATCH (n)");
  ExpectSameBindingSets("MATCH (n:Person)");
  ExpectSameBindingSets("MATCH (n:Person {employer=e})");
}

TEST_F(ParallelExecution, EdgeHopsAndPushdown) {
  ExpectSameBindingSets("MATCH (n)-[e:knows]->(m)");
  ExpectSameBindingSets("MATCH (n:Person)-[e:knows]-(m:Person)");
  ExpectSameBindingSets(
      "MATCH (n:Person)-[e:knows]->(m) WHERE n.firstName = 'John'");
  ExpectSameBindingSets(
      "MATCH (n:Person)-[:isLocatedIn]->(c)<-[:isLocatedIn]-(m:Person) "
      "WHERE m.employer = 'Acme'");
}

TEST_F(ParallelExecution, JoinsAcrossChains) {
  ExpectSameBindingSets(
      "MATCH (c:Company) ON company_graph, (n:Person) ON social_graph "
      "WHERE c.name = n.employer");
  ExpectSameBindingSets(
      "MATCH (n:Person), (m:Person) WHERE n.employer = m.employer");
}

TEST_F(ParallelExecution, PathModes) {
  ExpectSameBindingSets("MATCH (n:Person)-/<:knows*>/->(m:Person)");
  ExpectSameBindingSets(
      "MATCH (n)-/3 SHORTEST p<:knows*> COST c/->(m) "
      "WHERE n.firstName = 'John'");
  // No pushed source filter: every person seeds a search, so the batched
  // SHORTEST kernel gets many sources and runs them through ParallelFor.
  ExpectSameBindingSets("MATCH (n:Person)-/2 SHORTEST p<:knows*>/->(m)");
}

TEST_F(ParallelExecution, OptionalsWithBlockWhere) {
  ExpectSameBindingSets("MATCH (n:Person) OPTIONAL (n)-[e:knows]->(m)");
  ExpectSameBindingSets(
      "MATCH (n:Person) OPTIONAL (n)-[e:knows]->(m) "
      "WHERE m.employer = 'Acme'");
  ExpectSameBindingSets(
      "MATCH (n:Person) OPTIONAL (n)-[:isLocatedIn]->(c) "
      "OPTIONAL (n)-[:hasInterest]->(t)");
}

TEST_F(ParallelExecution, ReentrantPredicatesStaySerialButCorrect) {
  // Pattern predicates re-enter the matcher; the pipeline must detect
  // that and run those stages serially on the calling thread at any
  // degree.
  ExpectSameBindingSets(
      "MATCH (m:Person), (n:Person) "
      "WHERE n.firstName = 'John' "
      "AND (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m)");
}

// Fresh path identifiers must come out *identical* to a serial run at
// every degree — including the gaps a pushed filter leaves behind
// (serial allocation draws an id for every expanded row, then drops the
// filtered ones). Canonical() deliberately ignores computed-path ids,
// so this pins them directly, on a fresh catalog per degree.
TEST_F(ParallelExecution, PathSearchIdsDeterministicUnderFilter) {
  auto parsed = ParseQuery(
      "CONSTRUCT (z) MATCH (n:Person)-/2 SHORTEST p<:knows*>/->(m) "
      "WHERE m.firstName = 'John'");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const MatchClause& match = *(*parsed)->body->basic->match;

  auto ids_at = [&](size_t parallelism) {
    GraphCatalog fresh;
    snb::RegisterToyData(&fresh);
    MatcherContext ctx;
    ctx.catalog = &fresh;
    ctx.default_graph = "social_graph";
    ctx.use_planner = true;
    ctx.parallelism = parallelism;
    ctx.morsel_size = 2;
    Matcher matcher(ctx);
    auto table = matcher.EvalMatchClause(match);
    EXPECT_TRUE(table.ok()) << table.status().ToString();
    std::vector<PathId> ids;
    for (size_t r = 0; r < table->NumRows(); ++r) {
      const Datum d = table->Get(r, "p");
      if (d.kind() == Datum::Kind::kPath) ids.push_back(d.path().id);
    }
    return ids;
  };

  const std::vector<PathId> serial = ids_at(1);
  ASSERT_FALSE(serial.empty());
  for (size_t parallelism : {size_t{2}, size_t{8}}) {
    EXPECT_EQ(ids_at(parallelism), serial) << "degree " << parallelism;
  }
}

// A 4-chain join at degree 8 on 1-row morsels, repeated: the pipelines'
// fan-out + per-morsel result slots + streaming hash join must give a
// stable result every iteration (TSAN-friendly stress).
TEST_F(ParallelExecution, ChainJoinStress) {
  auto parsed = ParseQuery(
      "CONSTRUCT (z) "
      "MATCH (a:Person)-[:knows]->(b), (b)-[:knows]->(c), "
      "(c)-[:knows]->(d), (d)-[:knows]->(a)");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const MatchClause& match = *(*parsed)->body->basic->match;

  auto reference = RunMatch(match, /*use_planner=*/false, 1, 0);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  const std::vector<std::string> want = Canonical(*reference);

  for (int iter = 0; iter < 20; ++iter) {
    auto got = RunMatch(match, /*use_planner=*/true, 8, /*morsel=*/1);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(Canonical(*got), want) << "iteration " << iter;
  }
}

// A filter that fails differently on different rows: the parallel
// pipeline must report the error the serial run reports (the lowest
// failing morsel's), not whichever thread failed first, at every degree.
TEST_F(ParallelExecution, ErrorPrecedenceMatchesSerial) {
  auto parsed = ParseQuery(
      "CONSTRUCT (z) MATCH (n:Person) "
      "WHERE CASE WHEN n.firstName = 'John' THEN 1 / 0 ELSE 1 % 0 END = 1");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const MatchClause& match = *(*parsed)->body->basic->match;

  auto serial = RunMatch(match, /*use_planner=*/true, 1, /*morsel=*/1);
  ASSERT_FALSE(serial.ok());
  for (size_t parallelism : {size_t{1}, size_t{2}, size_t{8}}) {
    for (int iter = 0; iter < 20; ++iter) {
      auto got = RunMatch(match, /*use_planner=*/true, parallelism,
                          /*morsel=*/1);
      ASSERT_FALSE(got.ok()) << "parallelism " << parallelism;
      EXPECT_EQ(got.status().code(), serial.status().code())
          << "parallelism " << parallelism << ", iteration " << iter;
      EXPECT_EQ(got.status().message(), serial.status().message())
          << "parallelism " << parallelism << ", iteration " << iter;
    }
  }
}

// Engine-level: the knobs thread through QueryEngine and full queries
// (construction, tabular extension) give identical results at every
// degree.
TEST_F(ParallelExecution, EngineKnobs) {
  auto run = [](size_t parallelism) -> Result<QueryResult> {
    GraphCatalog catalog;
    snb::RegisterToyData(&catalog);
    QueryEngine engine(&catalog);
    engine.set_parallelism(parallelism);
    engine.set_morsel_size(2);
    return engine.Execute(
        "SELECT c.name AS company, n.firstName AS person "
        "MATCH (c:Company) ON company_graph, (n:Person) ON social_graph "
        "WHERE c.name = n.employer ORDER BY n.firstName");
  };
  auto serial = run(1);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  for (size_t parallelism : {size_t{2}, size_t{8}}) {
    auto parallel = run(parallelism);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(parallel->table->ToString(), serial->table->ToString())
        << "parallelism " << parallelism;
  }
}

}  // namespace
}  // namespace gcore
