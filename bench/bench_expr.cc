// Vectorized expression kernel bench (scripts/run_bench.sh →
// BENCH_expr.json).
//
// The row-at-a-time ExprEvaluator vs the compiled VecProgram kernels
// (eval/expr_vec.h) on the three sites that use them, at SNB 2k and 20k
// persons, single-threaded. The _Row variants run the matcher in its
// use_planner = false spec mode, i.e. the pure row evaluator; the _Vec
// variants run the default fast path:
//
//   *_ArithFilter      one arithmetic WHERE conjunct,
//                      (n.age + n.score) * 2 > K, through
//                      Matcher::FilterByConjuncts as a one-element list
//                      (the residual-WHERE stage);
//   *_ThreeConjunctAnd three AND-ed conjuncts through
//                      Matcher::FilterByConjuncts (the pushdown stage),
//                      run left to right in the listed order;
//   *_Projection       a computed projection batch, (n.age + n.score)/2,
//                      row Eval loop vs VecProgram::EvalValues.
//
// Every _Vec variant verifies at setup that its result is identical to
// the _Row variant's (row count and per-row rendered cells) and exports
// identical=1; the acceptance trajectory tracks the single-thread
// Row/Vec ratio on the arithmetic filter (target >= 2x). Recordings
// before the two-tier filter had ThreeConjunctAnd_Row scan `n.age >= 20`
// through a specialized typed-column probe; it is now row-evaluated.
// Recordings while pushed lists were re-ranked by column statistics ran
// `n.age >= 20` last; it now runs first, as listed.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "eval/expr_vec.h"
#include "eval/matcher.h"
#include "graph/catalog.h"
#include "parser/parser.h"
#include "snb/generator.h"

namespace gcore {
namespace {

/// Generated graph + the all-persons binding table, cached per scale so
/// the 2k/20k instances build once per process.
struct Fixture {
  GraphCatalog catalog;
  const PathPropertyGraph* graph = nullptr;
  BindingTable persons{std::vector<std::string>{"n"}};

  explicit Fixture(size_t num_persons) {
    snb::GeneratorOptions options;
    options.num_persons = num_persons;
    PathPropertyGraph g = snb::Generate(options, catalog.ids());
    // Dense numeric columns over every person (the generator's own
    // properties are strings): an int age and a double score, so the
    // arithmetic conjuncts below never fall back.
    std::vector<NodeId> person_ids;
    for (NodeId id : g.NodeIds()) {
      if (!g.Labels(id).Contains("Person")) continue;
      const uint64_t v = id.value();
      g.SetProperty(id, "age", ValueSet(Value::Int(18 + (v % 50))));
      g.SetProperty(id, "score",
                    ValueSet(Value::Double((v % 100) * 0.5)));
      person_ids.push_back(id);
    }
    catalog.RegisterGraph("snb", std::move(g));
    graph = *catalog.Lookup("snb");
    persons.SetColumnGraph("n", "snb");
    persons.ReserveRows(person_ids.size());
    for (NodeId id : person_ids) {
      Status st = persons.AddRow({Datum::OfNode(id)});
      (void)st;
    }
  }
};

Fixture& FixtureFor(size_t num_persons) {
  static std::map<size_t, std::unique_ptr<Fixture>> cache;
  auto& slot = cache[num_persons];
  if (slot == nullptr) slot = std::make_unique<Fixture>(num_persons);
  return *slot;
}

MatcherContext MakeCtx(Fixture& fx, bool vectorized) {
  MatcherContext ctx;
  ctx.catalog = &fx.catalog;
  ctx.default_graph = "snb";
  ctx.use_planner = vectorized;
  ctx.parallelism = 1;
  return ctx;
}

std::unique_ptr<Expr> Parse(const std::string& text) {
  auto e = ParseExpression(text);
  if (!e.ok()) {
    std::fprintf(stderr, "parse failed: %s\n", e.status().ToString().c_str());
    std::abort();
  }
  return std::move(*e);
}

std::string RenderRows(const BindingTable& t) {
  std::string s;
  for (size_t r = 0; r < t.NumRows(); ++r) {
    s += t.ColumnAt(0).DatumAt(r).ToString();
    s += '\n';
  }
  return s;
}

constexpr const char* kArithFilter = "(n.age + n.score) * 2 > 80";
const char* kConjuncts[] = {"n.age >= 20", "(n.age + n.score) * 2 > 80",
                            "n.age % 7 <> 3"};

// --- arithmetic WHERE (one-element FilterByConjuncts) -----------------------

void RunArithFilter(benchmark::State& state, bool vectorized) {
  Fixture& fx = FixtureFor(static_cast<size_t>(state.range(0)));
  std::unique_ptr<Expr> expr = Parse(kArithFilter);
  Matcher matcher(MakeCtx(fx, vectorized));
  // Result-identity check against the row path (the acceptance bar:
  // identical bytes, only faster).
  {
    Matcher row_matcher(MakeCtx(fx, false));
    auto want = row_matcher.FilterByConjuncts(fx.persons, {expr.get()},
                                              fx.graph);
    auto got = matcher.FilterByConjuncts(fx.persons, {expr.get()}, fx.graph);
    if (!want.ok() || !got.ok() ||
        RenderRows(*want) != RenderRows(*got)) {
      std::fprintf(stderr, "arith filter results diverge\n");
      std::abort();
    }
    state.counters["identical"] = 1;
    state.counters["kept"] = static_cast<double>(got->NumRows());
  }
  for (auto _ : state) {
    auto filtered =
        matcher.FilterByConjuncts(fx.persons, {expr.get()}, fx.graph);
    benchmark::DoNotOptimize(filtered);
  }
  state.counters["rows"] = static_cast<double>(fx.persons.NumRows());
}

void BM_Expr_ArithFilter_Row(benchmark::State& state) {
  RunArithFilter(state, false);
}
void BM_Expr_ArithFilter_Vec(benchmark::State& state) {
  RunArithFilter(state, true);
}
BENCHMARK(BM_Expr_ArithFilter_Row)
    ->Arg(2000)
    ->Arg(20000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Expr_ArithFilter_Vec)
    ->Arg(2000)
    ->Arg(20000)
    ->Unit(benchmark::kMillisecond);

// --- 3-conjunct AND (FilterByConjuncts) -------------------------------------

void RunThreeConjuncts(benchmark::State& state, bool vectorized) {
  Fixture& fx = FixtureFor(static_cast<size_t>(state.range(0)));
  std::vector<std::unique_ptr<Expr>> owned;
  std::vector<const Expr*> conjuncts;
  for (const char* c : kConjuncts) {
    owned.push_back(Parse(c));
    conjuncts.push_back(owned.back().get());
  }
  Matcher matcher(MakeCtx(fx, vectorized));
  {
    Matcher row_matcher(MakeCtx(fx, false));
    auto want = row_matcher.FilterByConjuncts(fx.persons, conjuncts, fx.graph);
    auto got = matcher.FilterByConjuncts(fx.persons, conjuncts, fx.graph);
    if (!want.ok() || !got.ok() ||
        RenderRows(*want) != RenderRows(*got)) {
      std::fprintf(stderr, "conjunct results diverge\n");
      std::abort();
    }
    state.counters["identical"] = 1;
    state.counters["kept"] = static_cast<double>(got->NumRows());
  }
  for (auto _ : state) {
    auto filtered = matcher.FilterByConjuncts(fx.persons, conjuncts, fx.graph);
    benchmark::DoNotOptimize(filtered);
  }
  state.counters["rows"] = static_cast<double>(fx.persons.NumRows());
}

void BM_Expr_ThreeConjunctAnd_Row(benchmark::State& state) {
  RunThreeConjuncts(state, false);
}
void BM_Expr_ThreeConjunctAnd_Vec(benchmark::State& state) {
  RunThreeConjuncts(state, true);
}
BENCHMARK(BM_Expr_ThreeConjunctAnd_Row)
    ->Arg(2000)
    ->Arg(20000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Expr_ThreeConjunctAnd_Vec)
    ->Arg(2000)
    ->Arg(20000)
    ->Unit(benchmark::kMillisecond);

// --- computed projection batch (EvalValues vs row Eval loop) ----------------

void BM_Expr_Projection_Row(benchmark::State& state) {
  Fixture& fx = FixtureFor(static_cast<size_t>(state.range(0)));
  std::unique_ptr<Expr> expr = Parse("(n.age + n.score) / 2");
  Matcher matcher(MakeCtx(fx, false));
  ExprEvaluator eval = matcher.MakeEvaluator(fx.graph);
  for (auto _ : state) {
    std::vector<Datum> out;
    out.reserve(fx.persons.NumRows());
    for (size_t r = 0; r < fx.persons.NumRows(); ++r) {
      auto d = eval.Eval(*expr, fx.persons, r);
      if (!d.ok()) std::abort();
      out.push_back(std::move(*d));
    }
    benchmark::DoNotOptimize(out);
  }
  state.counters["rows"] = static_cast<double>(fx.persons.NumRows());
}
BENCHMARK(BM_Expr_Projection_Row)
    ->Arg(2000)
    ->Arg(20000)
    ->Unit(benchmark::kMillisecond);

void BM_Expr_Projection_Vec(benchmark::State& state) {
  Fixture& fx = FixtureFor(static_cast<size_t>(state.range(0)));
  std::unique_ptr<Expr> expr = Parse("(n.age + n.score) / 2");
  Matcher matcher(MakeCtx(fx, true));
  ExprEvaluator eval = matcher.MakeEvaluator(fx.graph);
  auto prog = matcher.VecProgramFor(*expr, fx.persons, eval, fx.graph);
  if (prog == nullptr) std::abort();
  std::vector<size_t> rows(fx.persons.NumRows());
  for (size_t r = 0; r < rows.size(); ++r) rows[r] = r;
  // Identity check against the row loop.
  {
    std::vector<Datum> vec_out;
    std::vector<uint8_t> fb;
    prog->EvalValues(fx.persons, rows.data(), rows.size(), &vec_out, &fb);
    for (size_t r = 0; r < rows.size(); ++r) {
      auto want = eval.Eval(*expr, fx.persons, r);
      if (!want.ok() || fb[r] != 0 || !(vec_out[r] == *want)) {
        std::fprintf(stderr, "projection results diverge at row %zu\n", r);
        std::abort();
      }
    }
  }
  for (auto _ : state) {
    std::vector<Datum> out;
    std::vector<uint8_t> fb;
    prog->EvalValues(fx.persons, rows.data(), rows.size(), &out, &fb);
    benchmark::DoNotOptimize(out);
  }
  state.counters["identical"] = 1;
  state.counters["rows"] = static_cast<double>(fx.persons.NumRows());
}
BENCHMARK(BM_Expr_Projection_Vec)
    ->Arg(2000)
    ->Arg(20000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace gcore

BENCHMARK_MAIN();
