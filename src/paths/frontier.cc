#include "paths/frontier.h"

#include <atomic>
#include <thread>

namespace gcore {

size_t ResolveParallelism(size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

void ParallelFor(size_t parallelism, size_t n,
                 const std::function<void(size_t)>& fn) {
  const size_t degree = std::min(ResolveParallelism(parallelism), n);
  if (degree <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<size_t> next{0};
  auto worker = [&]() {
    while (true) {
      const size_t i = next.fetch_add(1);
      if (i >= n) return;
      fn(i);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(degree - 1);
  for (size_t t = 0; t + 1 < degree; ++t) pool.emplace_back(worker);
  worker();
  for (auto& t : pool) t.join();
}

CompiledNfa::CompiledNfa(const Nfa& nfa, const GraphSnapshot& snap)
    : snap_(&snap), start_(nfa.start()), accept_(nfa.accept()) {
  states_.resize(nfa.num_states());
  for (NfaStateId s = 0; s < nfa.num_states(); ++s) {
    const auto& transitions = nfa.TransitionsFrom(s);
    states_[s].reserve(transitions.size());
    for (const NfaTransition& t : transitions) {
      CompiledTransition ct;
      ct.type = t.type;
      ct.target = t.target;
      ct.label = &t.label;
      if (t.type == NfaTransition::Type::kEdgeForward ||
          t.type == NfaTransition::Type::kEdgeBackward ||
          t.type == NfaTransition::Type::kNodeTest) {
        ct.label_id = snap_->LabelId(t.label);
      }
      states_[s].push_back(ct);
    }
  }
}

Result<const PathViewRelation*> ViewResolver::Resolve(const std::string& name) {
  auto it = cache_.find(name);
  if (it != cache_.end()) return it->second;
  if (views_ == nullptr) {
    return Status::EvaluationError("regex references PATH view '~" + name +
                                   "' but no views are in scope");
  }
  auto rel = views_->Lookup(name);
  if (!rel.ok()) return rel.status();
  cache_.emplace(name, *rel);
  return *rel;
}

const std::vector<const PathViewSegment*>& ViewBackIndex::SegmentsInto(
    const PathViewRelation& rel, NodeId dst) {
  auto [it, inserted] = by_rel_.try_emplace(&rel);
  if (inserted) {
    for (const auto& [src, segs] : rel.BySource()) {
      for (const PathViewSegment& seg : segs) {
        it->second[seg.dst].push_back(&seg);
      }
    }
  }
  static const std::vector<const PathViewSegment*> kEmpty;
  auto hit = it->second.find(dst);
  return hit == it->second.end() ? kEmpty : hit->second;
}

}  // namespace gcore
