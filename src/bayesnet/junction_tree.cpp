#include "bayesnet/junction_tree.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <utility>

#include "bayesnet/inference.hpp"
#include "bayesnet/kernels.hpp"
#include "core/contracts.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace sysuq::bayesnet {

namespace {

// Junction-tree instruments, registered once on first use. Counters
// aggregate across every tree built in the process.
struct JtMetrics {
  obs::Counter& builds;
  obs::Histogram& calibration_seconds;
  obs::Counter& structure_builds;
  obs::Histogram& structure_seconds;
  obs::Histogram& cliques;
  obs::Histogram& max_clique_size;

  static JtMetrics& instance() {
    auto& reg = obs::Registry::global();
    static JtMetrics m{
        reg.counter("bayesnet.jt.builds"),
        reg.histogram("bayesnet.jt.calibration_seconds", obs::seconds_buckets()),
        reg.counter("bayesnet.jt.structure_builds"),
        reg.histogram("bayesnet.jt.structure_seconds", obs::seconds_buckets()),
        reg.histogram("bayesnet.jt.cliques", obs::count_buckets()),
        reg.histogram("bayesnet.jt.max_clique_size",
                      {1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0}),
    };
    return m;
  }
};

// Sums out every scope variable not in `keep` (keep is sorted) in one
// strided pass; the result's scope is scope ∩ keep.
kernels::Table marginalize_to(const kernels::View& f,
                              const std::vector<VariableId>& keep,
                              Arena& arena) {
  VariableId kept[kernels::kMaxRank];
  std::size_t nkept = 0;
  for (std::size_t i = 0; i < f.rank; ++i) {
    if (std::binary_search(keep.begin(), keep.end(), f.scope[i]))
      kept[nkept++] = f.scope[i];
  }
  return kernels::marginalize_keep(f, kept, nkept, arena);
}

std::size_t intersection_size(const std::vector<VariableId>& a,
                              const std::vector<VariableId>& b) {
  std::size_t count = 0;
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      ++count;
      ++ia;
      ++ib;
    }
  }
  return count;
}

std::vector<VariableId> intersection(const std::vector<VariableId>& a,
                                     const std::vector<VariableId>& b) {
  std::vector<VariableId> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

// The standalone constructor's structure: validates the network and the
// evidence (ids and states, in key order), then runs `heuristic`.
std::shared_ptr<const JunctionTree::Structure> standalone_structure(
    const BayesianNetwork& net, const Evidence& evidence,
    OrderingHeuristic heuristic) {
  net.validate();
  std::vector<VariableId> keys;
  keys.reserve(evidence.size());
  for (const auto& [v, state] : evidence) {  // map: sorted
    if (v >= net.size())
      throw std::out_of_range("JunctionTree: evidence variable id");
    if (state >= net.variable(v).cardinality())
      throw std::out_of_range("JunctionTree: evidence state index");
    keys.push_back(v);
  }
  auto ordering = std::make_shared<const EliminationOrdering>(
      compute_elimination_order(net, /*keep=*/{}, keys, heuristic));
  return JunctionTree::Structure::build(net, std::move(keys),
                                        std::move(ordering));
}

}  // namespace

std::shared_ptr<const JunctionTree::Structure> JunctionTree::Structure::build(
    const BayesianNetwork& net, std::vector<VariableId> evidence_keys,
    std::shared_ptr<const EliminationOrdering> ordering) {
  const obs::Span span("bayesnet.jt.structure");
  auto& metrics = JtMetrics::instance();
  const obs::HistogramTimer timer(metrics.structure_seconds);
  auto out = std::make_shared<Structure>();
  Structure& s = *out;
  s.evidence_keys = std::move(evidence_keys);
  s.ordering = std::move(ordering);

  // 1–2: the triangulation's elimination cliques, pruned to the maximal
  // ones. A later clique can only be subsumed by an earlier one (its
  // eliminated vertex is gone from all later graphs), so one backward
  // containment scan suffices.
  const auto raw = elimination_cliques(net, s.evidence_keys, s.ordering->order);
  for (std::size_t i = 0; i < raw.size(); ++i) {
    bool subsumed = false;
    for (std::size_t j = 0; j < i && !subsumed; ++j) {
      subsumed = std::includes(raw[j].begin(), raw[j].end(), raw[i].begin(),
                               raw[i].end());
    }
    if (!subsumed) s.cliques.push_back(raw[i]);
  }
  const std::size_t m = s.cliques.size();
  for (const auto& clique : s.cliques)
    s.max_clique_size = std::max(s.max_clique_size, clique.size());

  // 3: maximum-weight spanning tree over separator cardinalities, Prim
  // from clique 0. Each clique outside the tree keeps its best edge into
  // the tree (largest weight, then smallest attachment index), refreshed
  // only against the clique added last, so the whole tree costs O(m²)
  // intersections. The pick takes the largest weight, then the smallest
  // new clique index — the same tree as scanning every (outside, inside)
  // pair per step. For a chordal graph any such tree has the
  // running-intersection property.
  s.parent.assign(m, kNoClique);
  s.children.assign(m, {});
  s.separators.assign(m, {});
  if (m > 0) {
    std::vector<char> in_tree(m, 0);
    std::vector<std::size_t> best_w(m, 0);
    std::vector<std::size_t> best_attach(m, 0);
    in_tree[0] = 1;
    s.order.reserve(m);
    s.order.push_back(0);
    for (std::size_t i = 1; i < m; ++i)
      best_w[i] = intersection_size(s.cliques[i], s.cliques[0]);
    for (std::size_t step = 1; step < m; ++step) {
      std::size_t next = kNoClique;
      for (std::size_t i = 1; i < m; ++i) {
        if (!in_tree[i] && (next == kNoClique || best_w[i] > best_w[next]))
          next = i;
      }
      in_tree[next] = 1;
      s.parent[next] = best_attach[next];
      s.order.push_back(next);
      for (std::size_t i = 1; i < m; ++i) {
        if (in_tree[i]) continue;
        const std::size_t w = intersection_size(s.cliques[i], s.cliques[next]);
        if (w > best_w[i] || (w == best_w[i] && next < best_attach[i])) {
          best_w[i] = w;
          best_attach[i] = next;
        }
      }
    }
  }
  for (std::size_t i = 0; i < m; ++i) {
    if (s.parent[i] == kNoClique) continue;
    s.children[s.parent[i]].push_back(i);
    s.separators[i] = intersection(s.cliques[i], s.cliques[s.parent[i]]);
  }

  // Home cliques. A CPT lands in the first clique covering its scope
  // minus the evidence keys (one exists: each reduced family is a clique
  // of the evidence-deleted moral graph; a fully observed family is a
  // constant and lands in clique 0). A variable reads its marginal off
  // the first clique containing it.
  const std::size_t n = net.size();
  if (m > 0) {
    s.cpt_home.resize(n);
    for (VariableId v = 0; v < n; ++v) {
      std::vector<VariableId> scope;
      for (const VariableId u : net.parents(v)) scope.push_back(u);
      scope.push_back(v);
      std::sort(scope.begin(), scope.end());
      std::erase_if(scope, [&](VariableId u) {
        return std::binary_search(s.evidence_keys.begin(),
                                  s.evidence_keys.end(), u);
      });
      std::size_t home = kNoClique;
      for (std::size_t c = 0; c < m && home == kNoClique; ++c) {
        if (std::includes(s.cliques[c].begin(), s.cliques[c].end(),
                          scope.begin(), scope.end())) {
          home = c;
        }
      }
      if (home == kNoClique)
        throw std::logic_error("JunctionTree: factor scope not covered");
      s.cpt_home[v] = home;
    }
  }
  s.variable_home.assign(n, kNoClique);
  for (std::size_t c = 0; c < m; ++c) {
    for (const VariableId v : s.cliques[c]) {
      if (s.variable_home[v] == kNoClique) s.variable_home[v] = c;
    }
  }
  metrics.structure_builds.inc();
  return out;
}

JunctionTree::JunctionTree(const BayesianNetwork& net, const Evidence& evidence,
                           OrderingHeuristic heuristic)
    : JunctionTree(net, evidence, standalone_structure(net, evidence, heuristic),
                   net.cpt_factors()) {}

JunctionTree::JunctionTree(const BayesianNetwork& net, const Evidence& evidence,
                           std::shared_ptr<const Structure> structure,
                           const std::vector<Factor>& cpt_factors)
    : net_(net), evidence_(evidence), structure_(std::move(structure)) {
  SYSUQ_EXPECT(structure_ != nullptr, "JunctionTree: null structure");
  SYSUQ_EXPECT(cpt_factors.size() == net_.size(),
               "JunctionTree: one CPT factor per variable");
  SYSUQ_EXPECT(
      std::equal(evidence_.begin(), evidence_.end(),
                 structure_->evidence_keys.begin(),
                 structure_->evidence_keys.end(),
                 [](const auto& e, VariableId k) { return e.first == k; }),
      "JunctionTree: evidence keys must be the structure's keys");
  for (const auto& [v, state] : evidence_) {
    if (state >= net_.variable(v).cardinality())
      throw std::out_of_range("JunctionTree: evidence state index");
  }
  const obs::Span span("bayesnet.jt.calibrate");
  auto& metrics = JtMetrics::instance();
  const obs::HistogramTimer timer(metrics.calibration_seconds);
  // Timed directly as well: the obs histogram aggregates across trees,
  // while build_seconds() attributes this one build (and stays live
  // under SYSUQ_OBS=OFF for `explain`).
  const auto t0 = std::chrono::steady_clock::now();
  calibrate(cpt_factors);
  build_seconds_ =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  metrics.builds.inc();
  metrics.cliques.observe(static_cast<double>(clique_count()));
  metrics.max_clique_size.observe(static_cast<double>(max_clique_size()));
}

void JunctionTree::calibrate(const std::vector<Factor>& cpt_factors) {
  const Structure& s = *structure_;
  const std::size_t n = net_.size();
  const std::size_t m = s.cliques.size();

  // Degenerate case: every variable observed. The joint probability of
  // the evidence is the product of the fully reduced CPT constants.
  if (m == 0) {
    for (VariableId v = 0; v < n; ++v) {
      Factor f = cpt_factors[v];
      for (const auto& [ev, state] : evidence_) {
        if (f.contains(ev)) f = f.reduce(ev, state);
      }
      const double t = f.total();
      if (!(t > 0.0)) {
        impossible_ = true;
        log_evidence_ = -std::numeric_limits<double>::infinity();
        return;
      }
      log_evidence_ += std::log(t);
    }
    marginals_.reserve(n);
    for (VariableId v = 0; v < n; ++v) {
      marginals_.push_back(prob::Categorical::delta(
          evidence_.at(v), net_.variable(v).cardinality()));
    }
    return;
  }

  // Potentials, messages, and beliefs are strided arena tables; only
  // the per-variable marginals are materialized at the end. One arena
  // frame spans the whole calibration (beliefs reference the messages).
  Arena& arena = kernels::thread_scratch();
  arena.reset();

  // 4: evidence absorption — every CPT factor, viewed in place and
  // reduced by the evidence into the arena, multiplies into its home.
  std::vector<kernels::View> potential(m, kernels::unit_view());
  for (VariableId v = 0; v < n; ++v) {
    kernels::View f = kernels::view_of(cpt_factors[v]);
    for (const auto& [ev, state] : evidence_) {
      if (f.contains(ev)) f = kernels::reduce(f, ev, state, arena).view();
    }
    const std::size_t home = s.cpt_home[v];
    potential[home] = kernels::product(potential[home], f, arena).view();
  }

  // 5a: collect — leaves toward the root (reverse insertion order).
  // Each message is normalized as it flows and its log-normalizer
  // accumulated, so P(e) never underflows; an all-zero message means the
  // evidence is impossible (zeros only propagate outward).
  std::vector<kernels::View> up(m, kernels::unit_view());
  const auto give_up = [&] {
    impossible_ = true;
    log_evidence_ = -std::numeric_limits<double>::infinity();
    arena_high_water_ = kernels::thread_scratch().bytes_used();
    kernels::thread_scratch().reset();
  };
  for (std::size_t idx = m; idx-- > 1;) {
    const std::size_t i = s.order[idx];
    kernels::View b = potential[i];
    for (const std::size_t c : s.children[i])
      b = kernels::product(b, up[c], arena).view();
    kernels::Table msg = marginalize_to(b, s.separators[i], arena);
    const double t = kernels::total(msg.values, msg.size);
    if (!(t > 0.0)) return give_up();
    log_evidence_ += std::log(t);
    kernels::scale(msg.values, msg.size, 1.0 / t);
    up[i] = msg.view();
  }
  {
    kernels::View root = potential[s.order[0]];
    for (const std::size_t c : s.children[s.order[0]])
      root = kernels::product(root, up[c], arena).view();
    const double t = kernels::total(root.values, root.size);
    if (!(t > 0.0)) return give_up();
    log_evidence_ += std::log(t);
  }

  // 5b: distribute — root toward the leaves (insertion order). Messages
  // are normalized for stability only; per-variable marginals are
  // normalized at extraction, so the constants cancel.
  std::vector<kernels::View> down(m, kernels::unit_view());
  for (const std::size_t i : s.order) {
    if (s.children[i].empty()) continue;
    const kernels::View base =
        kernels::product(potential[i], down[i], arena).view();
    for (const std::size_t c : s.children[i]) {
      kernels::View b = base;
      for (const std::size_t c2 : s.children[i]) {
        if (c2 != c) b = kernels::product(b, up[c2], arena).view();
      }
      kernels::Table msg = marginalize_to(b, s.separators[c], arena);
      const double t = kernels::total(msg.values, msg.size);
      if (!(t > 0.0)) return give_up();  // unreachable when P(e) > 0
      kernels::scale(msg.values, msg.size, 1.0 / t);
      down[c] = msg.view();
    }
  }

  // 6: calibrated beliefs and eager marginal extraction. Each variable
  // reads off its home clique.
  std::vector<kernels::View> belief;
  belief.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    kernels::View b = kernels::product(potential[i], down[i], arena).view();
    for (const std::size_t c : s.children[i])
      b = kernels::product(b, up[c], arena).view();
    belief.push_back(b);
  }
  marginals_.reserve(n);
  for (VariableId v = 0; v < n; ++v) {
    if (const auto it = evidence_.find(v); it != evidence_.end()) {
      marginals_.push_back(
          prob::Categorical::delta(it->second, net_.variable(v).cardinality()));
      continue;
    }
    if (s.variable_home[v] == kNoClique)
      throw std::logic_error("JunctionTree: variable in no clique");
    const kernels::Table f =
        marginalize_to(belief[s.variable_home[v]], {v}, arena);
    marginals_.push_back(prob::Categorical::normalized(
        std::vector<double>(f.values, f.values + f.size)));
  }
  arena_high_water_ = arena.bytes_used();
  arena.reset();
}

void JunctionTree::throw_impossible() const {
  throw std::domain_error(impossible_evidence_message(net_, evidence_));
}

prob::Categorical JunctionTree::query(VariableId v) const {
  if (v >= net_.size())
    throw std::out_of_range("JunctionTree::query: variable id");
  if (impossible_) throw_impossible();
  return marginals_[v];
}

const std::vector<prob::Categorical>& JunctionTree::all_marginals() const {
  if (impossible_) throw_impossible();
  return marginals_;
}

double JunctionTree::evidence_probability() const {
  return std::exp(log_evidence_);
}

}  // namespace sysuq::bayesnet
