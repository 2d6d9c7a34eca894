#include "bayesnet/engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>

#include "bayesnet/inference.hpp"
#include "core/contracts.hpp"
#include "obs/context.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "prob/rng.hpp"

namespace sysuq::bayesnet {

namespace {

// Engine instruments, registered once on first use. Counters aggregate
// across every engine in the process; per-engine windows come from
// cache_stats().
struct EngineMetrics {
  obs::Histogram& query_seconds;
  obs::Histogram& elimination_width;
  obs::Counter& queries;
  obs::Counter& batch_queries;
  obs::Counter& sampled_queries;
  obs::Counter& cache_hits;
  obs::Counter& cache_misses;
  obs::Gauge& cache_entries;
  obs::Counter& jt_queries;
  obs::Counter& jt_cache_hits;
  obs::Counter& jt_cache_misses;
  obs::Gauge& jt_cache_entries;
  obs::Counter& bp_queries;
  obs::Counter& bp_escalations;
  obs::Counter& bp_cache_hits;
  obs::Counter& bp_cache_misses;
  obs::Gauge& bp_cache_entries;

  static EngineMetrics& instance() {
    auto& reg = obs::Registry::global();
    static EngineMetrics m{
        reg.histogram("bayesnet.engine.query_seconds", obs::seconds_buckets()),
        reg.histogram("bayesnet.engine.elimination_width",
                      {1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0}),
        reg.counter("bayesnet.engine.queries"),
        reg.counter("bayesnet.engine.batch_queries"),
        reg.counter("bayesnet.engine.sampled_queries"),
        reg.counter("bayesnet.engine.ordering_cache.hits"),
        reg.counter("bayesnet.engine.ordering_cache.misses"),
        reg.gauge("bayesnet.engine.ordering_cache.entries"),
        reg.counter("bayesnet.jt.queries"),
        reg.counter("bayesnet.jt.cache.hits"),
        reg.counter("bayesnet.jt.cache.misses"),
        reg.gauge("bayesnet.jt.cache.entries"),
        reg.counter("bayesnet.bp.queries"),
        reg.counter("bayesnet.bp.escalations"),
        reg.counter("bayesnet.bp.cache.hits"),
        reg.counter("bayesnet.bp.cache.misses"),
        reg.gauge("bayesnet.bp.cache.entries"),
    };
    return m;
  }
};

// The sorted evidence keys (an Evidence map iterates in key order).
std::vector<VariableId> keys_of(const Evidence& evidence) {
  std::vector<VariableId> keys;
  keys.reserve(evidence.size());
  for (const auto& [v, _] : evidence) keys.push_back(v);
  return keys;
}

}  // namespace

// A fixed pool of background workers plus the calling thread. `run` hands
// out task indices through an atomic counter, so work distribution adapts
// to scheduling while result slots stay fixed per index.
class InferenceEngine::Pool {
 public:
  explicit Pool(std::size_t workers) {
    threads_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) {
      threads_.emplace_back([this] { worker(); });
    }
  }

  ~Pool() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_work_.notify_all();
    for (auto& t : threads_) t.join();
  }

  /// Runs fn(0), .., fn(total - 1) across the workers and the calling
  /// thread; blocks until every index has been processed AND every
  /// worker that entered the batch has dropped its reference to `fn`.
  /// `fn` must not throw. Concurrent `run` calls are serialized.
  void run(std::size_t total, const std::function<void(std::size_t)>& fn) {
    if (total == 0) return;
    std::lock_guard<std::mutex> serialize(run_mu_);
    {
      std::lock_guard<std::mutex> lk(mu_);
      fn_ = &fn;
      total_ = total;
      next_.store(0, std::memory_order_relaxed);
      completed_.store(0, std::memory_order_relaxed);
      ++generation_;
    }
    cv_work_.notify_all();
    work();  // the caller participates
    {
      // Waiting on completed_ alone is not enough: a worker that read
      // `fn_` but stalled before claiming an index still holds the
      // pointer after all indices finish. Returning then would let the
      // caller destroy `fn` (or start the next batch) while the stalled
      // worker can still dereference it — a use-after-free. active_
      // counts workers inside work(); drain them before returning.
      std::unique_lock<std::mutex> lk(mu_);
      cv_done_.wait(lk, [&] {  // sysuq-lint-allow(lock-order): run_mu_ only serializes run() callers; workers signalling cv_done_ never take it, so holding it across the wait cannot deadlock
        return completed_.load(std::memory_order_relaxed) == total_ &&
               active_ == 0;
      });
      fn_ = nullptr;
    }
  }

 private:
  // sysuq-excludes(mu_)
  void work() {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t total = 0;
    {
      std::lock_guard<std::mutex> lk(mu_);
      fn = fn_;
      total = total_;
      if (fn != nullptr) ++active_;
    }
    if (fn == nullptr) return;  // late wake-up after the batch finished
    for (;;) {
      const std::size_t i = next_.fetch_add(1);
      if (i >= total) break;
      (*fn)(i);
      completed_.fetch_add(1);
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      --active_;
      // Signal on both conditions from under the lock: all indices done
      // and this worker no longer references fn.
      if (completed_.load(std::memory_order_relaxed) == total_ &&
          active_ == 0) {
        cv_done_.notify_all();
      }
    }
  }

  void worker() {
    std::uint64_t seen = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_work_.wait(lk, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
      }
      work();
    }
  }

  std::mutex run_mu_;  // serializes whole batches
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  const std::function<void(std::size_t)>* fn_ = nullptr;  // sysuq-guarded-by(mu_)
  std::size_t total_ = 0;                                 // sysuq-guarded-by(mu_)
  std::atomic<std::size_t> next_{0};
  std::atomic<std::size_t> completed_{0};
  std::uint64_t generation_ = 0;  // sysuq-guarded-by(mu_)
  // Workers inside work() holding fn_.  sysuq-guarded-by(mu_)
  std::size_t active_ = 0;
  bool stop_ = false;  // sysuq-guarded-by(mu_)
  // Joined in the destructor, never resized after construction.
  std::vector<std::thread> threads_;  // sysuq-thread-confined(init)
};

InferenceEngine::InferenceEngine(const BayesianNetwork& net)
    : InferenceEngine(net, Options{}) {}

InferenceEngine::InferenceEngine(const BayesianNetwork& net, Options options)
    : net_(net), options_(options) {
  cpt_factors_ = net_.cpt_factors();  // validates the network first
  threads_ = options_.threads != 0
                 ? options_.threads
                 : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  if (threads_ > 1) pool_ = std::make_unique<Pool>(threads_ - 1);
}

InferenceEngine::~InferenceEngine() = default;

std::shared_ptr<const EliminationOrdering> InferenceEngine::ordering_for(
    const Evidence& evidence) const {
  OrderingKey key = keys_of(evidence);

  auto& metrics = EngineMetrics::instance();
  std::shared_ptr<const EliminationOrdering> ordering;
  {
    std::lock_guard<std::mutex> lk(cache_mu_);
    if (const auto it = cache_.find(key); it != cache_.end()) {
      ++cache_hits_;
      metrics.cache_hits.inc();
      return it->second;
    }
    ordering = known_ordering(key);
  }
  // Miss, counted even when another path (the kAuto guard, a junction
  // tree) already ran the heuristic for these keys: its ordering is
  // adopted as is. Otherwise compute it — the heuristics walk the whole
  // moral graph, far too slow to run under cache_mu_, where a cold cache
  // would serialize every concurrent query. On a race the first insert
  // wins and the duplicate ordering is dropped (both threads ran the
  // same deterministic heuristic, so the results are equal).
  if (!ordering) {
    ordering = compute_ordering(key);
  }
  std::lock_guard<std::mutex> lk(cache_mu_);
  ++cache_misses_;
  metrics.cache_misses.inc();
  const auto [it, inserted] = cache_.emplace(std::move(key), std::move(ordering));
  metrics.cache_entries.set(static_cast<double>(cache_.size()));
  return it->second;
}

std::shared_ptr<const EliminationOrdering> InferenceEngine::compute_ordering(
    const OrderingKey& key) const {
  return std::make_shared<const EliminationOrdering>(
      compute_elimination_order(net_, /*keep=*/{}, key, options_.heuristic));
}

std::shared_ptr<const EliminationOrdering> InferenceEngine::known_ordering(
    const OrderingKey& key) const {
  if (const auto it = cache_.find(key); it != cache_.end()) return it->second;
  if (const auto it = plan_cells_.find(key); it != plan_cells_.end())
    return it->second.ordering;
  if (const auto it = jt_structures_.find(key); it != jt_structures_.end())
    return it->second->ordering;
  return nullptr;
}

std::shared_ptr<const JunctionTree::Structure> InferenceEngine::structure_for(
    const Evidence& evidence) const {
  OrderingKey key = keys_of(evidence);
  std::shared_ptr<const EliminationOrdering> ordering;
  {
    std::lock_guard<std::mutex> lk(cache_mu_);
    if (const auto it = jt_structures_.find(key); it != jt_structures_.end())
      return it->second;
    ordering = known_ordering(key);
  }
  // Built outside the lock like the other caches; a racing builder makes
  // an identical structure (deterministic), and the first insert wins.
  if (!ordering) {
    ordering = compute_ordering(key);
  }
  auto structure = JunctionTree::Structure::build(net_, key, std::move(ordering));
  std::lock_guard<std::mutex> lk(cache_mu_);
  return jt_structures_.emplace(std::move(key), std::move(structure))
      .first->second;
}

kernels::ScaledFactor InferenceEngine::eliminate_all_but(
    const std::vector<VariableId>& keep, const Evidence& evidence) const {
  const auto ordering = ordering_for(evidence);
  EngineMetrics::instance().elimination_width.observe(
      static_cast<double>(ordering->induced_width));
  // Cached CPT factors are viewed in place; only evidence-bearing ones
  // are reduced (into the arena). No per-query deep copies.
  Arena& arena = kernels::thread_scratch();
  arena.reset();
  std::vector<kernels::View> views;
  views.reserve(cpt_factors_.size());
  for (const Factor& base : cpt_factors_) {
    kernels::View view = kernels::view_of(base);
    for (const auto& [ev, state] : evidence) {
      if (view.contains(ev))
        view = kernels::reduce(view, ev, state, arena).view();
    }
    views.push_back(view);
  }
  // The cached plan eliminates every unobserved variable; skipping the
  // kept ones at execution time keeps them in the result scope (any
  // suffix-restricted order is still exact).
  std::vector<VariableId> order;
  order.reserve(ordering->order.size());
  for (VariableId v : ordering->order) {
    if (keep.empty() || std::find(keep.begin(), keep.end(), v) == keep.end())
      order.push_back(v);
  }
  kernels::ScaledFactor out =
      kernels::eliminate_scaled(std::move(views), order, arena);
  last_ve_arena_high_water_.store(arena.bytes_used(),
                                  std::memory_order_relaxed);
  arena.reset();
  return out;
}

std::shared_ptr<const JunctionTree> InferenceEngine::calibrated_tree_for(
    const Evidence& evidence) const {
  TreeKey key(evidence.begin(), evidence.end());  // map: sorted pairs
  auto& metrics = EngineMetrics::instance();
  {
    std::lock_guard<std::mutex> lk(cache_mu_);
    if (const auto it = jt_cache_.find(key); it != jt_cache_.end()) {
      ++jt_cache_hits_;
      metrics.jt_cache_hits.inc();
      return it->second;
    }
    ++jt_cache_misses_;
    metrics.jt_cache_misses.inc();
  }
  // Calibrated outside the lock so concurrent batch groups build in
  // parallel; a racing builder produces an identical tree (construction
  // is deterministic), so first-insert-wins is harmless. Only the
  // numeric calibration runs per assignment: the structure is shared
  // per key set and the CPT factors are the engine's own.
  auto tree = std::make_shared<const JunctionTree>(
      net_, evidence, structure_for(evidence), cpt_factors_);
  std::lock_guard<std::mutex> lk(cache_mu_);
  const auto it = jt_cache_.emplace(std::move(key), std::move(tree)).first;
  metrics.jt_cache_entries.set(static_cast<double>(jt_cache_.size()));
  return it->second;
}

std::shared_ptr<const LoopyBP> InferenceEngine::bp_for(
    const Evidence& evidence) const {
  TreeKey key(evidence.begin(), evidence.end());  // map: sorted pairs
  auto& metrics = EngineMetrics::instance();
  {
    std::lock_guard<std::mutex> lk(cache_mu_);
    if (const auto it = bp_cache_.find(key); it != bp_cache_.end()) {
      ++bp_cache_hits_;
      metrics.bp_cache_hits.inc();
      return it->second;
    }
    ++bp_cache_misses_;
    metrics.bp_cache_misses.inc();
  }
  // Run outside the lock (first insert wins; the schedule is
  // deterministic, so racing builders agree byte for byte). A run that
  // oscillates under the configured damping gets one deterministic
  // retry at damping 0.5 — the standard fix for flooding-schedule
  // limit cycles — and the converged run is kept.
  auto bp =
      std::make_shared<const LoopyBP>(net_, evidence, options_.bp, cpt_factors_);
  if (!bp->converged() && options_.bp.damping < 0.5) {
    LoopyBP::Options damped = options_.bp;
    damped.damping = 0.5;
    auto retry =
        std::make_shared<const LoopyBP>(net_, evidence, damped, cpt_factors_);
    if (retry->converged()) bp = std::move(retry);
  }
  std::lock_guard<std::mutex> lk(cache_mu_);
  const auto it = bp_cache_.emplace(std::move(key), std::move(bp)).first;
  metrics.bp_cache_entries.set(static_cast<double>(bp_cache_.size()));
  return it->second;
}

std::size_t InferenceEngine::exact_plan_max_cells(
    const Evidence& evidence) const {
  OrderingKey key = keys_of(evidence);
  std::shared_ptr<const EliminationOrdering> ordering;
  {
    std::lock_guard<std::mutex> lk(cache_mu_);
    if (const auto it = plan_cells_.find(key); it != plan_cells_.end())
      return it->second.max_cells;
    ordering = known_ordering(key);
  }
  // One symbolic replay of the full-elimination plan per evidence-keys
  // signature. Stats-invisible by design: a known ordering is read
  // without counting, and a cold signature runs the heuristic into this
  // memo rather than the ordering cache — the guard is a pre-flight
  // check, and the documented ordering-cache accounting stays owned by
  // the query paths alone (ordering_for still counts its miss, then
  // adopts this ordering instead of recomputing it).
  if (!ordering) {
    ordering = compute_ordering(key);
  }
  const auto steps = simulate_elimination(net_, evidence, ordering->order, {});
  std::size_t max_cells = 0;
  for (const auto& step : steps) max_cells = std::max(max_cells, step.table_cells);
  std::lock_guard<std::mutex> lk(cache_mu_);
  return plan_cells_
      .emplace(std::move(key), PlanCells{max_cells, std::move(ordering)})
      .first->second.max_cells;
}

bool InferenceEngine::auto_escalates_to_bp(const Evidence& evidence) const {
  if (options_.backend != Backend::kAuto) return false;
  const std::size_t cells = exact_plan_max_cells(evidence);
  if (cells <= options_.max_exact_table_cells) return false;
  if (!options_.enable_bp) {
    contracts::fail(
        "precondition", "exact_plan_max_cells <= max_exact_table_cells",
        "InferenceEngine: exact inference is infeasible (largest elimination "
        "table needs " +
            std::to_string(cells) + " cells, ceiling " +
            std::to_string(options_.max_exact_table_cells) +
            ") and Options::enable_bp is false — raise max_exact_table_cells "
            "or enable the loopy-BP escalation");
    return false;  // contracts::Mode::kOff: fall through to the exact path
  }
  EngineMetrics::instance().bp_escalations.inc();
  return true;
}

prob::Categorical InferenceEngine::query_ve(VariableId query,
                                            const Evidence& evidence) const {
  const kernels::ScaledFactor sf = eliminate_all_but({query}, evidence);
  if (sf.impossible())
    throw std::domain_error(impossible_evidence_message(net_, evidence));
  const Factor& f = sf.factor;
  if (f.scope().size() != 1 || f.scope()[0] != query)
    throw std::logic_error("InferenceEngine: unexpected result scope");
  return prob::Categorical::normalized(f.values());
}

prob::Categorical InferenceEngine::query(VariableId query,
                                         const Evidence& evidence) const {
  auto& metrics = EngineMetrics::instance();
  const obs::Span span("bayesnet.engine.query");
  // Latency is sampled 1-in-8: a kernel-backed query runs in
  // single-digit microseconds, so timing every one (two clock reads +
  // an observe) would alone breach the documented 2% obs budget. The
  // `queries` counter stays exact; only the histogram is sampled.
  static std::atomic<std::uint64_t> sample_seq{0};
  std::optional<obs::HistogramTimer> timer;
  if ((sample_seq.fetch_add(1, std::memory_order_relaxed) & 7u) == 0)
    timer.emplace(metrics.query_seconds);
  metrics.queries.inc();
  if (query >= net_.size())
    throw std::out_of_range("InferenceEngine::query: variable id");
  if (evidence.contains(query)) {
    return prob::Categorical::delta(evidence.at(query),
                                    net_.variable(query).cardinality());
  }
  if (options_.backend == Backend::kJunctionTree) {
    metrics.jt_queries.inc();
    return calibrated_tree_for(evidence)->query(query);
  }
  if (options_.backend == Backend::kLoopyBP || auto_escalates_to_bp(evidence)) {
    metrics.bp_queries.inc();
    return bp_for(evidence)->query(query).point;
  }
  return query_ve(query, evidence);
}

BoundedPosterior InferenceEngine::query_bounded(VariableId query,
                                                const Evidence& evidence) const {
  const obs::Span span("bayesnet.engine.query_bounded");
  EngineMetrics::instance().bp_queries.inc();
  if (query >= net_.size())
    throw std::out_of_range("InferenceEngine::query: variable id");
  return bp_for(evidence)->query(query);
}

std::vector<BoundedPosterior> InferenceEngine::all_marginals_bounded(
    const Evidence& evidence) const {
  const obs::Span span("bayesnet.engine.all_marginals_bounded");
  EngineMetrics::instance().bp_queries.inc(net_.size());
  return bp_for(evidence)->all_marginals();
}

std::vector<prob::Categorical> InferenceEngine::all_marginals(
    const Evidence& evidence) const {
  const obs::Span span("bayesnet.engine.all_marginals");
  if (options_.backend == Backend::kVariableElimination) {
    std::vector<prob::Categorical> out;
    out.reserve(net_.size());
    for (VariableId v = 0; v < net_.size(); ++v)
      out.push_back(query(v, evidence));
    return out;
  }
  if (options_.backend == Backend::kLoopyBP || auto_escalates_to_bp(evidence)) {
    EngineMetrics::instance().bp_queries.inc(net_.size());
    const auto& bounded = bp_for(evidence)->all_marginals();
    std::vector<prob::Categorical> out;
    out.reserve(bounded.size());
    for (const auto& b : bounded) out.push_back(b.point);
    return out;
  }
  const auto tree = calibrated_tree_for(evidence);
  EngineMetrics::instance().jt_queries.inc(net_.size());
  return tree->all_marginals();
}

double InferenceEngine::evidence_probability(const Evidence& evidence) const {
  if (options_.backend == Backend::kJunctionTree)
    return calibrated_tree_for(evidence)->evidence_probability();
  const kernels::ScaledFactor sf = eliminate_all_but({}, evidence);
  // exp(log_scale) is exactly 1 unless a rescale fired, so the common
  // case returns the unscaled total bit for bit.
  return sf.factor.total() * std::exp(sf.log_scale);
}

double InferenceEngine::log_evidence_probability(
    const Evidence& evidence) const {
  if (options_.backend != Backend::kVariableElimination)
    return calibrated_tree_for(evidence)->log_evidence_probability();
  // The scaled path keeps log P(e) finite even when the linear value
  // underflows a double (deep evidence chains).
  return eliminate_all_but({}, evidence).log_total();
}

prob::JointTable InferenceEngine::joint(VariableId a, VariableId b,
                                        const Evidence& evidence) const {
  if (a == b) throw std::invalid_argument("InferenceEngine::joint: a == b");
  if (evidence.contains(a) || evidence.contains(b))
    throw std::invalid_argument(
        "InferenceEngine::joint: query variable in evidence");
  const kernels::ScaledFactor sf = eliminate_all_but({a, b}, evidence);
  if (sf.impossible())
    throw std::domain_error(impossible_evidence_message(net_, evidence));
  const Factor f = sf.factor.normalized();
  const std::size_t ca = net_.variable(a).cardinality();
  const std::size_t cb = net_.variable(b).cardinality();
  const bool a_first = a < b;
  std::vector<std::vector<double>> table(ca, std::vector<double>(cb, 0.0));
  for (std::size_t i = 0; i < ca; ++i) {
    for (std::size_t j = 0; j < cb; ++j) {
      table[i][j] = a_first ? f.at({i, j}) : f.at({j, i});
    }
  }
  return prob::JointTable(std::move(table));
}

std::vector<prob::Categorical> InferenceEngine::query_batch(
    const std::vector<QuerySpec>& batch) const {
  const obs::Span span("bayesnet.engine.query_batch");
  // Capture the batch span's context *after* opening it, so every task
  // — on workers and on this thread — parents into this batch's trace
  // instead of fragmenting into per-worker roots.
  const obs::TraceContext trace_ctx = obs::current_context();
  auto& metrics = EngineMetrics::instance();
  metrics.batch_queries.inc(batch.size());

  // Backend resolution: group the batch by full evidence assignment and
  // route each group to the junction tree when the backend (or the kAuto
  // distinct-query threshold) says one calibration will amortize. Every
  // remaining index stays on the per-query VE path.
  std::vector<std::size_t> ve_indices;
  std::vector<std::vector<std::size_t>> jt_groups;
  std::vector<std::vector<std::size_t>> bp_groups;
  if (options_.backend == Backend::kVariableElimination) {
    ve_indices.resize(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) ve_indices[i] = i;
  } else {
    std::map<TreeKey, std::vector<std::size_t>> by_evidence;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      by_evidence[TreeKey(batch[i].evidence.begin(), batch[i].evidence.end())]
          .push_back(i);
    }
    for (auto& [key, indices] : by_evidence) {
      if (options_.backend == Backend::kLoopyBP ||
          auto_escalates_to_bp(batch[indices.front()].evidence)) {
        bp_groups.push_back(std::move(indices));
        continue;
      }
      bool use_jt = options_.backend == Backend::kJunctionTree;
      if (!use_jt) {
        std::set<VariableId> distinct;
        for (const std::size_t i : indices) distinct.insert(batch[i].query);
        use_jt = distinct.size() >= options_.jt_batch_threshold;
      }
      if (use_jt) {
        jt_groups.push_back(std::move(indices));
      } else {
        ve_indices.insert(ve_indices.end(), indices.begin(), indices.end());
      }
    }
  }

  std::vector<std::optional<prob::Categorical>> results(batch.size());
  std::vector<std::exception_ptr> errors(batch.size());
  // One unit per VE query plus one per JT group; result slots stay fixed
  // per batch index, so scheduling cannot perturb the output.
  const std::function<void(std::size_t)> task = [&](std::size_t u) {
    const obs::ContextScope trace_scope(trace_ctx);
    if (u < ve_indices.size()) {
      const std::size_t i = ve_indices[u];
      try {
        results[i] = query(batch[i].query, batch[i].evidence);
      } catch (...) {
        errors[i] = std::current_exception();
      }
      return;
    }
    if (u < ve_indices.size() + jt_groups.size()) {
      const auto& group = jt_groups[u - ve_indices.size()];
      std::shared_ptr<const JunctionTree> tree;
      try {
        tree = calibrated_tree_for(batch[group.front()].evidence);
      } catch (...) {
        for (const std::size_t i : group) errors[i] = std::current_exception();
        return;
      }
      metrics.jt_queries.inc(group.size());
      for (const std::size_t i : group) {
        try {
          if (batch[i].query >= net_.size())
            throw std::out_of_range("InferenceEngine::query: variable id");
          results[i] = tree->query(batch[i].query);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      }
      return;
    }
    const auto& group = bp_groups[u - ve_indices.size() - jt_groups.size()];
    std::shared_ptr<const LoopyBP> bp;
    try {
      bp = bp_for(batch[group.front()].evidence);
    } catch (...) {
      for (const std::size_t i : group) errors[i] = std::current_exception();
      return;
    }
    metrics.bp_queries.inc(group.size());
    for (const std::size_t i : group) {
      try {
        if (batch[i].query >= net_.size())
          throw std::out_of_range("InferenceEngine::query: variable id");
        results[i] = bp->query(batch[i].query).point;
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  const std::size_t units =
      ve_indices.size() + jt_groups.size() + bp_groups.size();
  if (pool_) {
    pool_->run(units, task);
  } else {
    for (std::size_t u = 0; u < units; ++u) task(u);
  }
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  std::vector<prob::Categorical> out;
  out.reserve(batch.size());
  for (auto& r : results) out.push_back(std::move(*r));
  return out;
}

std::vector<prob::Categorical> InferenceEngine::sample_batch(
    const std::vector<QuerySpec>& batch, std::size_t samples,
    std::uint64_t seed) const {
  const obs::Span span("bayesnet.engine.sample_batch");
  const obs::TraceContext trace_ctx = obs::current_context();
  EngineMetrics::instance().sampled_queries.inc(batch.size());
  std::vector<std::optional<prob::Categorical>> results(batch.size());
  std::vector<std::exception_ptr> errors(batch.size());
  const std::function<void(std::size_t)> task = [&](std::size_t i) {
    const obs::ContextScope trace_scope(trace_ctx);
    try {
      // Stream (seed, i) is independent of which thread runs the query.
      prob::Rng base(seed);
      prob::Rng rng = base.split(i);
      results[i] = likelihood_weighting(net_, batch[i].query,
                                        batch[i].evidence, samples, rng);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };
  if (pool_) {
    pool_->run(batch.size(), task);
  } else {
    for (std::size_t i = 0; i < batch.size(); ++i) task(i);
  }
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  std::vector<prob::Categorical> out;
  out.reserve(batch.size());
  for (auto& r : results) out.push_back(std::move(*r));
  return out;
}

bool InferenceEngine::ordering_cached(const Evidence& evidence) const {
  const OrderingKey key = keys_of(evidence);
  std::lock_guard<std::mutex> lk(cache_mu_);
  return cache_.find(key) != cache_.end();
}

bool InferenceEngine::tree_cached(const Evidence& evidence) const {
  const TreeKey key(evidence.begin(), evidence.end());
  std::lock_guard<std::mutex> lk(cache_mu_);
  return jt_cache_.find(key) != jt_cache_.end();
}

bool InferenceEngine::bp_cached(const Evidence& evidence) const {
  const TreeKey key(evidence.begin(), evidence.end());
  std::lock_guard<std::mutex> lk(cache_mu_);
  return bp_cache_.find(key) != bp_cache_.end();
}

QueryProfile InferenceEngine::explain(VariableId query,
                                      const Evidence& evidence) const {
  using clock = std::chrono::steady_clock;
  const auto since = [](clock::time_point a, clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };
  if (query >= net_.size())
    throw std::out_of_range("InferenceEngine::query: variable id");

  const obs::Span span("bayesnet.engine.explain");
  QueryProfile p;
  p.query = net_.variable(query).name();
  for (const auto& [v, state] : evidence) {
    if (v >= net_.size())
      throw std::out_of_range("InferenceEngine::explain: evidence variable id");
    p.evidence.emplace_back(net_.variable(v).name(),
                            net_.variable(v).state_name(state));
  }
  p.states = net_.variable(query).states();

  const auto t0 = clock::now();
  if (evidence.contains(query)) {
    p.backend = "evidence_delta";
    p.backend_reason =
        "query variable is observed; the posterior is its evidence delta";
    const auto d = prob::Categorical::delta(
        evidence.at(query), net_.variable(query).cardinality());
    p.posterior = d.probs();
    p.total_seconds = since(t0, clock::now());
    return p;
  }

  if (options_.backend == Backend::kLoopyBP || auto_escalates_to_bp(evidence)) {
    p.backend = "loopy_bp";
    p.backend_reason =
        options_.backend == Backend::kLoopyBP
            ? "Backend::kLoopyBP routes every query through flooding belief "
              "propagation with certified bounds"
            : "Backend::kAuto escalated: the exact elimination plan exceeds "
              "Options::max_exact_table_cells (largest table " +
                  std::to_string(exact_plan_max_cells(evidence)) + " cells)";
    p.bp_cache_hit = bp_cached(evidence);
    const auto t_prop0 = clock::now();
    const auto bp = bp_for(evidence);
    const auto t_prop1 = clock::now();
    p.schedule = LoopyBP::schedule();
    p.bp_iterations = bp->iterations();
    p.bp_converged = bp->converged();
    p.bp_damping = options_.bp.damping;
    p.final_residual = bp->final_residual();
    p.bound_width = bp->max_bound_width();
    p.propagation_seconds = bp->propagation_seconds();
    p.certification_seconds = bp->certification_seconds();
    const auto& posterior = bp->query(query);  // throws when P(e) = 0
    const auto t_read = clock::now();
    p.stages.push_back({"propagate", since(t_prop0, t_prop1)});
    p.stages.push_back({"read_marginal", since(t_prop1, t_read)});
    p.posterior = posterior.point.probs();
  } else if (options_.backend == Backend::kJunctionTree) {
    p.backend = "junction_tree";
    p.backend_reason =
        "Backend::kJunctionTree routes every query through the calibrated "
        "clique tree";
    p.jt_cache_hit = tree_cached(evidence);
    const auto t_cal0 = clock::now();
    const auto tree = calibrated_tree_for(evidence);
    const auto t_cal1 = clock::now();
    for (const auto& clique : tree->cliques())
      p.clique_sizes.push_back(clique.size());
    p.max_clique_size = tree->max_clique_size();
    p.calibration_seconds = tree->build_seconds();
    p.arena_high_water_bytes = tree->arena_high_water_bytes();
    const auto posterior = tree->query(query);  // throws when P(e) = 0
    const auto t_read = clock::now();
    p.stages.push_back({"calibrate", since(t_cal0, t_cal1)});
    p.stages.push_back({"read_marginal", since(t_cal1, t_read)});
    p.posterior = posterior.probs();
  } else {
    p.backend = "variable_elimination";
    p.backend_reason =
        options_.backend == Backend::kVariableElimination
            ? "Backend::kVariableElimination runs one elimination per query"
            : "Backend::kAuto keeps single queries on variable elimination "
              "(the junction tree amortizes only across batch groups)";
    p.ordering_cache_hit = ordering_cached(evidence);
    const auto t_plan0 = clock::now();
    const auto ordering = ordering_for(evidence);
    const auto t_plan1 = clock::now();
    p.induced_width = ordering->induced_width;
    p.fill_edges = ordering->fill_edges;
    p.steps = simulate_elimination(net_, evidence, ordering->order, {query});
    const auto t_sim = clock::now();
    const auto posterior = query_ve(query, evidence);  // throws when P(e) = 0
    const auto t_exec = clock::now();
    p.arena_high_water_bytes =
        last_ve_arena_high_water_.load(std::memory_order_relaxed);
    p.stages.push_back({"plan", since(t_plan0, t_plan1)});
    p.stages.push_back({"analyze", since(t_plan1, t_sim)});
    p.stages.push_back({"execute", since(t_sim, t_exec)});
    p.posterior = posterior.probs();
  }
  p.total_seconds = since(t0, clock::now());
  return p;
}

InferenceEngine::CacheStats InferenceEngine::cache_stats() const {
  std::lock_guard<std::mutex> lk(cache_mu_);
  CacheStats s;
  s.hits = cache_hits_;
  s.misses = cache_misses_;
  s.entries = cache_.size();
  return s;
}

InferenceEngine::CacheStats InferenceEngine::jt_cache_stats() const {
  std::lock_guard<std::mutex> lk(cache_mu_);
  CacheStats s;
  s.hits = jt_cache_hits_;
  s.misses = jt_cache_misses_;
  s.entries = jt_cache_.size();
  return s;
}

InferenceEngine::CacheStats InferenceEngine::bp_cache_stats() const {
  std::lock_guard<std::mutex> lk(cache_mu_);
  CacheStats s;
  s.hits = bp_cache_hits_;
  s.misses = bp_cache_misses_;
  s.entries = bp_cache_.size();
  return s;
}

void InferenceEngine::reset_cache_stats() {
  std::lock_guard<std::mutex> lk(cache_mu_);
  cache_hits_ = 0;
  cache_misses_ = 0;
  jt_cache_hits_ = 0;
  jt_cache_misses_ = 0;
  bp_cache_hits_ = 0;
  bp_cache_misses_ = 0;
}

void InferenceEngine::clear_cache() {
  std::lock_guard<std::mutex> lk(cache_mu_);
  cache_.clear();
  cache_hits_ = 0;
  cache_misses_ = 0;
  jt_structures_.clear();
  jt_cache_.clear();
  jt_cache_hits_ = 0;
  jt_cache_misses_ = 0;
  bp_cache_.clear();
  bp_cache_hits_ = 0;
  bp_cache_misses_ = 0;
  plan_cells_.clear();
}

}  // namespace sysuq::bayesnet
