// The production inference engine: batched, multithreaded posterior
// queries over one Bayesian network, with two exact backends behind one
// contract — per-query variable elimination and calibrated junction
// trees — plus elimination orderings computed once per evidence-keys
// signature and cached.
//
// Relationship to VariableElimination: same exact-inference contract and
// identical error semantics, plus
//  * CPT factors are materialized once at construction instead of per
//    query;
//  * what depends only on the evidence *keys* is cached by them: the
//    elimination ordering (min-fill by default; computed once per key
//    set, whichever path meets the set first) and the junction tree's
//    structure (cliques, spanning tree, home cliques) — repeated queries
//    that observe the same variables, with any values and any query
//    variable, reuse both;
//  * calibrated junction trees are cached by the full evidence
//    *assignment* (keys and values) and share their key set's
//    structure: an all-marginals workload pays one message pass instead
//    of one elimination per query, and a new assignment over known keys
//    pays only the numeric calibration. The `Backend`
//    option selects the strategy; `kAuto` (default) keeps single queries
//    on VE and switches a batch group to the junction tree once it has
//    `jt_batch_threshold` distinct query variables under one evidence
//    assignment;
//  * `query_batch` fans a vector of (query, evidence) pairs across a
//    fixed thread pool; results are deterministic and independent of the
//    thread count because every query's slot and arithmetic are fixed up
//    front;
//  * `sample_batch` runs likelihood weighting with a per-query RNG stream
//    derived from (seed, query index), so a fixed seed gives byte-identical
//    posteriors regardless of scheduling.
//
// Thread safety: all query methods are const and safe to call from
// multiple threads concurrently; every cache (orderings, junction-tree
// structures, calibrated trees, BP runs) is internally locked. The
// engine holds a reference to the network — the network must outlive
// the engine and must not be mutated while queries run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include <atomic>

#include "bayesnet/junction_tree.hpp"
#include "bayesnet/kernels.hpp"
#include "bayesnet/loopy_bp.hpp"
#include "bayesnet/network.hpp"
#include "bayesnet/ordering.hpp"
#include "bayesnet/profile.hpp"
#include "prob/discrete.hpp"
#include "prob/information.hpp"

namespace sysuq::bayesnet {

/// One (query, evidence) pair of a batch.
struct QuerySpec {
  VariableId query = 0;
  Evidence evidence;
};

/// Which backend answers engine queries.
enum class Backend {
  kVariableElimination,  ///< one elimination run per query (the PR-1 path)
  kJunctionTree,         ///< every query reads a calibrated clique tree
  kAuto,  ///< VE per query; JT for batch groups with many distinct queries;
          ///< escalates to loopy BP when the exact plan is infeasible
  kLoopyBP,  ///< approximate loopy belief propagation with certified bounds
};

class InferenceEngine {
 public:
  struct Options {
    /// Worker threads for the batch APIs. 0 = hardware concurrency.
    std::size_t threads = 0;
    OrderingHeuristic heuristic = OrderingHeuristic::kMinFill;
    Backend backend = Backend::kAuto;
    /// Under kAuto, a batch group switches to the junction tree once it
    /// holds at least this many *distinct* query variables under one
    /// evidence assignment (one calibration then amortizes across them).
    std::size_t jt_batch_threshold = 8;
    /// Under kAuto, the feasibility ceiling for exact inference: when
    /// the cached elimination plan's largest intermediate table would
    /// exceed this many cells (simulate_elimination's estimate, also a
    /// proxy for the junction tree's largest clique), the query
    /// escalates to loopy BP instead of materializing it — or throws a
    /// ContractViolation when `enable_bp` is false. The default is 2^24
    /// cells (128 MiB of doubles per table).
    std::size_t max_exact_table_cells = std::size_t{1} << 24;
    /// Permits the kAuto escalation to loopy BP. When false, a query
    /// whose exact plan exceeds `max_exact_table_cells` fails fast with
    /// a ContractViolation instead of silently approximating.
    bool enable_bp = true;
    /// Loopy-BP options, used by Backend::kLoopyBP and kAuto escalations.
    LoopyBP::Options bp = {};
  };

  /// A point-in-time view of this engine's ordering-cache counters.
  /// The process-wide aggregates live on the obs registry
  /// (`bayesnet.engine.ordering_cache.*`); this struct is the
  /// per-engine window over the same events.
  struct CacheStats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t entries = 0;
    [[nodiscard]] double hit_rate() const {
      const std::size_t lookups = hits + misses;
      if (lookups == 0) return 0.0;
      return static_cast<double>(hits) / static_cast<double>(lookups);
    }
  };

  explicit InferenceEngine(const BayesianNetwork& net);
  InferenceEngine(const BayesianNetwork& net, Options options);
  ~InferenceEngine();

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  [[nodiscard]] const BayesianNetwork& network() const { return net_; }
  [[nodiscard]] std::size_t threads() const { return threads_; }

  /// Exact posterior P(query | evidence). Throws std::domain_error with
  /// `impossible_evidence_message` if P(evidence) = 0.
  [[nodiscard]] prob::Categorical query(VariableId query,
                                        const Evidence& evidence = {}) const;

  /// EXPLAIN ANALYZE for one query: answers it on the same code path as
  /// `query` and returns the full cost attribution — backend chosen and
  /// why, the elimination plan (per-step factor widths and table sizes)
  /// or the calibrated tree's clique structure, ordering/JT cache hit
  /// flags, the scratch-arena high-water mark, and wall seconds per
  /// stage. Throws exactly like `query` (unknown id, impossible
  /// evidence). Structure fields are deterministic; see
  /// `QueryProfile::zero_costs` for byte-reproducible rendering.
  [[nodiscard]] QueryProfile explain(VariableId query,
                                     const Evidence& evidence = {}) const;

  /// Exact posteriors of *every* variable given `evidence`, indexed by
  /// VariableId (observed variables hold their deltas). Under the
  /// kJunctionTree and kAuto backends this is one calibrated message
  /// pass; under kVariableElimination it loops `query`. Throws like
  /// `query` on impossible evidence.
  [[nodiscard]] std::vector<prob::Categorical> all_marginals(
      const Evidence& evidence = {}) const;

  /// Bounded posterior of one query via loopy BP: the point estimate
  /// plus a certified interval containing the true P(query | evidence).
  /// Available under every backend (the BP run is cached by evidence
  /// assignment); throws like `query` on impossible evidence.
  [[nodiscard]] BoundedPosterior query_bounded(
      VariableId query, const Evidence& evidence = {}) const;

  /// Bounded posteriors of every variable via loopy BP, indexed by
  /// VariableId (observed variables hold zero-width deltas).
  [[nodiscard]] std::vector<BoundedPosterior> all_marginals_bounded(
      const Evidence& evidence = {}) const;

  /// Probability of the evidence, P(e).
  [[nodiscard]] double evidence_probability(const Evidence& evidence) const;

  /// log P(e); -infinity when the evidence is impossible (no throw).
  [[nodiscard]] double log_evidence_probability(const Evidence& evidence) const;

  /// Exact joint of two distinct unobserved variables given evidence.
  [[nodiscard]] prob::JointTable joint(VariableId a, VariableId b,
                                       const Evidence& evidence = {}) const;

  /// Exact posteriors for a batch of queries, fanned across the thread
  /// pool. result[i] corresponds to batch[i]; results are byte-identical
  /// for any thread count. The first failing query's exception (e.g.
  /// impossible evidence) is rethrown after the batch finishes.
  [[nodiscard]] std::vector<prob::Categorical> query_batch(
      const std::vector<QuerySpec>& batch) const;

  /// Approximate posteriors by likelihood weighting, `samples` draws per
  /// query. Query i draws from an RNG stream derived from (seed, i), so a
  /// fixed seed yields byte-identical results for any thread count.
  [[nodiscard]] std::vector<prob::Categorical> sample_batch(
      const std::vector<QuerySpec>& batch, std::size_t samples,
      std::uint64_t seed) const;

  /// Ordering-cache statistics since construction / the last clear /
  /// the last reset_cache_stats().
  [[nodiscard]] CacheStats cache_stats() const;

  /// Calibrated-tree cache statistics (same windowing rules). Unlike the
  /// ordering cache, entries here are keyed by the *full* evidence
  /// assignment — two evidence maps sharing keys but differing in any
  /// value never share a calibrated tree.
  [[nodiscard]] CacheStats jt_cache_stats() const;

  /// Loopy-BP run cache statistics (same windowing rules; keyed by the
  /// full evidence assignment like the junction-tree cache).
  [[nodiscard]] CacheStats bp_cache_stats() const;

  /// Zeroes the hit/miss counters (ordering and junction-tree caches)
  /// without dropping cached plans or calibrated trees, so long-running
  /// batch loops can window their stats per batch. The process-wide obs
  /// counters are unaffected (they aggregate forever).
  void reset_cache_stats();

  void clear_cache();

 private:
  class Pool;

  // Key: sorted evidence keys. The cached ordering eliminates *every*
  // unobserved variable; queries skip their kept variables at execution
  // time, so one plan serves all queries sharing an evidence signature.
  using OrderingKey = std::vector<VariableId>;
  // Key: the full evidence assignment (sorted key/value pairs). Exact —
  // calibrated beliefs depend on evidence values, so signatures that a
  // lossy hash would conflate stay distinct by construction.
  using TreeKey = std::vector<std::pair<VariableId, std::size_t>>;

  const BayesianNetwork& net_;              // sysuq-thread-confined(init)
  Options options_;                         // sysuq-thread-confined(init)
  std::size_t threads_;                     // sysuq-thread-confined(init)
  // One per variable, built once.  sysuq-thread-confined(init)
  std::vector<Factor> cpt_factors_;
  std::unique_ptr<Pool> pool_;              // sysuq-thread-confined(init)

  mutable std::mutex cache_mu_;
  // sysuq-guarded-by(cache_mu_)
  mutable std::map<OrderingKey, std::shared_ptr<const EliminationOrdering>> cache_;
  mutable std::size_t cache_hits_ = 0;      // sysuq-guarded-by(cache_mu_)
  mutable std::size_t cache_misses_ = 0;    // sysuq-guarded-by(cache_mu_)
  // Junction-tree structures by evidence-keys signature, shared by every
  // calibrated tree over those keys.  sysuq-guarded-by(cache_mu_)
  mutable std::map<OrderingKey, std::shared_ptr<const JunctionTree::Structure>> jt_structures_;
  // sysuq-guarded-by(cache_mu_)
  mutable std::map<TreeKey, std::shared_ptr<const JunctionTree>> jt_cache_;
  mutable std::size_t jt_cache_hits_ = 0;   // sysuq-guarded-by(cache_mu_)
  mutable std::size_t jt_cache_misses_ = 0; // sysuq-guarded-by(cache_mu_)
  // sysuq-guarded-by(cache_mu_)
  mutable std::map<TreeKey, std::shared_ptr<const LoopyBP>> bp_cache_;
  mutable std::size_t bp_cache_hits_ = 0;   // sysuq-guarded-by(cache_mu_)
  mutable std::size_t bp_cache_misses_ = 0; // sysuq-guarded-by(cache_mu_)
  // kAuto feasibility guard memo per evidence-keys signature: the
  // largest simulated elimination table (cells) — one symbolic replay
  // per signature, not per query — and the ordering replayed, which the
  // ordering cache's miss path then adopts instead of recomputing.
  struct PlanCells {
    std::size_t max_cells = 0;
    std::shared_ptr<const EliminationOrdering> ordering;
  };
  // sysuq-guarded-by(cache_mu_)
  mutable std::map<OrderingKey, PlanCells> plan_cells_;
  // Arena bytes live at the peak of the most recent VE elimination on
  // any thread (captured before the final arena reset). Relaxed: a
  // diagnostic figure for explain(), not synchronization.
  mutable std::atomic<std::size_t> last_ve_arena_high_water_{0};

  // Takes cache_mu_ itself; calling it with the lock held self-deadlocks.
  // sysuq-excludes(cache_mu_)
  [[nodiscard]] std::shared_ptr<const EliminationOrdering> ordering_for(
      const Evidence& evidence) const;
  /// Runs the configured heuristic for `key` (no caching, no lock).
  [[nodiscard]] std::shared_ptr<const EliminationOrdering> compute_ordering(
      const OrderingKey& key) const;
  /// An ordering already computed for `key` by any path (ordering cache,
  /// kAuto guard memo, junction-tree structures), or null. Records no
  /// cache stats.
  // sysuq-requires(cache_mu_)
  [[nodiscard]] std::shared_ptr<const EliminationOrdering> known_ordering(
      const OrderingKey& key) const;
  /// The junction-tree structure for `evidence`'s keys, built on a miss
  /// and memoized (stats-invisible: the tree cache counts the miss).
  // sysuq-excludes(cache_mu_)
  [[nodiscard]] std::shared_ptr<const JunctionTree::Structure> structure_for(
      const Evidence& evidence) const;
  /// Scaled elimination over views of the cached CPT factors (no
  /// per-query deep copies); evidence reductions and all intermediates
  /// live in the per-thread scratch arena. The log normalizer lets the
  /// impossible-evidence checks distinguish genuine zero mass from
  /// deep-chain underflow.
  [[nodiscard]] kernels::ScaledFactor eliminate_all_but(
      const std::vector<VariableId>& keep, const Evidence& evidence) const;
  /// The calibrated tree for `evidence`, built on a miss and memoized.
  // sysuq-excludes(cache_mu_)
  [[nodiscard]] std::shared_ptr<const JunctionTree> calibrated_tree_for(
      const Evidence& evidence) const;
  /// The loopy-BP run for `evidence`, built on a miss and memoized. A
  /// run that fails to converge under the configured damping is retried
  /// once at damping 0.5 (deterministic), keeping whichever converged.
  // sysuq-excludes(cache_mu_)
  [[nodiscard]] std::shared_ptr<const LoopyBP> bp_for(
      const Evidence& evidence) const;
  /// kAuto feasibility guard: largest intermediate table (cells) of the
  /// cached elimination plan under `evidence` (memoized per signature).
  // sysuq-excludes(cache_mu_)
  [[nodiscard]] std::size_t exact_plan_max_cells(const Evidence& evidence) const;
  /// True when kAuto must leave the exact backends for `evidence`;
  /// throws ContractViolation when escalation is needed but disabled.
  [[nodiscard]] bool auto_escalates_to_bp(const Evidence& evidence) const;
  [[nodiscard]] prob::Categorical query_ve(VariableId query,
                                           const Evidence& evidence) const;
  /// Cache peeks for explain()'s hit attribution (no stats recorded).
  [[nodiscard]] bool ordering_cached(const Evidence& evidence) const;
  [[nodiscard]] bool tree_cached(const Evidence& evidence) const;
  [[nodiscard]] bool bp_cached(const Evidence& evidence) const;
};

}  // namespace sysuq::bayesnet
