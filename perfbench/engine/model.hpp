// Plain, library-independent model of the benchmark's networks: the
// seeded generators that make every input, the `.bn` text the engine
// parses, and the correctness references. Nothing here uses sysuq's
// Factor, kernels or inference code, so a fault in those cannot hide
// behind a reference that shares it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// splitmix64: small, fast, and identical on every platform, so a seed
/// names the same inputs everywhere.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  /// Uniform in [0, n).
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t s_;
};

/// Derives an independent stream for one purpose of one run.
std::uint64_t stream_seed(std::uint64_t seed, const char* purpose);

/// One variable: parents precede it (variables are stored in a
/// topological order), and `cpt` holds one row of `card` probabilities
/// per parent configuration, last parent varying fastest — the `.bn`
/// layout.
struct PlainVar {
  std::string name;
  std::size_t card = 2;
  std::vector<std::size_t> parents;
  std::vector<double> cpt;
};

struct PlainNet {
  std::vector<PlainVar> vars;
};

/// Observed (variable, state) pairs, sorted by variable.
using PlainEvidence = std::vector<std::pair<std::size_t, std::size_t>>;

/// Noisy-OR parameters of a two-layer diagnosis network: binary causes
/// (state 1 = present) with priors, binary findings (state 1 = positive)
/// with a leak and one link probability per parent cause.
struct NoisyOr {
  std::vector<double> prior;                 ///< per cause
  std::vector<double> leak;                  ///< per finding
  std::vector<std::vector<std::size_t>> pa;  ///< per finding: causes
  std::vector<std::vector<double>> link;     ///< per finding: q per cause
};

/// Random banded DAG: variable i takes up to `max_parents` parents from
/// the previous `window` variables; cardinalities are 2..4. The shape
/// comes from `shape_seed`, the CPT values from `value_seed`.
PlainNet banded_net(std::uint64_t shape_seed, std::uint64_t value_seed, std::size_t n,
                    std::size_t window, std::size_t max_parents);

/// Random causes -> findings noisy-OR network, each finding with
/// `fan_in` distinct parent causes. The links come from `shape_seed`,
/// priors, leaks and link strengths from `value_seed`.
NoisyOr noisy_or_params(std::uint64_t shape_seed, std::uint64_t value_seed,
                        std::size_t causes, std::size_t findings, std::size_t fan_in);

/// The full CPT form of a noisy-OR network: causes are variables
/// 0..C-1, findings C..C+F-1.
PlainNet noisy_or_net(const NoisyOr& m);

/// The network in sysuq's `.bn` text format (17 significant digits, so
/// the parsed CPTs equal the generated ones bit for bit).
std::string to_bn_text(const PlainNet& net);

// --- references ---

/// Exact P(query | evidence) by plain-array variable elimination in
/// reverse topological order. Cheap on banded networks, where every
/// intermediate table stays inside a window of the order.
std::vector<double> reference_posterior(const PlainNet& net, std::size_t query,
                                        const PlainEvidence& evidence);

/// Exact P(query | evidence) by enumerating every joint assignment.
/// Only for tiny networks; checks the two faster references.
std::vector<double> brute_force_posterior(const PlainNet& net, std::size_t query,
                                          const PlainEvidence& evidence);

/// Exact posteriors of every variable of a noisy-OR network by
/// Quickscore (Heckerman 1989): inclusion-exclusion over the positive
/// findings, a product over causes for each term. Observed variables get
/// deltas. Exponential only in the number of positive findings.
std::vector<std::vector<double>> quickscore_marginals(
    const NoisyOr& m, const PlainEvidence& evidence);

/// Checks both references against brute force on tiny generated
/// networks; returns an empty string or a description of the failure.
std::string reference_self_check(std::uint64_t seed);

}  // namespace perfbench
