#include "bayesnet/loopy_bp.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <utility>

#include "bayesnet/inference.hpp"
#include "bayesnet/kernels.hpp"
#include "core/contracts.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace sysuq::bayesnet {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Loopy-BP instruments, registered once on first use. Counters and
// histograms aggregate across every run in the process; the engine's
// kAuto escalation counter lives in engine.cpp next to its guard.
struct BpMetrics {
  obs::Counter& runs;
  obs::Counter& nonconverged;
  obs::Histogram& iterations;
  obs::Histogram& residual;
  obs::Histogram& bound_width;

  static BpMetrics& instance() {
    auto& reg = obs::Registry::global();
    static BpMetrics m{
        reg.counter("bayesnet.bp.runs"),
        reg.counter("bayesnet.bp.nonconverged"),
        reg.histogram("bayesnet.bp.iterations", obs::count_buckets()),
        reg.histogram(
            "bayesnet.bp.residual",
            {1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 1e-1, 1.0}),  // sysuq-lint-allow(magic-epsilon): histogram bucket boundaries, not comparison slack
        reg.histogram(
            "bayesnet.bp.bound_width",
            {1e-12, 1e-9, 1e-6, 1e-3, 1e-2, 0.1, 0.25, 0.5, 1.0}),  // sysuq-lint-allow(magic-epsilon): histogram bucket boundaries, not comparison slack
    };
    return m;
  }
};

// Union-find over the factor-graph nodes, for the acyclicity check.
class DisjointSets {
 public:
  explicit DisjointSets(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  /// Returns false when a and b were already connected (a cycle).
  bool unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    parent_[a] = b;
    return true;
  }

 private:
  std::vector<std::size_t> parent_;
};

/// Log dynamic range between two normalized message vectors:
/// max_i log(a[i]/b[i]) - min_i log(a[i]/b[i]). Entries where both are
/// zero agree exactly and are skipped; a one-sided zero is an infinite
/// ratio. 0 when every entry is skipped or the vectors coincide.
double log_range_between(const std::vector<double>& a,
                         const std::vector<double>& b) {
  double lo = kInf, hi = -kInf;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] == 0.0 && b[i] == 0.0) continue;  // sysuq-lint-allow(float-eq): exactly-zero mass agrees exactly
    if (a[i] == 0.0 || b[i] == 0.0) return kInf;  // sysuq-lint-allow(float-eq): one-sided exact zero is an infinite ratio
    // sysuq-lint-allow(log-domain): ratio of two linear probabilities, logged once
    const double r = std::log(a[i] / b[i]);
    lo = std::min(lo, r);
    hi = std::max(hi, r);
  }
  if (!(hi >= lo)) return 0.0;  // all entries skipped
  return hi - lo;
}

}  // namespace

double BoundedPosterior::width() const {
  double w = 0.0;
  for (std::size_t i = 0; i < lo.size(); ++i) w = std::max(w, hi[i] - lo[i]);
  return w;
}

bool BoundedPosterior::contains(const std::vector<double>& probs,
                                double slack) const {
  if (probs.size() != lo.size()) return false;
  for (std::size_t i = 0; i < probs.size(); ++i) {
    if (probs[i] < lo[i] - slack || probs[i] > hi[i] + slack) return false;
  }
  return true;
}

LoopyBP::LoopyBP(const BayesianNetwork& net, const Evidence& evidence)
    : LoopyBP(net, evidence, Options{}) {}

LoopyBP::LoopyBP(const BayesianNetwork& net, const Evidence& evidence,
                 Options options)
    : LoopyBP(net, evidence, options, net.cpt_factors()) {}

LoopyBP::LoopyBP(const BayesianNetwork& net, const Evidence& evidence,
                 Options options, const std::vector<Factor>& cpt_factors)
    : net_(net), evidence_(evidence), options_(options) {
  SYSUQ_EXPECT(options_.max_iterations >= 1,
               "LoopyBP: max_iterations must be >= 1");
  SYSUQ_EXPECT(options_.damping >= 0.0 && options_.damping < 1.0,
               "LoopyBP: damping must be in [0, 1)");
  SYSUQ_EXPECT(options_.tolerance > 0.0, "LoopyBP: tolerance must be > 0");
  SYSUQ_EXPECT(options_.max_blanket_configs >= 1,
               "LoopyBP: max_blanket_configs must be >= 1");
  net_.validate();
  SYSUQ_EXPECT(cpt_factors.size() == net_.size(),
               "LoopyBP: one CPT factor per variable");
  for (const auto& [v, state] : evidence_) {
    if (v >= net_.size())
      throw std::out_of_range("LoopyBP: evidence variable id");
    if (state >= net_.variable(v).cardinality())
      throw std::out_of_range("LoopyBP: evidence state index");
  }

  const obs::Span span("bayesnet.bp.run");
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  build_factor_graph(cpt_factors);
  if (!impossible_) run_message_passing();
  if (!impossible_) extract_marginals();
  const auto t1 = clock::now();
  if (!impossible_) certify_bounds();
  const auto t2 = clock::now();
  propagation_seconds_ = std::chrono::duration<double>(t1 - t0).count();
  certification_seconds_ = std::chrono::duration<double>(t2 - t1).count();
  build_seconds_ = propagation_seconds_ + certification_seconds_;

  auto& metrics = BpMetrics::instance();
  metrics.runs.inc();
  if (!impossible_ && !converged_) metrics.nonconverged.inc();
  metrics.iterations.observe(static_cast<double>(iterations_));
  if (std::isfinite(final_residual_)) metrics.residual.observe(final_residual_);
  metrics.bound_width.observe(max_bound_width_);
}

void LoopyBP::build_factor_graph(const std::vector<Factor>& cpt_factors) {
  edges_of_var_.assign(net_.size(), {});
  factors_.reserve(net_.size());
  for (VariableId child = 0; child < net_.size(); ++child) {
    // Reduced straight off the shared factor: only a family without
    // evidence is copied whole.
    std::optional<Factor> reduced;
    for (const auto& [ev, state] : evidence_) {
      const Factor& cur = reduced ? *reduced : cpt_factors[child];
      if (cur.contains(ev)) reduced = cur.reduce(ev, state);
    }
    const Factor& f = reduced ? *reduced : cpt_factors[child];
    if (f.scope().empty()) {
      // Fully observed family: a constant multiplying P(e). Zero means
      // the evidence directly contradicts this CPT.
      if (f.values().empty() || f.values().front() <= 0.0) impossible_ = true;
      continue;
    }
    if (reduced) {
      factors_.push_back(std::move(*reduced));
    } else {
      factors_.push_back(f);
    }
  }

  // Edges in factor-index then scope-position order — this IS the
  // deterministic flooding schedule.
  DisjointSets components(net_.size() + factors_.size());
  acyclic_ = true;
  for (std::size_t fi = 0; fi < factors_.size(); ++fi) {
    const auto& scope = factors_[fi].scope();
    for (std::size_t pos = 0; pos < scope.size(); ++pos) {
      const VariableId v = scope[pos];
      Edge e;
      e.factor = fi;
      e.var = v;
      e.pos = pos;
      const double card = static_cast<double>(net_.variable(v).cardinality());
      e.to_var.assign(net_.variable(v).cardinality(), 1.0 / card);
      e.to_factor = e.to_var;
      edges_of_var_[v].push_back(edges_.size());
      edges_.push_back(std::move(e));
      if (!components.unite(v, net_.size() + fi)) acyclic_ = false;
    }
  }
}

void LoopyBP::run_message_passing() {
  // Edge ids are contiguous per factor in scope order, so the incoming
  // (var->factor) and staged outgoing (factor->var) messages of factor
  // fi are the pointer runs starting at first_edge[fi]. Every message
  // vector keeps its size for the whole run, so the pointers stay valid.
  std::vector<std::size_t> first_edge(factors_.size(), 0);
  for (std::size_t e = 0; e < edges_.size(); ++e) {
    if (edges_[e].pos == 0) first_edge[edges_[e].factor] = e;
  }
  std::vector<std::vector<double>> staged(edges_.size());
  std::vector<const double*> in(edges_.size());
  std::vector<double*> out(edges_.size());
  for (std::size_t e = 0; e < edges_.size(); ++e) {
    staged[e].resize(edges_[e].to_var.size());
    in[e] = edges_[e].to_factor.data();
    out[e] = staged[e].data();
  }

  // Every undamped factor->var update, computed from the current
  // var->factor messages into `staged` (normalized): one fused kernel
  // sweep per factor. False when an update has zero mass (impossible
  // evidence).
  const auto update_all = [&] {
    for (std::size_t fi = 0; fi < factors_.size(); ++fi) {
      kernels::factor_messages(kernels::view_of(factors_[fi]),
                               in.data() + first_edge[fi],
                               out.data() + first_edge[fi]);
    }
    for (auto& msg : staged) {
      const double total = kernels::total(msg.data(), msg.size());
      if (total <= 0.0) return false;
      kernels::scale(msg.data(), msg.size(), 1.0 / total);
    }
    return true;
  };

  for (std::size_t iter = 1; iter <= options_.max_iterations; ++iter) {
    iterations_ = iter;
    double residual = 0.0;

    // Phase 1: every factor->var message from the old var->factor set.
    if (!update_all()) {
      impossible_ = true;
      return;
    }
    for (std::size_t eid = 0; eid < edges_.size(); ++eid) {
      const Edge& e = edges_[eid];
      for (std::size_t i = 0; i < staged[eid].size(); ++i) {
        residual = std::max(residual, std::abs(staged[eid][i] - e.to_var[i]));
      }
    }
    for (std::size_t eid = 0; eid < edges_.size(); ++eid) {
      Edge& e = edges_[eid];
      if (options_.damping > 0.0) {
        for (std::size_t i = 0; i < e.to_var.size(); ++i) {
          e.to_var[i] = (1.0 - options_.damping) * staged[eid][i] +
                        options_.damping * e.to_var[i];
        }
        const double total = kernels::total(e.to_var.data(), e.to_var.size());
        kernels::scale(e.to_var.data(), e.to_var.size(), 1.0 / total);
      } else {
        e.to_var = staged[eid];
      }
    }

    // Phase 2: every var->factor message from the fresh factor->var set.
    for (std::size_t eid = 0; eid < edges_.size(); ++eid) {
      Edge& e = edges_[eid];
      std::fill(e.to_factor.begin(), e.to_factor.end(), 1.0);
      for (const std::size_t other : edges_of_var_[e.var]) {
        if (other == eid) continue;
        const auto& m = edges_[other].to_var;
        for (std::size_t i = 0; i < m.size(); ++i) e.to_factor[i] *= m[i];
      }
      const double total =
          kernels::total(e.to_factor.data(), e.to_factor.size());
      if (total <= 0.0) {
        impossible_ = true;
        return;
      }
      kernels::scale(e.to_factor.data(), e.to_factor.size(), 1.0 / total);
    }

    final_residual_ = residual;
    if (residual < options_.tolerance) {
      converged_ = true;
      break;
    }
  }

  // One extra undamped sweep measures how far the resting messages are
  // from a single application of the update operator — the residual
  // input b_e of the contraction system.
  if (!update_all()) {
    impossible_ = true;
    return;
  }
  for (std::size_t eid = 0; eid < edges_.size(); ++eid) {
    edges_[eid].residual_log_range =
        log_range_between(staged[eid], edges_[eid].to_var);
  }
}

void LoopyBP::extract_marginals() {
  marginals_.resize(net_.size());
  std::vector<double> belief;
  for (VariableId v = 0; v < net_.size(); ++v) {
    BoundedPosterior& out = marginals_[v];
    out.converged = converged_;
    if (const auto it = evidence_.find(v); it != evidence_.end()) {
      out.point = prob::Categorical::delta(it->second,
                                           net_.variable(v).cardinality());
      out.lo = out.point.probs();
      out.hi = out.point.probs();
      continue;
    }
    belief.assign(net_.variable(v).cardinality(), 1.0);
    for (const std::size_t eid : edges_of_var_[v]) {
      const auto& m = edges_[eid].to_var;
      for (std::size_t i = 0; i < m.size(); ++i) belief[i] *= m[i];
    }
    const double total = kernels::total(belief.data(), belief.size());
    if (total <= 0.0) {
      impossible_ = true;
      return;
    }
    kernels::scale(belief.data(), belief.size(), 1.0 / total);
    // Guard fp drift so Categorical's normalization contract holds.
    out.point = prob::Categorical::normalized(belief);
    out.lo.assign(belief.size(), 0.0);
    out.hi.assign(belief.size(), 1.0);
  }
}

void LoopyBP::certify_bounds() {
  // --- Contraction system over the factor-graph edges -----------------
  // Per factor: dynamic range D = max psi / min psi, Dobrushin-style
  // contraction rate (D-1)/(D+1), and an absolute log-range cap log D
  // (a single factor cannot skew any message by more than its own
  // dynamic range). A factor with zero entries has D = inf: rate 1,
  // no cap.
  std::vector<double> rate(factors_.size()), cap(factors_.size());
  for (std::size_t fi = 0; fi < factors_.size(); ++fi) {
    const auto& vals = factors_[fi].values();
    double vmin = kInf, vmax = 0.0;
    for (const double x : vals) {
      vmin = std::min(vmin, x);
      vmax = std::max(vmax, x);
    }
    if (vmin <= 0.0) {
      rate[fi] = 1.0;
      cap[fi] = kInf;
    } else {
      const double d = vmax / vmin;
      rate[fi] = (d - 1.0) / (d + 1.0);
      cap[fi] = std::log(d);
    }
  }

  // Fixpoint-distance system: eps_e bounds the log-range distance from
  // the resting message on edge e = (f -> v) to the BP fixpoint,
  //   eps_e = b_e + min(cap_f, rate_f * sum of upstream eps),
  // seeded from the sound overestimate b_e + cap_f and iterated
  // monotonically downward (every iterate stays a valid bound).
  for (Edge& e : edges_) {
    e.fixpoint_eps = e.residual_log_range + cap[e.factor];
  }
  std::vector<double> next_eps(edges_.size());
  for (std::size_t sweep = 0; sweep < 100; ++sweep) {
    double change = 0.0;
    for (std::size_t eid = 0; eid < edges_.size(); ++eid) {
      const Edge& e = edges_[eid];
      double upstream = 0.0;
      const auto& scope = factors_[e.factor].scope();
      for (std::size_t pos = 0; pos < scope.size(); ++pos) {
        if (pos == e.pos) continue;
        for (const std::size_t in : edges_of_var_[scope[pos]]) {
          if (edges_[in].factor == e.factor) continue;
          upstream += edges_[in].fixpoint_eps;
        }
      }
      // sysuq-lint-allow(log-domain): contraction rate scaling a log-range magnitude — the Ihler bound, not a domain mixup
      const double contracted = rate[e.factor] == 0.0  // sysuq-lint-allow(float-eq): guard 0 * inf when a uniform factor meets an unbounded upstream
                                    ? 0.0
                                    : rate[e.factor] * upstream;
      next_eps[eid] =
          e.residual_log_range + std::min(cap[e.factor], contracted);
      if (std::isfinite(next_eps[eid]) || std::isfinite(e.fixpoint_eps)) {
        change = std::max(change, std::abs(e.fixpoint_eps - next_eps[eid]));
      }
    }
    for (std::size_t eid = 0; eid < edges_.size(); ++eid) {
      edges_[eid].fixpoint_eps = next_eps[eid];
    }
    if (change < tolerance::kFixpoint) break;
  }

  // --- Per-variable certified intervals -------------------------------
  max_bound_width_ = 0.0;
  std::vector<double> w_lo, w_hi;
  std::vector<kernels::View> views;
  std::vector<std::size_t> blanket_cards;
  for (VariableId v = 0; v < net_.size(); ++v) {
    if (evidence_.contains(v)) continue;
    BoundedPosterior& out = marginals_[v];
    const std::size_t card = net_.variable(v).cardinality();

    // Markov-blanket convexity box, sound on every graph: P(v | e) is a
    // convex combination over blanket configurations b of
    // P(v | B = b, e), and given the full blanket only the factors
    // touching v matter. Enumerate b exactly while feasible; otherwise
    // relax each factor to its per-state min/max envelope.
    std::vector<std::size_t> touching;
    for (const std::size_t eid : edges_of_var_[v]) {
      touching.push_back(edges_[eid].factor);
    }
    std::vector<VariableId> blanket;
    for (const std::size_t fi : touching) {
      for (const VariableId u : factors_[fi].scope()) {
        if (u != v) blanket.push_back(u);
      }
    }
    std::sort(blanket.begin(), blanket.end());
    blanket.erase(std::unique(blanket.begin(), blanket.end()), blanket.end());

    blanket_cards.clear();
    for (const VariableId u : blanket) {
      blanket_cards.push_back(net_.variable(u).cardinality());
    }
    std::size_t configs = 1;
    for (const std::size_t c : blanket_cards) {
      if (kernels::mul_overflows(configs, c)) {
        configs = options_.max_blanket_configs + 1;
        break;
      }
      configs *= c;
      if (configs > options_.max_blanket_configs) break;
    }

    bool any_feasible = false;
    if (configs <= options_.max_blanket_configs) {
      // Exact enumeration: envelope the conditional P(v | B = b, e) over
      // every blanket assignment b.
      views.clear();
      for (const std::size_t fi : touching) {
        views.push_back(kernels::view_of(factors_[fi]));
      }
      out.lo.resize(card);
      out.hi.resize(card);
      any_feasible = kernels::blanket_box(
          views.data(), views.size(), v, blanket.data(), blanket_cards.data(),
          blanket.size(), out.lo.data(), out.hi.data());
    } else {
      // Relaxation: per state i, bound the weight each factor can
      // contribute by its min/max over all blanket completions; the
      // worst-case mixture of those envelopes bounds the conditional.
      w_lo.assign(card, 1.0);
      w_hi.assign(card, 1.0);
      for (const std::size_t fi : touching) {
        const Factor& fac = factors_[fi];
        const auto& scope = fac.scope();
        const std::size_t pos = static_cast<std::size_t>(
            std::lower_bound(scope.begin(), scope.end(), v) - scope.begin());
        std::size_t stride = 1;
        for (std::size_t k = scope.size(); k-- > pos + 1;) {
          stride *= fac.cardinalities()[k];
        }
        std::vector<double> fmin(card, kInf), fmax(card, 0.0);
        const auto& vals = fac.values();
        // Row-major walk: blocks of card runs of `stride` cells, run i
        // holding v = i.
        for (std::size_t base = 0; base < vals.size(); base += card * stride) {
          for (std::size_t i = 0; i < card; ++i) {
            const double* run = vals.data() + base + i * stride;
            for (std::size_t j = 0; j < stride; ++j) {
              fmin[i] = std::min(fmin[i], run[j]);
              fmax[i] = std::max(fmax[i], run[j]);
            }
          }
        }
        for (std::size_t i = 0; i < card; ++i) {
          w_lo[i] *= fmin[i];
          w_hi[i] *= fmax[i];
        }
      }
      out.lo.assign(card, 0.0);
      out.hi.assign(card, 1.0);
      double hi_total = 0.0;
      for (const double x : w_hi) hi_total += x;
      if (hi_total > 0.0) any_feasible = true;
      for (std::size_t i = 0; i < card; ++i) {
        if (w_hi[i] <= 0.0) {
          out.lo[i] = 0.0;
          out.hi[i] = 0.0;
          continue;
        }
        double other_hi = 0.0, other_lo = 0.0;
        for (std::size_t j = 0; j < card; ++j) {
          if (j == i) continue;
          other_hi += w_hi[j];
          other_lo += w_lo[j];
        }
        const double lo_den = w_lo[i] + other_hi;
        out.lo[i] = lo_den > 0.0 ? w_lo[i] / lo_den : 1.0;
        out.hi[i] = w_hi[i] / (w_hi[i] + other_lo);
      }
    }
    if (!any_feasible) {
      // Every blanket completion carries zero mass: the evidence itself
      // is impossible. Message passing normally catches this first; the
      // envelope is the backstop.
      impossible_ = true;
      return;
    }

    // Contraction box: on an acyclic factor graph the BP fixpoint is
    // the true posterior, so the certified fixpoint distance becomes a
    // certified truth interval — intersect it with the blanket box.
    // On loopy graphs it only measures distance-to-fixpoint and is not
    // applied.
    if (acyclic_) {
      double belief_log_range = 0.0;
      for (const std::size_t eid : edges_of_var_[v]) {
        belief_log_range += edges_[eid].fixpoint_eps;
      }
      for (std::size_t i = 0; i < card; ++i) {
        const double p = out.point.p(i);
        double clo, chi;
        if (p <= 0.0) {
          // Message zeros only ever arise from factor zeros (supports
          // shrink monotonically from full), so a zero belief entry is
          // exact on any graph.
          clo = 0.0;
          chi = 0.0;
        } else if (p >= 1.0) {
          clo = 1.0;
          chi = 1.0;
        } else if (!std::isfinite(belief_log_range)) {
          clo = 0.0;
          chi = 1.0;
        } else {
          // A log-range shift of at most L around the belief moves the
          // normalized mass to p / (p + (1-p) e^{+/-L}).
          clo = p / (p + (1.0 - p) * std::exp(belief_log_range));
          chi = p / (p + (1.0 - p) * std::exp(-belief_log_range));
        }
        const double lo2 = std::max(out.lo[i], clo);
        const double hi2 = std::min(out.hi[i], chi);
        if (lo2 <= hi2) {
          out.lo[i] = lo2;
          out.hi[i] = hi2;
        }
      }
    }

    // Hull with the point estimate and clamp: the reported point always
    // sits inside its own certificate.
    for (std::size_t i = 0; i < card; ++i) {
      out.lo[i] = std::clamp(std::min(out.lo[i], out.point.p(i)), 0.0, 1.0);
      out.hi[i] = std::clamp(std::max(out.hi[i], out.point.p(i)), 0.0, 1.0);
    }
    max_bound_width_ = std::max(max_bound_width_, out.width());
  }
}

const BoundedPosterior& LoopyBP::query(VariableId v) const {
  if (v >= net_.size()) throw std::out_of_range("LoopyBP: variable id");
  if (impossible_) throw_impossible();
  return marginals_[v];
}

const std::vector<BoundedPosterior>& LoopyBP::all_marginals() const {
  if (impossible_) throw_impossible();
  return marginals_;
}

void LoopyBP::throw_impossible() const {
  throw std::domain_error(impossible_evidence_message(net_, evidence_));
}

}  // namespace sysuq::bayesnet
