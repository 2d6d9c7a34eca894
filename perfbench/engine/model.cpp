#include "model.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

std::uint64_t stream_seed(std::uint64_t seed, const char* purpose) {
  std::uint64_t h = 0xCBF29CE484222325ULL;  // FNV-1a of the purpose
  for (const char* p = purpose; *p != '\0'; ++p) {
    h ^= static_cast<unsigned char>(*p);
    h *= 0x100000001B3ULL;
  }
  Rng mix(seed ^ h);
  return mix.next();
}

namespace {

std::vector<double> random_row(Rng& rng, std::size_t card) {
  // Bounded away from 0 so every evidence assignment stays possible.
  std::vector<double> w(card);
  double sum = 0.0;
  for (double& x : w) {
    x = rng.uniform(0.05, 1.0);
    sum += x;
  }
  for (double& x : w) x /= sum;
  return w;
}

std::size_t row_count(const PlainNet& net, const PlainVar& v) {
  std::size_t rows = 1;
  for (std::size_t p : v.parents) rows *= net.vars[p].card;
  return rows;
}

}  // namespace

PlainNet banded_net(std::uint64_t shape_seed, std::uint64_t value_seed, std::size_t n,
                    std::size_t window, std::size_t max_parents) {
  Rng shape(shape_seed);
  Rng value(value_seed);
  PlainNet net;
  net.vars.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    PlainVar& v = net.vars[i];
    v.name = "v" + std::to_string(i);
    v.card = 2 + shape.below(3);
    const std::size_t lo = i > window ? i - window : 0;
    std::vector<std::size_t> candidates;
    for (std::size_t j = lo; j < i; ++j) candidates.push_back(j);
    const std::size_t k =
        std::min(candidates.size(), shape.below(max_parents + 1));
    for (std::size_t c = 0; c < k; ++c) {
      const std::size_t pick = c + shape.below(candidates.size() - c);
      std::swap(candidates[c], candidates[pick]);
      v.parents.push_back(candidates[c]);
    }
    std::sort(v.parents.begin(), v.parents.end());
    const std::size_t rows = row_count(net, v);
    for (std::size_t r = 0; r < rows; ++r) {
      const auto row = random_row(value, v.card);
      v.cpt.insert(v.cpt.end(), row.begin(), row.end());
    }
  }
  return net;
}

NoisyOr noisy_or_params(std::uint64_t shape_seed, std::uint64_t value_seed,
                        std::size_t causes, std::size_t findings, std::size_t fan_in) {
  Rng shape(shape_seed);
  Rng value(value_seed);
  NoisyOr m;
  for (std::size_t c = 0; c < causes; ++c) m.prior.push_back(value.uniform(0.01, 0.1));
  std::vector<std::size_t> all(causes);
  for (std::size_t c = 0; c < causes; ++c) all[c] = c;
  for (std::size_t f = 0; f < findings; ++f) {
    m.leak.push_back(value.uniform(0.001, 0.02));
    for (std::size_t c = 0; c < fan_in; ++c)
      std::swap(all[c], all[c + shape.below(causes - c)]);
    std::vector<std::size_t> pa(all.begin(), all.begin() + static_cast<long>(fan_in));
    std::sort(pa.begin(), pa.end());
    std::vector<double> q;
    for (std::size_t c = 0; c < fan_in; ++c) q.push_back(value.uniform(0.3, 0.9));
    m.pa.push_back(std::move(pa));
    m.link.push_back(std::move(q));
  }
  return m;
}

PlainNet noisy_or_net(const NoisyOr& m) {
  const std::size_t causes = m.prior.size();
  PlainNet net;
  for (std::size_t c = 0; c < causes; ++c) {
    PlainVar v;
    v.name = "c" + std::to_string(c);
    v.cpt = {1.0 - m.prior[c], m.prior[c]};
    net.vars.push_back(std::move(v));
  }
  for (std::size_t f = 0; f < m.leak.size(); ++f) {
    PlainVar v;
    v.name = "f" + std::to_string(f);
    v.parents = m.pa[f];
    const std::size_t k = v.parents.size();
    for (std::size_t cfg = 0; cfg < (std::size_t{1} << k); ++cfg) {
      double off = 1.0 - m.leak[f];
      for (std::size_t j = 0; j < k; ++j) {
        // Last parent varies fastest: parent j is bit (k-1-j).
        if ((cfg >> (k - 1 - j)) & 1U) off *= 1.0 - m.link[f][j];
      }
      v.cpt.push_back(off);
      v.cpt.push_back(1.0 - off);
    }
    net.vars.push_back(std::move(v));
  }
  return net;
}

std::string to_bn_text(const PlainNet& net) {
  std::string out = "sysuq-bayesnet 1\n";
  for (const PlainVar& v : net.vars) {
    out += "variable " + v.name;
    for (std::size_t s = 0; s < v.card; ++s) out += " s" + std::to_string(s);
    out += '\n';
  }
  char buf[32];
  for (const PlainVar& v : net.vars) {
    out += "cpt " + v.name + " |";
    for (std::size_t p : v.parents) out += " " + net.vars[p].name;
    out += '\n';
    for (std::size_t i = 0; i < v.cpt.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%.17g", v.cpt[i]);
      out += buf;
      out += (i + 1) % v.card == 0 ? '\n' : ' ';
    }
  }
  return out;
}

// --- plain-array variable elimination ---

namespace {

// A table over sorted `vars`, last variable varying fastest.
struct Table {
  std::vector<std::size_t> vars;
  std::vector<std::size_t> cards;
  std::vector<double> v;
};

Table cpt_table(const PlainNet& net, std::size_t i) {
  Table t;
  for (std::size_t p : net.vars[i].parents) {
    t.vars.push_back(p);
    t.cards.push_back(net.vars[p].card);
  }
  // Parents precede the child in the topological order, so the scope is
  // already sorted.
  t.vars.push_back(i);
  t.cards.push_back(net.vars[i].card);
  t.v = net.vars[i].cpt;
  return t;
}

Table reduce(const Table& t, std::size_t var, std::size_t state) {
  const auto pos = static_cast<std::size_t>(
      std::find(t.vars.begin(), t.vars.end(), var) - t.vars.begin());
  std::size_t inner = 1;
  for (std::size_t j = pos + 1; j < t.cards.size(); ++j) inner *= t.cards[j];
  const std::size_t card = t.cards[pos];
  const std::size_t outer = t.v.size() / (inner * card);
  Table r;
  for (std::size_t j = 0; j < t.vars.size(); ++j) {
    if (j == pos) continue;
    r.vars.push_back(t.vars[j]);
    r.cards.push_back(t.cards[j]);
  }
  r.v.reserve(outer * inner);
  for (std::size_t o = 0; o < outer; ++o)
    for (std::size_t k = 0; k < inner; ++k)
      r.v.push_back(t.v[(o * card + state) * inner + k]);
  return r;
}

// Multiplies `tables` and sums `var` out of the product (var may be
// absent, in which case the product alone is returned).
Table multiply_and_sum_out(const std::vector<const Table*>& tables,
                           std::size_t var) {
  std::vector<std::size_t> scope;
  std::vector<std::size_t> cards;
  for (const Table* t : tables) {
    for (std::size_t j = 0; j < t->vars.size(); ++j) {
      const auto it = std::lower_bound(scope.begin(), scope.end(), t->vars[j]);
      if (it != scope.end() && *it == t->vars[j]) continue;
      cards.insert(cards.begin() + (it - scope.begin()), t->cards[j]);
      scope.insert(it, t->vars[j]);
    }
  }
  const std::size_t d = scope.size();
  // Per-table stride of each scope position (0 when absent).
  std::vector<std::vector<std::size_t>> stride(tables.size(),
                                               std::vector<std::size_t>(d, 0));
  for (std::size_t k = 0; k < tables.size(); ++k) {
    const Table& t = *tables[k];
    std::size_t s = 1;
    for (std::size_t j = t.vars.size(); j-- > 0;) {
      const auto pos = static_cast<std::size_t>(
          std::lower_bound(scope.begin(), scope.end(), t.vars[j]) - scope.begin());
      stride[k][pos] = s;
      s *= t.cards[j];
    }
  }
  Table out;
  std::vector<std::size_t> out_stride(d, 0);
  {
    std::size_t s = 1;
    for (std::size_t j = d; j-- > 0;) {
      if (scope[j] == var) continue;
      out_stride[j] = s;
      s *= cards[j];
    }
    for (std::size_t j = 0; j < d; ++j) {
      if (scope[j] == var) continue;
      out.vars.push_back(scope[j]);
      out.cards.push_back(cards[j]);
    }
    out.v.assign(s, 0.0);
  }
  std::size_t total = 1;
  for (std::size_t c : cards) total *= c;
  std::vector<std::size_t> digit(d, 0);
  std::vector<std::size_t> idx(tables.size(), 0);
  std::size_t out_idx = 0;
  for (std::size_t cell = 0; cell < total; ++cell) {
    double p = 1.0;
    for (std::size_t k = 0; k < tables.size(); ++k) p *= tables[k]->v[idx[k]];
    out.v[out_idx] += p;
    // Odometer step, last position fastest.
    for (std::size_t j = d; j-- > 0;) {
      if (++digit[j] < cards[j]) {
        for (std::size_t k = 0; k < tables.size(); ++k) idx[k] += stride[k][j];
        out_idx += out_stride[j];
        break;
      }
      for (std::size_t k = 0; k < tables.size(); ++k)
        idx[k] -= (cards[j] - 1) * stride[k][j];
      out_idx -= (cards[j] - 1) * out_stride[j];
      digit[j] = 0;
    }
  }
  return out;
}

std::vector<double> normalized(std::vector<double> w) {
  double sum = 0.0;
  for (double x : w) sum += x;
  if (!(sum > 0.0)) throw std::runtime_error("reference: impossible evidence");
  for (double& x : w) x /= sum;
  return w;
}

std::vector<double> delta(std::size_t state, std::size_t card) {
  std::vector<double> d(card, 0.0);
  d[state] = 1.0;
  return d;
}

}  // namespace

std::vector<double> reference_posterior(const PlainNet& net, std::size_t query,
                                        const PlainEvidence& evidence) {
  const std::size_t n = net.vars.size();
  std::vector<int> observed(n, -1);
  for (const auto& [v, s] : evidence) observed[v] = static_cast<int>(s);
  if (observed[query] >= 0)
    return delta(static_cast<std::size_t>(observed[query]), net.vars[query].card);
  std::vector<Table> live;
  for (std::size_t i = 0; i < n; ++i) {
    Table t = cpt_table(net, i);
    for (const auto& [v, s] : evidence) {
      if (std::find(t.vars.begin(), t.vars.end(), v) != t.vars.end())
        t = reduce(t, v, s);
    }
    live.push_back(std::move(t));
  }
  for (std::size_t x = n; x-- > 0;) {
    if (x == query || observed[x] >= 0) continue;
    std::vector<Table> rest;
    std::vector<Table> with;
    for (Table& t : live) {
      if (std::find(t.vars.begin(), t.vars.end(), x) != t.vars.end())
        with.push_back(std::move(t));
      else
        rest.push_back(std::move(t));
    }
    std::vector<const Table*> ptrs;
    for (const Table& t : with) ptrs.push_back(&t);
    rest.push_back(multiply_and_sum_out(ptrs, x));
    live = std::move(rest);
  }
  std::vector<const Table*> ptrs;
  for (const Table& t : live) ptrs.push_back(&t);
  const Table last = multiply_and_sum_out(ptrs, n);  // n: sums nothing out
  if (last.vars.size() != 1 || last.vars[0] != query)
    throw std::logic_error("reference: unexpected result scope");
  return normalized(last.v);
}

std::vector<double> brute_force_posterior(const PlainNet& net, std::size_t query,
                                          const PlainEvidence& evidence) {
  const std::size_t n = net.vars.size();
  std::vector<std::size_t> x(n, 0);
  std::vector<double> post(net.vars[query].card, 0.0);
  for (;;) {
    bool consistent = true;
    for (const auto& [v, s] : evidence) consistent = consistent && x[v] == s;
    if (consistent) {
      double p = 1.0;
      for (std::size_t i = 0; i < n; ++i) {
        std::size_t row = 0;
        for (std::size_t par : net.vars[i].parents) row = row * net.vars[par].card + x[par];
        p *= net.vars[i].cpt[row * net.vars[i].card + x[i]];
      }
      post[x[query]] += p;
    }
    std::size_t j = 0;
    while (j < n && ++x[j] == net.vars[j].card) x[j++] = 0;
    if (j == n) break;
  }
  return normalized(post);
}

std::vector<std::vector<double>> quickscore_marginals(
    const NoisyOr& m, const PlainEvidence& evidence) {
  const std::size_t causes = m.prior.size();
  const std::size_t findings = m.leak.size();
  std::vector<int> obs(findings, -1);
  std::vector<std::size_t> positive;
  for (const auto& [v, s] : evidence) {
    if (v < causes) throw std::invalid_argument("quickscore: cause observed");
    obs[v - causes] = static_cast<int>(s);
    if (s == 1) positive.push_back(v - causes);
  }
  // Sum over subsets S of the positive findings, sign (-1)^|S|, of the
  // probability that every finding in N = negatives + S is negative.
  double p_e = 0.0;
  std::vector<double> joint_cause(causes, 0.0);      // P(c present, e)
  std::vector<double> joint_off(findings, 0.0);      // P(u negative, e)
  std::vector<double> keep(causes);
  std::vector<double> term(causes);
  for (std::size_t subset = 0; subset < (std::size_t{1} << positive.size()); ++subset) {
    std::vector<char> in_n(findings, 0);
    int sign = 1;
    for (std::size_t f = 0; f < findings; ++f) in_n[f] = obs[f] == 0;
    for (std::size_t j = 0; j < positive.size(); ++j) {
      if ((subset >> j) & 1U) {
        in_n[positive[j]] = 1;
        sign = -sign;
      }
    }
    double leak_term = 1.0;
    std::fill(keep.begin(), keep.end(), 1.0);
    for (std::size_t f = 0; f < findings; ++f) {
      if (!in_n[f]) continue;
      leak_term *= 1.0 - m.leak[f];
      for (std::size_t j = 0; j < m.pa[f].size(); ++j) keep[m.pa[f][j]] *= 1.0 - m.link[f][j];
    }
    double prod = leak_term;
    for (std::size_t c = 0; c < causes; ++c) {
      term[c] = (1.0 - m.prior[c]) + m.prior[c] * keep[c];
      prod *= term[c];
    }
    p_e += sign * prod;
    for (std::size_t c = 0; c < causes; ++c)
      joint_cause[c] += sign * (prod / term[c]) * m.prior[c] * keep[c];
    for (std::size_t u = 0; u < findings; ++u) {
      if (obs[u] >= 0) continue;
      double p = prod * (1.0 - m.leak[u]);
      for (std::size_t j = 0; j < m.pa[u].size(); ++j) {
        const std::size_t c = m.pa[u][j];
        p *= ((1.0 - m.prior[c]) + m.prior[c] * keep[c] * (1.0 - m.link[u][j])) / term[c];
      }
      joint_off[u] += sign * p;
    }
  }
  if (!(p_e > 0.0)) throw std::runtime_error("quickscore: impossible evidence");
  std::vector<std::vector<double>> out;
  for (std::size_t c = 0; c < causes; ++c) {
    const double on = joint_cause[c] / p_e;
    out.push_back({1.0 - on, on});
  }
  for (std::size_t u = 0; u < findings; ++u) {
    if (obs[u] >= 0) {
      out.push_back(delta(static_cast<std::size_t>(obs[u]), 2));
    } else {
      const double off = joint_off[u] / p_e;
      out.push_back({off, 1.0 - off});
    }
  }
  return out;
}

namespace {

bool close(const std::vector<double>& a, const std::vector<double>& b, double tol) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!(std::fabs(a[i] - b[i]) <= tol)) return false;
  return true;
}

}  // namespace

std::string reference_self_check(std::uint64_t seed) {
  constexpr double kTol = 1e-12;
  for (std::size_t trial = 0; trial < 4; ++trial) {
    Rng rng(stream_seed(seed, "selfcheck") + trial);
    const PlainNet net = banded_net(rng.next(), rng.next(), 8, 3, 2);
    for (std::size_t k = 0; k < 8; ++k) {
      PlainEvidence ev;
      const std::size_t a = rng.below(8);
      const std::size_t b = (a + 1 + rng.below(7)) % 8;
      ev.emplace_back(std::min(a, b), rng.below(net.vars[std::min(a, b)].card));
      ev.emplace_back(std::max(a, b), rng.below(net.vars[std::max(a, b)].card));
      const std::size_t q = rng.below(8);
      if (!close(reference_posterior(net, q, ev), brute_force_posterior(net, q, ev), kTol))
        return "variable elimination disagrees with enumeration on a banded net";
    }
    const NoisyOr m = noisy_or_params(rng.next(), rng.next(), 6, 5, 3);
    const PlainNet nor = noisy_or_net(m);
    PlainEvidence ev;
    for (std::size_t f = 0; f < 5; ++f)
      if (rng.below(4) != 0) ev.emplace_back(6 + f, rng.below(2));
    const auto qs = quickscore_marginals(m, ev);
    for (std::size_t v = 0; v < nor.vars.size(); ++v) {
      const auto bf = brute_force_posterior(nor, v, ev);
      if (!close(qs[v], bf, kTol))
        return "quickscore disagrees with enumeration on a noisy-OR net";
      if (!close(reference_posterior(nor, v, ev), bf, kTol))
        return "variable elimination disagrees with enumeration on a noisy-OR net";
    }
  }
  return {};
}

}  // namespace perfbench
