// perfbench_engine: the three engine workloads of the sysuq benchmark.
//
//   perfbench_engine gen --workload W --seed N --dir D
//       writes the workload's network to D/net.bn
//   perfbench_engine run --workload W --seed N --seconds S --trace 0|1 --dir D
//       parses D/net.bn, serves the workload and prints one JSON object
//       {"correct", "attempted", "failed", "metrics"} as its last line;
//       with --trace 1 it also writes D/trace.json
//   perfbench_engine setup --workload W --seed N --dir D
//       parses D/net.bn, does the workload's set-up only and prints the
//       same JSON object with the one metric setup_s, in seconds from
//       the start of the process
//   perfbench_engine spawn CMD ARGS...
//       runs CMD with its output discarded and prints "<seconds> <exit
//       code> <peak RSS KiB>" of that child (the analyzer workload's
//       timer; this small process keeps the parent's share of the
//       child's ru_maxrss small)
//
// Each run does a fixed amount of work: a whole number of identical
// rounds, sized from --seconds by today's nominal round time. The work
// therefore never depends on how fast the program is, so cache sizes,
// hit ratios and peak memory repeat exactly, and a round's time is one
// sample of the throughput; the reported throughput is the median
// round. Requests in a round are served by one long-lived engine; for
// the cache-bound workloads its caches are cleared at the start of every
// round, so every round repeats the same hits and misses.
#include <fcntl.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bayesnet/engine.hpp"
#include "bayesnet/junction_tree.hpp"
#include "bayesnet/loopy_bp.hpp"
#include "bayesnet/ordering.hpp"
#include "bayesnet/profile.hpp"
#include "bayesnet/serialize.hpp"
#include "model.hpp"
#include "obs/registry.hpp"
#include "trace.hpp"

namespace bn = sysuq::bayesnet;
using perfbench::Clock;
using perfbench::PlainEvidence;
using perfbench::Rng;
using perfbench::Scoped;
using perfbench::Tracer;
using perfbench::seconds_since;
using perfbench::stream_seed;

namespace {

// Taken during static initialization, before main: set-up time is
// measured from the start of the process.
const Clock::time_point g_process_start = Clock::now();

// --- workload sizes ---
// Banded networks: 200 variables, each with up to 3 parents among the
// previous 5, so exact elimination stays cheap and VE is the right
// backend.
constexpr std::size_t kBandVars = 200;
constexpr std::size_t kBandWindow = 5;
constexpr std::size_t kBandParents = 3;
// ve_batch: 64 batches of 64 queries per round, evidence keys from 16
// signatures of 6 keys. Nominal round time ~0.8 s.
constexpr std::size_t kVeSignatures = 16;
constexpr std::size_t kVeKeys = 6;
constexpr std::size_t kVeBatch = 64;
constexpr std::size_t kVeBatchesPerRound = 64;
constexpr double kVeRoundSeconds = 0.8;
// jt_marginals: 240 requests per round over 120 distinct assignments
// (16 signatures of 8 keys): each assignment once, plus 120 repeats
// drawn with Zipf(1) popularity, so exactly half the requests repeat an
// earlier one. Nominal round time ~1.3 s.
constexpr std::size_t kJtSignatures = 16;
constexpr std::size_t kJtKeys = 8;
constexpr std::size_t kJtDistinct = 120;
constexpr std::size_t kJtRequests = 240;
constexpr double kJtRoundSeconds = 1.3;
// bp_diagnosis: 80 causes -> 60 findings, fan-in 6; 96 requests per
// round, each with a distinct observed finding set of 20-30 findings of
// which 1-3 are positive (Quickscore is exponential in positives only).
// Nominal round time ~1.4 s.
constexpr std::size_t kCauses = 80;
constexpr std::size_t kFindings = 60;
constexpr std::size_t kFanIn = 6;
constexpr std::size_t kBpRequests = 96;
constexpr double kBpRoundSeconds = 1.4;

// Everything that sets a request's cost is fixed: the network shapes,
// the evidence signatures (the key sets, which fix VE orderings and JT
// cliques) and the noisy-OR parameters (loopy BP's iteration count and
// its certification depend on them). --seed draws the rest: the banded
// networks' CPT values, the evidence values and the queries, and the BP
// workload's observed finding sets. A run's cost then depends on the
// seed only through the many requests it averages over, so seeds
// compare like runs.
constexpr std::uint64_t kShapeSeed = 2020;

constexpr double kRefTol = 1e-9;
constexpr double kSumTol = 1e-9;

struct Args {
  std::string mode;
  std::string workload;
  std::string dir;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::string why;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void fail(const std::string& reason) {
    if (correct) why = reason;
    correct = false;
  }
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/// Peak resident set of this process image. VmHWM, not getrusage:
/// ru_maxrss carries the parent's resident set across fork and exec.
double peak_rss_mib() {
  std::ifstream is("/proc/self/status");
  std::string key;
  while (is >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      is >> kib;
      return kib / 1024.0;
    }
    is.ignore(1 << 20, '\n');
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

double current_rss_bytes() {
  std::ifstream is("/proc/self/statm");
  std::size_t pages = 0, resident = 0;
  is >> pages >> resident;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE));
}

std::size_t rounds_for(double seconds, double nominal, std::size_t at_least) {
  return std::max<std::size_t>(at_least,
                               static_cast<std::size_t>(std::llround(seconds / nominal)));
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

bn::Evidence to_evidence(const PlainEvidence& e) { return {e.begin(), e.end()}; }

std::uint64_t fnv(const std::vector<double>& v, std::uint64_t h = 0xCBF29CE484222325ULL) {
  const auto* p = reinterpret_cast<const unsigned char*>(v.data());
  for (std::size_t i = 0; i < v.size() * sizeof(double); ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

bool sums_to_one(const std::vector<double>& p) {
  double s = 0.0;
  for (double x : p) s += x;
  return std::fabs(s - 1.0) <= kSumTol;
}

bool is_delta(const std::vector<double>& p, std::size_t state) {
  for (std::size_t i = 0; i < p.size(); ++i)
    if (p[i] != (i == state ? 1.0 : 0.0)) return false;
  return true;
}

bool close(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!(std::fabs(a[i] - b[i]) <= kRefTol)) return false;
  return true;
}

std::vector<std::size_t> keys_of(const PlainEvidence& e) {
  std::vector<std::size_t> k;
  for (const auto& [v, _] : e) k.push_back(v);
  return k;
}

/// Sorted random key sets over the banded network.
std::vector<std::vector<std::size_t>> make_signatures(Rng& rng, std::size_t count,
                                                      std::size_t k) {
  std::vector<std::vector<std::size_t>> sigs;
  std::set<std::vector<std::size_t>> seen;
  while (sigs.size() < count) {
    std::set<std::size_t> keys;
    while (keys.size() < k) keys.insert(rng.below(kBandVars));
    std::vector<std::size_t> sig(keys.begin(), keys.end());
    if (seen.insert(sig).second) sigs.push_back(std::move(sig));
  }
  return sigs;
}

PlainEvidence assign(Rng& rng, const perfbench::PlainNet& net,
                     const std::vector<std::size_t>& keys) {
  PlainEvidence e;
  for (std::size_t v : keys) e.emplace_back(v, rng.below(net.vars[v].card));
  return e;
}

perfbench::PlainNet band_net(const std::string& workload, std::uint64_t seed) {
  const char* purpose = workload == "ve_batch" ? "ve.net" : "jt.net";
  return perfbench::banded_net(stream_seed(kShapeSeed, purpose), stream_seed(seed, purpose),
                               kBandVars, kBandWindow, kBandParents);
}

perfbench::NoisyOr diagnosis_model() {
  return perfbench::noisy_or_params(stream_seed(kShapeSeed, "bp.net"),
                                    stream_seed(kShapeSeed, "bp.values"), kCauses, kFindings,
                                    kFanIn);
}

/// `setup` mode: the process stops after one cold set-up and reports
/// its time; run.py takes the median over several such processes.
Result setup_result(double setup_s) {
  Result r;
  r.metric("setup_s", setup_s, "s");
  return r;
}

struct Setup {
  std::unique_ptr<bn::BayesianNetwork> net;
  std::unique_ptr<bn::InferenceEngine> engine;
};

// Parses the network and builds the engine, inside the set-up clock.
Setup parse_and_construct(const Args& a, Tracer& tr, std::size_t threads,
                          Result& res) {
  Setup s;
  const std::string text = read_file(a.dir + "/net.bn");
  auto t = Clock::now();
  {
    const Scoped span(tr, "serialize.from_text");
    s.net = std::make_unique<bn::BayesianNetwork>(bn::from_text(text));
  }
  const double parse_s = seconds_since(t);
  bn::InferenceEngine::Options opts;
  opts.threads = threads;
  t = Clock::now();
  {
    const Scoped span(tr, "engine.construct");
    s.engine = std::make_unique<bn::InferenceEngine>(*s.net, opts);
  }
  const double construct_s = seconds_since(t);
  if (a.trace) {
    res.metric("serialize.parse_s", parse_s, "s");
    res.metric("engine.construct_s", construct_s, "s");
  }
  return s;
}

/// Runs `round(r)` for every round, tracing even rounds only in traced
/// mode; returns each round's seconds and reports the tracing overhead
/// (median traced round over median untraced round).
///
/// The calling thread moves to the next CPU of the process's affinity
/// set every two rounds (a traced and an untraced one share a CPU). The
/// CPUs of the VM this was tuned on drift in speed apart from each other
/// for tens of seconds; a single-threaded run the scheduler left on a
/// slow one was ~25 % slower in every round, set-up included.
std::vector<double> run_rounds(const Args& a, Tracer& tr, std::size_t rounds,
                               const std::function<void(std::size_t)>& round,
                               Result& res) {
  cpu_set_t all;
  CPU_ZERO(&all);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof all, &all) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &all)) cpus.push_back(c);
  std::vector<double> secs;
  std::vector<double> traced;
  std::vector<double> untraced;
  for (std::size_t r = 0; r < rounds; ++r) {
    if (!cpus.empty()) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[(r / 2) % cpus.size()], &one);
      (void)sched_setaffinity(0, sizeof one, &one);
    }
    tr.set_enabled(a.trace && r % 2 == 0);
    const auto t = Clock::now();
    {
      const Scoped span(tr, "round");
      round(r);
    }
    const double s = seconds_since(t);
    secs.push_back(s);
    (tr.enabled() ? traced : untraced).push_back(s);
  }
  if (!cpus.empty()) (void)sched_setaffinity(0, sizeof all, &all);
  tr.set_enabled(a.trace);
  tr.set_request(-1);
  if (a.trace)
    res.metric("trace.overhead_pct", (median(traced) / median(untraced) - 1.0) * 100.0,
               "%");
  return secs;
}

// ---------------------------------------------------------------- ve_batch

Result run_ve_batch(const Args& a, Tracer& tr) {
  Result res;
  const std::size_t threads = 2;
  Setup s = parse_and_construct(a, tr, threads, res);
  bn::InferenceEngine& engine = *s.engine;
  const bn::BayesianNetwork& net = *s.net;
  Rng sig_rng(stream_seed(kShapeSeed, "ve.signatures"));
  const auto sigs = make_signatures(sig_rng, kVeSignatures, kVeKeys);
  {
    // One warm query per signature: plans its ordering and memoizes the
    // feasibility check, as a long-lived service would have.
    const Scoped span(tr, "engine.warm");
    std::vector<bn::QuerySpec> warm;
    for (const auto& sig : sigs) {
      bn::QuerySpec q;
      for (std::size_t v : sig) q.evidence[v] = 0;
      while (q.evidence.contains(q.query)) ++q.query;
      warm.push_back(q);
    }
    (void)engine.query_batch(warm);
  }
  const double setup_s = seconds_since(g_process_start);
  if (a.mode == "setup") return setup_result(setup_s);

  // Inputs: one round of batches; each query's evidence draws a
  // signature and fresh values, so every assignment group of a batch
  // stays below jt_batch_threshold and kAuto keeps the batch on VE.
  const perfbench::PlainNet plain = band_net(a.workload, a.seed);
  Rng rng(stream_seed(a.seed, "ve.queries"));
  std::vector<std::vector<bn::QuerySpec>> batches(kVeBatchesPerRound);
  for (auto& batch : batches) {
    for (;;) {
      batch.clear();
      std::map<PlainEvidence, std::set<std::size_t>> groups;
      for (std::size_t i = 0; i < kVeBatch; ++i) {
        const PlainEvidence e = assign(rng, plain, sigs[rng.below(sigs.size())]);
        bn::QuerySpec q;
        q.evidence = to_evidence(e);
        do q.query = rng.below(kBandVars);
        while (q.evidence.contains(q.query));
        groups[e].insert(q.query);
        batch.push_back(q);
      }
      bool small = true;
      for (const auto& [e, qs] : groups)
        small = small && qs.size() < bn::InferenceEngine::Options{}.jt_batch_threshold;
      if (small) break;
    }
  }

  std::vector<std::vector<std::vector<double>>> first(kVeBatchesPerRound);
  std::size_t mismatched_rounds = 0;
  std::int64_t request = 0;
  const std::size_t rounds = rounds_for(a.seconds, kVeRoundSeconds, a.trace ? 4 : 3);
  engine.reset_cache_stats();
  const auto secs = run_rounds(a, tr, rounds, [&](std::size_t r) {
    std::vector<std::vector<sysuq::prob::Categorical>> out(kVeBatchesPerRound);
    for (std::size_t b = 0; b < kVeBatchesPerRound; ++b) {
      tr.set_request(request++);
      const Scoped span(tr, "engine.query_batch");
      res.attempted += kVeBatch;
      try {
        out[b] = engine.query_batch(batches[b]);
      } catch (const std::exception& e) {
        res.failed += kVeBatch;
        std::cerr << "ve_batch: query_batch failed: " << e.what() << "\n";
      }
    }
    // Comparing with round 0 costs about 0.2 ms of a ~0.8 s round. A
    // batch that failed (counted above) in either round is not compared.
    bool same = true;
    for (std::size_t b = 0; b < kVeBatchesPerRound; ++b) {
      if (r == 0) {
        for (const auto& p : out[b]) first[b].push_back(p.probs());
      } else if (!out[b].empty() && !first[b].empty()) {
        for (std::size_t i = 0; i < kVeBatch; ++i)
          same = same && out[b][i].probs() == first[b][i];
      }
    }
    if (!same) ++mismatched_rounds;
  }, res);
  if (mismatched_rounds > 0) res.fail("ve_batch: a later round differs from the first");
  const double ratio_hits = engine.cache_stats().hit_rate();

  // Checks on round 0's answers: every posterior sums to 1; a fixed
  // sample matches a 1-thread engine's query() byte for byte and the
  // plain-array reference within 1e-9.
  for (const auto& batch : first)
    for (const auto& p : batch)
      if (!sums_to_one(p)) res.fail("ve_batch: a posterior does not sum to 1");
  bn::InferenceEngine::Options one;
  one.threads = 1;
  const bn::InferenceEngine single(net, one);
  std::vector<std::pair<std::size_t, std::size_t>> sample;  // (batch, index)
  for (std::size_t k = 0; k < kVeBatchesPerRound * kVeBatch; k += 43)
    sample.emplace_back(k / kVeBatch, k % kVeBatch);
  for (const auto& [b, i] : sample) {
    if (first[b].size() != kVeBatch) continue;
    const auto& q = batches[b][i];
    if (single.query(q.query, q.evidence).probs() != first[b][i])
      res.fail("ve_batch: batch answer differs from 1-thread query()");
    const PlainEvidence e(q.evidence.begin(), q.evidence.end());
    if (!close(perfbench::reference_posterior(plain, q.query, e), first[b][i]))
      res.fail("ve_batch: posterior differs from the reference");
  }

  std::vector<double> tput;
  for (double t : secs) tput.push_back(kVeBatch * kVeBatchesPerRound / t);
  if (!a.trace) {
    res.metric("throughput", median(tput), "ops/s");
    res.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    return res;
  }

  // --- per-layer figures, each a direct call into one layer ---
  res.metric("engine.ordering_cache.hit_ratio", ratio_hits, "ratio");
  std::vector<bn::QuerySpec> qsample;
  for (std::size_t k = 0; k < 256; ++k)
    qsample.push_back(batches[k % kVeBatchesPerRound][(k * 7) % kVeBatch]);
  const auto time_queries = [&](const char* name) {
    std::vector<double> t;
    for (int rep = 0; rep < 3; ++rep) {
      for (const auto& q : qsample) {
        const Scoped span(tr, name);
        const auto t0 = Clock::now();
        (void)engine.query(q.query, q.evidence);
        t.push_back(seconds_since(t0));
      }
    }
    return median(t);
  };
  const double query_s = time_queries("engine.query");
  sysuq::obs::set_metrics_enabled(false);
  const double query_off_s = time_queries("engine.query.metrics_off");
  sysuq::obs::set_metrics_enabled(true);
  res.metric("engine.query_s", query_s, "s");
  res.metric("obs.query_overhead_us", (query_s - query_off_s) * 1e6, "us");

  // Pool efficiency: sum of the batch's queries run one by one, over
  // threads x the batch's wall time.
  double single_sum = 0.0;
  double batch_sum = 0.0;
  for (std::size_t b = 0; b < kVeBatchesPerRound; ++b) {
    for (const auto& q : batches[b]) {
      const auto t0 = Clock::now();
      (void)engine.query(q.query, q.evidence);
      single_sum += seconds_since(t0);
    }
    const auto t0 = Clock::now();
    (void)engine.query_batch(batches[b]);
    batch_sum += seconds_since(t0);
  }
  res.metric("engine.pool_efficiency",
             single_sum / (static_cast<double>(threads) * batch_sum), "ratio");

  std::vector<double> order_s;
  std::vector<double> widths;
  std::map<std::vector<std::size_t>, std::vector<bn::VariableId>> orders;
  for (const auto& sig : sigs) {
    bn::EliminationOrdering o;
    std::vector<double> t;
    for (int rep = 0; rep < 5; ++rep) {
      const Scoped span(tr, "ordering.compute_elimination_order");
      const auto t0 = Clock::now();
      o = bn::compute_elimination_order(net, {}, sig);
      t.push_back(seconds_since(t0));
    }
    order_s.push_back(median(t));
    widths.push_back(static_cast<double>(o.induced_width));
    orders[sig] = o.order;
  }
  res.metric("ordering.order_s", mean(order_s), "s");
  res.metric("ordering.induced_width", mean(widths), "count");

  std::vector<double> cells;
  for (const auto& q : qsample) {
    std::vector<std::size_t> sig;
    for (const auto& [v, _] : q.evidence) sig.push_back(v);
    const Scoped span(tr, "kernels.simulate_elimination");
    std::size_t total = 0;
    for (const auto& step : bn::simulate_elimination(net, q.evidence, orders[sig], {q.query}))
      total += step.table_cells;
    cells.push_back(static_cast<double>(total));
  }
  res.metric("kernels.cells_per_query", mean(cells), "count");
  return res;
}

// ------------------------------------------------------------ jt_marginals

Result run_jt_marginals(const Args& a, Tracer& tr) {
  Result res;
  Setup s = parse_and_construct(a, tr, 1, res);
  bn::InferenceEngine& engine = *s.engine;
  const bn::BayesianNetwork& net = *s.net;
  Rng sig_rng(stream_seed(kShapeSeed, "jt.signatures"));
  const auto sigs = make_signatures(sig_rng, kJtSignatures, kJtKeys);
  {
    const Scoped span(tr, "engine.warm");
    for (const auto& sig : sigs) {
      bn::Evidence e;
      for (std::size_t v : sig) e[v] = 0;
      (void)engine.all_marginals(e);
    }
  }
  const double setup_s = seconds_since(g_process_start);
  if (a.mode == "setup") return setup_result(setup_s);

  const perfbench::PlainNet plain = band_net(a.workload, a.seed);
  Rng rng(stream_seed(a.seed, "jt.requests"));
  std::vector<PlainEvidence> pool;
  {
    std::set<PlainEvidence> seen;
    while (pool.size() < kJtDistinct) {
      PlainEvidence e = assign(rng, plain, sigs[rng.below(sigs.size())]);
      if (seen.insert(e).second) pool.push_back(std::move(e));
    }
  }
  // Every assignment once, in pool order; each repeat is inserted at a
  // random place after its assignment's first request.
  std::vector<double> cdf;
  double acc = 0.0;
  for (std::size_t r = 0; r < kJtDistinct; ++r)
    cdf.push_back(acc += 1.0 / static_cast<double>(r + 1));
  std::vector<std::size_t> stream(kJtDistinct);
  for (std::size_t i = 0; i < kJtDistinct; ++i) stream[i] = i;
  while (stream.size() < kJtRequests) {
    const auto idx = static_cast<std::size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), rng.uniform() * acc) - cdf.begin());
    const auto first = static_cast<std::size_t>(
        std::find(stream.begin(), stream.end(), idx) - stream.begin());
    const std::size_t at = first + 1 + rng.below(stream.size() - first);
    stream.insert(stream.begin() + static_cast<long>(at), idx);
  }
  std::vector<bn::Evidence> evidence;
  for (const auto& e : pool) evidence.push_back(to_evidence(e));

  std::map<std::size_t, std::uint64_t> first_hash;
  std::map<std::size_t, std::vector<std::vector<double>>> kept;  // reference sample
  std::size_t bad_sums = 0;
  std::size_t mismatches = 0;
  double hit_ratio = 0.0;
  double entries = 0.0;
  double bytes_per_entry = 0.0;
  std::int64_t request = 0;
  const std::size_t rounds = rounds_for(a.seconds, kJtRoundSeconds, a.trace ? 4 : 3);
  const auto secs = run_rounds(a, tr, rounds, [&](std::size_t r) {
    engine.clear_cache();
    const double rss0 = r == 0 ? current_rss_bytes() : 0.0;
    for (const std::size_t idx : stream) {
      tr.set_request(request++);
      const Scoped span(tr, "engine.all_marginals");
      ++res.attempted;
      std::vector<sysuq::prob::Categorical> m;
      try {
        m = engine.all_marginals(evidence[idx]);
      } catch (const std::exception& e) {
        ++res.failed;
        std::cerr << "jt_marginals: all_marginals failed: " << e.what() << "\n";
        continue;
      }
      std::uint64_t h = 0xCBF29CE484222325ULL;
      for (std::size_t v = 0; v < m.size(); ++v) {
        const auto& p = m[v].probs();
        h = fnv(p, h);
        const auto it = evidence[idx].find(v);
        if (it != evidence[idx].end() ? !is_delta(p, it->second) : !sums_to_one(p))
          ++bad_sums;
      }
      const auto [it, fresh] = first_hash.emplace(idx, h);
      if (!fresh && it->second != h) ++mismatches;
      if (fresh && kept.size() < 2) {
        auto& k = kept[idx];
        for (const auto& c : m) k.push_back(c.probs());
      }
    }
    if (r == 0) {
      const auto st = engine.jt_cache_stats();
      hit_ratio = st.hit_rate();
      entries = static_cast<double>(st.entries);
      bytes_per_entry = (current_rss_bytes() - rss0) / std::max(1.0, entries);
    }
  }, res);
  if (bad_sums > 0) res.fail("jt_marginals: a posterior is not normalized or not a delta");
  if (mismatches > 0) res.fail("jt_marginals: a repeated request changed its answer");
  for (const auto& [idx, answer] : kept) {
    for (std::size_t v = 0; v < kBandVars; v += 8) {
      if (!close(perfbench::reference_posterior(plain, v, pool[idx]), answer[v]))
        res.fail("jt_marginals: posterior differs from the reference");
    }
  }

  std::vector<double> tput;
  for (double t : secs) tput.push_back(static_cast<double>(kJtRequests) / t);
  if (!a.trace) {
    res.metric("throughput", median(tput), "ops/s");
    res.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    return res;
  }

  res.metric("engine.jt_cache.hit_ratio", hit_ratio, "ratio");
  res.metric("engine.jt_cache.entries", entries, "count");
  res.metric("engine.jt_cache.bytes_per_entry", bytes_per_entry, "B");
  std::vector<double> build_s;
  std::vector<double> structure_s;
  std::size_t max_clique = 0;
  for (std::size_t i = 0; i < 16; ++i) {
    const bn::Evidence& e = evidence[stream[i]];
    const std::vector<bn::VariableId> keys = keys_of(pool[stream[i]]);
    auto t0 = Clock::now();
    {
      const Scoped span(tr, "junction_tree.build");
      const bn::JunctionTree jt(net, e);
      max_clique = std::max(max_clique, jt.max_clique_size());
    }
    build_s.push_back(seconds_since(t0));
    t0 = Clock::now();
    {
      const Scoped span(tr, "junction_tree.structure");
      const auto o = bn::compute_elimination_order(net, {}, keys);
      (void)bn::elimination_cliques(net, keys, o.order);
    }
    structure_s.push_back(seconds_since(t0));
  }
  res.metric("junction_tree.build_s", median(build_s), "s");
  res.metric("junction_tree.structure_s", median(structure_s), "s");
  res.metric("junction_tree.max_clique_size", static_cast<double>(max_clique), "count");
  std::vector<double> order_s;
  for (const auto& sig : sigs) {
    const Scoped span(tr, "ordering.compute_elimination_order");
    const auto t0 = Clock::now();
    (void)bn::compute_elimination_order(net, {}, sig);
    order_s.push_back(seconds_since(t0));
  }
  res.metric("ordering.order_s", mean(order_s), "s");
  return res;
}

// ------------------------------------------------------------ bp_diagnosis

Result run_bp_diagnosis(const Args& a, Tracer& tr) {
  Result res;
  Setup s = parse_and_construct(a, tr, 1, res);
  bn::InferenceEngine& engine = *s.engine;
  const bn::BayesianNetwork& net = *s.net;
  {
    const Scoped span(tr, "engine.warm");
    bn::Evidence e;
    for (std::size_t f = 0; f < 10; ++f) e[kCauses + f] = 0;
    (void)engine.all_marginals_bounded(e);
  }
  const double setup_s = seconds_since(g_process_start);
  if (a.mode == "setup") return setup_result(setup_s);

  const perfbench::NoisyOr model = diagnosis_model();
  Rng rng(stream_seed(a.seed, "bp.requests"));
  std::vector<PlainEvidence> requests;
  {
    std::set<std::vector<std::size_t>> seen;
    while (requests.size() < kBpRequests) {
      std::vector<std::size_t> f(kFindings);
      for (std::size_t i = 0; i < kFindings; ++i) f[i] = i;
      const std::size_t observed = 20 + rng.below(11);
      const std::size_t positive = 1 + rng.below(3);
      for (std::size_t i = 0; i < observed; ++i) std::swap(f[i], f[i + rng.below(kFindings - i)]);
      std::vector<std::size_t> keys(f.begin(), f.begin() + static_cast<long>(observed));
      std::map<std::size_t, std::size_t> e;
      for (std::size_t i = 0; i < observed; ++i) e[kCauses + keys[i]] = i < positive ? 1 : 0;
      std::vector<std::size_t> key_set;
      for (const auto& [v, _] : e) key_set.push_back(v);
      if (seen.insert(key_set).second) requests.emplace_back(e.begin(), e.end());
    }
  }
  std::vector<bn::Evidence> evidence;
  for (const auto& e : requests) evidence.push_back(to_evidence(e));

  // Round 0's answer to request i, or empty if that request failed.
  std::vector<std::vector<bn::BoundedPosterior>> first(kBpRequests);
  std::vector<std::uint64_t> first_hash(kBpRequests, 0);
  std::size_t mismatches = 0;
  double runs_per_request = 0.0;
  auto& bp_runs = sysuq::obs::Registry::global().counter("bayesnet.bp.runs");
  std::int64_t request = 0;
  const std::size_t rounds = rounds_for(a.seconds, kBpRoundSeconds, a.trace ? 4 : 3);
  const auto secs = run_rounds(a, tr, rounds, [&](std::size_t r) {
    engine.clear_cache();
    const auto runs0 = bp_runs.value();
    for (std::size_t i = 0; i < kBpRequests; ++i) {
      tr.set_request(request++);
      const Scoped span(tr, "engine.all_marginals_bounded");
      ++res.attempted;
      std::vector<bn::BoundedPosterior> b;
      try {
        b = engine.all_marginals_bounded(evidence[i]);
      } catch (const std::exception& e) {
        ++res.failed;
        std::cerr << "bp_diagnosis: all_marginals_bounded failed: " << e.what() << "\n";
        continue;
      }
      std::uint64_t h = 0xCBF29CE484222325ULL;
      for (const auto& p : b) h = fnv(p.hi, fnv(p.lo, fnv(p.point.probs(), h)));
      if (r == 0) {
        first_hash[i] = h;
        first[i] = std::move(b);
      } else if (!first[i].empty() && h != first_hash[i]) {
        ++mismatches;
      }
    }
    if (r == 0)
      runs_per_request = static_cast<double>(bp_runs.value() - runs0) / kBpRequests;
  }, res);
  if (mismatches > 0) res.fail("bp_diagnosis: a later round changed an answer");

  // Every certified interval must contain the exact Quickscore posterior
  // and bracket its own point; observed variables are zero-width deltas.
  double width_sum = 0.0;
  std::size_t width_n = 0;
  for (std::size_t i = 0; i < kBpRequests; ++i) {
    if (first[i].empty()) continue;
    const auto exact = perfbench::quickscore_marginals(model, requests[i]);
    for (std::size_t v = 0; v < first[i].size(); ++v) {
      const auto& b = first[i][v];
      const auto it = evidence[i].find(v);
      if (it != evidence[i].end()) {
        if (!is_delta(b.point.probs(), it->second) || b.width() != 0.0)
          res.fail("bp_diagnosis: an observed variable is not a zero-width delta");
        continue;
      }
      if (!sums_to_one(b.point.probs())) res.fail("bp_diagnosis: a point is not normalized");
      if (!b.contains(exact[v]) || !b.contains(b.point.probs()))
        res.fail("bp_diagnosis: an interval misses the exact posterior or its point");
      width_sum += b.width();
      ++width_n;
    }
  }

  std::vector<double> tput;
  for (double t : secs) tput.push_back(static_cast<double>(kBpRequests) / t);
  if (!a.trace) {
    res.metric("throughput", median(tput), "ops/s");
    res.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    return res;
  }

  res.metric("loopy_bp.bound_width", width_sum / static_cast<double>(std::max<std::size_t>(1, width_n)),
             "prob");
  res.metric("loopy_bp.runs_per_request", runs_per_request, "ratio");
  std::vector<double> run_s;
  std::vector<double> iterations;
  for (std::size_t i = 0; i < 8; ++i) {
    const Scoped span(tr, "loopy_bp.run");
    const auto t0 = Clock::now();
    const bn::LoopyBP bp(net, evidence[i], bn::LoopyBP::Options{});
    run_s.push_back(seconds_since(t0));
    iterations.push_back(static_cast<double>(bp.iterations()));
  }
  res.metric("loopy_bp.run_s", median(run_s), "s");
  res.metric("loopy_bp.iterations", mean(iterations), "count");
  return res;
}

// ------------------------------------------------------------------- main

void print_result(const Result& r) {
  if (!r.why.empty()) std::cerr << "check failed: " << r.why << "\n";
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
}

int spawn(char** cmd) {
  const auto t0 = Clock::now();
  const pid_t pid = fork();
  if (pid < 0) return 1;
  if (pid == 0) {
    const int fd = open("/dev/null", O_WRONLY);
    dup2(fd, 1);
    dup2(fd, 2);
    execvp(cmd[0], cmd);
    _exit(127);
  }
  int status = 0;
  rusage ru{};
  if (wait4(pid, &status, 0, &ru) != pid) return 1;
  const double secs = seconds_since(t0);
  const int code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  std::printf("%.9f %d %ld\n", secs, code, ru.ru_maxrss);
  return 0;
}

int usage() {
  std::cerr << "usage: perfbench_engine gen|setup|run --workload W --seed N --dir D "
               "[--seconds S] [--trace 0|1]\n"
               "       perfbench_engine spawn CMD ARGS...\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (argc < 2) return usage();
  a.mode = argv[1];
  if (a.mode == "spawn") return argc > 2 ? spawn(argv + 2) : usage();
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--dir") a.dir = v;
    else return usage();
  }
  if (a.dir.empty() || a.workload.empty()) return usage();
  try {
    if (a.mode == "gen") {
      perfbench::PlainNet net;
      if (a.workload == "ve_batch" || a.workload == "jt_marginals") {
        net = band_net(a.workload, a.seed);
      } else if (a.workload == "bp_diagnosis") {
        net = perfbench::noisy_or_net(diagnosis_model());
      } else {
        return usage();
      }
      std::ofstream os(a.dir + "/net.bn");
      os << perfbench::to_bn_text(net);
      return os ? 0 : 1;
    }
    if (a.mode != "run" && a.mode != "setup") return usage();
    Tracer tr(a.trace);
    Result res;
    if (a.workload == "ve_batch") res = run_ve_batch(a, tr);
    else if (a.workload == "jt_marginals") res = run_jt_marginals(a, tr);
    else if (a.workload == "bp_diagnosis") res = run_bp_diagnosis(a, tr);
    else return usage();
    if (a.mode == "run") {
      const std::string why = perfbench::reference_self_check(a.seed);
      if (!why.empty()) res.fail("reference self-check: " + why);
    }
    if (a.trace && !tr.write_chrome_json(a.dir + "/trace.json")) {
      std::cerr << "cannot write " << a.dir << "/trace.json\n";
      return 1;
    }
    print_result(res);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_engine: " << e.what() << "\n";
    return 1;
  }
}
