// Dynamic-FTA bench (paper ref [33], Dugan et al.): what order-aware
// analysis changes relative to static FTA.
//
// Measured: PAND vs AND unreliability curves (order matters), spare
// dormancy sweep (cold < warm < hot), and compiled CTMC sizes.
#include <cmath>
#include <cstdio>

#include "fta/dynamic.hpp"

int main() {
  using namespace sysuq::fta;

  std::puts("==== dynamic fault trees: order- and state-dependence ====\n");

  // ---- PAND vs AND over time ----
  std::puts("(a) PAND(a, b) vs AND(a, b), lambda_a = 0.9, lambda_b = 0.4:");
  std::puts("      t      F_AND(t)    F_PAND(t)   PAND/AND");
  for (const double t : {0.5, 1.0, 2.0, 4.0, 8.0}) {
    DynamicFaultTree andd;
    const auto a1 = andd.add_basic_event("a", 0.9);
    const auto b1 = andd.add_basic_event("b", 0.4);
    andd.set_top(andd.add_gate("and", DynGateType::kAnd, {a1, b1}));
    DynamicFaultTree pand;
    const auto a2 = pand.add_basic_event("a", 0.9);
    const auto b2 = pand.add_basic_event("b", 0.4);
    pand.set_top(pand.add_gate("pand", DynGateType::kPand, {a2, b2}));
    const double fa = andd.unreliability(t);
    const double fp = pand.unreliability(t);
    std::printf("  %5.1f    %.6f    %.6f    %.3f\n", t, fa, fp, fp / fa);
  }
  std::puts("  -> shape: the PAND fraction converges to P(a before b) =");
  std::puts("     0.9/1.3 = 0.692 — static FTA cannot express the");
  std::puts("     sequence dependence at all.\n");

  // ---- spare dormancy sweep ----
  std::puts("(b) 1-primary/1-spare gate, lambda = 0.7/0.9, t = 1.5:");
  std::puts("  dormancy   F(t)        (0 = cold standby, 1 = hot)");
  for (const double alpha : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    DynamicFaultTree d;
    const auto p = d.add_basic_event("primary", 0.7);
    const auto s = d.add_basic_event("spare", 0.9);
    d.set_top(d.add_gate("spare_gate", DynGateType::kSpare, {p, s}, 0, alpha));
    std::printf("  %8.2f   %.6f\n", alpha, d.unreliability(1.5));
  }
  std::puts("  -> shape: monotone in dormancy; cold standby buys the same");
  std::puts("     reliability as the paper's 'diverse uncertainties' row in");
  std::puts("     time rather than in space.\n");

  // ---- state-space growth ----
  std::puts("(c) compiled CTMC states vs basic events (2-channel + spares):");
  std::puts("  events   CTMC states   F(2.0)");
  for (const std::size_t extra : {0u, 2u, 4u, 6u, 8u}) {
    DynamicFaultTree d;
    const auto p = d.add_basic_event("primary", 0.5);
    const auto s = d.add_basic_event("spare", 0.5);
    const auto sp = d.add_gate("sp", DynGateType::kSpare, {p, s}, 0, 0.3);
    std::vector<DynamicFaultTree::NodeId> ors{sp};
    for (std::size_t i = 0; i < extra; ++i) {
      ors.push_back(
          d.add_basic_event(std::string("e").append(std::to_string(i)), 0.1));
    }
    d.set_top(d.add_gate("top", DynGateType::kOr, std::move(ors)));
    std::printf("  %6zu   %11zu   %.6f\n", 2 + extra, d.compiled_state_count(),
                d.unreliability(2.0));
  }
  std::puts("\n  -> shape: 2^n states — dynamic analysis pays in state space");
  std::puts("     what it gains in expressiveness; exactly why the paper's");
  std::puts("     hierarchical-BN refinement matters for large systems.");
  return 0;
}
