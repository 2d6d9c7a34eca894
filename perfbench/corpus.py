"""Seeded C++ corpus for the analyzer workload.

The corpus is laid out like sysuq's src/: one directory per module, each
holding header/source pairs written in the idioms the analyzer's rules
read (mutex-owning classes with guard annotations, spans around pooled
dispatch with a context handoff, scratch-arena views materialized before
reset, contract checks at every public entry, module-qualified
includes). It is clean under every rule except for violations planted
at known (file, line, rule) places. It is never the live tree, so the
workload does not change when the repository's own sources do.
"""

import os
import random

# Module DAG of the analyzer's layering rule: the modules each one may
# include (obs, includable by all, includes only core).
MODULES = ["core", "prob", "bayesnet", "evidence", "perception", "fta",
           "markov", "orbit", "sys", "obs"]
LOWER = {
    "core": [],
    "prob": ["core"],
    "bayesnet": ["core", "prob"],
    "evidence": ["core", "prob", "bayesnet"],
    "perception": ["core", "prob", "bayesnet"],
    "fta": ["core", "prob", "bayesnet"],
    "markov": ["core", "prob", "bayesnet"],
    "orbit": ["core", "prob", "bayesnet"],
    "sys": ["core", "prob", "bayesnet", "evidence", "fta", "markov"],
    "obs": ["core"],
}
# Header/source pairs per module: 86 pairs, 172 files, sized like the
# repository's own tree (~0.35 s per full invocation at --jobs 2).
UNITS = {"core": 6, "prob": 10, "bayesnet": 16, "evidence": 8, "perception": 8,
         "fta": 8, "markov": 8, "orbit": 6, "sys": 10, "obs": 6}
FUNCS_PER_UNIT = (18, 26)

# Planted violations: rule -> how many per corpus. These rules read
# single tokens or includes, so each is reported at its planted line.
PLANTS = {"float-eq": 3, "rng-discipline": 3, "layering": 3,
          "magic-epsilon": 3, "obs-naming": 3, "include-hygiene": 3}


class Unit:
    """One class: its header and source as lists of lines."""

    def __init__(self, rng, module, index):
        self.module = module
        self.stem = f"{module}_unit{index}"
        self.cls = "".join(p.capitalize() for p in self.stem.split("_"))
        self.kind = rng.choice(["locked", "plain", "plain"] +
                               (["dispatch", "arena"] if module == "bayesnet" else []))
        self.funcs = [self._func(rng, k) for k in range(rng.randint(*FUNCS_PER_UNIT))]
        self.includes = [f'"{m}/{m}_unit{rng.randrange(UNITS[m])}.hpp"'
                         for m in rng.sample(LOWER[module], min(2, len(LOWER[module])))]

    # Each generator returns (declaration, body lines after the contract).
    def _func(self, rng, k):
        name = f"step{k}"
        shape = rng.choice(["loop", "branch", "accumulate"] +
                           (["locked"] * 2 if self.kind == "locked" else []) +
                           (["dispatch"] * 2 if self.kind == "dispatch" else []) +
                           (["arena"] * 2 if self.kind == "arena" else []))
        a, b = rng.randint(2, 9), rng.randint(2, 9)
        if shape == "loop":
            return (f"double {name}(const std::vector<double>& xs, std::size_t n) const;",
                    f"double {self.cls}::{name}(const std::vector<double>& xs, std::size_t n) const {{",
                    "n <= xs.size()",
                    ["  double acc = 0.0;",
                     "  for (std::size_t i = 0; i < n; ++i) {",
                     f"    const double w = xs[i] * 0.{a}5 + static_cast<double>(i % {b});",
                     f"    if (w > {a}.5) {{",
                     "      acc += w;",
                     "    } else {",
                     f"      acc -= 0.{b} * w;",
                     "    }",
                     "  }",
                     "  return acc;"])
        if shape == "branch":
            return (f"int {name}(int code, int limit) const;",
                    f"int {self.cls}::{name}(int code, int limit) const {{",
                    "limit > 0",
                    ["  int out = 0;",
                     "  while (code > limit) {",
                     f"    code -= {a};",
                     "    ++out;",
                     "  }",
                     "  switch (code % 3) {",
                     "    case 0:",
                     f"      out += {b};",
                     "      break;",
                     "    case 1:",
                     "      out -= 1;",
                     "      break;",
                     "    default:",
                     "      break;",
                     "  }",
                     "  return out;"])
        if shape == "accumulate":
            return (f"std::size_t {name}(const std::vector<std::size_t>& counts) const;",
                    f"std::size_t {self.cls}::{name}(const std::vector<std::size_t>& counts) const {{",
                    "!counts.empty()",
                    ["  std::size_t total = 0;",
                     "  for (const std::size_t c : counts) {",
                     f"    if (c % {a} == 0) continue;",
                     f"    total += c * {b};",
                     "  }",
                     "  return total;"])
        if shape == "locked":
            return (f"void {name}(double v);",
                    f"void {self.cls}::{name}(double v) {{",
                    "v >= 0.0",
                    ["  std::lock_guard<std::mutex> lk(mu_);",
                     f"  total_ += v * {a}.0;",
                     "  ++count_;"])
        if shape == "dispatch":
            return (f"void {name}(std::size_t n);",
                    f"void {self.cls}::{name}(std::size_t n) {{",
                    "n > 0",
                    [f'  const obs::Span span("{self.module}.{self.stem}.{name}");',
                     "  const obs::TraceContext ctx = obs::current_context();",
                     "  std::vector<double> owned(n, 0.0);",
                     "  pool_->run(n, [&owned, ctx](std::size_t i) {",
                     "    const obs::ContextScope scope(ctx);",
                     f"    owned[i] = static_cast<double>(i) * {a}.0;",
                     "  });"])
        return (f"kernels::ScaledFactor {name}(const kernels::Factor& f0);",
                f"kernels::ScaledFactor {self.cls}::{name}(const kernels::Factor& f0) {{",
                "f0.size > 0",
                ["  kernels::Arena& arena = kernels::thread_scratch();",
                 "  arena.reset();",
                 f"  kernels::View reduced = kernels::reduce(kernels::view_of(f0), {a % 3}, 0, arena);",
                 "  kernels::ScaledFactor out = kernels::eliminate_scaled(reduced, arena);",
                 "  arena.reset();",
                 "  return out;"])

    def header(self):
        ns = self.module
        lines = [f"// {self.stem}: generated benchmark input. Never compiled.",
                 "#pragma once", "", "#include <cstddef>"]
        if self.kind == "locked":
            lines.append("#include <mutex>")
        lines.append("#include <vector>")
        lines.append("")
        if self.kind == "arena":
            lines += ['#include "bayesnet/arena.hpp"', '#include "bayesnet/kernels.hpp"', ""]
        lines += [f"namespace sysuq::{ns} {{", ""]
        if self.kind == "dispatch":
            lines += ["struct Pool {", "  void run(std::size_t jobs, int task) {}", "};", ""]
        lines += [f"class {self.cls} {{", " public:"]
        for decl, _, _, _ in self.funcs:
            lines.append(f"  {decl}")
        lines += ["", " private:"]
        if self.kind == "locked":
            lines += ["  mutable std::mutex mu_;",
                      "  double total_ = 0.0;       // sysuq-guarded-by(mu_)",
                      "  std::size_t count_ = 0;    // sysuq-guarded-by(mu_)"]
        elif self.kind == "dispatch":
            lines.append("  Pool* pool_ = nullptr;")
        else:
            lines.append("  std::vector<double> cache_;")
        lines += ["};", "", f"}}  // namespace sysuq::{ns}"]
        return lines

    def source(self):
        """Returns (lines, index of each function's first body line, index
        where further includes go)."""
        ns = self.module
        lines = [f"// {self.stem}: generated benchmark input. Never compiled.",
                 f'#include "{ns}/{self.stem}.hpp"', "", "#include <cstddef>"]
        if self.kind == "locked":
            lines.append("#include <mutex>")
        lines.append("")
        lines.append('#include "core/contracts.hpp"')
        if self.kind == "dispatch":
            lines += ['#include "obs/context.hpp"', '#include "obs/trace.hpp"']
        lines += [f"#include {inc}" for inc in self.includes]
        include_at = len(lines)
        lines += ["", f"namespace sysuq::{ns} {{", ""]
        firsts = []
        for _, head, cond, body in self.funcs:
            lines.append(head)
            lines.append(f'  SYSUQ_EXPECT({cond}, "{self.stem}: precondition");')
            firsts.append(len(lines))
            lines += body
            lines += ["}", ""]
        lines.append(f"}}  // namespace sysuq::{ns}")
        return lines, firsts, include_at


def plant_line(rule, rng):
    """A violating statement for `rule`, placed inside a function body."""
    if rule == "float-eq":
        return "  [[maybe_unused]] const bool same = 0.5 == static_cast<double>(1) / 2;"
    if rule == "rng-discipline":
        return "  [[maybe_unused]] std::mt19937 gen(42);"
    if rule == "magic-epsilon":
        return f"  [[maybe_unused]] const double tiny = {rng.randint(1, 9)}e-{rng.randint(9, 14)};"
    if rule == "obs-naming":
        return '  const obs::Span span("BadSpanName");'
    raise ValueError(rule)


def generate(seed, root):
    """Writes the corpus under `root`; returns (file count, planted list).

    Each planted entry is (path relative to root's parent, line, rule),
    the form the analyzer reports when invoked with `root` as scan root.
    """
    rng = random.Random(seed)
    units = [Unit(rng, m, i) for m in MODULES for i in range(UNITS[m])]
    # Choose where each planted violation goes before writing anything.
    plans = {}
    for rule, count in PLANTS.items():
        for _ in range(count):
            ui = rng.randrange(len(units))
            while rule == "layering" and units[ui].module == "sys":
                ui = rng.randrange(len(units))
            plans.setdefault(ui, []).append(rule)
    planted = []
    base = os.path.basename(os.path.normpath(root))
    files = 0
    for ui, u in enumerate(units):
        d = os.path.join(root, u.module)
        os.makedirs(d, exist_ok=True)
        src, firsts, include_at = u.source()
        tags = [None] * len(src)
        for rule in plans.get(ui, []):
            if rule == "layering":
                # An include of a module above this one; obs may include
                # only core, and everything is below sys.
                upper = [m for m in MODULES if u.module in LOWER[m] and m != "obs"]
                target = rng.choice(upper) if upper else "sys"
                at, text = include_at, f'#include "{target}/{target}_unit0.hpp"'
            elif rule == "include-hygiene":
                at, text = include_at, '#include "../core/core_unit0.hpp"'
            else:
                at, text = rng.choice(firsts), plant_line(rule, rng)
            src.insert(at, text)
            tags.insert(at, rule)
            firsts = [i + (i >= at) for i in firsts]
            include_at += include_at >= at
        for i, rule in enumerate(tags):
            if rule is not None:
                planted.append((f"{base}/{u.module}/{u.stem}.cpp", i + 1, rule))
        for name, lines in ((u.stem + ".hpp", u.header()), (u.stem + ".cpp", src)):
            with open(os.path.join(d, name), "w") as f:
                f.write("\n".join(lines) + "\n")
            files += 1
    return files, sorted(planted)
