// codlock_wmc — exhaustive weak-memory checker for the lock-free surface.
//
// Enumerates the consistent C++-memory-model executions (schedule choices
// x reads-from choices) of the litmus harnesses distilled from the
// src/lock fast path (src/wm/litmus.cc): seqlock summary
// publish/validate, FpSlot claim CAS and EBR pin/stamp/scan.  Each
// harness carries the same memory orders — and the same
// `mutation::WeakenedOrder` toggles — as its production counterpart, so
// the wm.* order-weakening mutants flip the real knob in both places.
//
// Usage:
//   codlock_wmc [--harness=<name>|all] [--budget=N]
//               [--mutant=<name>] [--kill-suite] [--json] [--quiet]
//
// Default mode runs every harness within its execution budget and exits
// non-zero if any protocol harness reports a violation (or fails to
// explore completely), or any self-check harness — a deliberately broken
// negative control — fails to report one.  With --mutant=<name> the named
// order-weakening defect is switched on and the exit code inverts: 0 when
// the litmus suite catches it, 1 when it survives.  --kill-suite runs the
// clean baseline plus every wm.* mutant against its killing harness; the
// protocol-decision mutants have their own suite in `codlock_mc
// --kill-suite`, and CI requires both (9 runtime mutants total).

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "tool_common.h"
#include "util/mutation_points.h"
#include "wm/checker.h"
#include "wm/litmus.h"

using namespace codlock;

namespace {

struct CliOptions {
  std::string harness = "all";
  uint64_t budget = 0;  // 0 = per-harness default
  std::string mutant;
  bool kill_suite = false;
  bool json = false;
  bool quiet = false;
};

int Usage() {
  std::cerr << "usage: codlock_wmc [--harness=<name>|all] [--budget=N]\n"
               "                   [--mutant=<name>] [--kill-suite]"
               " [--json] [--quiet]\n"
               "harnesses:";
  for (const wm::litmus::Harness& h : wm::litmus::AllHarnesses()) {
    std::cerr << " " << h.name;
  }
  std::cerr << "\nmutants (order-weakening):";
  for (uint32_t m = 0;
       m < static_cast<uint32_t>(mutation::Mutant::kNumMutants); ++m) {
    const auto mu = static_cast<mutation::Mutant>(m);
    if (mutation::IsOrderWeakening(mu)) {
      std::cerr << " " << mutation::MutantName(mu);
    }
  }
  std::cerr << "\n";
  return toolcli::kExitUsage;
}

wm::Checker::Options OptionsFor(const wm::litmus::Harness& h,
                                const CliOptions& cli,
                                bool stop_on_violation) {
  wm::Checker::Options opts;
  opts.max_executions = cli.budget != 0 ? cli.budget : h.default_budget;
  opts.stop_on_violation = stop_on_violation;
  return opts;
}

void PrintResult(const wm::litmus::Harness& h, const wm::Result& r,
                 bool expectation_met, const CliOptions& cli) {
  std::cout << "harness " << h.name << ": "
            << (expectation_met ? "ok" : "FAIL") << " (" << r.executions
            << " executions, " << (r.complete ? "complete" : "budget-capped")
            << ", " << r.violations.size() << " violation(s)"
            << (r.violations_capped ? "+" : "") << ")"
            << (h.expect_violation ? " [negative control]" : "") << "\n";
  if (cli.quiet || expectation_met) return;
  for (const wm::Violation& v : r.violations) {
    std::cout << "  " << wm::ViolationKindName(v.kind) << ": " << v.message
              << "\n";
    for (const std::string& line : v.trace) {
      std::cout << "    " << line << "\n";
    }
  }
}

void PrintJson(const std::vector<wm::litmus::Harness>& harnesses,
               const std::vector<wm::Result>& results,
               const std::vector<bool>& met, bool overall_ok) {
  std::cout << "{\"tool\":\"codlock_wmc\",\"harnesses\":[";
  for (size_t i = 0; i < harnesses.size(); ++i) {
    if (i) std::cout << ",";
    const wm::Result& r = results[i];
    std::cout << "{\"name\":\"" << toolcli::JsonEscape(harnesses[i].name)
              << "\",\"executions\":" << r.executions
              << ",\"complete\":" << (r.complete ? "true" : "false")
              << ",\"expect_violation\":"
              << (harnesses[i].expect_violation ? "true" : "false")
              << ",\"ok\":" << (met[i] ? "true" : "false")
              << ",\"violations\":[";
    for (size_t j = 0; j < r.violations.size(); ++j) {
      if (j) std::cout << ",";
      std::cout << "{\"kind\":\""
                << wm::ViolationKindName(r.violations[j].kind)
                << "\",\"message\":\""
                << toolcli::JsonEscape(r.violations[j].message) << "\"}";
    }
    std::cout << "]}";
  }
  std::cout << "],\"ok\":" << (overall_ok ? "true" : "false") << "}\n";
}

/// Expectation for one harness result: protocol harnesses must be clean
/// (and, when unmutated, completely explored); negative controls must
/// report a violation.
bool ExpectationMet(const wm::litmus::Harness& h, const wm::Result& r,
                    bool mutated) {
  if (h.expect_violation) return !r.clean();
  if (mutated) return true;  // judged by the caller (killed = any dirty)
  return r.clean() && r.complete;
}

int RunHarnesses(const CliOptions& cli) {
  std::vector<wm::litmus::Harness> selected;
  for (const wm::litmus::Harness& h : wm::litmus::AllHarnesses()) {
    if (cli.harness == "all" || cli.harness == h.name) selected.push_back(h);
  }
  if (selected.empty()) return Usage();

  const bool mutated = !cli.mutant.empty();
  mutation::Mutant mutant{};
  if (mutated) {
    bool found = false;
    for (uint32_t m = 0;
         m < static_cast<uint32_t>(mutation::Mutant::kNumMutants); ++m) {
      const auto mu = static_cast<mutation::Mutant>(m);
      if (mutation::MutantName(mu) == cli.mutant) {
        mutant = mu;
        found = true;
        break;
      }
    }
    if (!found) return Usage();
  }

  std::vector<wm::Result> results;
  std::vector<bool> met;
  bool all_ok = true;
  bool any_killed = false;
  for (const wm::litmus::Harness& h : selected) {
    wm::Result r;
    if (mutated && !h.expect_violation) {
      mutation::ScopedMutant guard(mutant);
      r = h.run(OptionsFor(h, cli, /*stop_on_violation=*/true));
      if (!r.clean()) any_killed = true;
    } else {
      r = h.run(OptionsFor(h, cli, /*stop_on_violation=*/false));
    }
    const bool ok = ExpectationMet(h, r, mutated);
    all_ok &= ok;
    if (!cli.json) PrintResult(h, r, ok, cli);
    results.push_back(std::move(r));
    met.push_back(ok);
  }

  if (mutated) {
    if (!cli.json) {
      std::cout << "mutant " << cli.mutant << ": "
                << (any_killed ? "KILLED" : "SURVIVED") << "\n";
    } else {
      PrintJson(selected, results, met, any_killed);
    }
    return any_killed ? toolcli::kExitOk : toolcli::kExitFindings;
  }
  if (cli.json) PrintJson(selected, results, met, all_ok);
  return all_ok ? toolcli::kExitOk : toolcli::kExitFindings;
}

int RunKillSuite(const CliOptions& cli) {
  bool ok = true;

  // Baseline: every harness meets its expectation unmutated.
  for (const wm::litmus::Harness& h : wm::litmus::AllHarnesses()) {
    wm::Result r = h.run(OptionsFor(h, cli, /*stop_on_violation=*/false));
    const bool clean_ok = ExpectationMet(h, r, /*mutated=*/false);
    if (!clean_ok) {
      std::cout << "kill-suite: BASELINE "
                << (h.expect_violation ? "CONTROL MISS" : "VIOLATION")
                << " in " << h.name << "\n";
      PrintResult(h, r, clean_ok, cli);
      ok = false;
    }
  }

  // Each order-weakening mutant dies to its designated harness.
  for (const wm::litmus::KillCase& kc : wm::litmus::KillSuite()) {
    const wm::litmus::Harness* h = wm::litmus::FindHarness(kc.harness);
    if (h == nullptr) {
      std::cout << "kill-suite: unknown harness " << kc.harness << "\n";
      ok = false;
      continue;
    }
    wm::Result r;
    {
      mutation::ScopedMutant guard(kc.mutant);
      r = h->run(OptionsFor(*h, cli, /*stop_on_violation=*/true));
    }
    const bool killed = !r.clean();
    std::cout << "mutant " << mutation::MutantName(kc.mutant) << ": "
              << (killed ? "KILLED" : "SURVIVED") << " (" << r.executions
              << " executions, harness " << h->name << ")\n";
    if (killed && !cli.quiet && !r.violations.empty()) {
      const wm::Violation& v = r.violations.front();
      std::cout << "  " << wm::ViolationKindName(v.kind) << ": " << v.message
                << "\n";
    }
    ok &= killed;
  }

  std::cout << "kill-suite: " << (ok ? "PASS" : "FAIL") << " ("
            << wm::litmus::KillSuite().size()
            << " order-weakening mutants; protocol mutants: codlock_mc"
               " --kill-suite)\n";
  return ok ? toolcli::kExitOk : toolcli::kExitFindings;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const std::string& prefix) {
      return arg.substr(prefix.size());
    };
    if (arg.rfind("--harness=", 0) == 0) {
      cli.harness = value("--harness=");
    } else if (arg.rfind("--budget=", 0) == 0) {
      cli.budget = std::stoull(value("--budget="));
    } else if (arg.rfind("--mutant=", 0) == 0) {
      cli.mutant = value("--mutant=");
    } else if (arg == "--kill-suite") {
      cli.kill_suite = true;
    } else if (arg == "--json") {
      cli.json = true;
    } else if (arg == "--quiet") {
      cli.quiet = true;
    } else {
      return Usage();
    }
  }
  if (cli.kill_suite) return RunKillSuite(cli);
  return RunHarnesses(cli);
}
