// sparta_perfbench — the end-to-end solve benchmark program.
//
//   sparta_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--out <dir>]
//   sparta_perfbench --self-test [--spec BENCHMARK.json] [--out <dir>]
//
// Prints context lines and every metric by name and unit, then, as the last
// line of standard output, one JSON object {"correct", "attempted",
// "failed", "metrics"}. perfbench/run.py builds this binary, pins the
// OpenMP threads and runs it; see perfbench/README.md.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "obs/json.hpp"
#include "workloads.hpp"

namespace {

namespace json = sparta::obs::json;
using perfbench::RunOptions;
using perfbench::RunReport;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "sparta_perfbench: " << why << "\n"
            << "usage: sparta_perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--out <dir>]\n"
            << "       sparta_perfbench --self-test [--spec BENCHMARK.json] [--out <dir>]\n"
            << "workloads:";
  for (auto n : perfbench::workload_names()) std::cerr << ' ' << n;
  std::cerr << '\n';
  std::exit(2);
}

void print_report(std::ostream& os, const RunReport& r) {
  for (const auto& n : r.notes) os << "perfbench: " << n << '\n';
  for (const auto& m : r.metrics) {
    std::string v;
    json::append_number(v, m.value);
    os << "perfbench: metric " << m.name << " = " << v << ' ' << m.unit << '\n';
  }
  os << "perfbench: attempted=" << r.attempted << " failed=" << r.failed
     << " correct=" << (r.correct ? "true" : "false") << '\n';
}

// ------------------------------------------------------------- self-test --

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::cout << "self-test FAIL: " << what << '\n';
  }
}

/// The run's result line must parse with obs::json, carry exactly the keys
/// of the contract, and hold every metric of `wanted` with its unit.
json::Value check_result(const RunReport& r, const json::Value& wanted, const std::string& tag) {
  const std::string line = perfbench::result_json(r);
  json::Value v;
  try {
    v = json::Value::parse(line);
  } catch (const std::exception& e) {
    expect(false, tag + ": result does not parse: " + e.what());
    return v;
  }
  std::set<std::string> keys;
  for (const auto& [k, _] : v.object()) keys.insert(k);
  expect(keys == std::set<std::string>{"correct", "attempted", "failed", "metrics"},
         tag + ": result keys");
  expect(v.at("attempted").number() >= 1, tag + ": attempted >= 1");
  const auto& metrics = v.at("metrics");
  std::set<std::string> names;
  for (const auto& m : wanted.array()) {
    const std::string name = m.at("name").str();
    names.insert(name);
    const json::Value* got = metrics.find(name);
    expect(got != nullptr, tag + ": metric " + name + " missing");
    if (got == nullptr) continue;
    expect(got->at("unit").str() == m.at("unit").str(), tag + ": metric " + name + " unit");
    expect(got->at("value").type() == json::Value::Type::kNumber, tag + ": " + name + " number");
  }
  for (const auto& [k, _] : metrics.object()) {
    expect(names.count(k) == 1, tag + ": unexpected metric " + k);
  }
  return v;
}

/// Tiny-size pass of every workload: untraced and traced results match the
/// metric lists of BENCHMARK.json, and a perturbed result is counted failed.
int self_test(const std::string& spec_path, const std::string& out_dir) {
  std::ifstream f{spec_path};
  if (!f) {
    std::cerr << "self-test: cannot read " << spec_path << '\n';
    return 2;
  }
  std::stringstream ss;
  ss << f.rdbuf();
  const json::Value spec = json::Value::parse(ss.str());
  for (const auto& wl : spec.at("workloads").array()) {
    const std::string name = wl.at("name").str();
    RunOptions o;
    o.workload = name;
    o.seed = 3;
    o.seconds = 0.05;
    o.tiny = true;
    o.out_dir = out_dir;
    for (bool trace : {false, true}) {
      o.trace = trace;
      const std::string tag = name + (trace ? " traced" : " untraced");
      const RunReport r = perfbench::run_workload(o);
      const json::Value v = check_result(r, spec.at(trace ? "per_layer" : "end_to_end"), tag);
      expect(r.correct && r.failed == 0, tag + ": every check passes");
      if (!trace) {
        const json::Value* pf = v.find("metrics") ? v.at("metrics").find("passed_frac") : nullptr;
        expect(pf != nullptr && pf->at("value").number() == 1.0, tag + ": passed_frac == 1");
      }
    }
    o.trace = false;
    o.perturb = true;
    const RunReport r = perfbench::run_workload(o);
    const json::Value v = check_result(r, spec.at("end_to_end"), name + " perturbed");
    expect(!r.correct && r.failed >= 1, name + " perturbed: the corrupted result is counted");
    const json::Value* pf = v.find("metrics") ? v.at("metrics").find("passed_frac") : nullptr;
    expect(pf != nullptr && pf->at("value").number() < 1.0,
           name + " perturbed: passed_frac < 1");
    std::cout << "self-test: " << name << " done\n";
  }
  std::cout << "self-test: " << (g_failures == 0 ? "ok" : "FAILED") << " (" << g_failures
            << " failures)\n";
  return g_failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions o;
  bool have_workload = false, self = false;
  std::string spec = "BENCHMARK.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        o.workload = value();
        have_workload = true;
      } else if (arg == "--seed") {
        o.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1") usage("--trace takes 0 or 1");
        o.trace = t == "1";
      } else if (arg == "--out") {
        o.out_dir = value();
      } else if (arg == "--self-test") {
        self = true;
      } else if (arg == "--spec") {
        spec = value();
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  try {
    if (self) return self_test(spec, o.out_dir);
    if (!have_workload) usage("--workload is required");
    const RunReport r = perfbench::run_workload(o);
    print_report(std::cout, r);
    std::cout << perfbench::result_json(r) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "sparta_perfbench: " << e.what() << '\n';
    return 1;
  }
}
