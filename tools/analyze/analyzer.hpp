// sparta_analyze: structural static analysis for the SpMV codebase.
//
// The analyzer enforces the invariants that the paper's performance model
// depends on but that no compiler flag can check: hot solver loops stay
// allocation- and I/O-free, every parallel region declares its data-sharing
// explicitly, modules respect the layering DAG, kernel raw-pointer
// signatures carry SPARTA_RESTRICT, and headers stay self-sufficient. Rule
// IDs, rationale, and the suppression grammar are documented in DESIGN.md
// §12.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "suppressions.hpp"
#include "tokenizer.hpp"

namespace sparta::analyze {

struct Finding {
  std::string file;  // path relative to the analysis root
  int line = 0;      // 1-based
  std::string rule;  // e.g. "purity.alloc"
  std::string message;
};

struct Config {
  /// Module layering: an include edge A -> B is legal iff
  /// layer(B) <= layer(A). Modules listed in `anywhere` (diagnostics) are
  /// exempt in both directions; unknown modules raise layering.undeclared.
  std::map<std::string, int> layers;

  std::set<std::string> anywhere;          // exempt from layering entirely
  std::set<std::string> hot;               // purity + omp.hot-* rules apply
  std::set<std::string> restrict_modules;  // restrict.missing applies
  std::set<std::string> runtime_schedule_ok;  // schedule(runtime) legal here

  bool layering = true;  // run layering.* (off for trees with no module DAG)
  bool raw_assert = false;  // run contract.raw-assert (library trees only)

  std::string tag = "sparta-analyze";  // suppression-comment tag
};

/// The layering and rule scope for src/ (see DESIGN.md §12 for rationale,
/// including why obs sits at layer 1 rather than on top).
Config default_config();

/// Scope for bench/ and tools/ trees: no module DAG, no hot modules — the
/// OpenMP sharing rules, header hygiene, and suppression tracking still run.
Config tools_config();

/// First path component of `rel`, or "" for files at the analysis root.
std::string module_of(const std::string& rel);

/// Run every rule over the lexed files; findings are sorted by
/// (file, line, rule) and already filtered through allow() suppressions.
std::vector<Finding> analyze_files(const std::vector<LexedFile>& files, const Config& cfg);

/// Recursively lex *.hpp/*.h/*.cpp/*.cc under `root` and analyze them.
/// On I/O failure returns an empty vector and sets *error.
std::vector<Finding> analyze_dir(const std::string& root, const Config& cfg, std::string* error);

// ---- internal surface, exposed for rules.cpp / tests ----

struct FileCtx {
  const LexedFile* file = nullptr;
  Suppressions supp;
  std::string module;
  bool is_header = false;
};

struct OmpRegionTree;  // omp_model.hpp

void check_purity(FileCtx& ctx, std::vector<Finding>& out);
void check_omp(FileCtx& ctx, const Config& cfg, std::vector<Finding>& out);
/// OpenMP data-sharing pass (omp_rules.cpp): region tree + symbol
/// classification driving omp.{shared-write,reduction-misuse,private-escape,
/// barrier-divergence,hot-critical,unpadded-atomic}. When `tree` is non-null
/// the parallel-region tree is also recorded (tests use this).
void check_omp_sharing(FileCtx& ctx, const Config& cfg, std::vector<Finding>& out,
                       OmpRegionTree* tree = nullptr);
/// Scope-aware walker: restrict.missing (when `restrict_enabled`) and
/// header.using-namespace (headers only).
void check_scopes(FileCtx& ctx, bool restrict_enabled, std::vector<Finding>& out);
void check_hygiene(FileCtx& ctx, const std::set<std::string>& all_rels,
                   std::vector<Finding>& out);
/// contract.raw-assert: `assert(` tokens (static_assert is its own token).
void check_raw_assert(FileCtx& ctx, std::vector<Finding>& out);
void check_layering(std::vector<FileCtx>& ctxs, const Config& cfg, std::vector<Finding>& out);
/// CFG + dataflow stage (flow_rules.cpp): builds per-function CFGs, solves
/// reaching definitions and liveness, and runs flow.{uninit-read,dead-store,
/// loop-invariant-load}, loop.vectorization-blocker, and (via
/// domain_rules.cpp) the index.domain-* family. Hot-loop rules engage only
/// for modules in cfg.hot.
void check_dataflow(FileCtx& ctx, const Config& cfg, std::vector<Finding>& out);
struct FnDataflow;  // dataflow.hpp
void check_domains(FileCtx& ctx, const FnDataflow& fn, std::vector<Finding>& out);

/// Rule catalog for `--explain` and SARIF metadata (rule_docs.cpp).
struct RuleDoc {
  std::string id;
  std::string summary;
  std::string rationale;
  std::string fix;
};
const std::vector<RuleDoc>& rule_docs();
const RuleDoc* find_rule_doc(const std::string& rule);

}  // namespace sparta::analyze
