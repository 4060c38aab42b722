// Rule implementations. Each rule walks either the token stream or the
// directive list of one file; layering works on the whole file set and lives
// in include_graph.cpp.
#include <array>
#include <cstddef>
#include <string_view>

#include "analyzer.hpp"

namespace sparta::analyze {

namespace {

template <std::size_t N>
bool contains(const std::array<std::string_view, N>& set, std::string_view s) {
  for (const std::string_view e : set) {
    if (e == s) return true;
  }
  return false;
}

bool is_punct(const Token& t, std::string_view text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

void report(FileCtx& ctx, std::vector<Finding>& out, int line, std::string rule,
            std::string message) {
  if (ctx.supp.allowed(rule, line)) return;
  out.push_back({ctx.file->rel, line, std::move(rule), std::move(message)});
}

// ---------------------------------------------------------------------------
// purity.* — loop bodies in hot modules must not allocate, throw, perform
// I/O, or take locks. The paper's optimization target is the steady-state
// SpMV iteration; a single hidden malloc or lock in that loop dominates the
// memory-bandwidth effects being measured.
// ---------------------------------------------------------------------------

constexpr std::array<std::string_view, 6> kAllocCalls = {
    "malloc", "calloc", "realloc", "strdup", "aligned_alloc", "posix_memalign"};
constexpr std::array<std::string_view, 8> kGrowMethods = {
    "push_back", "emplace_back", "resize", "reserve", "insert", "emplace", "assign", "append"};
constexpr std::array<std::string_view, 13> kStdAllocTypes = {
    "string", "vector", "deque", "list", "map", "multimap", "set", "multiset",
    "unordered_map", "unordered_set", "function", "stringstream", "ostringstream"};
constexpr std::array<std::string_view, 5> kStdIo = {"cout", "cerr", "clog", "cin", "endl"};
constexpr std::array<std::string_view, 11> kIoCalls = {
    "printf", "fprintf", "sprintf", "snprintf", "puts",  "fputs",
    "putchar", "fwrite",  "fread",   "fopen",    "fclose"};
constexpr std::array<std::string_view, 7> kStdLockTypes = {
    "mutex", "recursive_mutex", "lock_guard", "unique_lock",
    "scoped_lock", "shared_lock", "condition_variable"};
constexpr std::array<std::string_view, 4> kLockCalls = {
    "omp_set_lock", "omp_unset_lock", "pthread_mutex_lock", "pthread_mutex_unlock"};

}  // namespace

void check_purity(FileCtx& ctx, std::vector<Finding>& out) {
  const std::vector<Token>& toks = ctx.file->tokens;

  // Loop tracking. A brace scope is "loop" when its `{` follows a completed
  // for/while/do header; brace-less bodies are counted in `stmt_loops` until
  // the terminating `;`. A `#pragma omp parallel` region brace is NOT a loop
  // — per-thread setup (e.g. a scratch vector before the worksharing loop)
  // is legal there.
  std::vector<char> braces;               // 1 = loop body
  std::vector<std::size_t> stmt_loops;    // brace depth at creation
  int paren_depth = 0;
  int loop_header_parens = -1;  // paren_depth before the loop header '('
  bool in_loop_header = false;
  bool pending_header = false;  // saw for/while; its '(' is next
  bool pending_body = false;    // header complete (or `do`); body is next

  auto in_loop = [&] {
    if (in_loop_header || !stmt_loops.empty()) return true;
    for (const char b : braces) {
      if (b != 0) return true;
    }
    return false;
  };

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    const Token* next = i + 1 < toks.size() ? &toks[i + 1] : nullptr;
    const Token* prev = i > 0 ? &toks[i - 1] : nullptr;

    if (t.kind == TokKind::kPunct) {
      if (t.text == "(") {
        if (pending_header) {
          loop_header_parens = paren_depth;
          in_loop_header = true;
          pending_header = false;
        }
        ++paren_depth;
        continue;
      }
      if (t.text == ")") {
        --paren_depth;
        if (in_loop_header && paren_depth == loop_header_parens) {
          in_loop_header = false;
          loop_header_parens = -1;
          pending_body = true;
        }
        continue;
      }
      if (t.text == "{") {
        braces.push_back(pending_body ? 1 : 0);
        pending_body = false;
        continue;
      }
      if (t.text == "}") {
        if (!braces.empty()) braces.pop_back();
        while (!stmt_loops.empty() && stmt_loops.back() > braces.size()) stmt_loops.pop_back();
        continue;
      }
      if (t.text == ";" && paren_depth == 0) {
        if (pending_body) {
          pending_body = false;  // empty body: do-while tail, `while (...) ;`
        } else {
          while (!stmt_loops.empty() && stmt_loops.back() == braces.size()) {
            stmt_loops.pop_back();
          }
        }
        continue;
      }
    }

    if (t.kind == TokKind::kIdent && (t.text == "for" || t.text == "while")) {
      pending_header = true;
      continue;
    }
    if (t.kind == TokKind::kIdent && t.text == "do") {
      pending_body = true;
      continue;
    }
    if (pending_body) {
      // Brace-less loop body: this token starts it.
      stmt_loops.push_back(braces.size());
      pending_body = false;
    }

    if (!in_loop() || t.kind != TokKind::kIdent) continue;

    if (t.text == "new") {
      report(ctx, out, t.line, "purity.alloc", "`new` in a hot loop body");
    } else if (t.text == "throw") {
      report(ctx, out, t.line, "purity.throw", "`throw` in a hot loop body");
    } else if (next != nullptr && is_punct(*next, "(")) {
      const bool method = prev != nullptr && (is_punct(*prev, ".") || is_punct(*prev, "->"));
      if (contains(kAllocCalls, t.text)) {
        report(ctx, out, t.line, "purity.alloc", t.text + "() in a hot loop body");
      } else if (method && contains(kGrowMethods, t.text)) {
        report(ctx, out, t.line, "purity.alloc",
               "." + t.text + "() may reallocate in a hot loop body");
      } else if (contains(kIoCalls, t.text)) {
        report(ctx, out, t.line, "purity.io", t.text + "() in a hot loop body");
      } else if (contains(kLockCalls, t.text)) {
        report(ctx, out, t.line, "purity.lock", t.text + "() in a hot loop body");
      } else if (method && (t.text == "lock" || t.text == "unlock" || t.text == "try_lock")) {
        report(ctx, out, t.line, "purity.lock", "." + t.text + "() in a hot loop body");
      }
    }

    if (t.text == "std" && i + 2 < toks.size() && is_punct(toks[i + 1], "::") &&
        toks[i + 2].kind == TokKind::kIdent) {
      const std::string& what = toks[i + 2].text;
      if (contains(kStdAllocTypes, what)) {
        report(ctx, out, toks[i + 2].line, "purity.alloc",
               "std::" + what + " constructed in a hot loop body");
      } else if (contains(kStdIo, what)) {
        report(ctx, out, toks[i + 2].line, "purity.io", "std::" + what + " in a hot loop body");
      } else if (contains(kStdLockTypes, what)) {
        report(ctx, out, toks[i + 2].line, "purity.lock",
               "std::" + what + " in a hot loop body");
      }
    } else if (t.text == "aligned_vector" && next != nullptr && is_punct(*next, "<") &&
               !(prev != nullptr && is_punct(*prev, "::"))) {
      report(ctx, out, t.line, "purity.alloc",
             "aligned_vector constructed in a hot loop body");
    }
  }
}

// ---------------------------------------------------------------------------
// omp.* — every parallel region must declare its data-sharing explicitly
// (`default(none)`), and `schedule(runtime)` is only legal inside the tuner,
// which is the one component allowed to bind OMP_SCHEDULE at run time.
// ---------------------------------------------------------------------------

void check_omp(FileCtx& ctx, const Config& cfg, std::vector<Finding>& out) {
  for (const Directive& d : ctx.file->directives) {
    const std::string sq = squash(d.text);
    constexpr std::string_view kOmp = "#pragmaomp";
    if (sq.rfind(kOmp, 0) != 0) continue;
    const std::string_view rest = std::string_view{sq}.substr(kOmp.size());
    if (rest.rfind("parallel", 0) == 0 && sq.find("default(none)") == std::string::npos) {
      report(ctx, out, d.line, "omp.default-none",
             "parallel construct without default(none); list every shared "
             "variable explicitly");
    }
    if (sq.find("schedule(runtime)") != std::string::npos &&
        cfg.runtime_schedule_ok.count(ctx.module) == 0) {
      report(ctx, out, d.line, "omp.schedule-runtime",
             "schedule(runtime) outside the tuner (module '" + ctx.module + "')");
    }
  }
}

// ---------------------------------------------------------------------------
// restrict.missing + header.using-namespace — one scope-aware walk.
//
// Function signatures are recognized at namespace/class scope as
// `ident ( params ) {;|{|const|noexcept|->|=|:|override}` where ident is not
// a keyword and no `=` occurred earlier in the statement (which would make
// the parens a call in an initializer). Parameters containing a raw `*` must
// also contain SPARTA_RESTRICT; parameters that themselves contain parens
// (function pointers) are exempt.
// ---------------------------------------------------------------------------

namespace {

enum class ScopeKind { kNamespace, kClass, kFunction, kInit, kBlock };

constexpr std::array<std::string_view, 14> kNotAFunctionName = {
    "if",     "while",    "for",      "switch",   "return",        "sizeof",  "alignof",
    "alignas", "decltype", "noexcept", "catch",    "static_assert", "typeid",  "operator"};

constexpr std::array<std::string_view, 9> kSignatureFollower = {
    ";", "{", "const", "noexcept", "->", "=", ":", "override", "final"};

// Keywords that may legitimately precede '(' but never name a function.
bool plausible_name(const Token& t) {
  return t.kind == TokKind::kIdent && !contains(kNotAFunctionName, t.text);
}

}  // namespace

void check_scopes(FileCtx& ctx, bool restrict_enabled, std::vector<Finding>& out) {
  const std::vector<Token>& toks = ctx.file->tokens;
  std::vector<ScopeKind> scopes;
  const auto current = [&] {
    return scopes.empty() ? ScopeKind::kNamespace : scopes.back();
  };

  // Statement-local classifier state; reset at `;`, `{`, `}`.
  bool saw_namespace = false;
  bool saw_class_key = false;
  bool saw_assign = false;
  bool sig_pending = false;  // last statement parsed as a function signature

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];

    if (is_punct(t, "{")) {
      ScopeKind k = ScopeKind::kBlock;
      if (sig_pending) {
        k = ScopeKind::kFunction;
      } else if (saw_namespace) {
        k = ScopeKind::kNamespace;
      } else if (saw_class_key) {
        k = ScopeKind::kClass;
      } else if (current() == ScopeKind::kNamespace || current() == ScopeKind::kClass) {
        k = ScopeKind::kInit;  // brace initializer of a namespace/class member
      }
      scopes.push_back(k);
      saw_namespace = saw_class_key = saw_assign = sig_pending = false;
      continue;
    }
    if (is_punct(t, "}")) {
      if (!scopes.empty()) scopes.pop_back();
      saw_namespace = saw_class_key = saw_assign = sig_pending = false;
      continue;
    }
    if (is_punct(t, ";")) {
      saw_namespace = saw_class_key = saw_assign = sig_pending = false;
      continue;
    }

    const bool decl_scope =
        current() == ScopeKind::kNamespace || current() == ScopeKind::kClass;

    if (t.kind == TokKind::kIdent) {
      if (t.text == "namespace") saw_namespace = true;
      if (t.text == "class" || t.text == "struct" || t.text == "union" || t.text == "enum") {
        saw_class_key = true;
      }
      if (ctx.is_header && decl_scope && t.text == "using" && i + 1 < toks.size() &&
          toks[i + 1].kind == TokKind::kIdent && toks[i + 1].text == "namespace") {
        report(ctx, out, t.line, "header.using-namespace",
               "`using namespace` at header scope leaks into every includer");
      }
    }
    if (is_punct(t, "=")) saw_assign = true;

    if (!is_punct(t, "(") || !decl_scope || saw_assign || i == 0 ||
        !plausible_name(toks[i - 1])) {
      continue;
    }

    // Candidate signature: scan the balanced parameter list.
    const std::string& name = toks[i - 1].text;
    int depth = 1;
    std::size_t j = i + 1;
    for (; j < toks.size() && depth > 0; ++j) {
      if (is_punct(toks[j], "(")) ++depth;
      if (is_punct(toks[j], ")")) --depth;
    }
    // j is now one past the closing ')'.
    const bool is_signature =
        j < toks.size() &&
        ((toks[j].kind == TokKind::kPunct && contains(kSignatureFollower, toks[j].text)) ||
         (toks[j].kind == TokKind::kIdent && contains(kSignatureFollower, toks[j].text)));
    if (!is_signature) continue;
    sig_pending = true;

    if (restrict_enabled) {
      // Split parameters on top-level commas; a best-effort angle-bracket
      // depth keeps template-argument commas from splitting a parameter.
      int pdepth = 0;
      int adepth = 0;
      bool chunk_has_star = false;
      bool chunk_has_restrict = false;
      bool chunk_has_parens = false;
      int star_line = 0;
      const auto flush = [&] {
        if (chunk_has_star && !chunk_has_restrict && !chunk_has_parens) {
          report(ctx, out, star_line, "restrict.missing",
                 "raw-pointer parameter of " + name + "() lacks SPARTA_RESTRICT");
        }
        chunk_has_star = chunk_has_restrict = chunk_has_parens = false;
        star_line = 0;
      };
      for (std::size_t k = i + 1; k + 1 < j; ++k) {
        const Token& p = toks[k];
        if (is_punct(p, "(")) {
          ++pdepth;
          chunk_has_parens = true;
        } else if (is_punct(p, ")")) {
          --pdepth;
        } else if (is_punct(p, "<")) {
          ++adepth;
        } else if (is_punct(p, ">") && adepth > 0) {
          --adepth;
        } else if (is_punct(p, ",") && pdepth == 0 && adepth == 0) {
          flush();
        } else if (is_punct(p, "*") && pdepth == 0) {
          chunk_has_star = true;
          if (star_line == 0) star_line = p.line;
        } else if (p.kind == TokKind::kIdent && p.text == "SPARTA_RESTRICT") {
          chunk_has_restrict = true;
        }
      }
      flush();
    }
    i = j - 1;  // resume at the ')'
  }
}

// ---------------------------------------------------------------------------
// header.pragma-once + header.self-include
// ---------------------------------------------------------------------------

namespace {

/// Quoted include target of a directive, or "" if it is not a quoted include.
std::string quoted_include(const Directive& d) {
  const std::string sq = squash(d.text);
  constexpr std::string_view kInc = "#include\"";
  if (sq.rfind(kInc, 0) != 0) return "";
  const std::size_t end = sq.find('"', kInc.size());
  if (end == std::string::npos) return "";
  return sq.substr(kInc.size(), end - kInc.size());
}

}  // namespace

void check_hygiene(FileCtx& ctx, const std::set<std::string>& all_rels,
                   std::vector<Finding>& out) {
  const LexedFile& f = *ctx.file;
  if (ctx.is_header) {
    bool has_once = false;
    for (const Directive& d : f.directives) {
      if (squash(d.text) == "#pragmaonce") {
        has_once = true;
        break;
      }
    }
    if (!has_once) {
      report(ctx, out, 1, "header.pragma-once", "header missing `#pragma once`");
    }
    return;
  }

  // Self-sufficient first include: foo.cpp with a sibling foo.hpp in the
  // analyzed set must include it first, so the header is compiled in a
  // context with nothing above it.
  const std::size_t dot = f.rel.rfind('.');
  if (dot == std::string::npos) return;
  const std::string sibling = f.rel.substr(0, dot) + ".hpp";
  if (all_rels.count(sibling) == 0) return;
  // Same-directory trees include the sibling by basename (quoted includes
  // search the includer's directory first), so accept both spellings.
  const std::size_t slash = sibling.rfind('/');
  const std::string sibling_base =
      slash == std::string::npos ? sibling : sibling.substr(slash + 1);
  for (const Directive& d : f.directives) {
    const std::string target = quoted_include(d);
    if (target.empty()) continue;
    if (target != sibling && target != sibling_base) {
      report(ctx, out, d.line, "header.self-include",
             "first include of " + f.rel + " must be \"" + sibling +
                 "\" so the header proves self-sufficient");
    }
    return;  // only the first quoted include matters
  }
  report(ctx, out, 1, "header.self-include",
         f.rel + " never includes its own header \"" + sibling + "\"");
}

// ---------------------------------------------------------------------------
// contract.raw-assert — `assert(...)` in library code. A raw assert vanishes
// under NDEBUG and aborts without context otherwise; SPARTA_REQUIRE /
// SPARTA_ASSERT (check/contract.hpp) are level-gated and throw a
// descriptive ContractViolation. Comments and strings never produce tokens,
// and `static_assert` is a different identifier.
// ---------------------------------------------------------------------------

void check_raw_assert(FileCtx& ctx, std::vector<Finding>& out) {
  const std::vector<Token>& toks = ctx.file->tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind == TokKind::kIdent && toks[i].text == "assert" &&
        is_punct(toks[i + 1], "(")) {
      report(ctx, out, toks[i].line, "contract.raw-assert",
             "raw assert(); use SPARTA_REQUIRE / SPARTA_ASSERT (check/contract.hpp)");
    }
  }
}

}  // namespace sparta::analyze
