// OpenMP data-sharing rules for sparta_analyze (DESIGN.md §12).
//
// A forward token walk builds the parallel-region tree (nesting of
// parallel / for / single / master / critical / atomic constructs plus
// `if` statements) and classifies every identifier a region touches:
//
//   shared     — listed in the shared(...) clause (default(none) is enforced
//                repo-wide by omp.default-none, so clause lists are
//                authoritative);
//   private    — private/firstprivate/lastprivate clause items plus anything
//                declared inside the region (loop variables included);
//   reduction  — reduction(op : ...) items, with the operator remembered;
//   thread-id  — region locals initialized from omp_get_thread_num(), which
//                make `if (tid == 0)` a master-equivalent guard (the
//                persistent-region engine uses this shape).
//
// On top of the classification:
//   omp.shared-write       unguarded assignment/++/compound-assign to a
//                          shared scalar (subscripted stores are assumed
//                          disjoint across threads; single/master/critical/
//                          atomic/tid==0 guard a write).
//   omp.reduction-misuse   reduction variable updated with an operator that
//                          does not match the clause, overwritten without
//                          reading itself, or read mid-region outside its
//                          own update statement.
//   omp.private-escape     address of a private stored through a shared
//                          lvalue — the pointee dies with the thread.
//   omp.barrier-divergence barrier or worksharing construct nested under
//                          single/master/critical, a tid==0 guard, or an
//                          `if` over thread-private state (deadlock shape).
//   omp.hot-critical       critical/atomic construct in a hot module — the
//                          bandwidth-bound paths the paper measures must not
//                          serialize.
//   omp.unpadded-atomic    std::atomic in a hot module without alignas
//                          padding.
//
// Known approximations (all false-negative side except where noted): the
// else branch of a divergent if is not tracked; lambda captures are not
// analyzed for escapes; a single-statement if whose substatement is a
// compound statement extends its guard to the next `;`; `a + +b` written
// without parentheses parses as a postfix increment of `a`; a break or
// continue under an if over thread-private state, in a loop that holds
// barriers, is not flagged (the solver engine exits on private copies of a
// team sum, which every thread holds to the same bits).
#include <array>
#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "analyzer.hpp"
#include "omp_model.hpp"

namespace sparta::analyze {

namespace {

void report(FileCtx& ctx, std::vector<Finding>& out, int line, std::string rule,
            std::string message) {
  if (ctx.supp.allowed(rule, line)) return;
  out.push_back({ctx.file->rel, line, std::move(rule), std::move(message)});
}

bool is_keyword(const std::string& s) {
  static const std::set<std::string> kWords = {
      "alignas",  "alignof",  "asm",      "auto",      "bool",     "break",
      "case",     "catch",    "char",     "class",     "const",    "constexpr",
      "continue", "decltype", "default",  "delete",    "do",       "double",
      "else",     "enum",     "explicit", "extern",    "false",    "float",
      "for",      "friend",   "goto",     "if",        "inline",   "int",
      "long",     "mutable",  "namespace","new",       "noexcept", "nullptr",
      "operator", "private",  "protected","public",    "register", "return",
      "short",    "signed",   "sizeof",   "static",    "struct",   "switch",
      "template", "this",     "throw",    "true",      "try",      "typedef",
      "typeid",   "typename", "union",    "unsigned",  "using",    "virtual",
      "void",     "volatile", "while",
  };
  return kWords.count(s) != 0;
}

// Identifiers that, as the *preceding* token, rule out "previous token is the
// type of a declaration" (`return x`, `delete p`, ...). Type keywords (int,
// auto, const, ...) deliberately stay allowed.
bool blocks_decl(const std::string& s) {
  static const std::set<std::string> kBlock = {
      "return", "case",   "goto",  "new",   "delete", "throw",
      "sizeof", "else",   "do",    "break", "continue",
      "co_await", "co_return", "co_yield", "not", "and", "or",
  };
  return kBlock.count(s) != 0;
}

bool one_of(std::string_view s, std::string_view chars) {
  return s.size() == 1 && chars.find(s[0]) != std::string_view::npos;
}

/// Everything the walker knows about the innermost open parallel region.
struct RegionState {
  int tree_index = -1;
  std::set<std::string> shared;
  std::set<std::string> priv;  // clause privates + declared-inside locals
  std::map<std::string, std::string> red;  // reduction var -> operator
  std::set<std::string> tid_vars;          // locals = omp_get_thread_num()
  std::map<std::string, std::size_t> rhs_ok_until;  // var -> token bound
  // Guard counters saved at region entry: a barrier inside a *nested*
  // parallel region binds to the inner team, so guards do not carry in.
  int s_single = 0, s_master = 0, s_critical = 0, s_atomic = 0, s_tid0 = 0,
      s_divif = 0;
};

class SharingWalker {
 public:
  SharingWalker(FileCtx& ctx, const Config& cfg, std::vector<Finding>& out,
                OmpRegionTree* tree)
      : ctx_(ctx), cfg_(cfg), out_(out), tree_out_(tree),
        toks_(ctx.file->tokens) {}

  void run() {
    check_unpadded_atomics();
    const auto& dirs = ctx_.file->directives;
    std::size_t di = 0;
    for (std::size_t i = 0; i <= toks_.size(); ++i) {
      while (di < dirs.size() && dirs[di].tok <= i) {
        if (dirs[di].tok == i) handle_directive(dirs[di]);
        ++di;
      }
      if (i == toks_.size()) break;
      step(i);
    }
    if (tree_out_ != nullptr) *tree_out_ = tree_;
  }

 private:
  // ---- frames ------------------------------------------------------------

  struct Attrs {
    bool region = false, region_pushed = false;
    bool single = false, master = false, critical = false, atomic = false;
    bool tid0 = false, divif = false;
    OmpDirectiveInfo dir;  // meaningful when region
  };

  struct Frame {
    bool brace = false;  // '{'-scoped (vs single-statement)
    Attrs a;
  };

  void bump(const Attrs& a, int delta) {
    if (a.single) single_ += delta;
    if (a.master) master_ += delta;
    if (a.critical) critical_ += delta;
    if (a.atomic) atomic_ += delta;
    if (a.tid0) tid0_ += delta;
    if (a.divif) divif_ += delta;
  }

  void push_frame(bool brace, const Attrs& a) {
    frames_.push_back({brace, a});
    bump(a, +1);
  }

  void pop_frame() {
    const Frame f = frames_.back();
    frames_.pop_back();
    bump(f.a, -1);
    if (f.a.region) pop_region();
  }

  void pop_stmt_frames() {
    while (!frames_.empty() && !frames_.back().brace) pop_frame();
  }

  // ---- regions -----------------------------------------------------------

  void push_region(const OmpDirectiveInfo& dir) {
    RegionState rs;
    rs.shared = dir.shared;
    rs.priv = dir.privatized;
    rs.red = dir.reductions;
    rs.s_single = single_;
    rs.s_master = master_;
    rs.s_critical = critical_;
    rs.s_atomic = atomic_;
    rs.s_tid0 = tid0_;
    rs.s_divif = divif_;
    single_ = master_ = critical_ = atomic_ = tid0_ = divif_ = 0;

    OmpRegion node;
    node.line = dir.line;
    node.directive = dir;
    node.parent = regions_.empty() ? -1 : regions_.back().tree_index;
    node.depth = node.parent < 0 ? 0 : tree_.regions[static_cast<std::size_t>(
                                           node.parent)].depth + 1;
    rs.tree_index = static_cast<int>(tree_.regions.size());
    if (node.parent >= 0) {
      tree_.regions[static_cast<std::size_t>(node.parent)].children.push_back(
          rs.tree_index);
    }
    tree_.regions.push_back(std::move(node));
    regions_.push_back(std::move(rs));
  }

  void pop_region() {
    const RegionState& rs = regions_.back();
    single_ = rs.s_single;
    master_ = rs.s_master;
    critical_ = rs.s_critical;
    atomic_ = rs.s_atomic;
    tid0_ = rs.s_tid0;
    divif_ = rs.s_divif;
    regions_.pop_back();
  }

  bool guarded() const {
    return single_ > 0 || master_ > 0 || critical_ > 0 || atomic_ > 0 ||
           tid0_ > 0;
  }

  bool pend_guardish() const {
    return pend_active_ && (pend_.single || pend_.master || pend_.critical ||
                            pend_.tid0 || pend_.divif);
  }

  // ---- directives --------------------------------------------------------

  void handle_directive(const Directive& d) {
    const auto info = parse_omp_directive(d);
    if (!info) return;

    const bool barrier = info->has("barrier");
    const bool worksharing = !info->has("parallel") &&
                             (info->has("for") || info->has("sections") ||
                              info->has("single") || info->has("workshare"));
    if (!regions_.empty() && (barrier || worksharing) &&
        (single_ > 0 || master_ > 0 || critical_ > 0 || tid0_ > 0 ||
         divif_ > 0 || pend_guardish())) {
      report(ctx_, out_, d.line, "omp.barrier-divergence",
             std::string(barrier ? "barrier" : "worksharing construct") +
                 " under a single/master/critical or thread-divergent branch: "
                 "threads that skip it deadlock the team");
    }

    if (cfg_.hot.count(ctx_.module) != 0 &&
        (info->has("critical") || info->has("atomic"))) {
      report(ctx_, out_, d.line, "omp.hot-critical",
             std::string(info->has("critical") ? "critical" : "atomic") +
                 " construct in a hot module serializes the bandwidth-bound "
                 "path; use per-thread padded slots or a reduction");
    }

    Attrs a;
    if (info->has("parallel")) {
      a.region = true;
      a.dir = *info;
    } else if (info->has("single")) {
      a.single = true;
    } else if (info->has("master") || info->has("masked")) {
      a.master = true;
    } else if (info->has("critical")) {
      a.critical = true;
    } else if (info->has("atomic")) {
      a.atomic = true;
    } else {
      return;  // barrier / orphan worksharing / simd: no frame needed
    }
    if (pend_active_) {
      // `if (...)` directly followed by a construct: keep the branch guards.
      a.single = a.single || pend_.single;
      a.master = a.master || pend_.master;
      a.critical = a.critical || pend_.critical;
      a.tid0 = a.tid0 || pend_.tid0;
      a.divif = a.divif || pend_.divif;
    }
    pend_ = a;
    pend_active_ = true;
  }

  // ---- per-token walk ----------------------------------------------------

  void step(std::size_t i) {
    const Token& t = toks_[i];
    const bool punct = t.kind == TokKind::kPunct;

    // Control-statement header capture: `if` always (divergence analysis),
    // for/while/switch only when carrying pending construct attributes.
    if (ctrl_cap_) {
      if (punct && t.text == "(") {
        ++paren_;
        ctrl_toks_.push_back(i);
      } else if (punct && t.text == ")") {
        --paren_;
        if (paren_ == ctrl_base_) {
          ctrl_cap_ = false;
          finish_ctrl();
        } else {
          ctrl_toks_.push_back(i);
        }
      } else {
        ctrl_toks_.push_back(i);
      }
      detect(i);
      return;
    }
    if (ctrl_kw_) {
      if (punct && t.text == "(") {
        ctrl_base_ = paren_;
        ++paren_;
        ctrl_kw_ = false;
        ctrl_cap_ = true;
        ctrl_toks_.clear();
        return;
      }
      if (t.kind != TokKind::kIdent) ctrl_kw_ = false;  // lost the pattern
    }

    if (punct && t.text == "(") {
      ++paren_;
      detect(i);
      return;
    }
    if (punct && t.text == ")") {
      if (paren_ > 0) --paren_;
      pend_active_ = false;  // a statement cannot start with ')'
      return;
    }
    if (punct && t.text == "{") {
      if (pend_active_ && paren_ == 0) {
        attach(/*brace=*/true);
      } else {
        push_frame(true, Attrs{});
      }
      return;
    }
    if (punct && t.text == "}") {
      pend_active_ = false;
      pop_stmt_frames();
      if (!frames_.empty()) pop_frame();
      return;
    }
    if (punct && t.text == ";" && paren_ == 0) {
      pend_active_ = false;
      pop_stmt_frames();
      return;
    }

    if (t.kind == TokKind::kIdent &&
        (t.text == "if" ||
         (pend_active_ && paren_ == 0 &&
          (t.text == "for" || t.text == "while" || t.text == "switch")))) {
      ctrl_carry_ = pend_active_ ? pend_ : Attrs{};
      ctrl_is_if_ = t.text == "if";
      pend_active_ = false;
      if (ctrl_carry_.region && !ctrl_carry_.region_pushed) {
        // `parallel for`: open the region at the loop keyword so header
        // declarations (the loop variable) classify as region-private.
        push_region(ctrl_carry_.dir);
        ctrl_carry_.region_pushed = true;
      }
      ctrl_kw_ = true;
      return;
    }

    if (pend_active_ && paren_ == 0) attach(/*brace=*/false);

    detect(i);
  }

  void attach(bool brace) {
    Attrs a = pend_;
    pend_active_ = false;
    if (a.region && !a.region_pushed) {
      push_region(a.dir);
      a.region_pushed = true;
    }
    push_frame(brace, a);
  }

  // Completed if/for/while/switch header: attach carried attributes (plus
  // divergence classification for `if`) to the upcoming substatement.
  void finish_ctrl() {
    Attrs a = ctrl_carry_;
    ctrl_carry_ = Attrs{};
    if (ctrl_is_if_ && !regions_.empty()) {
      const RegionState& reg = regions_.back();
      // Strip redundant wrapping parens: ((tid == 0)).
      std::size_t b = 0, e = ctrl_toks_.size();
      while (e - b > 2 && toks_[ctrl_toks_[b]].text == "(" &&
             toks_[ctrl_toks_[e - 1]].text == ")") {
        ++b;
        --e;
      }
      bool tid0 = false;
      if (e - b == 4) {
        const Token& t0 = toks_[ctrl_toks_[b]];
        const Token& t1 = toks_[ctrl_toks_[b + 1]];
        const Token& t2 = toks_[ctrl_toks_[b + 2]];
        const Token& t3 = toks_[ctrl_toks_[b + 3]];
        const bool eq = t1.text == "=" && t2.text == "=";
        if (eq && t0.kind == TokKind::kIdent && t3.text == "0" &&
            reg.tid_vars.count(t0.text) != 0) {
          tid0 = true;
        }
        if (eq && t3.kind == TokKind::kIdent && t0.text == "0" &&
            reg.tid_vars.count(t3.text) != 0) {
          tid0 = true;
        }
      }
      bool divergent = false;
      if (!tid0) {
        for (std::size_t k = b; k < e; ++k) {
          const Token& ct = toks_[ctrl_toks_[k]];
          if (ct.kind == TokKind::kIdent &&
              (reg.priv.count(ct.text) != 0 ||
               reg.tid_vars.count(ct.text) != 0)) {
            divergent = true;
            break;
          }
        }
      }
      a.tid0 = a.tid0 || tid0;
      a.divif = a.divif || divergent;
    }
    pend_ = a;
    pend_active_ = true;
  }

  // ---- identifier classification & rule checks ---------------------------

  void detect(std::size_t i) {
    if (regions_.empty()) return;
    const Token& t = toks_[i];
    if (t.kind == TokKind::kIdent) {
      detect_decl(i);
      detect_reduction_read(i);
      return;
    }
    if (t.kind != TokKind::kPunct) return;
    if (t.text == "=") {
      handle_assign(i);
    } else if ((t.text == "+" || t.text == "-") && i + 1 < toks_.size() &&
               toks_[i + 1].text == t.text &&
               toks_[i + 1].kind == TokKind::kPunct) {
      handle_incdec(i);
    }
  }

  // Declared-inside heuristic: previous token looks like a type (identifier
  // or * & >), next token starts a declarator tail. Adds the name to the
  // innermost region's private set; an initializer calling
  // omp_get_thread_num() marks a thread-id variable.
  void detect_decl(std::size_t i) {
    const Token& t = toks_[i];
    if (is_keyword(t.text) || i == 0 || i + 1 >= toks_.size()) return;
    const Token& prev = toks_[i - 1];
    const Token& next = toks_[i + 1];
    const bool prev_ok =
        (prev.kind == TokKind::kIdent && !blocks_decl(prev.text) &&
         !is_keyword(prev.text)) ||
        (prev.kind == TokKind::kIdent && !blocks_decl(prev.text) &&
         (prev.text == "auto" || prev.text == "int" || prev.text == "bool" ||
          prev.text == "char" || prev.text == "short" || prev.text == "long" ||
          prev.text == "float" || prev.text == "double" ||
          prev.text == "unsigned" || prev.text == "signed")) ||
        (prev.kind == TokKind::kPunct && one_of(prev.text, "*&>"));
    if (!prev_ok) return;
    bool next_ok = false;
    if (next.kind == TokKind::kPunct) {
      if (one_of(next.text, ";,({[:")) {
        next_ok = true;
      } else if (next.text == "=" &&
                 (i + 2 >= toks_.size() || toks_[i + 2].text != "=")) {
        next_ok = true;
      }
    }
    if (!next_ok) return;
    RegionState& reg = regions_.back();
    reg.priv.insert(t.text);
    if (next.text == "=") {
      const std::size_t se = stmt_end(i + 2);
      for (std::size_t k = i + 2; k < se; ++k) {
        if (toks_[k].kind == TokKind::kIdent &&
            toks_[k].text == "omp_get_thread_num") {
          reg.tid_vars.insert(t.text);
          break;
        }
      }
    }
  }

  // A reduction variable may only appear as the target of a compatible
  // update or inside the right-hand side of its own update statement.
  void detect_reduction_read(std::size_t i) {
    RegionState& reg = regions_.back();
    const auto rit = reg.red.find(toks_[i].text);
    if (rit == reg.red.end()) return;
    const auto ok = reg.rhs_ok_until.find(toks_[i].text);
    if (ok != reg.rhs_ok_until.end() && i < ok->second) return;
    if (is_update_target(i)) return;
    report(ctx_, out_, toks_[i].line, "omp.reduction-misuse",
           "reduction variable `" + toks_[i].text +
               "` read mid-region: partial per-thread values are "
               "meaningless before the region ends");
  }

  bool is_update_target(std::size_t i) const {
    // Prefix ++x / --x.
    if (i >= 2 && toks_[i - 1].kind == TokKind::kPunct &&
        toks_[i - 2].kind == TokKind::kPunct &&
        toks_[i - 1].text == toks_[i - 2].text &&
        one_of(toks_[i - 1].text, "+-")) {
      return true;
    }
    if (i + 1 >= toks_.size()) return false;
    const Token& n1 = toks_[i + 1];
    if (n1.kind != TokKind::kPunct) return false;
    const bool has2 = i + 2 < toks_.size();
    const std::string n2 = has2 ? toks_[i + 2].text : std::string{};
    if (n1.text == "=" && n2 != "=") return true;                  // x = ...
    if (one_of(n1.text, "+-") && n2 == n1.text) return true;       // x++
    if (one_of(n1.text, "+-*/%&|^") && n2 == "=") return true;     // x op= ...
    if (one_of(n1.text, "<>") && n2 == n1.text && i + 3 < toks_.size() &&
        toks_[i + 3].text == "=") {
      return true;  // x <<= ...
    }
    return false;
  }

  // Walk back from `from` over an lvalue chain (members, subscripts).
  // Returns the root identifier index or npos; sets `subscripted` when any
  // [] appears in the chain.
  std::size_t lvalue_root(std::size_t from, bool& subscripted) const {
    subscripted = false;
    std::size_t j = from;
    while (true) {
      if (toks_[j].kind == TokKind::kPunct && toks_[j].text == "]") {
        int depth = 1;
        while (j > 0 && depth > 0) {
          --j;
          if (toks_[j].text == "]") ++depth;
          if (toks_[j].text == "[") --depth;
        }
        if (depth != 0 || j == 0) return npos;
        subscripted = true;
        --j;
        continue;
      }
      if (toks_[j].kind == TokKind::kIdent) {
        if (j == 0) return j;
        const Token& p = toks_[j - 1];
        if (p.kind == TokKind::kPunct &&
            (p.text == "." || p.text == "->" || p.text == "::")) {
          if (j < 2) return npos;
          j -= 2;
          continue;
        }
        return j;
      }
      return npos;  // ')' call result, '*' deref, anything else: give up
    }
  }

  // First `;` at balanced paren depth from `from` (exclusive bound; stops
  // at braces and at an unbalanced close paren).
  std::size_t stmt_end(std::size_t from) const {
    int depth = 0;
    for (std::size_t j = from; j < toks_.size(); ++j) {
      const Token& t = toks_[j];
      if (t.kind != TokKind::kPunct) continue;
      if (t.text == "(" || t.text == "[") ++depth;
      if (t.text == ")" || t.text == "]") {
        if (depth == 0) return j;
        --depth;
      }
      if (depth == 0 && (t.text == ";" || t.text == "{" || t.text == "}")) {
        return j;
      }
    }
    return toks_.size();
  }

  void handle_assign(std::size_t i) {
    if (i == 0) return;
    const Token& prev = toks_[i - 1];
    std::string op = "=";
    std::size_t op_start = i;
    if (prev.kind == TokKind::kPunct) {
      if (one_of(prev.text, "=!")) return;  // == !=
      if (one_of(prev.text, "<>")) {
        if (i >= 2 && toks_[i - 2].text == prev.text) {
          op = prev.text + prev.text + "=";  // <<= >>=
          op_start = i - 2;
        } else {
          return;  // <= >=
        }
      } else if (one_of(prev.text, "+-*/%&|^")) {
        op = prev.text + "=";
        op_start = i - 1;
      }
    }
    if (op == "=" && i + 1 < toks_.size() && toks_[i + 1].text == "=") return;
    if (op_start == 0) return;
    handle_update(op, op_start, /*rhs_from=*/i + 1);
  }

  void handle_incdec(std::size_t i) {
    // Postfix: lvalue ends just before the operator.
    const bool post =
        i > 0 && (toks_[i - 1].kind == TokKind::kIdent ||
                  toks_[i - 1].text == "]");
    const std::string op = toks_[i].text + toks_[i].text;
    if (post) {
      handle_update(op, i, /*rhs_from=*/npos);
      return;
    }
    // Prefix: target chain starts after the operator pair.
    if (i + 2 < toks_.size() && toks_[i + 2].kind == TokKind::kIdent) {
      bool subscripted = i + 3 < toks_.size() && toks_[i + 3].text == "[";
      check_update(toks_[i + 2].text, subscripted, op, toks_[i].line, npos);
    }
  }

  void handle_update(const std::string& op, std::size_t op_start,
                     std::size_t rhs_from) {
    bool subscripted = false;
    const std::size_t root = lvalue_root(op_start - 1, subscripted);
    if (root == npos) return;
    check_update(toks_[root].text, subscripted, op, toks_[root].line,
                 rhs_from);
  }

  void check_update(const std::string& name, bool subscripted,
                    const std::string& op, int line, std::size_t rhs_from) {
    RegionState& reg = regions_.back();
    const std::size_t se =
        rhs_from == npos ? npos : stmt_end(rhs_from);

    const auto rit = reg.red.find(name);
    if (rit != reg.red.end() && !subscripted) {
      const std::string& rop = rit->second;
      bool ok = false;
      if (op == "++" || op == "--" || op == "+=" || op == "-=") {
        ok = rop == "+" || rop == "-";
      } else if (op == "*=") {
        ok = rop == "*";
      } else if (op == "&=" || op == "|=" || op == "^=") {
        ok = rop == op.substr(0, 1);
      } else if (op == "=") {
        // Plain assignment is a legal reduction step only when the new value
        // is derived from the old one: x = std::max(x, v), x = x && ok, ...
        ok = rhs_from != npos && rhs_has(rhs_from, se, name);
        if (!ok) {
          report(ctx_, out_, line, "omp.reduction-misuse",
                 "reduction variable `" + name +
                     "` overwritten without reading itself; the partial "
                     "result of other iterations is lost");
        }
      }
      if (!ok && op != "=") {
        report(ctx_, out_, line, "omp.reduction-misuse",
               "reduction variable `" + name + "` updated with `" + op +
                   "` which does not match reduction(" + rop + ")");
      }
      if (rhs_from != npos) reg.rhs_ok_until[name] = se;
      return;
    }

    if (reg.shared.count(name) == 0) return;
    if (!subscripted && !guarded()) {
      report(ctx_, out_, line, "omp.shared-write",
             "unguarded write to shared `" + name +
                 "`: every thread races on it; guard with single/master/"
                 "critical/atomic, make it a reduction, or index it by the "
                 "loop variable");
    }
    // Escape check: &private stored through a shared lvalue (guards do not
    // help — the pointee is still another thread's dead stack slot later).
    if (rhs_from == npos) return;
    for (std::size_t k = rhs_from; k < se && k + 1 < toks_.size(); ++k) {
      const Token& a = toks_[k];
      if (a.kind != TokKind::kPunct || a.text != "&") continue;
      const Token& p = toks_[k - 1];
      const bool unary =
          (p.kind == TokKind::kPunct && one_of(p.text, "=(,?:&<{")) ||
          (p.kind == TokKind::kIdent && p.text == "return");
      if (!unary) continue;
      const Token& tgt = toks_[k + 1];
      if (tgt.kind == TokKind::kIdent &&
          (reg.priv.count(tgt.text) != 0 || reg.tid_vars.count(tgt.text) != 0) &&
          reg.shared.count(tgt.text) == 0) {
        report(ctx_, out_, tgt.line, "omp.private-escape",
               "address of region-private `" + tgt.text +
                   "` stored through shared `" + name +
                   "`: the pointee dies with the owning thread");
        break;
      }
    }
  }

  bool rhs_has(std::size_t from, std::size_t to, const std::string& name) const {
    for (std::size_t k = from; k < to && k < toks_.size(); ++k) {
      if (toks_[k].kind == TokKind::kIdent && toks_[k].text == name) return true;
    }
    return false;
  }

  // std::atomic declared in a hot module without alignas padding nearby:
  // false sharing serializes the counter the same way a critical would.
  void check_unpadded_atomics() {
    if (cfg_.hot.count(ctx_.module) == 0) return;
    for (std::size_t i = 0; i + 2 < toks_.size(); ++i) {
      if (toks_[i].text != "std" || toks_[i + 1].text != "::" ||
          toks_[i + 2].text != "atomic" ||
          toks_[i + 2].kind != TokKind::kIdent) {
        continue;
      }
      bool padded = false;
      const std::size_t back = i > 12 ? i - 12 : 0;
      for (std::size_t k = i; k > back; --k) {
        if (toks_[k - 1].text == "alignas") {
          padded = true;
          break;
        }
      }
      if (!padded) {
        report(ctx_, out_, toks_[i].line, "omp.unpadded-atomic",
               "std::atomic in a hot module without alignas cache-line "
               "padding; false sharing serializes it — use per-thread "
               "padded slots");
      }
    }
  }

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  FileCtx& ctx_;
  const Config& cfg_;
  std::vector<Finding>& out_;
  OmpRegionTree* tree_out_;
  const std::vector<Token>& toks_;

  OmpRegionTree tree_;
  std::vector<Frame> frames_;
  std::vector<RegionState> regions_;
  int paren_ = 0;
  int single_ = 0, master_ = 0, critical_ = 0, atomic_ = 0, tid0_ = 0,
      divif_ = 0;

  Attrs pend_;
  bool pend_active_ = false;
  bool ctrl_kw_ = false, ctrl_cap_ = false, ctrl_is_if_ = false;
  int ctrl_base_ = 0;
  Attrs ctrl_carry_;
  std::vector<std::size_t> ctrl_toks_;
};

}  // namespace

void check_omp_sharing(FileCtx& ctx, const Config& cfg,
                       std::vector<Finding>& out, OmpRegionTree* tree) {
  SharingWalker{ctx, cfg, out, tree}.run();
}

}  // namespace sparta::analyze
