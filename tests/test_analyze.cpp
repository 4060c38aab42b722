// Unit tests for the sparta_analyze static analyzer: tokenizer edge cases,
// suppression parsing, and one in-memory accept/reject pair per rule family.
// The on-disk fixture trees (tests/analyze_fixtures/) and the self-host run
// over src/ are exercised as separate ctest entries driving the real binary.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "analyzer.hpp"
#include "cfg.hpp"
#include "omp_model.hpp"

namespace sa = sparta::analyze;

namespace {

std::vector<std::string> rules_of(const std::vector<sa::Finding>& findings) {
  std::vector<std::string> rules;
  rules.reserve(findings.size());
  for (const sa::Finding& f : findings) rules.push_back(f.rule);
  return rules;
}

bool has_rule(const std::vector<sa::Finding>& findings, std::string_view rule) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const sa::Finding& f) { return f.rule == rule; });
}

std::vector<sa::Finding> analyze_one(const std::string& rel, const std::string& src) {
  return sa::analyze_files({sa::lex(rel, src)}, sa::default_config());
}

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

TEST(Tokenizer, CommentsAndStringsProduceNoCodeTokens) {
  const sa::LexedFile f = sa::lex("a.cpp",
                                  "// for (;;) throw 1;\n"
                                  "/* while (x) { new int; } */\n"
                                  "const char* s = \"malloc(1)\";\n");
  for (const sa::Token& t : f.tokens) {
    EXPECT_NE(t.text, "for");
    EXPECT_NE(t.text, "throw");
    EXPECT_NE(t.text, "while");
    EXPECT_NE(t.text, "new");
    EXPECT_NE(t.text, "malloc");
  }
  // The string literal itself is a single contentless token.
  const auto strings = std::count_if(f.tokens.begin(), f.tokens.end(), [](const sa::Token& t) {
    return t.kind == sa::TokKind::kString;
  });
  EXPECT_EQ(strings, 1);
}

TEST(Tokenizer, RawStringSwallowsEverythingToItsDelimiter) {
  const sa::LexedFile f = sa::lex("a.cpp",
                                  "auto r = R\"x(\n"
                                  "  while (1) { v.push_back(0); }\n"
                                  "  \")\" )not_the_end\n"
                                  ")x\";\n"
                                  "int after = 1;\n");
  for (const sa::Token& t : f.tokens) EXPECT_NE(t.text, "push_back");
  // Lexing resynchronizes after the raw string.
  const auto it = std::find_if(f.tokens.begin(), f.tokens.end(),
                               [](const sa::Token& t) { return t.text == "after"; });
  ASSERT_NE(it, f.tokens.end());
  EXPECT_EQ(it->line, 5);
}

TEST(Tokenizer, LineContinuationJoinsDirectives) {
  const sa::LexedFile f = sa::lex("a.cpp",
                                  "#pragma omp parallel for default(none) \\\n"
                                  "    shared(a) schedule(static)\n"
                                  "int x;\n");
  ASSERT_EQ(f.directives.size(), 1u);
  EXPECT_EQ(f.directives[0].line, 1);
  EXPECT_NE(f.directives[0].text.find("schedule(static)"), std::string::npos);
  // The token after the directive still carries its physical line.
  const auto it = std::find_if(f.tokens.begin(), f.tokens.end(),
                               [](const sa::Token& t) { return t.text == "x"; });
  ASSERT_NE(it, f.tokens.end());
  EXPECT_EQ(it->line, 3);
}

TEST(Tokenizer, PragmaInCommentIsNotADirective) {
  const sa::LexedFile f = sa::lex("a.cpp",
                                  "// #pragma omp parallel\n"
                                  "/* #pragma once */\n"
                                  "#include \"common/x.hpp\"\n");
  ASSERT_EQ(f.directives.size(), 1u);
  EXPECT_EQ(f.directives[0].line, 3);
}

TEST(Tokenizer, DigitSeparatorIsNotACharLiteral) {
  const sa::LexedFile f = sa::lex("a.cpp", "int n = 1'000'000; char c = 'x';\n");
  const auto chars = std::count_if(f.tokens.begin(), f.tokens.end(), [](const sa::Token& t) {
    return t.kind == sa::TokKind::kChar;
  });
  EXPECT_EQ(chars, 1);
  const auto it = std::find_if(f.tokens.begin(), f.tokens.end(), [](const sa::Token& t) {
    return t.kind == sa::TokKind::kNumber && t.text.rfind("1", 0) == 0;
  });
  ASSERT_NE(it, f.tokens.end());
  EXPECT_EQ(it->text, "1000000");
}

TEST(Tokenizer, SquashRemovesAllWhitespace) {
  EXPECT_EQ(sa::squash("default ( none )"), "default(none)");
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

TEST(Suppressions, SameLineAndLineAboveBothApply) {
  const std::vector<std::string> lines = {
      "int a;  // sparta-analyze: allow(purity.alloc)",
      "// sparta-analyze: allow(purity.throw)",
      "int b;",
  };
  sa::Suppressions supp{lines, "sparta-analyze"};
  EXPECT_TRUE(supp.allowed("purity.alloc", 1));
  EXPECT_TRUE(supp.allowed("purity.throw", 3));
  EXPECT_FALSE(supp.allowed("purity.io", 1));
  EXPECT_FALSE(supp.allowed("purity.alloc", 3));
  EXPECT_TRUE(supp.unused().empty());
}

TEST(Suppressions, MultiRuleListAndUnusedTracking) {
  const std::vector<std::string> lines = {
      "// sparta-analyze: allow(purity.alloc, omp.default-none)",
      "int a;",
  };
  sa::Suppressions supp{lines, "sparta-analyze"};
  EXPECT_TRUE(supp.allowed("purity.alloc", 2));
  const auto unused = supp.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0].rule, "omp.default-none");
  EXPECT_EQ(unused[0].line, 1);
}

TEST(Suppressions, WrongTagIsIgnored) {
  const std::vector<std::string> lines = {"int a;  // sparta-other: allow(purity.alloc)"};
  sa::Suppressions supp{lines, "sparta-analyze"};
  EXPECT_FALSE(supp.allowed("purity.alloc", 1));
}

// ---------------------------------------------------------------------------
// Rules: accept/reject per family (in-memory)
// ---------------------------------------------------------------------------

TEST(PurityRule, FlagsAllocationOnlyInsideLoops) {
  const auto bad = analyze_one("kernels/k.cpp",
                               "void f(int n) {\n"
                               "  for (int i = 0; i < n; ++i) {\n"
                               "    auto* p = new int;\n"
                               "  }\n"
                               "}\n");
  EXPECT_TRUE(has_rule(bad, "purity.alloc"));

  const auto good = analyze_one("kernels/k.cpp",
                                "void f(int n) {\n"
                                "  auto* p = new int;\n"
                                "  for (int i = 0; i < n; ++i) { *p += i; }\n"
                                "}\n");
  EXPECT_FALSE(has_rule(good, "purity.alloc"));
}

TEST(PurityRule, ParallelRegionBraceIsNotALoop) {
  const auto f = analyze_one("kernels/k.cpp",
                             "void f(int n) {\n"
                             "#pragma omp parallel default(none) shared(n)\n"
                             "  {\n"
                             "    std::vector<double> scratch(8);\n"
                             "    for (int i = 0; i < n; ++i) { scratch[0] += i; }\n"
                             "  }\n"
                             "}\n");
  EXPECT_FALSE(has_rule(f, "purity.alloc")) << "per-thread scratch outside loops is legal";
}

TEST(PurityRule, ColdModulesAreExempt) {
  const auto f = analyze_one("features/f.cpp",
                             "void f(int n) {\n"
                             "  for (int i = 0; i < n; ++i) { auto* p = new int; }\n"
                             "}\n");
  EXPECT_FALSE(has_rule(f, "purity.alloc"));
}

TEST(RawAssertRule, FlagsAssertCallsOnlyInLibraryTrees) {
  const std::string src =
      "static_assert(sizeof(int) == 4, \"assert(x)\");\n"
      "// assert(x) in a comment\n"
      "int f(int x) { assert(x > 0); return x; }\n";
  const auto f = analyze_one("sparse/s.cpp", src);
  std::vector<int> lines;
  for (const sa::Finding& x : f) {
    if (x.rule == "contract.raw-assert") lines.push_back(x.line);
  }
  EXPECT_EQ(lines, std::vector<int>{3});
  // bench/ and tools/ trees (the tools profile) keep their asserts.
  EXPECT_FALSE(has_rule(sa::analyze_files({sa::lex("b.cpp", src)}, sa::tools_config()),
                        "contract.raw-assert"));
}

TEST(OmpRule, ParallelNeedsDefaultNone) {
  const auto bad = analyze_one("sparse/s.cpp",
                               "void f() {\n"
                               "#pragma omp parallel for\n"
                               "  for (int i = 0; i < 4; ++i) {}\n"
                               "}\n");
  EXPECT_TRUE(has_rule(bad, "omp.default-none"));

  const auto good = analyze_one("sparse/s.cpp",
                                "void f() {\n"
                                "#pragma omp parallel for default(none)\n"
                                "  for (int i = 0; i < 4; ++i) {}\n"
                                "}\n");
  EXPECT_FALSE(has_rule(good, "omp.default-none"));

  // Non-parallel constructs (barrier, simd, for inside a region) are exempt.
  const auto simd = analyze_one("sparse/s.cpp",
                                "void f() {\n"
                                "#pragma omp simd\n"
                                "  for (int i = 0; i < 4; ++i) {}\n"
                                "}\n");
  EXPECT_FALSE(has_rule(simd, "omp.default-none"));
}

TEST(OmpRule, ScheduleRuntimeOnlyInTuner) {
  const std::string body =
      "void f() {\n"
      "#pragma omp parallel for default(none) schedule(runtime)\n"
      "  for (int i = 0; i < 4; ++i) {}\n"
      "}\n";
  EXPECT_TRUE(has_rule(analyze_one("kernels/k.cpp", body), "omp.schedule-runtime"));
  EXPECT_FALSE(has_rule(analyze_one("tuner/t.cpp", body), "omp.schedule-runtime"));
}

TEST(LayeringRule, UpwardIncludeAndCycle) {
  const auto upward = analyze_one("sparse/s.hpp",
                                  "#pragma once\n"
                                  "#include \"engine/e.hpp\"\n");
  EXPECT_TRUE(has_rule(upward, "layering.upward"));

  const auto cyc = sa::analyze_files(
      {sa::lex("machine/a.hpp", "#pragma once\n#include \"gen/b.hpp\"\n"),
       sa::lex("gen/b.hpp", "#pragma once\n#include \"machine/a.hpp\"\n")},
      sa::default_config());
  EXPECT_TRUE(has_rule(cyc, "layering.cycle"));

  // The legal direction is quiet.
  const auto down = analyze_one("engine/e.hpp",
                                "#pragma once\n"
                                "#include \"kernels/k.hpp\"\n"
                                "#include \"common/c.hpp\"\n");
  EXPECT_FALSE(has_rule(down, "layering.upward"));
  EXPECT_FALSE(has_rule(down, "layering.cycle"));
}

TEST(LayeringRule, CheckModuleIsExemptBothWays) {
  const auto f = sa::analyze_files(
      {sa::lex("check/v.hpp", "#pragma once\n#include \"engine/e.hpp\"\n"),
       sa::lex("common/c.hpp", "#pragma once\n#include \"check/v.hpp\"\n")},
      sa::default_config());
  EXPECT_FALSE(has_rule(f, "layering.upward"));
}

TEST(RestrictRule, RawPointerParamsNeedRestrict) {
  const auto bad = analyze_one("kernels/k.hpp",
                               "#pragma once\n"
                               "double row(const double* values, int n);\n");
  EXPECT_TRUE(has_rule(bad, "restrict.missing"));

  const auto good = analyze_one("kernels/k.hpp",
                                "#pragma once\n"
                                "double row(const double* SPARTA_RESTRICT values, int n);\n"
                                "void apply(void (*fn)(int), int n);\n"
                                "double span_ok(std::span<const double> v);\n");
  EXPECT_FALSE(has_rule(good, "restrict.missing"));

  // Cold modules are exempt.
  const auto cold = analyze_one("features/f.hpp",
                                "#pragma once\n"
                                "double row(const double* values, int n);\n");
  EXPECT_FALSE(has_rule(cold, "restrict.missing"));
}

TEST(HygieneRule, PragmaOnceUsingNamespaceSelfInclude) {
  const auto bad_hdr = analyze_one("common/h.hpp", "using namespace std;\nint x;\n");
  EXPECT_TRUE(has_rule(bad_hdr, "header.pragma-once"));
  EXPECT_TRUE(has_rule(bad_hdr, "header.using-namespace"));

  // using namespace inside a function body in a header is legal.
  const auto fn_scope = analyze_one("common/h.hpp",
                                    "#pragma once\n"
                                    "inline void f() { using namespace std; }\n");
  EXPECT_FALSE(has_rule(fn_scope, "header.using-namespace"));

  const auto pair = sa::analyze_files(
      {sa::lex("common/a.hpp", "#pragma once\nint v();\n"),
       sa::lex("common/a.cpp", "#include \"common/other.hpp\"\n#include \"common/a.hpp\"\n")},
      sa::default_config());
  EXPECT_TRUE(has_rule(pair, "header.self-include"));
}

TEST(SuppressionRule, AllowSilencesAndUnusedIsReported) {
  const auto f = analyze_one("kernels/k.cpp",
                             "void f(int n) {\n"
                             "  for (int i = 0; i < n; ++i) {\n"
                             "    auto* p = new int;  // sparta-analyze: allow(purity.alloc)\n"
                             "  }\n"
                             "}\n"
                             "// sparta-analyze: allow(purity.io)\n");
  EXPECT_FALSE(has_rule(f, "purity.alloc"));
  ASSERT_TRUE(has_rule(f, "suppression.unused"));
  const auto rules = rules_of(f);
  EXPECT_EQ(std::count(rules.begin(), rules.end(), "suppression.unused"), 1);
}

// ---------------------------------------------------------------------------
// OpenMP directive model: _Pragma form, continued clause lists, region tree
// ---------------------------------------------------------------------------

TEST(OmpModel, PragmaOperatorFormBecomesADirective) {
  const sa::LexedFile f = sa::lex(
      "a.cpp",
      "void f() {\n"
      "  _Pragma(\"omp parallel for default(none) shared(y, n)\")\n"
      "  for (int i = 0; i < n; ++i) y[i] = 0;\n"
      "}\n");
  ASSERT_EQ(f.directives.size(), 1u);
  EXPECT_EQ(f.directives[0].line, 2);
  const auto info = sa::parse_omp_directive(f.directives[0]);
  ASSERT_TRUE(info.has_value());
  EXPECT_TRUE(info->has("parallel"));
  EXPECT_TRUE(info->has("for"));
  EXPECT_TRUE(info->default_none);
  EXPECT_EQ(info->shared, (std::set<std::string>{"y", "n"}));
}

TEST(OmpModel, ContinuedClauseListIsNeverTruncated) {
  const sa::LexedFile f = sa::lex(
      "a.cpp",
      "#pragma omp parallel default(none) \\\n"
      "    shared(alpha, beta, \\\n"
      "           gamma) \\\n"
      "    firstprivate(delta) reduction(max : peak)\n"
      "{}\n");
  ASSERT_EQ(f.directives.size(), 1u);
  const auto info = sa::parse_omp_directive(f.directives[0]);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->shared, (std::set<std::string>{"alpha", "beta", "gamma"}));
  EXPECT_EQ(info->privatized, (std::set<std::string>{"delta"}));
  ASSERT_EQ(info->reductions.count("peak"), 1u);
  EXPECT_EQ(info->reductions.at("peak"), "max");
}

TEST(OmpModel, NonOmpDirectivesParseToNullopt) {
  const sa::LexedFile f = sa::lex("a.cpp", "#include <vector>\n#pragma once\n");
  ASSERT_EQ(f.directives.size(), 2u);
  EXPECT_FALSE(sa::parse_omp_directive(f.directives[0]).has_value());
  EXPECT_FALSE(sa::parse_omp_directive(f.directives[1]).has_value());
}

TEST(OmpModel, RegionTreeTracksNestingAndCombinedConstructs) {
  const sa::LexedFile f = sa::lex(
      "a.cpp",
      "void f(int n) {\n"
      "#pragma omp parallel default(none) shared(n)\n"
      "  {\n"
      "#pragma omp parallel for default(none) shared(n)\n"
      "    for (int i = 0; i < n; ++i) {\n"
      "      int x = i;\n"
      "    }\n"
      "  }\n"
      "#pragma omp parallel default(none) shared(n)\n"
      "  {}\n"
      "}\n");
  const sa::OmpRegionTree tree = sa::build_region_tree(f);
  ASSERT_EQ(tree.regions.size(), 3u);
  EXPECT_EQ(tree.regions[0].depth, 0);
  EXPECT_EQ(tree.regions[0].parent, -1);
  ASSERT_EQ(tree.regions[0].children.size(), 1u);
  EXPECT_EQ(tree.regions[0].children[0], 1);
  EXPECT_EQ(tree.regions[1].depth, 1);
  EXPECT_EQ(tree.regions[1].parent, 0);
  EXPECT_TRUE(tree.regions[1].directive.has("for"));
  EXPECT_EQ(tree.regions[2].depth, 0);  // sibling, not nested
}

TEST(OmpModel, OrphanedWorksharingCreatesNoRegion) {
  const sa::LexedFile f = sa::lex(
      "a.cpp",
      "void f(int n, double* y) {\n"
      "#pragma omp for schedule(static)\n"
      "  for (int i = 0; i < n; ++i) y[i] = 0.0;\n"
      "}\n");
  EXPECT_TRUE(sa::build_region_tree(f).regions.empty());
}

// ---------------------------------------------------------------------------
// OpenMP data-sharing rules: accept/reject per family
// ---------------------------------------------------------------------------

TEST(OmpSharingRule, UnguardedSharedScalarWriteFlagged) {
  const auto bad = analyze_one("sparse/s.cpp",
                               "void f(int n, double* y) {\n"
                               "  double sum = 0.0;\n"
                               "#pragma omp parallel for default(none) shared(y, n, sum)\n"
                               "  for (int i = 0; i < n; ++i) {\n"
                               "    sum += y[i];\n"
                               "  }\n"
                               "}\n");
  EXPECT_TRUE(has_rule(bad, "omp.shared-write"));

  // Subscripted store, single-guarded scalar, tid==0 guard: all legal.
  const auto good = analyze_one(
      "sparse/s.cpp",
      "int omp_get_thread_num();\n"
      "void f(int n, double* y, double* s) {\n"
      "#pragma omp parallel default(none) shared(y, s, n)\n"
      "  {\n"
      "    const int tid = omp_get_thread_num();\n"
      "#pragma omp for schedule(static)\n"
      "    for (int i = 0; i < n; ++i) y[i] = 2.0;\n"
      "#pragma omp single\n"
      "    { s[0] = y[0]; }\n"
      "    if (tid == 0) s[1] = y[1];\n"
      "  }\n"
      "}\n");
  EXPECT_FALSE(has_rule(good, "omp.shared-write"));
}

TEST(OmpSharingRule, CriticalAndAtomicGuardWritesInColdModules) {
  const auto f = analyze_one("sparse/s.cpp",
                             "void f(int n, double* y, double* t) {\n"
                             "#pragma omp parallel for default(none) shared(y, n, t)\n"
                             "  for (int i = 0; i < n; ++i) {\n"
                             "#pragma omp atomic\n"
                             "    t[0] += y[i];\n"
                             "#pragma omp critical\n"
                             "    { t[1] += y[i]; }\n"
                             "  }\n"
                             "}\n");
  EXPECT_FALSE(has_rule(f, "omp.shared-write"));
  EXPECT_FALSE(has_rule(f, "omp.hot-critical"));  // sparse is not hot
}

TEST(OmpReductionRule, RoundTripAcceptedMisuseFlagged) {
  // max-reduction via self-referencing assignment: the spmv residual idiom.
  const auto good = analyze_one(
      "sparse/s.cpp",
      "void f(int n, const double* v, double m) {\n"
      "  double peak = 0.0;\n"
      "#pragma omp parallel for default(none) shared(v, n) reduction(max : peak)\n"
      "  for (int i = 0; i < n; ++i) {\n"
      "    peak = (peak > v[i]) ? peak : v[i];\n"
      "  }\n"
      "  m = peak;\n"  // read after the region: legal
      "}\n");
  EXPECT_FALSE(has_rule(good, "omp.reduction-misuse"));

  const auto wrong_op = analyze_one(
      "sparse/s.cpp",
      "void f(int n, const double* v) {\n"
      "  double acc = 0.0;\n"
      "#pragma omp parallel for default(none) shared(v, n) reduction(+ : acc)\n"
      "  for (int i = 0; i < n; ++i) acc *= v[i];\n"
      "}\n");
  EXPECT_TRUE(has_rule(wrong_op, "omp.reduction-misuse"));

  const auto mid_read = analyze_one(
      "sparse/s.cpp",
      "void f(int n, const double* v, double* y) {\n"
      "  double acc = 0.0;\n"
      "#pragma omp parallel for default(none) shared(v, y, n) reduction(+ : acc)\n"
      "  for (int i = 0; i < n; ++i) {\n"
      "    acc += v[i];\n"
      "    y[i] = acc;\n"
      "  }\n"
      "}\n");
  EXPECT_TRUE(has_rule(mid_read, "omp.reduction-misuse"));
}

TEST(OmpEscapeRule, PrivateAddressThroughSharedFlagged) {
  const auto bad = analyze_one(
      "sparse/s.cpp",
      "void f(int n, const double* v, double** slot) {\n"
      "#pragma omp parallel for default(none) shared(v, n, slot)\n"
      "  for (int i = 0; i < n; ++i) {\n"
      "    double local = v[i];\n"
      "#pragma omp single\n"
      "    { slot[0] = &local; }\n"
      "  }\n"
      "}\n");
  EXPECT_TRUE(has_rule(bad, "omp.private-escape"));

  // Address of a *shared* object is fine.
  const auto good = analyze_one(
      "sparse/s.cpp",
      "void f(int n, double* v, double** slot) {\n"
      "#pragma omp parallel for default(none) shared(v, n, slot)\n"
      "  for (int i = 0; i < n; ++i) {\n"
      "#pragma omp single\n"
      "    { slot[0] = &v[0]; }\n"
      "  }\n"
      "}\n");
  EXPECT_FALSE(has_rule(good, "omp.private-escape"));
}

TEST(OmpBarrierRule, DivergentBarrierFlaggedUniformAccepted) {
  const auto under_single = analyze_one(
      "sparse/s.cpp",
      "void f(int n) {\n"
      "#pragma omp parallel default(none) shared(n)\n"
      "  {\n"
      "#pragma omp single\n"
      "    {\n"
      "#pragma omp barrier\n"
      "    }\n"
      "  }\n"
      "}\n");
  EXPECT_TRUE(has_rule(under_single, "omp.barrier-divergence"));

  const auto under_divergent_if = analyze_one(
      "sparse/s.cpp",
      "int omp_get_thread_num();\n"
      "void f(int n, double* y) {\n"
      "#pragma omp parallel default(none) shared(n, y)\n"
      "  {\n"
      "    const int tid = omp_get_thread_num();\n"
      "    if (tid > 0) {\n"
      "#pragma omp for\n"
      "      for (int i = 0; i < n; ++i) y[i] = 0.0;\n"
      "    }\n"
      "  }\n"
      "}\n");
  EXPECT_TRUE(has_rule(under_divergent_if, "omp.barrier-divergence"));

  // The engine shape: barrier under a uniform shared condition, and a
  // barrier inside a nested parallel region whose enclosing guard belongs
  // to the outer team.
  const auto uniform = analyze_one(
      "sparse/s.cpp",
      "void f(int n, double* st) {\n"
      "#pragma omp parallel default(none) shared(n, st)\n"
      "  {\n"
      "    if (st[0] > 0.0) {\n"
      "#pragma omp barrier\n"
      "    }\n"
      "#pragma omp single\n"
      "    {\n"
      "#pragma omp parallel default(none) shared(n)\n"
      "      {\n"
      "#pragma omp barrier\n"  // binds to the inner team: legal
      "      }\n"
      "    }\n"
      "  }\n"
      "}\n");
  EXPECT_FALSE(has_rule(uniform, "omp.barrier-divergence"));
}

TEST(OmpSerialRule, HotCriticalAndUnpaddedAtomicAreHotModuleOnly) {
  const std::string body =
      "#include <atomic>\n"
      "std::atomic<int> counter;\n"
      "alignas(64) std::atomic<int> padded;\n"
      "void f(int n, double* SPARTA_RESTRICT t) {\n"
      "#pragma omp parallel for default(none) shared(n, t)\n"
      "  for (int i = 0; i < n; ++i) {\n"
      "#pragma omp critical\n"
      "    { t[0] += 1.0; }\n"
      "  }\n"
      "}\n";
  const auto hot = analyze_one("engine/e.cpp", body);
  EXPECT_TRUE(has_rule(hot, "omp.hot-critical"));
  ASSERT_TRUE(has_rule(hot, "omp.unpadded-atomic"));
  const auto rules = rules_of(hot);
  EXPECT_EQ(std::count(rules.begin(), rules.end(), "omp.unpadded-atomic"), 1);

  const auto cold = analyze_one("tuner/t.cpp", body);
  EXPECT_FALSE(has_rule(cold, "omp.hot-critical"));
  EXPECT_FALSE(has_rule(cold, "omp.unpadded-atomic"));
}

TEST(OmpSharingRule, RegionsWithoutClausesAreNotGuessedAt) {
  // No shared clause: the writes are invisible to the sharing pass (the
  // missing default(none) is omp.default-none's finding, not a guess here).
  const auto f = analyze_one("sparse/s.cpp",
                             "void f(int n, double* y, double s) {\n"
                             "#pragma omp parallel for\n"
                             "  for (int i = 0; i < n; ++i) s += y[i];\n"
                             "}\n");
  EXPECT_TRUE(has_rule(f, "omp.default-none"));
  EXPECT_FALSE(has_rule(f, "omp.shared-write"));
}

// ---------------------------------------------------------------------------
// CFG construction round-trips
// ---------------------------------------------------------------------------

namespace {

// Build the CFGs of `src` and return the one (valid) function, asserting
// exactly one was found.
sa::Cfg one_cfg(const std::string& src) {
  const sa::LexedFile f = sa::lex("kernels/cfg.cpp", src);
  const std::vector<sa::Cfg> cfgs = sa::build_cfgs(f);
  EXPECT_EQ(cfgs.size(), 1u);
  if (cfgs.size() != 1u) return sa::Cfg{};
  EXPECT_TRUE(cfgs.front().valid);
  return cfgs.front();
}

// Every succ edge must have the matching pred edge and vice versa.
void expect_edges_mirror(const sa::Cfg& cfg) {
  for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
    for (const int s : cfg.blocks[b].succ) {
      const auto& pred = cfg.blocks[static_cast<std::size_t>(s)].pred;
      EXPECT_TRUE(std::find(pred.begin(), pred.end(), static_cast<int>(b)) != pred.end())
          << "succ edge " << b << "->" << s << " has no pred mirror";
    }
    for (const int p : cfg.blocks[b].pred) {
      const auto& succ = cfg.blocks[static_cast<std::size_t>(p)].succ;
      EXPECT_TRUE(std::find(succ.begin(), succ.end(), static_cast<int>(b)) != succ.end())
          << "pred edge " << p << "->" << b << " has no succ mirror";
    }
  }
}

}  // namespace

TEST(CfgBuild, IfElseMakesADiamond) {
  const sa::Cfg cfg = one_cfg(
      "int f(int n) {\n"
      "  int r = 0;\n"
      "  if (n > 0) { r = 1; } else { r = 2; }\n"
      "  return r;\n"
      "}\n");
  expect_edges_mirror(cfg);
  // The condition block branches two ways and both arms rejoin.
  bool saw_branch = false;
  for (const sa::BasicBlock& b : cfg.blocks) {
    if (b.succ.size() == 2) saw_branch = true;
  }
  EXPECT_TRUE(saw_branch);
  EXPECT_TRUE(cfg.loops.empty());
}

TEST(CfgBuild, NestedLoopsTrackDepthAndInnermost) {
  const sa::Cfg cfg = one_cfg(
      "int f(int n) {\n"
      "  int acc = 0;\n"
      "  for (int i = 0; i < n; ++i) {\n"
      "    for (int j = 0; j < i; ++j) {\n"
      "      acc += j;\n"
      "    }\n"
      "  }\n"
      "  return acc;\n"
      "}\n");
  expect_edges_mirror(cfg);
  ASSERT_EQ(cfg.loops.size(), 2u);
  const sa::CfgLoop& outer = cfg.loops[0].depth == 1 ? cfg.loops[0] : cfg.loops[1];
  const sa::CfgLoop& inner = cfg.loops[0].depth == 1 ? cfg.loops[1] : cfg.loops[0];
  EXPECT_EQ(outer.depth, 1);
  EXPECT_EQ(inner.depth, 2);
  EXPECT_FALSE(outer.innermost);
  EXPECT_TRUE(inner.innermost);
}

TEST(CfgBuild, SwitchFallthroughChainsCaseBlocks) {
  const sa::Cfg cfg = one_cfg(
      "int f(int n) {\n"
      "  int r = 0;\n"
      "  switch (n) {\n"
      "    case 0: r = 1;  // falls through\n"
      "    case 1: r = 2; break;\n"
      "    default: r = 3;\n"
      "  }\n"
      "  return r;\n"
      "}\n");
  expect_edges_mirror(cfg);
  // The dispatch block fans out to every label; at least one case block must
  // also be reachable from a sibling case (the fallthrough edge), i.e. have
  // two predecessors.
  bool saw_fanout = false;
  bool saw_fallthrough_join = false;
  for (const sa::BasicBlock& b : cfg.blocks) {
    if (b.succ.size() >= 3) saw_fanout = true;
    if (!b.stmts.empty() && b.pred.size() >= 2) saw_fallthrough_join = true;
  }
  EXPECT_TRUE(saw_fanout);
  EXPECT_TRUE(saw_fallthrough_join);
}

TEST(CfgBuild, EarlyReturnReachesExitDirectly) {
  const sa::Cfg cfg = one_cfg(
      "int f(int n) {\n"
      "  if (n < 0) return -1;\n"
      "  int r = 2 * n;\n"
      "  return r;\n"
      "}\n");
  expect_edges_mirror(cfg);
  // Both the early return and the fall-off return feed the exit block.
  EXPECT_GE(cfg.blocks[static_cast<std::size_t>(cfg.exit)].pred.size(), 2u);
}

// ---------------------------------------------------------------------------
// Flow rules: uninit-read, dead-store, loop-invariant-load
// ---------------------------------------------------------------------------

TEST(FlowRule, UninitReadFlaggedOnlyWhenNoPathAssigns) {
  const auto bad = analyze_one("kernels/k.cpp",
                               "double f(int n) {\n"
                               "  double s;\n"
                               "  double t = s + n;\n"
                               "  s = 1.0;\n"
                               "  return t + s;\n"
                               "}\n");
  EXPECT_TRUE(has_rule(bad, "flow.uninit-read"));

  // One branch assigns: a maybe-uninit read stays silent (the rule only
  // fires when every reaching definition is the bare declaration).
  const auto maybe = analyze_one("kernels/k.cpp",
                                 "double f(int n) {\n"
                                 "  double s;\n"
                                 "  if (n > 0) s = 1.0;\n"
                                 "  return s;\n"
                                 "}\n");
  EXPECT_FALSE(has_rule(maybe, "flow.uninit-read"));

  const auto good = analyze_one("kernels/k.cpp",
                                "double f(int n) {\n"
                                "  double s = 0.0;\n"
                                "  double t = s + n;\n"
                                "  return t;\n"
                                "}\n");
  EXPECT_FALSE(has_rule(good, "flow.uninit-read"));
}

TEST(FlowRule, DeadStoreFlaggedButDefensiveInitExempt) {
  const auto bad = analyze_one("kernels/k.cpp",
                               "double f(double x) {\n"
                               "  double a = 0.0;\n"
                               "  a = x * 2.0;\n"
                               "  a = x * 3.0;\n"
                               "  return a;\n"
                               "}\n");
  EXPECT_TRUE(has_rule(bad, "flow.dead-store"));

  // `double a = 0.0;` itself is a trivial defensive initializer: exempt.
  const auto good = analyze_one("kernels/k.cpp",
                                "double f(double x, int n) {\n"
                                "  double a = 0.0;\n"
                                "  if (n > 0) a = x;\n"
                                "  return a;\n"
                                "}\n");
  EXPECT_FALSE(has_rule(good, "flow.dead-store"));
}

TEST(FlowRule, InvariantLoadNeedsHotModuleAndMemoryRoot) {
  const std::string src =
      "struct P { double scale; };\n"
      "double f(const P* p, const double* a, int n) {\n"
      "  double acc = 0.0;\n"
      "  for (int i = 0; i < n; ++i) {\n"
      "    acc += a[i] * p->scale + p->scale;\n"
      "  }\n"
      "  return acc;\n"
      "}\n";
  EXPECT_TRUE(has_rule(analyze_one("kernels/k.cpp", src), "flow.loop-invariant-load"));
  // Cold modules skip the hot-loop rules entirely.
  EXPECT_FALSE(has_rule(analyze_one("sparse/k.cpp", src), "flow.loop-invariant-load"));

  // Hoisted form is clean; members of by-value structs are register-resident
  // and never flagged.
  const auto good = analyze_one("kernels/k.cpp",
                                "struct P { double scale; };\n"
                                "double f(const P* p, const double* a, P q, int n) {\n"
                                "  const double s = p->scale;\n"
                                "  double acc = 0.0;\n"
                                "  for (int i = 0; i < n; ++i) {\n"
                                "    acc += a[i] * s + q.scale + q.scale;\n"
                                "  }\n"
                                "  return acc;\n"
                                "}\n");
  EXPECT_FALSE(has_rule(good, "flow.loop-invariant-load"));
}

// ---------------------------------------------------------------------------
// Index-domain rules
// ---------------------------------------------------------------------------

TEST(DomainRule, RowIndexIntoNnzArrayFlagged) {
  const auto bad = analyze_one("kernels/k.cpp",
                               "double f(const long* rowptr, const double* values, int nrows) {\n"
                               "  double acc = 0.0;\n"
                               "  for (int i = 0; i < nrows; ++i) acc += values[i];\n"
                               "  return acc;\n"
                               "}\n");
  EXPECT_TRUE(has_rule(bad, "index.domain-mix"));

  const auto good = analyze_one(
      "kernels/k.cpp",
      "double f(const long* rowptr, const double* values, int nrows) {\n"
      "  double acc = 0.0;\n"
      "  for (int i = 0; i < nrows; ++i) {\n"
      "    const long b = rowptr[i];\n"
      "    const long e = rowptr[i + 1];\n"
      "    for (long j = b; j < e; ++j) acc += values[j];\n"
      "  }\n"
      "  return acc;\n"
      "}\n");
  EXPECT_FALSE(has_rule(good, "index.domain-mix"));
}

TEST(DomainRule, NnzIntoNarrowTypeFlaggedWideAccepted) {
  const auto bad = analyze_one("kernels/k.cpp",
                               "long f(const long* rowptr, const double* values, int nrows) {\n"
                               "  int nnz = 0;\n"
                               "  nnz = static_cast<int>(rowptr[nrows]);\n"
                               "  return nnz;\n"
                               "}\n");
  EXPECT_TRUE(has_rule(bad, "index.domain-narrowing"));

  const auto good = analyze_one("kernels/k.cpp",
                                "long f(const long* rowptr, const double* values, int nrows) {\n"
                                "  long nnz = 0;\n"
                                "  nnz = rowptr[nrows];\n"
                                "  return nnz;\n"
                                "}\n");
  EXPECT_FALSE(has_rule(good, "index.domain-narrowing"));
}

TEST(DomainRule, SingleSeedFamilyStaysSilent) {
  // Only the values family appears: no cross-checking is possible, so the
  // gate keeps the whole pass quiet rather than guessing.
  const auto f = analyze_one("kernels/k.cpp",
                             "double f(const double* values, int nrows) {\n"
                             "  double acc = 0.0;\n"
                             "  for (int i = 0; i < nrows; ++i) acc += values[i];\n"
                             "  return acc;\n"
                             "}\n");
  EXPECT_FALSE(has_rule(f, "index.domain-mix"));
}

// ---------------------------------------------------------------------------
// Vectorization blockers
// ---------------------------------------------------------------------------

TEST(VectRule, NonRestrictAliasFlaggedRestrictAccepted) {
  const auto bad = analyze_one("kernels/k.cpp",
                               "void f(const double* a, double* y, int n) {\n"
                               "  for (int i = 0; i < n; ++i) y[i] = a[i] * 2.0;\n"
                               "}\n");
  EXPECT_TRUE(has_rule(bad, "loop.vectorization-blocker"));

  const auto good = analyze_one(
      "kernels/k.cpp",
      "void f(const double* SPARTA_RESTRICT a, double* SPARTA_RESTRICT y, int n) {\n"
      "  for (int i = 0; i < n; ++i) y[i] = a[i] * 2.0;\n"
      "}\n");
  EXPECT_FALSE(has_rule(good, "loop.vectorization-blocker"));
}

TEST(VectRule, SimdCarriedScalarFlaggedReductionAccepted) {
  const auto bad = analyze_one("kernels/k.cpp",
                               "double f(const double* SPARTA_RESTRICT a, int n) {\n"
                               "  double prev = 0.0;\n"
                               "  double out = 0.0;\n"
                               "#pragma omp simd\n"
                               "  for (int i = 0; i < n; ++i) {\n"
                               "    prev = a[i] - prev * 0.5;\n"
                               "    out += prev;\n"
                               "  }\n"
                               "  return out;\n"
                               "}\n");
  EXPECT_TRUE(has_rule(bad, "loop.vectorization-blocker"));

  const auto good = analyze_one("kernels/k.cpp",
                                "double f(const double* SPARTA_RESTRICT a, int n) {\n"
                                "  double out = 0.0;\n"
                                "#pragma omp simd reduction(+ : out)\n"
                                "  for (int i = 0; i < n; ++i) {\n"
                                "    out += a[i];\n"
                                "  }\n"
                                "  return out;\n"
                                "}\n");
  EXPECT_FALSE(has_rule(good, "loop.vectorization-blocker"));
}

// ---------------------------------------------------------------------------
// Rule catalog
// ---------------------------------------------------------------------------

TEST(RuleDocs, EveryNewRuleIsDocumented) {
  for (const char* rule :
       {"flow.uninit-read", "flow.dead-store", "flow.loop-invariant-load",
        "index.domain-mix", "index.domain-narrowing", "loop.vectorization-blocker",
        "purity.alloc", "omp.default-none", "restrict.missing", "suppression.unused"}) {
    const sa::RuleDoc* doc = sa::find_rule_doc(rule);
    ASSERT_NE(doc, nullptr) << rule;
    EXPECT_FALSE(doc->summary.empty()) << rule;
    EXPECT_FALSE(doc->rationale.empty()) << rule;
    EXPECT_FALSE(doc->fix.empty()) << rule;
  }
  EXPECT_EQ(sa::find_rule_doc("no.such-rule"), nullptr);
}

TEST(Analyzer, FindingsAreSortedAndModuleOfWorks) {
  EXPECT_EQ(sa::module_of("kernels/spmv.hpp"), "kernels");
  EXPECT_EQ(sa::module_of("sparta.hpp"), "");

  const auto f = sa::analyze_files(
      {sa::lex("sparse/z.hpp", "#pragma once\n#include \"engine/e.hpp\"\n"),
       sa::lex("common/a.hpp", "using namespace std;\n")},
      sa::default_config());
  ASSERT_GE(f.size(), 2u);
  EXPECT_TRUE(std::is_sorted(f.begin(), f.end(), [](const sa::Finding& a, const sa::Finding& b) {
    return std::tie(a.file, a.line, a.rule) < std::tie(b.file, b.line, b.rule);
  }));
}

}  // namespace
