// Suppression comments for sparta_analyze.
//
// Grammar (the normative statement lives in DESIGN.md §12):
//
//     // sparta-<tool>: allow(rule[, rule]...)
//
// where <tool> is `analyze` (Config::tag; a comment with any other tag is
// ignored) and each rule matches [a-z0-9.-]+. A suppression applies to
// findings on its own physical line or the line directly below it, so it
// can either trail the offending statement or sit on its own line above.
// Suppressions that never match a finding are themselves reported (rule
// `suppression.unused`) so stale allowances cannot accumulate.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace sparta::analyze {

class Suppressions {
 public:
  /// Scan `raw_lines` for `<tag>: allow(...)` comments (tag example:
  /// "sparta-analyze").
  Suppressions(const std::vector<std::string>& raw_lines, std::string_view tag);

  /// True if `rule` is suppressed at 1-based `line`; marks the entry used.
  bool allowed(std::string_view rule, int line);

  struct Entry {
    int line = 0;  // 1-based line the allow() comment is on
    std::string rule;
    bool used = false;
  };

  /// Entries that never matched a finding, in file order.
  std::vector<Entry> unused() const;

  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

}  // namespace sparta::analyze
