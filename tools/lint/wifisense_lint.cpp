// The project-rule static checker (wifisense-lint) — driver.
//
// The repo's load-bearing guarantees — bitwise determinism at any thread
// count (DESIGN.md §10), an allocation-free train/predict hot path (§11),
// and typed Status/Result error handling on every load path (§12) — are
// invariants a single careless token can erode long before a golden test
// notices. This tool makes them cheap to keep: a token/line-level scanner
// (no libclang) that walks src/, bench/, tools/ and examples/ and fails the
// build on any violation. See DESIGN.md §13 for the file-local rule
// catalogue and suppression syntax, and §18 for the interprocedural passes.
//
// Since PR 9 the tool is multi-pass (tools/lint/index.* builds a tree-wide
// call graph, effects.* infers allocation/throw/clock/RNG effects
// transitively, rules_ipa.cpp checks `requires(...)` contract roots), so a
// run has two phases: every file is scanned for the file-local rules AND
// indexed; then the whole-tree effect closure produces the ipa.* findings,
// which are anchored at each root's requires() line and flow through the
// same allow() suppression model as every other rule.
//
// File-local rules (rule-id: meaning):
//   det.rand          std::rand/srand/rand_r/drand48 — unseedable legacy RNG
//   det.random-device std::random_device — nondeterministic entropy source
//   det.clock         wall clocks and time() — time-dependent logic
//   obs.raw-clock     raw monotonic clocks (steady_clock, clock_gettime) —
//                     elapsed-time measurement must flow through the
//                     sanctioned common/trace.hpp clock
//   det.raw-mt19937   32-bit mt19937, or a default-constructed (unseeded)
//                     mt19937_64 — randomness must flow through the
//                     common/rng.hpp substream API
//   noalloc.new       new/delete inside a noalloc region
//   noalloc.malloc    malloc/calloc/realloc/free inside a noalloc region
//   noalloc.container-growth  push_back/emplace_back/resize/reserve inside
//                     a noalloc region
//   noalloc.std-function      std::function construction inside a noalloc
//                     region (type erasure heap-allocates)
//   noalloc.required  a file contractually bound to noalloc annotations is
//                     missing them (the _into kernels in src/nn/tensor.* and
//                     src/nn/quant.cpp, the _into/_rows microkernels under
//                     src/nn/kernels/, the steady-state step in
//                     src/nn/trainer.cpp)
//   noalloc.unbalanced  noalloc-begin/end nesting errors
//   err.nodiscard     function returning Status/Result<T> without
//                     [[nodiscard]]; also value-returning zero-arg const
//                     accessors on the serving ingest/fusion headers
//   err.todo          TODO/FIXME in src/ without an issue tag "(#N)"
//   hdr.pragma-once   header missing #pragma once
//   hdr.using-namespace  using namespace at namespace scope in a header
//   wire.packed       a top-level `struct Wire<Name>` in a wire-format file
//                     without sizeof/offsetof static_assert layout pins
//   lint.bad-directive   malformed wifisense-lint comment
//
// Interprocedural rules (anchored at the requires() line of the root):
//   ipa.alloc-leak    a requires(noalloc) root transitively allocates; the
//                     message carries the witness call chain
//   ipa.throw-leak    a requires(noexcept) root can transitively throw
//   ipa.clock-leak    a requires(noclock) root reads a raw wall clock
//   ipa.rng-leak      a requires(det) root consumes raw (non-substream) RNG
//   ipa.unresolved-call  a requires() root reaches an unindexed external
//                     call that is neither benign nor allow-call()ed
//
// Suppression (scoped, reason required; the directive prefix is
// "wifisense-lint" followed by a colon — spelled loosely here so this very
// comment does not parse as a directive):
//   ... offending code ...  // <prefix> allow(<rule>) <reason>
//   // <prefix> allow(<rule>) <reason>        <- whole-line comment form:
//   ... applies to the next code line ...        the reason may wrap over
//                                                several comment lines
//   // <prefix> allow-file(<rule>) <reason>   <- whole file
//
// Region annotations: "<prefix> noalloc-begin" / "<prefix> noalloc-end"
// comments bracket an allocation-free region. Contract annotations
// ("<prefix> requires(...)", "allow-call(...)", "trusted(...)") are parsed
// by the indexer and attach to the next function definition.
//
// Self-test mode (--self-test <dir>): every fixture line may carry
//   // lint-expect: <rule-id>        a finding of that rule MUST fire here
//   // lint-expect-file: <rule-id>   ... anywhere in this file
// The run fails on any unexpected finding or unsatisfied expectation, so
// the fixture corpus pins each rule to a known-bad snippet. The fixture
// tree is indexed as one unit, so interprocedural fixtures work too.
//
// --json <path> writes a machine-readable report (rule -> count ->
// locations) for CI archiving; it reflects post-suppression findings only.
//
// Exit status: 0 clean, 1 findings (or self-test mismatch), 2 usage/IO error.

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "effects.hpp"
#include "index.hpp"

namespace fs = std::filesystem;

using namespace wifilint;

namespace {

// ---------------------------------------------------------------------------
// Directives
// ---------------------------------------------------------------------------

struct Directives {
    // line (1-based) -> rules allowed on that line
    std::map<std::size_t, std::set<std::string>> line_allows;
    std::set<std::string> file_allows;
    // [begin, end) line ranges (1-based, half-open) of noalloc regions
    std::vector<std::pair<std::size_t, std::size_t>> noalloc_regions;
    // Self-test expectations.
    std::map<std::size_t, std::vector<std::string>> expect_lines;
    std::vector<std::string> expect_file;
};

/// Parse "allow(rule) reason" / "allow-file(rule) reason" bodies. Returns
/// the rule, or empty on malformed input.
std::string parse_allow_body(std::string_view body, std::string* reason) {
    const std::size_t open = body.find('(');
    const std::size_t close = body.find(')');
    if (open == std::string_view::npos || close == std::string_view::npos ||
        close < open)
        return {};
    *reason = trim(body.substr(close + 1));
    return trim(body.substr(open + 1, close - open - 1));
}

Directives collect_directives(const std::vector<Line>& lines,
                              std::vector<Finding>& findings,
                              const std::string& file, bool self_test) {
    Directives d;
    std::vector<std::size_t> region_stack;
    for (std::size_t li = 0; li < lines.size(); ++li) {
        const std::size_t lineno = li + 1;
        const std::string& comment = lines[li].comment;
        const bool comment_only = trim(lines[li].code).empty();

        if (self_test) {
            static constexpr std::string_view kExpectFile = "lint-expect-file:";
            static constexpr std::string_view kExpect = "lint-expect:";
            std::size_t pos = comment.find(kExpectFile);
            if (pos != std::string::npos) {
                d.expect_file.push_back(trim(comment.substr(pos + kExpectFile.size())));
            } else if ((pos = comment.find(kExpect)) != std::string::npos) {
                d.expect_lines[lineno].push_back(trim(comment.substr(pos + kExpect.size())));
            }
        }

        static constexpr std::string_view kPrefix = "wifisense-lint:";
        const std::size_t pos = comment.find(kPrefix);
        if (pos == std::string::npos) continue;
        const std::string body = trim(comment.substr(pos + kPrefix.size()));

        if (body == "noalloc-begin") {
            region_stack.push_back(lineno);
            if (region_stack.size() > 1)
                findings.push_back({file, lineno, "noalloc.unbalanced",
                                    "nested noalloc-begin (regions do not nest)"});
        } else if (body == "noalloc-end") {
            if (region_stack.empty()) {
                findings.push_back({file, lineno, "noalloc.unbalanced",
                                    "noalloc-end without a matching begin"});
            } else {
                d.noalloc_regions.emplace_back(region_stack.back(), lineno);
                region_stack.pop_back();
            }
        } else if (body.rfind("allow-file(", 0) == 0) {
            std::string reason;
            const std::string rule = parse_allow_body(body.substr(10), &reason);
            if (rule.empty() || !known_rule(rule) || reason.empty())
                findings.push_back({file, lineno, "lint.bad-directive",
                                    "allow-file needs a known rule and a reason: '" +
                                        body + "'"});
            else
                d.file_allows.insert(rule);
        } else if (body.rfind("allow(", 0) == 0) {
            std::string reason;
            const std::string rule = parse_allow_body(body.substr(5), &reason);
            if (rule.empty() || !known_rule(rule) || reason.empty()) {
                findings.push_back({file, lineno, "lint.bad-directive",
                                    "allow needs a known rule and a reason: '" +
                                        body + "'"});
            } else {
                // Trailing comment covers its own line; a comment-only line
                // covers the next code line (the suppression reason may wrap
                // over several comment lines).
                d.line_allows[lineno].insert(rule);
                if (comment_only) {
                    std::size_t next = li + 1;
                    while (next < lines.size() &&
                           trim(lines[next].code).empty())
                        ++next;
                    d.line_allows[next + 1].insert(rule);
                }
            }
        } else if (body.rfind("requires(", 0) == 0 ||
                   body.rfind("allow-call(", 0) == 0 ||
                   body.rfind("trusted(", 0) == 0) {
            // Interprocedural contract directives: parsed and validated by
            // the indexer pass (index.cpp), which owns their attachment to
            // the next function definition.
        } else {
            findings.push_back({file, lineno, "lint.bad-directive",
                                "unknown wifisense-lint directive: '" + body + "'"});
        }
    }
    for (const std::size_t begin : region_stack)
        findings.push_back({file, begin, "noalloc.unbalanced",
                            "noalloc-begin without a matching end"});
    return d;
}

bool in_noalloc_region(const Directives& d, std::size_t lineno) {
    for (const auto& [b, e] : d.noalloc_regions)
        if (lineno > b && lineno < e) return true;
    return false;
}

// ---------------------------------------------------------------------------
// Rule checks
// ---------------------------------------------------------------------------

bool path_ends_with(const std::string& path, std::string_view suffix) {
    return path.size() >= suffix.size() &&
           path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool is_header(const std::string& path) {
    return path_ends_with(path, ".hpp") || path_ends_with(path, ".h");
}

bool in_src_tree(const std::string& path) {
    return path.find("src/") != std::string::npos;
}

void check_determinism(const std::string& file, const std::vector<Line>& lines,
                       std::vector<Finding>& findings) {
    if (det_exempt_path(file)) return;
    for (std::size_t li = 0; li < lines.size(); ++li) {
        const std::size_t lineno = li + 1;
        const std::string& code = lines[li].code;
        for (const Token& t : identifiers(code)) {
            const char after = next_code_char(code, t.end);
            if ((t.text == "rand" || t.text == "srand" || t.text == "rand_r" ||
                 t.text == "drand48") &&
                after == '(') {
                findings.push_back({file, lineno, "det.rand",
                                    "'" + t.text +
                                        "' is unseedable legacy RNG; use "
                                        "common::substream(seed, stream)"});
            } else if (t.text == "random_device") {
                findings.push_back({file, lineno, "det.random-device",
                                    "std::random_device is nondeterministic; "
                                    "derive seeds via common/rng.hpp substreams"});
            } else if (t.text == "steady_clock" ||
                       t.text == "high_resolution_clock" ||
                       t.text == "clock_gettime") {
                findings.push_back({file, lineno, "obs.raw-clock",
                                    "'" + t.text +
                                        "' reads a raw monotonic clock; "
                                        "measure elapsed time via "
                                        "common/trace.hpp (trace_now_ns)"});
            } else if (t.text == "system_clock" || t.text == "gettimeofday" ||
                       ((t.text == "time" || t.text == "clock") && after == '(' &&
                        is_qualified_std(code, t.begin))) {
                findings.push_back({file, lineno, "det.clock",
                                    "'" + t.text +
                                        "' makes behavior time-dependent; "
                                        "simulated time must come from "
                                        "data/simtime"});
            } else if (t.text == "mt19937") {
                findings.push_back({file, lineno, "det.raw-mt19937",
                                    "32-bit std::mt19937 is banned; use "
                                    "std::mt19937_64 seeded via "
                                    "common/rng.hpp"});
            } else if (t.text == "mt19937_64") {
                // Unseeded forms: `mt19937_64 name;`, `mt19937_64 name{}`,
                // `mt19937_64()` / `mt19937_64{}`. A declarator ending in '_'
                // is a class member (seeded in the constructor by project
                // convention).
                std::size_t at = 0;
                char c = next_code_char(code, t.end, &at);
                bool bad = false;
                if (c == '(' || c == '{') {
                    const char close2 = next_code_char(code, at + 1);
                    bad = (c == '(' && close2 == ')') || (c == '{' && close2 == '}');
                } else if (is_ident_char(c) && !std::isdigit(static_cast<unsigned char>(c))) {
                    std::size_t e = at;
                    while (e < code.size() && is_ident_char(code[e])) ++e;
                    const std::string name = code.substr(at, e - at);
                    std::size_t at2 = 0;
                    const char c2 = next_code_char(code, e, &at2);
                    if (c2 == ';' && !name.empty() && name.back() != '_') {
                        bad = true;
                    } else if (c2 == '(' || c2 == '{') {
                        const char close2 = next_code_char(code, at2 + 1);
                        bad = (c2 == '(' && close2 == ')') ||
                              (c2 == '{' && close2 == '}');
                    }
                }
                if (bad)
                    findings.push_back({file, lineno, "det.raw-mt19937",
                                        "default-constructed std::mt19937_64 is "
                                        "unseeded; seed it via "
                                        "common::substream(seed, stream)"});
            }
        }
    }
}

void check_noalloc(const std::string& file, const std::vector<Line>& lines,
                   const Directives& d, std::vector<Finding>& findings) {
    for (std::size_t li = 0; li < lines.size(); ++li) {
        const std::size_t lineno = li + 1;
        if (!in_noalloc_region(d, lineno)) continue;
        const std::string& code = lines[li].code;
        for (const Token& t : identifiers(code)) {
            if (t.text == "new" || t.text == "delete") {
                findings.push_back({file, lineno, "noalloc.new",
                                    "'" + t.text + "' inside a noalloc region"});
            } else if (t.text == "malloc" || t.text == "calloc" ||
                       t.text == "realloc" || t.text == "free") {
                if (next_code_char(code, t.end) == '(')
                    findings.push_back({file, lineno, "noalloc.malloc",
                                        "'" + t.text +
                                            "' inside a noalloc region"});
            } else if (t.text == "push_back" || t.text == "emplace_back" ||
                       t.text == "resize" || t.text == "reserve") {
                findings.push_back({file, lineno, "noalloc.container-growth",
                                    "'" + t.text +
                                        "' may reallocate inside a noalloc "
                                        "region"});
            } else if (t.text == "function" && is_qualified_std(code, t.begin)) {
                findings.push_back({file, lineno, "noalloc.std-function",
                                    "std::function type erasure heap-allocates "
                                    "inside a noalloc region"});
            }
        }
    }
}

/// True when the token ends with any of the contract suffixes.
bool has_kernel_suffix(const std::string& text,
                       std::initializer_list<std::string_view> suffixes) {
    for (const std::string_view s : suffixes)
        if (text.size() > s.size() &&
            text.compare(text.size() - s.size(), s.size(), s) == 0)
            return true;
    return false;
}

/// Files contractually bound to noalloc annotations. In tensor.* and
/// quant.cpp every `*_into` kernel must sit inside an annotated region; the
/// microkernel backends under src/nn/kernels/ bind both `*_into` and the
/// row-range `*_rows` implementations; trainer.cpp must annotate its
/// steady-state step; parallel.cpp must annotate its region posting /
/// fan-out path (run_chunks_erased and the pool's dispatch/drain).
void check_noalloc_required(const std::string& file,
                            const std::vector<Line>& lines, const Directives& d,
                            std::vector<Finding>& findings) {
    const bool is_tensor = path_ends_with(file, "src/nn/tensor.cpp") ||
                           path_ends_with(file, "src/nn/tensor.hpp");
    const bool is_quant = path_ends_with(file, "src/nn/quant.cpp");
    const bool is_kernels = file.find("src/nn/kernels/") != std::string::npos &&
                            !is_header(file);
    const bool is_trainer = path_ends_with(file, "src/nn/trainer.cpp");
    const bool is_pool = path_ends_with(file, "src/common/parallel.cpp");
    if (!is_tensor && !is_quant && !is_kernels && !is_trainer && !is_pool)
        return;

    if (is_trainer && d.noalloc_regions.empty()) {
        findings.push_back({file, 0, "noalloc.required",
                            "trainer.cpp must annotate its steady-state "
                            "training step with noalloc-begin/end"});
        return;
    }
    if (is_pool && d.noalloc_regions.empty()) {
        findings.push_back({file, 0, "noalloc.required",
                            "parallel.cpp must annotate its region-posting "
                            "fan-out path with noalloc-begin/end"});
        return;
    }
    if (!is_tensor && !is_quant && !is_kernels) return;
    for (std::size_t li = 0; li < lines.size(); ++li) {
        const std::size_t lineno = li + 1;
        // Only signature lines bind the contract: `void <name>_into(...` (or
        // `void <name>_rows(...` in the backend TUs — the row-range kernels
        // the dispatch table points at). Call sites inside the allocating
        // convenience wrappers are exempt (the call itself does not
        // allocate; the wrapper's Matrix does).
        const std::vector<Token> toks = identifiers(lines[li].code);
        if (toks.empty() || toks.front().text != "void") continue;
        for (const Token& t : toks) {
            const bool bound =
                is_kernels ? has_kernel_suffix(t.text, {"_into", "_rows"})
                           : has_kernel_suffix(t.text, {"_into"});
            if (bound && !in_noalloc_region(d, lineno)) {
                findings.push_back({file, lineno, "noalloc.required",
                                    "'" + t.text +
                                        "' kernel must sit inside a "
                                        "noalloc-begin/end region"});
            }
        }
    }
}

/// Does `code` start (after qualifiers) with a Status/Result<T> return type
/// followed by a function name and '('? Token-level heuristic for the
/// declaration-site nodiscard rule.
bool returns_status_or_result(const std::string& code) {
    std::vector<Token> toks = identifiers(code);
    std::size_t i = 0;
    auto skip = [&](std::string_view w) {
        if (i < toks.size() && toks[i].text == w) ++i;
    };
    skip("nodiscard");  // inside [[...]]
    for (;;) {
        const std::size_t before = i;
        skip("static");
        skip("inline");
        skip("constexpr");
        skip("virtual");
        skip("friend");
        skip("explicit");
        if (i == before) break;
    }
    skip("wifisense");
    skip("common");
    if (i >= toks.size()) return false;
    const Token& ret = toks[i];
    if (ret.text != "Status" && ret.text != "Result") return false;
    // The return type must be the first real token (this is a declaration
    // line, not `return Status(...)` or `foo(Status s)`).
    std::size_t first_col = 0;
    (void)next_code_char(code, 0, &first_col);
    std::size_t lead = toks.front().begin;
    if (toks.front().text == "nodiscard") {
        // allow "[[nodiscard]] Status ..." — the attribute brackets precede
        lead = first_col;
    }
    if (lead != first_col) return false;

    std::size_t pos = ret.end;
    if (ret.text == "Result") {
        // Require a template argument list and skip it (bracket matching).
        std::size_t at = 0;
        if (next_code_char(code, pos, &at) != '<') return false;
        int depth = 0;
        while (at < code.size()) {
            if (code[at] == '<') ++depth;
            if (code[at] == '>') {
                --depth;
                if (depth == 0) break;
            }
            ++at;
        }
        if (depth != 0) return false;
        pos = at + 1;
    }
    // Next: an identifier (the function name) then '('. A '(' immediately
    // after the type is a constructor/temporary; '=' is a variable init.
    std::size_t at = 0;
    const char c = next_code_char(code, pos, &at);
    if (!is_ident_char(c) || std::isdigit(static_cast<unsigned char>(c)))
        return false;
    std::size_t e = at;
    while (e < code.size() && is_ident_char(code[e])) ++e;
    const std::string name = code.substr(at, e - at);
    if (name == "operator") return false;
    std::size_t at2 = 0;
    return next_code_char(code, e, &at2) == '(';
}

/// Is there a [[nodiscard]] on this line or on the nearest preceding code
/// line?
bool nodiscard_here_or_above(const std::vector<Line>& lines, std::size_t li) {
    if (lines[li].code.find("[[nodiscard]]") != std::string::npos) return true;
    for (std::size_t p = li; p-- > 0;) {
        const std::string prev = trim(lines[p].code);
        if (prev.empty()) continue;  // comment/blank line
        return prev.find("[[nodiscard]]") != std::string::npos;
    }
    return false;
}

void check_nodiscard(const std::string& file, const std::vector<Line>& lines,
                     std::vector<Finding>& findings) {
    for (std::size_t li = 0; li < lines.size(); ++li) {
        const std::string& code = lines[li].code;
        if (!returns_status_or_result(code)) continue;
        if (!nodiscard_here_or_above(lines, li))
            findings.push_back({file, li + 1, "err.nodiscard",
                                "function returning Status/Result must be "
                                "[[nodiscard]] (a dropped error is a "
                                "swallowed failure)"});
    }
}

/// The serving ingest/fusion headers: decode/reassembly/fusion statistics
/// are the only visibility into silently-dropped frames, so every
/// value-returning zero-arg const accessor on these types must be
/// [[nodiscard]] — calling stats() and ignoring the result is always a bug.
void check_nodiscard_accessors(const std::string& file,
                               const std::vector<Line>& lines,
                               std::vector<Finding>& findings) {
    const bool bound = path_ends_with(file, "src/data/telemetry.hpp") ||
                       path_ends_with(file, "src/data/link_ingest.hpp") ||
                       path_ends_with(file, "src/core/link_fusion.hpp") ||
                       path_ends_with(file, "src/core/serving_pipeline.hpp") ||
                       path_ends_with(file, "lint_fixtures/nodiscard_accessors.hpp");
    if (!bound) return;
    for (std::size_t li = 0; li < lines.size(); ++li) {
        const std::string& code = lines[li].code;
        const std::vector<Token> toks = identifiers(code);
        if (!toks.empty() && toks.front().text == "void") continue;
        for (std::size_t i = 0; i < toks.size(); ++i) {
            if (i == 0) continue;  // need a return type before the name
            const Token& t = toks[i];
            if (t.text == "operator") break;
            std::size_t at = 0;
            if (next_code_char(code, t.end, &at) != '(') continue;
            std::size_t at2 = 0;
            if (next_code_char(code, at + 1, &at2) != ')') continue;  // args
            // `) const` and then a body/terminator.
            std::size_t at3 = 0;
            if (!is_ident_char(next_code_char(code, at2 + 1, &at3))) continue;
            std::size_t e = at3;
            while (e < code.size() && is_ident_char(code[e])) ++e;
            if (code.substr(at3, e - at3) != "const") continue;
            if (!nodiscard_here_or_above(lines, li))
                findings.push_back(
                    {file, li + 1, "err.nodiscard",
                     "value-returning const accessor '" + t.text +
                         "()' on a serving ingest/fusion type must be "
                         "[[nodiscard]] (dropped stats hide decode faults)"});
            break;
        }
    }
}

void check_todo(const std::string& file, const std::vector<Line>& lines,
                std::vector<Finding>& findings) {
    if (!in_src_tree(file)) return;
    for (std::size_t li = 0; li < lines.size(); ++li) {
        const std::string& comment = lines[li].comment;
        for (const std::string_view word : {"TODO", "FIXME"}) {
            const std::size_t pos = comment.find(word);
            if (pos == std::string::npos) continue;
            // Accept "TODO(#123)" — anything else is an untracked loose end.
            if (comment.compare(pos + word.size(), 2, "(#") != 0)
                findings.push_back({file, li + 1, "err.todo",
                                    std::string(word) +
                                        " without an issue tag; write " +
                                        std::string(word) + "(#N)"});
        }
    }
}

void check_header_hygiene(const std::string& file, const std::vector<Line>& lines,
                          std::vector<Finding>& findings) {
    if (!is_header(file)) return;
    bool has_pragma = false;
    for (const Line& l : lines) {
        if (trim(l.raw).rfind("#pragma once", 0) == 0) {
            has_pragma = true;
            break;
        }
    }
    if (!has_pragma)
        findings.push_back({file, 0, "hdr.pragma-once",
                            "header is missing #pragma once"});
    for (std::size_t li = 0; li < lines.size(); ++li) {
        const std::vector<Token> toks = identifiers(lines[li].code);
        for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
            if (toks[i].text == "using" && toks[i + 1].text == "namespace") {
                findings.push_back({file, li + 1, "hdr.using-namespace",
                                    "using namespace in a header leaks into "
                                    "every includer"});
            }
        }
    }
}

/// Wire-format layout pins. In files whose path mentions "telemetry" or
/// "wire", every top-level `struct Wire<Name>` (column 0 — nested helper
/// structs like per-encoder stats are not wire layout) must be accompanied,
/// somewhere in the same file, by both a static_assert(sizeof(<Name>...)
/// and a static_assert(offsetof(<Name>...). These structs are memcpy'd onto
/// the wire, so their layout is an external contract the compiler must be
/// made to enforce.
void check_wire_packed(const std::string& file, const std::vector<Line>& lines,
                       std::vector<Finding>& findings) {
    if (file.find("telemetry") == std::string::npos &&
        file.find("wire") == std::string::npos)
        return;
    // Whitespace-stripped code of the whole file, for the assert lookups.
    std::string flat;
    for (const Line& l : lines)
        for (const char c : l.code)
            if (!std::isspace(static_cast<unsigned char>(c))) flat += c;
    for (std::size_t li = 0; li < lines.size(); ++li) {
        const std::string& code = lines[li].code;
        const std::vector<Token> toks = identifiers(code);
        if (toks.size() < 2 || toks[0].text != "struct") continue;
        if (toks[0].begin != 0) continue;  // nested/indented: not wire layout
        const std::string& name = toks[1].text;
        if (name.rfind("Wire", 0) != 0) continue;
        if (next_code_char(code, toks[1].end) == ';') continue;  // fwd decl
        const bool has_sizeof =
            flat.find("static_assert(sizeof(" + name) != std::string::npos;
        const bool has_offsetof =
            flat.find("static_assert(offsetof(" + name) != std::string::npos;
        if (has_sizeof && has_offsetof) continue;
        std::string missing;
        if (!has_sizeof) missing += "static_assert(sizeof(" + name + ")...)";
        if (!has_offsetof) {
            if (!missing.empty()) missing += " and ";
            missing += "static_assert(offsetof(" + name + ", ...)...)";
        }
        findings.push_back({file, li + 1, "wire.packed",
                            "wire-format struct '" + name +
                                "' must pin its layout with " + missing +
                                " in this file"});
    }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// One file, loaded and locally scanned; findings are still unsuppressed
/// (ipa findings are merged in before suppression runs).
struct LintedFile {
    std::string path;
    std::vector<Line> lines;
    Directives directives;
    std::vector<Finding> raw_findings;
};

LintedFile load_file(const std::string& path, bool self_test, TreeIndex& tree) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();

    LintedFile lf;
    lf.path = path;
    lf.lines = split_lines(buf.str());
    lf.directives =
        collect_directives(lf.lines, lf.raw_findings, path, self_test);

    check_determinism(path, lf.lines, lf.raw_findings);
    check_noalloc(path, lf.lines, lf.directives, lf.raw_findings);
    check_noalloc_required(path, lf.lines, lf.directives, lf.raw_findings);
    check_nodiscard(path, lf.lines, lf.raw_findings);
    check_nodiscard_accessors(path, lf.lines, lf.raw_findings);
    check_todo(path, lf.lines, lf.raw_findings);
    check_header_hygiene(path, lf.lines, lf.raw_findings);
    check_wire_packed(path, lf.lines, lf.raw_findings);

    index_file(path, lf.lines, tree, lf.raw_findings);
    tree.line_allows[path] = lf.directives.line_allows;
    tree.file_allows[path] = lf.directives.file_allows;
    return lf;
}

/// Run the interprocedural passes over the indexed tree and append each
/// ipa finding to the raw findings of the file that owns its root.
void run_ipa_passes(TreeIndex& tree, std::vector<LintedFile>& files) {
    const EffectResult effects = compute_effects(tree);
    std::map<std::string, LintedFile*> by_path;
    for (LintedFile& lf : files) by_path[lf.path] = &lf;
    for (Finding& f : contract_findings(tree, effects)) {
        const auto it = by_path.find(f.file);
        if (it != by_path.end()) it->second->raw_findings.push_back(std::move(f));
    }
}

/// Apply allow()/allow-file() suppression and sort.
std::vector<Finding> suppressed(LintedFile& lf) {
    std::vector<Finding> out;
    for (Finding& f : lf.raw_findings) {
        if (lf.directives.file_allows.count(f.rule)) continue;
        const auto it = lf.directives.line_allows.find(f.line);
        if (it != lf.directives.line_allows.end() && it->second.count(f.rule))
            continue;
        out.push_back(std::move(f));
    }
    std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
        if (a.line != b.line) return a.line < b.line;
        if (a.rule != b.rule) return a.rule < b.rule;
        return a.message < b.message;
    });
    return out;
}

bool lintable(const fs::path& p) {
    const std::string ext = p.extension().string();
    return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc";
}

/// Directory components pruned from the walk (checked per component, so
/// out-of-source build dirs like build-asan/ and nested fixture trees are
/// skipped wherever they sit relative to the root).
bool skip_dir_component(const std::string& name) {
    return name == "build" || name.rfind("build-", 0) == 0 ||
           name == "lint_fixtures" || name == ".git";
}

std::vector<std::string> collect_files(const std::vector<std::string>& roots,
                                       bool* io_error) {
    std::vector<std::string> files;
    for (const std::string& root : roots) {
        std::error_code ec;
        if (fs::is_regular_file(root, ec)) {
            files.push_back(root);
            continue;
        }
        if (!fs::is_directory(root, ec)) {
            std::cerr << "wifisense-lint: no such file or directory: " << root
                      << "\n";
            *io_error = true;
            continue;
        }
        // Note: only components BELOW the root are pruned — an explicitly
        // named root (e.g. the self-test fixture dir) is always walked.
        for (auto it = fs::recursive_directory_iterator(root, ec);
             it != fs::recursive_directory_iterator(); it.increment(ec)) {
            if (ec) break;
            if (it->is_directory() &&
                skip_dir_component(it->path().filename().string())) {
                it.disable_recursion_pending();
                continue;
            }
            if (it->is_regular_file() && lintable(it->path()))
                files.push_back(it->path().string());
        }
    }
    // Sort (and dedupe) so diagnostics and the index are byte-identical
    // regardless of directory-iteration order.
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());
    return files;
}

std::string json_escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

/// Machine-readable report: per-rule counts and locations, plus totals.
/// Deterministic by construction (rules and findings are sorted).
bool write_json_report(const std::string& path,
                       const std::vector<Finding>& findings,
                       std::size_t files_scanned) {
    std::map<std::string, std::vector<const Finding*>> by_rule;
    for (const Finding& f : findings) by_rule[f.rule].push_back(&f);

    std::ofstream out(path, std::ios::binary);
    if (!out) {
        std::cerr << "wifisense-lint: cannot write JSON report to " << path
                  << "\n";
        return false;
    }
    out << "{\n";
    out << "  \"files_scanned\": " << files_scanned << ",\n";
    out << "  \"total_findings\": " << findings.size() << ",\n";
    out << "  \"rules\": {\n";
    bool first_rule = true;
    for (const auto& [rule, list] : by_rule) {
        if (!first_rule) out << ",\n";
        first_rule = false;
        out << "    \"" << json_escape(rule) << "\": {\n";
        out << "      \"count\": " << list.size() << ",\n";
        out << "      \"locations\": [\n";
        for (std::size_t i = 0; i < list.size(); ++i) {
            out << "        {\"file\": \"" << json_escape(list[i]->file)
                << "\", \"line\": " << list[i]->line << ", \"message\": \""
                << json_escape(list[i]->message) << "\"}";
            out << (i + 1 < list.size() ? ",\n" : "\n");
        }
        out << "      ]\n    }";
    }
    out << "\n  }\n}\n";
    return out.good();
}

int run_lint(const std::vector<std::string>& roots,
             const std::string& json_path) {
    bool io_error = false;
    const std::vector<std::string> paths = collect_files(roots, &io_error);
    if (io_error) return 2;

    TreeIndex tree;
    std::vector<LintedFile> files;
    files.reserve(paths.size());
    for (const std::string& path : paths)
        files.push_back(load_file(path, /*self_test=*/false, tree));
    run_ipa_passes(tree, files);

    std::vector<Finding> all;
    for (LintedFile& lf : files)
        for (Finding& f : suppressed(lf)) all.push_back(std::move(f));

    for (const Finding& f : all)
        std::cout << f.file << ":" << f.line << ": " << f.rule << ": "
                  << f.message << "\n";

    if (!json_path.empty() &&
        !write_json_report(json_path, all, files.size()))
        return 2;

    if (!all.empty()) {
        std::cout << "wifisense-lint: " << all.size() << " finding"
                  << (all.size() == 1 ? "" : "s") << " in " << files.size()
                  << " files\n";
        return 1;
    }
    std::cout << "wifisense-lint: clean (" << files.size() << " files)\n";
    return 0;
}

int run_self_test(const std::string& dir) {
    bool io_error = false;
    const std::vector<std::string> paths = collect_files({dir}, &io_error);
    if (io_error || paths.empty()) {
        std::cerr << "wifisense-lint: no fixtures under " << dir << "\n";
        return 2;
    }

    // The fixture tree is indexed as one unit (like a real tree run), so
    // interprocedural fixtures can spread roots and helpers across a file.
    TreeIndex tree;
    std::vector<LintedFile> files;
    files.reserve(paths.size());
    for (const std::string& path : paths)
        files.push_back(load_file(path, /*self_test=*/true, tree));
    run_ipa_passes(tree, files);

    std::size_t mismatches = 0;
    std::size_t satisfied = 0;
    for (LintedFile& lf : files) {
        const std::vector<Finding> findings = suppressed(lf);
        // Expected (line,rule) pairs, multiset semantics.
        std::multiset<std::pair<std::size_t, std::string>> expected;
        for (const auto& [line, rules] : lf.directives.expect_lines)
            for (const std::string& r : rules) expected.insert({line, r});
        std::multiset<std::string> expected_file(
            lf.directives.expect_file.begin(), lf.directives.expect_file.end());

        for (const Finding& f : findings) {
            const auto line_it = expected.find({f.line, f.rule});
            if (line_it != expected.end()) {
                expected.erase(line_it);
                ++satisfied;
                continue;
            }
            const auto file_it = expected_file.find(f.rule);
            if (file_it != expected_file.end()) {
                expected_file.erase(file_it);
                ++satisfied;
                continue;
            }
            std::cout << f.file << ":" << f.line << ": unexpected finding "
                      << f.rule << ": " << f.message << "\n";
            ++mismatches;
        }
        for (const auto& [line, rule] : expected) {
            std::cout << lf.path << ":" << line << ": expected finding did not "
                      << "fire: " << rule << "\n";
            ++mismatches;
        }
        for (const std::string& rule : expected_file) {
            std::cout << lf.path << ":0: expected file-level finding did not "
                      << "fire: " << rule << "\n";
            ++mismatches;
        }
    }
    if (mismatches > 0) {
        std::cout << "wifisense-lint --self-test: " << mismatches
                  << " mismatches\n";
        return 1;
    }
    std::cout << "wifisense-lint --self-test: ok (" << satisfied
              << " expectations over " << files.size() << " fixtures)\n";
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty()) {
        std::cerr << "usage: wifisense-lint [--json <report>] <path>...\n"
                  << "       wifisense-lint --self-test <fixture-dir>\n";
        return 2;
    }
    if (args[0] == "--self-test") {
        if (args.size() != 2) {
            std::cerr << "usage: wifisense-lint --self-test <fixture-dir>\n";
            return 2;
        }
        return run_self_test(args[1]);
    }
    std::string json_path;
    std::vector<std::string> roots;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--json") {
            if (i + 1 >= args.size()) {
                std::cerr << "wifisense-lint: --json needs a path\n";
                return 2;
            }
            json_path = args[++i];
        } else {
            roots.push_back(args[i]);
        }
    }
    if (roots.empty()) {
        std::cerr << "usage: wifisense-lint [--json <report>] <path>...\n";
        return 2;
    }
    return run_lint(roots, json_path);
}
