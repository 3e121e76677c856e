// Indexer pass: scope-tracking walk over the blanked token stream (see
// index.hpp). The walk is deliberately forgiving — C++ it cannot classify
// (operator overloads, exotic declarators) degrades to an anonymous brace
// block whose contents attribute to the enclosing scope, never to a wrong
// function.
#include "index.hpp"

#include <algorithm>
#include <array>
#include <cctype>

namespace wifilint {

// ---------------------------------------------------------------------------
// Rule catalogue
// ---------------------------------------------------------------------------

const std::vector<std::string>& all_rules() {
    static const std::vector<std::string> kRules = {
        "det.rand",          "det.random-device",
        "det.clock",         "obs.raw-clock",
        "det.raw-mt19937",   "noalloc.new",
        "noalloc.malloc",    "noalloc.container-growth",
        "noalloc.std-function",
        "noalloc.required",  "noalloc.unbalanced",
        "err.nodiscard",     "err.todo",
        "hdr.pragma-once",   "hdr.using-namespace",
        "wire.packed",       "lint.bad-directive",
        "ipa.alloc-leak",    "ipa.throw-leak",
        "ipa.clock-leak",    "ipa.rng-leak",
        "ipa.unresolved-call",
    };
    return kRules;
}

bool known_rule(std::string_view rule) {
    for (const std::string& r : all_rules())
        if (rule == r) return true;
    return false;
}

// ---------------------------------------------------------------------------
// Lexical model
// ---------------------------------------------------------------------------

std::vector<Line> split_lines(const std::string& text) {
    std::vector<std::string> raw;
    {
        std::string cur;
        for (const char c : text) {
            if (c == '\n') {
                raw.push_back(cur);
                cur.clear();
            } else {
                cur += c;
            }
        }
        raw.push_back(cur);
    }

    std::vector<Line> lines(raw.size());
    bool in_block_comment = false;
    for (std::size_t li = 0; li < raw.size(); ++li) {
        const std::string& s = raw[li];
        Line& out = lines[li];
        out.raw = s;
        out.code.assign(s.size(), ' ');
        std::size_t i = 0;
        while (i < s.size()) {
            if (in_block_comment) {
                if (s[i] == '*' && i + 1 < s.size() && s[i + 1] == '/') {
                    in_block_comment = false;
                    i += 2;
                } else {
                    out.comment += s[i];
                    ++i;
                }
                continue;
            }
            const char c = s[i];
            if (c == '/' && i + 1 < s.size() && s[i + 1] == '/') {
                out.comment += s.substr(i + 2);
                break;  // rest of the line is comment
            }
            if (c == '/' && i + 1 < s.size() && s[i + 1] == '*') {
                in_block_comment = true;
                i += 2;
                continue;
            }
            if (c == '"') {
                out.code[i] = '"';
                ++i;
                while (i < s.size() && s[i] != '"') {
                    if (s[i] == '\\') ++i;
                    ++i;
                }
                if (i < s.size()) out.code[i] = '"';
                ++i;
                continue;
            }
            // Char literal — but not a digit separator (1'000'000).
            if (c == '\'' &&
                (i == 0 || !std::isalnum(static_cast<unsigned char>(s[i - 1])))) {
                out.code[i] = '\'';
                ++i;
                while (i < s.size() && s[i] != '\'') {
                    if (s[i] == '\\') ++i;
                    ++i;
                }
                if (i < s.size()) out.code[i] = '\'';
                ++i;
                continue;
            }
            out.code[i] = c;
            ++i;
        }
    }
    return lines;
}

bool is_ident_char(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

std::vector<Token> identifiers(const std::string& code) {
    std::vector<Token> out;
    std::size_t i = 0;
    while (i < code.size()) {
        if (is_ident_char(code[i]) &&
            !std::isdigit(static_cast<unsigned char>(code[i]))) {
            const std::size_t begin = i;
            while (i < code.size() && is_ident_char(code[i])) ++i;
            out.push_back({code.substr(begin, i - begin), begin, i});
        } else {
            ++i;
        }
    }
    return out;
}

char next_code_char(const std::string& code, std::size_t pos, std::size_t* at) {
    while (pos < code.size() &&
           std::isspace(static_cast<unsigned char>(code[pos])))
        ++pos;
    if (at) *at = pos;
    return pos < code.size() ? code[pos] : '\0';
}

bool is_qualified_std(const std::string& code, std::size_t ident_begin) {
    std::size_t i = ident_begin;
    while (i > 0 && std::isspace(static_cast<unsigned char>(code[i - 1]))) --i;
    if (i < 2 || code[i - 1] != ':' || code[i - 2] != ':') return false;
    std::size_t j = i - 2;
    while (j > 0 && std::isspace(static_cast<unsigned char>(code[j - 1]))) --j;
    return j >= 3 && code.compare(j - 3, 3, "std") == 0;
}

std::string trim(std::string_view s) {
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
    return std::string(s.substr(b, e - b));
}

bool is_preprocessor(const Line& line) {
    std::size_t at = 0;
    return next_code_char(line.code, 0, &at) == '#';
}

// ---------------------------------------------------------------------------
// Effect naming
// ---------------------------------------------------------------------------

unsigned effect_bit(std::string_view name) {
    if (name == "noalloc") return kEffAlloc;
    if (name == "noexcept") return kEffThrow;
    if (name == "noclock") return kEffClock;
    if (name == "det") return kEffRng;
    return 0;
}

const char* effect_rule(unsigned bit) {
    switch (bit) {
        case kEffAlloc: return "ipa.alloc-leak";
        case kEffThrow: return "ipa.throw-leak";
        case kEffClock: return "ipa.clock-leak";
        case kEffRng: return "ipa.rng-leak";
    }
    return "ipa.alloc-leak";
}

const char* effect_verb(unsigned bit) {
    switch (bit) {
        case kEffAlloc: return "allocates";
        case kEffThrow: return "may throw";
        case kEffClock: return "reads a wall clock";
        case kEffRng: return "consumes raw RNG";
    }
    return "has the effect";
}

const char* effect_contract(unsigned bit) {
    switch (bit) {
        case kEffAlloc: return "noalloc";
        case kEffThrow: return "noexcept";
        case kEffClock: return "noclock";
        case kEffRng: return "det";
    }
    return "?";
}

// ---------------------------------------------------------------------------
// Scope walker
// ---------------------------------------------------------------------------

namespace {

/// One pending (pre-brace) token: identifiers keep their text, punctuation
/// is a single-char text. Whitespace is dropped.
struct PTok {
    std::string text;
    std::size_t line = 0;  ///< 1-based
    bool ident = false;
};

struct ScopeEntry {
    enum Kind { kNamespace, kClass, kFunction, kBlock } kind = kBlock;
    std::string name;
    std::size_t fn_index = 0;  ///< into tree.functions, for kFunction
};

bool is_call_keyword(const std::string& t) {
    static const std::set<std::string> kKw = {
        "if",        "for",       "while",     "switch",   "catch",
        "sizeof",    "alignof",   "alignas",   "decltype", "noexcept",
        "static_assert", "typeid", "assert",   "defined",  "operator",
        "co_await",  "co_return", "co_yield",  "throw",    "return",
        "new",       "delete",    "requires",  "explicit", "typename",
    };
    return kKw.count(t) > 0;
}

/// Identifiers that, as the PREVIOUS token of `name(`, still mean `name` is
/// being called (not declared): `return foo(...)`, `else foo(...)`, ...
bool decl_prev_exception(const std::string& t) {
    static const std::set<std::string> kPrev = {
        "return", "throw",  "else",      "do",       "case",
        "goto",   "new",    "co_return", "co_yield", "co_await",
    };
    return kPrev.count(t) > 0;
}

bool all_caps_macro(const std::string& t) {
    bool has_alpha = false;
    for (const char c : t) {
        if (std::islower(static_cast<unsigned char>(c))) return false;
        if (std::isupper(static_cast<unsigned char>(c))) has_alpha = true;
    }
    return has_alpha;
}

/// Contract directives waiting for the next function definition.
struct PendingIpa {
    unsigned requires_effects = 0;
    std::size_t requires_line = 0;
    unsigned trusted_effects = 0;
    std::set<std::string> allow_calls;
    std::size_t first_line = 0;
    bool any() const {
        return requires_effects != 0 || trusted_effects != 0 ||
               !allow_calls.empty();
    }
    void clear() { *this = PendingIpa{}; }
};

/// Split "a, b , c" into trimmed pieces.
std::vector<std::string> split_commas(std::string_view s) {
    std::vector<std::string> out;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || s[i] == ',') {
            const std::string piece = trim(s.substr(start, i - start));
            if (!piece.empty()) out.push_back(piece);
            start = i + 1;
        }
    }
    return out;
}

/// Parse "name(args) tail" -> args; empty string on malformed input.
bool parse_paren_body(std::string_view body, std::size_t skip,
                      std::string* args, std::string* tail) {
    body.remove_prefix(skip);
    const std::size_t open = body.find('(');
    const std::size_t close = body.find(')');
    if (open == std::string_view::npos || close == std::string_view::npos ||
        close < open)
        return false;
    *args = trim(body.substr(open + 1, close - open - 1));
    *tail = trim(body.substr(close + 1));
    return true;
}

/// Member-call receiver of the call whose callee starts at `ident_begin`:
/// "" when the callee is not reached via `.`/`->`, "?" when the receiver is
/// a compound expression, else the receiver's identifier.
std::string receiver_of(const std::string& code, std::size_t ident_begin) {
    std::size_t i = ident_begin;
    while (i > 0 && std::isspace(static_cast<unsigned char>(code[i - 1]))) --i;
    if (i == 0) return "";
    if (code[i - 1] == '.') {
        i -= 1;
    } else if (i >= 2 && code[i - 1] == '>' && code[i - 2] == '-') {
        i -= 2;
    } else {
        return "";
    }
    while (i > 0 && std::isspace(static_cast<unsigned char>(code[i - 1]))) --i;
    bool subscript = false;
    if (i > 0 && code[i - 1] == ']') {
        // `field_[i].method(...)`: strip the subscript, resolve through the
        // container's recorded element type ("name[]" key).
        int depth = 0;
        while (i > 0) {
            --i;
            if (code[i] == ']') ++depth;
            if (code[i] == '[') {
                --depth;
                if (depth == 0) break;
            }
        }
        if (depth != 0) return "?";
        subscript = true;
        while (i > 0 && std::isspace(static_cast<unsigned char>(code[i - 1])))
            --i;
    }
    if (i == 0 || !is_ident_char(code[i - 1])) return "?";
    const std::size_t end = i;
    while (i > 0 && is_ident_char(code[i - 1])) --i;
    if (std::isdigit(static_cast<unsigned char>(code[i]))) return "?";
    // `a.b.c(...)` / `f().g(...)`: the receiver itself is an expression.
    std::size_t j = i;
    while (j > 0 && std::isspace(static_cast<unsigned char>(code[j - 1]))) --j;
    if (j > 0 && (code[j - 1] == '.' || code[j - 1] == ')' ||
                  code[j - 1] == ']'))
        return "?";
    return code.substr(i, end - i) + (subscript ? "[]" : "");
}

/// Keywords that can never be the type of a data member.
bool non_type_keyword(const std::string& t) {
    static const std::set<std::string> kNot = {
        "using",   "typedef", "friend",    "operator", "return",
        "public",  "private", "protected", "virtual",  "enum",
        "class",   "struct",  "union",     "namespace","template",
        "typename","static_assert",        "auto",     "void",
    };
    return kNot.count(t) > 0;
}

/// Extract a `Type field_;` / `Type field_ = init;` data-member declaration
/// from the pending tokens of a class scope. Returns false for anything with
/// parens (method declarations, function-typed members) or with no
/// recognizable [type, name] tail. For container types, `elem` receives the
/// first identifier of the template-argument group (skipping a leading
/// `std`), so `field_[i].method()` sites can resolve through the element.
bool extract_field(const std::vector<PTok>& pending, std::string* name,
                   std::string* type, std::string* elem) {
    for (const PTok& t : pending)
        if (t.text == "(") return false;

    // The declarator zone ends at the first top-level (angle-depth-0) '='.
    int angle = 0;
    std::size_t zone = pending.size();
    std::vector<int> depth(pending.size(), 0);
    for (std::size_t i = 0; i < pending.size(); ++i) {
        if (pending[i].text == "<") ++angle;
        depth[i] = angle;
        if (pending[i].text == ">") angle = std::max(0, angle - 1);
        if (pending[i].text == "=" && depth[i] == 0) {
            zone = i;
            break;
        }
    }

    std::size_t name_idx = pending.size();
    for (std::size_t i = zone; i-- > 0;) {
        if (pending[i].ident && depth[i] == 0 &&
            !all_caps_macro(pending[i].text)) {
            name_idx = i;
            break;
        }
    }
    if (name_idx >= pending.size() || non_type_keyword(pending[name_idx].text))
        return false;

    // Type: the identifier before the name, skipping cv/ref/pointer noise and
    // stepping over one template-argument group.
    std::size_t i = name_idx;
    while (i > 0) {
        const PTok& t = pending[i - 1];
        if (!t.ident && (t.text == "*" || t.text == "&")) {
            --i;
            continue;
        }
        if (t.ident && (t.text == "const" || t.text == "volatile" ||
                        t.text == "mutable" || t.text == "constexpr" ||
                        t.text == "static" || t.text == "inline")) {
            --i;
            continue;
        }
        break;
    }
    if (i == 0) return false;
    if (pending[i - 1].text == ">") {
        const std::size_t close = i - 1;
        int d = 0;
        while (i-- > 0) {
            if (pending[i].text == ">") ++d;
            if (pending[i].text == "<") {
                --d;
                if (d == 0) break;
            }
        }
        if (i == 0 || i >= pending.size()) return false;
        // Element type: the LAST identifier of the first template argument
        // (so namespace qualifiers and smart-pointer wrappers fall away —
        // `std::vector<std::unique_ptr<Layer>>` and `std::span<const
        // data::Dataset>` both resolve to the type whose members a
        // `field_[i]->f()` call actually hits).
        for (std::size_t e = i + 1; e < close; ++e) {
            if (pending[e].text == ",") break;
            if (pending[e].ident && pending[e].text != "std" &&
                pending[e].text != "const" &&
                pending[e].text != "unique_ptr" &&
                pending[e].text != "shared_ptr" &&
                pending[e].text != "weak_ptr")
                *elem = pending[e].text;
        }
    }
    if (i == 0 || !pending[i - 1].ident ||
        non_type_keyword(pending[i - 1].text) || i - 1 == name_idx)
        return false;
    *name = pending[name_idx].text;
    *type = pending[i - 1].text;
    return true;
}

/// Extract a `Type name = init;` / `Type& name = init;` local declaration
/// from one body line. Only the text BEFORE the first plain `=` is
/// inspected; it must look like a declarator (identifiers, `::`, template
/// angles, cv/ref noise — nothing else), which rejects ordinary assignments
/// (`x = y`, `a[i] = v`, `p->f = g`, compound operators). The paren form
/// `Type name(init)` is handled separately at call extraction.
bool extract_local_decl(const std::string& code, std::string* name,
                        std::string* type, std::string* elem) {
    std::size_t eq = std::string::npos;
    for (std::size_t i = 0; i < code.size(); ++i) {
        if (code[i] != '=') continue;
        if (i + 1 < code.size() && code[i + 1] == '=') {
            ++i;  // '==' comparison
            continue;
        }
        if (i > 0 && std::string_view("=<>!+-*/%&|^").find(code[i - 1]) !=
                         std::string_view::npos)
            continue;  // two-char operator (<=, +=, ...)
        eq = i;
        break;
    }
    if (eq == std::string::npos) return false;
    const std::string prefix = code.substr(0, eq);
    std::vector<PTok> ptoks;
    const std::vector<Token> toks = identifiers(prefix);
    std::size_t ti = 0;
    for (std::size_t i = 0; i < prefix.size();) {
        if (ti < toks.size() && toks[ti].begin == i) {
            const std::string& t = toks[ti].text;
            if (t == "case" || t == "default" || t == "goto" ||
                t == "return" || t == "throw" || t == "else" || t == "do")
                return false;  // statement, not a declarator
            ptoks.push_back({t, 1, true});
            i = toks[ti].end;
            ++ti;
            continue;
        }
        const char c = prefix[i];
        if (!std::isspace(static_cast<unsigned char>(c))) {
            if (c != '&' && c != '*' && c != ':' && c != '<' && c != '>' &&
                c != ',')
                return false;  // expression punctuation => not a declaration
            ptoks.push_back({std::string(1, c), 1, false});
        }
        ++i;
    }
    return extract_field(ptoks, name, type, elem);
}

/// Classification of the pending tokens at a depth-0 '{'.
struct Classified {
    enum What { kNamespaceScope, kClassScope, kFunctionScope, kOther } what =
        kOther;
    std::string name;       ///< namespace path / class name / function name
    std::string qual;       ///< explicit A::B:: qualifier on a function name
    std::size_t sig_line = 0;
    std::vector<std::string> bases;  ///< base-clause simple names (classes)
    /// Parameter declarations as {name, type, elem} — fed into the new
    /// function's local_types so `const Matrix& out` narrows like a local.
    std::vector<std::array<std::string, 3>> params;
};

Classified classify_pending(const std::vector<PTok>& pending) {
    Classified out;
    if (pending.empty()) return out;
    out.sig_line = pending.front().line;

    std::size_t i = 0;
    // Skip a leading template<...> clause (angle matching on tokens).
    if (pending[i].text == "template") {
        ++i;
        if (i < pending.size() && pending[i].text == "<") {
            int depth = 0;
            for (; i < pending.size(); ++i) {
                if (pending[i].text == "<") ++depth;
                if (pending[i].text == ">") {
                    --depth;
                    if (depth == 0) {
                        ++i;
                        break;
                    }
                }
            }
        }
    }
    if (i >= pending.size()) return out;

    if (pending[i].text == "namespace") {
        out.what = Classified::kNamespaceScope;
        std::string name;
        for (std::size_t j = i + 1; j < pending.size(); ++j) {
            if (pending[j].ident)
                name += (name.empty() ? "" : "::") + pending[j].text;
        }
        out.name = name.empty() ? "(anon)" : name;
        return out;
    }

    // A top-level '=' before any paren group means an initializer, never a
    // function definition (`auto f = [...] {`, `int a[] = {...}`).
    {
        int paren = 0;
        for (const PTok& t : pending) {
            if (t.text == "(") ++paren;
            if (t.text == ")") --paren;
            if (t.text == "=" && paren == 0) return out;
        }
    }

    if (pending[i].text == "class" || pending[i].text == "struct" ||
        pending[i].text == "union") {
        // Name: last plain identifier before the base-clause ':' / 'final'.
        std::string name;
        std::size_t colon = pending.size();
        for (std::size_t j = i + 1; j < pending.size(); ++j) {
            const PTok& t = pending[j];
            if (t.text == ":") {  // single ':' only — '::' never pends here
                colon = j;
                break;
            }
            if (t.ident && t.text != "final" && !all_caps_macro(t.text))
                name = t.text;
        }
        if (!name.empty()) {
            out.what = Classified::kClassScope;
            out.name = name;
            // Base clause: one simple name per comma group — the LAST
            // identifier wins so `public common::Base` yields "Base";
            // template-argument tokens are skipped.
            int ad = 0;
            std::string last;
            for (std::size_t j = colon + 1;
                 colon < pending.size() && j < pending.size(); ++j) {
                const PTok& t = pending[j];
                if (t.text == "<") { ++ad; continue; }
                if (t.text == ">") { ad = std::max(0, ad - 1); continue; }
                if (ad > 0) continue;
                if (t.text == ",") {
                    if (!last.empty()) out.bases.push_back(last);
                    last.clear();
                    continue;
                }
                if (t.ident && t.text != "public" && t.text != "private" &&
                    t.text != "protected" && t.text != "virtual" &&
                    !all_caps_macro(t.text))
                    last = t.text;
            }
            if (!last.empty()) out.bases.push_back(last);
        }
        return out;
    }
    if (pending[i].text == "enum" || pending[i].text == "extern") return out;

    // Function: first identifier directly followed by '(' that is not a
    // keyword. Collect any `A::B::` qualifier written immediately before it.
    for (std::size_t j = i; j + 1 < pending.size(); ++j) {
        if (!pending[j].ident || pending[j + 1].text != "(") continue;
        if (is_call_keyword(pending[j].text)) continue;
        std::string qual;
        std::size_t k = j;
        while (k >= 2 && pending[k - 1].text == ":" &&
               pending[k - 2].text == ":") {
            if (k >= 3 && pending[k - 3].ident) {
                qual = pending[k - 3].text + "::" + qual;
                k -= 3;
            } else {
                break;  // leading `::name` — global qualification
            }
        }
        out.what = Classified::kFunctionScope;
        out.name = pending[j].text;
        out.qual = qual;
        // Harvest the parameter list: split the tokens between the matching
        // parens on top-level commas (template-angle aware) and run each
        // group through the field extractor. Groups it cannot classify
        // (function pointers, defaulted calls) are silently skipped.
        int pd = 0, ad = 0;
        std::vector<PTok> group;
        const auto flush = [&] {
            std::string pname, ptype, pelem;
            if (extract_field(group, &pname, &ptype, &pelem))
                out.params.push_back({pname, ptype, pelem});
            group.clear();
        };
        for (std::size_t m = j + 1; m < pending.size(); ++m) {
            const PTok& t = pending[m];
            if (t.text == "(") {
                if (++pd == 1) continue;
            } else if (t.text == ")") {
                if (--pd == 0) {
                    flush();
                    break;
                }
            } else if (t.text == "<") {
                ++ad;
            } else if (t.text == ">") {
                ad = std::max(0, ad - 1);
            } else if (t.text == "," && pd == 1 && ad == 0) {
                flush();
                continue;
            }
            if (pd >= 1) group.push_back(t);
        }
        return out;
    }
    return out;
}

}  // namespace

void index_file(const std::string& path, const std::vector<Line>& lines,
                TreeIndex& tree, std::vector<Finding>& findings) {
    tree.file_lines[path] = lines;

    std::vector<ScopeEntry> scopes;
    std::vector<PTok> pending;
    int pending_paren = 0;  ///< '('-depth inside the pending tokens
    int pending_brace = 0;  ///< expression braces inside parens (lambdas)
    PendingIpa ipa;

    auto in_function = [&]() -> FunctionDef* {
        for (std::size_t s = scopes.size(); s-- > 0;) {
            if (scopes[s].kind == ScopeEntry::kFunction)
                return &tree.functions[scopes[s].fn_index];
        }
        return nullptr;
    };

    auto scope_prefix = [&]() {
        std::string p;
        for (const ScopeEntry& s : scopes) {
            if (s.kind == ScopeEntry::kNamespace || s.kind == ScopeEntry::kClass)
                p += s.name + "::";
        }
        return p;
    };

    auto record_field = [&]() {
        const bool in_class =
            !scopes.empty() && scopes.back().kind == ScopeEntry::kClass;
        const bool at_ns =
            scopes.empty() || scopes.back().kind == ScopeEntry::kNamespace;
        if (!in_class && !at_ns) return;
        std::string fname, ftype, felem;
        if (!extract_field(pending, &fname, &ftype, &felem)) return;
        if (in_class) {
            std::string cls = scope_prefix();  // class included, trailing "::"
            if (cls.size() >= 2) cls.resize(cls.size() - 2);
            tree.class_fields[cls][fname] = ftype;
            if (!felem.empty()) tree.class_fields[cls][fname + "[]"] = felem;
        } else {
            // Namespace-scope variable: record under the simple name, "?" on
            // a cross-file type conflict (never narrow on ambiguity).
            auto it = tree.global_types.find(fname);
            if (it != tree.global_types.end() && it->second != ftype)
                it->second.assign(1, '?');
            else
                tree.global_types[fname] = ftype;
            if (!felem.empty()) tree.global_types[fname + "[]"] = felem;
        }
    };

    auto dangling_ipa = [&](const char* where) {
        if (!ipa.any()) return;
        findings.push_back(
            {path, ipa.first_line, "lint.bad-directive",
             std::string("requires/allow-call/trusted directive must "
                         "immediately precede a function definition (") +
                 where + ")"});
        ipa.clear();
    };

    bool skipping_continuation = false;
    for (std::size_t li = 0; li < lines.size(); ++li) {
        const std::size_t lineno = li + 1;
        const Line& line = lines[li];

        // --- ipa contract directives (live in comments) -------------------
        {
            static constexpr std::string_view kPrefix = "wifisense-lint:";
            const std::size_t pos = line.comment.find(kPrefix);
            if (pos != std::string::npos) {
                const std::string body =
                    trim(line.comment.substr(pos + kPrefix.size()));
                std::string args, tail;
                if (body.rfind("requires(", 0) == 0) {
                    if (ipa.first_line == 0) ipa.first_line = lineno;
                    if (!parse_paren_body(body, 0, &args, &tail)) {
                        findings.push_back({path, lineno, "lint.bad-directive",
                                            "malformed requires(...): '" +
                                                body + "'"});
                    } else {
                        ipa.requires_line = lineno;
                        for (const std::string& e : split_commas(args)) {
                            const unsigned bit = effect_bit(e);
                            if (bit == 0)
                                findings.push_back(
                                    {path, lineno, "lint.bad-directive",
                                     "unknown effect '" + e +
                                         "' in requires(...); use noalloc, "
                                         "noexcept, noclock, det"});
                            else
                                ipa.requires_effects |= bit;
                        }
                        if (ipa.requires_effects == 0)
                            findings.push_back({path, lineno,
                                                "lint.bad-directive",
                                                "requires(...) names no "
                                                "effect"});
                    }
                } else if (body.rfind("allow-call(", 0) == 0) {
                    if (ipa.first_line == 0) ipa.first_line = lineno;
                    if (!parse_paren_body(body, 0, &args, &tail) ||
                        args.empty() || tail.empty()) {
                        findings.push_back(
                            {path, lineno, "lint.bad-directive",
                             "allow-call needs a callee name and a reason: '" +
                                 body + "'"});
                    } else {
                        for (const std::string& callee : split_commas(args))
                            ipa.allow_calls.insert(callee);
                    }
                } else if (body.rfind("trusted(", 0) == 0) {
                    if (ipa.first_line == 0) ipa.first_line = lineno;
                    if (!parse_paren_body(body, 0, &args, &tail) ||
                        tail.empty()) {
                        findings.push_back(
                            {path, lineno, "lint.bad-directive",
                             "trusted needs effect names and a reason: '" +
                                 body + "'"});
                    } else {
                        for (const std::string& e : split_commas(args)) {
                            const unsigned bit = effect_bit(e);
                            if (bit == 0)
                                findings.push_back(
                                    {path, lineno, "lint.bad-directive",
                                     "unknown effect '" + e +
                                         "' in trusted(...)"});
                            else
                                ipa.trusted_effects |= bit;
                        }
                    }
                }
            }
        }

        // --- preprocessor lines (and their continuations) are not code ----
        if (skipping_continuation || is_preprocessor(line)) {
            const std::string& r = line.raw;
            skipping_continuation = !r.empty() && r.back() == '\\';
            continue;
        }

        const std::string& code = line.code;
        const std::vector<Token> toks = identifiers(code);
        std::size_t ti = 0;  // next identifier token >= current column

        FunctionDef* fn = in_function();

        // `Type name = init;` locals: feed receiver-type narrowing exactly
        // like the `Type name(init)` declarator form below.
        if (fn != nullptr) {
            std::string lname, ltype, lelem;
            if (extract_local_decl(code, &lname, &ltype, &lelem)) {
                fn->local_types[lname] = ltype;
                if (!lelem.empty()) fn->local_types[lname + "[]"] = lelem;
            }
        }

        std::string last_ident;   ///< last identifier seen (cleared by punct)
        char last_punct = '\0';   ///< last non-ident, non-space char
        char last_punct2 = '\0';  ///< the punct before that ('-' of "->")
        if (fn == nullptr && !pending.empty()) {
            if (pending.back().ident)
                last_ident = pending.back().text;
            else
                last_punct = pending.back().text[0];
        }

        for (std::size_t col = 0; col < code.size();) {
            const char c = code[col];
            if (std::isspace(static_cast<unsigned char>(c))) {
                ++col;
                continue;
            }

            // Identifier token?
            if (ti < toks.size() && toks[ti].begin == col) {
                const Token& t = toks[ti];
                if (fn != nullptr) {
                    // Call-site extraction inside a body.
                    std::size_t after_at = 0;
                    const char after =
                        next_code_char(code, t.end, &after_at);
                    if (after == '(' && !is_call_keyword(t.text) &&
                        !all_caps_macro(t.text)) {
                        const bool prev_is_ident =
                            !last_ident.empty() && last_punct == '\0';
                        if (prev_is_ident &&
                            !decl_prev_exception(last_ident)) {
                            // `Type name(...)`: a constructor call iff Type
                            // is indexed — resolved later via decl=true. The
                            // variable becomes a local callable: calling a
                            // functor local is analyzed via its declaration
                            // tokens, not by name.
                            fn->calls.push_back({last_ident, lineno, true, ""});
                            fn->local_lambdas.insert(t.text);
                            fn->local_types[t.text] = last_ident;
                        } else if (last_punct == '>' && last_punct2 != '-') {
                            // `Type<...> name(...)` declarator (NOT an `->`
                            // member call): same functor-local treatment;
                            // the type's tokens were already scanned.
                            fn->local_lambdas.insert(t.text);
                        } else {
                            fn->calls.push_back(
                                {t.text, lineno, false,
                                 receiver_of(code, t.begin),
                                 is_qualified_std(code, t.begin)});
                        }
                    }
                    // Local lambda binding: `auto NAME = [`.
                    if (last_ident == "auto" && after == '=' &&
                        next_code_char(code, after_at + 1) == '[') {
                        fn->local_lambdas.insert(t.text);
                    }
                } else {
                    pending.push_back({t.text, lineno, true});
                }
                last_ident = t.text;
                last_punct = '\0';
                last_punct2 = '\0';
                col = t.end;
                ++ti;
                continue;
            }

            // Punctuation.
            if (fn != nullptr) {
                // Inside a body we only track braces.
                if (c == '{') {
                    scopes.push_back({ScopeEntry::kBlock, "", 0});
                } else if (c == '}') {
                    // Pop blocks; if the function's own scope closes, record
                    // the body end.
                    if (!scopes.empty() &&
                        scopes.back().kind == ScopeEntry::kBlock) {
                        scopes.pop_back();
                    } else if (!scopes.empty() &&
                               scopes.back().kind == ScopeEntry::kFunction) {
                        FunctionDef& done =
                            tree.functions[scopes.back().fn_index];
                        done.body_end = lineno;
                        done.body_close_col = col;
                        scopes.pop_back();
                        fn = in_function();
                        pending.clear();
                        pending_paren = 0;
                    }
                }
                last_ident.clear();
                last_punct2 = last_punct;
                last_punct = c;
                ++col;
                continue;
            }

            // Outside any function body.
            if (pending_brace > 0) {
                // Inside an expression brace (lambda body in an init list):
                // swallow everything until it balances.
                if (c == '{') ++pending_brace;
                if (c == '}') --pending_brace;
                last_ident.clear();
                last_punct2 = last_punct;
                last_punct = c;
                ++col;
                continue;
            }
            if (c == '{' && pending_paren > 0) {
                // Lambda/init brace inside parens — expression, not a scope.
                pending_brace = 1;
                last_ident.clear();
                last_punct2 = last_punct;
                last_punct = c;
                ++col;
                continue;
            }
            if (c == '{') {
                const Classified cls = classify_pending(pending);
                switch (cls.what) {
                    case Classified::kNamespaceScope:
                        scopes.push_back(
                            {ScopeEntry::kNamespace, cls.name, 0});
                        dangling_ipa("namespace brace");
                        break;
                    case Classified::kClassScope:
                        scopes.push_back({ScopeEntry::kClass, cls.name, 0});
                        tree.class_names.insert(cls.name);
                        for (const std::string& b : cls.bases)
                            tree.class_bases[cls.name].insert(b);
                        dangling_ipa("class brace");
                        break;
                    case Classified::kFunctionScope: {
                        FunctionDef def;
                        def.name = cls.name;
                        def.qual_name = scope_prefix() + cls.qual + cls.name;
                        def.file = path;
                        def.sig_line = cls.sig_line;
                        def.body_begin = lineno;
                        def.body_open_col = col;
                        def.body_end = lines.size();  // patched on close
                        def.requires_effects = ipa.requires_effects;
                        def.requires_line = ipa.requires_line != 0
                                                ? ipa.requires_line
                                                : cls.sig_line;
                        def.trusted_effects = ipa.trusted_effects;
                        def.allow_calls = ipa.allow_calls;
                        for (const auto& p : cls.params) {
                            def.local_types[p[0]] = p[1];
                            if (!p[2].empty())
                                def.local_types[p[0] + "[]"] = p[2];
                        }
                        ipa.clear();
                        const std::size_t idx = tree.functions.size();
                        tree.functions.push_back(std::move(def));
                        tree.by_name[cls.name].push_back(idx);
                        scopes.push_back({ScopeEntry::kFunction, cls.name, idx});
                        fn = &tree.functions[idx];
                        break;
                    }
                    case Classified::kOther:
                        // `std::array<...> field_{};` brace-init member: the
                        // declarator tokens are still pending here.
                        record_field();
                        scopes.push_back({ScopeEntry::kBlock, "", 0});
                        break;
                }
                pending.clear();
                pending_paren = 0;
            } else if (c == '}') {
                if (!scopes.empty()) scopes.pop_back();
                pending.clear();
                pending_paren = 0;
            } else if (c == ';' && pending_paren == 0) {
                if (ipa.any())
                    dangling_ipa(
                        "a declaration or statement ends here; annotate the "
                        "definition instead");
                record_field();
                pending.clear();
            } else {
                if (c == '(') ++pending_paren;
                if (c == ')') pending_paren = std::max(0, pending_paren - 1);
                pending.push_back({std::string(1, c), lineno, false});
            }
            last_ident.clear();
            last_punct2 = last_punct;
            last_punct = c;
            ++col;
        }
    }

    dangling_ipa("end of file");
    // Unclosed functions (unbalanced braces, e.g. inside untracked
    // preprocessor arms): already have body_end = last line; harmless.
}

}  // namespace wifilint
