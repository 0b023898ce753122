#include "mcblint/rules.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <set>
#include <sstream>
#include <string_view>
#include <tuple>

#include "mcblint/scanner.hpp"
#include "util/json.hpp"

namespace mcblint {

namespace {

constexpr std::size_t npos = Scan::npos;

bool is_punct(const Token& t, std::string_view s) {
  return t.kind == TokKind::kPunct && t.text == s;
}
bool is_ident(const Token& t, std::string_view s) {
  return t.kind == TokKind::kIdent && t.text == s;
}
bool starts_with(std::string_view s, std::string_view pre) {
  return s.size() >= pre.size() && s.compare(0, pre.size(), pre) == 0;
}
bool ends_with(std::string_view s, std::string_view suf) {
  return s.size() >= suf.size() &&
         s.compare(s.size() - suf.size(), suf.size(), suf) == 0;
}

struct RuleDef {
  std::string_view id;
  std::string_view slug;
  std::vector<std::string_view> scopes;  // path prefixes; empty = everywhere
};

const std::array<RuleDef, 4>& rule_defs() {
  static const std::array<RuleDef, 4> defs{{
      {"MCB-L1", "use-after-suspend", {}},
      {"MCB-L2",
       "nondeterminism",
       {"src/mcb/", "src/algo/", "src/se/", "src/sched/", "src/serve/"}},
      {"MCB-L3",
       "unordered-iteration",
       {"src/mcb/", "src/algo/", "src/se/", "src/sched/", "src/serve/"}},
      {"MCB-L6",
       "naked-new",
       {"src/mcb/", "src/algo/", "src/se/", "src/sched/", "src/check/",
        "src/harness/"}},
  }};
  return defs;
}

bool rule_in_scope(const RuleDef& r, std::string_view path, bool all) {
  if (all || r.scopes.empty()) return true;
  for (const std::string_view pre : r.scopes) {
    if (starts_with(path, pre)) return true;
  }
  return false;
}

void add(std::vector<Finding>* out, const RuleDef& r, const LexedFile& f,
         int line, std::string detail) {
  out->push_back(Finding{std::string(r.id), std::string(r.slug), f.path,
                         line, std::move(detail)});
}

// --------------------------------------------------------------------------
// MCB-L1: use-after-suspend
// --------------------------------------------------------------------------

// Statement keywords that can never start a declaration we track.
bool is_stmt_keyword(std::string_view s) {
  static const std::set<std::string, std::less<>> kw{
      "return",   "if",      "else",    "while",   "for",     "do",
      "switch",   "case",    "break",   "continue", "goto",   "co_await",
      "co_return", "co_yield", "throw", "delete",  "new",     "try",
      "catch",    "using",   "typedef", "template", "public", "private",
      "protected", "default", "sizeof", "this",    "operator"};
  return kw.count(s) > 0;
}

// Type qualifiers/specifiers that contribute to a declaration's type
// without being the declared name.
bool is_type_qualifier(std::string_view s) {
  static const std::set<std::string, std::less<>> kw{
      "const",    "constexpr", "static",  "thread_local", "volatile",
      "mutable",  "register",  "inline",  "typename",     "unsigned",
      "signed",   "long",      "short",   "auto",         "struct",
      "class",    "enum",      "union"};
  return kw.count(s) > 0;
}

/// Skips a balanced <...> starting at `i` (toks[i] == "<"). Returns the
/// index just past the matching ">", or npos when the run hits a token
/// that proves this was a comparison, not template arguments.
std::size_t skip_angles(const std::vector<Token>& toks, std::size_t i,
                        std::size_t limit) {
  int depth = 0;
  std::size_t steps = 0;
  for (std::size_t j = i; j < limit && steps < 256; ++j, ++steps) {
    const Token& t = toks[j];
    if (t.kind != TokKind::kPunct) continue;
    if (t.text == "<") ++depth;
    else if (t.text == ">") {
      if (--depth == 0) return j + 1;
    } else if (t.text == ";" || t.text == "{" || t.text == "}") {
      return npos;
    }
  }
  return npos;
}

enum class Root { kCall, kLocal, kParam, kValue, kUnknown };

struct RootInfo {
  Root kind = Root::kUnknown;
  bool addr_of = false;    // leading unary & in the initializer
  std::string name;        // root variable, when kind is a variable kind
  bool suspends = false;   // initializer itself contains co_await/co_yield
};

struct L1Scope {
  std::set<std::string> values;  // locals declared in this scope
};

struct L1Ref {
  std::string name;
  int decl_line = 0;
  std::string origin;     // "a temporary" / "stack local 'x'"
  int suspend_line = -1;  // first co_await after the declaration
  bool reported = false;
  std::size_t scope = 0;
};

struct L1State {
  std::vector<L1Scope> scopes;
  std::vector<L1Ref> refs;
  std::set<std::string> params;

  bool is_local(std::string_view n) const {
    for (const L1Scope& s : scopes) {
      if (s.values.count(std::string(n)) > 0) return true;
    }
    return false;
  }
};

/// Classifies the root of an initializer expression in [a, b).
RootInfo root_of(const std::vector<Token>& toks, std::size_t a,
                 std::size_t b, const L1State& st) {
  RootInfo out;
  std::size_t i = a;
  int guard = 0;
  while (i < b && guard++ < 64) {
    const Token& t = toks[i];
    if (t.kind == TokKind::kIdent &&
        (t.text == "co_await" || t.text == "co_yield")) {
      out.suspends = true;
      // The awaited result is a prvalue as far as binding is concerned.
      out.kind = Root::kCall;
      return out;
    }
    if (t.kind == TokKind::kPunct) {
      if (t.text == "&" && i == a) {
        out.addr_of = true;
        ++i;
        continue;
      }
      if (t.text == "(" || t.text == "*" || t.text == "+" ||
          t.text == "-" || t.text == "!" || t.text == "~") {
        ++i;
        continue;
      }
      out.kind = Root::kValue;
      return out;
    }
    if (t.kind == TokKind::kNumber || t.kind == TokKind::kString ||
        t.kind == TokKind::kChar) {
      out.kind = Root::kValue;
      return out;
    }
    // Identifier: casts and std::move/forward unwrap to their argument.
    if (t.text == "static_cast" || t.text == "dynamic_cast" ||
        t.text == "const_cast" || t.text == "reinterpret_cast") {
      std::size_t j = i + 1;
      if (j < b && is_punct(toks[j], "<")) {
        j = skip_angles(toks, j, b);
        if (j == npos) break;
      }
      if (j < b && is_punct(toks[j], "(")) {
        i = j + 1;
        continue;
      }
      break;
    }
    // Read one qualified chain: id (:: id)*.
    std::size_t j = i;
    bool qualified = false;
    std::string first = toks[j].text;
    std::string second;
    while (j + 2 < b && is_punct(toks[j + 1], "::") &&
           toks[j + 2].kind == TokKind::kIdent) {
      qualified = true;
      if (second.empty()) second = toks[j + 2].text;
      j += 2;
    }
    const Token* next = j + 1 < b ? &toks[j + 1] : nullptr;
    if (qualified && first == "std" &&
        (second == "move" || second == "forward") && next != nullptr &&
        is_punct(*next, "(")) {
      i = j + 2;  // unwrap std::move(...)
      continue;
    }
    if (next != nullptr && (is_punct(*next, "(") || is_punct(*next, "{"))) {
      out.kind = Root::kCall;
      return out;
    }
    if (qualified) {
      out.kind = Root::kUnknown;
      return out;
    }
    out.name = first;
    if (st.is_local(first)) out.kind = Root::kLocal;
    else if (st.params.count(first) > 0) out.kind = Root::kParam;
    else out.kind = Root::kUnknown;
    return out;
  }
  return out;
}

struct L1Decl {
  bool ok = false;
  std::size_t next = 0;   // resume index for the walk
  std::string name;
  int name_line = 0;
  bool refness = false;
  bool ptr = false;
  bool range_for = false;  // `Type x : range` — skipped by design
  bool has_init = false;
  std::size_t init_begin = 0, init_end = 0;  // [begin, end) token range
};

/// Attempts to parse a simple declaration starting at `i` (a statement
/// start). Handles `T x;`, `T x = init;`, `T x(init);`, `T x{init};`,
/// refs/pointers, qualified and templated types. Initializer extents stop
/// at the first top-level ';' / ',' and never cross `close`.
L1Decl parse_decl(const std::vector<Token>& toks, std::size_t i,
                  std::size_t close) {
  L1Decl d;
  std::size_t j = i;
  int words = 0;
  std::string last_ident;
  int last_line = 0;
  int guard = 0;
  while (j < close && guard++ < 64) {
    const Token& t = toks[j];
    if (t.kind == TokKind::kIdent) {
      if (is_stmt_keyword(t.text)) return d;
      if (is_type_qualifier(t.text)) {
        ++words;
        ++j;
        continue;
      }
      last_ident = t.text;
      last_line = t.line;
      ++words;
      ++j;
      continue;
    }
    if (is_punct(t, "::")) {
      ++j;
      continue;
    }
    if (is_punct(t, "<")) {
      const std::size_t after = skip_angles(toks, j, close);
      if (after == npos) return d;
      j = after;
      continue;
    }
    if (is_punct(t, "&") || is_punct(t, "&&")) {
      d.refness = true;
      ++j;
      continue;
    }
    if (is_punct(t, "*")) {
      d.ptr = true;
      ++j;
      continue;
    }
    break;
  }
  if (words < 2 || last_ident.empty() || j >= close) return d;
  d.name = last_ident;
  d.name_line = last_line;
  const Token& term = toks[j];
  if (is_punct(term, ";") || is_punct(term, ",")) {
    d.ok = true;
    d.next = j;  // leave the terminator to the main walk
    return d;
  }
  if (is_punct(term, ":")) {
    d.ok = true;
    d.range_for = true;
    d.next = j;
    return d;
  }
  if (is_punct(term, "=")) {
    // Initializer runs to the first top-level ';' or ','.
    std::size_t k = j + 1;
    int depth = 0;
    while (k < close) {
      const Token& t = toks[k];
      if (t.kind == TokKind::kPunct) {
        if (t.text == "(" || t.text == "[" || t.text == "{") ++depth;
        else if (t.text == ")" || t.text == "]" || t.text == "}") --depth;
        else if ((t.text == ";" || t.text == ",") && depth == 0) break;
      }
      ++k;
    }
    d.ok = true;
    d.has_init = true;
    d.init_begin = j + 1;
    d.init_end = k;
    d.next = k;
    return d;
  }
  if (is_punct(term, "(") || is_punct(term, "{")) {
    // Constructor-style init: the balanced group is the initializer.
    int depth = 0;
    std::size_t k = j;
    while (k < close) {
      const Token& t = toks[k];
      if (t.kind == TokKind::kPunct) {
        if (t.text == "(" || t.text == "[" || t.text == "{") ++depth;
        else if (t.text == ")" || t.text == "]" || t.text == "}") {
          if (--depth == 0) break;
        }
      }
      ++k;
    }
    if (k >= close) return d;
    d.ok = true;
    d.has_init = true;
    d.init_begin = j + 1;
    d.init_end = k;
    d.next = k + 1;
    return d;
  }
  return d;
}

void l1_body(const LexedFile& f, const Scan& sc, std::size_t bi,
             std::vector<Finding>* out, const RuleDef& rule) {
  const std::vector<Token>& toks = f.tokens;
  const Body& body = sc.bodies[bi];
  L1State st;
  st.scopes.push_back({});
  st.params.insert(body.params.begin(), body.params.end());

  auto mark_suspend = [&st](int line) {
    for (L1Ref& r : st.refs) {
      if (r.suspend_line < 0) r.suspend_line = line;
    }
  };
  auto drop_scope_refs = [&st]() {
    const std::size_t depth = st.scopes.size();
    std::erase_if(st.refs,
                  [depth](const L1Ref& r) { return r.scope >= depth; });
  };

  bool stmt_start = true;
  bool for_header = false;
  std::size_t i = body.open + 1;
  while (i < body.close) {
    if (sc.body_of[i] != bi) {  // token inside a nested lambda body
      ++i;
      continue;
    }
    const Token& t = toks[i];
    if (t.kind == TokKind::kPunct) {
      if (t.text == "{") {
        st.scopes.push_back({});
        stmt_start = true;
        ++i;
        continue;
      }
      if (t.text == "}") {
        if (st.scopes.size() > 1) {
          drop_scope_refs();
          st.scopes.pop_back();
        }
        stmt_start = true;
        ++i;
        continue;
      }
      if (t.text == ";") {
        stmt_start = true;
        ++i;
        continue;
      }
      if (t.text == "(" && for_header) {
        for_header = false;
        stmt_start = true;  // `for (` introduces an init declaration
        ++i;
        continue;
      }
      stmt_start = false;
      ++i;
      continue;
    }
    if (t.kind != TokKind::kIdent) {
      stmt_start = false;
      ++i;
      continue;
    }
    if (t.text == "co_await" || t.text == "co_yield") {
      mark_suspend(t.line);
      stmt_start = false;
      ++i;
      continue;
    }
    if (t.text == "for" || t.text == "while" || t.text == "if" ||
        t.text == "switch" || t.text == "catch") {
      for_header = t.text == "for";
      stmt_start = false;
      ++i;
      continue;
    }
    if (stmt_start && !is_stmt_keyword(t.text)) {
      L1Decl d = parse_decl(toks, i, body.close);
      if (d.ok && !d.range_for) {
        RootInfo root;
        if (d.has_init) {
          root = root_of(toks, d.init_begin, d.init_end, st);
          // A co_await inside the initializer suspends *before* the new
          // binding exists, so it only arms the refs declared earlier.
          for (std::size_t k = d.init_begin; k < d.init_end; ++k) {
            const Token& it = toks[k];
            if (it.kind == TokKind::kIdent &&
                (it.text == "co_await" || it.text == "co_yield")) {
              mark_suspend(it.line);
            }
            // Initializer identifiers are themselves uses of earlier refs.
            if (it.kind == TokKind::kIdent) {
              for (L1Ref& r : st.refs) {
                if (!r.reported && r.suspend_line >= 0 &&
                    r.name == it.text &&
                    !(k > 0 && (is_punct(toks[k - 1], ".") ||
                                is_punct(toks[k - 1], "->") ||
                                is_punct(toks[k - 1], "::")))) {
                  add(out, rule, f, it.line,
                      "'" + r.name + "' binds " + r.origin + " (line " +
                          std::to_string(r.decl_line) +
                          ") and is used after a co_await at line " +
                          std::to_string(r.suspend_line) +
                          "; copy the value before suspending");
                  r.reported = true;
                }
              }
            }
          }
        }
        const bool risky_ref =
            d.refness &&
            (root.kind == Root::kCall || root.kind == Root::kLocal);
        const bool risky_ptr = d.ptr && root.addr_of &&
                               root.kind == Root::kLocal;
        if (risky_ref || risky_ptr) {
          L1Ref r;
          r.name = d.name;
          r.decl_line = d.name_line;
          r.origin = root.kind == Root::kCall
                         ? "a temporary"
                         : "stack local '" + root.name + "'";
          r.scope = st.scopes.size();
          st.refs.push_back(std::move(r));
        } else {
          st.scopes.back().values.insert(d.name);
        }
        i = d.next;
        stmt_start = false;
        continue;
      }
    }
    // Plain identifier: a use of any armed risky ref.
    const bool member_access =
        i > 0 && (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->") ||
                  is_punct(toks[i - 1], "::"));
    if (!member_access) {
      for (L1Ref& r : st.refs) {
        if (!r.reported && r.suspend_line >= 0 && r.name == t.text) {
          add(out, rule, f, t.line,
              "'" + r.name + "' binds " + r.origin + " (line " +
                  std::to_string(r.decl_line) +
                  ") and is used after a co_await at line " +
                  std::to_string(r.suspend_line) +
                  "; copy the value before suspending");
          r.reported = true;
        }
      }
    }
    stmt_start = false;
    ++i;
  }
}

void rule_l1(const LexedFile& f, const Scan& sc, std::vector<Finding>* out) {
  const RuleDef& rule = rule_defs()[0];
  for (std::size_t bi = 0; bi < sc.bodies.size(); ++bi) {
    if (sc.bodies[bi].coroutine) l1_body(f, sc, bi, out, rule);
  }
}

// --------------------------------------------------------------------------
// MCB-L2: nondeterminism sources
// --------------------------------------------------------------------------

void rule_l2(const LexedFile& f, std::vector<Finding>* out) {
  const RuleDef& rule = rule_defs()[1];
  const std::vector<Token>& toks = f.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent) continue;
    const Token* prev = i > 0 ? &toks[i - 1] : nullptr;
    const Token* prev2 = i > 1 ? &toks[i - 2] : nullptr;
    const Token* next = i + 1 < toks.size() ? &toks[i + 1] : nullptr;
    const Token* next2 = i + 2 < toks.size() ? &toks[i + 2] : nullptr;
    const bool member =
        prev != nullptr && (is_punct(*prev, ".") || is_punct(*prev, "->"));
    const bool called = next != nullptr && is_punct(*next, "(");

    if (!member && called &&
        (t.text == "rand" || t.text == "srand" || t.text == "rand_r" ||
         t.text == "drand48")) {
      add(out, rule, f, t.line,
          "C PRNG call '" + t.text + "()' — use the run's seeded "
          "util::Random so results are a function of the seed");
      continue;
    }
    if (t.text == "random_device") {
      add(out, rule, f, t.line,
          "std::random_device draws host entropy — protocol randomness "
          "must come from the seeded util::Random");
      continue;
    }
    if (t.text == "this_thread") {
      add(out, rule, f, t.line,
          "std::this_thread queries host scheduling state — protocol code "
          "must not observe which thread runs it");
      continue;
    }
    if (t.text == "hardware_concurrency") {
      add(out, rule, f, t.line,
          "hardware_concurrency() is host topology — results must not "
          "depend on the machine's thread count");
      continue;
    }
    if (ends_with(t.text, "_clock") && next != nullptr &&
        is_punct(*next, "::") && next2 != nullptr &&
        is_ident(*next2, "now")) {
      add(out, rule, f, t.line,
          t.text + "::now() reads the wall clock — model time is the "
          "cycle counter; wall time is host telemetry only");
      continue;
    }
    if (!member && called &&
        (t.text == "time" || t.text == "clock" ||
         t.text == "gettimeofday" || t.text == "clock_gettime")) {
      // `std::time(...)` qualifies; `obj::time(...)` for other scopes
      // does not.
      const bool scoped = prev != nullptr && is_punct(*prev, "::");
      const bool std_scoped =
          scoped && prev2 != nullptr && is_ident(*prev2, "std");
      if (!scoped || std_scoped) {
        add(out, rule, f, t.line,
            "C time source '" + t.text + "()' — wall time is host "
            "telemetry, never protocol input");
      }
      continue;
    }
  }
}

// --------------------------------------------------------------------------
// MCB-L3: unordered-container iteration
// --------------------------------------------------------------------------

bool is_unordered(std::string_view s) {
  return s == "unordered_map" || s == "unordered_set" ||
         s == "unordered_multimap" || s == "unordered_multiset";
}

void rule_l3(const LexedFile& f, const Scan& sc, std::vector<Finding>* out) {
  const RuleDef& rule = rule_defs()[2];
  const std::vector<Token>& toks = f.tokens;

  // Names declared with an unordered container type, anywhere in the file
  // (locals, members, parameters). Flat per-file resolution is enough —
  // a name that shadows an unordered container with an ordered one in the
  // same file would be its own review problem.
  std::set<std::string> unordered_names;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent || !is_unordered(toks[i].text)) {
      continue;
    }
    std::size_t j = i + 1;
    if (j < toks.size() && is_punct(toks[j], "<")) {
      j = skip_angles(toks, j, toks.size());
      if (j == npos) continue;
    }
    while (j < toks.size() &&
           (is_punct(toks[j], "&") || is_punct(toks[j], "*") ||
            is_punct(toks[j], "&&"))) {
      ++j;
    }
    if (j < toks.size() && toks[j].kind == TokKind::kIdent) {
      unordered_names.insert(toks[j].text);
    }
  }

  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!is_ident(toks[i], "for") || !is_punct(toks[i + 1], "(")) continue;
    const std::size_t close = sc.match[i + 1];
    if (close == npos) continue;
    // Top-level ':' inside the parens marks a range-for.
    std::size_t colon = npos;
    int depth = 0;
    for (std::size_t j = i + 2; j < close; ++j) {
      const Token& t = toks[j];
      if (t.kind != TokKind::kPunct) continue;
      if (t.text == "(" || t.text == "[" || t.text == "{") ++depth;
      else if (t.text == ")" || t.text == "]" || t.text == "}") --depth;
      else if (t.text == ":" && depth == 0) {
        colon = j;
        break;
      } else if (t.text == ";" && depth == 0) {
        break;  // classic for
      }
    }
    if (colon == npos) continue;
    // Any identifier in the range expression that names (or is a member
    // path ending in) a known unordered container convicts the loop:
    // `seen`, `idx.by_id`, `this->index_` all resolve.
    std::string root;
    bool unordered = false;
    for (std::size_t j = colon + 1; j < close; ++j) {
      const Token& t = toks[j];
      if (t.kind == TokKind::kIdent) {
        if (is_unordered(t.text)) unordered = true;
        if (!unordered && unordered_names.count(t.text) > 0) {
          unordered = true;
          root = t.text;
        }
        if (root.empty() && !is_punct(toks[j - 1], "::")) root = t.text;
      }
    }
    if (unordered) {
      add(out, rule, f, toks[i].line,
          "range-for over unordered container" +
              (root.empty() ? std::string() : " '" + root + "'") +
              " — hash-iteration order leaks host nondeterminism into "
              "traces; use an ordered container or sort first");
    }
  }
}

// --------------------------------------------------------------------------
// MCB-L6: naked new
// --------------------------------------------------------------------------

void rule_l6(const LexedFile& f, std::vector<Finding>* out) {
  const RuleDef& rule = rule_defs()[3];
  const std::vector<Token>& toks = f.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!is_ident(toks[i], "new")) continue;
    if (i > 0 && is_ident(toks[i - 1], "operator")) continue;  // definitions
    if (i + 1 >= toks.size()) continue;
    const Token& next = toks[i + 1];
    if (is_punct(next, "(")) continue;  // placement / nothrow form
    if (next.kind != TokKind::kIdent) continue;
    add(out, rule, f, toks[i].line,
        "naked new ('new " + next.text + "') in protocol code — frames "
        "come from the promise types (mcb/coro.hpp), everything else "
        "owns memory via containers/smart pointers");
  }
}

// --------------------------------------------------------------------------
// Engine
// --------------------------------------------------------------------------

bool allow_matches(const std::set<std::string>& names, const Finding& fi) {
  return names.count(std::string(fi.slug)) > 0 ||
         names.count(fi.rule) > 0 || names.count("all") > 0;
}

}  // namespace

FileReport analyze(const LexedFile& f, const Options& opts) {
  const Scan sc = scan(f);
  std::vector<Finding> raw;
  const auto& defs = rule_defs();
  if (rule_in_scope(defs[0], f.path, opts.all_scopes)) rule_l1(f, sc, &raw);
  if (rule_in_scope(defs[1], f.path, opts.all_scopes)) rule_l2(f, &raw);
  if (rule_in_scope(defs[2], f.path, opts.all_scopes)) rule_l3(f, sc, &raw);
  if (rule_in_scope(defs[3], f.path, opts.all_scopes)) rule_l6(f, &raw);

  FileReport rep;
  for (Finding& fi : raw) {
    bool allowed = false;
    for (int line : {fi.line, fi.line - 1}) {
      auto it = f.allows.find(line);
      if (it != f.allows.end() && allow_matches(it->second, fi)) {
        allowed = true;
        break;
      }
    }
    if (allowed) {
      ++rep.suppressed_allow;
    } else {
      rep.findings.push_back(std::move(fi));
    }
  }
  sort_findings(&rep.findings);
  return rep;
}

void sort_findings(std::vector<Finding>* findings) {
  auto key = [](const Finding& a) {
    return std::tie(a.file, a.line, a.rule, a.detail);
  };
  std::sort(findings->begin(), findings->end(),
            [&key](const Finding& a, const Finding& b) {
              return key(a) < key(b);
            });
  findings->erase(std::unique(findings->begin(), findings->end(),
                              [&key](const Finding& a, const Finding& b) {
                                return key(a) == key(b);
                              }),
                  findings->end());
}

bool parse_baseline(std::string_view text, std::vector<BaselineEntry>* out,
                    std::string* error) {
  std::size_t lineno = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? text.size() - pos : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++lineno;
    while (!line.empty() && (line.front() == ' ' || line.front() == '\t')) {
      line.remove_prefix(1);
    }
    while (!line.empty() &&
           (line.back() == ' ' || line.back() == '\t' || line.back() == '\r')) {
      line.remove_suffix(1);
    }
    if (line.empty() || line.front() == '#') continue;
    const std::size_t sp = line.find(' ');
    const std::size_t colon = line.rfind(':');
    if (sp == std::string_view::npos || colon == std::string_view::npos ||
        colon <= sp + 1) {
      if (error != nullptr) {
        *error = "baseline line " + std::to_string(lineno) +
                 ": expected '<rule> <file>:<line>'";
      }
      return false;
    }
    BaselineEntry e;
    e.rule = std::string(line.substr(0, sp));
    e.file = std::string(line.substr(sp + 1, colon - sp - 1));
    const std::string num(line.substr(colon + 1));
    char* end = nullptr;
    e.line = static_cast<int>(std::strtol(num.c_str(), &end, 10));
    if (end == nullptr || *end != '\0' || e.line <= 0) {
      if (error != nullptr) {
        *error = "baseline line " + std::to_string(lineno) +
                 ": bad line number '" + num + "'";
      }
      return false;
    }
    out->push_back(std::move(e));
  }
  return true;
}

int apply_baseline(std::vector<Finding>* findings,
                   const std::vector<BaselineEntry>& baseline,
                   std::vector<BaselineEntry>* stale) {
  int suppressed = 0;
  std::vector<bool> used(baseline.size(), false);
  std::erase_if(*findings, [&](const Finding& fi) {
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      const BaselineEntry& b = baseline[i];
      if (b.rule == fi.rule && b.file == fi.file && b.line == fi.line) {
        used[i] = true;
        ++suppressed;
        return true;
      }
    }
    return false;
  });
  if (stale != nullptr) {
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      if (!used[i]) stale->push_back(baseline[i]);
    }
  }
  return suppressed;
}

std::string render_text(const std::vector<Finding>& findings) {
  std::ostringstream os;
  for (const Finding& fi : findings) {
    os << fi.file << ":" << fi.line << ": " << fi.rule << " (" << fi.slug
       << "): " << fi.detail << "\n";
  }
  return os.str();
}

std::string render_json(const std::vector<Finding>& findings,
                        std::size_t files_scanned, int suppressed_allow,
                        int suppressed_baseline) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"tool\": \"mcblint\",\n";
  os << "  \"version\": 1,\n";
  os << "  \"files_scanned\": " << files_scanned << ",\n";
  os << "  \"suppressed\": {\"lint_allow\": " << suppressed_allow
     << ", \"baseline\": " << suppressed_baseline << "},\n";
  os << "  \"findings\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& fi = findings[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"rule\": \"" << mcb::util::json_escape(fi.rule)
       << "\", \"slug\": \"" << mcb::util::json_escape(fi.slug)
       << "\", \"file\": \"" << mcb::util::json_escape(fi.file)
       << "\", \"line\": " << fi.line << ", \"detail\": \""
       << mcb::util::json_escape(fi.detail) << "\"}";
  }
  os << (findings.empty() ? "]\n" : "\n  ]\n");
  os << "}\n";
  return os.str();
}

}  // namespace mcblint
