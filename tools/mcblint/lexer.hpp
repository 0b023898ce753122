// mcblint lexer: turns one C++ translation unit into a token stream the
// rule engine can reason about, with comments, string/char literals and
// preprocessor directives stripped *structurally* (not by regex), so that
//
//   * `rand()` inside a comment, a string literal or a raw string never
//     trips a rule,
//   * multi-line statements are one token sequence (the awk rules this
//     tool replaces could only see one line at a time),
//   * escape hatches (`lint-allow: <rule>`) are read out of the comments
//     they live in, at the line they occur.
//
// The lexer is deliberately not a full C++ tokenizer: it produces the four
// token classes the rules consume (identifiers, numbers, punctuation,
// literals) and folds every maximal multi-character operator the rules
// care about (`::`, `->`, `++`, `+=`, ...). Preprocessor directives are
// consumed whole (honouring line continuations and embedded comments) and
// emit no tokens — a `#define` with unbalanced braces must not derail the
// scanner's brace matching.
#pragma once

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace mcblint {

enum class TokKind {
  kIdent,   // identifiers and keywords (co_await, while, ...)
  kNumber,  // pp-numbers, including 1'000'000 digit separators
  kPunct,   // operators/punctuation, max-munched
  kString,  // string literal (text dropped; raw strings included)
  kChar,    // character literal (text dropped)
};

struct Token {
  TokKind kind;
  std::string text;  // empty for kString/kChar — contents must never match
  int line;          // 1-based line of the token's first character
};

struct LexedFile {
  std::string path;  // repo-relative, '/'-separated (set by the caller)
  std::vector<Token> tokens;
  /// line -> rule names allowed there. An entry on line N suppresses
  /// findings on line N (trailing comment) and line N+1 (comment-above
  /// style). Names are rule slugs ("naked-new"), ids ("MCB-L6") or "all".
  std::map<int, std::set<std::string>> allows;
};

/// Lexes `text`. `path` is stored verbatim into the result.
LexedFile lex(std::string path, std::string_view text);

}  // namespace mcblint
