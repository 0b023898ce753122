#include "mcblint/lexer.hpp"

#include <array>
#include <cctype>
#include <cstddef>

namespace mcblint {

namespace {

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool is_digit(char c) { return std::isdigit(static_cast<unsigned char>(c)) != 0; }

// Multi-character operators, longest first (max munch). Only operators a
// rule distinguishes need folding; everything else falls through to
// single-character punctuation.
constexpr std::array<std::string_view, 22> kOps3{
    "<<=", ">>=", "...", "->*",
    // 2-char from here on (scanned after the 3-char ones miss)
    "::", "->", "++", "--", "+=", "-=", "*=", "/=", "%=",
    "&=", "|=", "^=", "==", "!=", "<=", ">=", "&&", "||"};

/// Parses the directives out of one comment's text. `line` is the line the
/// comment starts on; `text` may span lines (block comments) — newlines in
/// it advance the attributed line.
void scan_comment(std::string_view text, int line, LexedFile& out) {
  int cur = line;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') {
      ++cur;
      continue;
    }
    // lint-allow: rule[, rule...]
    constexpr std::string_view kAllow = "lint-allow:";
    if (text.compare(i, kAllow.size(), kAllow) == 0) {
      std::size_t j = i + kAllow.size();
      while (true) {
        while (j < text.size() && (text[j] == ' ' || text[j] == '\t')) ++j;
        std::size_t s = j;
        while (j < text.size() &&
               (is_ident_char(text[j]) || text[j] == '-')) {
          ++j;
        }
        if (j == s) break;
        out.allows[cur].insert(std::string(text.substr(s, j - s)));
        if (j < text.size() && text[j] == ',') {
          ++j;
          continue;
        }
        break;
      }
      i = j - 1;
      continue;
    }
  }
}

class Lexer {
 public:
  Lexer(std::string_view text, LexedFile& out) : t_(text), out_(out) {}

  void run() {
    while (i_ < t_.size()) {
      const char c = t_[i_];
      if (c == '\n') {
        ++line_;
        at_line_start_ = true;
        ++i_;
        continue;
      }
      if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
        ++i_;
        continue;
      }
      if (c == '#' && at_line_start_) {
        directive();
        continue;
      }
      at_line_start_ = false;
      if (c == '/' && peek(1) == '/') {
        line_comment();
        continue;
      }
      if (c == '/' && peek(1) == '*') {
        block_comment();
        continue;
      }
      if (raw_string_prefix() > 0) {
        raw_string();
        continue;
      }
      if (c == '"') {
        string_literal('"', TokKind::kString);
        continue;
      }
      if (c == '\'') {
        string_literal('\'', TokKind::kChar);
        continue;
      }
      if (is_ident_start(c)) {
        identifier();
        continue;
      }
      if (is_digit(c) || (c == '.' && is_digit(peek(1)))) {
        number();
        continue;
      }
      punct();
    }
  }

 private:
  char peek(std::size_t off) const {
    return i_ + off < t_.size() ? t_[i_ + off] : '\0';
  }

  void emit(TokKind k, std::string text, int line) {
    out_.tokens.push_back(Token{k, std::move(text), line});
  }

  /// Whole-directive consumption: to end of line, honouring backslash
  /// continuations and comments/strings inside the directive. Emits no
  /// tokens.
  void directive() {
    while (i_ < t_.size()) {
      const char c = t_[i_];
      if (c == '\\' && peek(1) == '\n') {
        i_ += 2;
        ++line_;
        continue;
      }
      if (c == '\n') break;  // leave the newline to the main loop
      if (c == '/' && peek(1) == '/') {
        line_comment();
        break;  // a // comment runs to the same EOL the directive ends at
      }
      if (c == '/' && peek(1) == '*') {
        block_comment();
        continue;
      }
      if (c == '"' || c == '\'') {
        skip_quoted(c);
        continue;
      }
      ++i_;
    }
  }

  void line_comment() {
    const int start_line = line_;
    const std::size_t s = i_ + 2;
    i_ += 2;
    while (i_ < t_.size()) {
      if (t_[i_] == '\\' && peek(1) == '\n') {  // spliced comment line
        i_ += 2;
        ++line_;
        continue;
      }
      if (t_[i_] == '\n') break;
      ++i_;
    }
    scan_comment(t_.substr(s, i_ - s), start_line, out_);
  }

  void block_comment() {
    const int start_line = line_;
    const std::size_t s = i_ + 2;
    i_ += 2;
    while (i_ < t_.size()) {
      if (t_[i_] == '*' && peek(1) == '/') {
        scan_comment(t_.substr(s, i_ - s), start_line, out_);
        i_ += 2;
        return;
      }
      if (t_[i_] == '\n') ++line_;
      ++i_;
    }
    scan_comment(t_.substr(s, i_ - s), start_line, out_);  // unterminated
  }

  /// Length of a raw-string prefix (R" u8R" uR" LR" UR") at i_, else 0.
  std::size_t raw_string_prefix() const {
    std::size_t j = i_;
    if (t_[j] == 'u' && peek(1) == '8') j += 2;
    else if (t_[j] == 'u' || t_[j] == 'U' || t_[j] == 'L') j += 1;
    if (j < t_.size() && t_[j] == 'R' && j + 1 < t_.size() &&
        t_[j + 1] == '"') {
      return j + 2 - i_;
    }
    return 0;
  }

  void raw_string() {
    const int start_line = line_;
    i_ += raw_string_prefix();  // past R"
    // delimiter up to '('
    std::size_t d = i_;
    while (i_ < t_.size() && t_[i_] != '(') ++i_;
    std::string close;
    close.reserve(i_ - d + 2);
    close.push_back(')');
    close.append(t_.substr(d, i_ - d));
    close.push_back('"');
    if (i_ < t_.size()) ++i_;  // past '('
    while (i_ < t_.size()) {
      if (t_[i_] == '\n') ++line_;
      if (t_.compare(i_, close.size(), close) == 0) {
        i_ += close.size();
        break;
      }
      ++i_;
    }
    emit(TokKind::kString, "", start_line);
  }

  void skip_quoted(char q) {
    ++i_;  // opening quote
    while (i_ < t_.size()) {
      if (t_[i_] == '\\') {
        i_ += 2;
        continue;
      }
      if (t_[i_] == '\n') {  // unterminated (or spliced); don't run away
        return;
      }
      if (t_[i_] == q) {
        ++i_;
        return;
      }
      ++i_;
    }
  }

  void string_literal(char q, TokKind kind) {
    const int start_line = line_;
    skip_quoted(q);
    emit(kind, "", start_line);
  }

  void identifier() {
    const int start_line = line_;
    const std::size_t s = i_;
    while (i_ < t_.size() && is_ident_char(t_[i_])) ++i_;
    // encoding-prefixed string like u8"..." handled by raw_string_prefix /
    // the '"' branch on the next loop turn; the prefix itself is harmless
    // as an identifier token.
    emit(TokKind::kIdent, std::string(t_.substr(s, i_ - s)), start_line);
  }

  void number() {
    const int start_line = line_;
    const std::size_t s = i_;
    while (i_ < t_.size()) {
      const char c = t_[i_];
      if (is_ident_char(c) || c == '.' || c == '\'') {
        ++i_;
        continue;
      }
      if ((c == '+' || c == '-') && i_ > s) {
        const char p = t_[i_ - 1];
        if (p == 'e' || p == 'E' || p == 'p' || p == 'P') {
          ++i_;
          continue;
        }
      }
      break;
    }
    emit(TokKind::kNumber, std::string(t_.substr(s, i_ - s)), start_line);
  }

  void punct() {
    for (const std::string_view op : kOps3) {
      if (t_.compare(i_, op.size(), op) == 0) {
        emit(TokKind::kPunct, std::string(op), line_);
        i_ += op.size();
        return;
      }
    }
    emit(TokKind::kPunct, std::string(1, t_[i_]), line_);
    ++i_;
  }

  std::string_view t_;
  LexedFile& out_;
  std::size_t i_ = 0;
  int line_ = 1;
  bool at_line_start_ = true;
};

}  // namespace

LexedFile lex(std::string path, std::string_view text) {
  LexedFile out;
  out.path = std::move(path);
  Lexer(text, out).run();
  return out;
}

}  // namespace mcblint
