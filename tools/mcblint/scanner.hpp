// mcblint scanner: structural view over a lexed file — matched brackets,
// function/lambda body extents, per-body parameter names and the
// coroutine property (a function is a coroutine iff its own body, not
// counting nested lambdas, contains co_await / co_return / co_yield).
//
// Classification of a '{' is heuristic but tuned to this repo's idiom: it
// distinguishes function bodies (including constructors with init lists,
// trailing return types and noexcept specifiers) and lambda bodies from
// class/namespace/enum braces, braced initializers and control-flow
// compound statements. Rules that need "inside a coroutine" (L1) build on
// these extents.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "mcblint/lexer.hpp"

namespace mcblint {

struct Body {
  std::size_t open = 0;   // token index of '{'
  std::size_t close = 0;  // token index of matching '}'
  bool lambda = false;
  bool coroutine = false;
  std::vector<std::string> params;  // declared parameter names, if any
};

struct Scan {
  /// match[i] = index of the bracket matching token i (for ( ) [ ] { }),
  /// or npos when unmatched.
  std::vector<std::size_t> match;
  /// Function and lambda bodies, in order of their '{' token.
  std::vector<Body> bodies;
  /// body_of[i] = index into `bodies` of the innermost body containing
  /// token i, or npos for file-scope tokens.
  std::vector<std::size_t> body_of;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
};

Scan scan(const LexedFile& f);

}  // namespace mcblint
