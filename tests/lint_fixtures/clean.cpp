// Negative fixture: constructs that superficially resemble findings but
// must never fire. tests/mcblint_test.cpp asserts this file is clean
// under --all-rules.
#include <string>
#include <vector>

// rand(), new Frame, steady_clock::now() — all inert inside comments.
/* Block comments too:
   while (x) co_await self.window(1);
   int* p = new int;
*/

struct Proc {
  int window(long);
  long now() const;
};
struct Task {};

const char* strings() {
  // Literals are stripped before the rules run — including raw strings
  // with rule-shaped contents and embedded quotes.
  static const std::string a = "rand() time(0) new Frame";
  static const std::string b = R"(co_await self.window(1); new int;
      std::random_device rd; for (auto& x : umap) {})";
  static const char c = '"';
  (void)c;
  return a.size() > b.size() ? a.c_str() : b.c_str();
}

#define FIXTURE_MACRO(x) ((x) + 1)  // new Frame in a directive is inert

// A multi-line statement whose continuation would have confused a
// line-based checker: a loop that does real per-cycle work.
Task participates(Proc& self, long deadline) {
  while (self.now() <
         deadline) {
    co_await self.window(1);
    if (self.now() % 2 == 0) {
      co_await self.window(2);
    }
  }
  co_return;
}

// References rooted at parameters or through `this` survive suspension by
// the engine's ownership contract and must not trip L1.
struct Holder {
  std::vector<int> data;
  Task touch(Proc& self);
};

Task Holder::touch(Proc& self) {
  auto& d = data;  // member-rooted
  co_await self.window(1);
  (void)d.size();
  co_return;
}
