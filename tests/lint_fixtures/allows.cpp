// lint-allow fixture: one deliberate violation of every rule (L1-L3, L6),
// each silenced by an escape comment — trailing, line-above, slug and
// MCB-Lx id forms are all exercised. tests/mcblint_test.cpp asserts zero
// findings and exactly four suppressions.
#include <cstdlib>
#include <unordered_map>
#include <vector>

struct Proc {
  long now() const;
};
struct Awaitable {
  bool await_ready();
};
Awaitable suspend();
std::vector<int> make_values();
struct Task {};

Task l1_allowed(Proc& self) {
  const std::vector<int>& vals = make_values();
  co_await suspend();
  (void)vals.size();  // lint-allow: use-after-suspend
  co_return;
}

int l2_allowed() {
  // Deliberate wall-entropy probe. lint-allow: nondeterminism
  return rand();
}

int l3_allowed(const std::unordered_map<int, int>& m) {
  int n = 0;
  // Order-insensitive sum, safe by inspection. lint-allow: unordered-iteration
  for (const auto& [k, v] : m) {
    n += k + v;
  }
  return n;
}

void* l6_allowed() {
  return new int;  // lint-allow: MCB-L6
}
