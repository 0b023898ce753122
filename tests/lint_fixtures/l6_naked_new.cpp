// MCB-L6 fixture: naked new in protocol code. Lines are asserted
// by tests/mcblint_test.cpp.
#include <cstddef>
#include <new>

struct Frame {
  Frame(int, int);
};

void* naked() {
  int* p = new int;  // line 11: L6
  auto* q = new Frame(1, 2);  // line 12: L6
  (void)q;
  return p;
}

// Fine: placement new never takes ownership, nothrow is placement-form,
// and operator-new definitions are the allocator itself.
struct Arena {
  void* slot();
  static void* operator new(std::size_t n);
};

Frame* placed(Arena& a) {
  void* raw = a.slot();
  Frame* f = new (raw) Frame(3, 4);
  Frame* g = new (std::nothrow) Frame(5, 6);
  (void)g;
  // `new Frame` in a comment, and "new Frame" in a string, never fire:
  const char* s = "new Frame";
  (void)s;
  return f;
}
