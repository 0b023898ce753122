// MCB-L7 fixture: a sleep followed at once by a channel action on the same
// processor. Lines are asserted by tests/mcblint_test.cpp.
struct Message {};
struct Proc {
  int skip(long t);
  int step();
  int read(int ch);
  int write(int ch, Message m);
  int cycle(int w, int r);
  int cycle_after(long t, int w, int r);
  int cycle_all(int w);
};
struct Task {};
void note();

Task plain(Proc& self, long t) {
  co_await self.skip(t);  // line 17: L7
  co_await self.write(0, Message{});
  co_await self.skip(t);  // line 19: L7
  co_await self.step();
  co_return;
}

Task guarded_and_bound(Proc& self, long t) {
  if (t > 0) co_await self.skip(t);  // line 25: L7
  auto got = co_await self.read(1);
  (void)got;
  co_return;
}

Task braced_if(Proc* me, long t) {
  int got = 0;
  if (t > 0) {
    co_await me->skip(t);  // line 34: L7
  }
  got = co_await me->cycle(0, 1);
  co_return;
}

Task loop_after(Proc& self, long lo, const int* ws, int n) {
  if (lo > 0) co_await self.skip(lo);  // line 41: L7
  for (int w = 0; w < n; ++w) {
    co_await self.write(ws[w], Message{});
  }
  co_return;
}

// Fine: nothing to fuse with.
Task legit(Proc& self, Proc& other, long t, bool c) {
  co_await self.skip(t);
  co_await other.write(0, Message{});  // another processor
  co_await self.skip(t);
  note();  // local work between the sleep and the action
  co_await self.read(0);
  if (c) {
    co_await self.skip(t);
  } else {
    co_await self.step();
  }
  co_await self.read(0);  // not after the skip on every path
  co_await self.skip(t);
  co_await self.cycle_all(0);  // multi-read has no fused form
  co_await self.cycle_after(t, 0, 1);  // already fused
  co_await self.skip(t);
  for (int i = 0; i < 2; ++i) {
    note();
    co_await self.write(0, Message{});
  }
  co_await self.skip(t);
  co_return;
}
