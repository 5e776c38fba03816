// Fixture: a driver naming a worker-loop file that never polls. The
// cancel-poll check must flag this file even though this file's own text
// mentions stop_requested() (forced into worker scope by the selftest).
// lint:worker-loop-in(worker_no_poll_bad.cpp)

namespace fixture {
struct Ctx {
  template <typename F>
  void run(F&& f) { f(0); }
};
struct RunContext {
  Ctx team;
  bool stop_requested() { return false; }
};

inline void driver(RunContext& ctx) {
  ctx.team.run([&](int) { (void)ctx.stop_requested(); });
}
}  // namespace fixture
