// Fixture: a driver whose worker loop lives in another file passes the
// cancel-poll check when the named file polls (forced into worker scope by
// the selftest).
// lint:worker-loop-in(worker_polls_ok.cpp)

namespace fixture {
struct Ctx {
  template <typename F>
  void run(F&& f) { f(0); }
};
struct RunContext {
  Ctx team;
};

inline void driver(RunContext& ctx) {
  ctx.team.run([&](int) {});
}
}  // namespace fixture
