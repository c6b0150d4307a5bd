// Allocation-counter harness: pins the simulator core's zero-allocation
// claims (docs/sim.md) and the exact allocation counts of the request
// path's lock cycles, metric increments and interpreter frames.
//
// A replacement global operator new counts allocations while a test window
// is open. Each test warms the component under test past its high-water mark
// (slab chunks grown, scratch buffers at their largest message, fabric
// channels and counters created), then opens the window and drives the
// steady-state path: scheduling + firing events, sending + delivering
// envelopes, encoding protocol messages. The assertion is exact — zero where
// the path is allocation-free, not "few" — so any regression that
// reintroduces per-event or per-message heap traffic fails loudly.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "src/func/builder.h"
#include "src/func/interpreter.h"
#include "src/kv/versioned_store.h"
#include "src/lvi/codec.h"
#include "src/lvi/lock_table.h"
#include "src/net/network.h"
#include "src/obs/metrics.h"
#include "src/raft/lock_state_machine.h"
#include "src/sim/region.h"
#include "src/sim/simulator.h"

namespace {

bool g_counting = false;
uint64_t g_alloc_count = 0;

void StartCounting() {
  g_alloc_count = 0;
  g_counting = true;
}

uint64_t StopCounting() {
  g_counting = false;
  return g_alloc_count;
}

}  // namespace

// Replacement allocation functions (C++ allows replacing these in any single
// translation unit of the program). new counts and mallocs; delete frees.
// The aligned overloads are deliberately not replaced: nothing on the paths
// under test over-aligns, and the default ones stay consistent with these
// (both sides are malloc/free based). The deletes are kept out of line: once
// inlined next to a counted new, GCC's -Wmismatched-new-delete mistakes the
// malloc-backed pointer for a mismatched free.
void* operator new(std::size_t size) {
  if (g_counting) {
    ++g_alloc_count;
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace radical {
namespace {

TEST(AllocTest, CounterSeesOrdinaryAllocations) {
  StartCounting();
  int* p = new int(7);
  const uint64_t count = StopCounting();
  delete p;
  EXPECT_GE(count, 1u);
}

TEST(AllocTest, SteadyStateEventsAllocateNothing) {
  Simulator sim(1);
  // Warm: grow the event-node slab to the run's high-water mark of pending
  // events, across the same mix of delays the measured window uses.
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 500; ++i) {
      sim.Schedule(i % 97, [] {});
    }
    sim.Run();
  }
  StartCounting();
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 500; ++i) {
      sim.Schedule(i % 97, [] {});
    }
    sim.Run();
  }
  EXPECT_EQ(StopCounting(), 0u);
  EXPECT_TRUE(sim.idle());
}

TEST(AllocTest, CancelChurnAllocatesNothing) {
  Simulator sim(1);
  // The retry-timer pattern: schedule far out, almost always cancel.
  std::vector<EventId> ids(256, kInvalidEventId);
  auto churn = [&] {
    for (int i = 0; i < 2000; ++i) {
      const size_t slot = static_cast<size_t>(i) % ids.size();
      if (ids[slot] != kInvalidEventId) {
        sim.Cancel(ids[slot]);
      }
      ids[slot] = sim.Schedule(1000 + i % 31, [] {});
    }
    sim.Run();
    ids.assign(ids.size(), kInvalidEventId);
  };
  churn();  // Warm.
  StartCounting();
  churn();
  EXPECT_EQ(StopCounting(), 0u);
}

TEST(AllocTest, DeliveredEnvelopeAllocatesNothing) {
  Simulator sim(1);
  Network net(&sim, LatencyMatrix::PaperDefault());
  const net::Endpoint& a = net.endpoint(Region::kCA);
  const net::Endpoint& b = net.endpoint(Region::kVA);
  int delivered = 0;
  auto burst = [&] {
    for (int i = 0; i < 200; ++i) {
      a.Send(b, net::MessageKind::kLviRequest, 256, [&delivered] { ++delivered; });
      b.Send(a, net::MessageKind::kLviResponse, 512, [&delivered] { ++delivered; });
    }
    sim.Run();
  };
  // Warm: create the two directed channels, their per-kind counters, and
  // the event-node slab.
  burst();
  ASSERT_EQ(delivered, 400);
  StartCounting();
  burst();
  EXPECT_EQ(StopCounting(), 0u);
  EXPECT_EQ(delivered, 800);
}

TEST(AllocTest, WireScratchEncodingAllocatesNothing) {
  WireScratch scratch;
  LviRequest request;
  request.exec_id = 42;
  request.origin = Region::kCA;
  request.function = "transfer";
  request.inputs = {Value("alice"), Value(static_cast<int64_t>(100))};
  request.items = {LviItem{"acct/alice", 3, LockMode::kWrite},
                   LviItem{"acct/bob", 5, LockMode::kRead}};
  WriteFollowup followup;
  followup.exec_id = 42;
  followup.writes = {BufferedWrite{"acct/alice", Value(static_cast<int64_t>(58))}};
  // Warm: the scratch buffer grows to the largest message once.
  const size_t request_size = scratch.SizeOf(request);
  const size_t followup_size = scratch.SizeOf(followup);
  ASSERT_GT(request_size, 0u);
  ASSERT_GT(followup_size, 0u);
  StartCounting();
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(scratch.SizeOf(request), request_size);
    EXPECT_EQ(scratch.SizeOf(followup), followup_size);
  }
  EXPECT_EQ(StopCounting(), 0u);
}

// Not zero: a freshly locked key still costs its lock-table node, the
// holder's entry in the exec -> keys index and that index's key node, three
// allocations per acquire -> release cycle. Commands decode in place, the
// wait queue is a vector (empty: no allocation) and release moves the key set
// out instead of copying it. The text command format with a std::deque wait
// queue cost 7 allocations per cycle here.
TEST(AllocTest, LockStateMachineApplyCycleAllocatesThreeTimes) {
  LockStateMachine sm;
  ExecutionId granted = 0;
  sm.set_grant_listener([&granted](ExecutionId exec, const Key&) { granted = exec; });
  // The key fits the small-string buffer, so its copies in the lock table
  // and the index allocate nothing of their own.
  const std::string acquire = LockStateMachine::EncodeAcquire(7, LockMode::kWrite, "avail:h1:d3");
  const std::string release = LockStateMachine::EncodeRelease(7);
  LogIndex index = 0;
  auto cycle = [&] {
    sm.Apply(++index, acquire);
    sm.Apply(++index, release);
  };
  cycle();  // Warm.
  constexpr uint64_t kCycles = 100;
  StartCounting();
  for (uint64_t i = 0; i < kCycles; ++i) {
    cycle();
  }
  EXPECT_EQ(StopCounting(), 3 * kCycles);
  EXPECT_EQ(granted, 7u);
  EXPECT_EQ(sm.TotalHeldKeys(), 0u);
}

// An uncontended LockTable cycle: AcquireAll of one write key, the grant
// event, ReleaseAll. Three allocations: the key's lock entry, the holder's
// held_ entry and the key in its ordered key set. A grant that never waits
// skips the pending-acquisition table, the wait queue is a vector (empty:
// no allocation) and the release moves the key set out. With the
// std::deque wait queue, the pending entry and the copied key set this
// cycle cost 7 allocations. The argument vectors are built before the
// window: they are the caller's.
TEST(AllocTest, LockTableUncontendedCycleAllocatesThreeTimes) {
  Simulator sim(1);
  LockTable table(&sim);
  int grants = 0;
  auto cycle = [&](std::vector<Key> keys, std::vector<LockMode> modes) {
    table.AcquireAll(7, std::move(keys), std::move(modes), [&grants] { ++grants; });
    sim.Run();
    table.ReleaseAll(7);
  };
  // The key fits the small-string buffer, so its copies allocate nothing of
  // their own.
  cycle({"avail:h1:d3"}, {LockMode::kWrite});  // Warm.
  constexpr int kCycles = 100;
  std::vector<std::vector<Key>> keys(kCycles, std::vector<Key>{"avail:h1:d3"});
  std::vector<std::vector<LockMode>> modes(kCycles, std::vector<LockMode>{LockMode::kWrite});
  StartCounting();
  for (int i = 0; i < kCycles; ++i) {
    cycle(std::move(keys[i]), std::move(modes[i]));
  }
  EXPECT_EQ(StopCounting(), 3u * kCycles);
  EXPECT_EQ(grants, kCycles + 1);
  EXPECT_EQ(table.active_lock_count(), 0u);
}

// The same cycle with a grant continuation that captures more than 16 bytes
// (a std::function stores only 16 bytes inline): the continuation lives in
// the InlineTask, so it adds nothing to the three allocations above. As a
// std::function, the same grant cost a fourth allocation per cycle.
TEST(AllocTest, LockTableGrantWithLargeCaptureAllocatesThreeTimes) {
  Simulator sim(1);
  LockTable table(&sim);
  uint64_t sum = 0;
  auto cycle = [&](ExecutionId exec, std::vector<Key> keys, std::vector<LockMode> modes) {
    const uint64_t a = exec;
    const uint64_t b = exec * 3;
    const uint64_t c = exec * 7;
    table.AcquireAll(exec, std::move(keys), std::move(modes),
                     [&sum, a, b, c] { sum += a + b + c; });
    sim.Run();
    table.ReleaseAll(exec);
  };
  cycle(1, {"avail:h1:d3"}, {LockMode::kWrite});  // Warm.
  constexpr int kCycles = 100;
  std::vector<std::vector<Key>> keys(kCycles, std::vector<Key>{"avail:h1:d3"});
  std::vector<std::vector<LockMode>> modes(kCycles, std::vector<LockMode>{LockMode::kWrite});
  StartCounting();
  for (int i = 0; i < kCycles; ++i) {
    cycle(static_cast<ExecutionId>(i + 2), std::move(keys[i]), std::move(modes[i]));
  }
  EXPECT_EQ(StopCounting(), 3u * kCycles);
  EXPECT_EQ(sum, 11u * (kCycles + 1) * (kCycles + 2) / 2);
  EXPECT_EQ(table.active_lock_count(), 0u);
}

// Incrementing a counter the scope has already resolved costs a memo lookup
// and no allocation, also through a copy of the scope made after the first
// increment (copies share the memo). The names are longer than the small-
// string buffer, so building a qualified name or a std::string argument
// would show up here. When every increment built "<prefix>.<name>" (and a
// std::string from the literal), this window cost 500 allocations.
TEST(AllocTest, ScopeIncrementOfAnExistingCounterAllocatesNothing) {
  obs::MetricsRegistry registry;
  obs::MetricsScope scope(&registry, "runtime.VA");
  scope.Increment("validated_speculative");  // Warm: resolves the name.
  scope.Increment(std::string("shed_") + "validation");
  const obs::MetricsScope copy = scope;
  const std::string dynamic = "shed_validation";
  StartCounting();
  for (int i = 0; i < 100; ++i) {
    scope.Increment("validated_speculative");
    obs::MetricsScope(copy).Increment("validated_speculative", 2);
    scope.Increment(dynamic);
  }
  EXPECT_EQ(StopCounting(), 0u);
  EXPECT_EQ(registry.CounterValue("runtime.VA.validated_speculative"), 301u);
  EXPECT_EQ(registry.CounterValue("runtime.VA.shed_validation"), 101u);
}

// One execution of the micro_core BM_InterpreterTimeline function: read a
// 20-entry timeline and return its first 10 entries. The allocations are the
// frame's slot vector, the result's read log, and the taken list (its vector
// and its shared block). With std::map frames, a deep-copying Take that
// grew its list one push_back at a time, this execution cost 9 allocations.
TEST(AllocTest, InterpreterTimelineExecutionAllocatesFourTimes) {
  Interpreter interp(&HostRegistry::Standard());
  VersionedStore store;
  ValueList timeline;
  for (int i = 0; i < 20; ++i) {
    timeline.push_back(Value("entry " + std::to_string(i)));
  }
  store.Seed("timeline:u1", Value(timeline));
  const FunctionDef fn = Fn("timeline", {"u"}, {
      Read("tl", Cat({C("timeline:"), In("u")})),
      Return(Take(V("tl"), C(static_cast<int64_t>(10)))),
  });
  const std::vector<Value> inputs = {Value("u1")};
  ASSERT_TRUE(interp.Execute(fn, inputs, &store).ok());  // Warm.
  constexpr uint64_t kExecutions = 100;
  StartCounting();
  for (uint64_t i = 0; i < kExecutions; ++i) {
    const ExecResult r = interp.Execute(fn, inputs, &store);
    EXPECT_EQ(r.return_value.AsList().size(), 10u);
  }
  EXPECT_EQ(StopCounting(), 4 * kExecutions);
}

}  // namespace
}  // namespace radical
