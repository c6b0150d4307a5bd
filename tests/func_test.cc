// Unit tests for the deterministic function IR and interpreter.

#include <gtest/gtest.h>

#include "src/func/builder.h"
#include "src/func/interpreter.h"
#include "src/kv/cache_store.h"
#include "src/kv/versioned_store.h"

namespace radical {
namespace {

class FuncTest : public ::testing::Test {
 protected:
  ExecResult Run(const FunctionDef& fn, std::vector<Value> inputs) {
    return interp_.Execute(fn, inputs, &store_);
  }

  VersionedStore store_;
  Interpreter interp_{&HostRegistry::Standard()};
};

TEST_F(FuncTest, ConstAndReturn) {
  const FunctionDef fn = Fn("f", {}, {Return(C(Value("hello")))});
  const ExecResult r = Run(fn, {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.return_value, Value("hello"));
}

TEST_F(FuncTest, InputsBindPositionally) {
  const FunctionDef fn = Fn("f", {"a", "b"}, {Return(In("b"))});
  const ExecResult r = Run(fn, {Value("first"), Value("second")});
  EXPECT_EQ(r.return_value, Value("second"));
}

TEST_F(FuncTest, ArityMismatchFails) {
  const FunctionDef fn = Fn("f", {"a"}, {Return(In("a"))});
  EXPECT_FALSE(Run(fn, {}).ok());
}

TEST_F(FuncTest, Arithmetic) {
  const FunctionDef fn = Fn("f", {}, {
      Let("x", Add(C(static_cast<int64_t>(3)), C(static_cast<int64_t>(4)))),
      Return(Sub(V("x"), C(static_cast<int64_t>(2)))),
  });
  EXPECT_EQ(Run(fn, {}).return_value, Value(static_cast<int64_t>(5)));
}

TEST_F(FuncTest, Comparisons) {
  const auto one = C(static_cast<int64_t>(1));
  const auto two = C(static_cast<int64_t>(2));
  EXPECT_EQ(Run(Fn("f", {}, {Return(Lt(one, two))}), {}).return_value,
            Value(static_cast<int64_t>(1)));
  EXPECT_EQ(Run(Fn("f", {}, {Return(Le(two, two))}), {}).return_value,
            Value(static_cast<int64_t>(1)));
  EXPECT_EQ(Run(Fn("f", {}, {Return(Eq(one, two))}), {}).return_value,
            Value(static_cast<int64_t>(0)));
  EXPECT_EQ(Run(Fn("f", {}, {Return(Ne(one, two))}), {}).return_value,
            Value(static_cast<int64_t>(1)));
}

TEST_F(FuncTest, BooleanOps) {
  const auto t = C(static_cast<int64_t>(1));
  const auto f = C(static_cast<int64_t>(0));
  EXPECT_EQ(Run(Fn("f", {}, {Return(And(t, f))}), {}).return_value,
            Value(static_cast<int64_t>(0)));
  EXPECT_EQ(Run(Fn("f", {}, {Return(Or(t, f))}), {}).return_value,
            Value(static_cast<int64_t>(1)));
  EXPECT_EQ(Run(Fn("f", {}, {Return(Not(f))}), {}).return_value,
            Value(static_cast<int64_t>(1)));
}

TEST_F(FuncTest, ConcatBuildsKeys) {
  const FunctionDef fn =
      Fn("f", {"u"}, {Return(Cat({C("timeline:"), In("u"), C(":"),
                                  IntToStr(C(static_cast<int64_t>(7)))}))});
  EXPECT_EQ(Run(fn, {Value("alice")}).return_value, Value("timeline:alice:7"));
}

TEST_F(FuncTest, ListOps) {
  const FunctionDef fn = Fn("f", {}, {
      Let("l", Append(Append(C(ValueList{}), C(Value("a"))), C(Value("b")))),
      Let("first", Index(V("l"), C(static_cast<int64_t>(0)))),
      Return(Append(Take(V("l"), C(static_cast<int64_t>(1))), V("first"))),
  });
  const ExecResult r = Run(fn, {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.return_value, Value(ValueList{Value("a"), Value("a")}));
}

TEST_F(FuncTest, AppendLiftsUnitToList) {
  const FunctionDef fn = Fn("f", {}, {
      Read("missing", C("no-such-key")),
      Return(Append(V("missing"), C(Value("x")))),
  });
  EXPECT_EQ(Run(fn, {}).return_value, Value(ValueList{Value("x")}));
}

TEST_F(FuncTest, LenOfListStringAndUnit) {
  EXPECT_EQ(Run(Fn("f", {}, {Return(Len(C(Value("abc"))))}), {}).return_value,
            Value(static_cast<int64_t>(3)));
  EXPECT_EQ(Run(Fn("f", {}, {Read("m", C("nope")), Return(Len(V("m")))}), {}).return_value,
            Value(static_cast<int64_t>(0)));
}

TEST_F(FuncTest, IndexOutOfRangeFails) {
  const FunctionDef fn =
      Fn("f", {}, {Return(Index(C(Value(ValueList{})), C(static_cast<int64_t>(0))))});
  EXPECT_FALSE(Run(fn, {}).ok());
}

TEST_F(FuncTest, IfBranches) {
  const FunctionDef fn = Fn("f", {"x"}, {
      If(Lt(In("x"), C(static_cast<int64_t>(10))), {Return(C(Value("small")))},
         {Return(C(Value("big")))}),
  });
  EXPECT_EQ(Run(fn, {Value(static_cast<int64_t>(3))}).return_value, Value("small"));
  EXPECT_EQ(Run(fn, {Value(static_cast<int64_t>(30))}).return_value, Value("big"));
}

TEST_F(FuncTest, ReturnUnwindsFromLoop) {
  const FunctionDef fn = Fn("f", {}, {
      Let("l", Append(Append(C(ValueList{}), C(Value("a"))), C(Value("b")))),
      ForEach("x", V("l"), {Return(V("x"))}),
      Return(C(Value("unreached"))),
  });
  EXPECT_EQ(Run(fn, {}).return_value, Value("a"));
}

TEST_F(FuncTest, StorageReadWrite) {
  store_.Seed("k", Value("seeded"));
  const FunctionDef fn = Fn("f", {}, {
      Read("v", C("k")),
      Write(C("out"), Cat({V("v"), C("!")})),
      Return(V("v")),
  });
  const ExecResult r = Run(fn, {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.return_value, Value("seeded"));
  EXPECT_EQ(store_.Peek("out")->value, Value("seeded!"));
  EXPECT_EQ(r.reads, (std::vector<Key>{"k"}));
  EXPECT_EQ(r.writes, (std::vector<Key>{"out"}));
}

TEST_F(FuncTest, MissingReadBindsUnit) {
  const FunctionDef fn = Fn("f", {}, {Read("v", C("absent")), Return(V("v"))});
  EXPECT_TRUE(Run(fn, {}).return_value.is_unit());
}

TEST_F(FuncTest, NonStringKeyFails) {
  const FunctionDef fn = Fn("f", {}, {Read("v", C(static_cast<int64_t>(3)))});
  EXPECT_FALSE(Run(fn, {}).ok());
}

TEST_F(FuncTest, ElapsedAccountsComputeAndStorage) {
  store_.Seed("k", Value("v"));
  const FunctionDef fn = Fn("f", {}, {
      Compute(Millis(100)),
      Read("v", C("k")),
      Write(C("k2"), V("v")),
  });
  const ExecResult r = Run(fn, {});
  const SimDuration expected =
      Millis(100) + store_.options().read_latency + store_.options().write_latency;
  EXPECT_GE(r.elapsed, expected);
  EXPECT_LT(r.elapsed, expected + Millis(1));  // Step costs are tiny.
}

TEST_F(FuncTest, FuelExhaustionFailsCleanly) {
  // A loop over a long list with a tiny fuel budget.
  ValueList big;
  for (int i = 0; i < 1000; ++i) {
    big.push_back(Value(static_cast<int64_t>(i)));
  }
  const FunctionDef fn = Fn("f", {}, {
      ForEach("x", C(Value(big)), {Let("y", V("x"))}),
  });
  ExecLimits limits;
  limits.max_steps = 100;
  const ExecResult r = interp_.Execute(fn, {}, &store_, limits);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status.message().find("fuel"), std::string::npos);
}

TEST_F(FuncTest, HostFunctionCallAndCost) {
  const FunctionDef fn =
      Fn("f", {}, {Return(Host("geo_cell", {C(static_cast<int64_t>(57))}))});
  const ExecResult r = Run(fn, {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.return_value, Value(static_cast<int64_t>(5)));
}

TEST_F(FuncTest, UnknownHostFails) {
  const FunctionDef fn = Fn("f", {}, {Return(Host("nope", {}))});
  EXPECT_FALSE(Run(fn, {}).ok());
}

TEST_F(FuncTest, ExpensiveHostChargesCost) {
  const FunctionDef fn = Fn("f", {}, {Return(Host("expensive_digest", {C(Value("x"))}))});
  const ExecResult r = Run(fn, {});
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r.elapsed, Millis(50));
}

TEST_F(FuncTest, DeterministicAcrossRuns) {
  store_.Seed("k", Value(static_cast<int64_t>(10)));
  const FunctionDef fn = Fn("f", {"x"}, {
      Read("v", C("k")),
      Write(C("out"), Add(V("v"), HashOf(In("x")))),
      Return(V("v")),
  });
  const ExecResult r1 = Run(fn, {Value("in")});
  const Value out1 = store_.Peek("out")->value;
  // Reset and run again: identical writes (the deterministic re-execution
  // property §3.4 depends on).
  VersionedStore store2;
  store2.Seed("k", Value(static_cast<int64_t>(10)));
  const ExecResult r2 = interp_.Execute(fn, {Value("in")}, &store2);
  EXPECT_EQ(r1.return_value, r2.return_value);
  EXPECT_EQ(out1, store2.Peek("out")->value);
  EXPECT_EQ(r1.elapsed, r2.elapsed);
  EXPECT_EQ(r1.steps, r2.steps);
}

TEST_F(FuncTest, ForEachOverMissingListIsEmpty) {
  const FunctionDef fn = Fn("f", {}, {
      ForEach("x", V("unbound_is_error"), {}),
  });
  EXPECT_FALSE(Run(fn, {}).ok());

  const FunctionDef fn2 = Fn("f", {}, {
      Read("l", C("absent")),
      Let("n", C(static_cast<int64_t>(0))),
      ForEach("x", V("l"), {Let("n", Add(V("n"), C(static_cast<int64_t>(1))))}),
      Return(V("n")),
  });
  EXPECT_EQ(Run(fn2, {}).return_value, Value(static_cast<int64_t>(0)));
}

TEST_F(FuncTest, LetRebindsAnExistingVariable) {
  const FunctionDef fn = Fn("f", {}, {
      Let("x", C(static_cast<int64_t>(1))),
      Let("y", C(Value("other"))),
      Let("x", Add(V("x"), C(static_cast<int64_t>(10)))),
      Let("x", Add(V("x"), C(static_cast<int64_t>(100)))),
      Return(Cat({IntToStr(V("x")), V("y")})),
  });
  EXPECT_EQ(Run(fn, {}).return_value, Value("111other"));
}

TEST_F(FuncTest, ForEachVariableShadowsAnOuterBinding) {
  // The loop variable takes over an outer variable of the same name and
  // keeps the last element's value after the loop.
  const FunctionDef fn = Fn("f", {}, {
      Let("x", C(Value("outer"))),
      Let("l", Append(Append(C(ValueList{}), C(Value("a"))), C(Value("b")))),
      Let("seen", C(ValueList{})),
      ForEach("x", V("l"), {Let("seen", Append(V("seen"), V("x")))}),
      Return(Append(V("seen"), V("x"))),
  });
  EXPECT_EQ(Run(fn, {}).return_value,
            Value(ValueList{Value("a"), Value("b"), Value("b")}));
}

TEST_F(FuncTest, ForEachBodyMayRebindTheIteratedList) {
  // Rebinding the list mid-loop changes neither the iteration (it walks
  // the list as bound when the loop started) nor the list already shared
  // with the store.
  store_.Seed("l", Value(ValueList{Value("a"), Value("b"), Value("c")}));
  const FunctionDef fn = Fn("f", {}, {
      Read("l", C("l")),
      Let("n", C(static_cast<int64_t>(0))),
      ForEach("x", V("l"), {
          Let("l", Append(V("l"), V("x"))),
          Let("n", Add(V("n"), C(static_cast<int64_t>(1)))),
      }),
      Return(Append(V("l"), IntToStr(V("n")))),
  });
  const ExecResult r = Run(fn, {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.return_value,
            Value(ValueList{Value("a"), Value("b"), Value("c"), Value("a"), Value("b"),
                            Value("c"), Value("3")}));
  EXPECT_EQ(store_.Peek("l")->value, Value(ValueList{Value("a"), Value("b"), Value("c")}));
}

TEST_F(FuncTest, UnboundNamesReportTheirErrorText) {
  const ExecResult var = Run(Fn("f", {"a"}, {Return(V("a"))}), {Value("x")});
  ASSERT_FALSE(var.ok());
  EXPECT_EQ(var.status.message(), "unbound variable: a");
  const ExecResult input = Run(Fn("f", {}, {Let("b", C(Value("x"))), Return(In("b"))}), {});
  ASSERT_FALSE(input.ok());
  EXPECT_EQ(input.status.message(), "unknown input: b");
}

TEST_F(FuncTest, TakeClampsItsCount) {
  store_.Seed("l", Value(ValueList{Value("a"), Value("b"), Value("c")}));
  const auto take = [this](int64_t n) {
    return Run(Fn("f", {}, {Read("l", C("l")), Return(Take(V("l"), C(n)))}), {}).return_value;
  };
  const Value all(ValueList{Value("a"), Value("b"), Value("c")});
  EXPECT_EQ(take(3), all);
  EXPECT_EQ(take(10), all);
  EXPECT_EQ(take(2), Value(ValueList{Value("a"), Value("b")}));
  EXPECT_EQ(take(0), Value(ValueList{}));
  EXPECT_EQ(take(-4), Value(ValueList{}));
}

TEST_F(FuncTest, FunctionToStringRoundtripsShape) {
  const FunctionDef fn = Fn("pretty", {"a"}, {
      Compute(Millis(5)),
      If(Eq(In("a"), C(Value("x"))), {Return(C(static_cast<int64_t>(1)))}, {}),
      Return(C(static_cast<int64_t>(0))),
  });
  const std::string s = FunctionToString(fn);
  EXPECT_NE(s.find("fn pretty(a)"), std::string::npos);
  EXPECT_NE(s.find("compute 5ms"), std::string::npos);
  EXPECT_NE(s.find("if eq($a, \"x\")"), std::string::npos);
}

TEST_F(FuncTest, CountStmtsRecursive) {
  const FunctionDef fn = Fn("f", {}, {
      If(C(static_cast<int64_t>(1)), {Compute(1), Compute(1)}, {Compute(1)}),
      Compute(1),
  });
  EXPECT_EQ(CountStmts(fn.body), 5u);
}

}  // namespace
}  // namespace radical
