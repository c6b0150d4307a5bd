#include "src/func/interpreter.h"

#include <algorithm>
#include <cassert>
#include <string_view>

namespace radical {

void HostRegistry::Register(const std::string& name, HostFunction host) {
  hosts_[name] = std::move(host);
}

const HostFunction* HostRegistry::Find(const std::string& name) const {
  const auto it = hosts_.find(name);
  return it == hosts_.end() ? nullptr : &it->second;
}

bool HostRegistry::IsTransparent(const std::string& name) const {
  const HostFunction* host = Find(name);
  return host != nullptr && host->transparent;
}

const HostRegistry& HostRegistry::Standard() {
  static const HostRegistry* kRegistry = [] {
    auto* r = new HostRegistry();
    // geo_cell: maps an integer coordinate to a coarse grid-cell id; used by
    // hotel-search to turn a location into a geo-index key. Cheap and
    // transparent, so the analyzer keeps it inside f^rw.
    r->Register("geo_cell", HostFunction{
                                .fn =
                                    [](const std::vector<Value>& args) -> Value {
                                      if (args.size() != 1 || !args[0].is_int()) {
                                        return Value();
                                      }
                                      return Value(args[0].AsInt() / 10);
                                    },
                                .cost = Micros(5),
                                .transparent = true,
                            });
    // expensive_digest: models a key derivation that is too costly to rerun
    // inside f^rw and that the analyzer was not taught about; any storage key
    // that depends on it makes the function unanalyzable (§3.3 failure case).
    r->Register("expensive_digest", HostFunction{
                                        .fn =
                                            [](const std::vector<Value>& args) -> Value {
                                              uint64_t h = 0x9e3779b97f4a7c15ULL;
                                              for (const Value& v : args) {
                                                h ^= v.StableHash() + (h << 6) + (h >> 2);
                                              }
                                              return Value(static_cast<int64_t>(h & 0x7fffffff));
                                            },
                                        .cost = Millis(50),
                                        .transparent = false,
                                    });
    return r;
  }();
  return *kRegistry;
}

namespace {

// One binding of a frame. The name views the executing FunctionDef (a
// param, or a Let/Read/ForEach/ExternalCall target), which outlives the
// frame.
struct Slot {
  std::string_view name;
  bool input = false;  // Inputs and variables are separate namespaces.
  Value value;
};

// Variable slots a frame reserves beyond its inputs: enough for every
// function of the benchmark applications, so a frame allocates once.
constexpr size_t kFrameVarSlots = 8;

// Mutable interpretation state threaded through the recursive walk.
struct Frame {
  const HostRegistry* hosts;
  Storage* storage;
  const ExecLimits* limits;
  const ExecEnv* env;
  // Inputs and variables in binding order, searched linearly: a function
  // binds a handful of names, and slots are never removed.
  std::vector<Slot> slots;
  ExecResult* result;
  bool returned = false;
  uint64_t external_calls = 0;

  // Searches from the newest slot, so a param named twice binds its last
  // input (variables are bound once each).
  const Value* Find(std::string_view name, bool input) const {
    for (auto it = slots.rbegin(); it != slots.rend(); ++it) {
      if (it->input == input && it->name == name) {
        return &it->value;
      }
    }
    return nullptr;
  }

  // Index of variable `name`'s slot, appended (unit) if it is not bound yet.
  // Indices stay valid as the frame grows.
  size_t VarSlot(std::string_view name) {
    for (size_t i = 0; i < slots.size(); ++i) {
      if (!slots[i].input && slots[i].name == name) {
        return i;
      }
    }
    slots.emplace_back().name = name;
    return slots.size() - 1;
  }

  // Binds (or rebinds) variable `name`.
  void Bind(std::string_view name, Value value) { slots[VarSlot(name)].value = std::move(value); }

  bool Fail(const std::string& message) {
    if (result->status.ok()) {
      result->status = Status::Error(message);
    }
    return false;
  }

  // Charges one interpreted step; false if fuel is exhausted.
  bool Step() {
    if (++result->steps > limits->max_steps) {
      return Fail("fuel exhausted (max_steps exceeded)");
    }
    result->elapsed += limits->per_step_cost;
    return true;
  }

  bool failed() const { return !result->status.ok(); }
};

bool EvalExpr(const ExprPtr& expr, Frame& f, Value* out);

bool EvalInt(const ExprPtr& expr, Frame& f, int64_t* out) {
  Value v;
  if (!EvalExpr(expr, f, &v)) {
    return false;
  }
  if (!v.is_int()) {
    return f.Fail("expected int, got " + v.ToString());
  }
  *out = v.AsInt();
  return true;
}

bool EvalExpr(const ExprPtr& expr, Frame& f, Value* out) {
  if (expr == nullptr) {
    *out = Value();
    return true;
  }
  if (!f.Step()) {
    return false;
  }
  switch (expr->kind) {
    case ExprKind::kConst:
      *out = expr->literal;
      return true;
    case ExprKind::kInput: {
      const Value* value = f.Find(expr->name, /*input=*/true);
      if (value == nullptr) {
        return f.Fail("unknown input: " + expr->name);
      }
      *out = *value;
      return true;
    }
    case ExprKind::kVar: {
      const Value* value = f.Find(expr->name, /*input=*/false);
      if (value == nullptr) {
        return f.Fail("unbound variable: " + expr->name);
      }
      *out = *value;
      return true;
    }
    case ExprKind::kConcat: {
      std::string s;
      for (const ExprPtr& arg : expr->args) {
        Value v;
        if (!EvalExpr(arg, f, &v)) {
          return false;
        }
        if (v.is_string()) {
          s += v.AsString();
        } else if (v.is_int()) {
          s += std::to_string(v.AsInt());
        } else {
          return f.Fail("concat of non-scalar: " + v.ToString());
        }
      }
      *out = Value(std::move(s));
      return true;
    }
    case ExprKind::kAdd:
    case ExprKind::kSub:
    case ExprKind::kLt:
    case ExprKind::kLe:
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      if (expr->args.size() != 2) {
        return f.Fail("binary op arity");
      }
      int64_t a = 0;
      int64_t b = 0;
      if (!EvalInt(expr->args[0], f, &a) || !EvalInt(expr->args[1], f, &b)) {
        return false;
      }
      switch (expr->kind) {
        case ExprKind::kAdd:
          *out = Value(a + b);
          break;
        case ExprKind::kSub:
          *out = Value(a - b);
          break;
        case ExprKind::kLt:
          *out = Value(static_cast<int64_t>(a < b));
          break;
        case ExprKind::kLe:
          *out = Value(static_cast<int64_t>(a <= b));
          break;
        case ExprKind::kAnd:
          *out = Value(static_cast<int64_t>(a != 0 && b != 0));
          break;
        case ExprKind::kOr:
          *out = Value(static_cast<int64_t>(a != 0 || b != 0));
          break;
        default:
          break;
      }
      return true;
    }
    case ExprKind::kEq:
    case ExprKind::kNe: {
      if (expr->args.size() != 2) {
        return f.Fail("eq/ne arity");
      }
      Value a;
      Value b;
      if (!EvalExpr(expr->args[0], f, &a) || !EvalExpr(expr->args[1], f, &b)) {
        return false;
      }
      const bool eq = (a == b);
      *out = Value(static_cast<int64_t>(expr->kind == ExprKind::kEq ? eq : !eq));
      return true;
    }
    case ExprKind::kNot: {
      if (expr->args.size() != 1) {
        return f.Fail("not arity");
      }
      int64_t a = 0;
      if (!EvalInt(expr->args[0], f, &a)) {
        return false;
      }
      *out = Value(static_cast<int64_t>(a == 0));
      return true;
    }
    case ExprKind::kLen: {
      if (expr->args.size() != 1) {
        return f.Fail("len arity");
      }
      Value v;
      if (!EvalExpr(expr->args[0], f, &v)) {
        return false;
      }
      if (v.is_list()) {
        *out = Value(static_cast<int64_t>(v.AsList().size()));
      } else if (v.is_string()) {
        *out = Value(static_cast<int64_t>(v.AsString().size()));
      } else if (v.is_unit()) {
        *out = Value(static_cast<int64_t>(0));  // len(missing) == 0.
      } else {
        return f.Fail("len of non-sequence");
      }
      return true;
    }
    case ExprKind::kIndex: {
      if (expr->args.size() != 2) {
        return f.Fail("index arity");
      }
      Value list;
      int64_t i = 0;
      if (!EvalExpr(expr->args[0], f, &list) || !EvalInt(expr->args[1], f, &i)) {
        return false;
      }
      if (!list.is_list()) {
        return f.Fail("index of non-list");
      }
      if (i < 0 || static_cast<size_t>(i) >= list.AsList().size()) {
        return f.Fail("index out of range");
      }
      *out = list.AsList()[static_cast<size_t>(i)];
      return true;
    }
    case ExprKind::kAppend: {
      if (expr->args.size() != 2) {
        return f.Fail("append arity");
      }
      Value list;
      Value elem;
      if (!EvalExpr(expr->args[0], f, &list) || !EvalExpr(expr->args[1], f, &elem)) {
        return false;
      }
      ValueList out_list;
      if (list.is_list()) {
        const ValueList& in = list.AsList();
        out_list.reserve(in.size() + 1);
        out_list.insert(out_list.end(), in.begin(), in.end());
      } else if (!list.is_unit()) {
        return f.Fail("append to non-list");
      }
      // Unit (missing item) lifts to the empty list so "append to a timeline
      // that does not exist yet" just works.
      out_list.push_back(elem);
      *out = Value(std::move(out_list));
      return true;
    }
    case ExprKind::kTake: {
      if (expr->args.size() != 2) {
        return f.Fail("take arity");
      }
      Value list;
      int64_t n = 0;
      if (!EvalExpr(expr->args[0], f, &list) || !EvalInt(expr->args[1], f, &n)) {
        return false;
      }
      if (list.is_unit()) {
        *out = Value(ValueList{});
        return true;
      }
      if (!list.is_list()) {
        return f.Fail("take of non-list");
      }
      const ValueList& in = list.AsList();
      const size_t count = std::min(in.size(), static_cast<size_t>(std::max<int64_t>(n, 0)));
      *out = Value(ValueList(in.begin(), in.begin() + static_cast<std::ptrdiff_t>(count)));
      return true;
    }
    case ExprKind::kHash: {
      if (expr->args.size() != 1) {
        return f.Fail("hash arity");
      }
      Value v;
      if (!EvalExpr(expr->args[0], f, &v)) {
        return false;
      }
      *out = Value(static_cast<int64_t>(v.StableHash() & 0x7fffffffffffffffULL));
      return true;
    }
    case ExprKind::kIntToStr: {
      if (expr->args.size() != 1) {
        return f.Fail("int_to_str arity");
      }
      int64_t v = 0;
      if (!EvalInt(expr->args[0], f, &v)) {
        return false;
      }
      *out = Value(std::to_string(v));
      return true;
    }
    case ExprKind::kOpaque: {
      const HostFunction* host = f.hosts->Find(expr->name);
      if (host == nullptr) {
        return f.Fail("unknown host function: " + expr->name);
      }
      std::vector<Value> args;
      args.reserve(expr->args.size());
      for (const ExprPtr& arg : expr->args) {
        Value v;
        if (!EvalExpr(arg, f, &v)) {
          return false;
        }
        args.push_back(std::move(v));
      }
      f.result->elapsed += host->cost;
      *out = host->fn(args);
      return true;
    }
  }
  return f.Fail("unhandled expr kind");
}

bool EvalKey(const ExprPtr& expr, Frame& f, Key* out) {
  Value v;
  if (!EvalExpr(expr, f, &v)) {
    return false;
  }
  if (!v.is_string()) {
    return f.Fail("storage key must be a string, got " + v.ToString());
  }
  *out = v.AsString();
  return true;
}

bool ExecBody(const StmtList& body, Frame& f);

bool ExecStmt(const StmtPtr& stmt, Frame& f) {
  if (!f.Step()) {
    return false;
  }
  switch (stmt->kind) {
    case StmtKind::kCompute:
      f.result->elapsed += stmt->duration;
      return true;
    case StmtKind::kLet: {
      Value v;
      if (!EvalExpr(stmt->expr, f, &v)) {
        return false;
      }
      f.Bind(stmt->var, std::move(v));
      return true;
    }
    case StmtKind::kRead: {
      Key key;
      if (!EvalKey(stmt->expr, f, &key)) {
        return false;
      }
      f.result->reads.push_back(key);
      if (stmt->log_only) {
        // Slice-mode read kept only to log the key: no fetch, var unbound
        // downstream by construction.
        f.Bind(stmt->var, Value());
        return true;
      }
      std::optional<Item> item = f.storage->Get(key, &f.result->elapsed);
      f.Bind(stmt->var, item.has_value() ? std::move(item->value) : Value());
      return true;
    }
    case StmtKind::kWrite: {
      Key key;
      if (!EvalKey(stmt->expr, f, &key)) {
        return false;
      }
      f.result->writes.push_back(key);
      Value v;
      if (!EvalExpr(stmt->value, f, &v)) {
        return false;
      }
      f.storage->Put(key, v, &f.result->elapsed);
      return true;
    }
    case StmtKind::kIf: {
      int64_t cond = 0;
      if (!EvalInt(stmt->expr, f, &cond)) {
        return false;
      }
      return ExecBody(cond != 0 ? stmt->then_body : stmt->else_body, f);
    }
    case StmtKind::kForEach: {
      Value list;
      if (!EvalExpr(stmt->expr, f, &list)) {
        return false;
      }
      if (list.is_unit()) {
        return true;  // Missing list: zero iterations.
      }
      if (!list.is_list()) {
        return f.Fail("foreach over non-list");
      }
      // `list` shares the list with whatever bound it, and lists are
      // immutable, so the body may rebind any variable (the list's own
      // included) without disturbing the iteration. The loop variable
      // shadows an outer binding of the same name.
      const size_t loop_var = f.VarSlot(stmt->var);
      for (const Value& item : list.AsList()) {
        f.slots[loop_var].value = item;
        if (!ExecBody(stmt->then_body, f)) {
          return false;
        }
        if (f.returned) {
          return true;
        }
      }
      return true;
    }
    case StmtKind::kReturn: {
      Value v;
      if (!EvalExpr(stmt->expr, f, &v)) {
        return false;
      }
      f.result->return_value = std::move(v);
      f.returned = true;
      return true;
    }
    case StmtKind::kExternalCall: {
      if (f.env == nullptr || f.env->externals == nullptr) {
        return f.Fail("no external services available for " + stmt->service);
      }
      ExternalService* service = f.env->externals->Find(stmt->service);
      if (service == nullptr) {
        return f.Fail("unknown external service: " + stmt->service);
      }
      Value request;
      if (!EvalExpr(stmt->expr, f, &request)) {
        return false;
      }
      // Deterministic idempotency key: same execution id + same call
      // position -> same key, so re-execution replays instead of
      // re-charging (the Stripe IdempotencyKey pattern, §3.5).
      const std::string key = "exec-" + std::to_string(f.env->exec_id) + "-call-" +
                              std::to_string(f.external_calls++);
      f.Bind(stmt->var, service->Call(key, request, &f.result->elapsed));
      return true;
    }
  }
  return f.Fail("unhandled stmt kind");
}

bool ExecBody(const StmtList& body, Frame& f) {
  for (const StmtPtr& stmt : body) {
    if (!ExecStmt(stmt, f)) {
      return false;
    }
    if (f.returned) {
      return true;
    }
  }
  return true;
}

}  // namespace

Interpreter::Interpreter(const HostRegistry* hosts) : hosts_(hosts) { assert(hosts != nullptr); }

ExecResult Interpreter::Execute(const FunctionDef& fn, const std::vector<Value>& inputs,
                                Storage* storage, const ExecLimits& limits,
                                const ExecEnv* env) const {
  ExecResult result;
  if (inputs.size() != fn.params.size()) {
    result.status = Status::Error("arity mismatch calling " + fn.name);
    return result;
  }
  Frame frame{.hosts = hosts_,
              .storage = storage,
              .limits = &limits,
              .env = env,
              .slots = {},
              .result = &result};
  frame.slots.reserve(inputs.size() + kFrameVarSlots);
  for (size_t i = 0; i < inputs.size(); ++i) {
    frame.slots.push_back(Slot{fn.params[i], true, inputs[i]});
  }
  ExecBody(fn.body, frame);
  return result;
}

}  // namespace radical
