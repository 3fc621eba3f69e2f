//===- examples/lisp.cpp - A tiny Lisp on the DTB-collected heap ---------===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
// A realistic mutator for the managed runtime: a small Lisp interpreter
// whose every value — numbers, symbols, cons cells, closures, environment
// frames — is a managed object. Evaluation churns through enormous
// amounts of short-lived structure (argument lists, environment frames)
// while interned symbols and top-level definitions live forever: exactly
// the demography generational collection exploits, and assoc-list
// environment mutation exercises the forward-in-time write barrier.
//
// The demo program computes sums of squares over freshly consed lists in
// a loop, under the paper's pause-constrained DTBFM policy, and prints
// the collector's behaviour afterwards.
//
// Run with --expr '<s-expression>' to evaluate your own program.
//
//===----------------------------------------------------------------------===//

#include "core/Policies.h"
#include "runtime/Heap.h"
#include "runtime/HeapDump.h"
#include "runtime/HeapVerifier.h"
#include "support/CommandLine.h"
#include "support/Error.h"
#include "support/Units.h"

#include <cctype>
#include <cstdio>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

using namespace dtb;
using runtime::HandleScope;
using runtime::Heap;
using runtime::Object;

namespace {

//===----------------------------------------------------------------------===//
// Value representation
//===----------------------------------------------------------------------===//
//
// Every Lisp value is a managed Object whose first raw byte is a kind tag.
// nil is the C++ nullptr.

enum ValueKind : char {
  VK_Number = 'N',  // int64 payload at offset 8.
  VK_Symbol = 'S',  // NUL-terminated name from offset 1.
  VK_Cons = 'C',    // Slot 0 = car, slot 1 = cdr.
  VK_Builtin = 'B', // Builtin index at offset 8.
  VK_Lambda = 'L',  // Slot 0 = params, slot 1 = body, slot 2 = env.
  VK_Env = 'E',     // Slot 0 = parent, slot 1 = bindings assoc list.
};

ValueKind kindOf(const Object *O) {
  return static_cast<ValueKind>(
      static_cast<const char *>(O->rawData())[0]);
}

bool isA(const Object *O, ValueKind Kind) {
  return O && kindOf(O) == Kind;
}

int64_t numberValue(const Object *O) {
  assert(isA(O, VK_Number) && "not a number");
  int64_t Value;
  std::memcpy(&Value, static_cast<const char *>(O->rawData()) + 8,
              sizeof(Value));
  return Value;
}

const char *symbolName(const Object *O) {
  assert(isA(O, VK_Symbol) && "not a symbol");
  return static_cast<const char *>(O->rawData()) + 1;
}

//===----------------------------------------------------------------------===//
// Interpreter
//===----------------------------------------------------------------------===//

class Interp;
using BuiltinFn = Object *(*)(Interp &, Object *Args);

class Interp {
public:
  explicit Interp(Heap &H) : H(H), GlobalEnv(nullptr) {
    H.addGlobalRoot(&GlobalEnv);
    GlobalEnv = makeEnv(nullptr);
    installBuiltins();
  }

  ~Interp() { H.removeGlobalRoot(&GlobalEnv); }

  Heap &heap() { return H; }

  //--- Constructors ------------------------------------------------------

  Object *makeNumber(int64_t Value) {
    Object *O = H.allocate(0, 16);
    tag(O, VK_Number);
    std::memcpy(static_cast<char *>(O->rawData()) + 8, &Value,
                sizeof(Value));
    return O;
  }

  /// Interns \p Name: symbols are unique and immortal (global roots).
  Object *intern(const std::string &Name) {
    for (Object *&Sym : Symbols)
      if (Name == symbolName(Sym))
        return Sym;
    Object *O = H.allocate(0, static_cast<uint32_t>(Name.size() + 2));
    tag(O, VK_Symbol);
    std::memcpy(static_cast<char *>(O->rawData()) + 1, Name.c_str(),
                Name.size() + 1);
    Symbols.push_back(O);
    H.addGlobalRoot(&Symbols.back());
    return Symbols.back();
  }

  Object *cons(Object *Car, Object *Cdr) {
    HandleScope Scope(H);
    Object *&CarSlot = Scope.slot(Car);
    Object *&CdrSlot = Scope.slot(Cdr);
    Object *Cell = H.allocate(2, 1);
    tag(Cell, VK_Cons);
    H.writeSlot(Cell, 0, CarSlot);
    H.writeSlot(Cell, 1, CdrSlot);
    return Cell;
  }

  Object *makeEnv(Object *Parent) {
    HandleScope Scope(H);
    Object *&ParentSlot = Scope.slot(Parent);
    Object *Env = H.allocate(2, 1);
    tag(Env, VK_Env);
    H.writeSlot(Env, 0, ParentSlot);
    return Env;
  }

  //--- Accessors ---------------------------------------------------------

  static Object *car(Object *Cell) {
    assert(isA(Cell, VK_Cons) && "car of non-cons");
    return Cell->slot(0);
  }
  static Object *cdr(Object *Cell) {
    assert(isA(Cell, VK_Cons) && "cdr of non-cons");
    return Cell->slot(1);
  }

  //--- Environments ------------------------------------------------------

  void define(Object *Env, Object *Symbol, Object *Value) {
    HandleScope Scope(H);
    Object *&EnvSlot = Scope.slot(Env);
    Object *Binding = cons(Symbol, Value);
    Object *&BindingSlot = Scope.slot(Binding);
    Object *NewList = cons(BindingSlot, EnvSlot->slot(1));
    // Mutating an old environment frame to point at fresh structure: the
    // canonical forward-in-time store the write barrier exists for.
    H.writeSlot(EnvSlot, 1, NewList);
  }

  Object *lookup(Object *Env, Object *Symbol) {
    for (Object *Frame = Env; Frame; Frame = Frame->slot(0))
      for (Object *B = Frame->slot(1); B; B = cdr(B))
        if (car(car(B)) == Symbol)
          return cdr(car(B));
    fatalError(std::string("unbound symbol: ") + symbolName(Symbol));
  }

  //--- Evaluation --------------------------------------------------------

  Object *eval(Object *Expr, Object *Env) {
    HandleScope Scope(H);
    Object *&ExprSlot = Scope.slot(Expr);
    Object *&EnvSlot = Scope.slot(Env);

    if (!ExprSlot)
      return nullptr;
    switch (kindOf(ExprSlot)) {
    case VK_Number:
    case VK_Builtin:
    case VK_Lambda:
    case VK_Env:
      return ExprSlot;
    case VK_Symbol:
      return lookup(EnvSlot, ExprSlot);
    case VK_Cons:
      break;
    }

    Object *Head = car(ExprSlot);
    if (isA(Head, VK_Symbol)) {
      const char *Name = symbolName(Head);
      if (std::strcmp(Name, "quote") == 0)
        return car(cdr(ExprSlot));
      if (std::strcmp(Name, "if") == 0) {
        Object *Test = eval(car(cdr(ExprSlot)), EnvSlot);
        Object *Branch = Test ? car(cdr(cdr(ExprSlot)))
                              : car(cdr(cdr(cdr(ExprSlot))));
        return eval(Branch, EnvSlot);
      }
      if (std::strcmp(Name, "define") == 0) {
        Object *&Value =
            Scope.slot(eval(car(cdr(cdr(ExprSlot))), EnvSlot));
        define(EnvSlot, car(cdr(ExprSlot)), Value);
        return Value;
      }
      if (std::strcmp(Name, "lambda") == 0) {
        Object *Fn = H.allocate(3, 1);
        tag(Fn, VK_Lambda);
        H.writeSlot(Fn, 0, car(cdr(ExprSlot)));
        H.writeSlot(Fn, 1, car(cdr(cdr(ExprSlot))));
        H.writeSlot(Fn, 2, EnvSlot);
        return Fn;
      }
      if (std::strcmp(Name, "begin") == 0) {
        Object *&Result = Scope.slot(nullptr);
        for (Object *Body = cdr(ExprSlot); Body; Body = cdr(Body))
          Result = eval(car(Body), EnvSlot);
        return Result;
      }
    }

    // Application: evaluate the callee and each argument, keeping the
    // growing argument list rooted.
    Object *&Callee = Scope.slot(eval(Head, EnvSlot));
    Object *&ArgsReversed = Scope.slot(nullptr);
    for (Object *Rest = cdr(ExprSlot); Rest; Rest = cdr(Rest)) {
      Object *&Arg = Scope.slot(eval(car(Rest), EnvSlot));
      ArgsReversed = cons(Arg, ArgsReversed);
    }
    Object *&Args = Scope.slot(reverseList(ArgsReversed));
    return apply(Callee, Args);
  }

  Object *apply(Object *Callee, Object *Args) {
    if (isA(Callee, VK_Builtin)) {
      int64_t Index;
      std::memcpy(&Index, static_cast<const char *>(Callee->rawData()) + 8,
                  sizeof(Index));
      return Builtins[static_cast<size_t>(Index)].second(*this, Args);
    }
    if (!isA(Callee, VK_Lambda))
      fatalError("applying a non-function");

    HandleScope Scope(H);
    Object *&CalleeSlot = Scope.slot(Callee);
    Object *&ArgsSlot = Scope.slot(Args);
    Object *&Frame = Scope.slot(makeEnv(CalleeSlot->slot(2)));
    Object *Params = CalleeSlot->slot(0);
    Object *Actuals = ArgsSlot;
    for (; Params; Params = cdr(Params), Actuals = cdr(Actuals)) {
      if (!Actuals)
        fatalError("too few arguments");
      define(Frame, car(Params), car(Actuals));
    }
    return eval(CalleeSlot->slot(1), Frame);
  }

  Object *reverseList(Object *List) {
    HandleScope Scope(H);
    Object *&Out = Scope.slot(nullptr);
    Object *&In = Scope.slot(List);
    while (In) {
      Out = cons(car(In), Out);
      In = cdr(In);
    }
    return Out;
  }

  //--- Printing ----------------------------------------------------------

  std::string toString(Object *Value) {
    if (!Value)
      return "()";
    switch (kindOf(Value)) {
    case VK_Number:
      return std::to_string(numberValue(Value));
    case VK_Symbol:
      return symbolName(Value);
    case VK_Builtin:
      return "#<builtin>";
    case VK_Lambda:
      return "#<lambda>";
    case VK_Env:
      return "#<env>";
    case VK_Cons: {
      std::string Out = "(";
      for (Object *Cell = Value; Cell; Cell = cdr(Cell)) {
        Out += toString(car(Cell));
        if (cdr(Cell)) {
          if (!isA(cdr(Cell), VK_Cons)) { // Improper list.
            Out += " . " + toString(cdr(Cell));
            break;
          }
          Out += " ";
        }
      }
      return Out + ")";
    }
    }
    unreachable("covered switch");
  }

  Object *globalEnv() { return GlobalEnv; }

private:
  void tag(Object *O, ValueKind Kind) {
    static_cast<char *>(O->rawData())[0] = static_cast<char>(Kind);
  }

  void installBuiltin(const char *Name, BuiltinFn Fn) {
    Builtins.emplace_back(Name, Fn);
    Object *O = H.allocate(0, 16);
    tag(O, VK_Builtin);
    int64_t Index = static_cast<int64_t>(Builtins.size() - 1);
    std::memcpy(static_cast<char *>(O->rawData()) + 8, &Index,
                sizeof(Index));
    define(GlobalEnv, intern(Name), O);
  }

  void installBuiltins();

  Heap &H;
  Object *GlobalEnv;
  std::deque<Object *> Symbols; // Stable addresses; each is a global root.
  std::vector<std::pair<std::string, BuiltinFn>> Builtins;
};

//===----------------------------------------------------------------------===//
// Builtins
//===----------------------------------------------------------------------===//

int64_t argNumber(Object *Args, int Index) {
  Object *Cell = Args;
  for (int I = 0; I != Index; ++I)
    Cell = Interp::cdr(Cell);
  return numberValue(Interp::car(Cell));
}

void Interp::installBuiltins() {
  installBuiltin("+", [](Interp &In, Object *Args) {
    int64_t Sum = 0;
    for (Object *A = Args; A; A = Interp::cdr(A))
      Sum += numberValue(Interp::car(A));
    return In.makeNumber(Sum);
  });
  installBuiltin("-", [](Interp &In, Object *Args) {
    return In.makeNumber(argNumber(Args, 0) - argNumber(Args, 1));
  });
  installBuiltin("*", [](Interp &In, Object *Args) {
    int64_t Product = 1;
    for (Object *A = Args; A; A = Interp::cdr(A))
      Product *= numberValue(Interp::car(A));
    return In.makeNumber(Product);
  });
  installBuiltin("<", [](Interp &In, Object *Args) -> Object * {
    return argNumber(Args, 0) < argNumber(Args, 1) ? In.makeNumber(1)
                                                   : nullptr;
  });
  installBuiltin("=", [](Interp &In, Object *Args) -> Object * {
    return argNumber(Args, 0) == argNumber(Args, 1) ? In.makeNumber(1)
                                                    : nullptr;
  });
  installBuiltin("cons", [](Interp &In, Object *Args) {
    return In.cons(Interp::car(Args), Interp::car(Interp::cdr(Args)));
  });
  installBuiltin("car", [](Interp &, Object *Args) {
    return Interp::car(Interp::car(Args));
  });
  installBuiltin("cdr", [](Interp &, Object *Args) {
    return Interp::cdr(Interp::car(Args));
  });
  installBuiltin("null?", [](Interp &In, Object *Args) -> Object * {
    return Interp::car(Args) == nullptr ? In.makeNumber(1) : nullptr;
  });
}

//===----------------------------------------------------------------------===//
// Reader
//===----------------------------------------------------------------------===//

class Reader {
public:
  Reader(Interp &In, std::string Text) : In(In), Text(std::move(Text)) {}

  Object *read() {
    skipSpace();
    if (Pos >= Text.size())
      fatalError("unexpected end of input");
    if (Text[Pos] == '(') {
      ++Pos;
      return readList();
    }
    return readAtom();
  }

  bool atEnd() {
    skipSpace();
    return Pos >= Text.size();
  }

private:
  void skipSpace() {
    while (Pos < Text.size() &&
           std::isspace(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
  }

  Object *readList() {
    HandleScope Scope(In.heap());
    Object *&Reversed = Scope.slot(nullptr);
    for (;;) {
      skipSpace();
      if (Pos >= Text.size())
        fatalError("unterminated list");
      if (Text[Pos] == ')') {
        ++Pos;
        return In.reverseList(Reversed);
      }
      Object *&Element = Scope.slot(read());
      Reversed = In.cons(Element, Reversed);
    }
  }

  Object *readAtom() {
    size_t Start = Pos;
    while (Pos < Text.size() && Text[Pos] != '(' && Text[Pos] != ')' &&
           !std::isspace(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
    std::string Token = Text.substr(Start, Pos - Start);
    char *End = nullptr;
    long long Value = std::strtoll(Token.c_str(), &End, 10);
    if (End != Token.c_str() && *End == '\0')
      return In.makeNumber(Value);
    return In.intern(Token);
  }

  Interp &In;
  std::string Text;
  size_t Pos = 0;
};

//===----------------------------------------------------------------------===//
// Demo program
//===----------------------------------------------------------------------===//

const char *DemoProgram = R"((begin
  (define iota (lambda (n) (begin
    (define loop (lambda (i acc)
      (if (= i 0) acc (loop (- i 1) (cons i acc)))))
    (loop n (quote ())))))
  (define map (lambda (f xs)
    (if (null? xs) (quote ())
        (cons (f (car xs)) (map f (cdr xs))))))
  (define sum (lambda (xs)
    (if (null? xs) 0 (+ (car xs) (sum (cdr xs))))))
  (define square (lambda (x) (* x x)))
  (define run (lambda (k acc)
    (if (= k 0) acc
        (run (- k 1) (+ acc (sum (map square (iota 60))))))))
  (run 400 0)))";

} // namespace

int main(int Argc, char **Argv) {
  std::string Expr;
  uint64_t TriggerKB = 96;
  uint64_t PauseBudgetUs = 64'000;
  bool Dump = false;
  OptionParser Parser("A tiny Lisp whose values live on the DTB-collected "
                      "managed heap");
  Parser.addString("expr", "S-expression to evaluate instead of the demo",
                   &Expr);
  Parser.addUInt("trigger-kb", "KB of allocation between collections",
                 &TriggerKB);
  Parser.addUInt("pause-us", "DTBFM pause budget in microseconds of "
                 "simulated tracing (500 bytes/ms)", &PauseBudgetUs);
  Parser.addFlag("dump", "Print the heap age demographics at exit", &Dump);
  Parser.rejectPositionals();
  if (!Parser.parse(Argc, Argv))
    return 1;

  runtime::HeapConfig Config;
  Config.TriggerBytes = TriggerKB * 1000;
  Heap H(Config);
  core::PolicyConfig Policy;
  Policy.TraceMaxBytes = PauseBudgetUs / 2; // 500 bytes/ms = 0.5 B/us.
  H.setPolicy(core::createPolicy("dtbfm", Policy));

  Interp In(H);
  Reader R(In, Expr.empty() ? DemoProgram : Expr);

  HandleScope Scope(H);
  Object *&Result = Scope.slot(nullptr);
  while (!R.atEnd()) {
    Object *&Program = Scope.slot(R.read());
    Result = In.eval(Program, In.globalEnv());
  }
  std::printf("result: %s\n", In.toString(Result).c_str());
  if (Expr.empty())
    std::printf("        (400 iterations of sum(map(square, iota(60))) "
                "= 400 * 73810)\n");

  std::printf("\ncollector behaviour (DTBFM, %llu-byte trace budget):\n",
              static_cast<unsigned long long>(Policy.TraceMaxBytes));
  std::printf("  total allocated:   %s\n", formatBytes(H.now()).c_str());
  std::printf("  resident at end:   %s\n",
              formatBytes(H.residentBytes()).c_str());
  std::printf("  collections:       %llu\n",
              static_cast<unsigned long long>(H.history().size()));
  uint64_t Traced = 0;
  for (const core::ScavengeRecord &Rec : H.history().records())
    Traced += Rec.TracedBytes;
  std::printf("  bytes traced:      %s\n", formatBytes(Traced).c_str());
  std::printf("  remembered set:    %zu entries\n",
              H.rememberedSet().size());

  if (Dump) {
    std::printf("\nheap demographics at exit:\n");
    runtime::printDemographics(runtime::collectDemographics(H), stdout);
  }

  runtime::VerifyResult V = runtime::verifyHeap(H);
  std::printf("  heap verifier:     %s\n", V.Ok ? "OK" : "FAILED");
  return V.Ok ? 0 : 1;
}
