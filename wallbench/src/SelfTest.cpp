//===- wallbench/src/SelfTest.cpp - The output checker's self-test -------===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
// Shows the output checks can fail: a short ghost run and a short sim-grid
// run must pass clean, and must fail when one held object's stamp is
// corrupted or when an expected count is off by one.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <cstdio>

namespace wallbench {

namespace {

enum class Breakage { None, CorruptStamp, WrongCount };

const char *breakageName(Breakage B) {
  switch (B) {
  case Breakage::None:
    return "clean";
  case Breakage::CorruptStamp:
    return "corrupted stamp";
  case Breakage::WrongCount:
    return "wrong expected count";
  }
  return "?";
}

} // namespace

int runSelfTest() {
  struct Case {
    const char *Workload;
    Breakage Break;
    double Seconds;
  };
  const Case Cases[] = {
      {"ghost", Breakage::None, 0.3},
      {"ghost", Breakage::CorruptStamp, 0.3},
      {"ghost", Breakage::WrongCount, 0.3},
      {"sim-grid", Breakage::None, 1.5},
      {"sim-grid", Breakage::WrongCount, 1.5},
  };
  bool AllOk = true;
  for (const Case &C : Cases) {
    Options Opts;
    Opts.Workload = C.Workload;
    Opts.Seed = 7;
    std::unique_ptr<Workload> W =
        Opts.Workload == "ghost" ? makeGhost(Opts) : makeSimGrid(Opts);
    W->setup();
    Report Rep;
    W->timed(C.Seconds, nullptr, Rep);
    bool Broken = true;
    if (C.Break == Breakage::CorruptStamp)
      Broken = W->corruptOneStamp();
    else if (C.Break == Breakage::WrongCount)
      Broken = W->skewExpectedCount();
    W->check(Rep);
    bool WantCorrect = C.Break == Breakage::None;
    bool Ok = Broken && Rep.correct() == WantCorrect;
    std::printf("self-test %-9s %-21s -> check %s (%s)\n", C.Workload,
                breakageName(C.Break), Rep.correct() ? "PASS" : "FAIL",
                Ok ? "as expected" : "UNEXPECTED");
    for (const std::string &P : Rep.problems())
      std::printf("    %s\n", P.c_str());
    AllOk = AllOk && Ok;
  }
  std::printf("self-test: %s\n", AllOk ? "ok" : "FAILED");
  return AllOk ? 0 : 1;
}

} // namespace wallbench
