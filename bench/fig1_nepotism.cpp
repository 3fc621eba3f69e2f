//===- bench/fig1_nepotism.cpp - The paper's Figure 1 on a real heap -----===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
// Reconstructs Figure 1's object graph on the managed runtime and walks
// through the paper's narrative, printing the heap state at each step:
//
//   * a generational (FIXED1-style) boundary strands tenured garbage
//     (I, J) and keeps F alive through nepotism;
//   * the remembered set keeps K alive across the boundary (pointer k);
//   * a dynamic boundary moved back in time untenures I, J, and F and
//     reclaims them without a full collection.
//
//===----------------------------------------------------------------------===//

#include "ExperimentCli.h"

#include "runtime/Heap.h"
#include "runtime/HeapVerifier.h"
#include "support/Table.h"

#include <cstdio>
#include <map>
#include <string>

using namespace dtb;
using namespace dtb::runtime;

namespace {

struct Fig1Heap {
  Heap H;
  std::map<std::string, Object *> Named;

  Fig1Heap() : H(HeapConfig{/*TriggerBytes=*/0,
                            /*QuarantineFreedObjects=*/true}) {}

  Object *make(const std::string &Name, uint32_t Slots) {
    Object *O = H.allocate(Slots, /*RawBytes=*/8);
    Named[Name] = O;
    return O;
  }

  void printState(const char *Caption) {
    std::printf("%s\n", Caption);
    Table T({"Object", "Birth", "State"});
    for (const auto &[Name, O] : Named)
      T.addRow({Name, Table::cell(static_cast<uint64_t>(O->birth())),
                O->isAlive() ? "resident" : "reclaimed"});
    T.print(stdout);
    std::printf("  resident bytes: %llu, remembered-set entries: %zu\n\n",
                static_cast<unsigned long long>(H.residentBytes()),
                H.rememberedSet().size());
  }
};

} // namespace

int dtb::bench::runFig1Nepotism(ExperimentCli &Cli) {
  if (!Cli.parse())
    return 1;

  std::printf("Figure 1: Dynamic Threatening Boundary vs Generations\n");
  std::printf("======================================================\n\n");

  Fig1Heap F;
  Heap &H = F.H;
  HandleScope Roots(H);

  // Old objects (will be immune under the generational boundary).
  // K..G mirror the paper's oldest-to-youngest layout; roots reach the
  // live ones.
  Object *&K = Roots.slot(F.make("K", 1));
  Object *J = F.make("J", 1); // Will become tenured garbage.
  Object *I = F.make("I", 1); // Will become tenured garbage.
  Object *&G = Roots.slot(F.make("G", 1));
  (void)G;

  // The generational boundary: everything allocated after this point is
  // "Generation 0".
  core::AllocClock TbMin = H.now();

  Object *&D = Roots.slot(F.make("D", 2));
  Object *E = F.make("E", 1); // Young garbage.
  (void)E;
  Object *FObj = F.make("F", 1);
  Object *B = F.make("B", 1); // Young garbage.
  (void)B;
  Object *&A = Roots.slot(F.make("A", 1));
  (void)A;

  // Pointers (lower-case labels in the spirit of the figure):
  //   d: D -> Y1, a forward-in-time pointer to a live young object
  //      (remembered; the boundary-crossing root of scavenge 1);
  //   f: I -> F, tenured garbage pointing at a young unreachable object —
  //      the nepotism pointer;
  //   (J -> I): a chain within the tenured garbage;
  //   k: D -> K, backward-in-time — never remembered, K stays reachable
  //      through normal tracing.
  Object *Young1 = F.make("Y1", 0); // D's live young child (pointer d).
  H.writeSlot(D, 0, Young1);
  H.writeSlot(I, 0, FObj); // f: garbage I keeps F via nepotism.
  H.writeSlot(J, 0, I);    // Chain of tenured garbage.
  H.writeSlot(D, 1, K);    // Backward-in-time: no remembered entry needed.

  F.printState("Initial heap (roots: A, D, G, K):");

  // Drop K's direct root: K stays reachable only through D's backward
  // pointer; drop nothing else. I and J were never rooted.
  K = nullptr;

  std::printf("Scavenge 1: generational boundary at TB_min (only young "
              "objects threatened)\n");
  core::ScavengeRecord S1 = H.collectAtBoundary(TbMin);
  std::printf("  traced %llu bytes, reclaimed %llu bytes\n\n",
              static_cast<unsigned long long>(S1.TracedBytes),
              static_cast<unsigned long long>(S1.ReclaimedBytes));
  F.printState("After scavenge 1:");
  std::printf("  -> B and E (young garbage) are gone; I and J survive as\n"
              "     tenured garbage; F survives only because the dead-but-\n"
              "     immune I still points at it (nepotism).\n\n");

  std::printf("Scavenge 2: dynamic boundary moved back to time 0 "
              "(untenuring)\n");
  core::ScavengeRecord S2 = H.collectAtBoundary(0);
  std::printf("  traced %llu bytes, reclaimed %llu bytes\n\n",
              static_cast<unsigned long long>(S2.TracedBytes),
              static_cast<unsigned long long>(S2.ReclaimedBytes));
  F.printState("After scavenge 2:");
  std::printf("  -> I, J and F are reclaimed: the dynamic threatening\n"
              "     boundary collected the tenured garbage without any\n"
              "     generation having to fill up. K remains: it is\n"
              "     reachable from D.\n\n");

  VerifyResult Result = verifyHeap(H);
  std::printf("Heap verifier: %s\n", Result.Ok ? "OK" : "FAILED");
  return Result.Ok ? 0 : 1;
}
