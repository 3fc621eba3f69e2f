//===- examples/object_cache.cpp - A weakly-held object cache ------------===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
// The classic weak-reference application on the managed runtime: a
// memoizing cache that holds its entries *weakly*, so cached values live
// exactly as long as the collector lets them. A "document store"
// repeatedly renders documents; renders are cached. Hits cost nothing;
// misses re-render. The collector — DTBMEM with a user-supplied memory
// budget — decides how much cache the program can afford, which is the
// paper's proposition in miniature: the user states "use at most N
// bytes", and cache capacity follows from it instead of being one more
// knob to tune.
//
// The run reports hit rates under shrinking memory budgets: the smaller
// the budget, the younger the threatening boundary can't afford to stay,
// the faster weakly-held renders are reclaimed, the lower the hit rate.
//
//===----------------------------------------------------------------------===//

#include "core/Policies.h"
#include "runtime/Heap.h"
#include "runtime/HeapVerifier.h"
#include "runtime/WeakRef.h"
#include "support/CommandLine.h"
#include "support/Random.h"
#include "support/Table.h"
#include "support/Units.h"

#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

using namespace dtb;
using runtime::HandleScope;
using runtime::Heap;
using runtime::Object;
using runtime::WeakRef;

namespace {

/// A rendered document: header word + payload bytes on the managed heap.
Object *renderDocument(Heap &H, uint32_t DocumentId, uint32_t Size) {
  Object *Render = H.allocate(/*NumSlots=*/0, /*RawBytes=*/Size);
  auto *Words = static_cast<uint32_t *>(Render->rawData());
  Words[0] = DocumentId; // "Rendered content".
  return Render;
}

struct CacheStats {
  uint64_t Requests = 0;
  uint64_t Hits = 0;
  double hitRate() const {
    return Requests == 0 ? 0.0
                         : static_cast<double>(Hits) /
                               static_cast<double>(Requests);
  }
};

} // namespace

int main(int Argc, char **Argv) {
  uint64_t NumDocuments = 64;
  uint64_t Requests = 20'000;
  uint64_t RenderBytes = 2'000;
  OptionParser Parser("A weakly-held render cache whose capacity is set "
                      "by the collector's memory budget");
  Parser.addUInt("documents", "Distinct documents", &NumDocuments);
  Parser.addUInt("requests", "Total render requests", &Requests);
  Parser.addUInt("render-bytes", "Payload bytes per render", &RenderBytes);
  Parser.rejectPositionals();
  if (!Parser.parse(Argc, Argv))
    return 1;

  std::printf("Weak render cache: %llu documents x %llu requests, %s per "
              "render\n\n",
              static_cast<unsigned long long>(NumDocuments),
              static_cast<unsigned long long>(Requests),
              formatBytes(RenderBytes).c_str());

  Table Tbl({"Memory budget", "Hit rate", "Renders", "Collections",
             "Resident at end"});
  for (uint64_t BudgetKB : {400ull, 200ull, 100ull, 50ull}) {
    runtime::HeapConfig Config;
    Config.TriggerBytes = 20'000;
    Heap H(Config);
    core::PolicyConfig Policy;
    Policy.MemMaxBytes = BudgetKB * 1000;
    H.setPolicy(core::createPolicy("dtbmem", Policy));

    // The cache: one weak reference per document. Weak references do not
    // root their targets, so the collector is free to reclaim renders
    // whenever the memory budget demands it.
    std::vector<std::unique_ptr<WeakRef>> Cache;
    for (uint64_t I = 0; I != NumDocuments; ++I)
      Cache.push_back(std::make_unique<WeakRef>(H));

    HandleScope Scope(H);
    Object *&Current = Scope.slot(nullptr); // The render being "served".

    CacheStats Stats;
    uint64_t Renders = 0;
    Rng R(0xCACE + BudgetKB);
    for (uint64_t Step = 0; Step != Requests; ++Step) {
      // Zipf-ish popularity: square the uniform draw toward document 0.
      double U = R.nextDouble();
      auto DocumentId =
          static_cast<uint32_t>(U * U * static_cast<double>(NumDocuments));

      Stats.Requests += 1;
      if (Object *Cached = Cache[DocumentId]->get()) {
        Stats.Hits += 1;
        Current = Cached; // Serve the cached render.
      } else {
        Current = renderDocument(H, DocumentId,
                                 static_cast<uint32_t>(RenderBytes));
        Cache[DocumentId]->set(Current);
        Renders += 1;
      }
      // Per-request transient work (the reason collections happen at all).
      H.allocate(0, 64);
    }

    Tbl.addRow({Table::cell(static_cast<uint64_t>(BudgetKB)) + " KB",
                Table::cell(Stats.hitRate() * 100.0, 1) + "%",
                Table::cell(Renders), Table::cell(H.history().size()),
                formatBytes(H.residentBytes())});

    runtime::VerifyResult V = runtime::verifyHeap(H);
    if (!V.Ok) {
      std::fprintf(stderr, "heap verification failed: %s\n",
                   V.Problems.front().c_str());
      return 1;
    }
  }
  Tbl.print(stdout);

  std::printf("\nOne knob, stated in the user's units: shrink the memory "
              "budget and the\ncollector reclaims weakly-held renders "
              "sooner, trading hit rate for\nfootprint — no cache-size "
              "parameter anywhere.\n");
  return 0;
}
