//===- runtime/HeapDump.cpp -----------------------------------------------==//

#include "runtime/HeapDump.h"

#include "runtime/Heap.h"
#include "runtime/HeapVerifier.h"
#include "runtime/Mutator.h"

#include <algorithm>
#include <unordered_set>

using namespace dtb;
using namespace dtb::runtime;
using core::AllocClock;

namespace {

size_t bandIndexForAge(AllocClock Age, AllocClock Base, size_t NumBands) {
  AllocClock Hi = Base;
  for (size_t I = 0; I + 1 < NumBands; ++I) {
    if (Age < Hi)
      return I;
    Hi *= 2;
  }
  return NumBands - 1;
}

} // namespace

HeapDemographics
dtb::runtime::collectDemographics(const Heap &H, AllocClock BaseAgeBytes) {
  HeapDemographics Demo;
  Demo.ResidentObjects = H.residentObjects();
  Demo.ResidentBytes = H.residentBytes();
  Demo.RememberedSetEntries = H.rememberedSet().size();

  if (BaseAgeBytes == 0)
    BaseAgeBytes = 1;

  // Enough doubling bands to cover the whole clock.
  size_t NumBands = 1;
  for (AllocClock Span = BaseAgeBytes; Span < H.now() && NumBands < 40;
       Span *= 2)
    ++NumBands;
  Demo.Bands.resize(NumBands);
  AllocClock Lo = 0, Width = BaseAgeBytes;
  for (size_t I = 0; I != NumBands; ++I) {
    Demo.Bands[I].AgeLo = Lo;
    Demo.Bands[I].AgeHi = I + 1 == NumBands ? ~0ull : Lo + Width;
    Lo += Width;
    Width *= 2;
  }

  std::unordered_set<const Object *> Reachable = reachableObjects(H);
  for (const Object *O : H.objects()) {
    AllocClock Age = H.now() - O->birth();
    AgeBand &Band =
        Demo.Bands[bandIndexForAge(Age, BaseAgeBytes, NumBands)];
    Band.ResidentObjects += 1;
    Band.ResidentBytes += O->grossBytes();
    if (Reachable.count(O)) {
      Band.ReachableBytes += O->grossBytes();
      Demo.ReachableBytes += O->grossBytes();
    }
  }

  Demo.DegradationEventsTotal = H.totalDegradationEvents();
  constexpr size_t MaxRecent = 8;
  const std::deque<DegradationEvent> &Log = H.degradationLog();
  for (const DegradationEvent &Event : Log)
    Demo.DegradationCounts[static_cast<unsigned>(Event.Kind)] += 1;
  size_t First = Log.size() > MaxRecent ? Log.size() - MaxRecent : 0;
  for (size_t I = First; I != Log.size(); ++I)
    Demo.RecentDegradations.push_back(describeDegradation(Log[I]));

  IncrementalCycleInfo Cycle = H.incrementalCycleInfo();
  Demo.CycleActive = Cycle.Active;
  Demo.CycleBoundary = Cycle.Boundary;
  Demo.CycleBlackClock = Cycle.BlackClock;
  Demo.CycleGrayObjects = Cycle.GrayObjects;
  Demo.CycleGrayBytes = Cycle.GrayBytes;
  Demo.CyclePendingGrayObjects = Cycle.PendingGrayObjects;
  Demo.CycleTracedBytes = Cycle.TracedBytes;
  Demo.CycleQuanta = Cycle.Quanta;
  Demo.CycleBudgetBytes = Cycle.BudgetBytes;
  Demo.CycleSerialDegraded = Cycle.SerialDegraded;

  Demo.Phase = gcPhaseName(H.phase());
  Demo.MutatorContexts = H.mutatorContexts().size();
  MutatorRuntimeStats Mut = H.mutatorStats();
  Demo.SafepointRendezvous = Mut.SafepointRendezvous;
  Demo.TlabBlocksResident = Mut.TlabBlocksResident;
  Demo.TlabCarvedBytes = Mut.TlabCarvedBytes;
  Demo.TlabWastedBytes = Mut.TlabWastedBytes;
  Demo.PublishedObjects = Mut.PublishedObjects;
  Demo.BarrierFlushes = Mut.BarrierFlushes;

  for (const MutatorContext *Ctx : H.mutatorContexts()) {
    const MutatorContext::Stats &S = Ctx->stats();
    HeapDemographics::MutatorRow Row;
    Row.Id = Ctx->id();
    Row.State = mutatorStateName(Ctx->state());
    Row.Allocations = S.Allocations;
    Row.AllocatedBytes = S.AllocatedBytes;
    Row.TlabRefills = S.TlabRefills;
    Row.BarrierBufferedEntries = S.BarrierBufferedEntries;
    Row.BarrierFlushes = S.BarrierFlushes;
    Row.SafepointYields = S.SafepointYields;
    Row.TriggeredCollections = S.TriggeredCollections;
#if DTB_TELEMETRY
    Row.TlabWastedBytes = S.Obs.TlabWastedBytes;
    Row.BarrierHighWater = S.Obs.BarrierHighWater;
    Row.SafepointPolls = S.Obs.SafepointPolls;
    Row.Parks = S.Obs.Parks;
#endif
    Demo.Mutators.push_back(std::move(Row));
  }

  const SafepointRendezvousRecord &R = H.lastSafepointRendezvous();
  Demo.RendezvousSerial = R.Serial;
  Demo.RendezvousTtspMillis = R.TtspMillis;
  Demo.RendezvousArrivals = R.Contexts;
  Demo.RendezvousStragglerContext = R.StragglerContext;
  Demo.RendezvousStraggler = stragglerKindName(R.Straggler);

  Demo.FlightEventsRecorded = H.flightRecorder().recorded();
  for (const FlightEvent &E : H.flightRecorder().snapshot())
    Demo.FlightEvents.push_back(
        "[" + std::to_string(E.Seq) + "] t=" + std::to_string(E.Time) + " " +
        describeFlightEvent(E));
  return Demo;
}

void dtb::runtime::printDemographics(const HeapDemographics &Demo,
                                     std::FILE *Out) {
  std::fprintf(Out,
               "heap: %llu objects, %llu bytes resident, %llu reachable "
               "(%.0f%%), %zu remembered entries\n",
               static_cast<unsigned long long>(Demo.ResidentObjects),
               static_cast<unsigned long long>(Demo.ResidentBytes),
               static_cast<unsigned long long>(Demo.ReachableBytes),
               Demo.ResidentBytes == 0
                   ? 0.0
                   : 100.0 * static_cast<double>(Demo.ReachableBytes) /
                         static_cast<double>(Demo.ResidentBytes),
               Demo.RememberedSetEntries);

  uint64_t MaxBytes = 1;
  for (const AgeBand &Band : Demo.Bands)
    MaxBytes = std::max(MaxBytes, Band.ResidentBytes);

  std::fprintf(Out, "%22s %10s %10s %10s  %s\n", "age (bytes alloc'd)",
               "objects", "resident", "reachable", "bytes");
  for (const AgeBand &Band : Demo.Bands) {
    if (Band.ResidentObjects == 0)
      continue;
    char Range[48];
    if (Band.AgeHi == ~0ull)
      std::snprintf(Range, sizeof(Range), ">=%llu",
                    static_cast<unsigned long long>(Band.AgeLo));
    else
      std::snprintf(Range, sizeof(Range), "%llu-%llu",
                    static_cast<unsigned long long>(Band.AgeLo),
                    static_cast<unsigned long long>(Band.AgeHi));
    int BarLength = static_cast<int>(40 * Band.ResidentBytes / MaxBytes);
    std::fprintf(Out, "%22s %10llu %10llu %10llu  %.*s\n", Range,
                 static_cast<unsigned long long>(Band.ResidentObjects),
                 static_cast<unsigned long long>(Band.ResidentBytes),
                 static_cast<unsigned long long>(Band.ReachableBytes),
                 BarLength,
                 "########################################");
  }

  if (Demo.CycleActive) {
    std::fprintf(Out,
                 "incremental cycle: tb=%llu black=%llu gray %llu objects / "
                 "%llu bytes (+%llu pending), %llu quanta so far, traced "
                 "%llu, budget %llu%s\n",
                 static_cast<unsigned long long>(Demo.CycleBoundary),
                 static_cast<unsigned long long>(Demo.CycleBlackClock),
                 static_cast<unsigned long long>(Demo.CycleGrayObjects),
                 static_cast<unsigned long long>(Demo.CycleGrayBytes),
                 static_cast<unsigned long long>(Demo.CyclePendingGrayObjects),
                 static_cast<unsigned long long>(Demo.CycleQuanta),
                 static_cast<unsigned long long>(Demo.CycleTracedBytes),
                 static_cast<unsigned long long>(Demo.CycleBudgetBytes),
                 Demo.CycleSerialDegraded ? " [watchdog: serial-degraded]"
                                          : "");
  }

  if (Demo.MutatorContexts != 0) {
    std::fprintf(Out,
                 "mutators: %llu context%s, phase %s, %llu rendezvous; tlab "
                 "%llu blocks resident (%llu carved, %llu wasted bytes), "
                 "%llu published, %llu barrier flushes\n",
                 static_cast<unsigned long long>(Demo.MutatorContexts),
                 Demo.MutatorContexts == 1 ? "" : "s", Demo.Phase.c_str(),
                 static_cast<unsigned long long>(Demo.SafepointRendezvous),
                 static_cast<unsigned long long>(Demo.TlabBlocksResident),
                 static_cast<unsigned long long>(Demo.TlabCarvedBytes),
                 static_cast<unsigned long long>(Demo.TlabWastedBytes),
                 static_cast<unsigned long long>(Demo.PublishedObjects),
                 static_cast<unsigned long long>(Demo.BarrierFlushes));
    for (const HeapDemographics::MutatorRow &Row : Demo.Mutators)
      std::fprintf(Out,
                   "  ctx %llu [%s]: %llu allocs / %llu bytes, %llu tlab "
                   "refills (%llu wasted), barrier %llu buffered (hw %llu) "
                   "/ %llu flushes, %llu yields / %llu polls / %llu parks, "
                   "%llu triggered\n",
                   static_cast<unsigned long long>(Row.Id), Row.State.c_str(),
                   static_cast<unsigned long long>(Row.Allocations),
                   static_cast<unsigned long long>(Row.AllocatedBytes),
                   static_cast<unsigned long long>(Row.TlabRefills),
                   static_cast<unsigned long long>(Row.TlabWastedBytes),
                   static_cast<unsigned long long>(Row.BarrierBufferedEntries),
                   static_cast<unsigned long long>(Row.BarrierHighWater),
                   static_cast<unsigned long long>(Row.BarrierFlushes),
                   static_cast<unsigned long long>(Row.SafepointYields),
                   static_cast<unsigned long long>(Row.SafepointPolls),
                   static_cast<unsigned long long>(Row.Parks),
                   static_cast<unsigned long long>(Row.TriggeredCollections));
    if (Demo.RendezvousSerial != 0)
      std::fprintf(Out,
                   "  safepoint: rendezvous #%llu ttsp %.3f ms, %llu "
                   "arrival%s, straggler ctx %llu (%s)\n",
                   static_cast<unsigned long long>(Demo.RendezvousSerial),
                   Demo.RendezvousTtspMillis,
                   static_cast<unsigned long long>(Demo.RendezvousArrivals),
                   Demo.RendezvousArrivals == 1 ? "" : "s",
                   static_cast<unsigned long long>(
                       Demo.RendezvousStragglerContext),
                   Demo.RendezvousStraggler.c_str());
  }

  if (Demo.FlightEventsRecorded != 0) {
    std::fprintf(Out, "flight recorder: %llu event%s recorded, last %zu:\n",
                 static_cast<unsigned long long>(Demo.FlightEventsRecorded),
                 Demo.FlightEventsRecorded == 1 ? "" : "s",
                 Demo.FlightEvents.size());
    for (const std::string &Line : Demo.FlightEvents)
      std::fprintf(Out, "  %s\n", Line.c_str());
  }

  if (Demo.DegradationEventsTotal != 0) {
    std::fprintf(Out, "degradation: %llu event%s",
                 static_cast<unsigned long long>(Demo.DegradationEventsTotal),
                 Demo.DegradationEventsTotal == 1 ? "" : "s");
    for (unsigned Kind = 0; Kind != NumDegradationKinds; ++Kind)
      if (Demo.DegradationCounts[Kind] != 0)
        std::fprintf(Out, " %s=%llu",
                     degradationKindName(static_cast<DegradationKind>(Kind)),
                     static_cast<unsigned long long>(
                         Demo.DegradationCounts[Kind]));
    std::fprintf(Out, "\n");
    for (const std::string &Line : Demo.RecentDegradations)
      std::fprintf(Out, "  %s\n", Line.c_str());
  }
}
