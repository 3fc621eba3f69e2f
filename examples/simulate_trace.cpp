//===- examples/simulate_trace.cpp - Trace-driven policy comparison ------===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
// The paper's methodology as a tool: generate (or load) an allocation
// trace, drive every collector policy over it, and print a comparison in
// the style of the paper's tables. Traces can be saved and reloaded, so a
// trace captured elsewhere (in the binary or text format of
// trace/TraceIO.h) can be analyzed the same way.
//
// Examples:
//   simulate_trace                         # built-in steady workload
//   simulate_trace --workload espresso2    # a paper workload
//   simulate_trace --save /tmp/w.trace     # write the trace out
//   simulate_trace --load /tmp/w.trace     # analyze a saved trace
//
//===----------------------------------------------------------------------===//

#include "core/Policies.h"
#include "serverload/ServerLoad.h"
#include "sim/Simulator.h"
#include "support/CommandLine.h"
#include "support/Table.h"
#include "support/Units.h"
#include "trace/TraceIO.h"
#include "trace/TraceStats.h"
#include "workload/Workload.h"
#include "telemetry/TelemetryCli.h"

#include <cstdio>

using namespace dtb;

int main(int Argc, char **Argv) {
  std::string WorkloadName = "steady";
  std::string LoadPath;
  std::string SavePath;
  uint64_t TotalBytes = 20'000'000;
  uint64_t Seed = 1;
  uint64_t TriggerBytes = 0;
  uint64_t TraceMax = 0;
  uint64_t MemMax = 0;

  OptionParser Parser("Runs every collector policy over an allocation "
                      "trace and prints the comparison tables");
  Parser.addString("workload",
                   "Workload: steady, a paper workload name, or a server "
                   "scenario (frontend, diurnal, flashcrowd, bigdata, "
                   "multitenant)",
                   &WorkloadName);
  Parser.addString("load", "Load a trace file instead of generating",
                   &LoadPath);
  Parser.addString("save", "Also write the trace to this path", &SavePath);
  Parser.addUInt("bytes", "Total allocation for the steady workload",
                 &TotalBytes);
  Parser.addUInt("seed", "Generator seed", &Seed);
  Parser.addUInt("trigger",
                 "Bytes allocated between scavenges (0 = workload default)",
                 &TriggerBytes);
  Parser.addUInt("trace-max",
                 "Pause budget in traced bytes (0 = workload default)",
                 &TraceMax);
  Parser.addUInt("mem-max", "Memory budget in bytes (0 = workload default)",
                 &MemMax);
  telemetry::TelemetryOptions TelemetryOpts;
  telemetry::addTelemetryOptions(Parser, &TelemetryOpts);
  Parser.rejectPositionals();
  if (!Parser.parse(Argc, Argv))
    return 1;
  telemetry::TelemetrySession Telemetry(TelemetryOpts);
  if (!Telemetry.valid())
    return 1;

  // --- Obtain the trace ---------------------------------------------------
  trace::Trace T;
  double ProgramSeconds = 0.0;
  if (!LoadPath.empty()) {
    std::string Error;
    std::optional<trace::Trace> Loaded =
        trace::readTraceFile(LoadPath, &Error);
    if (!Loaded) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    T = std::move(*Loaded);
    ProgramSeconds =
        static_cast<double>(T.totalAllocated()) / 1.0e6; // 1 MB/s nominal.
  } else if (const workload::WorkloadSpec *Spec =
                 workload::findWorkload(WorkloadName)) {
    T = workload::generateTrace(*Spec);
    ProgramSeconds = Spec->ProgramSeconds;
  } else if (const serverload::ServerScenario *Scenario =
                 serverload::findServerScenario(WorkloadName)) {
    T = serverload::generateServerTrace(*Scenario);
    ProgramSeconds = Scenario->ProgramSeconds;
    // Server scenarios carry their own suggested constraint set, scaled to
    // their live levels; the flags still override.
    if (TriggerBytes == 0)
      TriggerBytes = Scenario->TriggerBytes;
    if (TraceMax == 0)
      TraceMax = Scenario->TraceMaxBytes;
    if (MemMax == 0)
      MemMax = Scenario->MemMaxBytes;
  } else if (WorkloadName == "steady") {
    workload::WorkloadSpec Spec =
        workload::makeSteadyStateSpec(TotalBytes, Seed);
    T = workload::generateTrace(Spec);
    ProgramSeconds = Spec.ProgramSeconds;
  } else {
    std::fprintf(stderr, "error: unknown workload '%s'\n",
                 WorkloadName.c_str());
    return 1;
  }

  if (!SavePath.empty()) {
    if (!trace::writeTraceFile(T, SavePath)) {
      std::fprintf(stderr, "error: cannot write '%s'\n", SavePath.c_str());
      return 1;
    }
    std::printf("trace written to %s\n\n", SavePath.c_str());
  }

  // Paper-parameter defaults for everything without its own constraint set.
  if (TriggerBytes == 0)
    TriggerBytes = 1'000'000;
  if (TraceMax == 0)
    TraceMax = 50'000;
  if (MemMax == 0)
    MemMax = 3'000'000;

  // --- Describe it --------------------------------------------------------
  trace::TraceStats Stats = trace::computeTraceStats(T);
  std::printf("trace: %llu objects, %s allocated, live mean/max %s / %s\n\n",
              static_cast<unsigned long long>(Stats.NumObjects),
              formatBytes(Stats.TotalAllocatedBytes).c_str(),
              formatBytes(static_cast<uint64_t>(Stats.LiveMeanBytes)).c_str(),
              formatBytes(Stats.LiveMaxBytes).c_str());

  // --- Run every policy ---------------------------------------------------
  sim::SimulatorConfig SimConfig;
  SimConfig.TriggerBytes = TriggerBytes;
  SimConfig.ProgramSeconds = ProgramSeconds;
  core::PolicyConfig PolicyConfig;
  PolicyConfig.TraceMaxBytes = TraceMax;
  PolicyConfig.MemMaxBytes = MemMax;

  Table Tbl({"Collector", "Mem mean (KB)", "Mem max (KB)", "Median (ms)",
             "90th (ms)", "Traced (KB)", "Overhead (%)", "Scavenges"});
  for (const std::string &Name : core::paperPolicyNames()) {
    auto Policy = core::createPolicy(Name, PolicyConfig);
    SimConfig.TelemetryTrack = "sim/" + WorkloadName + "/" + Name;
    sim::SimulationResult R = sim::simulate(T, *Policy, SimConfig);
    Tbl.addRow({Name, Table::cell(bytesToKB(R.MemMeanBytes)),
                Table::cell(bytesToKB(R.MemMaxBytes)),
                Table::cell(R.PauseMillis.median(), 0),
                Table::cell(R.PauseMillis.percentile90(), 0),
                Table::cell(bytesToKB(R.TotalTracedBytes)),
                Table::cell(R.CpuOverheadPercent, 1),
                Table::cell(R.NumScavenges)});
  }
  Tbl.print(stdout);

  std::printf("\nconstraints: %s trace budget (%.0f ms pauses), %s memory "
              "budget\n",
              formatBytes(TraceMax).c_str(),
              core::MachineModel().pauseMillisForTracedBytes(TraceMax),
              formatBytes(MemMax).c_str());
  return 0;
}
