/**
 * @file
 * Simulator fingerprint table: the modelled behaviour of the paper
 * suite, pinned as checked-in numbers instead of a live comparison
 * against a second executor.
 *
 * One row per workload x tiles {1, 4} x faults {off, one fixed seed}
 * records the run's outcome, cycles, progress events, idle-skipped
 * cycles and a hash of the stats map (profiling on, so the profile.*
 * buckets are covered too). Fault-off rows also hash the --explain
 * report and the traced event stream of a second, observed run. Its
 * sinks keep every tile awake, so checking its cycles against the
 * unobserved run's pins tile sleep to per-tile ticking. The
 * saxpy_dram rows (a tiny cache over slow, narrow DRAM) are where
 * idle skip and tile sleep cover most of the run.
 *
 * A deliberate timing-model change makes this test fail and print
 * the full actual table in the syntax of kTable below: review the
 * diff, then paste it over kTable.
 */

#include <cstdint>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "driver/engine.hh"
#include "sim/accel.hh"
#include "sim/fault.hh"
#include "sim/trace.hh"
#include "support/hash.hh"
#include "workloads/workload.hh"

using namespace tapas;

namespace {

struct Row
{
    std::string workload;
    unsigned tiles = 0;
    bool faults = false;  ///< fixed-seed fault injector attached
    std::string outcome;  ///< "ok" or the structured failure kind
    uint64_t cycles = 0;
    uint64_t events = 0;  ///< AcceleratorSim::progressCount()
    uint64_t skipped = 0; ///< AcceleratorSim::skippedCycles()
    std::string stats;   ///< fnv1aHex of the stats map
    std::string explain; ///< fnv1aHex of the --explain report
    std::string trace;   ///< fnv1aHex of the traced event stream

    bool
    operator==(const Row &o) const
    {
        return workload == o.workload && tiles == o.tiles &&
               faults == o.faults && outcome == o.outcome &&
               cycles == o.cycles && events == o.events &&
               skipped == o.skipped && stats == o.stats &&
               explain == o.explain && trace == o.trace;
    }
};

// clang-format off
const std::vector<Row> kTable = {
    {"matrix_add", 1, false, "ok", 5535, 18462, 1597, "b7caf8fdd18810fb", "5afc9056f67e94b2", "f19ac139ddfa3246"},
    {"stencil", 1, false, "ok", 19105, 149085, 1336, "a3cf52c481606786", "efbcce35152b55ab", "07cd72b9e67a790d"},
    {"saxpy", 1, false, "ok", 7052, 25623, 62, "8668101785b0b7b8", "1031023cb72a7349", "52205c9b7a8f238a"},
    {"image_scale", 1, false, "ok", 36270, 102897, 2373, "b0a94361966d00db", "0f9fe89f0745438d", "62de5151f747f848"},
    {"dedup", 1, false, "ok", 2414, 112840, 52, "ccf8aee0390fd0ed", "33ef45af972fe40f", "552924937043a8b2"},
    {"fib", 1, false, "ok", 2246, 15011, 289, "30f417fa0672ec31", "68690663cb9008ec", "3bae6f8ebc75d1b8"},
    {"mergesort", 1, false, "ok", 79992, 384391, 1037, "1f73f21bff6a3091", "5fbf9b9a191ee926", "c022ea50783a6ca5"},
    {"saxpy_dram", 1, false, "ok", 105337, 51239, 88140, "00ce6770a3dac836", "1a105a31883f6ecf", "7bc14d32e9cabadc"},
    {"matrix_add", 1, true, "ok", 5528, 18464, 0, "d285fce223f3ab54", "", ""},
    {"stencil", 1, true, "ok", 18992, 149145, 0, "768c97a8290ec851", "", ""},
    {"saxpy", 1, true, "ok", 8055, 25624, 0, "dff2bdbf2dc719f6", "", ""},
    {"image_scale", 1, true, "ok", 37712, 102914, 0, "42bcb1506647deb3", "", ""},
    {"dedup", 1, true, "ok", 2454, 112840, 0, "e921ab9bbd6d3bb0", "", ""},
    {"fib", 1, true, "ok", 2270, 15004, 0, "d1698146ef921bec", "", ""},
    {"mergesort", 1, true, "ok", 95209, 384393, 0, "9a34da7498b9699a", "", ""},
    {"saxpy_dram", 1, true, "ok", 105337, 51280, 0, "24dc7b649c0a3679", "", ""},
    {"matrix_add", 4, false, "ok", 2682, 18469, 92, "cfe47d5728e31e3a", "a1e5fa8ef300b507", "35a441f05b9cef00"},
    {"stencil", 4, false, "ok", 5687, 149027, 762, "eaf59480d17c9ad8", "087dc8941a375d61", "f368d8e78d487592"},
    {"saxpy", 4, false, "ok", 3258, 25623, 68, "12f569dc482a45b6", "06deb920bda68e1f", "8739b66f34e45498"},
    {"image_scale", 4, false, "ok", 9581, 102907, 64, "34ef5c3fdaf918bd", "a735016d67bbe342", "6f38f08d423505ee"},
    {"dedup", 4, false, "ok", 2311, 112848, 52, "95e746f3af93951b", "000789ce9240b4ae", "ef3eafc5989a7d39"},
    {"fib", 4, false, "ok", 1502, 15007, 199, "f7d749985081f1fc", "570e7d13f55f1176", "4c1495a5e7f7de5d"},
    {"mergesort", 4, false, "ok", 56172, 384389, 126, "d1b31717f2e555d8", "970f36711c0ad608", "e52ab6b355a91e93"},
    {"saxpy_dram", 4, false, "ok", 105299, 51239, 87481, "e97d9f16dcd02070", "2a9a33b427024087", "7d476703d0faf63e"},
    {"matrix_add", 4, true, "ok", 2755, 18469, 0, "2541878e5558521e", "", ""},
    {"stencil", 4, true, "ok", 5729, 149030, 0, "6c9e9569dd746731", "", ""},
    {"saxpy", 4, true, "ok", 3768, 25623, 0, "e3900f7b65bc1d54", "", ""},
    {"image_scale", 4, true, "ok", 10183, 102910, 0, "fbd776f14cfdc7d7", "", ""},
    {"dedup", 4, true, "ok", 2400, 112847, 0, "3e482acbdfcf60e6", "", ""},
    {"fib", 4, true, "ok", 1500, 15033, 0, "2b4bcf03e9d929c5", "", ""},
    {"mergesort", 4, true, "ok", 62695, 384387, 0, "af48a8e37a804d31", "", ""},
    {"saxpy_dram", 4, true, "ok", 105113, 51262, 0, "02e20236b577df9c", "", ""},
};
// clang-format on

/**
 * The paper suite at test-sized inputs (bench/common.hh shapes), plus
 * saxpy stalled on far memory.
 */
std::vector<workloads::Workload (*)()>
suite()
{
    return {
        [] { return workloads::makeMatrixAdd(24); },
        [] { return workloads::makeStencil(16, 16, 1); },
        [] { return workloads::makeSaxpy(1024); },
        [] { return workloads::makeImageScale(32, 16); },
        [] { return workloads::makeDedup(16, 128); },
        [] { return workloads::makeFib(12); },
        [] { return workloads::makeMergeSort(512, 32); },
        [] {
            auto w = workloads::makeSaxpy(2048);
            w.name = "saxpy_dram";
            w.params.mem.cacheBytes = 4 * 1024;
            w.params.mem.dramLatency = 400;
            w.params.mem.dramWordsPerCycle = 1;
            w.params.mem.mshrs = 2;
            return w;
        },
    };
}

sim::FaultConfig
fixedSeedFaults()
{
    sim::FaultConfig fc;
    fc.seed = 0xfeedu;
    fc.spawnDropRate = 1e-3;
    fc.queueCorruptRate = 1e-3;
    fc.memDropRate = 1e-3;
    fc.memDelayRate = 1e-3;
    fc.tileStuckRate = 1e-3;
    return fc;
}

std::string
hashStats(const std::map<std::string, double> &stats)
{
    std::string text;
    for (const auto &[name, value] : stats)
        text += strfmt("%s=%.17g\n", name.c_str(), value);
    return fnv1aHex(text);
}

std::string
hashTrace(const std::vector<sim::TraceEvent> &events)
{
    std::string text;
    for (const sim::TraceEvent &e : events) {
        text += strfmt("%llu %u %u %u\n",
                       static_cast<unsigned long long>(e.cycle),
                       static_cast<unsigned>(e.kind), e.sid, e.slot);
    }
    return fnv1aHex(text);
}

Row
fingerprint(workloads::Workload (*make)(), unsigned tiles, bool faults)
{
    driver::AccelSimEngine::Options eo;
    eo.tiles = tiles;
    if (faults)
        eo.fault = fixedSeedFaults();

    Row row;
    row.tiles = tiles;
    row.faults = faults;

    driver::AccelSimEngine::Options counted = eo;
    counted.observer = [&](const hls::AcceleratorDesign &,
                           sim::AcceleratorSim &sim) {
        row.events = sim.progressCount();
        row.skipped = sim.skippedCycles();
    };
    workloads::Workload w = make();
    row.workload = w.name;
    driver::RunOptions ro;
    ro.profile = true;
    driver::RunResult r = driver::AccelSimEngine(std::move(counted))
                              .runWorkload(w, ro);
    row.outcome = r.ok() ? "ok" : r.failure->kind;
    row.cycles = r.cycles;
    row.stats = hashStats(r.stats);
    if (faults)
        return row;

    EXPECT_TRUE(r.ok()) << row.workload;
    EXPECT_EQ(r.verifyError, "") << row.workload;

    sim::TaskTracer tracer;
    eo.tracer = &tracer;
    workloads::Workload wo = make();
    driver::RunOptions explain;
    explain.explain = true;
    driver::RunResult o = driver::AccelSimEngine(std::move(eo))
                              .runWorkload(wo, explain);
    EXPECT_EQ(o.cycles, r.cycles) << row.workload;
    EXPECT_TRUE(o.bottleneck.has_value()) << row.workload;
    row.explain = fnv1aHex(o.bottleneckReport +
                           (o.bottleneck ? o.bottleneck->toJson().dump()
                                         : std::string()));
    row.trace = hashTrace(tracer.all());
    return row;
}

std::string
render(const Row &r)
{
    return strfmt("    {\"%s\", %u, %s, \"%s\", %llu, %llu, %llu, "
                  "\"%s\", \"%s\", \"%s\"},",
                  r.workload.c_str(), r.tiles,
                  r.faults ? "true" : "false", r.outcome.c_str(),
                  static_cast<unsigned long long>(r.cycles),
                  static_cast<unsigned long long>(r.events),
                  static_cast<unsigned long long>(r.skipped),
                  r.stats.c_str(), r.explain.c_str(), r.trace.c_str());
}

TEST(SimFingerprint, SuiteMatchesCheckedInTable)
{
    std::vector<Row> actual;
    for (unsigned tiles : {1u, 4u})
        for (bool faults : {false, true})
            for (auto make : suite())
                actual.push_back(fingerprint(make, tiles, faults));

    size_t mismatches = 0;
    for (size_t i = 0; i < actual.size(); ++i) {
        if (i >= kTable.size() || !(actual[i] == kTable[i])) {
            ++mismatches;
            ADD_FAILURE() << "row " << i << " differs\n  actual: "
                          << render(actual[i]) << "\n  table:  "
                          << (i < kTable.size() ? render(kTable[i])
                                                : "(missing)");
        }
    }
    EXPECT_EQ(actual.size(), kTable.size());
    if (mismatches != 0 || actual.size() != kTable.size()) {
        std::cout << "actual fingerprint table:\n"
                  << "const std::vector<Row> kTable = {\n";
        for (const Row &r : actual)
            std::cout << render(r) << "\n";
        std::cout << "};\n";
    }
}

} // namespace
