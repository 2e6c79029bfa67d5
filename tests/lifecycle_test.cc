/**
 * @file
 * Tests for the run-lifecycle layer: cooperative cancellation
 * (support/cancel.hh), graceful sweep draining (driver/jobrunner.hh),
 * engine-level deadlines and checkpoints (driver/engine.hh), the
 * versioned replay snapshot (driver/snapshot.hh), and the two
 * serialization properties everything above leans on — atomic file
 * commits and byte-stable JSON round-trips.
 *
 * The headline contract pinned here: interrupting a run and resuming
 * it (v1 snapshots replay the full recipe) produces a RunResult
 * byte-identical to a run that was never interrupted, fault-injected
 * runs included.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "driver/engine.hh"
#include "driver/jobrunner.hh"
#include "driver/snapshot.hh"
#include "sim/fault.hh"
#include "support/atomic_file.hh"
#include "support/cancel.hh"
#include "support/json.hh"
#include "workloads/workload.hh"

using namespace tapas;

namespace {

/** Per-test scratch path under gtest's temp dir. */
std::string
tmpPath(const std::string &name)
{
    return (std::filesystem::path(testing::TempDir()) / name)
        .string();
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

// ---------------------------------------------------------------
// CancelToken
// ---------------------------------------------------------------

TEST(CancelToken, FreshTokenIsLive)
{
    CancelToken tok;
    EXPECT_FALSE(tok.cancelled());
    EXPECT_FALSE(tok.shouldStop());
    EXPECT_EQ(tok.reason(), CancelToken::Reason::None);
}

TEST(CancelToken, CancelLatchesFirstReason)
{
    CancelToken tok;
    tok.cancel();
    EXPECT_TRUE(tok.cancelled());
    EXPECT_TRUE(tok.shouldStop());
    EXPECT_EQ(tok.reason(), CancelToken::Reason::Cancelled);
    // Idempotent: a later trip for a different reason does not
    // rewrite history.
    tok.cancel(CancelToken::Reason::Deadline);
    EXPECT_EQ(tok.reason(), CancelToken::Reason::Cancelled);
}

TEST(CancelToken, DeadlineTripsAndLatches)
{
    CancelToken tok;
    tok.setDeadlineSeconds(1e-9);
    // cancelled() never reads the clock, so the expired deadline is
    // invisible to it until shouldStop() latches.
    EXPECT_FALSE(tok.cancelled());
    EXPECT_TRUE(tok.shouldStop());
    EXPECT_TRUE(tok.cancelled());
    EXPECT_EQ(tok.reason(), CancelToken::Reason::Deadline);
}

TEST(CancelToken, DisarmedDeadlineNeverFires)
{
    CancelToken tok;
    tok.setDeadlineSeconds(1e-9);
    tok.setDeadlineSeconds(0); // disarm before anyone polled
    EXPECT_FALSE(tok.shouldStop());
}

TEST(CancelToken, ChildTripsWithParent)
{
    CancelToken parent;
    CancelToken child(&parent);
    EXPECT_FALSE(child.shouldStop());
    parent.cancel();
    EXPECT_TRUE(child.cancelled());
    EXPECT_TRUE(child.shouldStop());
    // The parent's reason is latched into the child.
    EXPECT_EQ(child.reason(), CancelToken::Reason::Cancelled);
}

TEST(CancelToken, ChildDeadlineIsIndependent)
{
    CancelToken parent;
    CancelToken child(&parent);
    child.setDeadlineSeconds(1e-9);
    EXPECT_TRUE(child.shouldStop());
    EXPECT_EQ(child.reason(), CancelToken::Reason::Deadline);
    // The child's own deadline never propagates up.
    EXPECT_FALSE(parent.shouldStop());
}

TEST(CancelToken, ReasonNames)
{
    EXPECT_STREQ(cancelReasonName(CancelToken::Reason::Cancelled),
                 "cancelled");
    EXPECT_STREQ(cancelReasonName(CancelToken::Reason::Deadline),
                 "deadline");
}

// ---------------------------------------------------------------
// Graceful drain: JobRunner and Sweep
// ---------------------------------------------------------------

TEST(JobRunner, PreTrippedTokenSkipsEverything)
{
    CancelToken tok;
    tok.cancel();
    driver::JobRunner runner(4, &tok);
    std::atomic<int> count{0};
    for (int i = 0; i < 10; ++i)
        runner.submit([&] { ++count; });
    runner.wait();
    EXPECT_EQ(count.load(), 0);
    EXPECT_EQ(runner.skippedCount(), 10u);
    EXPECT_TRUE(runner.draining());
}

TEST(JobRunner, StopOnErrorDrainsTheRest)
{
    // Inline mode: jobs run in submit order, so the drain point is
    // exact — jobs 0..2 run, 3 throws, 4..9 are skipped.
    driver::JobRunner runner(1, nullptr, /*stop_on_error=*/true);
    std::atomic<int> count{0};
    for (int i = 0; i < 10; ++i) {
        runner.submit([&count, i] {
            if (i == 3)
                throw std::runtime_error("fatal config");
            ++count;
        });
    }
    runner.wait();
    EXPECT_EQ(count.load(), 3);
    EXPECT_EQ(runner.failureCount(), 1u);
    EXPECT_EQ(runner.skippedCount(), 6u);
}

TEST(Sweep, CancelMidSweepSkipsDeterministically)
{
    CancelToken tok;
    driver::Sweep<int> sweep(1, &tok);
    for (int i = 0; i < 8; ++i) {
        sweep.add([i, &tok] {
            if (i == 2)
                tok.cancel();
            return i + 100;
        });
    }
    std::vector<int> r = sweep.run();
    ASSERT_EQ(r.size(), 8u);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(r[i], i + 100);
    for (int i = 3; i < 8; ++i)
        EXPECT_EQ(r[i], 0) << "slot " << i << " should be skipped";
    EXPECT_TRUE(sweep.drained());
    EXPECT_EQ(sweep.skipped(),
              (std::set<size_t>{3, 4, 5, 6, 7}));
}

TEST(Sweep, StopOnErrorDrainsTheRest)
{
    driver::Sweep<int> sweep(1, nullptr, /*stop_on_error=*/true);
    for (int i = 0; i < 6; ++i) {
        sweep.add([i]() -> int {
            if (i == 1)
                throw std::runtime_error("boom");
            return i + 1;
        });
    }
    std::vector<int> r = sweep.run();
    EXPECT_EQ(r[0], 1);
    EXPECT_EQ(sweep.errors().count(1), 1u);
    EXPECT_EQ(sweep.skipped(), (std::set<size_t>{2, 3, 4, 5}));
}

// ---------------------------------------------------------------
// Engine lifecycle: deadlines, cancellation, checkpoints
// ---------------------------------------------------------------

driver::RunResult
runSaxpy(const driver::RunOptions &ro,
         std::optional<sim::FaultConfig> fault = std::nullopt)
{
    auto w = workloads::makeSaxpy(128);
    driver::AccelSimEngine::Options eo;
    eo.fault = fault;
    driver::AccelSimEngine eng(std::move(eo));
    return eng.runWorkload(w, ro);
}

TEST(EngineLifecycle, CancelBeforeFirstCycle)
{
    CancelToken tok;
    tok.cancel();
    driver::RunOptions ro;
    ro.cancel = &tok;
    driver::RunResult r = runSaxpy(ro);
    EXPECT_TRUE(r.interrupted);
    EXPECT_EQ(r.cycles, 0u);
    EXPECT_EQ(r.interruptCycle, 0u);
    ASSERT_TRUE(r.failure.has_value());
    EXPECT_EQ(r.failure->kind, "interrupted");
    EXPECT_FALSE(r.ok());
}

TEST(EngineLifecycle, CycleDeadlineStopsAtExactBoundary)
{
    driver::RunResult ref = runSaxpy({});
    ASSERT_TRUE(ref.ok());
    ASSERT_GT(ref.cycles, 2u);

    driver::RunOptions ro;
    ro.deadlineCycles = ref.cycles / 2;
    driver::RunResult r = runSaxpy(ro);
    EXPECT_TRUE(r.interrupted);
    // The simulated-cycle deadline is exact, idle-skip included.
    EXPECT_EQ(r.interruptCycle, ref.cycles / 2);
    EXPECT_EQ(r.cycles, ref.cycles / 2);
    ASSERT_TRUE(r.failure.has_value());
    EXPECT_EQ(r.failure->kind, "interrupted");
}

TEST(EngineLifecycle, DeadlineOnFinalCycleCompletesNormally)
{
    driver::RunResult ref = runSaxpy({});
    ASSERT_TRUE(ref.ok());
    // The run finishes during cycle N-1, so a deadline of exactly N
    // ("stop before executing cycle N") never fires.
    driver::RunOptions ro;
    ro.deadlineCycles = ref.cycles;
    driver::RunResult r = runSaxpy(ro);
    EXPECT_FALSE(r.interrupted);
    EXPECT_TRUE(r.equals(ref));
}

TEST(EngineLifecycle, NonFiringLifecycleKnobsAreByteInvisible)
{
    driver::RunResult ref = runSaxpy({});
    ASSERT_TRUE(ref.ok());

    CancelToken tok; // never tripped
    uint64_t checkpoints = 0;
    driver::RunOptions ro;
    ro.cancel = &tok;
    ro.deadlineSeconds = 3600;
    ro.deadlineCycles = ref.cycles * 2;
    ro.checkpointEveryCycles = 64;
    ro.onCheckpoint = [&](uint64_t) { ++checkpoints; };
    driver::RunResult r = runSaxpy(ro);
    EXPECT_TRUE(r.equals(ref));
    EXPECT_GT(checkpoints, 0u);
}

TEST(EngineLifecycle, WallClockDeadlineInterrupts)
{
    driver::RunOptions ro;
    ro.deadlineSeconds = 1e-9;
    driver::RunResult r = runSaxpy(ro);
    EXPECT_TRUE(r.interrupted);
    ASSERT_TRUE(r.failure.has_value());
    EXPECT_NE(r.failure->detail.find("deadline"), std::string::npos)
        << r.failure->detail;
}

TEST(EngineLifecycle, CheckpointsFireOnCadenceBoundaries)
{
    driver::RunResult ref = runSaxpy({});
    ASSERT_GT(ref.cycles, 128u);

    std::vector<uint64_t> fired;
    driver::RunOptions ro;
    ro.checkpointEveryCycles = 64;
    ro.onCheckpoint = [&](uint64_t cyc) { fired.push_back(cyc); };
    driver::RunResult r = runSaxpy(ro);
    ASSERT_TRUE(r.ok());
    ASSERT_FALSE(fired.empty());
    uint64_t prev = 0;
    for (uint64_t cyc : fired) {
        EXPECT_GT(cyc, prev);
        // Idle-skip never overshoots a checkpoint boundary, so each
        // callback lands exactly on a multiple of the cadence.
        EXPECT_EQ(cyc % 64, 0u);
        EXPECT_NE(cyc, 0u);
        prev = cyc;
    }
}

/**
 * The headline replay contract: interrupt a run mid-flight, then
 * "resume" it the way a v1 snapshot does — by replaying the recipe —
 * and the result is byte-identical to a run that was never
 * interrupted. Pinned across workload shapes and for a fixed-seed
 * fault-injected run (the fault schedule must survive interruption).
 */
TEST(EngineLifecycle, InterruptThenReplayIsByteIdentical)
{
    struct Case
    {
        const char *name;
        std::function<workloads::Workload()> make;
        std::optional<sim::FaultConfig> fault;
    };
    std::vector<Case> cases = {
        {"saxpy", [] { return workloads::makeSaxpy(128); },
         std::nullopt},
        {"fib", [] { return workloads::makeFib(10); }, std::nullopt},
        {"stencil", [] { return workloads::makeStencil(8, 8, 1); },
         std::nullopt},
        {"saxpy+fault", [] { return workloads::makeSaxpy(128); },
         sim::FaultConfig::uniform(0.01, 42)},
    };

    for (const Case &c : cases) {
        auto runOnce = [&](const driver::RunOptions &ro) {
            auto w = c.make();
            driver::AccelSimEngine::Options eo;
            eo.fault = c.fault;
            driver::AccelSimEngine eng(std::move(eo));
            return eng.runWorkload(w, ro);
        };

        driver::RunResult ref = runOnce({});
        ASSERT_TRUE(ref.ok()) << c.name;
        EXPECT_TRUE(ref.verifyError.empty()) << c.name;
        ASSERT_GT(ref.cycles, 2u) << c.name;

        driver::RunOptions mid;
        mid.deadlineCycles = ref.cycles / 2;
        driver::RunResult stopped = runOnce(mid);
        EXPECT_TRUE(stopped.interrupted) << c.name;
        EXPECT_EQ(stopped.interruptCycle, ref.cycles / 2) << c.name;

        driver::RunResult resumed = runOnce({});
        EXPECT_TRUE(resumed.equals(ref))
            << c.name << ": replay after interruption diverged "
            << "from the uninterrupted run";
    }
}

/**
 * Resume with a trace sink attached: the replayed run's trace is
 * byte-identical to the uninterrupted run's, and the interrupted
 * run's partial trace is still a complete, parseable document (the
 * atomic write means it is never torn).
 */
TEST(EngineLifecycle, ResumeWithTraceSinkAttached)
{
    const std::string ref_path = tmpPath("lc_trace_ref.json");
    const std::string cut_path = tmpPath("lc_trace_cut.json");
    const std::string res_path = tmpPath("lc_trace_res.json");

    driver::RunOptions ro;
    ro.traceFile = ref_path;
    driver::RunResult ref = runSaxpy(ro);
    ASSERT_TRUE(ref.ok());

    driver::RunOptions cut;
    cut.traceFile = cut_path;
    cut.deadlineCycles = ref.cycles / 2;
    driver::RunResult stopped = runSaxpy(cut);
    EXPECT_TRUE(stopped.interrupted);
    std::string cut_trace = slurp(cut_path);
    ASSERT_FALSE(cut_trace.empty());
    std::string err;
    Json cut_doc = Json::parse(cut_trace, &err);
    EXPECT_TRUE(err.empty()) << err;

    driver::RunOptions res;
    res.traceFile = res_path;
    driver::RunResult resumed = runSaxpy(res);
    EXPECT_TRUE(resumed.equals(ref));
    EXPECT_EQ(slurp(res_path), slurp(ref_path));
}

// ---------------------------------------------------------------
// Snapshot format
// ---------------------------------------------------------------

driver::Snapshot
demoSnapshot()
{
    driver::Snapshot s;
    s.inputName = "demo.ir";
    s.moduleText =
        "module {\n  // \"quotes\", back\\slash, \ttab\n}\n";
    s.top = "main";
    s.runArgs = {"5", "@weights"};
    s.tiles = 4;
    s.ntasks = 64;
    s.optPasses = true;
    s.unrollFactor = 2;
    s.fault = sim::FaultConfig::uniform(0.015, 1234);
    s.interruptCycle = 424242;
    return s;
}

TEST(Snapshot, RoundtripPreservesEveryField)
{
    const std::string path = tmpPath("lc_snap_roundtrip.json");
    driver::Snapshot s = demoSnapshot();
    driver::writeSnapshot(path, s);
    driver::Snapshot r = driver::readSnapshot(path);

    EXPECT_EQ(r.inputName, s.inputName);
    EXPECT_EQ(r.moduleText, s.moduleText);
    EXPECT_EQ(r.top, s.top);
    EXPECT_EQ(r.runArgs, s.runArgs);
    EXPECT_EQ(r.tiles, s.tiles);
    EXPECT_EQ(r.ntasks, s.ntasks);
    EXPECT_EQ(r.optPasses, s.optPasses);
    EXPECT_EQ(r.unrollFactor, s.unrollFactor);
    EXPECT_EQ(r.interruptCycle, s.interruptCycle);
    ASSERT_TRUE(r.fault.has_value());
    EXPECT_EQ(r.fault->seed, s.fault->seed);
    EXPECT_EQ(r.fault->spawnDropRate, s.fault->spawnDropRate);
    EXPECT_EQ(r.fault->queueCorruptRate, s.fault->queueCorruptRate);
    EXPECT_EQ(r.fault->memDropRate, s.fault->memDropRate);
    EXPECT_EQ(r.fault->memDelayRate, s.fault->memDelayRate);
    EXPECT_EQ(r.fault->tileStuckRate, s.fault->tileStuckRate);
    EXPECT_EQ(r.fault->maxTaskRetries, s.fault->maxTaskRetries);
}

TEST(Snapshot, RoundtripWithoutFaultBlock)
{
    const std::string path = tmpPath("lc_snap_nofault.json");
    driver::Snapshot s = demoSnapshot();
    s.fault.reset();
    driver::writeSnapshot(path, s);
    driver::Snapshot r = driver::readSnapshot(path);
    EXPECT_FALSE(r.fault.has_value());
    EXPECT_EQ(r.moduleText, s.moduleText);
}

TEST(SnapshotDeathTest, TamperedPayloadFailsChecksum)
{
    const std::string path = tmpPath("lc_snap_tamper.json");
    driver::writeSnapshot(path, demoSnapshot());
    std::string text = slurp(path);
    size_t pos = text.find("424242");
    ASSERT_NE(pos, std::string::npos);
    text[pos] = '9';
    {
        std::ofstream out(path);
        out << text;
    }
    EXPECT_DEATH(driver::readSnapshot(path), "checksum");
}

TEST(SnapshotDeathTest, UnknownVersionIsRejected)
{
    const std::string path = tmpPath("lc_snap_version.json");
    Json doc = demoSnapshot().toJson();
    doc.set("version", Json::num(99));
    atomicWriteFile(path, doc.dump());
    EXPECT_DEATH(driver::readSnapshot(path), "version");
}

TEST(SnapshotDeathTest, NonSnapshotJsonIsRejected)
{
    const std::string path = tmpPath("lc_snap_magic.json");
    atomicWriteFile(path, "{\"hello\": 1}");
    EXPECT_DEATH(driver::readSnapshot(path), "not a tapas snapshot");
}

TEST(SnapshotDeathTest, TruncatedFileIsRejected)
{
    const std::string path = tmpPath("lc_snap_torn.json");
    driver::writeSnapshot(path, demoSnapshot());
    std::string text = slurp(path);
    atomicWriteFile(path, text.substr(0, text.size() / 2));
    EXPECT_DEATH(driver::readSnapshot(path), "not valid JSON");
}

// ---------------------------------------------------------------
// Atomic writes and JSON byte-stability
// ---------------------------------------------------------------

TEST(AtomicFile, ReplacesContentAndLeavesNoTempFiles)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::path(testing::TempDir()) / "lc_atomic_dir";
    fs::create_directories(dir);
    const std::string path = (dir / "out.json").string();

    atomicWriteFile(path, "first");
    EXPECT_EQ(slurp(path), "first");
    atomicWriteFile(path, "second");
    EXPECT_EQ(slurp(path), "second");

    size_t entries = 0;
    for (const auto &e : fs::directory_iterator(dir)) {
        (void)e;
        ++entries;
    }
    EXPECT_EQ(entries, 1u) << "temp file left behind";
}

TEST(Json, DumpIsAReparseFixpoint)
{
    const std::string src =
        "{\"a\":1,\"b\":0.123456789,\"c\":1e+11,"
        "\"d\":[true,false,null,\"s\"],\"e\":{\"n\":-7}}";
    std::string err;
    Json j = Json::parse(src, &err);
    ASSERT_TRUE(err.empty()) << err;

    // Dump -> parse -> dump is byte-stable: the property that lets
    // journaled and snapshotted documents re-serialize identically.
    const std::string d1 = j.dump();
    Json j2 = Json::parse(d1, &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(j2.dump(), d1);

    const std::string c1 = j.dumpCompact();
    Json j3 = Json::parse(c1, &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(j3.dumpCompact(), c1);
    // Compact form is single-line (JSONL-safe).
    EXPECT_EQ(c1.find('\n'), std::string::npos);
}

} // namespace
