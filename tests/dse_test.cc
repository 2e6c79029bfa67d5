/**
 * @file
 * Tests for the design-space exploration subsystem (src/dse) and the
 * compile/run split it is built on: analytic pruning never discards
 * a feasible configuration, the content-addressed DesignCache returns
 * designs whose runs are byte-identical to a cold compile, a prepared
 * CompiledDesign is reusable across runs, and a full exploration —
 * cache totals included — is identical for any worker count.
 */

#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "driver/engine.hh"
#include "dse/dse.hh"
#include "ir/printer.hh"
#include "support/cancel.hh"
#include "workloads/workload.hh"

using namespace tapas;

namespace {

dse::WorkloadFactory
saxpyFactory()
{
    return [](unsigned rung) {
        return workloads::makeSaxpy(64u << rung);
    };
}

/** Compile one configuration of `w` the way explore() does. */
driver::CompiledDesign
compileConfig(const workloads::Workload &w, const dse::Config &cfg,
              const fpga::Device &dev)
{
    return driver::compileDesign(*w.module, w.top->name(),
                                 cfg.compileOptions(w.params), dev);
}

TEST(ParamSpace, EnumerationIsTheCartesianProduct)
{
    dse::ParamSpace space;
    space.tiles = {1, 2};
    space.ntasks = {16, 32};
    space.unrollFactors = {0, 2};
    space.optPasses = {false, true};
    EXPECT_EQ(space.size(), 16u);

    std::vector<dse::Config> configs = dse::enumerate(space);
    ASSERT_EQ(configs.size(), 16u);
    // Deterministic order: first point is the first value of every
    // axis; the label round-trips the interesting fields.
    EXPECT_EQ(configs.front().label(), "t1.q16.p0.u0");
    EXPECT_EQ(configs.back().label(), "t2.q32.p0.u2.opt");
}

TEST(Dse, PruningNeverDiscardsAFeasibleConfig)
{
    // Learn the analytic estimates of the smallest and largest
    // candidates, then aim the device budget between them so the
    // space genuinely splits.
    auto w = workloads::makeSaxpy(64);
    dse::Config small;
    small.tiles = 1;
    dse::Config big;
    big.tiles = 8;
    fpga::Device dev = fpga::Device::cycloneV();
    uint32_t lo = compileConfig(w, small, dev).report.alms;
    uint32_t hi = compileConfig(w, big, dev).report.alms;
    ASSERT_LT(lo, hi);
    dev.totalAlms = (lo + hi) / 2;

    dse::ParamSpace space;
    space.tiles = {1, 2, 4, 8};
    dse::ExploreOptions opts;
    opts.device = dev;
    opts.rungs = 1;
    dse::ExploreResult r =
        dse::explore(saxpyFactory(), space, opts);

    ASSERT_EQ(r.points.size(), 4u);
    unsigned pruned = 0;
    for (const dse::PointResult &p : r.points) {
        bool over = p.alms > dev.totalAlms || p.brams > dev.totalM20k;
        // Pruned exactly when the estimate exceeds the budget:
        // never a feasible point, never a free pass for an
        // infeasible one.
        EXPECT_EQ(p.pruned, over) << p.config.label();
        pruned += p.pruned;
    }
    EXPECT_EQ(r.pruned, pruned);
    EXPECT_GT(pruned, 0u);
    EXPECT_LT(pruned, 4u);
    // Pruned points never simulate.
    EXPECT_EQ(r.simulated, 4u - pruned);
}

TEST(DesignCache, HitRunsAreIdenticalToColdCompile)
{
    auto w = workloads::makeSaxpy(128);
    const std::string text = ir::toString(*w.module);
    dse::Config cfg;
    cfg.tiles = 2;
    hls::CompileOptions copts = cfg.compileOptions(w.params);
    const fpga::Device dev = fpga::Device::cycloneV();

    dse::DesignCache cache;
    auto first = cache.get(text, w.top->name(), copts, dev);
    EXPECT_FALSE(first.hit);
    auto second = cache.get(text, w.top->name(), copts, dev);
    EXPECT_TRUE(second.hit);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(first.keyId, second.keyId);

    // A run through the cache-hit design is byte-identical to a run
    // through a fresh cold compile of the same inputs.
    driver::CompiledDesign cold =
        driver::compileDesign(text, w.top->name(), copts, dev);
    driver::AccelSimEngine eng;
    driver::RunResult warm_r =
        eng.runWorkload(w, second.design, {});
    driver::RunResult cold_r = eng.runWorkload(w, cold, {});
    ASSERT_TRUE(warm_r.ok());
    EXPECT_TRUE(warm_r.verifyError.empty()) << warm_r.verifyError;
    EXPECT_TRUE(warm_r.equals(cold_r));
}

TEST(CompiledDesign, PreparedDesignReusesAcrossRuns)
{
    auto w = workloads::makeDedup(8, 64);
    driver::AccelSimEngine eng;
    driver::CompiledDesign design = eng.prepare(w);
    ASSERT_TRUE(design.valid());
    // The workload's own module is untouched by prepare(): the
    // design owns a clone.
    EXPECT_EQ(ir::toString(*w.module),
              ir::toString(*design.module));

    driver::RunResult a = eng.runWorkload(w, design, {});
    driver::RunResult b = eng.runWorkload(w, design, {});
    ASSERT_TRUE(a.ok());
    EXPECT_TRUE(a.verifyError.empty()) << a.verifyError;
    EXPECT_TRUE(a.equals(b));

    // And matches the one-shot compile-in-run() path.
    driver::AccelSimEngine fresh;
    driver::RunResult c = fresh.runWorkload(w, {});
    ASSERT_TRUE(c.ok());
    EXPECT_EQ(a.cycles, c.cycles);
    EXPECT_EQ(a.retval.i, c.retval.i);
}

TEST(Dse, ExplorationIsIdenticalAcrossWorkerCounts)
{
    dse::ParamSpace space;
    space.tiles = {1, 2, 4};
    space.ntasks = {16, 32};

    auto runWith = [&](unsigned jobs, dse::Strategy strategy) {
        dse::ExploreOptions opts;
        opts.jobs = jobs;
        opts.strategy = strategy;
        opts.rungs = 2;
        return dse::toJson(
                   dse::explore(saxpyFactory(), space, opts))
            .dump();
    };
    for (dse::Strategy s : {dse::Strategy::ExhaustiveGrid,
                            dse::Strategy::SuccessiveHalving}) {
        std::string serial = runWith(1, s);
        std::string parallel = runWith(4, s);
        // Full JSON equality: frontier, per-point results, and the
        // cache hit/miss and pruned totals all survive fan-out.
        EXPECT_EQ(serial, parallel) << dse::strategyName(s);
    }
}

TEST(Dse, FrontierPointsAreVerifiedAndNonDominated)
{
    dse::ParamSpace space;
    space.tiles = {1, 2, 4};
    dse::ExploreOptions opts;
    opts.rungs = 1;
    dse::ExploreResult r =
        dse::explore(saxpyFactory(), space, opts);

    ASSERT_FALSE(r.frontier.empty());
    for (size_t i : r.frontier) {
        const dse::PointResult &p = r.points[i];
        EXPECT_TRUE(p.verified);
        EXPECT_TRUE(p.onFrontier);
        // No other verified point dominates it.
        for (const dse::PointResult &q : r.points) {
            if (&q == &p || !q.verified)
                continue;
            bool dominates =
                q.result.cycles <= p.result.cycles &&
                q.alms <= p.alms && q.powerW <= p.powerW &&
                (q.result.cycles < p.result.cycles ||
                 q.alms < p.alms || q.powerW < p.powerW);
            EXPECT_FALSE(dominates)
                << q.config.label() << " dominates "
                << p.config.label();
        }
    }
}

TEST(RunResult, StatOrFallsBackWhenAbsent)
{
    driver::RunResult r;
    r.stats["present"] = 7.5;
    EXPECT_EQ(r.statOr("present", 0), 7.5);
    EXPECT_EQ(r.statOr("absent", -1), -1);
}

// ---------------------------------------------------------------
// Journal / resume
// ---------------------------------------------------------------

std::string
journalTmp(const std::string &name)
{
    return (std::filesystem::path(testing::TempDir()) / name)
        .string();
}

dse::ParamSpace
journalSpace()
{
    dse::ParamSpace space;
    space.tiles = {1, 2};
    space.ntasks = {16, 32};
    return space;
}

dse::ExploreOptions
journalOpts()
{
    dse::ExploreOptions opts;
    opts.rungs = 1;
    return opts;
}

/**
 * The journal crash-safety contract: journaling an exploration does
 * not perturb its export, and resuming from a completed journal —
 * where every evaluation restores instead of re-running — produces
 * the identical bytes.
 */
TEST(DseJournal, CompletedJournalResumesByteIdentically)
{
    const std::string path = journalTmp("dse_journal_full.jsonl");
    const std::string ref =
        dse::toJson(dse::explore(saxpyFactory(), journalSpace(),
                                 journalOpts()))
            .dump();

    dse::ExploreOptions jopts = journalOpts();
    jopts.journalPath = path;
    dse::ExploreResult first =
        dse::explore(saxpyFactory(), journalSpace(), jopts);
    EXPECT_EQ(dse::toJson(first).dump(), ref);
    EXPECT_FALSE(first.partial);
    EXPECT_EQ(first.journaled, 0u);

    jopts.resume = true;
    dse::ExploreResult second =
        dse::explore(saxpyFactory(), journalSpace(), jopts);
    EXPECT_EQ(dse::toJson(second).dump(), ref);
    // Everything came back from the journal; nothing re-simulated,
    // yet the simulated/cache totals in the export still match.
    EXPECT_EQ(second.journaled, journalSpace().size());
    for (const dse::PointResult &p : second.points)
        EXPECT_TRUE(p.fromJournal) << p.config.label();
}

/**
 * A cancelled exploration flushes a partial result (skipped points,
 * "partial": true, the reason) and a resume completes it to the
 * uninterrupted bytes.
 */
TEST(DseJournal, CancelledRunIsPartialAndResumeCompletes)
{
    const std::string path = journalTmp("dse_journal_cancel.jsonl");
    const std::string ref =
        dse::toJson(dse::explore(saxpyFactory(), journalSpace(),
                                 journalOpts()))
            .dump();

    CancelToken tok;
    tok.cancel();
    dse::ExploreOptions copts = journalOpts();
    copts.journalPath = path;
    copts.cancel = &tok;
    dse::ExploreResult cut =
        dse::explore(saxpyFactory(), journalSpace(), copts);
    EXPECT_TRUE(cut.partial);
    EXPECT_EQ(cut.interruptReason, "cancelled");
    EXPECT_EQ(cut.skipped, journalSpace().size());
    EXPECT_TRUE(cut.frontier.empty());

    std::string err;
    Json cut_doc = Json::parse(dse::toJson(cut).dump(), &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_TRUE(cut_doc.find("partial")->asBool());
    EXPECT_EQ(cut_doc.find("interrupt_reason")->asStr(),
              "cancelled");

    dse::ExploreOptions ropts = journalOpts();
    ropts.journalPath = path;
    ropts.resume = true;
    dse::ExploreResult done =
        dse::explore(saxpyFactory(), journalSpace(), ropts);
    EXPECT_FALSE(done.partial);
    EXPECT_EQ(dse::toJson(done).dump(), ref);
    // The complete export says so explicitly.
    Json done_doc = Json::parse(dse::toJson(done).dump(), &err);
    EXPECT_FALSE(done_doc.find("partial")->asBool());
    EXPECT_EQ(done_doc.find("interrupt_reason"), nullptr);
}

/**
 * A journal whose final line was torn mid-append (crash) still
 * resumes: the torn entry re-runs, the rest restore, and the export
 * is byte-identical to the uninterrupted run.
 */
TEST(DseJournal, TornFinalLineRecovers)
{
    const std::string path = journalTmp("dse_journal_torn.jsonl");
    const std::string ref =
        dse::toJson(dse::explore(saxpyFactory(), journalSpace(),
                                 journalOpts()))
            .dump();

    dse::ExploreOptions jopts = journalOpts();
    jopts.journalPath = path;
    dse::explore(saxpyFactory(), journalSpace(), jopts);

    // Tear the last journaled line in half.
    std::string text;
    {
        std::ifstream in(path);
        std::ostringstream ss;
        ss << in.rdbuf();
        text = ss.str();
    }
    ASSERT_FALSE(text.empty());
    ASSERT_EQ(text.back(), '\n');
    const size_t last_start = text.rfind('\n', text.size() - 2) + 1;
    const size_t cut =
        last_start + (text.size() - last_start) / 2;
    ASSERT_GT(cut, last_start);
    {
        std::ofstream out(path, std::ios::trunc);
        out << text.substr(0, cut);
    }

    dse::ExploreOptions ropts = journalOpts();
    ropts.journalPath = path;
    ropts.resume = true;
    dse::ExploreResult done =
        dse::explore(saxpyFactory(), journalSpace(), ropts);
    EXPECT_FALSE(done.partial);
    EXPECT_LT(done.journaled, journalSpace().size());
    EXPECT_EQ(dse::toJson(done).dump(), ref);
}

/** Resuming against another exploration's journal is fatal. */
TEST(DseJournalDeathTest, ForeignJournalIsRejected)
{
    const std::string path =
        journalTmp("dse_journal_foreign.jsonl");
    dse::ExploreOptions jopts = journalOpts();
    jopts.journalPath = path;
    dse::explore(saxpyFactory(), journalSpace(), jopts);

    // Same journal file, different space: the fingerprint differs.
    dse::ParamSpace other = journalSpace();
    other.tiles = {1, 2, 4};
    dse::ExploreOptions ropts = journalOpts();
    ropts.journalPath = path;
    ropts.resume = true;
    EXPECT_DEATH(dse::explore(saxpyFactory(), other, ropts),
                 "different exploration");
}

} // namespace
