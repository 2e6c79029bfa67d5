/**
 * @file
 * Design-space exploration over the TAPAS Stage-3 parameter space.
 *
 * A ParamSpace enumerates candidate configurations (worker tiles,
 * task-queue entries, tile pipeline depth, serial-loop unroll
 * factor, optimization passes); explore() searches it for the best
 * accelerator designs for one workload on one target device:
 *
 *  - every candidate compiles at most once, through the
 *    content-addressed DesignCache (the compile/run split in
 *    driver::CompiledDesign is what makes the reuse safe);
 *  - candidates whose analytic resource estimate exceeds the device
 *    budget (ALMs or M20K blocks) are pruned before any simulation;
 *  - surviving candidates are simulated through the unified engine
 *    API, fanned across threads with driver::Sweep, and verified
 *    against the workload's golden model;
 *  - the result is the Pareto frontier over (cycles, ALMs, power).
 *
 * Determinism: for a fixed input the full ExploreResult — including
 * cache hit/miss totals and the pruned count — is identical for any
 * worker count, so rendered tables and JSON exports are
 * byte-identical across `--jobs` values (tests/dse_test.cc pins
 * this).
 *
 * Two strategies are provided: an exhaustive grid, and greedy
 * successive halving, which ranks the surviving configurations on a
 * small workload instance (rung 0), keeps the better half, and
 * re-evaluates on successively larger instances until the final rung
 * runs the full-size workload.
 */

#ifndef TAPAS_DSE_DSE_HH
#define TAPAS_DSE_DSE_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "dse/design_cache.hh"
#include "ir/memimage.hh"
#include "support/cancel.hh"
#include "support/json.hh"

namespace tapas::dse {

/** The candidate axes of one exploration (cartesian product). */
struct ParamSpace
{
    /** Worker tiles per task unit. */
    std::vector<unsigned> tiles{1, 2, 4};

    /** Task-queue entries per task unit. */
    std::vector<unsigned> ntasks{32};

    /** Tile pipeline depths (0 = derive from the dataflow). */
    std::vector<unsigned> pipelineDepths{0};

    /** Serial-loop unroll factors (< 2 disables). */
    std::vector<unsigned> unrollFactors{0};

    /** Run the optimization pre-passes? */
    std::vector<bool> optPasses{false};

    /** Number of configurations in the grid. */
    size_t size() const;
};

/** One concrete configuration (a point of the space). */
struct Config
{
    unsigned tiles = 1;
    unsigned ntasks = 32;
    unsigned pipelineDepth = 0;
    unsigned unrollFactor = 0;
    bool optPasses = false;

    /** Compact display label, e.g. "t4.q32.p0.u2.opt". */
    std::string label() const;

    /**
     * Toolchain options for this configuration, layered over a
     * workload's parameter preset (whose memory-system and latency
     * settings are kept; the explored axes are overridden for the
     * defaults and every per-task entry).
     */
    hls::CompileOptions
    compileOptions(const arch::AcceleratorParams &base) const;
};

/** The grid, in deterministic enumeration order. */
std::vector<Config> enumerate(const ParamSpace &space);

/** Search strategy. */
enum class Strategy {
    /** Simulate every non-pruned configuration at full size. */
    ExhaustiveGrid,

    /**
     * Greedy successive halving: rank on small instances, keep the
     * better half each rung, full-size evaluation for finalists.
     */
    SuccessiveHalving,
};

/** strategy <-> CLI name ("grid" / "halving"). */
const char *strategyName(Strategy s);
std::optional<Strategy> strategyFromName(const std::string &name);

/** Everything explore() needs besides workload and space. */
struct ExploreOptions
{
    /** Target device: resource budget for pruning + cost models. */
    fpga::Device device = fpga::Device::cycloneV();

    /** Worker threads for the candidate sweeps. */
    unsigned jobs = 1;

    Strategy strategy = Strategy::ExhaustiveGrid;

    /**
     * Workload sizes available to successive halving; the factory is
     * called with rung 0 (smallest) .. rungs-1 (full size). The
     * exhaustive grid only ever asks for the final rung.
     */
    unsigned rungs = 3;

    /** Memory-image limit per simulation (the image sizes itself). */
    static constexpr uint64_t memBytes = ir::MemImage::kLimit;

    /**
     * Bound runaway candidates (e.g. an undersized task queue that
     * deadlocks) without burning the full default watchdog budget.
     */
    std::optional<uint64_t> watchdogCycles = 4'000'000;

    /**
     * Share a cache across explorations (e.g. one workload on two
     * devices). Defaults to a private per-call cache.
     */
    DesignCache *cache = nullptr;

    /**
     * Attach a critical-path bottleneck analysis to every final-rung
     * simulation (lower rungs run small instances whose bottlenecks
     * are not the ones being shopped for). The resulting report is
     * cycle-derived and deterministic, so it is safe to include in
     * the byte-compared JSON export; frontier points are annotated
     * with their dominant bottleneck class.
     */
    bool explain = true;

    // --- run lifecycle (see DESIGN.md, "Run lifecycle") -----------

    /**
     * External cancellation (SIGINT and friends): propagated into
     * every candidate simulation and checked between evaluations. A
     * trip drains the in-flight sweep, marks unevaluated points
     * skipped, and returns a partial ExploreResult. Not owned.
     */
    const CancelToken *cancel = nullptr;

    /**
     * Total wall-clock budget for the exploration (<= 0 = none),
     * apportioned across rungs: each rung gets an equal share of the
     * time remaining when it starts, so early rungs cannot starve the
     * full-size finals and slack rolls forward.
     */
    double deadlineSeconds = 0;

    /**
     * When non-empty, journal every *completed* evaluation to this
     * JSONL file as it finishes (dse/journal.hh) so an interrupted
     * exploration can be resumed without redoing finished work.
     */
    std::string journalPath;

    /**
     * Load `journalPath` first and restore already-journaled
     * evaluations instead of re-running them. The resumed result is
     * byte-identical to an uninterrupted exploration (tests pin it).
     */
    bool resume = false;
};

/** Outcome for one configuration. */
struct PointResult
{
    Config config;

    /** Short content hash of the final-rung cache key. */
    std::string keyId;

    /** Resource estimate (always present, even when pruned). */
    uint32_t alms = 0;
    uint32_t brams = 0;
    double fmaxMhz = 0;
    double powerW = 0;

    /** Over the device budget; never simulated. */
    bool pruned = false;

    /** Eliminated by successive halving before the final rung. */
    bool eliminated = false;

    /** Highest rung this configuration was evaluated at. */
    unsigned lastRung = 0;

    /** Simulation ended in a structured failure at lastRung. */
    bool failed = false;
    std::string failKind;

    /** Completed and matched the workload's golden model. */
    bool verified = false;

    /** Member of the reported Pareto frontier. */
    bool onFrontier = false;

    /**
     * Never evaluated at its scheduled rung — the exploration was
     * interrupted first. Skipped points re-run on --dse-resume.
     */
    bool skipped = false;

    /** Restored from a resume journal instead of re-simulated. */
    bool fromJournal = false;

    /**
     * Structured bottleneck blob for the JSON export — the live
     * run's BottleneckReport::toJson() or the journaled copy of it;
     * identical bytes either way.
     */
    std::optional<Json> bottleneckJson;

    /**
     * Engine result at lastRung (default when pruned; only the
     * cycles/seconds/spawns scalars are reconstructed for journaled
     * restores).
     */
    driver::RunResult result;

    /** Full-size result available (simulated at the final rung)? */
    bool
    finalRung(unsigned rungs) const
    {
        return !pruned && !eliminated && !skipped &&
               lastRung == rungs - 1;
    }
};

/** Everything explore() found. */
struct ExploreResult
{
    /** The workload's name (reporting). */
    std::string workload;

    fpga::Device device;
    Strategy strategy = Strategy::ExhaustiveGrid;
    unsigned rungs = 1;

    /** Per-configuration outcomes, in enumeration order. */
    std::vector<PointResult> points;

    /**
     * Indices into `points` of the Pareto frontier over
     * (cycles, alms, power_w), sorted by ascending cycles. Only
     * final-rung, verified points are eligible.
     */
    std::vector<size_t> frontier;

    size_t spaceSize = 0;
    uint64_t pruned = 0;
    uint64_t simulated = 0; ///< simulations run, lower rungs included

    /**
     * Compile reuse within this exploration, derived from the
     * deterministic evaluation sequence (first sight of a design key
     * is a miss, every repeat a hit) rather than from live cache
     * counters — so the totals are identical for any `--jobs` value
     * and across a journal resume, where restored evaluations never
     * touch the process's cache.
     */
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;

    /**
     * The exploration was interrupted (deadline or cancellation):
     * `points` covers only what finished, the frontier is a salvage
     * over completed full-size points, and the JSON export carries
     * `"partial": true`. `interruptReason` says why ("deadline" or
     * "cancelled").
     */
    bool partial = false;
    std::string interruptReason;

    /** Points never evaluated at their scheduled rung. */
    uint64_t skipped = 0;

    /** Evaluations restored from the resume journal. */
    uint64_t journaled = 0;

    /**
     * Wall-clock toolchain time: seconds actually spent compiling
     * (cache misses) and seconds a cold-cache exploration would have
     * added (each hit re-credits its design's original compile time).
     * Diagnostic only — reported in printReport()'s footer, never in
     * toJson(), which must stay byte-identical across `--jobs`.
     */
    double compileSeconds = 0;
    double compileSecondsSaved = 0;
};

/**
 * Workload factory: builds a fresh instance sized for `rung` in
 * [0, rungs-1], where the final rung is the full-size problem. Must
 * be callable concurrently and must return the same workload content
 * for the same rung (the determinism guarantee inherits this).
 */
using WorkloadFactory =
    std::function<workloads::Workload(unsigned rung)>;

/**
 * Search `space` for the best configurations of `make`'s workload.
 *
 * Every simulated point is verified against the workload's golden
 * model; a verification mismatch is a toolchain bug and fatal()s.
 * Structured simulation failures (deadlocked queue sizing and the
 * like) are legitimate outcomes: the point is recorded as failed and
 * excluded from the frontier.
 */
ExploreResult explore(const WorkloadFactory &make,
                      const ParamSpace &space,
                      const ExploreOptions &opts);

/** Deterministic JSON export of one exploration. */
Json toJson(const ExploreResult &r);

/** Human-readable report: per-point table, frontier, summary. */
void printReport(const ExploreResult &r, std::ostream &os);

} // namespace tapas::dse

#endif // TAPAS_DSE_DSE_HH
