#include "dse/dse.hh"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <ostream>
#include <set>

#include "driver/jobrunner.hh"
#include "dse/journal.hh"
#include "ir/printer.hh"
#include "obs/critpath.hh"
#include "support/hash.hh"
#include "support/logging.hh"
#include "support/table.hh"

namespace tapas::dse {

size_t
ParamSpace::size() const
{
    return tiles.size() * ntasks.size() * pipelineDepths.size() *
           unrollFactors.size() * optPasses.size();
}

std::string
Config::label() const
{
    std::string s = strfmt("t%u.q%u.p%u.u%u", tiles, ntasks,
                           pipelineDepth, unrollFactor);
    if (optPasses)
        s += ".opt";
    return s;
}

hls::CompileOptions
Config::compileOptions(const arch::AcceleratorParams &base) const
{
    hls::CompileOptions co;
    co.params = base;
    co.params.defaults.ntasks = ntasks;
    co.params.defaults.ntiles = tiles;
    co.params.defaults.tilePipelineDepth = pipelineDepth;
    for (auto &[sid, p] : co.params.perTask) {
        p.ntasks = ntasks;
        p.ntiles = tiles;
        p.tilePipelineDepth = pipelineDepth;
    }
    co.runOptPasses = optPasses;
    co.unrollFactor = unrollFactor;
    return co;
}

std::vector<Config>
enumerate(const ParamSpace &space)
{
    std::vector<Config> configs;
    configs.reserve(space.size());
    for (unsigned t : space.tiles) {
        for (unsigned q : space.ntasks) {
            for (unsigned d : space.pipelineDepths) {
                for (unsigned u : space.unrollFactors) {
                    for (bool o : space.optPasses) {
                        Config c;
                        c.tiles = t;
                        c.ntasks = q;
                        c.pipelineDepth = d;
                        c.unrollFactor = u;
                        c.optPasses = o;
                        configs.push_back(c);
                    }
                }
            }
        }
    }
    return configs;
}

const char *
strategyName(Strategy s)
{
    switch (s) {
      case Strategy::ExhaustiveGrid:
        return "grid";
      case Strategy::SuccessiveHalving:
        return "halving";
    }
    return "unknown";
}

std::optional<Strategy>
strategyFromName(const std::string &name)
{
    if (name == "grid")
        return Strategy::ExhaustiveGrid;
    if (name == "halving")
        return Strategy::SuccessiveHalving;
    return std::nullopt;
}

namespace {

/** One sweep job's outcome for one (config, rung). */
struct Eval
{
    std::string workloadName;
    std::string keyId;
    fpga::ResourceReport report;
    bool pruned = false;
    bool simulated = false;
    bool cacheHit = false;
    bool fromJournal = false;  ///< restored, not re-run
    bool interrupted = false;  ///< stopped mid-run; never journaled
    double compileSec = 0; ///< this design's original compile time

    // Outcome scalars, filled by both the live and the journal
    // paths so the merge loop never needs to tell them apart.
    bool failed = false;
    std::string failKind;
    uint64_t cycles = 0;
    double seconds = 0;
    uint64_t spawns = 0;
    std::optional<Json> bottleneckJson;

    /** Live runs only (journal restores leave this default). */
    driver::RunResult result;
};

/** Journal line for one completed evaluation (see journal.hh). */
Json
evalToJson(const Eval &e)
{
    Json j = Json::object();
    j.set("workload", Json::str(e.workloadName));
    j.set("key", Json::str(e.keyId));
    j.set("compile_sec", Json::num(e.compileSec));
    j.set("alms", Json::num(e.report.alms));
    j.set("brams", Json::num(e.report.brams));
    j.set("fmax_mhz", Json::num(e.report.fmaxMhz));
    j.set("power_w", Json::num(e.report.powerW));
    j.set("pruned", Json::boolean(e.pruned));
    if (!e.pruned) {
        j.set("failed", Json::boolean(e.failed));
        if (e.failed)
            j.set("fail_kind", Json::str(e.failKind));
        j.set("cycles", Json::num(e.cycles));
        j.set("seconds", Json::num(e.seconds));
        j.set("spawns", Json::num(e.spawns));
        if (e.bottleneckJson)
            j.set("bottleneck", *e.bottleneckJson);
    }
    return j;
}

/**
 * Restore an Eval from its journal line. False on any malformed or
 * missing field — the evaluation then simply re-runs, the same
 * recovery as a torn line.
 */
bool
evalFromJson(const Json &j, Eval &e)
{
    const Json *w = j.find("workload");
    const Json *key = j.find("key");
    const Json *cs = j.find("compile_sec");
    const Json *alms = j.find("alms");
    const Json *brams = j.find("brams");
    const Json *fmax = j.find("fmax_mhz");
    const Json *pw = j.find("power_w");
    const Json *pruned = j.find("pruned");
    if (!w || !w->isStr() || !key || !key->isStr() || !cs ||
        !cs->isNum() || !alms || !alms->isNum() || !brams ||
        !brams->isNum() || !fmax || !fmax->isNum() || !pw ||
        !pw->isNum() || !pruned || !pruned->isBool())
        return false;
    e.workloadName = w->asStr();
    e.keyId = key->asStr();
    e.compileSec = cs->asNum();
    e.report.alms = static_cast<uint32_t>(alms->asUint());
    e.report.brams = static_cast<uint32_t>(brams->asUint());
    e.report.fmaxMhz = fmax->asNum();
    e.report.powerW = pw->asNum();
    e.pruned = pruned->asBool();
    e.fromJournal = true;
    if (e.pruned)
        return true;

    const Json *failed = j.find("failed");
    const Json *cycles = j.find("cycles");
    const Json *seconds = j.find("seconds");
    const Json *spawns = j.find("spawns");
    if (!failed || !failed->isBool() || !cycles || !cycles->isNum() ||
        !seconds || !seconds->isNum() || !spawns || !spawns->isNum())
        return false;
    e.simulated = true;
    e.failed = failed->asBool();
    if (e.failed) {
        const Json *fk = j.find("fail_kind");
        if (!fk || !fk->isStr())
            return false;
        e.failKind = fk->asStr();
    }
    e.cycles = cycles->asUint();
    e.seconds = seconds->asNum();
    e.spawns = spawns->asUint();
    if (const Json *bn = j.find("bottleneck"))
        e.bottleneckJson = *bn;
    return true;
}

Eval
evalOne(const WorkloadFactory &make, unsigned rung,
        const Config &cfg, const ExploreOptions &opts,
        DesignCache &cache, const CancelToken *cancel,
        Journal *journal)
{
    workloads::Workload w = make(rung);
    hls::CompileOptions co = cfg.compileOptions(w.params);
    std::string text = ir::toString(*w.module);

    Eval e;
    e.workloadName = w.name;

    // The journal id is computable before any compile: the design
    // cache's own content key plus the rung (the key covers module
    // text, configuration, and device, but not the rung-sized work
    // list the workload carries).
    std::string jid;
    if (journal) {
        e.keyId = fnv1aHex(
            DesignCache::keyFor(text, w.top->name(), co, opts.device));
        jid = e.keyId + "@r" + std::to_string(rung);
        if (const Json *line = journal->find(jid)) {
            Eval restored;
            if (evalFromJson(*line, restored))
                return restored;
            tapas_warn("dse journal: malformed entry for %s; "
                       "re-running",
                       jid.c_str());
        }
    }

    DesignCache::Lookup look =
        cache.get(text, w.top->name(), co, opts.device);
    e.keyId = look.keyId;
    e.report = look.design.report;
    e.cacheHit = look.hit;
    e.compileSec = look.design.timings.totalSec;

    // Analytic-model pruning: over the device's budget means the
    // design cannot be placed, so a simulation would only cost time.
    if (e.report.alms > opts.device.totalAlms ||
        e.report.brams > opts.device.totalM20k) {
        e.pruned = true;
        if (journal)
            journal->append(jid, evalToJson(e));
        return e;
    }

    driver::AccelSimEngine::Options eo;
    eo.device = opts.device;
    eo.watchdogCycles = opts.watchdogCycles;
    driver::AccelSimEngine engine(std::move(eo));
    driver::RunOptions ro;
    ro.explain = opts.explain && rung + 1 >= std::max(1u, opts.rungs);
    ro.cancel = cancel;
    e.result = engine.runWorkload(w, look.design, ro);
    e.simulated = true;
    if (e.result.interrupted) {
        // No replayable outcome: resume re-runs this point.
        e.interrupted = true;
        return e;
    }
    e.failed = !e.result.ok();
    if (e.failed)
        e.failKind = e.result.failure->kind;
    e.cycles = e.result.cycles;
    e.seconds = e.result.seconds;
    e.spawns = e.result.spawns;
    if (e.result.bottleneck && e.result.bottleneck->valid)
        e.bottleneckJson = e.result.bottleneck->toJson();
    // A verification mismatch is fatal upstream — journaling it
    // would let a resume skip straight past a toolchain bug.
    if (journal && e.result.verifyError.empty())
        journal->append(jid, evalToJson(e));
    return e;
}

/**
 * Successive-halving rank: completed runs by ascending cycles, then
 * structurally failed runs; enumeration index breaks every tie.
 */
bool
rankBefore(const PointResult &a, size_t ia, const PointResult &b,
           size_t ib)
{
    if (a.failed != b.failed)
        return b.failed;
    if (!a.failed && a.result.cycles != b.result.cycles)
        return a.result.cycles < b.result.cycles;
    return ia < ib;
}

/**
 * Identity of one exploration for the resume journal's header: the
 * device (capacities, timing, power), the strategy and rung count,
 * and the enumerated configurations. The workload itself is covered
 * per-entry by the design-cache keys, so a journal from a different
 * workload simply misses on every id rather than poisoning anything.
 */
std::string
spaceFingerprint(const std::vector<Config> &configs,
                 const ExploreOptions &opts, unsigned rungs)
{
    std::string s = describeDevice(opts.device);
    s += '|';
    s += strategyName(opts.strategy);
    s += '|';
    s += std::to_string(rungs);
    for (const Config &c : configs) {
        s += '|';
        s += c.label();
    }
    return fnv1aHex(s);
}

} // namespace

ExploreResult
explore(const WorkloadFactory &make, const ParamSpace &space,
        const ExploreOptions &opts)
{
    const unsigned rungs = std::max(1u, opts.rungs);
    std::vector<Config> configs = enumerate(space);

    DesignCache localCache;
    DesignCache *cache = opts.cache ? opts.cache : &localCache;

    std::optional<Journal> journalStore;
    Journal *journal = nullptr;
    if (!opts.journalPath.empty()) {
        journalStore.emplace(opts.journalPath,
                             spaceFingerprint(configs, opts, rungs),
                             opts.resume);
        journal = &*journalStore;
        if (opts.resume && journal->loadedCount() > 0)
            tapas_inform("dse: resuming; %zu journaled "
                         "evaluation(s) will be restored on match",
                         journal->loadedCount());
    }

    const auto t_start = std::chrono::steady_clock::now();

    ExploreResult res;
    res.device = opts.device;
    res.strategy = opts.strategy;
    res.rungs = rungs;
    res.spaceSize = configs.size();
    res.points.resize(configs.size());
    for (size_t i = 0; i < configs.size(); ++i)
        res.points[i].config = configs[i];

    std::vector<size_t> alive(configs.size());
    std::iota(alive.begin(), alive.end(), size_t{0});

    // Hit/miss accounting walks the deterministic merge order below
    // with this seen-key set — see ExploreResult::cacheHits.
    std::set<std::string> seenKeys;

    const unsigned start_rung =
        opts.strategy == Strategy::ExhaustiveGrid ? rungs - 1 : 0;
    for (unsigned rung = start_rung; rung < rungs; ++rung) {
        // Each rung gets an equal share of the wall-clock remaining
        // when it starts; finishing a rung early rolls the slack
        // into the later (bigger) rungs.
        CancelToken rungTok(opts.cancel);
        if (opts.deadlineSeconds > 0) {
            const double elapsed =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t_start)
                    .count();
            const double remaining = opts.deadlineSeconds - elapsed;
            if (remaining <= 0)
                rungTok.cancel(CancelToken::Reason::Deadline);
            else
                rungTok.setDeadlineSeconds(remaining /
                                           (rungs - rung));
        }

        driver::Sweep<Eval> sweep(opts.jobs, &rungTok);
        for (size_t idx : alive) {
            const Config cfg = configs[idx];
            sweep.add([&make, rung, cfg, &opts, cache, &rungTok,
                       journal] {
                return evalOne(make, rung, cfg, opts, *cache,
                               &rungTok, journal);
            });
        }
        std::vector<Eval> evals = sweep.run();
        for (const auto &[slot, what] : sweep.errors()) {
            tapas_fatal("dse: candidate '%s' threw: %s",
                        configs[alive[slot]].label().c_str(),
                        what.c_str());
        }

        bool interrupted_rung = false;
        for (size_t k = 0; k < alive.size(); ++k) {
            const Eval &e = evals[k];
            PointResult &p = res.points[alive[k]];
            if (sweep.skipped().count(k) || e.interrupted) {
                // Drained before running, or stopped mid-run: no
                // usable outcome at this rung. --dse-resume re-runs.
                p.skipped = true;
                ++res.skipped;
                interrupted_rung = true;
                continue;
            }
            if (res.workload.empty())
                res.workload = e.workloadName;
            if (e.fromJournal)
                ++res.journaled;
            // First sight of a key is the compile; every repeat is a
            // hit that re-credits the design's original compile time
            // (the seconds a cold cache would have cost).
            if (seenKeys.insert(e.keyId).second) {
                res.compileSeconds += e.compileSec;
                ++res.cacheMisses;
            } else {
                res.compileSecondsSaved += e.compileSec;
                ++res.cacheHits;
            }
            p.fromJournal = e.fromJournal;
            p.keyId = e.keyId;
            p.alms = e.report.alms;
            p.brams = e.report.brams;
            p.fmaxMhz = e.report.fmaxMhz;
            p.powerW = e.report.powerW;
            p.lastRung = rung;
            if (e.pruned) {
                p.pruned = true;
                continue;
            }
            ++res.simulated;
            p.failed = e.failed;
            p.failKind = e.failKind;
            p.bottleneckJson = e.bottleneckJson;
            if (e.fromJournal) {
                // Only the scalars the rankers and reports read are
                // reconstructable from a journal line.
                p.result = driver::RunResult();
                p.result.cycles = e.cycles;
                p.result.seconds = e.seconds;
                p.result.spawns = e.spawns;
                if (p.failed)
                    p.result.failure = {p.failKind,
                                        "restored from journal"};
            } else {
                p.result = e.result;
                if (!p.failed && !e.result.verifyError.empty()) {
                    // A completed-but-wrong design is a toolchain
                    // bug, not a bad configuration; never report it
                    // as a legitimate design point.
                    tapas_fatal("dse: '%s' config %s failed "
                                "golden-model verification: %s",
                                e.workloadName.c_str(),
                                p.config.label().c_str(),
                                e.result.verifyError.c_str());
                }
            }
            p.verified = !p.failed;
        }

        if (interrupted_rung || rungTok.shouldStop()) {
            res.partial = true;
            CancelToken::Reason why = rungTok.reason();
            if (why == CancelToken::Reason::None)
                why = CancelToken::Reason::Cancelled;
            res.interruptReason = cancelReasonName(why);
            break;
        }

        alive.erase(std::remove_if(alive.begin(), alive.end(),
                                   [&](size_t idx) {
                                       return res.points[idx].pruned;
                                   }),
                    alive.end());

        if (rung + 1 < rungs && alive.size() > 1) {
            std::vector<size_t> order = alive;
            std::sort(order.begin(), order.end(),
                      [&](size_t a, size_t b) {
                          return rankBefore(res.points[a], a,
                                            res.points[b], b);
                      });
            const size_t keep = (order.size() + 1) / 2;
            for (size_t k = keep; k < order.size(); ++k)
                res.points[order[k]].eliminated = true;
            order.resize(keep);
            std::sort(order.begin(), order.end());
            alive = std::move(order);
        }
    }

    res.pruned = static_cast<uint64_t>(
        std::count_if(res.points.begin(), res.points.end(),
                      [](const PointResult &p) { return p.pruned; }));

    // Pareto frontier over (cycles, alms, power) among full-size
    // verified points.
    std::vector<size_t> cand;
    for (size_t i = 0; i < res.points.size(); ++i) {
        if (res.points[i].finalRung(rungs) && res.points[i].verified)
            cand.push_back(i);
    }
    auto dominates = [&](const PointResult &a, const PointResult &b) {
        bool no_worse = a.result.cycles <= b.result.cycles &&
                        a.alms <= b.alms && a.powerW <= b.powerW;
        bool better = a.result.cycles < b.result.cycles ||
                      a.alms < b.alms || a.powerW < b.powerW;
        return no_worse && better;
    };
    for (size_t i : cand) {
        bool dominated = false;
        for (size_t j : cand) {
            if (j != i &&
                dominates(res.points[j], res.points[i])) {
                dominated = true;
                break;
            }
        }
        if (!dominated) {
            res.points[i].onFrontier = true;
            res.frontier.push_back(i);
        }
    }
    std::sort(res.frontier.begin(), res.frontier.end(),
              [&](size_t a, size_t b) {
                  const PointResult &pa = res.points[a];
                  const PointResult &pb = res.points[b];
                  if (pa.result.cycles != pb.result.cycles)
                      return pa.result.cycles < pb.result.cycles;
                  if (pa.alms != pb.alms)
                      return pa.alms < pb.alms;
                  if (pa.powerW != pb.powerW)
                      return pa.powerW < pb.powerW;
                  return a < b;
              });
    return res;
}

namespace {

std::string
pointStatus(const PointResult &p)
{
    if (p.pruned)
        return "pruned";
    if (p.skipped)
        return "skipped";
    if (p.failed)
        return "failed:" + p.failKind;
    if (p.eliminated)
        return "eliminated";
    return "ok";
}

Json
configJson(const Config &c)
{
    Json j = Json::object();
    j.set("tiles", Json::num(c.tiles));
    j.set("ntasks", Json::num(c.ntasks));
    j.set("pipeline_depth", Json::num(c.pipelineDepth));
    j.set("unroll", Json::num(c.unrollFactor));
    j.set("opt_passes", Json::boolean(c.optPasses));
    return j;
}

Json
pointJson(const PointResult &p)
{
    Json j = Json::object();
    j.set("label", Json::str(p.config.label()));
    j.set("config", configJson(p.config));
    j.set("design_key", Json::str(p.keyId));
    j.set("status", Json::str(pointStatus(p)));
    j.set("alms", Json::num(p.alms));
    j.set("brams", Json::num(p.brams));
    j.set("fmax_mhz", Json::num(p.fmaxMhz));
    j.set("power_w", Json::num(p.powerW));
    if (!p.pruned && !p.skipped) {
        j.set("last_rung", Json::num(p.lastRung));
        j.set("cycles", Json::num(p.result.cycles));
        j.set("seconds", Json::num(p.result.seconds));
        j.set("spawns", Json::num(p.result.spawns));
        j.set("verified", Json::boolean(p.verified));
    }
    // Cycle-derived and deterministic, so safe in byte-compared
    // exports (present only when the final rung ran with explain);
    // the blob is the live toJson() or the journaled copy of it, so
    // a resumed export stays byte-identical.
    if (p.bottleneckJson)
        j.set("bottleneck", *p.bottleneckJson);
    j.set("on_frontier", Json::boolean(p.onFrontier));
    return j;
}

/** Frontier-table annotation: the dominant bottleneck class. */
std::string
dominantBottleneck(const PointResult &p)
{
    if (!p.bottleneckJson)
        return "-";
    const Json *d = p.bottleneckJson->find("dominant");
    return d && d->isStr() ? d->asStr() : "-";
}

} // namespace

Json
toJson(const ExploreResult &r)
{
    Json doc = Json::object();
    doc.set("workload", Json::str(r.workload));
    doc.set("device", Json::str(r.device.name));
    doc.set("strategy", Json::str(strategyName(r.strategy)));
    doc.set("rungs", Json::num(r.rungs));
    doc.set("space_size", Json::num(static_cast<uint64_t>(
                              r.spaceSize)));
    doc.set("pruned", Json::num(r.pruned));
    doc.set("simulated", Json::num(r.simulated));
    doc.set("cache_hits", Json::num(r.cacheHits));
    doc.set("cache_misses", Json::num(r.cacheMisses));
    // Always present (false on a complete run) so a resumed-to-
    // completion export is byte-identical to an uninterrupted one.
    doc.set("partial", Json::boolean(r.partial));
    if (r.partial)
        doc.set("interrupt_reason", Json::str(r.interruptReason));

    Json points = Json::array();
    for (const PointResult &p : r.points)
        points.push(pointJson(p));
    doc.set("points", std::move(points));

    Json frontier = Json::array();
    for (size_t i : r.frontier)
        frontier.push(pointJson(r.points[i]));
    doc.set("frontier", std::move(frontier));
    return doc;
}

void
printReport(const ExploreResult &r, std::ostream &os)
{
    os << "dse: " << r.workload << " on " << r.device.name << " ("
       << strategyName(r.strategy) << ", " << r.spaceSize
       << " configs)\n\n";

    TextTable t;
    t.header({"config", "status", "cycles", "alms", "brams",
              "power_w", "fmax", "frontier"});
    for (const PointResult &p : r.points) {
        std::string cycles =
            p.pruned || p.skipped || p.failed
                ? "-"
                : std::to_string(p.result.cycles) +
                      (p.finalRung(r.rungs) ? "" : "*");
        t.row({p.config.label(), pointStatus(p), cycles,
               std::to_string(p.alms), std::to_string(p.brams),
               strfmt("%.2f", p.powerW), strfmt("%.0f", p.fmaxMhz),
               p.onFrontier ? "*" : ""});
    }
    t.print(os);
    if (r.strategy == Strategy::SuccessiveHalving)
        os << "(* = cycles measured at a reduced-size rung)\n";

    os << "\nPareto frontier (cycles / ALMs / power):\n";
    if (r.frontier.empty()) {
        os << "  (empty - no verified full-size point)\n";
    } else {
        TextTable f;
        f.header({"config", "cycles", "seconds", "alms", "power_w",
                  "bottleneck", "verified"});
        for (size_t i : r.frontier) {
            const PointResult &p = r.points[i];
            f.row({p.config.label(),
                   std::to_string(p.result.cycles),
                   strfmt("%.3e", p.result.seconds),
                   std::to_string(p.alms), strfmt("%.2f", p.powerW),
                   dominantBottleneck(p),
                   p.verified ? "yes" : "no"});
        }
        f.print(os);
    }

    os << "\nspace " << r.spaceSize << " | pruned " << r.pruned
       << " | simulated " << r.simulated << " | compiles "
       << r.cacheMisses << " | cache hits " << r.cacheHits << "\n";
    os << strfmt("toolchain %.3gms compiling; cache hits saved "
                 "%.3gms\n",
                 r.compileSeconds * 1e3,
                 r.compileSecondsSaved * 1e3);
    if (r.journaled)
        os << "resumed: " << r.journaled
           << " evaluation(s) restored from the journal\n";
    if (r.partial)
        os << "PARTIAL (" << r.interruptReason << "): " << r.skipped
           << " point(s) not evaluated; re-run with --dse-resume to "
              "finish\n";
}

} // namespace tapas::dse
