#include "driver/snapshot.hh"

#include <fstream>
#include <sstream>

#include "support/atomic_file.hh"
#include "support/hash.hh"
#include "support/logging.hh"

namespace tapas::driver {

namespace {

constexpr const char *kMagic = "tapas-snapshot";

Json
payloadJson(const Snapshot &s)
{
    Json p = Json::object();
    p.set("input", Json::str(s.inputName));
    p.set("module_text", Json::str(s.moduleText));
    p.set("top", Json::str(s.top));
    Json args = Json::array();
    for (const std::string &a : s.runArgs)
        args.push(Json::str(a));
    p.set("run_args", std::move(args));
    p.set("tiles", Json::num(s.tiles));
    p.set("ntasks", Json::num(s.ntasks));
    p.set("opt_passes", Json::boolean(s.optPasses));
    p.set("unroll", Json::num(s.unrollFactor));
    if (s.fault) {
        Json f = Json::object();
        f.set("seed", Json::num(s.fault->seed));
        f.set("spawn_drop_rate", Json::num(s.fault->spawnDropRate));
        f.set("queue_corrupt_rate",
              Json::num(s.fault->queueCorruptRate));
        f.set("mem_drop_rate", Json::num(s.fault->memDropRate));
        f.set("mem_delay_rate", Json::num(s.fault->memDelayRate));
        f.set("tile_stuck_rate", Json::num(s.fault->tileStuckRate));
        f.set("mem_delay_cycles", Json::num(s.fault->memDelayCycles));
        f.set("mem_timeout_cycles",
              Json::num(s.fault->memTimeoutCycles));
        f.set("tile_stuck_cycles",
              Json::num(s.fault->tileStuckCycles));
        f.set("max_task_retries", Json::num(s.fault->maxTaskRetries));
        f.set("max_spawn_backoff",
              Json::num(s.fault->maxSpawnBackoff));
        p.set("fault", std::move(f));
    }
    p.set("interrupt_cycle", Json::num(s.interruptCycle));
    return p;
}

} // namespace

Json
Snapshot::toJson() const
{
    Json payload = payloadJson(*this);
    Json doc = Json::object();
    doc.set("magic", Json::str(kMagic));
    doc.set("version", Json::num(kVersion));
    doc.set("kind", Json::str(kKind));
    doc.set("checksum", Json::str(fnv1aHex(payload.dump())));
    doc.set("payload", std::move(payload));
    return doc;
}

void
writeSnapshot(const std::string &path, const Snapshot &s)
{
    atomicWriteFile(path, s.toJson().dump());
}

Snapshot
readSnapshot(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        tapas_fatal("cannot open snapshot '%s'", path.c_str());
    std::ostringstream ss;
    ss << in.rdbuf();

    std::string err;
    Json doc = Json::parse(ss.str(), &err);
    if (!err.empty() || !doc.isObject())
        tapas_fatal("snapshot '%s' is not valid JSON: %s",
                    path.c_str(), err.c_str());

    const Json *magic = doc.find("magic");
    if (!magic || !magic->isStr() || magic->asStr() != kMagic)
        tapas_fatal("'%s' is not a tapas snapshot", path.c_str());
    const Json *version = doc.find("version");
    if (!version || !version->isNum() ||
        version->asUint() != Snapshot::kVersion) {
        tapas_fatal("snapshot '%s' has version %llu; this build "
                    "reads version %llu only",
                    path.c_str(),
                    static_cast<unsigned long long>(
                        version && version->isNum()
                            ? version->asUint()
                            : 0),
                    static_cast<unsigned long long>(
                        Snapshot::kVersion));
    }
    const Json *kind = doc.find("kind");
    if (!kind || !kind->isStr() ||
        kind->asStr() != Snapshot::kKind) {
        tapas_fatal("snapshot '%s' has unsupported kind", path.c_str());
    }
    const Json *payload = doc.find("payload");
    const Json *checksum = doc.find("checksum");
    if (!payload || !payload->isObject() || !checksum ||
        !checksum->isStr())
        tapas_fatal("snapshot '%s' is missing payload/checksum",
                    path.c_str());
    if (fnv1aHex(payload->dump()) != checksum->asStr())
        tapas_fatal("snapshot '%s' failed its checksum: the file is "
                    "torn or was edited",
                    path.c_str());

    auto need = [&](const char *key) -> const Json & {
        const Json *v = payload->find(key);
        if (!v)
            tapas_fatal("snapshot '%s' payload lacks '%s'",
                        path.c_str(), key);
        return *v;
    };

    Snapshot s;
    s.inputName = need("input").asStr();
    s.moduleText = need("module_text").asStr();
    s.top = need("top").asStr();
    const Json &args = need("run_args");
    for (size_t i = 0; i < args.size(); ++i)
        s.runArgs.push_back(args.at(i).asStr());
    s.tiles = static_cast<unsigned>(need("tiles").asUint());
    s.ntasks = static_cast<unsigned>(need("ntasks").asUint());
    s.optPasses = need("opt_passes").asBool();
    s.unrollFactor = static_cast<unsigned>(need("unroll").asUint());
    s.interruptCycle = need("interrupt_cycle").asUint();
    if (const Json *f = payload->find("fault")) {
        sim::FaultConfig fc;
        auto fneed = [&](const char *key) -> const Json & {
            const Json *v = f->find(key);
            if (!v)
                tapas_fatal("snapshot '%s' fault block lacks '%s'",
                            path.c_str(), key);
            return *v;
        };
        fc.seed = fneed("seed").asUint();
        fc.spawnDropRate = fneed("spawn_drop_rate").asNum();
        fc.queueCorruptRate = fneed("queue_corrupt_rate").asNum();
        fc.memDropRate = fneed("mem_drop_rate").asNum();
        fc.memDelayRate = fneed("mem_delay_rate").asNum();
        fc.tileStuckRate = fneed("tile_stuck_rate").asNum();
        fc.memDelayCycles = static_cast<unsigned>(
            fneed("mem_delay_cycles").asUint());
        fc.memTimeoutCycles = static_cast<unsigned>(
            fneed("mem_timeout_cycles").asUint());
        fc.tileStuckCycles = static_cast<unsigned>(
            fneed("tile_stuck_cycles").asUint());
        fc.maxTaskRetries = static_cast<unsigned>(
            fneed("max_task_retries").asUint());
        fc.maxSpawnBackoff = static_cast<unsigned>(
            fneed("max_spawn_backoff").asUint());
        s.fault = fc;
    }
    return s;
}

} // namespace tapas::driver
