#include "dse/design_cache.hh"

#include <sstream>

#include "support/hash.hh"
#include "support/logging.hh"

namespace tapas::dse {

std::string
describeParams(const arch::AcceleratorParams &p)
{
    std::ostringstream os;
    auto unit = [&](const arch::TaskUnitParams &u) {
        os << "ntasks=" << u.ntasks << ",ntiles=" << u.ntiles
           << ",depth=" << u.tilePipelineDepth << ";";
    };
    os << "defaults{";
    unit(p.defaults);
    os << "}";
    for (const auto &[sid, u] : p.perTask) {
        os << "task" << sid << "{";
        unit(u);
        os << "}";
    }
    const arch::MemSystemParams &m = p.mem;
    os << "mem{scratch=" << m.useScratchpad
       << ",scratch_lat=" << m.scratchpadLatency
       << ",cache=" << m.cacheBytes << ",line=" << m.lineBytes
       << ",ways=" << m.ways << ",hit_lat=" << m.hitLatency
       << ",dram_lat=" << m.dramLatency << ",mshrs=" << m.mshrs
       << ",ports=" << m.portsPerCycle
       << ",dram_wpc=" << m.dramWordsPerCycle << "}"
       << "spawn{per_arg=" << p.spawnCyclesPerArg
       << ",handshake=" << p.spawnHandshake
       << ",dispatch=" << p.dispatchLatency
       << ",join=" << p.joinLatency << "}";
    return os.str();
}

std::string
describeCompileOptions(const hls::CompileOptions &o)
{
    // The stats out-pointers are outputs, not inputs: they cannot
    // change the compiled design and stay out of the key.
    std::ostringstream os;
    os << "opt=" << o.runOptPasses << ",unroll=" << o.unrollFactor
       << ",params{" << describeParams(o.params) << "}";
    return os.str();
}

std::string
describeDevice(const fpga::Device &d)
{
    std::ostringstream os;
    os << "device{" << d.name << ",alms=" << d.totalAlms
       << ",m20k=" << d.totalM20k << ",base_mhz=" << d.baseMhz
       << ",congestion=" << d.congestionSlope
       << ",power_scale=" << d.powerScale << "}";
    return os.str();
}

std::string
DesignCache::keyFor(const std::string &module_text,
                    const std::string &top,
                    const hls::CompileOptions &copts,
                    const fpga::Device &dev)
{
    std::ostringstream os;
    os << "top=@" << top << "\n"
       << describeCompileOptions(copts) << "\n"
       << describeDevice(dev) << "\n"
       << module_text;
    return os.str();
}

DesignCache::Lookup
DesignCache::get(const std::string &module_text,
                 const std::string &top,
                 const hls::CompileOptions &copts,
                 const fpga::Device &dev)
{
    const std::string key = keyFor(module_text, top, copts, dev);
    std::string key_id = fnv1aHex(key);

    std::shared_ptr<Entry> entry;
    {
        std::unique_lock<std::mutex> lock(mtx);
        auto it = entries.find(key);
        if (it != entries.end()) {
            ++hitCount;
            entry = it->second;
            readyCv.wait(lock, [&] { return entry->ready; });
            return Lookup{entry->design, true, std::move(key_id)};
        }
        ++missCount;
        entry = std::make_shared<Entry>();
        entries.emplace(key, entry);
    }

    // Compile outside the lock so distinct keys compile in parallel;
    // same-key requesters are parked on readyCv above.
    driver::CompiledDesign cd =
        driver::compileDesign(module_text, top, copts, dev);
    {
        std::lock_guard<std::mutex> lock(mtx);
        entry->design = cd;
        entry->ready = true;
    }
    readyCv.notify_all();
    return Lookup{std::move(cd), false, std::move(key_id)};
}

uint64_t
DesignCache::hits() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return hitCount;
}

uint64_t
DesignCache::misses() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return missCount;
}

size_t
DesignCache::size() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return entries.size();
}

} // namespace tapas::dse
