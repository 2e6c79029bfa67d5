/**
 * @file
 * Content-addressed, compile-once design cache for design-space
 * exploration. A compile is keyed by everything that determines its
 * output — the printed module text, the offloaded top function, the
 * full Stage-3 parameterization and pre-pass options, and the target
 * device — so byte-identical inputs map to one shared
 * driver::CompiledDesign, however many search points request it.
 *
 * Thread safety and determinism: lookups are single-flight. The
 * first requester of a key compiles while later requesters of the
 * same key block until the entry is ready and then share it. Hit and
 * miss totals are therefore a function of the request multiset alone
 * (misses = distinct keys, hits = repeats), not of thread timing —
 * which is what lets the explorer report them in `--json` output
 * that must be byte-identical for any `--jobs` value.
 */

#ifndef TAPAS_DSE_DESIGN_CACHE_HH
#define TAPAS_DSE_DESIGN_CACHE_HH

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "driver/engine.hh"

namespace tapas::dse {

/**
 * Stable, exhaustive serialization of a parameter set; every field
 * that can change the compiled design or its resource report is
 * included, so two parameter sets serialize equal iff they are
 * interchangeable as cache-key components.
 */
std::string describeParams(const arch::AcceleratorParams &p);

/** Stable serialization of the pre-pass + parameter options. */
std::string describeCompileOptions(const hls::CompileOptions &o);

/** Stable serialization of a device (capacities + timing/power). */
std::string describeDevice(const fpga::Device &d);

/** The compile-once memo table. */
class DesignCache
{
  public:
    /** One lookup's outcome. */
    struct Lookup
    {
        driver::CompiledDesign design;

        /** True when the design was served from the cache. */
        bool hit = false;

        /** fnv1aHex() of the full key (display id). */
        std::string keyId;
    };

    /**
     * The full content-addressed key for one compile. Exposed so
     * tests and reports can reason about key identity; display
     * truncation is fnv1aHex(keyFor(...)).
     */
    static std::string keyFor(const std::string &module_text,
                              const std::string &top,
                              const hls::CompileOptions &copts,
                              const fpga::Device &dev);

    /**
     * Get-or-compile. The first caller for a key runs
     * driver::compileDesign() (outside the cache lock); concurrent
     * callers for the same key wait and share the result.
     */
    Lookup get(const std::string &module_text, const std::string &top,
               const hls::CompileOptions &copts,
               const fpga::Device &dev);

    /** Lookups served from the cache so far. */
    uint64_t hits() const;

    /** Lookups that had to compile so far (== distinct keys). */
    uint64_t misses() const;

    /** Distinct designs held. */
    size_t size() const;

  private:
    struct Entry
    {
        driver::CompiledDesign design;
        bool ready = false;
    };

    mutable std::mutex mtx;
    std::condition_variable readyCv;
    std::map<std::string, std::shared_ptr<Entry>> entries;
    uint64_t hitCount = 0;
    uint64_t missCount = 0;
};

} // namespace tapas::dse

#endif // TAPAS_DSE_DESIGN_CACHE_HH
