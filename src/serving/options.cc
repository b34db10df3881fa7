#include "serving/options.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "backend/registry.h"
#include "common/logging.h"

namespace bitdec::serving {

namespace {

/** Strictly-parsed non-negative integer value of `--flag=<n>`. */
long
intValue(const char* flag, const char* text)
{
    char* end = nullptr;
    const long v = std::strtol(text, &end, 0);
    if (end == text || *end != '\0' || v < 0)
        BITDEC_FATAL(flag, "= needs a non-negative integer, got '", text,
                     "'");
    return v;
}

} // namespace

ServingOptions
ServingOptions::parse(int argc, char** argv)
{
    ServingOptions o;
    for (int i = 1; i < argc; i++) {
        const char* arg = argv[i];
        if (std::strncmp(arg, "--backend=", 10) == 0) {
            o.backend = arg + 10;
            if (o.backend.empty())
                BITDEC_FATAL("--backend= needs a name (see "
                             "--list-backends)");
        } else if (std::strcmp(arg, "--backend") == 0) {
            // Space-separated form would silently select the default
            // backend — the exact silent fallback this API forbids.
            BITDEC_FATAL("--backend takes its value with '=', e.g. "
                         "--backend=fused-paged");
        } else if (std::strcmp(arg, "--list-backends") == 0) {
            o.list_backends = true;
        } else if (std::strncmp(arg, "--list-backends=", 16) == 0) {
            o.list_backends = true;
            o.list_mode = arg + 16;
        } else if (std::strncmp(arg, "--faults=", 9) == 0) {
            o.fault_spec = arg + 9;
            if (o.fault_spec.empty())
                BITDEC_FATAL("--faults= needs a spec, e.g. "
                             "--faults=fetch=0.02,corrupt=0.01");
        } else if (std::strcmp(arg, "--faults") == 0) {
            BITDEC_FATAL("--faults takes its value with '=', e.g. "
                         "--faults=fetch=0.02,corrupt=0.01");
        } else if (std::strncmp(arg, "--fault-seed=", 13) == 0) {
            char* end = nullptr;
            o.fault_seed = std::strtoull(arg + 13, &end, 0);
            if (end == arg + 13 || *end != '\0')
                BITDEC_FATAL("--fault-seed= needs an integer, got '",
                             arg + 13, "'");
            o.fault_seed_given = true;
        } else if (std::strcmp(arg, "--fault-seed") == 0) {
            BITDEC_FATAL("--fault-seed takes its value with '=', e.g. "
                         "--fault-seed=1337");
        } else if (std::strncmp(arg, "--shards=", 9) == 0) {
            o.shards = static_cast<int>(intValue("--shards", arg + 9));
            if (o.shards < 1)
                BITDEC_FATAL("--shards= needs at least 1, got '", arg + 9,
                             "'");
        } else if (std::strcmp(arg, "--shards") == 0) {
            BITDEC_FATAL("--shards takes its value with '=', e.g. "
                         "--shards=4");
        } else if (std::strcmp(arg, "--smoke") == 0) {
            o.smoke = true;
        } else if (std::strncmp(arg, "--port=", 7) == 0) {
            o.port = static_cast<int>(intValue("--port", arg + 7));
            if (o.port > 65535)
                BITDEC_FATAL("--port= must be <= 65535, got '", arg + 7,
                             "'");
            o.port_given = true;
        } else if (std::strcmp(arg, "--port") == 0) {
            BITDEC_FATAL("--port takes its value with '=', e.g. "
                         "--port=9178");
        } else if (std::strncmp(arg, "--hot-pool-pages=", 17) == 0) {
            o.hot_pool_pages =
                static_cast<int>(intValue("--hot-pool-pages", arg + 17));
            if (o.hot_pool_pages <= 0)
                BITDEC_FATAL("--hot-pool-pages= must be positive, got '",
                             arg + 17, "'");
        } else if (std::strncmp(arg, "--tier=", 7) == 0) {
            o.tier = arg + 7;
            if (o.tier != "host" && o.tier != "host,disk" &&
                o.tier != "none")
                BITDEC_FATAL("--tier= must be 'host', 'host,disk' or "
                             "'none', got '",
                             o.tier, "'");
        }
    }
    return o;
}

bool
ServingOptions::maybeListBackends() const
{
    if (!list_backends)
        return false;
    if (!list_mode.empty() && list_mode != "names" && list_mode != "fused")
        BITDEC_FATAL("unknown --list-backends mode '", list_mode,
                     "' (use --list-backends, =names or =fused)");
    auto& reg = backend::BackendRegistry::instance();
    if (list_mode == "names" || list_mode == "fused") {
        const auto names =
            list_mode == "fused" ? reg.fusedNames() : reg.names();
        for (const std::string& n : names)
            std::printf("%s\n", n.c_str());
        return true;
    }
    std::printf("registered attention backends "
                "(caches | formats | scenarios):\n%s",
                reg.capabilityMatrix().c_str());
    return true;
}

const backend::AttentionBackend&
ServingOptions::resolveBackend(const std::string& fallback) const
{
    return backend::BackendRegistry::instance().resolve(
        backend.empty() ? fallback : backend);
}

fault::FaultSchedule
ServingOptions::faultsOr(const std::string& default_spec) const
{
    return fault::FaultSchedule::parse(
        fault_spec.empty() ? default_spec : fault_spec);
}

} // namespace bitdec::serving
