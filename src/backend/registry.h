/**
 * @file
 * String-keyed registry of attention backends with self-registration.
 *
 * Builtin backends register themselves from static initializers in their
 * own translation units (BITDEC_REGISTER_BACKEND); the registry instance
 * anchors those units into static-library links. An unknown name is
 * fatal with the full list of registered names — there is deliberately
 * no silent fallback to a default backend.
 */
#ifndef BITDEC_BACKEND_REGISTRY_H
#define BITDEC_BACKEND_REGISTRY_H

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "backend/attention_backend.h"

namespace bitdec::backend {

/** Process-wide backend registry (Meyers singleton). */
class BackendRegistry
{
  public:
    /** The process-wide instance; constructed on first use. */
    static BackendRegistry& instance();

    /**
     * Registers a backend under its name(). Duplicate names are a fatal
     * error: two kernels silently shadowing each other under one key is
     * exactly the ad-hoc wiring this API removes.
     */
    void add(std::unique_ptr<AttentionBackend> backend);

    /**
     * Returns the backend registered under @p name; unknown names are a
     * fatal error listing every registered name (fail fast — never fall
     * back to a default).
     */
    AttentionBackend& resolve(const std::string& name) const;

    /** Like resolve(), but returns nullptr for unknown names. */
    const AttentionBackend* find(const std::string& name) const;

    /** Registered names, sorted. */
    std::vector<std::string> names() const;

    /** Names of the fused hot-path backends (the CI perf-gate set),
     *  sorted. */
    std::vector<std::string> fusedNames() const;

    /** Multi-line capability matrix (listings, error messages). */
    std::string capabilityMatrix() const;

    /** Number of registered backends. */
    int size() const { return static_cast<int>(backends_.size()); }

  private:
    BackendRegistry() = default;

    std::map<std::string, std::unique_ptr<AttentionBackend>> backends_;
};

/**
 * Self-registers @p BackendClass (default-constructed) with the registry
 * from a static initializer. Use at namespace scope in the backend's
 * translation unit.
 */
#define BITDEC_REGISTER_BACKEND(BackendClass) \
    static const bool bitdec_registered_##BackendClass = [] { \
        ::bitdec::backend::BackendRegistry::instance().add( \
            std::make_unique<BackendClass>()); \
        return true; \
    }()

} // namespace bitdec::backend

#endif // BITDEC_BACKEND_REGISTRY_H
