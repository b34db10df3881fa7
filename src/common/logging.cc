#include "common/logging.h"

#include <cstdio>
#include <cstdlib>

namespace bitdec {

namespace detail {

void
warnImpl(const std::string& msg)
{
    std::fprintf(stderr, "[bitdec:warn] %s\n", msg.c_str());
}

void
fatalImpl(const char* file, int line, const std::string& msg)
{
    std::fprintf(stderr, "[bitdec:fatal] %s (%s:%d)\n", msg.c_str(), file,
                 line);
    std::exit(1);
}

void
panicImpl(const char* file, int line, const std::string& msg)
{
    std::fprintf(stderr, "[bitdec:panic] %s (%s:%d)\n", msg.c_str(), file,
                 line);
    std::abort();
}

} // namespace detail

} // namespace bitdec
