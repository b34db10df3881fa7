/**
 * @file
 * Requests that break the engine's clock or token arithmetic, each with
 * the field its admission error names. Admitted, each one aborted the
 * serving process in its tick or next-event search; every one must be
 * refused at admission. The engine test asks admissionError directly;
 * the wire test sends each as a SUBMIT frame and expects INVALID_REQUEST
 * from a server that keeps serving.
 */
#ifndef BITDEC_TESTS_INVALID_REQUESTS_H
#define BITDEC_TESTS_INVALID_REQUESTS_H

#include <limits>
#include <vector>

#include "serving/request.h"

namespace bitdec {

struct InvalidRequest
{
    const char* names;        //!< what the admission error must mention
    serving::Request request; //!< ids 1-6, otherwise well formed
};

inline std::vector<InvalidRequest>
invalidRequests()
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::vector<InvalidRequest> out;
    const auto add = [&](const char* names, auto edit) {
        serving::Request r;
        r.id = static_cast<int>(out.size()) + 1;
        r.arrival_s = 0.01 * r.id;
        r.prompt_tokens = 16;
        r.output_tokens = 16;
        edit(r);
        out.push_back({names, r});
    };
    add("arrival_s", [](serving::Request& r) { r.arrival_s = 1e7; });
    add("arrival_s", [&](serving::Request& r) { r.arrival_s = inf; });
    add("idle_wake_s", [&](serving::Request& r) {
        r.idle_after_tokens = 4;
        r.idle_wake_s = nan;
    });
    add("deadline_s", [&](serving::Request& r) { r.deadline_s = nan; });
    add("overflows", [](serving::Request& r) {
        r.prompt_tokens = 2147483647;
        r.output_tokens = 1;
    });
    add("overflows", [](serving::Request& r) {
        r.prompt_tokens = 2147483600;
        r.output_tokens = 100;
    });
    return out;
}

} // namespace bitdec

#endif // BITDEC_TESTS_INVALID_REQUESTS_H
