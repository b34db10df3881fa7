/**
 * @file
 * Process-wide graceful-drain flag for SIGINT/SIGTERM.
 *
 * installDrainSignalHandlers() arms both signals once; the handler only
 * sets an atomic flag (async-signal-safe), which long-running loops —
 * the socket server's poll loop, the serving demos' pump loops — check
 * between rounds via drainRequested(). The second signal falls back to
 * the default disposition, so a stuck drain can still be killed with a
 * repeated Ctrl-C.
 */
#ifndef BITDEC_NET_DRAIN_H
#define BITDEC_NET_DRAIN_H

namespace bitdec::net {

/** Arms SIGINT/SIGTERM to request a graceful drain. Idempotent. */
void installDrainSignalHandlers();

/** True once SIGINT or SIGTERM was received. */
bool drainRequested();

} // namespace bitdec::net

#endif // BITDEC_NET_DRAIN_H
