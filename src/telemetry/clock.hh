/**
 * @file
 * The telemetry timebase: one monotonic host-time clock.
 *
 * Every wall-clock reading in the repository flows through nowNs() —
 * the trace recorder's span timestamps, the stage-timing counters and
 * the fleet's host-time rows all measure against the same monotonic
 * epoch, so per-stage breakdowns, trace spans and commits/sec rows are
 * mutually comparable. Simulated time stays in SimClock; this header
 * is the single place *host* time enters.
 */

#ifndef TURBOFUZZ_TELEMETRY_CLOCK_HH
#define TURBOFUZZ_TELEMETRY_CLOCK_HH

#include <chrono>
#include <cstdint>

namespace turbofuzz::telemetry
{

/** Monotonic host time in nanoseconds (arbitrary epoch). */
inline uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * A restartable stopwatch over nowNs(). The fleet orchestrator and
 * the benches derive their elapsed-seconds readings (and the
 * commits/sec rates divided from them) from this instead of keeping
 * private chrono bookkeeping.
 */
class WallClock
{
  public:
    WallClock() : startNs(nowNs()) {}

    void restart() { startNs = nowNs(); }

    uint64_t elapsedNs() const { return nowNs() - startNs; }

    double
    elapsedSec() const
    {
        return static_cast<double>(elapsedNs()) * 1e-9;
    }

    /** The clock's epoch (a nowNs() reading). */
    uint64_t startedAtNs() const { return startNs; }

  private:
    uint64_t startNs;
};

} // namespace turbofuzz::telemetry

#endif // TURBOFUZZ_TELEMETRY_CLOCK_HH
