/**
 * @file
 * Lightweight statistics: counters, time series and table printing.
 *
 * The benches reproduce the paper's tables and figures as text; the
 * helpers here keep their formatting consistent across binaries.
 */

#ifndef TURBOFUZZ_COMMON_STATS_HH
#define TURBOFUZZ_COMMON_STATS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace turbofuzz::soc
{
class SnapshotWriter;
class SnapshotReader;
} // namespace turbofuzz::soc

namespace turbofuzz
{

/** One (time, value) sample of a coverage-versus-time curve. */
struct Sample
{
    double timeSec;
    double value;
};

/**
 * An append-only series of samples, e.g. coverage over simulated time.
 */
class TimeSeries
{
  public:
    explicit TimeSeries(std::string series_name = "")
        : seriesName(std::move(series_name))
    {}

    void record(double time_sec, double value);

    /**
     * Sample decimation for unbounded recorders (long campaigns
     * record one sample per iteration): keep every Nth record() call
     * plus, always, the most recent one — the series tail stays
     * exact (last() never lags) while memory growth is bounded to
     * ~calls/N. N == 1 (the default) keeps every sample and is
     * bit-identical to a series without decimation. Changing N
     * mid-series affects only future record() calls.
     */
    void setDecimation(uint64_t keep_every_n);

    const std::string &name() const { return seriesName; }
    const std::vector<Sample> &samples() const { return data; }
    bool empty() const { return data.empty(); }

    /** Last recorded value (0 if empty). */
    double last() const;

    /**
     * First time at which the series reaches @p target.
     * @return time in seconds, or a negative value if never reached.
     */
    double timeToReach(double target) const;

    /** Value at time @p t (stepwise interpolation; 0 before start). */
    double valueAt(double t) const;

    /**
     * Checkpoint support: serialize samples plus the decimation
     * cursor state, so a resumed recorder continues the keep-every-N
     * pattern exactly where the checkpointed one left off.
     */
    void saveState(soc::SnapshotWriter &out) const;

    /** Restore a saveState() image (replaces all samples).
     *  @return false with @p error set on malformed input. */
    bool loadState(soc::SnapshotReader &in,
                   std::string *error = nullptr);

  private:
    std::string seriesName;
    std::vector<Sample> data;

    uint64_t stride = 1;    ///< keep every Nth record() call
    uint64_t callCount = 0; ///< record() calls seen so far
    /** True when data.back() is the always-kept "latest" sample that
     *  the next record() replaces rather than appends after. */
    bool tailProvisional = false;
};

/**
 * Fixed-width text table mirroring the paper's table layout.
 */
class TablePrinter
{
  public:
    explicit TablePrinter(std::vector<std::string> headers);

    void addRow(std::vector<std::string> cells);

    /** Render to a string with aligned columns. */
    std::string str() const;

    /** Print to stdout. */
    void print() const;

    /** Format helper: fixed-precision double. */
    static std::string num(double v, int precision = 2);

    /** Format helper: integer with thousands separators. */
    static std::string integer(uint64_t v);

  private:
    std::vector<std::string> columnHeaders;
    std::vector<std::vector<std::string>> rows;
};

/** Geometric mean of a vector of positive values (0 if empty). */
double geomean(const std::vector<double> &values);

} // namespace turbofuzz

#endif // TURBOFUZZ_COMMON_STATS_HH
