#include "common/stats.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/logging.hh"
#include "soc/snapshot.hh"

namespace turbofuzz
{

void
TimeSeries::record(double time_sec, double value)
{
    if (!data.empty() && time_sec < data.back().timeSec) {
        panic("TimeSeries '%s': non-monotonic time %.6f < %.6f",
              seriesName.c_str(), time_sec, data.back().timeSec);
    }
    const bool keep = (callCount % stride) == 0;
    ++callCount;
    if (tailProvisional)
        data.pop_back(); // replace the previous "latest" sample
    data.push_back({time_sec, value});
    tailProvisional = !keep;
}

void
TimeSeries::setDecimation(uint64_t keep_every_n)
{
    TF_ASSERT(keep_every_n >= 1,
              "TimeSeries decimation must be >= 1");
    stride = keep_every_n;
}

double
TimeSeries::last() const
{
    return data.empty() ? 0.0 : data.back().value;
}

double
TimeSeries::timeToReach(double target) const
{
    for (const auto &s : data) {
        if (s.value >= target)
            return s.timeSec;
    }
    return -1.0;
}

double
TimeSeries::valueAt(double t) const
{
    double v = 0.0;
    for (const auto &s : data) {
        if (s.timeSec > t)
            break;
        v = s.value;
    }
    return v;
}

void
TimeSeries::saveState(soc::SnapshotWriter &out) const
{
    out.putU64(stride);
    out.putU64(callCount);
    out.putU8(tailProvisional ? 1 : 0);
    out.putU32(static_cast<uint32_t>(data.size()));
    for (const Sample &s : data) {
        out.putF64(s.timeSec);
        out.putF64(s.value);
    }
}

bool
TimeSeries::loadState(soc::SnapshotReader &in, std::string *error)
{
    auto fail = [&](const char *msg) {
        if (error)
            *error = msg;
        return false;
    };

    if (in.remaining() < 8 + 8 + 1 + 4)
        return fail("truncated time-series header");
    stride = in.getU64();
    if (stride < 1)
        return fail("bad time-series decimation");
    callCount = in.getU64();
    tailProvisional = in.getU8() != 0;
    const uint32_t count = in.getU32();
    if (count > in.remaining() / 16)
        return fail("time-series sample count exceeds buffer");
    data.clear();
    data.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
        Sample s;
        s.timeSec = in.getF64();
        s.value = in.getF64();
        data.push_back(s);
    }
    return true;
}

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : columnHeaders(std::move(headers))
{
}

void
TablePrinter::addRow(std::vector<std::string> cells)
{
    if (cells.size() != columnHeaders.size()) {
        panic("TablePrinter: row has %zu cells, expected %zu",
              cells.size(), columnHeaders.size());
    }
    rows.push_back(std::move(cells));
}

std::string
TablePrinter::str() const
{
    std::vector<size_t> widths(columnHeaders.size());
    for (size_t c = 0; c < columnHeaders.size(); ++c)
        widths[c] = columnHeaders[c].size();
    for (const auto &row : rows)
        for (size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    std::ostringstream out;
    auto emit_row = [&](const std::vector<std::string> &cells) {
        out << "|";
        for (size_t c = 0; c < cells.size(); ++c) {
            out << " " << cells[c]
                << std::string(widths[c] - cells[c].size(), ' ') << " |";
        }
        out << "\n";
    };
    auto emit_rule = [&]() {
        out << "+";
        for (size_t c = 0; c < widths.size(); ++c)
            out << std::string(widths[c] + 2, '-') << "+";
        out << "\n";
    };

    emit_rule();
    emit_row(columnHeaders);
    emit_rule();
    for (const auto &row : rows)
        emit_row(row);
    emit_rule();
    return out.str();
}

void
TablePrinter::print() const
{
    std::fputs(str().c_str(), stdout);
}

std::string
TablePrinter::num(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

std::string
TablePrinter::integer(uint64_t v)
{
    std::string raw = std::to_string(v);
    std::string out;
    int count = 0;
    for (auto it = raw.rbegin(); it != raw.rend(); ++it) {
        if (count && count % 3 == 0)
            out.push_back(',');
        out.push_back(*it);
        ++count;
    }
    std::reverse(out.begin(), out.end());
    return out;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values) {
        TF_ASSERT(v > 0.0, "geomean requires positive values");
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

} // namespace turbofuzz
