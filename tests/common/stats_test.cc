/** @file Unit tests for time series and table formatting. */

#include <gtest/gtest.h>

#include "common/stats.hh"

namespace turbofuzz
{
namespace
{

TEST(TimeSeries, RecordAndLast)
{
    TimeSeries s("cov");
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.last(), 0.0);
    s.record(0.0, 10.0);
    s.record(1.0, 20.0);
    EXPECT_EQ(s.last(), 20.0);
    EXPECT_EQ(s.samples().size(), 2u);
}

TEST(TimeSeries, TimeToReach)
{
    TimeSeries s;
    s.record(0.0, 0.0);
    s.record(5.0, 100.0);
    s.record(9.0, 250.0);
    EXPECT_EQ(s.timeToReach(100.0), 5.0);
    EXPECT_EQ(s.timeToReach(101.0), 9.0);
    EXPECT_LT(s.timeToReach(10000.0), 0.0);
}

TEST(TimeSeries, ValueAtStepwise)
{
    TimeSeries s;
    s.record(1.0, 5.0);
    s.record(2.0, 8.0);
    EXPECT_EQ(s.valueAt(0.5), 0.0);
    EXPECT_EQ(s.valueAt(1.0), 5.0);
    EXPECT_EQ(s.valueAt(1.5), 5.0);
    EXPECT_EQ(s.valueAt(10.0), 8.0);
}

TEST(TimeSeries, NonMonotonicTimePanics)
{
    TimeSeries s;
    s.record(5.0, 1.0);
    EXPECT_DEATH(s.record(4.0, 2.0), "non-monotonic");
}

TEST(TimeSeries, DecimationKeepsEveryNthPlusLatest)
{
    TimeSeries s("dec");
    s.setDecimation(3);
    for (int i = 0; i < 10; ++i)
        s.record(i, 100.0 + i);

    // Kept: calls 0, 3, 6, 9 — call 9 doubles as the exact tail.
    ASSERT_EQ(s.samples().size(), 4u);
    EXPECT_DOUBLE_EQ(s.samples()[0].timeSec, 0.0);
    EXPECT_DOUBLE_EQ(s.samples()[1].timeSec, 3.0);
    EXPECT_DOUBLE_EQ(s.samples()[2].timeSec, 6.0);
    EXPECT_DOUBLE_EQ(s.samples()[3].timeSec, 9.0);
    EXPECT_DOUBLE_EQ(s.last(), 109.0);

    // One more (call 10, not a multiple of 3): the provisional tail
    // is replaced, keeping last() exact without unbounded growth.
    s.record(10, 110.0);
    ASSERT_EQ(s.samples().size(), 5u);
    EXPECT_DOUBLE_EQ(s.samples()[4].timeSec, 10.0);
    EXPECT_DOUBLE_EQ(s.last(), 110.0);
    s.record(11, 111.0);
    ASSERT_EQ(s.samples().size(), 5u);
    EXPECT_DOUBLE_EQ(s.last(), 111.0);
}

TEST(TimeSeries, DecimationOfOneIsBitIdentical)
{
    TimeSeries plain("plain"), dec("dec");
    dec.setDecimation(1);
    for (int i = 0; i < 50; ++i) {
        plain.record(i * 0.5, i);
        dec.record(i * 0.5, i);
    }
    ASSERT_EQ(plain.samples().size(), dec.samples().size());
    for (size_t i = 0; i < plain.samples().size(); ++i) {
        EXPECT_DOUBLE_EQ(plain.samples()[i].timeSec,
                         dec.samples()[i].timeSec);
        EXPECT_DOUBLE_EQ(plain.samples()[i].value,
                         dec.samples()[i].value);
    }
}

TEST(TimeSeries, DecimationBoundsGrowth)
{
    TimeSeries s("big");
    s.setDecimation(100);
    for (int i = 0; i < 100000; ++i)
        s.record(i, i);
    EXPECT_LE(s.samples().size(), 100000 / 100 + 1);
    EXPECT_DOUBLE_EQ(s.last(), 99999.0);
}

TEST(TablePrinter, AlignedOutput)
{
    TablePrinter t({"Fuzzer", "Speed"});
    t.addRow({"TurboFuzz", "75.12"});
    t.addRow({"Cascade", "12.80"});
    const std::string s = t.str();
    EXPECT_NE(s.find("TurboFuzz"), std::string::npos);
    EXPECT_NE(s.find("75.12"), std::string::npos);
    // Every data row has the same width as the rule lines.
    const size_t first_nl = s.find('\n');
    const std::string rule = s.substr(0, first_nl);
    size_t pos = 0;
    int lines = 0;
    while (pos < s.size()) {
        const size_t nl = s.find('\n', pos);
        EXPECT_EQ(nl - pos, rule.size());
        pos = nl + 1;
        ++lines;
    }
    EXPECT_EQ(lines, 6); // 3 rules + header + 2 rows
}

TEST(TablePrinter, MismatchedRowPanics)
{
    TablePrinter t({"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "row has 1 cells");
}

TEST(TablePrinter, NumberFormatting)
{
    EXPECT_EQ(TablePrinter::num(3.14159, 2), "3.14");
    EXPECT_EQ(TablePrinter::num(2.0, 0), "2");
    EXPECT_EQ(TablePrinter::integer(1234567), "1,234,567");
    EXPECT_EQ(TablePrinter::integer(12), "12");
    EXPECT_EQ(TablePrinter::integer(0), "0");
}

TEST(Geomean, KnownValues)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 9.0}), 6.0);
    EXPECT_DOUBLE_EQ(geomean({2.0, 2.0, 2.0}), 2.0);
    EXPECT_EQ(geomean({}), 0.0);
}

TEST(Geomean, MatchesPaperStyleAggregation)
{
    // Aggregating acceleration ratios like Table II does.
    std::vector<double> ratios = {38.54, 474.08, 571.69};
    const double g = geomean(ratios);
    EXPECT_GT(g, 38.54);
    EXPECT_LT(g, 571.69);
}

} // namespace
} // namespace turbofuzz
