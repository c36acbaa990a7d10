/**
 * @file
 * Tests for the interval-trace CSV exporter.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "ppep/trace/collector.hpp"
#include "ppep/trace/export.hpp"
#include "ppep/workloads/suite.hpp"

namespace {

using namespace ppep;

class ExportTest : public ::testing::Test
{
  protected:
    // One file per process: ctest runs each case as its own process,
    // in parallel, so a shared name would let cases clobber each other.
    std::string path_ = ::testing::TempDir() + "ppep_trace_test_" +
                        std::to_string(::getpid()) + ".csv";

    std::vector<std::string>
    lines()
    {
        std::ifstream in(path_);
        std::vector<std::string> out;
        std::string line;
        while (std::getline(in, line))
            out.push_back(line);
        return out;
    }

    static std::vector<std::string>
    cells(const std::string &line)
    {
        std::vector<std::string> out;
        std::stringstream ss(line);
        std::string cell;
        while (std::getline(ss, cell, ','))
            out.push_back(cell);
        return out;
    }

    std::vector<trace::IntervalRecord>
    shortTrace()
    {
        sim::Chip chip(sim::fx8320Config(), 1);
        chip.setAllVf(2);
        workloads::launch(chip, workloads::replicate("456.hmmer", 1),
                          true);
        trace::Collector col(chip);
        return col.collect(5);
    }

    void
    TearDown() override
    {
        std::remove(path_.c_str());
    }
};

TEST_F(ExportTest, HeaderPlusOneRowPerInterval)
{
    trace::exportCsv(shortTrace(), path_);
    const auto ls = lines();
    ASSERT_EQ(ls.size(), 6u); // header + 5 intervals
    EXPECT_EQ(cells(ls[0]).front(), "interval");
}

TEST_F(ExportTest, DefaultColumnsIncludeEventRates)
{
    trace::exportCsv(shortTrace(), path_);
    const auto header = cells(lines()[0]);
    EXPECT_EQ(header.size(), 6u + sim::kNumEvents);
    EXPECT_EQ(header[6], "e1_per_s");
    EXPECT_EQ(header.back(), "e12_per_s");
}

TEST_F(ExportTest, TruthColumnsOptIn)
{
    trace::ExportOptions opt;
    opt.truth = true;
    trace::exportCsv(shortTrace(), path_, opt);
    const auto header = cells(lines()[0]);
    EXPECT_EQ(header.size(), 6u + sim::kNumEvents + 5u);
    EXPECT_EQ(header.back(), "nb_utilization");
}

TEST_F(ExportTest, MinimalColumns)
{
    trace::ExportOptions opt;
    opt.pmc_rates = false;
    trace::exportCsv(shortTrace(), path_, opt);
    EXPECT_EQ(cells(lines()[0]).size(), 6u);
}

TEST_F(ExportTest, ValuesMatchRecords)
{
    const auto trace_data = shortTrace();
    trace::exportCsv(trace_data, path_);
    const auto ls = lines();
    for (std::size_t i = 0; i < trace_data.size(); ++i) {
        const auto row = cells(ls[i + 1]);
        EXPECT_DOUBLE_EQ(std::stod(row[0]), static_cast<double>(i));
        EXPECT_NEAR(std::stod(row[2]), trace_data[i].sensor_power_w,
                    1e-6);
        EXPECT_DOUBLE_EQ(std::stod(row[4]), 2.0); // VF index
        const double e11 = std::stod(row[6 + sim::eventIndex(
                                             sim::Event::RetiredInst)]);
        EXPECT_NEAR(e11,
                    trace_data[i].pmcTotal(sim::Event::RetiredInst) /
                        trace_data[i].duration_s,
                    1.0);
    }
}

TEST_F(ExportTest, EmptyTraceWritesHeaderOnly)
{
    trace::exportCsv({}, path_);
    EXPECT_EQ(lines().size(), 1u);
}

} // namespace
