/** @file Unit tests for logging and error reporting. */

#include <gtest/gtest.h>

#include "sim/logging.h"

namespace hiss {
namespace {

class LoggingTest : public ::testing::Test
{
  protected:
    void TearDown() override { logging::setLevel(logging::Level::Warn); }
};

TEST_F(LoggingTest, DefaultLevelIsWarn)
{
    EXPECT_EQ(logging::level(), logging::Level::Warn);
}

TEST_F(LoggingTest, SetLevelRoundTrips)
{
    logging::setLevel(logging::Level::Silent);
    EXPECT_EQ(logging::level(), logging::Level::Silent);
    logging::setLevel(logging::Level::Warn);
    EXPECT_EQ(logging::level(), logging::Level::Warn);
}

TEST_F(LoggingTest, FatalThrowsWithFormattedMessage)
{
    try {
        fatal("bad value %d in %s", 42, "config");
        FAIL() << "fatal() did not throw";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "bad value 42 in config");
    }
}

TEST_F(LoggingTest, WarnAndInformDoNotThrow)
{
    logging::setLevel(logging::Level::Silent);
    warn("warning %d", 1);
}

TEST(LoggingDeath, PanicAborts)
{
    EXPECT_DEATH(panic("invariant %s broken", "x"),
                 "invariant x broken");
}

} // namespace
} // namespace hiss
