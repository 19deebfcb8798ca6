/** @file Unit tests for the key=value Config store. */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/config.hpp"

namespace nox {
namespace {

TEST(Config, ParseArgsKeyValue)
{
    const char *argv[] = {"prog", "width=8", "rate=0.25", "arch=nox"};
    Config c;
    const auto positional = c.parseArgs(4, argv);
    EXPECT_TRUE(positional.empty());
    EXPECT_EQ(c.getInt("width"), 8);
    EXPECT_DOUBLE_EQ(c.getDouble("rate"), 0.25);
    EXPECT_EQ(c.getString("arch"), "nox");
}

TEST(Config, PositionalArgsReturned)
{
    const char *argv[] = {"prog", "run", "width=4"};
    Config c;
    const auto positional = c.parseArgs(3, argv);
    ASSERT_EQ(positional.size(), 1u);
    EXPECT_EQ(positional[0], "run");
}

TEST(Config, SetStringLiteralStoresItsText)
{
    // A const char* converts to bool ahead of std::string; the text
    // must not be stored as "true".
    Config c;
    c.set("rate_mbps", "100000");
    c.set("arch", "nox");
    EXPECT_EQ(c.getString("rate_mbps"), "100000");
    EXPECT_DOUBLE_EQ(c.getDouble("rate_mbps"), 100000.0);
    EXPECT_EQ(c.getString("arch"), "nox");
}

TEST(Config, DefaultsWhenAbsent)
{
    Config c;
    EXPECT_EQ(c.getInt("missing", 7), 7);
    EXPECT_DOUBLE_EQ(c.getDouble("missing", 1.5), 1.5);
    EXPECT_EQ(c.getString("missing", "x"), "x");
    EXPECT_TRUE(c.getBool("missing", true));
    EXPECT_FALSE(c.has("missing"));
}

TEST(Config, TypedSettersRoundTrip)
{
    Config c;
    c.set("i", std::int64_t{-12});
    c.set("d", 2.5);
    c.set("b", true);
    c.set("s", std::string("hello"));
    EXPECT_EQ(c.getInt("i"), -12);
    EXPECT_DOUBLE_EQ(c.getDouble("d"), 2.5);
    EXPECT_TRUE(c.getBool("b"));
    EXPECT_EQ(c.getString("s"), "hello");
}

TEST(Config, BoolSpellings)
{
    Config c;
    for (const char *t : {"1", "true", "yes", "on", "TRUE", "Yes"}) {
        c.set("k", std::string(t));
        EXPECT_TRUE(c.getBool("k")) << t;
    }
    for (const char *f : {"0", "false", "no", "off", "False"}) {
        c.set("k", std::string(f));
        EXPECT_FALSE(c.getBool("k")) << f;
    }
}

TEST(Config, Lists)
{
    Config c;
    c.set("rates", std::string("0.1, 0.2,0.3"));
    const auto ds = c.getDoubleList("rates");
    ASSERT_EQ(ds.size(), 3u);
    EXPECT_DOUBLE_EQ(ds[1], 0.2);

    c.set("names", std::string("a, b , c"));
    const auto ss = c.getStringList("names");
    ASSERT_EQ(ss.size(), 3u);
    EXPECT_EQ(ss[2], "c");
}

TEST(Config, EmptyListWhenAbsent)
{
    Config c;
    EXPECT_TRUE(c.getDoubleList("none").empty());
    EXPECT_TRUE(c.getStringList("none").empty());
}

TEST(Config, LoadFileWithCommentsAndBlanks)
{
    const std::string path = ::testing::TempDir() + "nox_cfg_test.cfg";
    {
        std::ofstream out(path);
        out << "# a comment\n"
            << "width = 4\n"
            << "\n"
            << "rate = 0.5  # trailing comment\n";
    }
    Config c;
    c.loadFile(path);
    EXPECT_EQ(c.getInt("width"), 4);
    EXPECT_DOUBLE_EQ(c.getDouble("rate"), 0.5);
    std::remove(path.c_str());
}

TEST(Config, UnusedKeysReported)
{
    Config c;
    c.set("used", std::int64_t{1});
    c.set("unused", std::int64_t{2});
    (void)c.getInt("used");
    const auto unused = c.unusedKeys();
    ASSERT_EQ(unused.size(), 1u);
    EXPECT_EQ(unused[0], "unused");
}

TEST(Config, ItemsSorted)
{
    Config c;
    c.set("b", std::int64_t{2});
    c.set("a", std::int64_t{1});
    const auto items = c.items();
    ASSERT_EQ(items.size(), 2u);
    EXPECT_EQ(items[0].first, "a");
    EXPECT_EQ(items[1].first, "b");
}

TEST(ConfigDeathTest, BadIntegerDies)
{
    Config c;
    c.set("k", std::string("abc"));
    EXPECT_EXIT((void)c.getInt("k"), ::testing::ExitedWithCode(1),
                "not an integer");
}

TEST(ConfigDeathTest, ExplicitEmptyListDies)
{
    // An explicit empty list must not silently run the default set.
    for (const char *v : {"", " ", ",", " , "}) {
        Config c;
        c.set("loads", std::string(v));
        EXPECT_EXIT((void)c.getDoubleList("loads"),
                    ::testing::ExitedWithCode(1),
                    "'loads' is an empty list")
            << '"' << v << '"';
        EXPECT_EXIT((void)c.getStringList("loads"),
                    ::testing::ExitedWithCode(1),
                    "'loads' is an empty list")
            << '"' << v << '"';
    }
}

TEST(ConfigDeathTest, BadBoolDies)
{
    Config c;
    c.set("k", std::string("maybe"));
    EXPECT_EXIT((void)c.getBool("k"), ::testing::ExitedWithCode(1),
                "not a boolean");
}

} // namespace
} // namespace nox
