#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/json.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace pinsql {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kFailedPrecondition,
        StatusCode::kParseError, StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("nope");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::string> v = std::string("payload");
  ASSERT_TRUE(v.ok());
  std::string s = std::move(v).value();
  EXPECT_EQ(s, "payload");
}

// ---------------------------------------------------------------- Strings

TEST(StringsTest, SplitKeepsEmptyPieces) {
  EXPECT_EQ(StrSplit("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(StrSplit("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(StrSplit("x", ','), (std::vector<std::string>{"x"}));
}

TEST(StringsTest, JoinRoundTrips) {
  EXPECT_EQ(StrJoin({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(StrJoin({}, ","), "");
}

TEST(StringsTest, Strip) {
  EXPECT_EQ(StripAsciiWhitespace("  x y \t\n"), "x y");
  EXPECT_EQ(StripAsciiWhitespace("\t \n"), "");
  EXPECT_EQ(StripAsciiWhitespace("abc"), "abc");
}

TEST(StringsTest, CaseConversion) {
  EXPECT_EQ(AsciiToLower("SeLeCt * FROM T1"), "select * from t1");
  EXPECT_EQ(AsciiToUpper("select"), "SELECT");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("SELECT 1", "SELECT"));
  EXPECT_FALSE(StartsWith("SEL", "SELECT"));
  EXPECT_TRUE(EndsWith("a.sudden_increase", ".sudden_increase"));
  EXPECT_FALSE(EndsWith("x", "long_suffix"));
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StringsTest, Fnv1a64KnownVectors) {
  // Standard FNV-1a test vectors.
  EXPECT_EQ(Fnv1a64(""), 0xCBF29CE484222325ULL);
  EXPECT_EQ(Fnv1a64("a"), 0xAF63DC4C8601EC8CULL);
  EXPECT_NE(Fnv1a64("SELECT 1"), Fnv1a64("SELECT 2"));
}

TEST(StringsTest, HashToHexIsFixedWidthUppercase) {
  EXPECT_EQ(HashToHex(0), "0000000000000000");
  EXPECT_EQ(HashToHex(0xABCDEF0123456789ULL), "ABCDEF0123456789");
}

// ---------------------------------------------------------------- Rng

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform01(), b.Uniform01());
  }
}

TEST(RngTest, UniformBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
    const int64_t n = rng.UniformInt(-3, 3);
    EXPECT_GE(n, -3);
    EXPECT_LE(n, 3);
  }
}

TEST(RngTest, BernoulliEdges) {
  Rng rng(2);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RngTest, PoissonMeanRoughlyCorrect) {
  Rng rng(3);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.Poisson(4.0));
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(RngTest, LogNormalMeanRoughlyCorrect) {
  Rng rng(4);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.LogNormalWithMean(10.0, 0.5);
  EXPECT_NEAR(sum / n, 10.0, 0.5);
}

TEST(RngTest, ForkDecorrelatesStreams) {
  Rng base(5);
  Rng a = base.Fork(1);
  Rng b = base.Fork(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.UniformInt(0, 1000000) == b.UniformInt(0, 1000000)) ++equal;
  }
  EXPECT_LT(equal, 3);
}

// ---------------------------------------------------------------- Json

TEST(JsonTest, ParsePrimitives) {
  EXPECT_TRUE(Json::Parse("null")->is_null());
  EXPECT_EQ(Json::Parse("true")->AsBool(), true);
  EXPECT_EQ(Json::Parse("false")->AsBool(), false);
  EXPECT_DOUBLE_EQ(Json::Parse("3.5")->AsNumber(), 3.5);
  EXPECT_DOUBLE_EQ(Json::Parse("-2e3")->AsNumber(), -2000.0);
  EXPECT_EQ(Json::Parse("\"hi\"")->AsString(), "hi");
}

TEST(JsonTest, ParseNestedDocument) {
  auto doc = Json::Parse(R"({"a": [1, 2, {"b": "x"}], "c": null})");
  ASSERT_TRUE(doc.ok());
  const Json* a = doc->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  EXPECT_EQ(a->AsArray().size(), 3u);
  EXPECT_EQ(a->AsArray()[2].Find("b")->AsString(), "x");
  EXPECT_TRUE(doc->Find("c")->is_null());
  EXPECT_EQ(doc->Find("missing"), nullptr);
}

TEST(JsonTest, StringEscapes) {
  auto doc = Json::Parse(R"("line\nbreak\t\"q\" \\ A")");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->AsString(), "line\nbreak\t\"q\" \\ A");
}

TEST(JsonTest, UnicodeEscapeUtf8) {
  auto doc = Json::Parse(R"("é中")");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->AsString(), "\xC3\xA9\xE4\xB8\xAD");
}

TEST(JsonTest, ParseErrorsAreReported) {
  EXPECT_FALSE(Json::Parse("").ok());
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("[1,]").ok());
  EXPECT_FALSE(Json::Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(Json::Parse("tru").ok());
  EXPECT_FALSE(Json::Parse("1 2").ok());
  EXPECT_FALSE(Json::Parse("\"unterminated").ok());
  EXPECT_FALSE(Json::Parse("01a").ok());
  EXPECT_FALSE(Json::Parse("1e").ok());
}

TEST(JsonTest, DeepNestingIsRejected) {
  std::string deep(500, '[');
  deep += std::string(500, ']');
  EXPECT_FALSE(Json::Parse(deep).ok());
}

// Hardening: hostile/truncated documents must yield a parse-error Status,
// never a crash or runaway recursion. Run under ASan in CI.

TEST(JsonTest, TruncatedDocumentsAreParseErrors) {
  const char* full = R"({"a":[1,{"b":"c\u00e9"},true],"d":null})";
  const std::string text(full);
  // Every proper prefix of a valid document is itself invalid.
  for (size_t len = 0; len < text.size(); ++len) {
    const auto parsed = Json::Parse(text.substr(0, len));
    EXPECT_FALSE(parsed.ok()) << "prefix length " << len;
    EXPECT_EQ(parsed.status().code(), StatusCode::kParseError)
        << "prefix length " << len;
  }
  EXPECT_TRUE(Json::Parse(text).ok());
}

TEST(JsonTest, DeepMixedAndObjectNestingRejected) {
  // Alternating object/array nesting (the worst case for naive depth
  // accounting) and deep object chains both hit the depth limit cleanly.
  std::string mixed;
  for (int i = 0; i < 300; ++i) mixed += "[{\"k\":";
  mixed += "1";
  for (int i = 0; i < 300; ++i) mixed += "}]";
  EXPECT_FALSE(Json::Parse(mixed).ok());

  std::string objects;
  for (int i = 0; i < 400; ++i) objects += "{\"a\":";
  objects += "null";
  objects += std::string(400, '}');
  EXPECT_FALSE(Json::Parse(objects).ok());

  // Just under the limit parses fine: the guard is a limit, not a ban.
  std::string shallow(100, '[');
  shallow += "1";
  shallow += std::string(100, ']');
  EXPECT_TRUE(Json::Parse(shallow).ok());
}

TEST(JsonTest, BadEscapesAreParseErrors) {
  EXPECT_FALSE(Json::Parse("\"\\q\"").ok());       // unknown escape
  EXPECT_FALSE(Json::Parse("\"\\u12\"").ok());     // short unicode escape
  EXPECT_FALSE(Json::Parse("\"\\u12zz\"").ok());   // non-hex unicode escape
  EXPECT_FALSE(Json::Parse("\"\\").ok());          // escape at end of input
  EXPECT_FALSE(Json::Parse("\"a\\").ok());
  EXPECT_FALSE(Json::Parse("{\"k\\").ok());        // escape inside a key
}

TEST(JsonTest, HostileInputsNeverCrash) {
  // None of these need to parse; they must all return, not crash.
  const std::string nul_bytes("[\"a\0b\"]", 7);
  for (const std::string& text :
       {std::string("[[[[[\"\\"), std::string("{\"\":{\"\":{\"\":"),
        std::string("-"), std::string("+1"), std::string("\x80\xff"),
        std::string("[1e999999]"), nul_bytes,
        std::string(10000, '"'), std::string(10000, '\\')}) {
    (void)Json::Parse(text);
  }
}

TEST(JsonTest, DumpCompactRoundTrip) {
  const std::string text = R"({"a":[1,2.5,"x"],"b":{"c":true},"d":null})";
  auto doc = Json::Parse(text);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Dump(), text);
  auto again = Json::Parse(doc->Dump());
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(*again == *doc);
}

TEST(JsonTest, DumpPrettyParsesBack) {
  auto doc = Json::Parse(R"({"a": [1, {"b": [2, 3]}], "c": "x"})");
  ASSERT_TRUE(doc.ok());
  const std::string pretty = doc->Dump(/*pretty=*/true);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  auto again = Json::Parse(pretty);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(*again == *doc);
}

TEST(JsonTest, BuilderApi) {
  Json obj = Json::MakeObject();
  obj.Set("n", 3).Set("s", "x");
  Json arr = Json::MakeArray();
  arr.Append(1).Append(2);
  obj.Set("a", std::move(arr));
  EXPECT_EQ(obj.Dump(), R"({"a":[1,2],"n":3,"s":"x"})");
}

TEST(JsonTest, TypedGettersWithDefaults) {
  auto doc = Json::Parse(R"({"n": 4, "b": true, "s": "v"})");
  ASSERT_TRUE(doc.ok());
  EXPECT_DOUBLE_EQ(doc->GetNumberOr("n", -1), 4.0);
  EXPECT_DOUBLE_EQ(doc->GetNumberOr("missing", -1), -1.0);
  EXPECT_TRUE(doc->GetBoolOr("b", false));
  EXPECT_EQ(doc->GetStringOr("s", "d"), "v");
  EXPECT_EQ(doc->GetStringOr("n", "d"), "d");  // type mismatch -> default
}

TEST(JsonTest, NumbersSerializeIntegersExactly) {
  EXPECT_EQ(Json(5).Dump(), "5");
  EXPECT_EQ(Json(-5).Dump(), "-5");
  EXPECT_EQ(Json(int64_t{123456789012}).Dump(), "123456789012");
}

TEST(JsonTest, ParseErrorsNameTheirOffset) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"", "unexpected end of input at offset 0"},
      {"{", "expected object key string at offset 1"},
      {"[1,]", "unexpected character at offset 3"},
      {"{\"a\" 1}", "expected ':' after object key at offset 5"},
      {"tru", "invalid literal at offset 0"},
      {"falsy", "invalid literal at offset 0"},
      {"1 2", "trailing characters after JSON document at offset 2"},
      {"\"unterminated", "unterminated string at offset 13"},
      {"1e", "invalid number exponent at offset 2"},
      {"1.", "invalid number fraction at offset 2"},
      {"-", "invalid number at offset 1"},
      {"+1", "unexpected character at offset 0"},
      {"[\"a\x01\"]", "unescaped control character in string at offset 4"},
      {"\"abc\ndef\"", "unescaped control character in string at offset 5"},
      {"\"\\q\"", "unknown escape at offset 3"},
      {"\"\\u12\"", "bad \\u escape at offset 3"},
      {"\"\\u12zz\"", "bad \\u escape digit at offset 6"},
      {"{\"k\\", "unterminated escape at offset 4"},
      {"[1 2]", "expected ',' or ']' in array at offset 4"},
      {"{\"a\":1 \"b\":2}", "expected ',' or '}' in object at offset 8"},
      {"{\"a\":", "unexpected end of input at offset 5"},
  };
  for (const auto& [text, message] : cases) {
    const auto parsed = Json::Parse(text);
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_EQ(parsed.status().message(), message) << text;
  }
}

TEST(JsonTest, NumbersParseExactlyAsStrtod) {
  const auto expect_strtod = [](const std::string& token) {
    const auto parsed = Json::Parse(token);
    ASSERT_TRUE(parsed.ok()) << token;
    EXPECT_EQ(std::bit_cast<uint64_t>(parsed->AsNumber()),
              std::bit_cast<uint64_t>(std::strtod(token.c_str(), nullptr)))
        << token;
  };
  // Overflow, underflow, subnormals, signed zero, exponent spellings and
  // mantissas longer than any double carries.
  std::string long_fraction = "0.";
  for (int i = 0; i < 1000; ++i) long_fraction.push_back('0' + i % 10);
  for (const std::string& token :
       {std::string("1e400"), std::string("-1e400"), std::string("1e-400"),
        std::string("4.9e-324"), std::string("2.4703282292062327e-324"),
        std::string("2.2250738585072011e-308"), std::string("-0"),
        std::string("0e0"), std::string("1E+2"),
        std::string(1000, '9') + "e-999", long_fraction}) {
    expect_strtod(token);
  }
  constexpr int64_t kMaxExact = int64_t{1} << 53;
  for (int64_t edge : {kMaxExact, -kMaxExact, kMaxExact - 1, int64_t{0}}) {
    expect_strtod(std::to_string(edge));
  }
  Rng rng(20'261'019);
  char buf[64];
  for (int i = 0; i < 100'000; ++i) {
    // Uniform bit patterns reach every exponent, subnormals included.
    const uint64_t bits =
        static_cast<uint64_t>(rng.UniformInt(0, 0xffffffff)) << 32 |
        static_cast<uint64_t>(rng.UniformInt(0, 0xffffffff));
    const double value = std::bit_cast<double>(bits);
    if (!std::isfinite(value)) continue;
    for (const char* format : {"%.17g", "%.6g", "%g"}) {
      std::snprintf(buf, sizeof(buf), format, value);
      expect_strtod(buf);
    }
    expect_strtod(std::to_string(rng.UniformInt(-kMaxExact, kMaxExact)));
  }
}

// ------------------------------------------------------------ ThreadPool
//
// The pool must survive exceptions, nested ParallelFor, and shutdown with
// work still queued.

TEST(ThreadPoolTest, SubmitRunsTasksAndReportsExceptions) {
  util::ThreadPool pool(4);
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&ran] { ++ran; }));
  }
  std::future<void> failing =
      pool.Submit([] { throw std::runtime_error("task failed"); });
  for (std::future<void>& f : futures) f.get();
  EXPECT_EQ(ran.load(), 100);
  EXPECT_THROW(failing.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  util::ThreadPool pool(4);
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&hits](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForRethrowsFirstException) {
  util::ThreadPool pool(4);
  std::atomic<int> executed{0};
  EXPECT_THROW(
      pool.ParallelFor(1000,
                       [&executed](size_t i) {
                         ++executed;
                         if (i == 3) throw std::runtime_error("iteration 3");
                       }),
      std::runtime_error);
  // The abort flag stops unstarted iterations, so not all 1000 ran — but
  // the pool must stay usable afterwards.
  std::atomic<int> after{0};
  pool.ParallelFor(64, [&after](size_t) { ++after; });
  EXPECT_EQ(after.load(), 64);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // 2 threads, 4 outer iterations each spawning an inner loop: with a
  // naive blocking implementation the workers would all wait on inner
  // loops that no free thread can service. Caller participation makes
  // this complete.
  util::ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.ParallelFor(4, [&pool, &inner_total](size_t) {
    pool.ParallelFor(8, [&inner_total](size_t) { ++inner_total; });
  });
  EXPECT_EQ(inner_total.load(), 4 * 8);
}

TEST(ThreadPoolTest, ShutdownWithPendingWorkDrainsQueue) {
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futures;
  {
    util::ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      futures.push_back(pool.Submit([&ran] {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        ++ran;
      }));
    }
    // Destructor runs here with most of the queue still pending.
  }
  EXPECT_EQ(ran.load(), 200);
  for (std::future<void>& f : futures) {
    EXPECT_NO_THROW(f.get());
  }
}

}  // namespace
}  // namespace pinsql
