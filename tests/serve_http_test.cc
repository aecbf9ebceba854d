#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "fleet/fleet_service.h"
#include "serve/http.h"
#include "serve/server.h"
#include "util/rng.h"

namespace pinsql::serve {
namespace {

HttpParser::State FeedAll(HttpParser* parser, std::string_view bytes,
                          size_t chunk = 0) {
  if (chunk == 0) return parser->Feed(bytes);
  HttpParser::State state = parser->state();
  for (size_t off = 0; off < bytes.size(); off += chunk) {
    state = parser->Feed(bytes.substr(off, chunk));
  }
  return state;
}

// --- Parser basics -------------------------------------------------------

TEST(HttpParserTest, ParsesSimpleGet) {
  HttpParser parser{HttpLimits{}};
  const auto state = parser.Feed(
      "GET /v1/healthz?limit=3 HTTP/1.1\r\nHost: x\r\n\r\n");
  ASSERT_EQ(state, HttpParser::State::kComplete);
  EXPECT_EQ(parser.request().method, "GET");
  EXPECT_EQ(parser.request().Path(), "/v1/healthz");
  EXPECT_EQ(parser.request().QueryParam("limit"), "3");
  EXPECT_EQ(parser.request().QueryParam("missing"), "");
  EXPECT_TRUE(parser.request().keep_alive);
}

TEST(HttpParserTest, ByteAtATimeDeliveryMatchesOneShot) {
  const std::string wire =
      "POST /v1/ingest HTTP/1.1\r\nX-Pinsql-Tenant: acme\r\n"
      "Content-Length: 11\r\n\r\nhello world";
  for (size_t chunk : {size_t{1}, size_t{3}, size_t{0}}) {
    HttpParser parser{HttpLimits{}};
    ASSERT_EQ(FeedAll(&parser, wire, chunk), HttpParser::State::kComplete)
        << "chunk=" << chunk;
    EXPECT_EQ(parser.request().body, "hello world");
    const std::string* tenant = parser.request().FindHeader("x-pinsql-tenant");
    ASSERT_NE(tenant, nullptr);
    EXPECT_EQ(*tenant, "acme");
  }
}

TEST(HttpParserTest, HeadersDoneBeforeBodyEnablesEarlyAdmission) {
  HttpParser parser{HttpLimits{}};
  auto state = parser.Feed(
      "POST /v1/ingest HTTP/1.1\r\nContent-Length: 5\r\n\r\n");
  EXPECT_EQ(state, HttpParser::State::kHeadersDone);
  EXPECT_EQ(parser.request().content_length, 5u);
  state = parser.Feed("abcde");
  EXPECT_EQ(state, HttpParser::State::kComplete);
  EXPECT_EQ(parser.request().body, "abcde");
}

TEST(HttpParserTest, PipelinedRequestsSurviveReset) {
  HttpParser parser{HttpLimits{}};
  auto state = parser.Feed(
      "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n");
  ASSERT_EQ(state, HttpParser::State::kComplete);
  EXPECT_EQ(parser.request().target, "/a");
  parser.Reset();
  ASSERT_EQ(parser.state(), HttpParser::State::kComplete);
  EXPECT_EQ(parser.request().target, "/b");
}

TEST(HttpParserTest, BodyThenPipelinedGetSurvivesReset) {
  HttpParser parser{HttpLimits{}};
  auto state = parser.Feed(
      "POST /v1/ingest HTTP/1.1\r\nX-Pinsql-Tenant: acme\r\n"
      "Content-Length: 5\r\n\r\nabcdeGET /b HTTP/1.1\r\n\r\n");
  ASSERT_EQ(state, HttpParser::State::kComplete);
  EXPECT_EQ(parser.request().body, "abcde");
  ASSERT_NE(parser.request().FindHeader("X-Pinsql-Tenant"), nullptr);
  EXPECT_EQ(*parser.request().FindHeader("X-Pinsql-Tenant"), "acme");
  parser.Reset();
  ASSERT_EQ(parser.state(), HttpParser::State::kComplete);
  EXPECT_EQ(parser.request().target, "/b");
  EXPECT_TRUE(parser.request().body.empty());
}

TEST(HttpParserTest, LenientLineEndings) {
  HttpParser parser{HttpLimits{}};
  const auto state =
      parser.Feed("GET /x HTTP/1.1\nHost: y\r\n\n");  // mixed \n and \r\n
  ASSERT_EQ(state, HttpParser::State::kComplete);
  EXPECT_EQ(parser.request().target, "/x");
}

// --- Limit enforcement: every limit maps to a definite status ------------

TEST(HttpParserTest, OversizedHeaderBlockIs431) {
  HttpLimits limits;
  limits.max_header_bytes = 256;
  HttpParser parser{limits};
  std::string wire = "GET / HTTP/1.1\r\n";
  wire += "X-Long: " + std::string(1024, 'a') + "\r\n\r\n";
  EXPECT_EQ(parser.Feed(wire), HttpParser::State::kError);
  EXPECT_EQ(parser.error_status(), 431);
  // The buffer is released on error: no allocation accrues per bad client.
  EXPECT_EQ(parser.buffered_bytes(), 0u);
}

TEST(HttpParserTest, TooManyHeadersIs431) {
  HttpLimits limits;
  limits.max_headers = 4;
  HttpParser parser{limits};
  std::string wire = "GET / HTTP/1.1\r\n";
  for (int i = 0; i < 8; ++i) {
    wire += "H" + std::to_string(i) + ": v\r\n";
  }
  wire += "\r\n";
  EXPECT_EQ(parser.Feed(wire), HttpParser::State::kError);
  EXPECT_EQ(parser.error_status(), 431);
}

TEST(HttpParserTest, OversizedDeclaredBodyIs413BeforeAnyBodyByte) {
  HttpLimits limits;
  limits.max_body_bytes = 1024;
  HttpParser parser{limits};
  // Headers only: the rejection must come from the declared size alone.
  EXPECT_EQ(parser.Feed("POST /v1/ingest HTTP/1.1\r\n"
                        "Content-Length: 10485760\r\n\r\n"),
            HttpParser::State::kError);
  EXPECT_EQ(parser.error_status(), 413);
}

TEST(HttpParserTest, TransferEncodingIs501) {
  HttpParser parser{HttpLimits{}};
  EXPECT_EQ(parser.Feed("POST / HTTP/1.1\r\n"
                        "Transfer-Encoding: chunked\r\n\r\n"),
            HttpParser::State::kError);
  EXPECT_EQ(parser.error_status(), 501);
}

TEST(HttpParserTest, ConflictingContentLengthIs400) {
  HttpParser parser{HttpLimits{}};
  EXPECT_EQ(parser.Feed("POST / HTTP/1.1\r\nContent-Length: 5\r\n"
                        "Content-Length: 6\r\n\r\n"),
            HttpParser::State::kError);
  EXPECT_EQ(parser.error_status(), 400);
}

TEST(HttpParserTest, MalformedContentLengthIs400) {
  for (const char* bad : {"-5", "1e3", "0x10", "", " ", "99999999999999999999"}) {
    HttpParser parser{HttpLimits{}};
    const std::string wire = std::string("POST / HTTP/1.1\r\nContent-Length: ") +
                             bad + "\r\n\r\n";
    EXPECT_EQ(parser.Feed(wire), HttpParser::State::kError) << bad;
    EXPECT_EQ(parser.error_status(), 400) << bad;
  }
}

TEST(HttpParserTest, UnsupportedVersionIs505) {
  HttpParser parser{HttpLimits{}};
  EXPECT_EQ(parser.Feed("GET / HTTP/2.0\r\n\r\n"), HttpParser::State::kError);
  EXPECT_EQ(parser.error_status(), 505);
}

TEST(HttpParserTest, ControlBytesInHeaderValueAre400) {
  HttpParser parser{HttpLimits{}};
  EXPECT_EQ(parser.Feed("GET / HTTP/1.1\r\nX-Evil: a\x01g\r\n\r\n"),
            HttpParser::State::kError);
  EXPECT_EQ(parser.error_status(), 400);
}

TEST(HttpParserTest, BufferStaysBoundedUnderEndlessHeaderTrickle) {
  HttpLimits limits;
  limits.max_header_bytes = 512;
  HttpParser parser{limits};
  // A client that sends valid header lines forever without a blank line.
  std::string line = "X-A: bbbbbbbbbbbbbbbb\r\n";
  parser.Feed("GET / HTTP/1.1\r\n");
  size_t max_buffered = 0;
  for (int i = 0; i < 1000 && parser.state() != HttpParser::State::kError;
       ++i) {
    parser.Feed(line);
    max_buffered = std::max(max_buffered, parser.buffered_bytes());
  }
  EXPECT_EQ(parser.state(), HttpParser::State::kError);
  // Never buffers meaningfully past the configured bound.
  EXPECT_LE(max_buffered, limits.max_header_bytes + line.size());
}

// --- Response serialization ----------------------------------------------

TEST(HttpResponseTest, SerializationCarriesLengthTypeAndConnection) {
  HttpResponse response;
  response.body = "{\"a\":1}";
  const std::string wire = SerializeResponse(response, true);
  EXPECT_NE(wire.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 7\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Type: application/json\r\n"),
            std::string::npos);
  EXPECT_NE(wire.find("Connection: keep-alive\r\n"), std::string::npos);

  const HttpResponse retry = ErrorResponse(429, "slow down", 7);
  const std::string rwire = SerializeResponse(retry, false);
  EXPECT_NE(rwire.find("HTTP/1.1 429 Too Many Requests\r\n"),
            std::string::npos);
  EXPECT_NE(rwire.find("Retry-After: 7\r\n"), std::string::npos);
  EXPECT_NE(rwire.find("Connection: close\r\n"), std::string::npos);
  EXPECT_NE(rwire.find("{\"error\":\"slow down\"}"), std::string::npos);
}

// --- Handler fuzz (satellite 3): hostile bodies through the ingest path --

/// Minimal serving stack without sockets: a one-instance fleet plus a
/// Server whose HandleRequest is called directly.
class HandlerFuzzTest : public ::testing::Test {
 protected:
  HandlerFuzzTest() {
    fleet::FleetOptions foptions;
    fleet_ = std::make_unique<fleet::FleetService>(
        std::vector<fleet::FleetInstanceSpec>{{1, 0}}, foptions);
    ServerOptions soptions;
    TenantQuota quota;
    quota.instances = {1};
    soptions.admission.tenants["acme"] = quota;
    soptions.max_records_per_batch = 256;
    soptions.max_samples_per_batch = 64;
    server_ = std::make_unique<Server>(fleet_.get(), soptions);
  }

  HttpRequest IngestRequest(std::string body) const {
    HttpRequest request;
    request.method = "POST";
    request.target = "/v1/ingest";
    request.version = "HTTP/1.1";
    request.headers.emplace_back("X-Pinsql-Tenant", "acme");
    request.content_length = body.size();
    request.body = std::move(body);
    return request;
  }

  std::unique_ptr<fleet::FleetService> fleet_;
  std::unique_ptr<Server> server_;
  int64_t now_ms_ = 1'000'000;
};

TEST_F(HandlerFuzzTest, WellFormedBatchIsAccepted) {
  const auto response = server_->HandleRequest(
      IngestRequest("{\"instance\":1,\"records\":[{\"arrival_ms\":1000,"
                    "\"sql_id\":3,\"response_ms\":2.5,\"examined_rows\":10}],"
                    "\"samples\":[{\"sec\":1,\"active_session\":4.0}]}"),
      now_ms_);
  EXPECT_EQ(response.status, 202);
  EXPECT_NE(response.body.find("\"records\":1"), std::string::npos);
}

TEST_F(HandlerFuzzTest, HostileBodiesAlwaysGetClean4xx) {
  const std::vector<std::string> bodies = {
      "",                                    // empty
      "{",                                   // truncated
      "{\"instance\":1,\"records\":[{",      // truncated mid-array
      "[1,2,3]",                             // not an object
      "\"just a string\"",                   // not an object
      "{\"records\":[]}",                    // missing instance
      "{\"instance\":-1}",                   // instance out of range
      "{\"instance\":4294967296}",           // instance overflows uint32
      "{\"instance\":1.5}",                  // non-integral instance
      "{\"instance\":1,\"records\":{}}",     // records not an array
      "{\"instance\":1,\"records\":[42]}",   // record not an object
      "{\"instance\":1,\"records\":[{\"arrival_ms\":1e999}]}",  // inf
      "{\"instance\":1,\"records\":[{\"arrival_ms\":1000,\"sql_id\":3,"
      "\"response_ms\":-1}]}",               // negative response
      "{\"instance\":1,\"samples\":[{\"sec\":1,\"cpu_usage\":1e999}]}",
      "{\"instance\":1,\"samples\":[{}]}",   // sample without sec
      std::string("\x00\x01\x02garbage", 10),  // control bytes
  };
  for (const std::string& body : bodies) {
    const auto response = server_->HandleRequest(IngestRequest(body), now_ms_);
    EXPECT_GE(response.status, 400) << "body: " << body.substr(0, 40);
    EXPECT_LT(response.status, 500) << "body: " << body.substr(0, 40);
    EXPECT_NE(response.body.find("\"error\""), std::string::npos);
  }
  // Nothing hostile was staged for delivery.
  EXPECT_EQ(server_->stats().ingest_accepted, 0u);
}

TEST_F(HandlerFuzzTest, DuplicateKeysParseDeterministically) {
  // util::Json is last-wins on duplicate keys; the request must not be
  // half-interpreted (first-wins for routing, last-wins for data).
  const auto response = server_->HandleRequest(
      IngestRequest("{\"instance\":999,\"instance\":1,\"records\":[]}"),
      now_ms_);
  EXPECT_EQ(response.status, 202);  // instance resolves to 1 (authorized)
  const auto reversed = server_->HandleRequest(
      IngestRequest("{\"instance\":1,\"instance\":999,\"records\":[]}"),
      now_ms_);
  EXPECT_EQ(reversed.status, 403);  // resolves to 999 (forbidden)
}

TEST_F(HandlerFuzzTest, OversizedShapesAreRejectedNotAllocated) {
  // More records than max_records_per_batch (256): clean 400.
  std::string big = "{\"instance\":1,\"records\":[";
  for (int i = 0; i < 300; ++i) {
    if (i > 0) big += ',';
    big += "{\"arrival_ms\":1000,\"sql_id\":1,\"response_ms\":1,"
           "\"examined_rows\":1}";
  }
  big += "]}";
  const auto response = server_->HandleRequest(IngestRequest(big), now_ms_);
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.body.find("too many records"), std::string::npos);
}

TEST_F(HandlerFuzzTest, RandomBytesNeverCrashOrAccept) {
  Rng rng(20'260'809);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t len = static_cast<size_t>(rng.UniformInt(0, 512));
    std::string body;
    body.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      body.push_back(static_cast<char>(rng.UniformInt(0, 255)));
    }
    const auto response =
        server_->HandleRequest(IngestRequest(std::move(body)), now_ms_);
    // Random bytes virtually never form a valid batch; anything accepted
    // must at least have parsed as an authorized instance-1 object.
    if (response.status == 202) continue;
    EXPECT_GE(response.status, 400);
    EXPECT_LT(response.status, 500);
  }
}

TEST_F(HandlerFuzzTest, UnknownTenantAndPathsAreRefused) {
  HttpRequest request = IngestRequest("{\"instance\":1}");
  request.headers.clear();
  EXPECT_EQ(server_->HandleRequest(request, now_ms_).status, 403);

  request = IngestRequest("{\"instance\":1}");
  request.headers = {{"X-Pinsql-Tenant", "mallory"}};
  EXPECT_EQ(server_->HandleRequest(request, now_ms_).status, 403);

  HttpRequest get;
  get.method = "GET";
  get.target = "/v1/nope";
  EXPECT_EQ(server_->HandleRequest(get, now_ms_).status, 404);
  get.target = "/v1/ingest";
  EXPECT_EQ(server_->HandleRequest(get, now_ms_).status, 405);

  HttpRequest del;
  del.method = "DELETE";
  del.target = "/v1/reports";
  EXPECT_EQ(server_->HandleRequest(del, now_ms_).status, 405);
}

// --- Seeded mutation fuzzing of pipelined requests ------------------------

/// A valid `GET /v1/reports?limit=N` or ingest POST with a real body: 1-12
/// records and, when `with_sample`, one metric sample at the next second.
std::string ValidRequest(Rng* rng, bool with_sample, int64_t* next_sec) {
  if (rng->Bernoulli(0.3)) {
    return "GET /v1/reports?limit=" + std::to_string(rng->UniformInt(1, 50)) +
           " HTTP/1.1\r\nX-Pinsql-Tenant: acme\r\n\r\n";
  }
  const int64_t sec = (*next_sec)++;
  std::string body = "{\"instance\":1,\"records\":[";
  const int64_t records = rng->UniformInt(1, 12);
  for (int64_t i = 0; i < records; ++i) {
    if (i > 0) body += ',';
    body += "{\"arrival_ms\":" + std::to_string(sec * 1000 + i * 50) +
            ",\"sql_id\":" + std::to_string(rng->UniformInt(1, 4)) +
            ",\"response_ms\":2.5,\"examined_rows\":10}";
  }
  body += ']';
  if (with_sample) {
    body += ",\"samples\":[{\"sec\":" + std::to_string(sec) +
            ",\"active_session\":4.0}]";
  }
  body += '}';
  return "POST /v1/ingest HTTP/1.1\r\nX-Pinsql-Tenant: acme\r\n"
         "Content-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

/// 1-4 valid requests back to back; `count` receives how many.
std::string ValidPipeline(Rng* rng, bool with_samples, int64_t* next_sec,
                          size_t* count) {
  *count = static_cast<size_t>(rng->UniformInt(1, 4));
  std::string wire;
  for (size_t i = 0; i < *count; ++i) {
    wire += ValidRequest(rng, with_samples, next_sec);
  }
  return wire;
}

/// 1-4 edits, each a byte flip, an inserted byte, a deleted or duplicated
/// range, a CRLF<->LF swap or a Content-Length digit edit.
std::string Mutate(std::string wire, Rng* rng) {
  const int64_t edits = rng->UniformInt(1, 4);
  for (int64_t e = 0; e < edits && !wire.empty(); ++e) {
    const auto at = static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(wire.size()) - 1));
    const auto len = static_cast<size_t>(rng->UniformInt(1, 24));
    switch (rng->UniformInt(0, 5)) {
      case 0:
        wire[at] = static_cast<char>(wire[at] ^ (1 << rng->UniformInt(0, 7)));
        break;
      case 1:
        wire.insert(at, 1, static_cast<char>(rng->UniformInt(0, 255)));
        break;
      case 2:
        wire.erase(at, len);
        break;
      case 3:
        wire.insert(at, wire.substr(at, len));
        break;
      case 4:
        if (const size_t crlf = wire.find("\r\n", at);
            crlf != std::string::npos) {
          wire.erase(crlf, 1);
        } else if (const size_t lf = wire.find('\n', at);
                   lf != std::string::npos) {
          wire.insert(lf, 1, '\r');
        }
        break;
      default: {
        std::vector<size_t> digits;
        for (size_t p = wire.find("Content-Length: ");
             p != std::string::npos;
             p = wire.find("Content-Length: ", p + 1)) {
          if (p + 16 < wire.size()) digits.push_back(p + 16);
        }
        if (digits.empty()) break;
        const size_t d = digits[static_cast<size_t>(
            rng->UniformInt(0, static_cast<int64_t>(digits.size()) - 1))];
        const char digit = static_cast<char>('0' + rng->UniformInt(0, 9));
        switch (rng->UniformInt(0, 2)) {
          case 0:
            wire[d] = digit;
            break;
          case 1:
            wire.insert(d, 1, digit);
            break;
          default:
            wire.erase(d, 1);
        }
      }
    }
  }
  return wire;
}

struct FeedResult {
  std::vector<std::string> requests;  // "method target body" per request
  HttpParser::State final_state = HttpParser::State::kHeaders;
  int error_status = 0;
  size_t max_buffered = 0;
};

/// Feeds `wire` in `chunk`-byte pieces (0: all at once), never while a
/// request is complete, and Reset()s after each complete request — as the
/// server does.
FeedResult FeedPipeline(const std::string& wire, size_t chunk,
                        const HttpLimits& limits) {
  HttpParser parser{limits};
  FeedResult result;
  size_t off = 0;
  while (true) {
    while (parser.state() == HttpParser::State::kComplete) {
      const HttpRequest& request = parser.request();
      result.requests.push_back(request.method + " " + request.target + " " +
                                request.body);
      parser.Reset();
    }
    if (parser.state() == HttpParser::State::kError ||
        off >= wire.size()) {
      break;
    }
    const size_t n =
        chunk == 0 ? wire.size() - off : std::min(chunk, wire.size() - off);
    parser.Feed(std::string_view(wire).substr(off, n));
    off += n;
    result.max_buffered = std::max(result.max_buffered,
                                   parser.buffered_bytes());
  }
  result.final_state = parser.state();
  result.error_status = parser.error_status();
  return result;
}

/// Small limits, so mutations reach 413 and 431 as well as 400.
HttpLimits FuzzLimits() {
  HttpLimits limits;
  limits.max_header_bytes = 128;
  limits.max_body_bytes = 1536;
  return limits;
}

TEST(HttpFuzzTest, MutatedPipelinesEndCompleteOrInACleanError) {
  const HttpLimits limits = FuzzLimits();
  Rng rng(20'261'019);
  int64_t next_sec = 1'000;
  std::map<int, size_t> statuses;
  size_t completed = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    size_t count = 0;
    const std::string valid = ValidPipeline(&rng, true, &next_sec, &count);
    const auto chunk = static_cast<size_t>(rng.UniformInt(1, 64));
    // Unmutated, chunking never changes what is parsed.
    const FeedResult whole = FeedPipeline(valid, 0, limits);
    const FeedResult chunked = FeedPipeline(valid, chunk, limits);
    ASSERT_EQ(whole.requests.size(), count) << valid;
    EXPECT_EQ(whole.error_status, 0);
    EXPECT_EQ(chunked.requests, whole.requests) << "chunk " << chunk;

    const std::string wire = Mutate(valid, &rng);
    for (const size_t size : {size_t{0}, chunk}) {
      const FeedResult result = FeedPipeline(wire, size, limits);
      completed += result.requests.size();
      // A truncated last request may still wait for bytes; anything that
      // ended did so complete or with a definite status.
      if (result.final_state == HttpParser::State::kError) {
        ++statuses[result.error_status];
        EXPECT_TRUE(result.error_status == 400 || result.error_status == 413 ||
                    result.error_status == 431 || result.error_status == 501 ||
                    result.error_status == 505)
            << result.error_status;
      }
      const size_t fed = size == 0 ? wire.size() : size;
      EXPECT_LE(result.max_buffered,
                limits.max_header_bytes + limits.max_body_bytes + fed);
    }
  }
  // The mutations reach past the happy path.
  EXPECT_GT(completed, 0u);
  EXPECT_GT(statuses[400], 0u);
  EXPECT_GT(statuses[413], 0u);
  EXPECT_GT(statuses[431], 0u);
}

int ConnectTo(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Splits `received` into responses; false if any status line is not
/// "HTTP/1.1 <known status> <its text>" or a response is cut short.
bool WellFormedResponses(const std::string& received, size_t* responses) {
  size_t pos = 0;
  while (pos < received.size()) {
    const size_t end = received.find("\r\n\r\n", pos);
    if (end == std::string::npos) return false;
    const std::string head = received.substr(pos, end - pos);
    if (head.compare(0, 9, "HTTP/1.1 ") != 0 || head.size() < 13) return false;
    const int status = std::atoi(head.c_str() + 9);
    const std::string text = StatusText(status);
    if (text == "Unknown" ||
        head.compare(12, text.size() + 3, " " + text + "\r\n") != 0) {
      return false;
    }
    const size_t cl = head.find("Content-Length: ");
    if (cl == std::string::npos) return false;
    pos = end + 4 + std::strtoul(head.c_str() + cl + 16, nullptr, 10);
    if (pos > received.size()) return false;
    ++*responses;
  }
  return true;
}

TEST(HttpFuzzTest, MutatedPipelinesOverLoopbackGetWellFormedAnswers) {
  fleet::FleetService fleet(std::vector<fleet::FleetInstanceSpec>{{1, 0}},
                            fleet::FleetOptions{});
  fleet.Start();
  ServerOptions soptions;
  soptions.http = FuzzLimits();
  TenantQuota quota;
  quota.records_per_sec = 1e9;
  quota.record_burst = 1e9;
  quota.bytes_per_sec = 1e12;
  quota.byte_burst = 1e12;
  quota.queue_capacity_batches = 100'000;
  quota.instances = {1};
  soptions.admission.tenants["acme"] = quota;
  Server server(&fleet, soptions);
  ASSERT_TRUE(server.Start().ok());

  Rng rng(7919);
  int64_t next_sec = 1'000;
  size_t responses = 0;
  for (int trial = 0; trial < 300; ++trial) {
    // Records only: the fleet ticks through every second up to the newest
    // sample, so a sample second mutated far ahead would stall the pump.
    size_t count = 0;
    std::string wire = ValidPipeline(&rng, false, &next_sec, &count);
    if (rng.Bernoulli(0.8)) wire = Mutate(std::move(wire), &rng);
    const int fd = ConnectTo(server.port());
    ASSERT_GE(fd, 0);
    const timeval timeout{5, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    for (size_t off = 0; off < wire.size();) {
      const size_t n = std::min(static_cast<size_t>(rng.UniformInt(1, 512)),
                                wire.size() - off);
      // A refused request closes the connection; the rest goes unsent.
      if (::send(fd, wire.data() + off, n, MSG_NOSIGNAL) < 0) break;
      off += n;
      if (rng.Bernoulli(0.25)) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    // End of input: the server answers what completed, then closes.
    ::shutdown(fd, SHUT_WR);
    std::string received;
    char buf[4096];
    ssize_t n = 0;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
      received.append(buf, static_cast<size_t>(n));
    }
    const bool timed_out = n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
    ::close(fd);
    EXPECT_FALSE(timed_out) << "trial " << trial;
    EXPECT_TRUE(WellFormedResponses(received, &responses))
        << "trial " << trial << ": " << received.substr(0, 120);
  }
  server.Stop();
  EXPECT_GT(responses, 300u);

  // Everything admitted reached the fleet or is counted as its drop.
  uint64_t admitted = 0;
  uint64_t delivered = 0;
  for (const auto& [tenant, stats] : server.tenant_stats()) {
    admitted += stats.records_admitted;
    delivered += stats.records_delivered;
  }
  const fleet::FleetStats fstats = fleet.stats();
  EXPECT_GT(admitted, 0u);
  EXPECT_EQ(admitted, delivered + fstats.ingest.records_dropped_backpressure +
                          fstats.ingest.records_dropped_late);
  fleet.Stop();
}

}  // namespace
}  // namespace pinsql::serve
