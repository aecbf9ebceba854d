#include <gtest/gtest.h>

#include <string>
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

TEST(HttpParserTest, TakeRequestMovesOutAndResetStillPipelines) {
  HttpParser parser{HttpLimits{}};
  auto state = parser.Feed(
      "POST /v1/ingest HTTP/1.1\r\nX-Pinsql-Tenant: acme\r\n"
      "Content-Length: 5\r\n\r\nabcdeGET /b HTTP/1.1\r\n\r\n");
  ASSERT_EQ(state, HttpParser::State::kComplete);
  const HttpRequest taken = parser.TakeRequest();
  EXPECT_EQ(taken.body, "abcde");
  ASSERT_NE(taken.FindHeader("X-Pinsql-Tenant"), nullptr);
  EXPECT_EQ(*taken.FindHeader("X-Pinsql-Tenant"), "acme");
  // The parser keeps its state; only the request left it.
  EXPECT_EQ(parser.state(), HttpParser::State::kComplete);
  EXPECT_TRUE(parser.request().body.empty());
  EXPECT_TRUE(parser.request().headers.empty());
  parser.Reset();
  ASSERT_EQ(parser.state(), HttpParser::State::kComplete);
  EXPECT_EQ(parser.request().target, "/b");
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

}  // namespace
}  // namespace pinsql::serve
