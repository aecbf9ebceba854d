#ifndef PINSQL_SERVE_HTTP_H_
#define PINSQL_SERVE_HTTP_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pinsql::serve {

/// Hard bounds on what one request may cost before it is rejected. Every
/// limit maps to a definite status code, so abusive clients get a clean
/// 4xx/5xx instead of an allocation: oversized headers are 431, an
/// oversized declared body is 413 *before any body byte is buffered*, and
/// chunked encoding (unbounded by construction) is 501.
struct HttpLimits {
  size_t max_header_bytes = 8 * 1024;
  size_t max_headers = 64;
  size_t max_target_bytes = 2048;
  size_t max_body_bytes = 4 * 1024 * 1024;
};

struct HttpRequest {
  std::string method;
  std::string target;   // path?query as received
  std::string version;  // "HTTP/1.0" | "HTTP/1.1"
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  size_t content_length = 0;
  bool keep_alive = true;

  /// Case-insensitive header lookup; nullptr when absent.
  const std::string* FindHeader(std::string_view name) const;
  /// Path without the query string.
  std::string_view Path() const;
  /// Value of one query parameter ("" when absent).
  std::string QueryParam(std::string_view key) const;
};

/// Incremental, bounded HTTP/1.1 request parser. Feed() appends raw bytes
/// and advances a state machine; the buffer can never grow past
/// max_header_bytes + content_length (itself capped at max_body_bytes), so
/// a malicious peer cannot make the server allocate unboundedly.
///
/// The parser surfaces kHeadersDone as a distinct state so the connection
/// layer can run admission control on the declared Content-Length *before*
/// the body is read — a denied request costs the server only the header
/// bytes.
class HttpParser {
 public:
  enum class State {
    kHeaders,      // still reading the request line / header block
    kHeadersDone,  // headers parsed; body (if any) not yet complete
    kComplete,     // full request available via request()
    kError,        // malformed; see error_status()/error_reason()
  };

  explicit HttpParser(const HttpLimits& limits) : limits_(limits) {}

  /// Appends bytes and parses as far as possible.
  State Feed(std::string_view data);
  State state() const { return state_; }

  const HttpRequest& request() const { return request_; }

  /// 400/413/431/501/505 when state() == kError.
  int error_status() const { return error_status_; }
  const std::string& error_reason() const { return error_reason_; }

  /// Bytes currently buffered (tests assert this stays bounded).
  size_t buffered_bytes() const { return buffer_.size(); }

  /// Keep-alive: discards the completed request and re-parses any
  /// pipelined leftover bytes already received.
  void Reset();

 private:
  State Fail(int status, std::string reason);
  State ParseBuffer();
  State ParseHeaderBlock(size_t end);

  HttpLimits limits_;
  State state_ = State::kHeaders;
  std::string buffer_;
  size_t body_start_ = 0;
  HttpRequest request_;
  int error_status_ = 0;
  std::string error_reason_;
};

struct HttpResponse {
  int status = 200;
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  /// Force Connection: close regardless of the request's keep-alive.
  bool close = false;
};

const char* StatusText(int status);

/// Wire form with Content-Length, Connection and a default
/// application/json Content-Type for non-empty bodies.
std::string SerializeResponse(const HttpResponse& response, bool keep_alive);

/// Convenience: a JSON error body {"error": reason} with optional
/// Retry-After (seconds, emitted when > 0).
HttpResponse ErrorResponse(int status, std::string_view reason,
                           int64_t retry_after_sec = 0);

}  // namespace pinsql::serve

#endif  // PINSQL_SERVE_HTTP_H_
