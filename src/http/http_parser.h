// Parsers for HTTP/1.1 requests and responses as they appear in Dandelion
// data items. Strict by design: communication engines treat all input as
// untrusted (§6.3) and reject anything that does not match the grammar.
#ifndef SRC_HTTP_HTTP_PARSER_H_
#define SRC_HTTP_HTTP_PARSER_H_

#include <cstdint>
#include <optional>
#include <string_view>

#include "src/base/status.h"
#include "src/http/http_message.h"

namespace dhttp {

// Parses a full request (start line, headers, body). The body length is
// taken from Content-Length; extra trailing bytes are an error, missing
// bytes are an error. Chunked transfer encoding is not supported (the
// composition data model always knows item sizes up front).
dbase::Result<HttpRequest> ParseRequest(std::string_view wire);

// A request head parsed on its own: the request with an empty body, and
// the body length its headers frame.
struct RequestHead {
  HttpRequest request;
  uint64_t content_length = 0;
};

// Parses a request head: the start line and headers through the blank line
// that ends them (the first MessageHead::head_bytes of the wire), with
// nothing after it. Validation and the body length follow ParseRequest,
// which is this plus a body of exactly content_length bytes; attaching
// the body is the caller's. Lets a streaming server parse a head whose
// body lands elsewhere.
dbase::Result<RequestHead> ParseRequestHead(std::string_view head);

dbase::Result<HttpResponse> ParseResponse(std::string_view wire);

// Result of an incremental head scan over a partially-received message.
struct MessageHead {
  size_t head_bytes = 0;         // Offset of the first body byte (past CRLFCRLF).
  uint64_t content_length = 0;   // 0 when the header is absent.
};

// Incremental entry point for streaming servers: inspects the buffered
// prefix of an HTTP/1.x message as bytes arrive, without requiring the full
// message. Returns
//   - nullopt while the header block's terminating CRLFCRLF has not arrived
//     yet (read more and call again),
//   - a MessageHead once the head is complete,
//   - kResourceExhausted when the head exceeds max_head_bytes before
//     terminating (a slowloris / oversized-header guard),
//   - kInvalidArgument for an unparseable Content-Length or duplicate
//     Content-Length headers with conflicting values (RFC 9112 §6.3;
//     repeats with the identical value are tolerated).
// Works for requests and responses alike: it only locates the head and the
// framing length — full validation stays with Parse{Request,Response}.
dbase::Result<std::optional<MessageHead>> ScanMessageHead(std::string_view buffer,
                                                          size_t max_head_bytes);

}  // namespace dhttp

#endif  // SRC_HTTP_HTTP_PARSER_H_
