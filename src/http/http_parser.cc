#include "src/http/http_parser.h"

#include "src/base/string_util.h"

namespace dhttp {
namespace {

using dbase::InvalidArgument;
using dbase::Result;

struct HeadSplit {
  std::string_view start_line;
  std::string_view header_block;  // May be empty.
  std::string_view body;
};

Result<HeadSplit> SplitMessage(std::string_view wire) {
  const size_t line_end = wire.find("\r\n");
  if (line_end == std::string_view::npos) {
    return InvalidArgument("missing CRLF after start line");
  }
  HeadSplit out;
  out.start_line = wire.substr(0, line_end);
  const size_t head_end = wire.find("\r\n\r\n", line_end);
  if (head_end == std::string_view::npos) {
    return InvalidArgument("missing blank line terminating header block");
  }
  // head_end == line_end when the blank line directly follows the start
  // line (empty header block).
  if (head_end > line_end) {
    out.header_block = wire.substr(line_end + 2, head_end - line_end - 2);
  }
  out.body = wire.substr(head_end + 4);
  return out;
}

bool IsValidHeaderName(std::string_view name) {
  if (name.empty()) {
    return false;
  }
  for (char c : name) {
    const bool token_char = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                            (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
    if (!token_char) {
      return false;
    }
  }
  return true;
}

dbase::Status ParseHeaders(std::string_view block, HeaderList* headers) {
  if (block.empty()) {
    return dbase::OkStatus();
  }
  for (std::string_view line : dbase::SplitString(block, "\r\n")) {
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      return InvalidArgument("header line missing ':'");
    }
    std::string_view name = line.substr(0, colon);
    if (!IsValidHeaderName(name)) {
      return InvalidArgument("invalid header field name");
    }
    std::string_view value = dbase::TrimWhitespace(line.substr(colon + 1));
    headers->Add(std::string(name), std::string(value));
  }
  return dbase::OkStatus();
}

// Folds one Content-Length header value into the accumulated framing
// length — the single home of the RFC 9112 §6.3 policy shared by the full
// parser and the incremental scanner: a value that doesn't parse (garbage,
// or past 2^64) fails closed (treating it as 0 would sail past body caps
// downstream — and per RFC 9110 §8.6 that's a 400, not a 413), duplicate
// headers with conflicting values are rejected, identical repeats are
// tolerated.
dbase::Status AccumulateContentLength(std::string_view value, bool* seen, uint64_t* length) {
  uint64_t parsed = 0;
  if (!dbase::ParseUint64(dbase::TrimWhitespace(value), &parsed)) {
    return InvalidArgument("unparseable Content-Length");
  }
  if (*seen && parsed != *length) {
    return InvalidArgument("conflicting duplicate Content-Length headers");
  }
  *seen = true;
  *length = parsed;
  return dbase::OkStatus();
}

// Returns the expected body length, or error. A missing Content-Length is
// interpreted as zero-length body — and because of that default, a
// Transfer-Encoding header MUST be rejected (RFC 9112 §6.1): framing a
// chunked message as zero-body would leave its body bytes in the buffer to
// be parsed as the next pipelined request (request smuggling/desync).
Result<uint64_t> ExpectedBodyLength(const HeaderList& headers) {
  if (headers.Has("Transfer-Encoding")) {
    return InvalidArgument("Transfer-Encoding is not supported");
  }
  uint64_t length = 0;
  bool seen = false;
  for (const auto& [name, value] : headers.entries()) {
    if (!dbase::EqualsIgnoreCase(name, "Content-Length")) {
      continue;
    }
    RETURN_IF_ERROR(AccumulateContentLength(value, &seen, &length));
  }
  return length;
}

dbase::Status CheckBodyLength(std::string_view body, uint64_t expected) {
  if (body.size() != expected) {
    return InvalidArgument(dbase::StrFormat("body length %zu does not match Content-Length %llu",
                                            body.size(),
                                            static_cast<unsigned long long>(expected)));
  }
  return dbase::OkStatus();
}

// The head half of ParseRequest: the request line, the headers and the
// framing length, from a split message.
Result<RequestHead> ParseSplitRequestHead(const HeadSplit& parts) {
  // Request line: METHOD SP TARGET SP VERSION. Exactly two spaces — the
  // paper's sanitizer relies only on this first protocol line (§6.3).
  auto tokens = dbase::SplitString(parts.start_line, ' ');
  if (tokens.size() != 3) {
    return InvalidArgument("request line must be 'METHOD target HTTP/x.y'");
  }
  auto method = MethodFromName(tokens[0]);
  if (!method.has_value()) {
    return InvalidArgument("unsupported HTTP method: " + std::string(tokens[0]));
  }
  if (tokens[1].empty()) {
    return InvalidArgument("empty request target");
  }
  if (tokens[2] != "HTTP/1.1" && tokens[2] != "HTTP/1.0") {
    return InvalidArgument("unsupported HTTP version: " + std::string(tokens[2]));
  }

  RequestHead head;
  head.request.method = *method;
  head.request.target = std::string(tokens[1]);
  head.request.version = std::string(tokens[2]);
  RETURN_IF_ERROR(ParseHeaders(parts.header_block, &head.request.headers));
  ASSIGN_OR_RETURN(head.content_length, ExpectedBodyLength(head.request.headers));
  return head;
}

}  // namespace

Result<std::optional<MessageHead>> ScanMessageHead(std::string_view buffer,
                                                   size_t max_head_bytes) {
  const size_t head_end = buffer.find("\r\n\r\n");
  if (head_end == std::string_view::npos) {
    // No terminator within the first max_head_bytes means the complete head
    // (terminator included) can only end past the cap — fail now instead of
    // buffering an unbounded header block.
    if (buffer.size() >= max_head_bytes) {
      return dbase::ResourceExhausted("header block too large");
    }
    return std::optional<MessageHead>{};
  }
  if (head_end + 4 > max_head_bytes) {
    return dbase::ResourceExhausted("header block too large");
  }

  MessageHead head;
  head.head_bytes = head_end + 4;
  bool seen_length = false;
  for (std::string_view line : dbase::SplitString(buffer.substr(0, head_end), "\r\n")) {
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      continue;  // Start line, or a malformed header left to ParseRequest.
    }
    const std::string_view name = dbase::TrimWhitespace(line.substr(0, colon));
    // Unimplemented framing must fail here, not default to zero-body: a
    // chunked message scanned as zero-body would desync the pipelined
    // stream (its body becomes the "next request" — request smuggling).
    if (dbase::EqualsIgnoreCase(name, "Transfer-Encoding")) {
      return InvalidArgument("Transfer-Encoding is not supported");
    }
    if (!dbase::EqualsIgnoreCase(name, "Content-Length")) {
      continue;
    }
    RETURN_IF_ERROR(AccumulateContentLength(line.substr(colon + 1), &seen_length,
                                            &head.content_length));
  }
  return std::optional<MessageHead>(head);
}

Result<RequestHead> ParseRequestHead(std::string_view head) {
  ASSIGN_OR_RETURN(HeadSplit parts, SplitMessage(head));
  if (!parts.body.empty()) {
    return InvalidArgument("bytes after the request head");
  }
  return ParseSplitRequestHead(parts);
}

Result<HttpRequest> ParseRequest(std::string_view wire) {
  ASSIGN_OR_RETURN(HeadSplit parts, SplitMessage(wire));
  ASSIGN_OR_RETURN(RequestHead head, ParseSplitRequestHead(parts));
  RETURN_IF_ERROR(CheckBodyLength(parts.body, head.content_length));
  head.request.body = std::string(parts.body);
  return std::move(head.request);
}

Result<HttpResponse> ParseResponse(std::string_view wire) {
  ASSIGN_OR_RETURN(HeadSplit parts, SplitMessage(wire));

  // Status line: VERSION SP CODE SP REASON (reason may contain spaces).
  const size_t first_sp = parts.start_line.find(' ');
  if (first_sp == std::string_view::npos) {
    return InvalidArgument("status line missing spaces");
  }
  const size_t second_sp = parts.start_line.find(' ', first_sp + 1);
  if (second_sp == std::string_view::npos) {
    return InvalidArgument("status line missing reason phrase separator");
  }
  std::string_view version = parts.start_line.substr(0, first_sp);
  std::string_view code_str = parts.start_line.substr(first_sp + 1, second_sp - first_sp - 1);
  std::string_view reason = parts.start_line.substr(second_sp + 1);
  if (version != "HTTP/1.1" && version != "HTTP/1.0") {
    return InvalidArgument("unsupported HTTP version in status line");
  }
  uint64_t code = 0;
  if (!dbase::ParseUint64(code_str, &code) || code < 100 || code > 599) {
    return InvalidArgument("invalid status code");
  }

  HttpResponse resp;
  resp.version = std::string(version);
  resp.status_code = static_cast<int>(code);
  resp.reason = std::string(reason);
  RETURN_IF_ERROR(ParseHeaders(parts.header_block, &resp.headers));
  ASSIGN_OR_RETURN(uint64_t expected, ExpectedBodyLength(resp.headers));
  RETURN_IF_ERROR(CheckBodyLength(parts.body, expected));
  resp.body = std::string(parts.body);
  return resp;
}

}  // namespace dhttp
