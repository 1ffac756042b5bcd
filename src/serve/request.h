#pragma once

/// \file request.h
/// \brief The serve wire protocol: line-delimited JSON requests and
/// responses, plus the canonical request key that keys stored-dataset
/// answers in the result cache and default job keys in the job manager.
///
/// Request line:  {"id": 7, "endpoint": "forecast", "params": {...}}
/// Response line: {"id": 7, "ok": true, "result": {...}}
///             or {"id": 7, "ok": false,
///                 "error": {"code": "InvalidArgument", "message": "..."}}
///
/// "id" is an optional client-chosen correlation token echoed back verbatim
/// (clients pipelining several requests over one TCP connection use it to
/// match responses). "params" defaults to an empty object.

#include <string>

#include "common/deadline.h"
#include "common/json.h"
#include "common/result.h"

namespace easytime::serve {

/// One parsed request.
struct Request {
  int64_t id = -1;       ///< client correlation id; -1 = absent
  std::string endpoint;  ///< "forecast", "ask", "evaluate", ...
  easytime::Json params; ///< endpoint arguments (object)
};

/// \brief Parses one request line. Enforces \p max_bytes (0 = unlimited)
/// before parsing so oversized payloads are rejected cheaply.
/// \param error_id if non-null, receives the request's numeric "id" when one
/// could be parsed even though the request as a whole was rejected — the
/// error response can then still be correlated by the client.
easytime::Result<Request> ParseRequest(const std::string& line,
                                       size_t max_bytes,
                                       int64_t* error_id = nullptr);

/// \brief The request's optional "deadline_ms" budget, counted from now:
/// infinite when absent, InvalidArgument when present but not a positive
/// finite number (strings, booleans, NaN and infinities included — NaN
/// would slip through a plain `<= 0` check).
easytime::Result<easytime::Deadline> ParseDeadline(
    const easytime::Json& params);

/// \brief Deterministic request key: endpoint plus a canonicalized dump of
/// the params (object keys sorted recursively), so key order and whitespace
/// in the client's JSON don't fragment the cache.
std::string CanonicalKey(const std::string& endpoint,
                         const easytime::Json& params);

/// The request line {"endpoint":…,"params":…} (no "id", no newline).
std::string MakeRequestLine(const std::string& endpoint,
                            const easytime::Json& params);

/// CamelCase wire token for a status code ("InvalidArgument", "Unavailable").
const char* ErrorCodeToken(StatusCode code);

/// Builds the success envelope around an endpoint result.
easytime::Json MakeOkResponse(int64_t id, easytime::Json result);

/// Builds the error envelope from a failure status.
easytime::Json MakeErrorResponse(int64_t id, const Status& status);

/// \brief Unwraps a response line: the "result" payload when "ok" is true,
/// else the error envelope as a Status with its code and message (a code
/// this build does not know reads as Internal). A line that is not JSON
/// comes back as the parse error.
easytime::Result<easytime::Json> ParseResponse(const std::string& line);

/// \brief The fast-lane success line around an already-serialized result:
/// {"id":…,"ok":true,"result":<result_bytes>,"cached":…,"seconds":…}.
/// Byte-identical to dumping MakeOkResponse(id, Parse(result_bytes)) with
/// "cached" and "seconds" set, without building or re-dumping the tree.
std::string SpliceOkResponseLine(int64_t id, const std::string& result_bytes,
                                 bool cached, double seconds);

}  // namespace easytime::serve
