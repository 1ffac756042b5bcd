#include "serve/request.h"

#include <cmath>

namespace easytime::serve {

easytime::Result<Request> ParseRequest(const std::string& line,
                                       size_t max_bytes,
                                       int64_t* error_id) {
  if (error_id) *error_id = -1;
  if (max_bytes > 0 && line.size() > max_bytes) {
    return Status::InvalidArgument(
        "request exceeds the " + std::to_string(max_bytes) +
        "-byte limit (" + std::to_string(line.size()) + " bytes)");
  }
  EASYTIME_ASSIGN_OR_RETURN(easytime::Json doc, easytime::Json::Parse(line));
  if (!doc.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  Request req;
  if (doc.Has("id")) {
    const easytime::Json& id = doc.Get("id");
    if (!id.is_number()) {
      return Status::InvalidArgument("request \"id\" must be a number");
    }
    req.id = id.AsInt();
    if (error_id) *error_id = req.id;
  }
  req.endpoint = doc.GetString("endpoint", "");
  if (req.endpoint.empty()) {
    return Status::InvalidArgument(
        "request is missing the \"endpoint\" field");
  }
  if (doc.Has("params")) {
    req.params = doc.Take("params");
    if (!req.params.is_object()) {
      return Status::InvalidArgument("request \"params\" must be an object");
    }
  } else {
    req.params = easytime::Json::Object();
  }
  return req;
}

easytime::Result<easytime::Deadline> ParseDeadline(
    const easytime::Json& params) {
  if (!params.Has("deadline_ms")) return easytime::Deadline();
  const easytime::Json& ms = params.Get("deadline_ms");
  if (!ms.is_number()) {
    return Status::InvalidArgument("\"deadline_ms\" must be a number");
  }
  if (!std::isfinite(ms.AsDouble()) || ms.AsDouble() <= 0.0) {
    return Status::InvalidArgument(
        "\"deadline_ms\" must be a positive finite number");
  }
  return easytime::Deadline::AfterMillis(ms.AsDouble());
}

std::string CanonicalKey(const std::string& endpoint,
                         const easytime::Json& params) {
  std::string key = endpoint;
  key.push_back('\n');
  params.AppendCanonical(&key);
  return key;
}

const char* ErrorCodeToken(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "Ok";
    case StatusCode::kInvalidArgument: return "InvalidArgument";
    case StatusCode::kNotFound: return "NotFound";
    case StatusCode::kAlreadyExists: return "AlreadyExists";
    case StatusCode::kOutOfRange: return "OutOfRange";
    case StatusCode::kNotImplemented: return "NotImplemented";
    case StatusCode::kInternal: return "Internal";
    case StatusCode::kIOError: return "IOError";
    case StatusCode::kParseError: return "ParseError";
    case StatusCode::kTypeError: return "TypeError";
    case StatusCode::kUnsupported: return "Unsupported";
    case StatusCode::kUnavailable: return "Unavailable";
    case StatusCode::kCancelled: return "Cancelled";
    case StatusCode::kDeadlineExceeded: return "DeadlineExceeded";
    case StatusCode::kUnauthenticated: return "Unauthenticated";
  }
  return "Unknown";
}

std::string MakeRequestLine(const std::string& endpoint,
                            const easytime::Json& params) {
  easytime::Json req = easytime::Json::Object();
  req.Set("endpoint", endpoint);
  req.Set("params", params);
  return req.Dump();
}

easytime::Json MakeOkResponse(int64_t id, easytime::Json result) {
  easytime::Json resp = easytime::Json::Object();
  if (id >= 0) resp.Set("id", id);
  resp.Set("ok", true);
  resp.Set("result", std::move(result));
  return resp;
}

easytime::Json MakeErrorResponse(int64_t id, const Status& status) {
  easytime::Json resp = easytime::Json::Object();
  if (id >= 0) resp.Set("id", id);
  resp.Set("ok", false);
  easytime::Json err = easytime::Json::Object();
  err.Set("code", ErrorCodeToken(status.code()));
  err.Set("message", status.message());
  resp.Set("error", std::move(err));
  return resp;
}

easytime::Result<easytime::Json> ParseResponse(const std::string& line) {
  EASYTIME_ASSIGN_OR_RETURN(easytime::Json resp, easytime::Json::Parse(line));
  if (resp.GetBool("ok", false)) return resp.Take("result");
  const easytime::Json& err = resp.Get("error");
  const std::string code = err.GetString("code", "Internal");
  std::string message = err.GetString("message", "unknown serving error");
  // From 1: a failed reply carrying "Ok" is malformed, not a success.
  for (int c = 1; c < kNumStatusCodes; ++c) {
    if (code == ErrorCodeToken(static_cast<StatusCode>(c))) {
      return Status(static_cast<StatusCode>(c), std::move(message));
    }
  }
  return Status::Internal(std::move(message));
}

std::string SpliceOkResponseLine(int64_t id, const std::string& result_bytes,
                                 bool cached, double seconds) {
  std::string line;
  line.reserve(result_bytes.size() + 64);
  line += '{';
  if (id >= 0) {
    line += "\"id\":";
    easytime::AppendJsonNumber(static_cast<double>(id), &line);
    line += ',';
  }
  line += "\"ok\":true,\"result\":";
  line += result_bytes;
  line += cached ? ",\"cached\":true,\"seconds\":"
                 : ",\"cached\":false,\"seconds\":";
  easytime::AppendJsonNumber(seconds, &line);
  line += '}';
  return line;
}

}  // namespace easytime::serve
