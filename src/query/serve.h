// bga_serve protocol: request handling decoupled from sockets.
//
// A request is one JSON object; a reply is one JSON object. On the wire
// both travel in length-prefixed frames (u32 little-endian payload length,
// then the payload bytes — see frame()/read_frame in server.cpp); the
// unit tests call ServeState::handle() directly, so the tested code is
// byte-for-byte the code the socket loop runs.
//
// Ops (field "op"):
//   lookup   {"op":"lookup","q":"<prefix-or-address>"[,"snapshot":i]}
//   equiv    {"op":"equiv","a":"...","b":"..."[,"snapshot":i]}
//   history  {"op":"history","q":"..."}
//   stats    {"op":"stats"}
//   shutdown {"op":"shutdown"}            (server drains and exits)
//
// Every reply carries "ok"; failed requests (malformed JSON, unknown op,
// bad prefix, negative or out-of-range snapshot) answer
// {"ok":false,"error":...} and keep the connection usable. Point queries
// default to the newest snapshot. Replies are deterministic: handle() is
// a pure function of (request, timeline), so any thread count serves
// identical bytes. Only the request is parsed into a report::json::Value;
// replies stream through report::json::Writer into Reply::body, in the
// layout Value::serialize prints.
//
// Per-endpoint serve.<op>.ns latency histograms are recorded through
// src/obs; metrics_json() exports the registry as a bgpatoms-trace/1
// document — the same schema bga_bench --trace emits — for the /metrics
// endpoint.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "query/timeline.h"

namespace bgpatoms::query {

class ServeState {
 public:
  struct Reply {
    std::string body;       // serialized JSON reply
    bool shutdown = false;  // request asked the server to stop
  };

  /// The timeline must hold at least one snapshot.
  explicit ServeState(Timeline timeline);

  /// Handles one request payload. Thread-safe: the timeline is read-only
  /// and metric recording is atomic.
  Reply handle(std::string_view request) const;

  /// Current obs registry contents as a bgpatoms-trace/1 JSON document.
  std::string metrics_json(int threads) const;

  const Timeline& timeline() const { return timeline_; }

 private:
  Timeline timeline_;
};

/// Wire framing: u32 little-endian payload length + payload.
std::string frame(std::string_view payload);

}  // namespace bgpatoms::query
