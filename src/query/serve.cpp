#include "query/serve.h"

#include <optional>
#include <stdexcept>
#include <utility>

#include "obs/obs.h"
#include "report/json.h"
#include "report/trace.h"

namespace bgpatoms::query {

namespace {

using report::json::Value;
using report::json::Writer;

/// Required string field or throws (caught into an error reply).
const std::string& str_field(const Value& req, const char* key) {
  const Value* v = req.find(key);
  if (v == nullptr || !v->is_string()) {
    throw std::runtime_error(std::string("missing string field \"") + key +
                             "\"");
  }
  return v->as_string();
}

/// Optional "snapshot" field; defaults to the newest snapshot.
std::size_t snapshot_field(const Value& req, const Timeline& timeline) {
  const Value* v = req.find("snapshot");
  if (v == nullptr) return timeline.size() - 1;
  if (!v->is_integer()) throw std::runtime_error("\"snapshot\" not an integer");
  if (v->as_number() < 0) {
    throw std::runtime_error("snapshot " + std::to_string(v->as_int64()) +
                             " is negative");
  }
  const std::uint64_t i = v->as_uint64();
  if (i >= timeline.size()) {
    throw std::runtime_error("snapshot " + std::to_string(i) +
                             " out of range (timeline has " +
                             std::to_string(timeline.size()) + ")");
  }
  return static_cast<std::size_t>(i);
}

net::Prefix parse_query(const std::string& text) {
  const auto p = net::parse_prefix(text);
  if (!p) throw std::runtime_error("malformed prefix \"" + text + "\"");
  return *p;
}

// Every handler below validates its whole request before its first write,
// so a thrown error never follows part of an answer.

void write_prefix(Writer& w, const net::Prefix& p) {
  w.rendered_string([&](std::string& out) { p.append_to(out); });
}

/// The per-snapshot resolution of one point query, shared by lookup and
/// equiv: matched prefix + full atom record, or found:false. Writes the
/// members of the object the caller has open.
void write_resolution(Writer& w, const AtomIndex& index,
                      const net::Prefix& query,
                      const std::optional<AtomIndex::Match>& hit,
                      bool with_members) {
  w.key("query");
  write_prefix(w, query);
  w.member("found", hit.has_value());
  if (!hit) return;
  const AtomRecord* rec = index.atom(hit->atom);
  w.key("matched");
  write_prefix(w, hit->prefix);
  w.member("atom", std::uint64_t{hit->atom});
  w.member("size", std::uint64_t{rec->size()});
  w.member("origin", std::uint64_t{rec->origin});
  w.member("moas", rec->moas);
  if (!with_members) return;
  w.key("prefixes");
  w.begin_array();
  for (const std::uint32_t row : rec->rows) {
    write_prefix(w, index.prefix_at(row));
  }
  w.end_array();
  w.key("paths");
  w.begin_array();
  for (const auto& [vp, path] : rec->paths) {
    w.begin_object();
    w.member("vp", std::uint64_t{vp});
    w.key("path");
    const std::string_view text = index.path_text(path);
    w.rendered_string([&](std::string& out) { out += text; });
    w.end_object();
  }
  w.end_array();
}

/// Opens the reply object with its "ok":true and "op" members.
void begin_reply(Writer& w, const char* op) {
  w.begin_object();
  w.member("ok", true);
  w.member("op", op);
}

void write_lookup(std::string& body, const Timeline& timeline,
                  const Value& req) {
  const net::Prefix query = parse_query(str_field(req, "q"));
  const std::size_t snap = snapshot_field(req, timeline);
  const AtomIndex& index = timeline.at(snap);
  Writer w(body);
  begin_reply(w, "lookup");
  w.member("snapshot", std::uint64_t{snap});
  w.member("label", timeline.label(snap));
  write_resolution(w, index, query, index.lookup(query),
                   /*with_members=*/true);
  w.end_object();
}

void write_equiv(std::string& body, const Timeline& timeline,
                 const Value& req) {
  const net::Prefix a = parse_query(str_field(req, "a"));
  const net::Prefix b = parse_query(str_field(req, "b"));
  const std::size_t snap = snapshot_field(req, timeline);
  const AtomIndex& index = timeline.at(snap);
  const auto hit_a = index.lookup(a);
  const auto hit_b = index.lookup(b);
  Writer w(body);
  begin_reply(w, "equiv");
  w.member("snapshot", std::uint64_t{snap});
  w.member("equivalent", hit_a && hit_b && hit_a->atom == hit_b->atom);
  w.key("a");
  w.begin_object();
  write_resolution(w, index, a, hit_a, /*with_members=*/false);
  w.end_object();
  w.key("b");
  w.begin_object();
  write_resolution(w, index, b, hit_b, /*with_members=*/false);
  w.end_object();
  w.end_object();
}

void write_history(std::string& body, const Timeline& timeline,
                   const Value& req) {
  const net::Prefix query = parse_query(str_field(req, "q"));
  // History is an address-wise walk; a CIDR query asks about its first
  // address (the canonicalized network address).
  const auto entries = timeline.history(query.address());
  Writer w(body);
  begin_reply(w, "history");
  w.key("query");
  write_prefix(w, query);
  w.key("entries");
  w.begin_array();
  for (const auto& e : entries) {
    w.begin_object();
    w.member("snapshot", std::uint64_t{e.snapshot});
    w.member("label", timeline.label(e.snapshot));
    w.member("present", e.present);
    if (e.present) {
      w.key("matched");
      write_prefix(w, e.matched);
      w.member("atom", std::uint64_t{e.atom});
      w.member("size", std::uint64_t{e.size});
      w.member("origin", std::uint64_t{e.origin});
      w.member("moas", e.moas);
      w.member("same_as_previous", e.same_as_previous);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void write_stats(std::string& body, const Timeline& timeline) {
  Writer w(body);
  begin_reply(w, "stats");
  w.key("snapshots");
  w.begin_array();
  for (std::size_t i = 0; i < timeline.size(); ++i) {
    const AtomIndex& index = timeline.at(i);
    w.begin_object();
    w.member("label", timeline.label(i));
    w.member("timestamp", std::int64_t{index.timestamp()});
    w.member("prefixes", std::uint64_t{index.prefix_count()});
    w.member("atoms", std::uint64_t{index.atom_count()});
    w.member("vps", std::uint64_t{index.vp_count()});
    w.member("fingerprint", timeline.fingerprint(i));
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void write_shutdown(std::string& body) {
  Writer w(body);
  begin_reply(w, "shutdown");
  w.end_object();
}

/// {"ok":false,"error":...} in place of whatever `body` holds.
void write_error(std::string& body, std::string_view message) {
  body.clear();
  Writer w(body);
  w.begin_object();
  w.member("ok", false);
  w.member("error", message);
  w.end_object();
}

}  // namespace

ServeState::ServeState(Timeline timeline) : timeline_(std::move(timeline)) {
  if (timeline_.empty()) {
    throw std::invalid_argument("ServeState: timeline holds no snapshots");
  }
}

ServeState::Reply ServeState::handle(std::string_view request) const {
  const std::uint64_t t0 = obs::monotonic_ns();
  Reply reply;
  std::string op;
  try {
    const Value req = Value::parse(request);
    const Value* op_field = req.find("op");
    if (op_field == nullptr || !op_field->is_string()) {
      throw std::runtime_error("missing string field \"op\"");
    }
    op = op_field->as_string();
    if (op == "lookup") {
      write_lookup(reply.body, timeline_, req);
    } else if (op == "equiv") {
      write_equiv(reply.body, timeline_, req);
    } else if (op == "history") {
      write_history(reply.body, timeline_, req);
    } else if (op == "stats") {
      write_stats(reply.body, timeline_);
    } else if (op == "shutdown") {
      reply.shutdown = true;
      write_shutdown(reply.body);
    } else {
      throw std::runtime_error("unknown op \"" + op + "\"");
    }
  } catch (const std::exception& e) {
    write_error(reply.body, e.what());
  }

  const std::uint64_t elapsed = obs::monotonic_ns() - t0;
  // Distinct macro sites per endpoint: each caches its own registry slot.
  if (op == "lookup") {
    OBS_HISTOGRAM("serve.lookup.ns", elapsed);
  } else if (op == "equiv") {
    OBS_HISTOGRAM("serve.equiv.ns", elapsed);
  } else if (op == "history") {
    OBS_HISTOGRAM("serve.history.ns", elapsed);
  } else if (op == "stats") {
    OBS_HISTOGRAM("serve.stats.ns", elapsed);
  } else {
    OBS_HISTOGRAM("serve.other.ns", elapsed);
  }
  OBS_COUNT("serve.requests");
  return reply;
}

std::string ServeState::metrics_json(int threads) const {
  report::TraceMeta meta;
  meta.threads = threads;
  return report::trace_to_json(obs::registry().snapshot(), meta).serialize();
}

std::string frame(std::string_view payload) {
  const auto n = static_cast<std::uint32_t>(payload.size());
  std::string out;
  out.reserve(4 + payload.size());
  out.push_back(static_cast<char>(n & 0xff));
  out.push_back(static_cast<char>((n >> 8) & 0xff));
  out.push_back(static_cast<char>((n >> 16) & 0xff));
  out.push_back(static_cast<char>((n >> 24) & 0xff));
  out.append(payload);
  return out;
}

}  // namespace bgpatoms::query
