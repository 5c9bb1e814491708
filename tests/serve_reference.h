// Reference bga_serve replies for the differential test in test_serve.cpp:
// the report::json::Value tree ServeState::handle once built and then
// serialized, kept as the oracle its streaming reply writer is compared
// against byte for byte. Paths render from the AtomSets' own pools
// (AsPath::to_string), not from the index's text table, so the oracle
// checks AtomIndex::path_text too. Error messages are the handler's,
// including the rejection of a negative snapshot index.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/aspath.h"
#include "query/timeline.h"
#include "report/json.h"

namespace bgpatoms::test {

namespace serve_reference_detail {

using query::AtomIndex;
using query::AtomRecord;
using query::Timeline;
using report::json::Array;
using report::json::Object;
using report::json::Value;

inline Value error_reply(std::string message) {
  return Value(
      Object{{"ok", Value(false)}, {"error", Value(std::move(message))}});
}

inline const std::string& str_field(const Value& req, const char* key) {
  const Value* v = req.find(key);
  if (v == nullptr || !v->is_string()) {
    throw std::runtime_error(std::string("missing string field \"") + key +
                             "\"");
  }
  return v->as_string();
}

inline std::size_t snapshot_field(const Value& req, const Timeline& timeline) {
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

inline net::Prefix parse_query(const std::string& text) {
  const auto p = net::parse_prefix(text);
  if (!p) throw std::runtime_error("malformed prefix \"" + text + "\"");
  return *p;
}

inline Object resolve(const AtomIndex& index, const net::PathPool& paths,
                      const net::Prefix& query, bool with_members) {
  Object out;
  out.emplace_back("query", Value(query.to_string()));
  const auto hit = index.lookup(query);
  if (!hit) {
    out.emplace_back("found", Value(false));
    return out;
  }
  const AtomRecord* rec = index.atom(hit->atom);
  out.emplace_back("found", Value(true));
  out.emplace_back("matched", Value(hit->prefix.to_string()));
  out.emplace_back("atom", Value(static_cast<std::uint64_t>(hit->atom)));
  out.emplace_back("size", Value(static_cast<std::uint64_t>(rec->size())));
  out.emplace_back("origin", Value(static_cast<std::uint64_t>(rec->origin)));
  out.emplace_back("moas", Value(rec->moas));
  if (with_members) {
    Array members;
    for (const std::uint32_t row : rec->rows) {
      members.emplace_back(index.prefix_at(row).to_string());
    }
    out.emplace_back("prefixes", Value(std::move(members)));
    Array rendered;
    for (const auto& [vp, path] : rec->paths) {
      rendered.emplace_back(
          Object{{"vp", Value(static_cast<std::uint64_t>(vp))},
                 {"path", Value(paths.get(path).to_string())}});
    }
    out.emplace_back("paths", Value(std::move(rendered)));
  }
  return out;
}

inline Value handle_lookup(const Timeline& timeline,
                           const std::vector<const net::PathPool*>& pools,
                           const Value& req) {
  const net::Prefix query = parse_query(str_field(req, "q"));
  const std::size_t snap = snapshot_field(req, timeline);
  Object reply{{"ok", Value(true)},
               {"op", Value("lookup")},
               {"snapshot", Value(static_cast<std::uint64_t>(snap))},
               {"label", Value(timeline.label(snap))}};
  Object hit = resolve(timeline.at(snap), *pools[snap], query,
                       /*with_members=*/true);
  reply.insert(reply.end(), std::make_move_iterator(hit.begin()),
               std::make_move_iterator(hit.end()));
  return Value(std::move(reply));
}

inline Value handle_equiv(const Timeline& timeline,
                          const std::vector<const net::PathPool*>& pools,
                          const Value& req) {
  const net::Prefix a = parse_query(str_field(req, "a"));
  const net::Prefix b = parse_query(str_field(req, "b"));
  const std::size_t snap = snapshot_field(req, timeline);
  const AtomIndex& index = timeline.at(snap);
  const auto hit_a = index.lookup(a);
  const auto hit_b = index.lookup(b);
  const bool equivalent = hit_a && hit_b && hit_a->atom == hit_b->atom;
  return Value(Object{
      {"ok", Value(true)},
      {"op", Value("equiv")},
      {"snapshot", Value(static_cast<std::uint64_t>(snap))},
      {"equivalent", Value(equivalent)},
      {"a", Value(resolve(index, *pools[snap], a, /*with_members=*/false))},
      {"b", Value(resolve(index, *pools[snap], b, /*with_members=*/false))}});
}

inline Value handle_history(const Timeline& timeline, const Value& req) {
  const net::Prefix query = parse_query(str_field(req, "q"));
  const auto entries = timeline.history(query.address());
  Array out;
  out.reserve(entries.size());
  for (const auto& e : entries) {
    Object row{{"snapshot", Value(static_cast<std::uint64_t>(e.snapshot))},
               {"label", Value(timeline.label(e.snapshot))},
               {"present", Value(e.present)}};
    if (e.present) {
      row.emplace_back("matched", Value(e.matched.to_string()));
      row.emplace_back("atom", Value(static_cast<std::uint64_t>(e.atom)));
      row.emplace_back("size", Value(static_cast<std::uint64_t>(e.size)));
      row.emplace_back("origin", Value(static_cast<std::uint64_t>(e.origin)));
      row.emplace_back("moas", Value(e.moas));
      row.emplace_back("same_as_previous", Value(e.same_as_previous));
    }
    out.emplace_back(std::move(row));
  }
  return Value(Object{{"ok", Value(true)},
                      {"op", Value("history")},
                      {"query", Value(query.to_string())},
                      {"entries", Value(std::move(out))}});
}

inline Value handle_stats(const Timeline& timeline) {
  Array snaps;
  for (std::size_t i = 0; i < timeline.size(); ++i) {
    const AtomIndex& index = timeline.at(i);
    snaps.emplace_back(Object{
        {"label", Value(timeline.label(i))},
        {"timestamp", Value(static_cast<std::int64_t>(index.timestamp()))},
        {"prefixes", Value(static_cast<std::uint64_t>(index.prefix_count()))},
        {"atoms", Value(static_cast<std::uint64_t>(index.atom_count()))},
        {"vps", Value(static_cast<std::uint64_t>(index.vp_count()))},
        {"fingerprint", Value(timeline.fingerprint(i))}});
  }
  return Value(Object{{"ok", Value(true)},
                      {"op", Value("stats")},
                      {"snapshots", Value(std::move(snaps))}});
}

}  // namespace serve_reference_detail

struct ReferenceReply {
  std::string body;
  bool shutdown = false;
};

/// The reply ServeState::handle gives `request`; `pools[i]` resolves the
/// path ids of the timeline's snapshot i.
inline ReferenceReply reference_reply(
    const query::Timeline& timeline,
    const std::vector<const net::PathPool*>& pools, std::string_view request) {
  using namespace serve_reference_detail;
  ReferenceReply reply;
  Value result;
  try {
    const Value req = Value::parse(request);
    const Value* op_field = req.find("op");
    if (op_field == nullptr || !op_field->is_string()) {
      throw std::runtime_error("missing string field \"op\"");
    }
    const std::string& op = op_field->as_string();
    if (op == "lookup") {
      result = handle_lookup(timeline, pools, req);
    } else if (op == "equiv") {
      result = handle_equiv(timeline, pools, req);
    } else if (op == "history") {
      result = handle_history(timeline, req);
    } else if (op == "stats") {
      result = handle_stats(timeline);
    } else if (op == "shutdown") {
      reply.shutdown = true;
      result = Value(Object{{"ok", Value(true)}, {"op", Value("shutdown")}});
    } else {
      throw std::runtime_error("unknown op \"" + op + "\"");
    }
  } catch (const std::exception& e) {
    result = error_reply(e.what());
  }
  reply.body = result.serialize();
  return reply;
}

}  // namespace bgpatoms::test
