// bga_serve protocol + socket loop: ServeState::handle over every op and
// error path (determinism included, on 8 threads too), its streaming replies
// checked byte for byte against the JSON-tree reference
// (serve_reference.h) on seeded random and mutated requests, and a live
// Server on an ephemeral loopback port — framed requests for each query
// type, the HTTP /metrics document validated against bgpatoms-trace/1,
// idle persistence, clients that never read their replies, and a clean
// shutdown-op exit. The socket smoke runs
// under the serve_smoke ctest label (tools/ci_check.sh), the worker loop
// under tsan, and the whole suite under asan_smoke.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/atoms.h"
#include "core/parallel.h"
#include "query/serve.h"
#include "query/server.h"
#include "report/json.h"
#include "report/trace.h"
#include "serve_reference.h"
#include "testutil.h"

namespace bgpatoms::query {
namespace {

using report::json::Value;
using test::DatasetBuilder;

/// Two snapshots: {10.0, 10.1} + {10.2} at t=0; the pair splits at t=100.
ServeState make_state() {
  DatasetBuilder b;
  b.peer(100)
      .route("10.0.0.0/16", "100 1")
      .route("10.1.0.0/16", "100 1")
      .route("10.2.0.0/16", "100 2");
  b.peer(200)
      .route("10.0.0.0/16", "200 1")
      .route("10.1.0.0/16", "200 1")
      .route("10.2.0.0/16", "200 2");
  b.snapshot(100);
  b.peer(100)
      .route("10.0.0.0/16", "100 1")
      .route("10.1.0.0/16", "100 9 1")
      .route("10.2.0.0/16", "100 2");
  b.peer(200)
      .route("10.0.0.0/16", "200 1")
      .route("10.1.0.0/16", "200 1")
      .route("10.2.0.0/16", "200 2");

  Timeline timeline;
  for (std::size_t i = 0; i < 2; ++i) {
    const auto snap = sanitize(b.dataset(), i, test::lax_config());
    timeline.add("t" + std::to_string(i),
                 std::make_shared<AtomIndex>(
                     AtomIndex::build(core::compute_atoms(snap))));
  }
  return ServeState{std::move(timeline)};
}

Value reply_for(const ServeState& state, const std::string& request) {
  return Value::parse(state.handle(request).body);
}

bool ok(const Value& reply) {
  const Value* v = reply.find("ok");
  return v != nullptr && v->is_bool() && v->as_bool();
}

std::string error_of(const Value& reply) {
  const Value* v = reply.find("error");
  return v != nullptr && v->is_string() ? v->as_string() : "";
}

TEST(ServeState, EmptyTimelineIsRejected) {
  EXPECT_THROW(ServeState{Timeline{}}, std::invalid_argument);
}

TEST(ServeState, LookupResolvesThroughTheIndex) {
  const ServeState state = make_state();
  // Default snapshot is the newest (t1, where the pair has split).
  const auto reply = reply_for(state, R"({"op":"lookup","q":"10.0.0.9"})");
  ASSERT_TRUE(ok(reply));
  EXPECT_EQ(reply.find("label")->as_string(), "t1");
  EXPECT_EQ(reply.find("matched")->as_string(), "10.0.0.0/16");
  EXPECT_EQ(reply.find("size")->as_uint64(), 1u);
  EXPECT_EQ(reply.find("origin")->as_uint64(), 1u);
  ASSERT_NE(reply.find("prefixes"), nullptr);
  EXPECT_EQ(reply.find("prefixes")->as_array().size(), 1u);
  EXPECT_EQ(reply.find("paths")->as_array().size(), 2u);

  // Pinned snapshot 0: the atom still spans both prefixes.
  const auto at0 =
      reply_for(state, R"({"op":"lookup","q":"10.0.0.9","snapshot":0})");
  ASSERT_TRUE(ok(at0));
  EXPECT_EQ(at0.find("label")->as_string(), "t0");
  EXPECT_EQ(at0.find("size")->as_uint64(), 2u);

  // A miss is ok:true, found:false.
  const auto miss = reply_for(state, R"({"op":"lookup","q":"192.0.2.1"})");
  ASSERT_TRUE(ok(miss));
  EXPECT_FALSE(miss.find("found")->as_bool());
}

TEST(ServeState, EquivComparesAtomIds) {
  const ServeState state = make_state();
  const auto same = reply_for(
      state, R"({"op":"equiv","a":"10.0.0.1","b":"10.1.0.1","snapshot":0})");
  ASSERT_TRUE(ok(same));
  EXPECT_TRUE(same.find("equivalent")->as_bool());

  // After the split (newest snapshot) the same pair is not equivalent.
  const auto split =
      reply_for(state, R"({"op":"equiv","a":"10.0.0.1","b":"10.1.0.1"})");
  ASSERT_TRUE(ok(split));
  EXPECT_FALSE(split.find("equivalent")->as_bool());

  // A missing side is never equivalent.
  const auto miss =
      reply_for(state, R"({"op":"equiv","a":"10.0.0.1","b":"192.0.2.1"})");
  ASSERT_TRUE(ok(miss));
  EXPECT_FALSE(miss.find("equivalent")->as_bool());
}

TEST(ServeState, HistoryWalksTheTimeline) {
  const ServeState state = make_state();
  const auto reply = reply_for(state, R"({"op":"history","q":"10.2.0.9"})");
  ASSERT_TRUE(ok(reply));
  const auto& entries = reply.find("entries")->as_array();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_TRUE(entries[0].find("present")->as_bool());
  EXPECT_FALSE(entries[0].find("same_as_previous")->as_bool());
  EXPECT_TRUE(entries[1].find("present")->as_bool());
  EXPECT_TRUE(entries[1].find("same_as_previous")->as_bool());
  EXPECT_EQ(entries[1].find("label")->as_string(), "t1");
}

TEST(ServeState, StatsReportsEverySnapshot) {
  const ServeState state = make_state();
  const auto reply = reply_for(state, R"({"op":"stats"})");
  ASSERT_TRUE(ok(reply));
  const auto& snaps = reply.find("snapshots")->as_array();
  ASSERT_EQ(snaps.size(), 2u);
  EXPECT_EQ(snaps[0].find("prefixes")->as_uint64(), 3u);
  EXPECT_EQ(snaps[0].find("atoms")->as_uint64(), 2u);
  EXPECT_EQ(snaps[1].find("atoms")->as_uint64(), 3u);
  EXPECT_NE(snaps[0].find("fingerprint")->as_uint64(),
            snaps[1].find("fingerprint")->as_uint64());
}

TEST(ServeState, ErrorPathsKeepTheConnectionUsable) {
  const ServeState state = make_state();
  const auto bad_json = reply_for(state, "{not json");
  EXPECT_FALSE(ok(bad_json));
  EXPECT_NE(error_of(bad_json), "");

  const auto no_op = reply_for(state, R"({"q":"10.0.0.1"})");
  EXPECT_FALSE(ok(no_op));
  EXPECT_NE(error_of(no_op).find("\"op\""), std::string::npos);

  const auto bad_op = reply_for(state, R"({"op":"frobnicate"})");
  EXPECT_FALSE(ok(bad_op));
  EXPECT_NE(error_of(bad_op).find("unknown op"), std::string::npos);

  const auto bad_prefix = reply_for(state, R"({"op":"lookup","q":"10.0/99"})");
  EXPECT_FALSE(ok(bad_prefix));
  EXPECT_NE(error_of(bad_prefix).find("malformed prefix"), std::string::npos);

  const auto bad_snap =
      reply_for(state, R"({"op":"lookup","q":"10.0.0.1","snapshot":7})");
  EXPECT_FALSE(ok(bad_snap));
  EXPECT_NE(error_of(bad_snap).find("out of range"), std::string::npos);

  const auto negative_snap =
      reply_for(state, R"({"op":"lookup","q":"1.2.3.4","snapshot":-1})");
  EXPECT_FALSE(ok(negative_snap));
  EXPECT_EQ(error_of(negative_snap), "snapshot -1 is negative");

  // Deep nesting far below max_frame is a parse error, not a crash.
  for (const std::string& deep :
       {std::string(100000, '['), "{\"op\":" + std::string(100000, '{')}) {
    const auto nested = reply_for(state, deep);
    EXPECT_FALSE(ok(nested));
    EXPECT_NE(error_of(nested).find("json parse error"), std::string::npos);
  }

  // The state still answers a well-formed request afterwards.
  EXPECT_TRUE(ok(reply_for(state, R"({"op":"stats"})")));
}

TEST(ServeState, RepliesAreDeterministic) {
  const ServeState state = make_state();
  const std::string request = R"({"op":"lookup","q":"10.1.0.1"})";
  const std::string first = state.handle(request).body;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(state.handle(request).body, first);
  }

  // A mix of every op and an error, answered from 8 threads at once
  // (raced under the tsan preset): each reply must equal the sequential
  // reply to its request.
  const std::vector<std::string> ops = {
      request, R"({"op":"lookup","q":"10.0.0.9","snapshot":0})",
      R"({"op":"equiv","a":"10.0.0.1","b":"10.1.0.1"})",
      R"({"op":"history","q":"10.2.0.9"})", R"({"op":"stats"})",
      R"({"op":"lookup","q":"10.0/99"})"};
  std::vector<std::string> sequential, concurrent(200 * ops.size());
  for (const std::string& r : ops) sequential.push_back(state.handle(r).body);
  core::TaskPool pool(8);
  pool.run(concurrent.size(), [&](std::size_t i) {
    concurrent[i] = state.handle(ops[i % ops.size()]).body;
  });
  for (std::size_t i = 0; i < concurrent.size(); ++i) {
    EXPECT_EQ(concurrent[i], sequential[i % ops.size()]) << i;
  }
}

/// A timeline over v4 and v6 prefixes (so "::" compression shows in
/// replies) whose labels need escaping; the AtomSets stay alive so the
/// reference renders paths from their pools.
struct OracleFixture {
  DatasetBuilder builder;
  std::vector<std::unique_ptr<core::SanitizedSnapshot>> snaps;
  std::vector<core::AtomSet> atoms;
  std::vector<const net::PathPool*> pools;
  std::unique_ptr<ServeState> state;
};

const std::vector<std::string> kV4Prefixes = {
    "0.0.0.0/0",   "10.0.0.0/8",     "10.1.0.0/16",
    "10.1.2.0/24", "10.1.2.3/32",    "192.0.2.0/24",
    "198.51.100.0/24"};
const std::vector<std::string> kV6Prefixes = {
    "2001:db8::/32",  "2001:db8:0:1::/64", "2001:db8:1::/48",
    "::1/128",        "2001:0:0:1::/64",   "fe80::1:0:0:1/128",
    "1:0:0:2:0:0:3:4/128"};

std::unique_ptr<OracleFixture> make_oracle_fixture() {
  auto fx = std::make_unique<OracleFixture>();
  DatasetBuilder& b = fx->builder;
  for (int snap = 0; snap < 3; ++snap) {
    if (snap > 0) b.snapshot(100 * snap);
    for (const net::Asn peer : {100u, 200u, 300u}) {
      b.peer(peer);
      std::size_t i = 0;
      for (const auto* table : {&kV4Prefixes, &kV6Prefixes}) {
        for (const std::string& prefix : *table) {
          // Origins group the prefixes into a few atoms; later snapshots
          // split some of them at one peer, with prepending.
          const std::string origin = std::to_string(64500 + i % 3);
          std::string path = std::to_string(peer) + " 7 " + origin;
          if (snap > 0 && peer == 200 && i % (snap + 2) == 0) {
            path = std::to_string(peer) + " " + std::to_string(peer) +
                   " 9 " + origin;
          }
          b.route(prefix, path);
          ++i;
        }
      }
    }
  }
  core::SanitizeConfig config = test::lax_config();
  config.filter_prefixes = false;
  config.max_prefix_length = 128;
  Timeline timeline;
  const std::vector<std::string> labels = {"t0 \"quoted\" back\\slash",
                                           "t1 control \x01\x1f byte",
                                           "t2 UTF-8 \xc3\xa9t\xc3\xa9"};
  for (std::size_t i = 0; i < labels.size(); ++i) {
    fx->snaps.push_back(std::make_unique<core::SanitizedSnapshot>(
        sanitize(b.dataset(), i, config)));
  }
  for (const auto& snap : fx->snaps) {
    fx->atoms.push_back(core::compute_atoms(*snap));
  }
  for (std::size_t i = 0; i < labels.size(); ++i) {
    fx->pools.push_back(&fx->atoms[i].paths());
    timeline.add(labels[i], std::make_shared<AtomIndex>(
                                AtomIndex::build(fx->atoms[i])));
  }
  fx->state = std::make_unique<ServeState>(std::move(timeline));
  return fx;
}

/// Seeded well-formed and malformed requests over every op.
std::vector<std::string> random_requests(std::mt19937_64& rng,
                                         std::size_t count) {
  std::vector<std::string> queries;
  for (const auto* table : {&kV4Prefixes, &kV6Prefixes}) {
    for (const std::string& p : *table) {
      queries.push_back("\"" + p + "\"");
      queries.push_back("\"" + p.substr(0, p.find('/')) + "\"");
    }
  }
  for (const char* q :
       {"\"10.1.2.9\"", "\"2001:db8:0:1::5\"", "\"203.0.113.7\"",
        "\"3fff::1\"", "\"10.0/99\"", "\"\"", "\"::g\"",
        "\"1.2.3.4/33\"", "\"2001:db8::/129\"", "\"10.1.2.3/\"",
        "\"10.0.0.1\\\"\"", "\"\\u0001\"", "5", "null", "[]",
        "{}"}) {
    queries.push_back(q);
  }
  const std::vector<std::string> snapshots = {
      "0",    "1",       "2",   "3",
      "7",    "-1",      "-9223372036854775808",
      "18446744073709551615", "99999999999999999999", "1.5",
      "\"0\"", "true",    "null"};
  const std::vector<std::string> ops = {
      "\"lookup\"", "\"equiv\"",    "\"history\"",        "\"stats\"",
      "\"shutdown\"", "\"frobnicate\"", "\"look\\u0001up\"", "5"};
  auto pick = [&](const std::vector<std::string>& from) {
    return from[rng() % from.size()];
  };
  std::vector<std::string> out;
  for (std::size_t n = 0; n < count; ++n) {
    std::vector<std::string> fields;
    // Ops weighted toward the ones with answers; a few requests have none.
    const std::uint64_t roll = rng() % 20;
    if (roll < 6) {
      fields.push_back("\"op\":\"lookup\"");
    } else if (roll < 9) {
      fields.push_back("\"op\":\"equiv\"");
    } else if (roll < 12) {
      fields.push_back("\"op\":\"history\"");
    } else if (roll < 19) {
      fields.push_back("\"op\":" + pick(ops));
    }
    for (const char* key : {"q", "a", "b"}) {
      if (rng() % 8 != 0) {
        fields.push_back(std::string("\"") + key + "\":" + pick(queries));
      }
    }
    if (rng() % 3 != 0) fields.push_back("\"snapshot\":" + pick(snapshots));
    std::shuffle(fields.begin(), fields.end(), rng);
    std::string request = "{";
    for (std::size_t i = 0; i < fields.size(); ++i) {
      if (i > 0) request += rng() % 4 == 0 ? " , " : ",";
      request += fields[i];
    }
    out.push_back(request + "}");
  }
  return out;
}

/// One seeded mutation of `base` (`other` feeds splices).
std::string mutate(std::mt19937_64& rng, std::string base,
                   const std::string& other) {
  auto at = [&](std::size_t n) { return n == 0 ? 0 : rng() % (n + 1); };
  switch (rng() % 7) {
    case 0:  // bit flips
      for (int k = 0, n = 1 + static_cast<int>(rng() % 3); k < n; ++k) {
        if (base.empty()) break;
        base[rng() % base.size()] ^= static_cast<char>(1u << (rng() % 8));
      }
      return base;
    case 1:  // truncation
      return base.substr(0, at(base.size()));
    case 2:  // splice
      return base.substr(0, at(base.size())) + other.substr(at(other.size()));
    case 3: {  // inserted quote, backslash or control byte
      static const std::string kBytes("\"\\\x01\x1f\x7f\xff\0", 7);
      base.insert(at(base.size()), 1, kBytes[rng() % kBytes.size()]);
      return base;
    }
    case 4:  // long digit run
      base.insert(at(base.size()), std::string(20 + rng() % 400, '9'));
      return base;
    case 5: {  // deep [ / { runs, before or inside the request
      static const std::size_t kDepths[] = {63, 64, 65, 1000, 100000};
      const std::size_t depth = kDepths[rng() % std::size(kDepths)];
      const char open = rng() % 2 == 0 ? '[' : '{';
      std::string run(depth, open);
      if (rng() % 2 == 0) run += std::string(depth, open == '[' ? ']' : '}');
      const std::size_t colon = base.find(':');
      if (rng() % 2 == 0 && colon != std::string::npos) {
        return base.substr(0, colon + 1) + run + base.substr(colon + 1);
      }
      return run + base;
    }
    default:  // duplicated member: the first one wins
      return base.empty() ? base
                          : base.substr(0, base.size() - 1) + "," +
                                base.substr(1);
  }
}

TEST(ServeState, MatchesTreeReferenceOnRandomAndMutatedRequests) {
  const auto fx = make_oracle_fixture();
  std::mt19937_64 rng(0x5e7e);
  std::vector<std::string> requests = random_requests(rng, 2000);
  const std::size_t base = requests.size();
  for (std::size_t i = 0; i < 8000; ++i) {
    requests.push_back(mutate(rng, requests[rng() % base],
                              requests[rng() % base]));
  }
  int failures = 0;
  std::size_t answered = 0;
  for (const std::string& request : requests) {
    const ServeState::Reply got = fx->state->handle(request);
    const test::ReferenceReply want =
        test::reference_reply(fx->state->timeline(), fx->pools, request);
    if (got.body != want.body || got.shutdown != want.shutdown) {
      ADD_FAILURE() << "reply differs from the reference for "
                    << testing::PrintToString(request.substr(0, 200))
                    << "\n got: " << got.body << "\nwant: " << want.body;
      if (++failures == 5) break;
      continue;
    }
    Value reply;
    try {
      reply = Value::parse(got.body);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "unparsable reply: " << e.what();
      if (++failures == 5) break;
      continue;
    }
    const Value* okv = reply.find("ok");
    ASSERT_TRUE(okv != nullptr && okv->is_bool()) << got.body;
    if (okv->as_bool()) {
      ++answered;
    } else {
      const Value* error = reply.find("error");
      ASSERT_TRUE(error != nullptr && error->is_string()) << got.body;
    }
  }
  // The mix must reach real answers, not only error replies.
  EXPECT_GT(answered, requests.size() / 10);
}

TEST(ServeState, FrameIsLittleEndianLengthPrefixed) {
  const std::string framed = frame("abc");
  ASSERT_EQ(framed.size(), 7u);
  EXPECT_EQ(framed[0], 3);
  EXPECT_EQ(framed[1], 0);
  EXPECT_EQ(framed[2], 0);
  EXPECT_EQ(framed[3], 0);
  EXPECT_EQ(framed.substr(4), "abc");
}

TEST(ServeState, MetricsDocumentValidatesAsTrace) {
  const ServeState state = make_state();
  (void)state.handle(R"({"op":"stats"})");
  const auto doc = Value::parse(state.metrics_json(2));
  EXPECT_EQ(report::validate_trace(doc), "");
}

// ---------------------------------------------------------------- socket

/// Minimal blocking loopback client for the framed protocol.
class Client {
 public:
  /// `buffer_bytes` > 0 sets this socket's own receive and send buffer
  /// sizes before connecting.
  explicit Client(int port, int buffer_bytes = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (buffer_bytes > 0) {
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &buffer_bytes,
                   sizeof buffer_bytes);
      ::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &buffer_bytes,
                   sizeof buffer_bytes);
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    connected_ = ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof addr) == 0;
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return connected_; }

  void send_raw(const std::string& bytes) {
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
  }

  /// Sends one framed request and decodes the framed JSON reply.
  Value ask(const std::string& request) {
    send_raw(frame(request));
    return read_reply();
  }

  /// Decodes the next framed JSON reply.
  Value read_reply() {
    unsigned char head[4];
    read_exact(head, 4);
    const std::size_t n = static_cast<std::size_t>(head[0]) |
                          static_cast<std::size_t>(head[1]) << 8 |
                          static_cast<std::size_t>(head[2]) << 16 |
                          static_cast<std::size_t>(head[3]) << 24;
    std::string body(n, '\0');
    read_exact(body.data(), n);
    return Value::parse(body);
  }

  /// True once reply bytes are waiting, false after `ms` without any.
  bool readable_within(int ms) {
    pollfd pfd{fd_, POLLIN, 0};
    return ::poll(&pfd, 1, ms) == 1;
  }

  /// Sends `frames` over and over and reads nothing, until the connection
  /// takes no more bytes for 200 ms: the server has stopped reading it.
  void flood(const std::string& frames) {
    std::size_t off = 0;
    for (;;) {
      const ssize_t sent = ::send(fd_, frames.data() + off, frames.size() - off,
                                  MSG_DONTWAIT | MSG_NOSIGNAL);
      if (sent > 0) {
        off = (off + static_cast<std::size_t>(sent)) % frames.size();
        continue;
      }
      // Any other error: the server dropped the connection, so it does
      // not read it either.
      if (errno != EAGAIN && errno != EWOULDBLOCK) return;
      pollfd pfd{fd_, POLLOUT, 0};
      if (::poll(&pfd, 1, 200) == 0) return;
    }
  }

  /// Reads until EOF (the /metrics HTTP path closes after one response).
  std::string drain() {
    std::string out;
    char buf[4096];
    ssize_t got = 0;
    while ((got = ::recv(fd_, buf, sizeof buf, 0)) > 0) {
      out.append(buf, static_cast<std::size_t>(got));
    }
    return out;
  }

 private:
  void read_exact(void* buf, std::size_t n) {
    auto* p = static_cast<char*>(buf);
    while (n > 0) {
      const ssize_t got = ::recv(fd_, p, n, 0);
      ASSERT_GT(got, 0);
      p += got;
      n -= static_cast<std::size_t>(got);
    }
  }

  int fd_ = -1;
  bool connected_ = false;
};

TEST(Server, ServesEveryOpOverTheWireAndShutsDownCleanly) {
  const ServeState state = make_state();
  ServerOptions options;
  options.threads = 2;
  options.poll_interval_ms = 50;
  auto server = std::make_unique<Server>(state, options);
  const int port = server->port();
  ASSERT_GT(port, 0);
  std::thread serving([&] { server->run(); });

  {
    Client client(port);
    ASSERT_TRUE(client.connected());

    // Each query type over one persistent framed connection; the served
    // bytes must equal an in-process handle() of the same request.
    for (const char* request :
         {R"({"op":"lookup","q":"10.0.0.9"})",
          R"({"op":"equiv","a":"10.0.0.1","b":"10.1.0.1","snapshot":0})",
          R"({"op":"history","q":"10.2.0.9"})", R"({"op":"stats"})",
          R"({"op":"frobnicate"})"}) {
      const Value served = client.ask(request);
      EXPECT_EQ(served.serialize(), Value::parse(state.handle(request).body)
                                        .serialize())
          << request;
    }

    // The /metrics HTTP surface shares the port and emits a valid
    // bgpatoms-trace/1 document.
    Client http(port);
    ASSERT_TRUE(http.connected());
    http.send_raw("GET /metrics HTTP/1.0\r\n\r\n");
    const std::string response = http.drain();
    ASSERT_NE(response.find("200 OK"), std::string::npos);
    const auto body_at = response.find("\r\n\r\n");
    ASSERT_NE(body_at, std::string::npos);
    const auto doc = Value::parse(response.substr(body_at + 4));
    EXPECT_EQ(report::validate_trace(doc), "");
    const Value* counters = doc.find("counters");
    ASSERT_NE(counters, nullptr);
    ASSERT_NE(counters->find("serve.requests"), nullptr);
    EXPECT_GE(counters->find("serve.requests")->as_uint64(), 5u);

    // The first framed connection is still usable after the HTTP one.
    EXPECT_TRUE(ok(client.ask(R"({"op":"stats"})")));

    // Shutdown is acknowledged before the server stops.
    const Value bye = client.ask(R"({"op":"shutdown"})");
    EXPECT_TRUE(ok(bye));
  }
  serving.join();  // run() returns: clean shutdown

  // Once the server is destroyed the listening socket is gone: new
  // connections are refused. (While the object lives the kernel still
  // queues connects on the open listen fd, so the check is post-dtor.)
  server.reset();
  Client late(port);
  EXPECT_FALSE(late.connected());
}

TEST(Server, OversizedFrameDropsTheConnectionOnly) {
  const ServeState state = make_state();
  ServerOptions options;
  options.threads = 2;
  options.poll_interval_ms = 50;
  options.max_frame = 64;
  Server server(state, options);
  std::thread serving([&] { server.run(); });

  {
    Client big(server.port());
    ASSERT_TRUE(big.connected());
    // Header announces a frame beyond max_frame: the server must drop
    // the connection without reading the payload.
    big.send_raw(std::string("\xff\xff\x00\x00", 4));
    EXPECT_EQ(big.drain(), "");

    Client fine(server.port());
    ASSERT_TRUE(fine.connected());
    EXPECT_TRUE(ok(fine.ask(R"({"op":"stats"})")));
    EXPECT_TRUE(ok(fine.ask(R"({"op":"shutdown"})")));
  }
  serving.join();
}

TEST(Server, SlowReadersDoNotStarveOtherClients) {
  // A client that queues requests and never reads the replies leaves its
  // worker blocked in send() once the socket buffers fill. With one such
  // client per worker, a third client is answered only if a stalled send
  // times out and drops its connection.
  const ServeState state = make_state();
  ServerOptions options;
  options.threads = 2;
  options.poll_interval_ms = 50;
  Server server(state, options);
  std::thread serving([&] { server.run(); });

  std::string requests;
  for (int i = 0; i < 64; ++i) {
    requests += frame(R"({"op":"history","q":"10.2.0.9"})");
  }
  std::vector<std::unique_ptr<Client>> slow;
  for (int i = 0; i < options.threads; ++i) {
    // 4 KB buffers: the stall comes after a few kilobytes.
    slow.push_back(std::make_unique<Client>(server.port(), 4096));
    ASSERT_TRUE(slow.back()->connected());
    slow.back()->flood(requests);
  }

  Client third(server.port());
  ASSERT_TRUE(third.connected());
  third.send_raw(frame(R"({"op":"stats"})"));
  EXPECT_TRUE(third.readable_within(5000))
      << "no reply in 5 s: the slow readers hold every worker";

  slow.clear();  // frees any worker still blocked on a slow reader
  EXPECT_TRUE(ok(third.read_reply()));
  EXPECT_TRUE(ok(third.ask(R"({"op":"shutdown"})")));
  serving.join();
}

}  // namespace
}  // namespace bgpatoms::query
