// serve: the read path users query. Set-up freezes the four captures of
// the 2024 campaign into query::AtomIndex snapshots, stacks them in a
// Timeline and starts query::Server with two workers on a loopback
// ephemeral port; each operation is one framed request on one of two
// persistent client connections, each waiting for its reply before
// sending the next (closed loop). Only the query layer is timed.
//
// The request path runs on two CPUs: the server's threads may use both,
// and each client thread is pinned to one of them, so that a connection's
// client and the worker serving it take turns on one CPU. A closed-loop
// hand-off then switches threads on a busy CPU. Left to float, the
// threads land on separate CPUs that halt between hand-offs, and on a
// shared host waking a halted virtual CPU takes as long as the host's
// load makes it: in one stretch of heavy steal the same 200,000 requests
// took 2.7 times as long, most of it with no thread running.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <barrier>
#include <cerrno>
#include <functional>
#include <random>
#include <stdexcept>
#include <thread>

#include "bgp/views.h"
#include "core/atoms.h"
#include "core/sanitize.h"
#include "query/server.h"
#include "routing/simulator.h"
#include "workloads.h"

namespace perfbench {

using namespace bgpatoms;
using report::json::Object;
using report::json::Value;

namespace {

/// Known-answer digest of every reply to the plan at kDefaultSeed.
constexpr std::uint64_t kDefaultSeedDigest = 0xfc2f2e81df8280e1;

constexpr int kSetupRepeats = 3;
constexpr int kConnections = 2;
/// Distinct requests in the plan. 5% are stats requests, so every op
/// type has at least 1000 samples and a p99 with ten samples beyond it.
constexpr std::size_t kPlanSize = 30'000;
/// Timed requests per requested second (fixed work per run).
constexpr std::size_t kRequestsPerSecond = 20'000;
/// Uncounted requests per connection before timing starts: the whole
/// plan once, so that timing starts on a server that has already served
/// every request of the plan.
constexpr std::size_t kWarmupPerConnection = kPlanSize / kConnections;
/// Every this-many-th lookup is re-derived by the linear-scan oracle.
constexpr std::size_t kOracleStride = 25;

const char* const kKinds[] = {"lookup", "equiv", "history", "stats"};

struct Plan {
  std::vector<std::string> requests;
  std::vector<std::string> framed;
  std::vector<int> kind;  // index into kKinds
  /// Lookup requests the oracle re-derives, with their parsed query.
  std::vector<std::pair<std::size_t, net::Prefix>> probes;
};

/// perf_serve's seeded mix over the newest snapshot's stored prefixes:
/// 70% lookup (60% stored prefix, 30% bare address, 10% class-E miss),
/// 15% equiv, 10% history, 5% stats.
Plan make_plan(const query::AtomIndex& latest, std::uint64_t seed) {
  Plan plan;
  std::mt19937_64 rng(seed);
  const auto rows = static_cast<std::uint32_t>(latest.prefix_count());
  auto prefix_str = [&](std::uint32_t row) {
    return latest.prefix_at(row).to_string();
  };
  std::size_t lookups = 0;
  for (std::size_t i = 0; i < kPlanSize; ++i) {
    const std::uint64_t dice = rng() % 100;
    Object req;
    int kind;
    if (dice < 70) {
      kind = 0;
      const auto row = static_cast<std::uint32_t>(rng() % rows);
      const std::uint64_t form = rng() % 10;
      std::string q;
      if (form < 6) {
        q = prefix_str(row);
      } else if (form < 9) {
        q = latest.prefix_at(row).address().to_string();
      } else {
        // The simulator never allocates class-E space: a sure miss.
        q = "240." + std::to_string(rng() % 256) + "." +
            std::to_string(rng() % 256) + ".1";
      }
      if (lookups++ % kOracleStride == 0) {
        plan.probes.emplace_back(i, *net::parse_prefix(q));
      }
      req = {{"op", "lookup"}, {"q", q}};
    } else if (dice < 85) {
      kind = 1;
      const auto a = static_cast<std::uint32_t>(rng() % rows);
      const auto b = static_cast<std::uint32_t>(rng() % rows);
      req = {{"op", "equiv"}, {"a", prefix_str(a)}, {"b", prefix_str(b)}};
    } else if (dice < 95) {
      kind = 2;
      const auto row = static_cast<std::uint32_t>(rng() % rows);
      req = {{"op", "history"}, {"q", prefix_str(row)}};
    } else {
      kind = 3;
      req = {{"op", "stats"}};
    }
    plan.requests.push_back(Value(std::move(req)).serialize());
    plan.framed.push_back(query::frame(plan.requests.back()));
    plan.kind.push_back(kind);
  }
  return plan;
}

/// The request path's CPUs, one per connection: the first kConnections
/// CPUs this process may run on (fewer on a smaller host).
std::vector<int> request_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    throw std::runtime_error("sched_getaffinity() failed");
  }
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE && cpus.size() < std::size_t{kConnections};
       ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  if (cpus.empty()) {
    throw std::runtime_error("no CPU to run the request path on");
  }
  return cpus;
}

/// Confines the calling thread to `cpus`; false if the kernel refuses.
bool pin_calling_thread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  return ::sched_setaffinity(0, sizeof set, &set) == 0;
}

/// Confines the calling thread to `cpus` while it lives. A thread started
/// meanwhile keeps that mask for good: threads inherit their creator's.
class PinScope {
 public:
  explicit PinScope(const std::vector<int>& cpus) {
    if (::sched_getaffinity(0, sizeof saved_, &saved_) != 0 ||
        !pin_calling_thread(cpus)) {
      throw std::runtime_error(
          "cannot pin the server to the request path's CPUs");
    }
  }
  ~PinScope() { ::sched_setaffinity(0, sizeof saved_, &saved_); }
  PinScope(const PinScope&) = delete;
  PinScope& operator=(const PinScope&) = delete;

 private:
  cpu_set_t saved_{};
};

/// One persistent framed connection to the server.
class Client {
 public:
  explicit Client(int port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      throw std::runtime_error("connect() to the server failed");
    }
  }
  ~Client() { ::close(fd_); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends one framed request and reads the whole reply payload; false
  /// on any transport error.
  bool call(std::string_view framed, std::string& reply) {
    for (std::size_t sent = 0; sent < framed.size();) {
      const ssize_t n = ::send(fd_, framed.data() + sent, framed.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0 && errno != EINTR) return false;
      if (n > 0) sent += static_cast<std::size_t>(n);
    }
    unsigned char head[4];
    if (!read_exact(head, 4)) return false;
    reply.resize(head[0] | head[1] << 8 | head[2] << 16 |
                 static_cast<std::size_t>(head[3]) << 24);
    return read_exact(reply.data(), reply.size());
  }

 private:
  bool read_exact(void* buf, std::size_t n) {
    auto* p = static_cast<char*>(buf);
    while (n > 0) {
      const ssize_t got = ::recv(fd_, p, n, 0);
      if (got <= 0) {
        if (got < 0 && errno == EINTR) continue;
        return false;
      }
      p += got;
      n -= static_cast<std::size_t>(got);
    }
    return true;
  }

  int fd_;
};

/// A running server over the frozen timeline, plus the newest snapshot's
/// (stored prefix, compute_atoms atom id) rows for the oracle.
struct Fixture {
  std::vector<int> cpus = request_cpus();
  std::unique_ptr<query::ServeState> state;
  std::unique_ptr<query::Server> server;
  std::thread loop;
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<std::pair<net::Prefix, std::uint32_t>> oracle_rows;

  ~Fixture() {
    clients.clear();  // EOF lets each worker drop its connection at once
    if (server) {
      server->stop();
      loop.join();
    }
  }
};

std::unique_ptr<Fixture> build_fixture(std::uint64_t seed, Recorder& rec,
                                       Outcome& out, std::uint64_t op) {
  auto& counts = out.counts;
  auto fx = std::make_unique<Fixture>();
  Scope setup(rec, "bench.serve.setup", op);
  auto sim = simulate_campaign(seed, /*with_updates=*/false, rec, counts);
  const bgp::Dataset& ds = sim->dataset();
  bgp::DatasetView view(ds);
  core::AtomOptions options;
  options.threads = kThreads;
  query::Timeline timeline;
  for (std::size_t i = 0; i < ds.snapshots.size(); ++i) {
    core::SanitizedSnapshot san;
    {
      Scope s(rec, "core.sanitize");
      san = core::sanitize(view, ds.snapshots[i]);
    }
    count(counts, "core.sanitize.records",
          static_cast<double>(bgp::Dataset::record_count(ds.snapshots[i])));
    double kept = 0;
    for (const auto& vp : san.vps) kept += static_cast<double>(vp.routes.size());
    count(counts, "core.sanitize.kept", kept);
    count(counts, "core.atoms.cells",
          static_cast<double>(san.prefixes.size() * san.vps.size()));
    core::AtomSet atoms;
    {
      Scope s(rec, "core.compute_atoms");
      atoms = core::compute_atoms(san, options);
    }
    if (i + 1 == ds.snapshots.size()) {
      fx->oracle_rows.reserve(san.prefixes.size());
      for (const bgp::PrefixId id : san.prefixes) {
        fx->oracle_rows.emplace_back(san.prefix(id), atoms.atom_of.at(id));
      }
    }
    std::shared_ptr<query::AtomIndex> index;
    {
      Scope s(rec, "query.index_build");
      index = std::make_shared<query::AtomIndex>(query::AtomIndex::build(atoms));
    }
    count(counts, "query.index_rows", static_cast<double>(index->prefix_count()));
    {
      Scope s(rec, "query.timeline_add");
      timeline.add("snap" + std::to_string(i), std::move(index));
    }
    Scope s(rec, "core.release");
    atoms = {};
    san = {};
  }
  {
    Scope s(rec, "routing.release");
    sim.reset();
  }
  {
    Scope s(rec, "query.state_init");
    fx->state = std::make_unique<query::ServeState>(std::move(timeline));
  }
  {
    Scope s(rec, "query.server_start");
    query::ServerOptions server_options;
    server_options.threads = kThreads;
    // run() starts the server's pool on the loop thread: all of them
    // inherit the request path's CPUs. Pinned before the server exists,
    // so that a refusal leaves no server to stop.
    PinScope pin(fx->cpus);
    fx->server = std::make_unique<query::Server>(*fx->state, server_options);
    fx->loop = std::thread([server = fx->server.get()] { server->run(); });
  }
  Scope s(rec, "query.client_connect");
  for (int c = 0; c < kConnections; ++c) {
    fx->clients.push_back(std::make_unique<Client>(fx->server->port()));
  }
  return fx;
}

/// The boolean value of the first `"key":` in a serialized reply (the
/// reply's own top-level field for "ok" and a lookup's "found").
bool bool_field(std::string_view reply, std::string_view key) {
  const std::string quoted = "\"" + std::string(key) + "\"";
  std::size_t at = reply.find(quoted);
  if (at == std::string_view::npos) return false;
  at = reply.find_first_not_of(" \n\t:", at + quoted.size());
  return at != std::string_view::npos && reply.compare(at, 4, "true") == 0;
}

bool is_error_reply(std::string_view reply) { return !bool_field(reply, "ok"); }

/// One reply as seen by a client.
struct Sample {
  std::size_t request = 0;  // plan index
  double latency_ns = 0;
  std::size_t hash = 0;     // std::hash of the reply bytes
  std::size_t bytes = 0;
  bool transport_ok = false;
  bool ok_reply = false;
};

/// Samples and per-batch wall/CPU seconds of one socket run.
struct SocketRun {
  std::vector<Sample> samples;
  std::vector<double> batch_wall_s;
  std::vector<double> batch_cpu_s;
};

/// Runs `batches` batches of `per_batch` requests on every connection
/// concurrently (connection c sends plan entries c, c + kConnections, ...,
/// from a thread pinned to the request path's CPU c),
/// after `warmup` uncounted requests each. The connections start each
/// batch together, and a batch ends when both have finished it.
SocketRun socket_run(Fixture& fx, const Plan& plan, std::size_t warmup,
                     std::size_t batches, std::size_t per_batch) {
  std::vector<std::vector<Sample>> per(kConnections);
  std::barrier sync(kConnections + 1);
  std::vector<std::thread> threads;
  std::atomic<bool> unpinned{false};
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      // On failure the run goes on, so that the barrier is met, and
      // throws once every thread is joined.
      if (!pin_calling_thread({fx.cpus[c % fx.cpus.size()]})) unpinned = true;
      Client& client = *fx.clients[c];
      std::string reply;
      std::size_t next = static_cast<std::size_t>(c);
      for (std::size_t j = 0; j < warmup; ++j, next += kConnections) {
        client.call(plan.framed[next % kPlanSize], reply);
      }
      sync.arrive_and_wait();  // warm-up end
      auto& out = per[c];
      out.reserve(batches * per_batch);
      for (std::size_t b = 0; b < batches; ++b) {
        sync.arrive_and_wait();  // batch start
        for (std::size_t j = 0; j < per_batch; ++j, next += kConnections) {
          Sample s;
          s.request = next % kPlanSize;
          const std::uint64_t t0 = obs::monotonic_ns();
          s.transport_ok = client.call(plan.framed[s.request], reply);
          s.latency_ns = static_cast<double>(obs::monotonic_ns() - t0);
          s.hash = std::hash<std::string_view>{}(reply);
          s.bytes = reply.size();
          s.ok_reply = s.transport_ok && !is_error_reply(reply);
          out.push_back(s);
        }
        sync.arrive_and_wait();  // batch end
      }
    });
  }
  SocketRun run;
  sync.arrive_and_wait();
  for (std::size_t b = 0; b < batches; ++b) {
    const double c0 = cpu_seconds();
    const std::uint64_t w0 = obs::monotonic_ns();
    sync.arrive_and_wait();
    sync.arrive_and_wait();
    run.batch_wall_s.push_back(static_cast<double>(obs::monotonic_ns() - w0) * 1e-9);
    run.batch_cpu_s.push_back(cpu_seconds() - c0);
  }
  for (auto& t : threads) t.join();
  if (unpinned) {
    throw std::runtime_error("cannot pin a client thread to its CPU");
  }
  for (auto& v : per) run.samples.insert(run.samples.end(), v.begin(), v.end());
  return run;
}

/// In-process replies to the whole plan: per-request hash and bytes, and
/// the digest of all reply bytes in plan order.
struct Expected {
  std::vector<std::size_t> hash;
  std::vector<std::size_t> bytes;
  std::uint64_t digest = 0;
};

Expected expected_replies(const query::ServeState& state, const Plan& plan) {
  Expected e;
  Digest d;
  for (const auto& request : plan.requests) {
    const std::string body = state.handle(request).body;
    e.hash.push_back(std::hash<std::string_view>{}(body));
    e.bytes.push_back(body.size());
    d.add(body);
  }
  e.digest = d.value();
  return e;
}

/// Counts the samples whose reply differs from the in-process one.
void check_samples(const std::vector<Sample>& samples, const Expected& want,
                   Outcome& out) {
  for (const Sample& s : samples) {
    const bool same = s.hash == want.hash[s.request] &&
                      s.bytes == want.bytes[s.request];
    out.op(s.ok_reply && same,
           "request " + std::to_string(s.request) +
               (!s.transport_ok ? ": transport error"
                : !s.ok_reply   ? ": ok:false reply"
                                : ": socket reply differs from handle()"));
  }
}

/// Re-derives sampled lookups by a linear longest-prefix scan over the
/// newest snapshot's stored prefixes.
void check_oracle(const Fixture& fx, const Plan& plan, Outcome& out) {
  for (const auto& [request, query] : plan.probes) {
    const std::pair<net::Prefix, std::uint32_t>* best = nullptr;
    for (const auto& row : fx.oracle_rows) {
      if (row.first.contains(query) &&
          (best == nullptr || row.first.length() > best->first.length())) {
        best = &row;
      }
    }
    const Value reply =
        Value::parse(fx.state->handle(plan.requests[request]).body);
    const Value* found = reply.find("found");
    bool agree = found != nullptr && found->as_bool() == (best != nullptr);
    if (agree && best != nullptr) {
      const Value* matched = reply.find("matched");
      const Value* atom = reply.find("atom");
      agree = matched != nullptr && atom != nullptr &&
              matched->as_string() == best->first.to_string() &&
              atom->as_uint64() == best->second;
    }
    if (!agree) {
      out.fail("lookup " + plan.requests[request] +
               " disagrees with the linear-scan oracle");
    }
  }
}

std::uint64_t plan_seed(std::uint64_t seed) { return seed * 7919 + 7701; }

report::json::Object inputs(const RunConfig& config) {
  const auto timed = static_cast<std::uint64_t>(config.seconds) * kRequestsPerSecond;
  return {{"campaign", "2024.75 IPv4 scale 0.01, topology seed 1, captures t0/+8h/+24h/+1w"},
          {"simulator_seed", config.seed},
          {"plan_seed", plan_seed(config.seed)},
          {"plan_requests", std::uint64_t{kPlanSize}},
          {"timed_requests", timed},
          {"connections", kConnections},
          {"server_threads", kThreads}};
}

}  // namespace

Outcome run_serve(const RunConfig& config) {
  Outcome out;
  out.inputs = inputs(config);
  Recorder off;
  std::vector<double> setup_s;
  std::unique_ptr<Fixture> fx;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    fx.reset();
    const std::uint64_t t0 = obs::monotonic_ns();
    fx = build_fixture(config.seed, off, out, 0);
    setup_s.push_back(static_cast<double>(obs::monotonic_ns() - t0) * 1e-9);
  }
  const Plan plan = make_plan(fx->state->timeline().latest(),
                              plan_seed(config.seed));
  // peak_rss_mb covers the requests on top of the resident indexes, not
  // the simulation and atom computation that built them.
  reset_peak_rss();
  // One batch per requested second; wall_s and cpu_s scale the median
  // batch to the whole phase, so that a transient stall of the machine
  // moves them no more than it moves one batch.
  const auto batches = static_cast<std::size_t>(config.seconds);
  const std::size_t per_batch = kRequestsPerSecond / kConnections;

  const SocketRun run =
      socket_run(*fx, plan, kWarmupPerConnection, batches, per_batch);
  const double wall = static_cast<double>(batches) * median(run.batch_wall_s);
  const double cpu = static_cast<double>(batches) * median(run.batch_cpu_s);

  const Expected want = expected_replies(*fx->state, plan);
  check_samples(run.samples, want, out);
  check_oracle(*fx, plan, out);
  if (config.seed == kDefaultSeed && want.digest != kDefaultSeedDigest) {
    out.fail("serve digest " + hex64(want.digest) + " != known answer " +
             hex64(kDefaultSeedDigest));
  }
  fx.reset();

  std::vector<double> latency;
  latency.reserve(run.samples.size());
  for (const Sample& s : run.samples) latency.push_back(s.latency_ns);
  const auto n = static_cast<std::uint64_t>(latency.size());
  const auto p99 = tail_quantile(latency, 0.99);
  if (!p99) out.fail("too few requests for a p99 with ten samples beyond");

  out.metrics.add("setup_s", median(setup_s), "s", setup_s.size());
  out.metrics.add("wall_s", wall, "s", batches);
  out.metrics.add("cpu_s", cpu, "s", batches);
  out.metrics.add("op_p50_us", median(latency) * 1e-3, "us", n);
  out.metrics.add("op_p99_us", p99.value_or(0) * 1e-3, "us", n);
  out.metrics.add("qps", static_cast<double>(n) / wall, "1/s", n);
  out.metrics.add("error_rate", out.ops.error_rate(), "ratio", out.ops.attempted);
  out.metrics.add("peak_rss_mb",
                  static_cast<double>(obs::sample_memory().peak_rss_bytes) / kMiB,
                  "MiB", 1);
  return out;
}

void trace_serve(const RunConfig& config, bool selected, Recorder& rec,
                 Outcome& out) {
  out.inputs.emplace_back("serve", inputs(config));
  // build_fixture's first span is the set-up.
  const auto setup_span = static_cast<std::int32_t>(rec.spans().size());
  auto fx = build_fixture(config.seed, rec, out, 10);
  const double coverage = rec.coverage(setup_span);
  if (coverage < 0.9) out.fail("serve set-up span coverage below 90%");

  const Plan plan = make_plan(fx->state->timeline().latest(),
                              plan_seed(config.seed));
  // The whole plan once over the sockets (untraced) ...
  const SocketRun sockets =
      socket_run(*fx, plan, 0, 1, kPlanSize / kConnections);
  std::vector<double> socket_ns(kPlanSize);
  std::vector<std::size_t> socket_hash(kPlanSize);
  double server_errors = 0;
  for (const Sample& s : sockets.samples) {
    socket_ns[s.request] = s.latency_ns;
    socket_hash[s.request] = s.hash;
    server_errors += s.ok_reply ? 0 : 1;
  }
  // ... then in process: untraced before and after the traced replay (so
  // that warm-up does not bias the overhead) and traced with one span per
  // request. Every pass does the same work per reply.
  struct Pass {
    double wall_s = 0;
    std::vector<double> ns;
    std::vector<std::size_t> hash;
    std::vector<char> ok;
    double bytes = 0, found = 0;
    Digest digest;
  };
  std::vector<std::string> names;
  for (const char* kind : kKinds) names.push_back(std::string("query.handle.") + kind);
  Recorder off;
  auto replay = [&](Recorder& r) {
    Pass p;
    const std::uint64_t w0 = obs::monotonic_ns();
    for (std::size_t i = 0; i < kPlanSize; ++i) {
      const std::uint64_t t0 = obs::monotonic_ns();
      std::string body;
      {
        Scope s(r, names[plan.kind[i]], 100 + i);
        body = fx->state->handle(plan.requests[i]).body;
      }
      p.ns.push_back(static_cast<double>(obs::monotonic_ns() - t0));
      p.hash.push_back(std::hash<std::string_view>{}(body));
      p.ok.push_back(!is_error_reply(body));
      p.bytes += static_cast<double>(body.size());
      if (plan.kind[i] == 0) p.found += bool_field(body, "found") ? 1 : 0;
      p.digest.add(body);
    }
    p.wall_s = static_cast<double>(obs::monotonic_ns() - w0) * 1e-9;
    return p;
  };
  const Pass before = replay(off);
  const std::size_t first = rec.spans().size() + 1;
  Pass traced;
  std::int32_t replay_span;
  {
    Scope s(rec, "bench.serve.replay", 11);
    replay_span = s.id();
    traced = replay(rec);
  }
  const Pass after = replay(off);
  const double untraced_s = (before.wall_s + after.wall_s) / 2;

  std::vector<std::vector<double>> by_kind(std::size(kKinds));
  for (std::size_t i = first; i < rec.spans().size(); ++i) {
    const auto& span = rec.spans()[i];
    by_kind[plan.kind[span.op - 100]].push_back(
        static_cast<double>(span.end_ns - span.start_ns));
  }
  double lookups = 0;
  for (std::size_t i = 0; i < kPlanSize; ++i) {
    lookups += plan.kind[i] == 0 ? 1 : 0;
    const bool same = traced.ok[i] && traced.hash[i] == socket_hash[i];
    out.op(same, same ? std::string()
                      : "request " + std::to_string(i) +
                            ": replayed reply differs from the socket reply");
  }
  check_oracle(*fx, plan, out);
  if (config.seed == kDefaultSeed && traced.digest.value() != kDefaultSeedDigest) {
    out.fail("serve digest " + hex64(traced.digest.value()) +
             " != known answer " + hex64(kDefaultSeedDigest));
  }
  fx.reset();

  const auto totals = rec.totals_by_name();
  auto& m = out.metrics;
  m.add("query.index_build_s", totals.at("query.index_build").self_ns * 1e-9,
        "s", totals.at("query.index_build").count);
  m.add("query.index_rows", out.counts["query.index_rows"], "count", 1);
  for (std::size_t k = 0; k < std::size(kKinds); ++k) {
    const std::string name = std::string("query.") + kKinds[k];
    const auto n = static_cast<std::uint64_t>(by_kind[k].size());
    const auto p99 = tail_quantile(by_kind[k], 0.99);
    if (!p99) out.fail(name + ": too few samples for p99");
    m.add(name + ".p50_us", median(by_kind[k]) * 1e-3, "us", n);
    m.add(name + ".p99_us", p99.value_or(0) * 1e-3, "us", n);
  }
  m.add("query.reply_bytes", traced.bytes / kPlanSize, "bytes", kPlanSize);
  m.add("query.lookup.hit_share", traced.found / lookups, "ratio",
        static_cast<std::uint64_t>(lookups));
  std::vector<double> overhead;
  for (std::size_t i = 0; i < kPlanSize; ++i) {
    overhead.push_back(socket_ns[i] - before.ns[i]);
  }
  m.add("query.server.overhead_us", median(overhead) * 1e-3, "us", kPlanSize);
  m.add("query.server.errors", server_errors, "count", kPlanSize);
  m.add("trace.serve_setup.coverage", coverage, "ratio", 1);
  if (selected) {
    m.add("trace.overhead_s",
          static_cast<double>(rec.duration_ns(replay_span)) * 1e-9 - untraced_s,
          "s", 1);
  }
}

}  // namespace perfbench
