// The server workloads: an in-process spmvoptd (SpmvServer behind a
// SocketServer) driven by closed-loop clients, each a server::Client on its
// own connection and thread.  Latency is taken around each Client call;
// the traced run then replays requests straight into SpmvServer::handle and
// the codec, and times the tenants' operators directly, to split that
// latency by layer.
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <deque>
#include <latch>
#include <memory>
#include <stdexcept>
#include <thread>

#include "classify/feature_classifier.hpp"
#include "engine/execution_engine.hpp"
#include "engine/steal_pool.hpp"
#include "gen/generators.hpp"
#include "optimize/optimized_spmv.hpp"
#include "optimize/plan.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "stats.hpp"
#include "support/fingerprint.hpp"
#include "support/timing.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace spmvopt::e2e {

namespace {

using Clock = std::chrono::steady_clock;
using report::Json;

constexpr int kSetupReps = 9;
/// A measured phase stops sending after this long even if requests remain,
/// so a run on a host several times slower than the reference still ends
/// within the time a benchmark run may take.  At the reference speed it
/// never triggers.
constexpr std::chrono::seconds kCutoff{100};

/// Closed-loop clients and executor threads of each server workload; every
/// other ServerConfig field keeps its default.
struct Shape {
  int clients;
  int executors;
};
Shape shape(Workload w) {
  return w == Workload::ServeHot ? Shape{4, 2} : Shape{2, 1};
}

/// Requests each client sends, sized so that a run takes about `seconds` on
/// the reference host at the commit that defined the benchmark (these are
/// its per-client request rates there).  The count does not depend on how
/// fast the code under test is, so every build is measured on the same
/// requests; on serve-churn that also keeps how far the cache fills and
/// evicts the same.
std::uint64_t requests_per_client(Workload w, double seconds) {
  const double rate = w == Workload::ServeHot ? 480.0 : 140.0;
  return static_cast<std::uint64_t>(std::ceil(rate * seconds));
}

/// Span names of one verb, client side and replay side.
struct VerbSpans {
  const char* client;
  const char* handle;
  const char* encode_request;
  const char* decode_request;
  const char* encode_reply;
  const char* decode_reply;
};
constexpr VerbSpans kSpans[] = {
    {"client.run", "server.handle.run", "protocol.encode_request.run",
     "protocol.decode_request.run", "protocol.encode_reply.run",
     "protocol.decode_reply.run"},
    {"client.run_many", "server.handle.run_many",
     "protocol.encode_request.run_many", "protocol.decode_request.run_many",
     "protocol.encode_reply.run_many", "protocol.decode_reply.run_many"},
    {"client.submit", "server.handle.submit", "protocol.encode_request.submit",
     "protocol.decode_request.submit", "protocol.encode_reply.submit",
     "protocol.decode_reply.submit"},
};
const VerbSpans& spans_of(Verb v) { return kSpans[static_cast<int>(v)]; }

template <class T>
T take(Expected<T> e, const char* what) {
  if (!e.ok())
    throw std::runtime_error(std::string(what) + ": " + e.error().to_string());
  return std::move(e.value());
}

/// One in-process spmvoptd; the transport is declared last so it stops
/// before the core it serves is destroyed.
struct Daemon {
  std::unique_ptr<server::SpmvServer> core;
  std::unique_ptr<server::SocketServer> sock;

  void stop() {
    sock.reset();
    core.reset();
  }
};

/// A matrix a client may run on, with its identity and reference.
struct Resident {
  std::shared_ptr<const CsrMatrix> A;
  Fingerprint fp;
  std::shared_ptr<const Oracle> oracle;
};

Resident make_resident(CsrMatrix A, std::uint64_t seed) {
  Resident m;
  auto owned = std::make_shared<const CsrMatrix>(std::move(A));
  m.fp = fingerprint_of(*owned);
  m.oracle = std::make_shared<const Oracle>(
      *owned, gen::test_vector(owned->ncols(), derive_seed(seed, 7)));
  m.A = std::move(owned);
  return m;
}

/// What one closed-loop client saw.
struct ClientLog {
  std::array<std::vector<double>, 3> latency;  ///< seconds, by Verb
  std::array<std::uint64_t, 4> states{};       ///< submits by CacheState
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string error;

  void count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Shared, read-only state of the measured phase.
struct Phase {
  Workload w;
  std::uint64_t seed;
  bool smoke;
  std::string path;
  std::vector<Resident> tenants;
  std::vector<std::vector<Oracle>> run_oracles;   ///< serve-hot, [tenant][k]
  std::vector<std::vector<Oracle>> many_oracles;  ///< serve-hot, nrhs = 8
  std::uint64_t requests = 0;                      ///< per client
  Clock::time_point cutoff;
};

/// Time one Client call under its verb's span; returns whether it was
/// checked correct.
template <class F>
bool timed_call(ClientLog& log, Verb v, std::uint64_t id, F&& call) {
  const Timer t;
  bool ok = false;
  {
    trace::Span span(spans_of(v).client, id);
    ok = call();
  }
  log.latency[static_cast<int>(v)].push_back(t.elapsed_sec());
  log.count(ok);
  return ok;
}

void hot_client(const Phase& ph, int c, server::Client& client, ClientLog& log) {
  RequestStream stream(ph.w, ph.seed, c);
  const std::size_t n = ph.tenants.size();
  for (std::uint64_t i = 1; i <= ph.requests && Clock::now() < ph.cutoff; ++i) {
    const Op op = stream.next();
    const std::size_t t = op.slot % n;
    const std::uint64_t id = (static_cast<std::uint64_t>(c) + 1) << 40 | i;
    if (op.verb == Verb::Run) {
      const Oracle& o = ph.run_oracles[t][op.operand];
      timed_call(log, op.verb, id, [&] {
        auto y = client.run(ph.tenants[t].fp, o.x);
        return y.ok() && o.check(y.value(), kTolF64);
      });
    } else {
      const Oracle& o = ph.many_oracles[t][op.operand];
      timed_call(log, op.verb, id, [&] {
        auto y = client.run_many(ph.tenants[t].fp, o.x, kNrhs, op.dtype);
        return y.ok() && o.check(y.value(), op.dtype == Dtype::F32 ? kTolF32 : kTolF64);
      });
    }
  }
}

void churn_client(const Phase& ph, int c, server::Client& client, ClientLog& log) {
  RequestStream stream(ph.w, ph.seed, c);
  std::deque<Resident> recent(ph.tenants.begin(), ph.tenants.end());
  for (std::uint64_t i = 1; i <= ph.requests && Clock::now() < ph.cutoff; ++i) {
    const Op op = stream.next();
    const std::uint64_t id = (static_cast<std::uint64_t>(c) + 1) << 40 | i;
    if (op.verb == Verb::Run) {
      const Resident& m = recent[op.slot % recent.size()];
      timed_call(log, op.verb, id, [&] {
        auto y = client.run(m.fp, m.oracle->x);
        return y.ok() && m.oracle->check(y.value(), kTolF64);
      });
      continue;
    }
    // Inputs of warm and cold submits are made before the timed call.
    Resident m;
    if (op.kind == SubmitKind::Hot)
      m = recent[op.slot % recent.size()];
    else if (op.kind == SubmitKind::Warm)
      m = make_resident(with_new_values(*ph.tenants[op.slot % ph.tenants.size()].A, op.seed),
                        op.seed);
    else
      m = make_resident(cold_matrix(op.seed, ph.smoke), op.seed);
    const bool ok = timed_call(log, op.verb, id, [&] {
      auto reply = client.submit(*m.A);
      if (!reply.ok()) return false;
      ++log.states[static_cast<int>(reply.value().state)];
      return reply.value().fp == m.fp;
    });
    if (ok && op.kind != SubmitKind::Hot) {
      recent.push_front(std::move(m));
      if (recent.size() > 4) recent.pop_back();
    }
  }
}

double member(const Json& doc, std::initializer_list<const char*> path) {
  const Json* j = &doc;
  for (const char* key : path) {
    j = j->find(key);
    if (j == nullptr) throw std::runtime_error(std::string("stats: no member ") + key);
  }
  if (!j->is_number()) throw std::runtime_error("stats: member is not a number");
  return j->as_number();
}

Json stats_of(server::Client& ctl) {
  return take(Json::parse(take(ctl.stats_json(), "stats")), "stats json");
}

/// Run `f` `reps` times under span `name`; median seconds of one call.
template <class F>
double timed_median(int reps, const char* name, F&& f) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    trace::Span span(name);
    const Timer t;
    f();
    s.push_back(t.elapsed_sec());
  }
  return median_of(s);
}

/// Traced run: each verb's requests through the codec and straight into
/// SpmvServer::handle, the server path without the socket and queue.
void replay_verb(Result& r, const Phase& ph, server::SpmvServer& core, Verb v,
                 int count) {
  const VerbSpans& sp = spans_of(v);
  double request_bytes = 0.0, reply_bytes = 0.0;
  int done = 0;
  const Timer budget;
  for (int i = 0; i < count && budget.elapsed_sec() < 3.0; ++i, ++done) {
    const std::size_t t = static_cast<std::size_t>(i) % ph.tenants.size();
    const Resident& m = ph.tenants[t];
    const Oracle* o = nullptr;
    double tol = kTolF64;
    server::Request req;
    if (v == Verb::Run) {
      o = ph.w == Workload::ServeHot ? &ph.run_oracles[t][0] : m.oracle.get();
      req = server::RunRequest{m.fp, o->x};
    } else if (v == Verb::RunMany) {
      o = &ph.many_oracles[t][0];
      const Dtype dtype = i % 2 == 0 ? Dtype::F64 : Dtype::F32;
      if (dtype == Dtype::F32) tol = kTolF32;
      req = server::RunManyRequest{m.fp, kNrhs, dtype, o->x};
    } else {
      req = server::SubmitRequest{*m.A};
    }
    const server::RequestHeader hdr{static_cast<std::uint64_t>(i) + 1, 0};
    const std::string payload = [&] {
      trace::Span s(sp.encode_request);
      return server::encode_request(req, hdr);
    }();
    auto env = [&] {
      trace::Span s(sp.decode_request);
      return server::decode_request(payload);
    }();
    if (!env.ok()) {
      r.count(false);
      continue;
    }
    const server::Reply reply = [&] {
      trace::Span s(sp.handle);
      return core.handle(std::move(env.value().request));
    }();
    const std::string out = [&] {
      trace::Span s(sp.encode_reply);
      return server::encode_reply(reply, hdr.request_id);
    }();
    const auto back = [&] {
      trace::Span s(sp.decode_reply);
      return server::decode_reply(out);
    }();
    request_bytes += static_cast<double>(payload.size() + 4);  // + frame length
    reply_bytes += static_cast<double>(out.size() + 4);
    bool ok = back.ok();
    if (ok && o != nullptr) {
      const auto* run = std::get_if<server::RunReply>(&back.value().reply);
      const auto* many = std::get_if<server::RunManyReply>(&back.value().reply);
      ok = run != nullptr ? o->check(run->y, tol)
                          : many != nullptr && o->check(many->Y, tol);
    } else if (ok) {
      const auto* sub = std::get_if<server::SubmitReply>(&back.value().reply);
      ok = sub != nullptr && sub->fp == m.fp;
    }
    r.count(ok);
  }
  const std::string verb = verb_name(v);
  const std::vector<trace::Record> recs = trace::collect();
  const auto [handle_us, n] = span_median(recs, sp.handle, 1e6);
  const double encode_us = span_median(recs, sp.encode_request, 1e6).first +
                           span_median(recs, sp.encode_reply, 1e6).first;
  const double decode_us = span_median(recs, sp.decode_request, 1e6).first +
                           span_median(recs, sp.decode_reply, 1e6).first;
  const auto [client_us, nc] = span_median(recs, sp.client, 1e6);
  r.set("server.handle_us." + verb, handle_us, n);
  r.set("protocol.encode_us." + verb, encode_us, n);
  r.set("protocol.decode_us." + verb, decode_us, n);
  r.set("protocol.request_bytes." + verb, request_bytes / done, n);
  r.set("protocol.reply_bytes." + verb, reply_bytes / done, n);
  r.set("server.transport_queue_us." + verb,
        client_us - handle_us - encode_us - decode_us, nc);
}

/// Traced run: the tenants' own layers timed directly — fingerprint,
/// classification, conversion and the kernels under the plan the server
/// reported, on an engine configured like the server's.
void tenant_layers(Result& r, const Phase& ph, const std::vector<std::string>& plans) {
  std::unique_ptr<engine::StealPool> pool;
  if (shape(ph.w).executors > 1)
    pool = std::make_unique<engine::StealPool>(engine::StealPoolConfig{});
  engine::ExecutionEngine eng(engine::EngineConfig{
      .pin = PinPolicy::None, .pin_main = false, .pool = pool.get()});
  const int reps = ph.smoke ? 5 : 25;
  const double n = static_cast<double>(ph.tenants.size());
  double fp_us = 0.0, classify_s = 0.0, create_s = 0.0, run_us = 0.0,
         many_us = 0.0, bytes = 0.0;
  std::vector<KernelSample> samples;
  std::vector<optimize::OptimizedSpmv> keep;  // KernelSample views stay valid
  keep.reserve(ph.tenants.size());
  Json detail = Json::object();
  for (std::size_t t = 0; t < ph.tenants.size(); ++t) {
    const CsrMatrix& A = *ph.tenants[t].A;
    const double fp = timed_median(reps, "fingerprint", [&] { (void)fingerprint_of(A); });
    classify::ClassSet classes;
    const double cl = timed_median(1, "classify.heuristic", [&] {
      classes = classify::heuristic_feature_classes(A);
    });
    const optimize::Plan plan = optimize::plan_for_classes(classes, A);
    const double cr = timed_median(1, "optimize.create", [&] {
      keep.push_back(optimize::OptimizedSpmv::create(A, plan, eng));
    });
    const optimize::OptimizedSpmv& spmv = keep.back();
    const std::vector<value_t> x = gen::test_vector(A.ncols(), 3);
    std::vector<value_t> y(static_cast<std::size_t>(A.nrows()) * kNrhs);
    const double run = timed_median(reps, "kernels.matvec", [&] { spmv.run(x.data(), y.data()); });
    double many = 0.0;
    if (ph.w == Workload::ServeHot) {
      const std::vector<value_t> X = gen::test_vector(A.ncols() * kNrhs, 4);
      many = timed_median(reps, "kernels.run_many",
                          [&] { spmv.run_many(X.data(), y.data(), kNrhs); });
    }
    fp_us += fp * 1e6 / n;
    classify_s += cl / n;
    create_s += cr / n;
    run_us += run * 1e6 / n;
    many_us += many * 1e6 / n;
    bytes += static_cast<double>(spmv.format_bytes());
    samples.push_back(KernelSample{&A, spmv.format_bytes(), run});
    Json one = Json::object();
    one.set("nnz", A.nnz())
        .set("plan", spmv.plan().to_string())
        .set("plan_matches_server", spmv.plan().to_string() == plans[t])
        .set("fingerprint_us", fp * 1e6)
        .set("run_us", run * 1e6)
        .set("run_many_us", many * 1e6);
    detail.set("t" + std::to_string(t), std::move(one));
  }
  const std::size_t nt = ph.tenants.size();
  r.set("fingerprint.us", fp_us, nt * static_cast<std::size_t>(reps));
  r.set("classify.heuristic_s", classify_s, nt);
  r.set("optimize.create_s", create_s, nt);
  r.set("optimize.format_bytes", bytes, nt);
  r.set("kernels.matvec_us", run_us, nt * static_cast<std::size_t>(reps));
  r.set("kernels.run_many_us", many_us,
        ph.w == Workload::ServeHot ? nt * static_cast<std::size_t>(reps) : 0);
  r.detail.set("tenant_layers", std::move(detail));
  set_kernel_bound_metrics(r, samples);
}

}  // namespace

Result run_serve(const RunOptions& opt) {
  Result r(opt.workload, opt.seed, opt.trace, opt.smoke, opt.seconds);
  const Shape sh = shape(opt.workload);
  Phase ph;
  ph.w = opt.workload;
  ph.seed = opt.seed;
  ph.smoke = opt.smoke;
  ph.requests = requests_per_client(opt.workload, opt.seconds);
  ph.path = opt.work_dir + "/spmvopt_bench-" + std::to_string(::getpid()) + ".sock";
  std::vector<std::string> names;
  for (Tenant& t : tenants(opt.workload, opt.seed, opt.smoke)) {
    names.push_back(t.name);
    ph.tenants.push_back(make_resident(std::move(t.matrix), derive_seed(opt.seed, 20 + names.size())));
  }

  // Set-up: a fresh server, a connection, and a cold submit of every tenant.
  server::ServerConfig cfg;
  cfg.executors = sh.executors;
  Daemon d;
  std::vector<double> setup;
  std::vector<std::string> plans(ph.tenants.size());
  for (int rep = 0; rep < kSetupReps; ++rep) {
    d.stop();
    trace::Span span("setup", static_cast<std::uint64_t>(rep + 1));
    const Timer t;
    d.core = std::make_unique<server::SpmvServer>(cfg);
    d.sock = std::make_unique<server::SocketServer>(*d.core, ph.path);
    take(d.sock->start(), "server start");
    server::Client client = take(server::Client::connect(ph.path), "connect");
    for (std::size_t i = 0; i < ph.tenants.size(); ++i) {
      trace::Span s("setup.submit");
      auto reply = client.submit(*ph.tenants[i].A);
      const bool ok = reply.ok() && reply.value().fp == ph.tenants[i].fp &&
                      reply.value().state == server::CacheState::Miss;
      r.count(ok);
      if (ok) plans[i] = reply.value().plan;
    }
    setup.push_back(t.elapsed_sec());
  }

  if (ph.w == Workload::ServeHot) {
    ph.run_oracles.resize(ph.tenants.size());
    ph.many_oracles.resize(ph.tenants.size());
    for (std::size_t t = 0; t < ph.tenants.size(); ++t) {
      const CsrMatrix& A = *ph.tenants[t].A;
      for (int k = 0; k < kOperandsPerTenant; ++k) {
        const int ti = static_cast<int>(t);
        ph.run_oracles[t].emplace_back(A, operand(opt.seed, ti, k, A.ncols(), 1));
        ph.many_oracles[t].emplace_back(A, operand(opt.seed, ti, k, A.ncols(), kNrhs), kNrhs);
      }
    }
  }

  // The measured phase: every client connected, then all released at once.
  server::Client ctl = take(server::Client::connect(ph.path), "connect");
  const Json before = stats_of(ctl);
  std::vector<ClientLog> logs(static_cast<std::size_t>(sh.clients));
  std::latch connected(sh.clients), go(1);
  std::vector<std::thread> threads;
  for (int c = 0; c < sh.clients; ++c)
    threads.emplace_back([&, c] {
      ClientLog& log = logs[static_cast<std::size_t>(c)];
      auto conn = server::Client::connect(ph.path);
      if (!conn.ok()) log.error = conn.error().to_string();
      try {
        trace::prepare_thread();
      } catch (const std::exception& e) {
        log.error = e.what();
      }
      connected.count_down();  // even on failure, or the release never comes
      go.wait();
      if (!log.error.empty()) {
        log.count(false);
        return;
      }
      try {
        if (ph.w == Workload::ServeHot)
          hot_client(ph, c, conn.value(), log);
        else
          churn_client(ph, c, conn.value(), log);
      } catch (const std::exception& e) {
        log.error = e.what();
        log.count(false);
      }
    });
  connected.wait();
  const Timer wall;
  ph.cutoff = Clock::now() + kCutoff;
  go.count_down();
  for (std::thread& t : threads) t.join();
  const double elapsed = wall.elapsed_sec();
  const Json after = stats_of(ctl);

  ClientLog all;
  for (const ClientLog& log : logs) {
    for (int v = 0; v < 3; ++v)
      all.latency[v].insert(all.latency[v].end(), log.latency[v].begin(),
                            log.latency[v].end());
    for (int s = 0; s < 4; ++s) all.states[s] += log.states[s];
    all.attempted += log.attempted;
    all.failed += log.failed;
    if (!log.error.empty()) r.detail.set("client_error", log.error);
  }
  r.attempted += all.attempted;
  r.failed += all.failed;

  const Verb primary = ph.w == Workload::ServeHot ? Verb::Run : Verb::Submit;
  const auto& lat = all.latency;
  r.set("setup_s", median_of(setup), setup.size());
  r.set("latency_p50_ms", median_of(lat[static_cast<int>(primary)]) * 1e3,
        lat[static_cast<int>(primary)].size());
  const double req_per_s = static_cast<double>(all.attempted) / elapsed;
  r.set("throughput_per_s", req_per_s, all.attempted);
  r.set("req_per_s", req_per_s, all.attempted);
  // On serve-hot four clients and the server's threads churn megabyte
  // run_many buffers through glibc's per-thread arenas, and how much of
  // that the arenas keep varies from run to run: the peak does not repeat
  // within 0.10 (IQR / median 0.06 for the server process alone, 0.11 with
  // the clients), so it is recorded, not gated.
  if (ph.w == Workload::ServeHot)
    r.detail.set("peak_rss_mb", peak_rss_mb());
  else
    r.set("peak_rss_mb", peak_rss_mb(), 1);
  for (Verb v : kVerbs) {
    const auto& s = lat[static_cast<int>(v)];
    const std::string name = verb_name(v);
    // A serve-churn run either waits behind a submit on the one executor or
    // does not, about half of them each way, so the median falls between
    // the two modes and jumps from run to run (IQR/median 0.2 to 0.4).  It
    // goes to the detail block, not gated; the p99 repeats and is.
    if (ph.w == Workload::ServeChurn && v == Verb::Run)
      r.detail.set("run_p50_ms", median_of(s) * 1e3);
    else
      r.set(name + "_p50_ms", median_of(s) * 1e3, s.size());
    const auto p99 = tail_percentile(s, 0.99);
    r.set(name + "_p99_ms", p99.value_or(0.0) * 1e3, p99 ? s.size() : 0);
  }

  const auto delta = [&](std::initializer_list<const char*> path) {
    return member(after, path) - member(before, path);
  };
  const double requests = delta({"requests"});
  const double per_request = requests > 0 ? 1.0 / requests : 0.0;
  r.set("server.busy_s", delta({"busy_seconds"}), 1);
  r.set("server.peak_concurrent", member(after, {"peak_concurrent"}), 1);
  r.set("server.errors", delta({"errors"}), 1);
  r.set("server.rejected_overload", delta({"rejected_overload"}), 1);
  r.set("server.shed_submits", delta({"shed_submits"}), 1);
  r.set("server.expired_in_queue", delta({"expired_in_queue"}), 1);
  r.set("cache.hot_hits", delta({"cache", "hot_hits"}), 1);
  r.set("cache.warm_hits", delta({"cache", "warm_hits"}), 1);
  r.set("cache.misses", delta({"cache", "misses"}), 1);
  r.set("cache.evictions", delta({"cache", "evictions"}), 1);
  r.set("cache.resident_mb", member(after, {"cache", "resident_bytes"}) / (1 << 20), 1);
  // The cache's hot_hits also count the lookups of run requests; the ratio
  // is over submits, from the tier each submit reply reported.
  const double submits = delta({"submits"});
  const auto client_submits = static_cast<double>(lat[static_cast<int>(Verb::Submit)].size());
  r.set("cache.hot_ratio",
        client_submits > 0 ? static_cast<double>(all.states[0]) / client_submits : 0.0,
        lat[static_cast<int>(Verb::Submit)].size());
  r.set("engine.dispatches", delta({"engine", "dispatches"}) * per_request,
        static_cast<std::size_t>(requests));
  r.set("engine.pool_tasks", delta({"pool", "tasks"}) * per_request,
        static_cast<std::size_t>(requests));
  r.set("engine.pool_steals", delta({"pool", "steals"}) * per_request,
        static_cast<std::size_t>(requests));
  r.set("engine.pool_parks", delta({"pool", "parks"}) * per_request,
        static_cast<std::size_t>(requests));

  Json states = Json::object();
  for (int s = 0; s < 4; ++s)
    states.set(server::cache_state_name(static_cast<server::CacheState>(s)),
               all.states[static_cast<std::size_t>(s)]);
  Json tenant_names = Json::array();
  for (const std::string& n : names) tenant_names.push(n);
  Json plan_list = Json::array();
  for (const std::string& p : plans) plan_list.push(p);
  r.detail.set("tenants", std::move(tenant_names))
      .set("plans", std::move(plan_list))
      .set("submit_states", std::move(states))
      .set("requests_per_client", ph.requests)
      .set("sent_all", all.attempted == ph.requests * static_cast<std::uint64_t>(sh.clients))
      .set("server_requests", requests)
      .set("server_submits", submits);

  if (opt.trace) {
    // serve-churn's traffic may have evicted the tenants the replay runs on.
    for (const Resident& t : ph.tenants) (void)d.core->handle(server::SubmitRequest{*t.A});
    const int replays = opt.smoke ? 20 : 1000;
    replay_verb(r, ph, *d.core, Verb::Run, replays);
    replay_verb(r, ph, *d.core,
                ph.w == Workload::ServeHot ? Verb::RunMany : Verb::Submit, replays);
    tenant_layers(r, ph, plans);
  }
  d.stop();
  return r;
}

}  // namespace spmvopt::e2e
