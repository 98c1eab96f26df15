// Workload `serve`: in-process server::GridServer instances on loopback
// (one network worker, the service thread, default spans and snapshotter),
// each driven open loop by one generator thread over one client::WireClient
// connection.
//
// The generator models independent devices. Arrivals are a Poisson process
// at the offered rate; each arrival is the next RPC of a device drawn at
// random from those not waiting on a reply: it reports the device's held
// assignment if there is one and otherwise requests work, so issues and
// reports alternate about 1:1. Every RPC is timed from its scheduled send
// time, so a stall also charges the requests it delayed.
//
// Traffic is cut into windows of about 2,000 RPCs (1,000 issues, so a p99
// has ten samples beyond it), and a latency metric is the median over
// windows of the per-window quantile: the host's own scheduling stalls land
// in a minority of windows instead of in every quantile. The fixed offered
// rates (50k, 100k, 200k RPC/s) run interleaved on one server; max_rps is
// the median of up to five ladder climbs, each on a fresh server.
//
// The end-to-end `work_s` comes from closed-loop bursts interleaved with
// the fixed rates: each burst is 1,024 RPCs of distinct devices pipelined
// over the connection at once, timed from the first send to the last
// reply, and `work_s` is the median burst. A burst keeps every thread busy
// for a millisecond or two, so unlike the open-loop latencies it does not
// hang on how fast the host wakes an idle thread.
#include <malloc.h>
#include <poll.h>
#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <ctime>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "client/wire.hpp"
#include "common.hpp"
#include "server/net.hpp"
#include "server/service.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace hcmd;
namespace proto = server::proto;

struct Device {
  std::uint64_t seq = 0;
  bool in_flight = false;
  bool report = false;   ///< the in-flight RPC is a report
  bool holding = false;  ///< holds an assignment to report
  std::uint64_t result_id = 0;
  double reference_seconds = 0.0;
  Clock::time_point sched;  ///< scheduled send time of the in-flight RPC
  Clock::time_point sent;   ///< actual send time
};

struct Tally {
  std::uint64_t sent = 0;
  std::uint64_t assignments = 0;
  std::uint64_t acks = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t no_work = 0;
  std::uint64_t busy = 0;
  std::uint64_t errors = 0;
  std::uint64_t lost = 0;     ///< no reply before the drain timeout
  std::uint64_t skipped = 0;  ///< arrivals while half the fleet was waiting
};

/// RPCs per latency window.
constexpr double kWindowRpcs = 2000.0;

/// All traffic offered at one rate: one or more blocks, each cut into
/// windows of about kWindowRpcs RPCs.
struct Step {
  double rate = 0.0;
  double seconds = 0.0;
  std::vector<std::vector<double>> issue_ms, report_ms;  ///< per window
  std::vector<double> late_us;
  std::vector<double> queue_wait_us, service_us, residual_us;  ///< traced
  std::uint64_t sent = 0;
  std::uint64_t lost = 0;
  std::size_t backlog_end = 0;  ///< worst in-flight count when a block ended
  double server_cpu_s = 0.0;    ///< process CPU minus the generator's

  double achieved_rps() const {
    return seconds > 0.0 ? static_cast<double>(sent) / seconds : 0.0;
  }
  /// Median over windows of the per-window quantile, in ms.
  double windowed(const std::vector<std::vector<double>>& w, double q) const {
    std::vector<double> per;
    for (const auto& v : w)
      if (!v.empty()) per.push_back(quantile(v, q));
    return median(per);
  }
  /// The quantile over every RPC of the step, host stalls included.
  double pooled(const std::vector<std::vector<double>>& w, double q) const {
    std::vector<double> all;
    for (const auto& v : w) all.insert(all.end(), v.begin(), v.end());
    return quantile(std::move(all), q);
  }
  std::uint64_t count(const std::vector<std::vector<double>>& w) const {
    std::uint64_t n = 0;
    for (const auto& v : w) n += v.size();
    return n;
  }
  /// Issue p99 within the SLO, every RPC answered, and no growing backlog:
  /// at most 20 ms of offered load still in flight when sending stops.
  bool passes(double slo_ms) const {
    return windowed(issue_ms, 0.99) <= slo_ms && lost == 0 &&
           static_cast<double>(backlog_end) <= std::max(64.0, rate * 0.02);
  }
};

/// Seconds of CPU time on `clock` (a process or thread CPU clock).
double cpu_now(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

class Generator {
 public:
  Generator(client::WireClient& wire, std::uint32_t devices, std::uint64_t seed,
            bool want_span, Spans* spans, double svc_offset)
      : wire_(wire),
        devices_(devices),
        rng_(seed),
        want_span_(want_span),
        spans_(spans),
        svc_offset_(svc_offset) {
    // Wake-ups land within a microsecond of the arrival they wait for.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  }

  /// Offers `rate` RPC/s for `seconds`, appending to `step`, then drains.
  void run(double rate, double seconds, Step& step) {
    const auto windows = static_cast<std::size_t>(
        std::max(1.0, std::floor(rate * seconds / kWindowRpcs)));
    step.rate = rate;
    step.seconds += seconds;
    window0_ = step.issue_ms.size();
    step.issue_ms.resize(window0_ + windows);
    step.report_ms.resize(window0_ + windows);
    step_ = &step;
    const std::uint64_t sent0 = tally_.sent, lost0 = tally_.lost;
    const double cpu0 = cpu_now(CLOCK_PROCESS_CPUTIME_ID) -
                        cpu_now(CLOCK_THREAD_CPUTIME_ID);
    const auto start = Clock::now() + std::chrono::milliseconds(1);
    const auto end = start + to_duration(seconds);
    window_ = to_duration(seconds / static_cast<double>(windows));
    start_ = start;
    auto next = start + to_duration(rng_.exponential(1.0 / rate));
    while (next < end) {
      const auto now = Clock::now();
      bool queued = false;
      while (next <= now && next < end) {
        queued |= send(next, now);
        next += to_duration(rng_.exponential(1.0 / rate));
      }
      if (queued) wire_.flush();
      reap();
      // Sleep until the next arrival or a reply, whichever comes first: the
      // generator must not hold a core the server could use.
      const auto wait = next - Clock::now();
      if (wait > std::chrono::microseconds(2)) {
        pollfd p{wire_.fd(), POLLIN, 0};
        const auto ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
        const timespec ts{static_cast<time_t>(ns / 1'000'000'000),
                          static_cast<long>(ns % 1'000'000'000)};
        ::ppoll(&p, 1, &ts, nullptr);
      }
    }
    step.backlog_end = std::max(step.backlog_end, in_flight_);
    // Drain what is still in flight.
    const auto give_up = Clock::now() + std::chrono::seconds(2);
    while (in_flight_ > 0 && Clock::now() < give_up) reap();
    lose_in_flight();
    step.sent += tally_.sent - sent0;
    step.lost += tally_.lost - lost0;
    step.server_cpu_s += cpu_now(CLOCK_PROCESS_CPUTIME_ID) -
                         cpu_now(CLOCK_THREAD_CPUTIME_ID) - cpu0;
    step_ = nullptr;
  }

  /// Sends one RPC from each of `n` idle devices at once and waits for
  /// every reply; returns the host seconds from the first send to the last
  /// reply. Latencies are not recorded.
  double burst(std::size_t n) {
    const std::uint64_t sent0 = tally_.sent;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) send(t0, t0);
    wire_.flush();
    const auto give_up = t0 + std::chrono::seconds(2);
    while (in_flight_ > 0 && Clock::now() < give_up) reap();
    const auto t1 = Clock::now();
    lose_in_flight();
    return tally_.sent - sent0 == n ? seconds_between(t0, t1) : -1.0;
  }

  const Tally& tally() const { return tally_; }

 private:
  /// A reply that never came is a failure.
  void lose_in_flight() {
    if (in_flight_ == 0) return;
    for (Device& d : devices_)
      if (d.in_flight) {
        d.in_flight = false;
        ++tally_.lost;
      }
    in_flight_ = 0;
  }

  static Clock::duration to_duration(double s) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
  }

  /// The arrival belongs to a device drawn uniformly from those not
  /// waiting on a reply (a device sends one RPC at a time).
  bool send(Clock::time_point sched, Clock::time_point now) {
    if (in_flight_ * 2 > devices_.size()) {
      ++tally_.skipped;
      return false;
    }
    std::uint32_t id = 0;
    do {
      id = static_cast<std::uint32_t>(rng_.next_u64() % devices_.size());
    } while (devices_[id].in_flight);
    Device& d = devices_[id];
    d.in_flight = true;
    d.sched = sched;
    d.sent = now;
    d.report = d.holding;
    ++d.seq;
    const std::uint8_t flags = want_span_ ? proto::kFlagWantSpan : 0;
    if (d.report) {
      proto::ReportResult m;
      m.device = id;
      m.seq = d.seq;
      m.result_id = d.result_id;
      m.reported_runtime = d.reference_seconds;
      m.reference_seconds = d.reference_seconds;
      m.flags = flags;
      wire_.queue(m);
    } else {
      proto::RequestWork m;
      m.device = id;
      m.seq = d.seq;
      m.flags = flags;
      wire_.queue(m);
    }
    ++tally_.sent;
    ++in_flight_;
    if (step_) step_->late_us.push_back(seconds_between(sched, now) * 1e6);
    return true;
  }
  void reap() {
    while (std::optional<client::WireReply> r = wire_.poll_reply()) {
      const auto now = Clock::now();
      if (r->device >= devices_.size()) {
        ++tally_.errors;
        continue;
      }
      Device& d = devices_[r->device];
      if (!d.in_flight || r->seq != d.seq) {
        ++tally_.errors;
        continue;
      }
      d.in_flight = false;
      --in_flight_;
      switch (r->verb) {
        case proto::Verb::kAssignment:
          ++tally_.assignments;
          d.holding = true;
          d.result_id = r->assignment.result_id;
          d.reference_seconds = r->assignment.reference_seconds;
          break;
        case proto::Verb::kReportAck:
          ++tally_.acks;
          if (r->ack.duplicate) ++tally_.duplicates;
          d.holding = false;
          break;
        case proto::Verb::kNoWork: ++tally_.no_work; break;
        case proto::Verb::kBusy: ++tally_.busy; break;
        default: ++tally_.errors; break;
      }
      if (!step_) continue;  // a burst
      const double ms = seconds_between(d.sched, now) * 1e3;
      const auto w = std::min<std::size_t>(
          step_->issue_ms.size() - 1,
          window0_ + static_cast<std::size_t>(std::max<Clock::rep>(
                         0, (d.sched - start_) / window_)));
      (d.report ? step_->report_ms : step_->issue_ms)[w].push_back(ms);
      if (const auto span = r->span()) note_span(d, *span, now);
    }
  }

  void note_span(const Device& d, const proto::SpanBlock& s,
                 Clock::time_point now) {
    const double rtt = seconds_between(d.sent, now);
    const double server_total = s.t_decision - s.t_read;
    step_->queue_wait_us.push_back((s.t_dequeue - s.t_read) * 1e6);
    step_->service_us.push_back((s.t_decision - s.t_dequeue) * 1e6);
    step_->residual_us.push_back((rtt - server_total) * 1e6);
    // Spans of one RPC in 16 are kept, keyed by (device, seq).
    const auto device = static_cast<std::uint64_t>(&d - devices_.data());
    if (!spans_ || (device + d.seq) % 16 != 0) return;
    auto at = [&](double svc) {
      return Clock::time_point(to_duration(svc + svc_offset_));
    };
    const std::uint64_t id = (d.seq << 24) | device;
    const int rpc = spans_->add(d.report ? "client.report" : "client.issue",
                                d.sched, now, -1, id);
    spans_->add("client.gen_late", d.sched, d.sent, rpc, id);
    spans_->add("server.queue_wait", at(s.t_read), at(s.t_dequeue), rpc, id);
    spans_->add("server.service", at(s.t_dequeue), at(s.t_decision), rpc, id);
  }

  client::WireClient& wire_;
  std::vector<Device> devices_;
  util::Rng rng_;
  bool want_span_;
  Spans* spans_;
  double svc_offset_;  ///< steady-clock seconds minus service seconds
  Tally tally_;
  std::size_t in_flight_ = 0;
  Step* step_ = nullptr;
  std::size_t window0_ = 0;  ///< first window of the current block
  Clock::time_point start_;
  Clock::duration window_{1};
};

/// Replays the generator's request pattern (random devices, each reporting
/// its held assignment or else requesting work) through
/// GridService::process_batch with no sockets: microseconds per RPC.
double batch_us_per_rpc(std::uint32_t catalogue, std::uint32_t devices,
                        std::uint64_t rpcs, std::uint64_t seed) {
  server::GridService svc(server::synthetic_catalog(catalogue, 4.0),
                          server::ServiceConfig{});
  util::Rng rng(seed);
  std::vector<Device> state(devices);
  std::vector<server::WireRequest> batch;
  std::vector<server::WireResponse> out;
  constexpr std::size_t kBatch = 64;
  double t = 0.0;
  double busy = 0.0;
  for (std::uint64_t done = 0; done < rpcs; done += kBatch) {
    batch.clear();
    out.clear();
    while (batch.size() < kBatch) {
      const auto id = static_cast<std::uint32_t>(rng.next_u64() % devices);
      Device& d = state[id];
      if (d.in_flight) continue;
      d.in_flight = true;
      server::WireRequest q;
      q.time = t += 1e-5;
      q.t_enqueue = q.time;
      q.device = id;
      q.seq = ++d.seq;
      q.verb = d.holding ? proto::Verb::kReportResult
                         : proto::Verb::kRequestWork;
      q.result_id = d.result_id;
      q.reported_runtime = q.reference_seconds = d.reference_seconds;
      batch.push_back(q);
    }
    const auto t0 = Clock::now();
    svc.process_batch(batch, t, out);
    busy += seconds_between(t0, Clock::now());
    for (const server::WireResponse& r : out) {
      Device& d = state[r.device];
      d.in_flight = false;
      d.holding = r.verb == proto::Verb::kAssignment;
      if (!d.holding) continue;
      std::size_t off = 0;
      const proto::Assignment a =
          proto::decode_assignment(*proto::try_extract(r.bytes, off));
      d.result_id = a.result_id;
      d.reference_seconds = a.reference_seconds;
    }
  }
  return busy * 1e6 / static_cast<double>(rpcs);
}

/// One server lifetime: a fresh GridServer (catalogue build + start, timed
/// as set-up), one client connection and its generator, warmed up so every
/// device has cycled twice. close() checks the client's tallies against the
/// server's own get_status counters.
class Session {
 public:
  static constexpr std::uint32_t kDevices = 16384;

  /// `want_span` asks the server for span echoes; `spans`, when set, also
  /// keeps a sample of them as harness spans.
  Session(std::uint32_t catalogue, const server::ServiceConfig& config,
          const server::NetOptions& net, std::uint64_t seed, bool want_span,
          Spans* spans) {
    // Each server runs its threads on fresh malloc arenas; give back what
    // earlier servers freed so peak RSS is one server's, not the sum of
    // whichever arenas the threads happened to land on.
    ::malloc_trim(0);
    const auto t0 = Clock::now();
    grid_.emplace(server::synthetic_catalog(catalogue, 4.0), config, net);
    grid_->start();
    setup_s = seconds_between(t0, Clock::now());
    wire_.emplace("127.0.0.1", grid_->port());
    const double svc_offset =
        std::chrono::duration<double>(Clock::now().time_since_epoch())
            .count() -
        grid_->now_seconds();
    gen_.emplace(*wire_, kDevices, seed, want_span, spans, svc_offset);
    Step warm;  // not measured
    gen_->run(100e3, 2.0 * kDevices / 100e3, warm);
  }

  Generator& gen() { return *gen_; }

  /// Ends the session; returns the client's tally after checking it.
  Tally close(Sheet& sheet) {
    const Tally& t = gen_->tally();
    proto::GetStatus req;
    req.seq = 1u << 30;
    wire_->queue(req);
    wire_->flush();
    const client::WireReply status = wire_->recv_reply();
    grid_->stop();
    if (!sheet.check(status.verb == proto::Verb::kStatus,
                     "get_status did not answer kStatus"))
      return t;
    const proto::Status& s = status.status;
    auto same = [&](std::uint64_t server_v, std::uint64_t client_v,
                    const char* what) {
      sheet.check(server_v == client_v,
                  std::string("server ") + what + " " +
                      std::to_string(server_v) + " != client " +
                      std::to_string(client_v));
    };
    same(s.rpc_assignments, t.assignments, "assignments");
    same(s.rpc_reports, t.acks, "reports");
    same(s.rpc_duplicate_reports, t.duplicates, "duplicate reports");
    same(s.rpc_no_work, t.no_work, "no-work replies");
    same(s.rpc_busy, t.busy, "busy replies");
    same(s.rpc_errors, t.errors, "errors");
    same(s.rpc_requests, t.sent + 1, "requests");
    same(s.results_sent, t.assignments, "results sent");
    same(s.results_received, t.acks - t.duplicates, "results received");
    return t;
  }

  double setup_s = 0.0;

 private:
  std::optional<server::GridServer> grid_;
  std::optional<client::WireClient> wire_;
  std::optional<Generator> gen_;
};

void report(const char* phase, const Step& s) {
  std::fprintf(stderr,
               "serve: %s offered %.0f/s achieved %.0f/s issue p99 %.3f ms "
               "(median of %zu windows) backlog %zu late p99 %.0f us "
               "p50 %.4f ms cpu %.3f us/rpc\n",
               phase, s.rate, s.achieved_rps(), s.windowed(s.issue_ms, 0.99),
               s.issue_ms.size(), s.backlog_end, quantile(s.late_us, 0.99),
               s.windowed(s.issue_ms, 0.5),
               s.server_cpu_s * 1e6 / std::max<double>(1.0, s.sent));
}

}  // namespace

void run_serve_workload(const Options& opt, Sheet& sheet, Spans* spans) {
  const bool smoke = opt.smoke;
  // Rounds of the three fixed rates plus a block of bursts take about 1.2 s
  // each; there are up to ten, and the max_rps climbs (3-4 s each) take
  // the rest of the budget.
  const int rounds =
      smoke ? 1 : std::clamp(static_cast<int>(opt.seconds * 0.36), 1, 10);
  const double block_s = smoke ? 0.05 : 0.25;
  // RPCs per ladder rung. A server's memory grows with the results it has
  // issued, so short rungs keep peak RSS from following how far the climbs
  // got.
  const double rung_rpcs = smoke ? 1e4 : 2.5e4;
  const double kCeiling = 3.2e6;  // RPC/s; a passing rung here ends a climb
  const int climbs = smoke ? 1 : 5;
  // Fresh work must never run out: one session's catalogue covers every
  // issue a climb to the ceiling can make (quorum 2: two issues per
  // workunit), with margin.
  const auto catalogue = static_cast<std::uint32_t>(smoke ? 2e5 : 1e6);
  server::ServiceConfig config;  // default spans, SLO and sampling
  server::NetOptions net;
  net.workers = 1;  // default snapshotter stays on
  const double slo_ms = config.slo_latency_seconds * 1e3;
  const auto t_begin = Clock::now();
  auto time_left = [&] {
    return opt.seconds - (smoke ? 0.0 : 0.5) -
           seconds_between(t_begin, Clock::now());
  };
  std::vector<double> setups;
  Tally total;
  auto finish = [&](Session& session) {
    const Tally t = session.close(sheet);
    total.sent += t.sent;
    total.assignments += t.assignments;
    total.acks += t.acks;
    total.duplicates += t.duplicates;
    total.no_work += t.no_work;
    total.busy += t.busy;
    total.errors += t.errors;
    total.lost += t.lost;
    total.skipped += t.skipped;
  };

  // --- fixed rates and closed-loop bursts on one server, interleaved in
  // short blocks so a slow spell of the host lands on every rate and on
  // the bursts alike. The catalogue covers every issue of ten rounds, with
  // margin (quorum 2: two issues per workunit) ---
  constexpr std::size_t kBurstRpcs = 1024;
  const int bursts_per_round = smoke ? 50 : 200;
  std::vector<Step> fixed(3);
  std::vector<double> burst_s;
  {
    Session session(catalogue, config, net, opt.serve_seed, opt.trace, spans);
    setups.push_back(session.setup_s);
    const double fixed_rates[] = {50e3, 100e3, 200e3};
    for (int r = 0; r < rounds; ++r) {
      for (std::size_t i = 0; i < fixed.size(); ++i)
        session.gen().run(fixed_rates[i], block_s, fixed[i]);
      for (int b = 0; b < bursts_per_round; ++b) {
        const double s = session.gen().burst(kBurstRpcs);
        if (sheet.check(s > 0.0, "a burst went unanswered"))
          burst_s.push_back(s);
      }
    }
    for (const Step& s : fixed) report("fixed", s);
    finish(session);
  }
  std::fprintf(stderr,
               "serve: burst of %zu RPCs p10 %.3f p25 %.3f p50 %.3f ms "
               "(%zu bursts)\n",
               kBurstRpcs, quantile(burst_s, 0.1) * 1e3,
               quantile(burst_s, 0.25) * 1e3, median(burst_s) * 1e3,
               burst_s.size());
  // The best passing fixed rate is where every climb starts from.
  double from_rate = 0.0, from_rps = 0.0;
  for (const Step& s : fixed)
    if (s.passes(slo_ms)) {
      from_rate = s.rate;
      from_rps = s.achieved_rps();
    }

  // --- max_rps: the median of identical climbs, each on a fresh server.
  // A climb takes 10% rungs up from above the best passing fixed rate (from
  // 55k in smoke mode) until three rungs in a row fail (one slow spell of
  // the host must not end it), then two bisection rungs between its best
  // pass and the rung above. A climb with no passing rung scores the best
  // passing fixed rate. A new climb starts only while one more fits in the
  // budget, and a climb the budget cuts short does not count ---
  std::size_t rungs = 0;
  std::vector<double> bests;
  double climb_s = 0.0;
  for (int c = 0; c < climbs && time_left() > 1.25 * climb_s; ++c) {
    const auto climb_start = Clock::now();
    Session session(catalogue, config, net, opt.serve_seed + 1000 * (c + 1),
                    opt.trace, nullptr);
    setups.push_back(session.setup_s);
    double best_rate = from_rate, best_rps = from_rps;
    auto rung = [&](double rate) {
      Step step;
      session.gen().run(rate, rung_rpcs / rate, step);
      report("ladder", step);
      ++rungs;
      const bool ok = step.passes(slo_ms);
      if (ok && rate > best_rate) {
        best_rate = rate;
        best_rps = step.achieved_rps();
      }
      return ok;
    };
    int fails = 0, climbed = 0;
    bool cut = false;
    for (double rate = (smoke ? 50e3 : std::max(from_rate, 50e3)) * 1.1;
         fails < 3 && rate <= kCeiling && climbed < (smoke ? 4 : 64);
         rate *= 1.1, ++climbed) {
      if ((cut = time_left() < 0.0)) break;
      fails = rung(rate) ? 0 : fails + 1;
    }
    double fail_rate = best_rate * 1.1;
    for (int i = 0; i < (smoke ? 0 : 2) && !cut && best_rate > 0.0; ++i) {
      const double mid = 0.5 * (best_rate + fail_rate);
      if (!rung(mid)) fail_rate = mid;
    }
    finish(session);
    climb_s = seconds_between(climb_start, Clock::now());
    if (best_rps > 0.0 && (!cut || bests.empty())) bests.push_back(best_rps);
  }
  sheet.add("setup_s", median(setups), "s", setups.size());
  sheet.add("work_s", median(burst_s), "s", burst_s.size());

  // Every RPC that ends in an error, Busy, no-work, a duplicate ack or no
  // reply is a failed operation. (An arrival that finds half the fleet
  // still waiting is overload on a ladder rung; it is counted, not sent.)
  const Tally& t = total;
  sheet.tally(t.sent, t.errors + t.busy + t.no_work + t.duplicates + t.lost,
              "failed RPCs (error/busy/no-work/duplicate/no reply)");

  const Step& at100 = fixed[1];
  std::fprintf(stderr, "serve: max_rps %.0f (median of %zu climbs)\n",
               bests.empty() ? 0.0 : median(bests), bests.size());
  if (!spans) return;

  // --- the workload's own breakdown (traced run, span echoes on every
  // RPC). Serve's open-loop latencies and capacity swing several-fold
  // between runs with the hypervisor's steal, so they are details;
  // untraced runs print them on stderr ---
  sheet.detail("client.max_rps", bests.empty() ? 0.0 : median(bests), "1/s",
               bests.size());
  sheet.detail("client.issue_p50_ms", at100.windowed(at100.issue_ms, 0.5),
               "ms", at100.count(at100.issue_ms));
  const char* names[] = {"client.issue_p99_ms.50k", "client.issue_p99_ms.100k",
                         "client.issue_p99_ms.200k"};
  for (std::size_t i = 0; i < fixed.size(); ++i)
    sheet.detail(names[i], fixed[i].windowed(fixed[i].issue_ms, 0.99), "ms",
                 fixed[i].count(fixed[i].issue_ms));
  sheet.detail("client.report_p99_ms.100k",
               at100.windowed(at100.report_ms, 0.99), "ms",
               at100.count(at100.report_ms));
  sheet.detail("client.issue_p99_pooled_ms.100k",
               at100.pooled(at100.issue_ms, 0.99), "ms",
               at100.count(at100.issue_ms));
  sheet.detail("client.burst_s.p90", quantile(burst_s, 0.9), "s",
               burst_s.size());
  sheet.detail("server.cpu_us_per_rpc.100k",
               at100.server_cpu_s * 1e6 /
                   std::max(1.0, static_cast<double>(at100.sent)),
               "us", at100.sent);
  sheet.detail("server.service_us.p50", quantile(at100.service_us, 0.5), "us",
               at100.service_us.size());
  sheet.detail("server.service_us.p99", quantile(at100.service_us, 0.99),
               "us", at100.service_us.size());
  sheet.detail("server.queue_wait_us.p50",
               quantile(at100.queue_wait_us, 0.5), "us",
               at100.queue_wait_us.size());
  sheet.detail("server.queue_wait_us.p99",
               quantile(at100.queue_wait_us, 0.99), "us",
               at100.queue_wait_us.size());
  sheet.detail("net.residual_us.p50", quantile(at100.residual_us, 0.5), "us",
               at100.residual_us.size());
  sheet.detail("net.residual_us.p99", quantile(at100.residual_us, 0.99), "us",
               at100.residual_us.size());
  std::vector<double> late;
  for (const Step& s : fixed)
    late.insert(late.end(), s.late_us.begin(), s.late_us.end());
  sheet.detail("client.gen_late_us.p99", quantile(late, 0.99), "us",
               late.size());
  sheet.detail("client.gen_late_us.max", quantile(late, 1.0), "us",
               late.size());
  sheet.detail("client.assignments", static_cast<double>(t.assignments),
               "count");
  sheet.detail("client.acks", static_cast<double>(t.acks), "count");
  sheet.detail("client.no_work", static_cast<double>(t.no_work), "count");
  sheet.detail("client.busy", static_cast<double>(t.busy), "count");
  sheet.detail("client.errors", static_cast<double>(t.errors), "count");
  sheet.detail("client.unsent", static_cast<double>(t.skipped), "count");
  sheet.detail("client.ladder_rungs", static_cast<double>(rungs), "count");
}

void serve_layer_probes(const Options& opt, Sheet& sheet, Spans* spans) {
  // GridServer::start on a small catalogue, five times.
  std::vector<double> starts;
  for (int i = 0; i < 5; ++i) {
    server::NetOptions net;
    net.workers = 1;
    server::GridServer grid(server::synthetic_catalog(1000, 4.0),
                            server::ServiceConfig{}, net);
    const auto t0 = Clock::now();
    grid.start();
    const auto t1 = Clock::now();
    grid.stop();
    starts.push_back(seconds_between(t0, t1));
    if (spans) spans->add("probe.server.start", t0, t1);
  }
  sheet.layer("server.start_s", median(starts), "s", starts.size());

  const std::uint64_t replay = opt.smoke ? 20'000 : 400'000;
  sheet.layer("server.batch_us_per_rpc",
              batch_us_per_rpc(opt.smoke ? 50'000 : 400'000, Session::kDevices,
                               replay, opt.serve_seed),
              "us", replay);
}

}  // namespace perfbench
