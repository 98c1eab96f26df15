// Workloads `campaign` and `campaign-faults`: the paper's Phase I at scale
// 1/10 through core::run_campaign.
//
// Both run the same configuration at K=1 and K=nproc shards, so the
// serial/sharded pair is a same-run ratio; `campaign-faults` adds the
// saboteur-1pct fault preset and the adaptive validation policy. The
// end-to-end `work_s` is the K=1 run, repeated while another fits in
// --seconds: a single busy thread is rarely descheduled by the hypervisor,
// while a K=nproc run that keeps every vCPU busy loses seconds to steal in
// a busy spell of the host. A timing is assembled from the fastest copy of
// each simulated week (see composite_wall) and set-up time is the median.
//
// Every run attaches CampaignInstruments::on_week and times each simulated
// week from outside the program; the profiler's existing campaign.* and
// packaging.* zones split set-up from the event loop.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/campaign.hpp"
#include "faults/plan.hpp"
#include "obs/profile.hpp"
#include "packaging/packager.hpp"
#include "server/validation_policy.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

using namespace hcmd;

/// The paper's canonical campaign seed; its outcome is pinned below.
constexpr std::uint64_t kCanonicalSeed = 2007;

/// Pinned outcome of the canonical seed. Scale 1/10 is the benchmark input;
/// scale 1/200 is the smoke input.
struct Pinned {
  std::uint64_t results_received;
  std::uint64_t workunits;
  std::uint64_t events;
  double weeks;       ///< completion, compared to 2 decimals
  double redundancy;  ///< compared to 3 decimals
  std::uint64_t corruption_injected;
  std::uint64_t results_lost;
};
constexpr Pinned kPinnedClean{477788, 345661, 5557464, 26.43, 1.382, 0, 0};
constexpr Pinned kPinnedFaults{413898, 345661, 5065491, 25.00, 1.197, 5111,
                               822};
constexpr Pinned kPinnedCleanSmoke{23883, 17284, 266997, 25.57, 1.382, 0, 0};
constexpr Pinned kPinnedFaultsSmoke{19932, 17284, 253690, 24.86, 1.153, 36, 30};

struct WeekMark {
  Clock::time_point at;  ///< host time the week's on_week fired
  double week = 0.0;
  double done = 0.0;  ///< completed workunit fraction
  std::size_t pending = 0;
};

struct Run {
  core::CampaignReport report;
  std::uint32_t shards = 1;
  double wall_s = 0.0;
  double setup_s = 0.0;
  double build_workload_s = 0.0;
  double build_catalog_s = 0.0;
  double des_s = 0.0;
  double reduce_s = 0.0;
  Clock::time_point start;
  std::vector<WeekMark> weeks;

  Clock::time_point des_start() const {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(setup_s));
  }
  /// Host seconds per simulated week.
  std::vector<double> week_seconds() const {
    std::vector<double> out;
    Clock::time_point prev = des_start();
    for (const WeekMark& w : weeks) {
      out.push_back(seconds_between(prev, w.at));
      prev = w.at;
    }
    return out;
  }
  /// From the end of the first week with >= 95% of workunits complete until
  /// the event loop stops.
  double endgame_s() const {
    for (const WeekMark& w : weeks)
      if (w.done >= 0.95) return seconds_between(w.at, weeks.back().at);
    return 0.0;
  }
  /// Event-loop host seconds before the share schedule reaches full power.
  double ramp_s() const {
    Clock::time_point end = des_start();
    for (const WeekMark& w : weeks)
      if (w.week <= report.full_power_start_week) end = w.at;
    return seconds_between(des_start(), end);
  }
};

double zone_seconds(const std::vector<obs::Profiler::ZoneStat>& table,
                    std::string_view name) {
  for (const auto& z : table)
    if (z.name == name) return static_cast<double>(z.total_ns) * 1e-9;
  return 0.0;
}

Run run_once(const core::CampaignConfig& base, std::uint32_t shards,
             Spans* spans) {
  core::CampaignConfig config = base;
  config.shards = shards;
  Run run;
  run.shards = shards;
  // The progress hook only stamps the host time at each week's end (a few
  // dozen calls per run); it is attached to untraced runs too, since the
  // timings are built from weeks (see composite_wall).
  core::CampaignInstruments instruments;
  instruments.on_week = [&run](const core::WeeklyProgress& p) {
    run.weeks.push_back(
        {Clock::now(), p.week,
         p.workunits_total ? static_cast<double>(p.workunits_completed) /
                                 static_cast<double>(p.workunits_total)
                           : 0.0,
         p.pending_events});
  };
  obs::Profiler::instance().reset();
  const double steal0 = steal_seconds();
  run.start = Clock::now();
  run.report = core::run_campaign(config, instruments);
  const Clock::time_point end = Clock::now();
  run.wall_s = seconds_between(run.start, end);

  const auto table = obs::Profiler::instance().table();
  run.build_workload_s = zone_seconds(table, "campaign.build_workload");
  run.build_catalog_s = zone_seconds(table, "packaging.build_catalog");
  run.setup_s = run.build_workload_s + run.build_catalog_s +
                zone_seconds(table, "packaging.compute_stats") +
                zone_seconds(table, "campaign.grid_setup");
  run.des_s = zone_seconds(table, "campaign.des_week");
  run.reduce_s = zone_seconds(table, "campaign.reduce");
  std::fprintf(stderr, "campaign: K=%u %.3f s (host steal %.2f s) weeks",
               shards, run.wall_s, steal_seconds() - steal0);
  for (const double w : run.week_seconds()) std::fprintf(stderr, " %.4f", w);
  std::fprintf(stderr, "\n");

  if (spans) {
    const int root = spans->add(shards == 1 ? "core.run_campaign.k1"
                                            : "core.run_campaign.kn",
                                run.start, end);
    spans->add("campaign.setup", run.start, run.des_start(), root);
    Clock::time_point prev = run.des_start();
    for (std::size_t i = 0; i < run.weeks.size(); ++i) {
      spans->add(run.weeks[i].done >= 0.95 ? "core.week.endgame" : "core.week",
                 prev, run.weeks[i].at, root, i);
      prev = run.weeks[i].at;
    }
    spans->add("campaign.finalize_reduce", prev, end, root);
  }
  return run;
}

/// Host seconds of a run assembled from the fastest copy of each part: the
/// shortest set-up-and-finish of any run, plus for every simulated week the
/// fastest of the runs. Every run simulates the same weeks bit for bit, so a
/// part is the same work in every run, and its fastest copy drops
/// interference from the rest of the host that hit one run and not another.
double composite_wall(const std::vector<Run>& runs) {
  std::vector<double> best = runs.front().week_seconds();
  double outside = std::numeric_limits<double>::infinity();
  for (const Run& r : runs) {
    const std::vector<double> w = r.week_seconds();
    if (w.size() != best.size())
      return std::numeric_limits<double>::quiet_NaN();
    for (std::size_t i = 0; i < w.size(); ++i)
      best[i] = std::min(best[i], w[i]);
    outside = std::min(outside,
                       r.wall_s - std::accumulate(w.begin(), w.end(), 0.0));
  }
  return outside + std::accumulate(best.begin(), best.end(), 0.0);
}

/// Every report field that must not depend on the shard count, as
/// (name, values) pairs compared bit for bit.
std::vector<std::pair<std::string, std::vector<double>>> report_fields(
    const core::CampaignReport& r) {
  auto d = [](auto v) { return static_cast<double>(v); };
  const server::ServerCounters& c = r.counters;
  const faults::FaultCounters& f = r.faults.counters;
  const server::PolicyCounters& p = r.validation.policy.counters;
  std::vector<std::pair<std::string, std::vector<double>>> out = {
      {"counters.results_sent", {d(c.results_sent)}},
      {"counters.results_received", {d(c.results_received)}},
      {"counters.results_valid", {d(c.results_valid)}},
      {"counters.results_quorum_extra", {d(c.results_quorum_extra)}},
      {"counters.results_invalid", {d(c.results_invalid)}},
      {"counters.results_redundant", {d(c.results_redundant)}},
      {"counters.results_timed_out", {d(c.results_timed_out)}},
      {"counters.results_pending", {d(c.results_pending)}},
      {"counters.quorum_mismatches", {d(c.quorum_mismatches)}},
      {"counters.late_mismatches", {d(c.late_mismatches)}},
      {"counters.corrupt_assimilated", {d(c.corrupt_assimilated)}},
      {"counters.workunits_completed", {d(c.workunits_completed)}},
      {"counters.useful_reference_seconds", {c.useful_reference_seconds}},
      {"counters.reported_runtime_seconds", {c.reported_runtime_seconds}},
      {"completed", {d(r.completed)}},
      {"completion_weeks", {r.completion_weeks}},
      {"events_processed", {d(r.events_processed)}},
      {"devices_simulated", {d(r.devices_simulated)}},
      {"redundancy_factor", {r.redundancy_factor}},
      {"useful_fraction", {r.useful_fraction}},
      {"avg_hcmd_vftp_whole", {r.avg_hcmd_vftp_whole}},
      {"avg_hcmd_vftp_fullpower", {r.avg_hcmd_vftp_fullpower}},
      {"avg_wcg_vftp_whole", {r.avg_wcg_vftp_whole}},
      {"total_credit", {r.total_credit}},
      {"speeddown",
       {r.speeddown.reported_runtime_seconds,
        r.speeddown.useful_reference_seconds}},
      {"runtime_summary",
       {d(r.runtime_summary.count), r.runtime_summary.mean,
        r.runtime_summary.min, r.runtime_summary.max}},
      {"hcmd_vftp_weekly", r.hcmd_vftp_weekly},
      {"wcg_vftp_weekly", r.wcg_vftp_weekly},
      {"results_received_weekly", r.results_received_weekly},
      {"results_useful_weekly", r.results_useful_weekly},
      {"credit_weekly", r.credit_weekly},
      {"faults",
       {d(f.outage_denied_requests), d(f.deferred_uploads),
        d(f.backoff_retries), d(f.deadline_deferrals), d(f.corrupted_results),
        d(f.lost_results), d(f.churn_spikes), d(f.churn_killed),
        d(f.straggler_devices), d(f.saboteur_devices),
        d(f.saboteur_corrupted_results)}},
      {"policy",
       {d(p.decisions), d(p.quorum2_decisions), d(p.spot_checks),
        d(p.solo_issues), d(p.escalations), d(p.trust_promotions),
        d(p.trust_demotions), d(r.validation.policy.devices_trusted),
        r.validation.policy.mean_score}},
      {"validation",
       {d(r.validation.corruption_injected),
        d(r.validation.corruption_assimilated)}},
  };
  std::vector<double> snaps;
  for (const auto& s : r.snapshots) {
    snaps.push_back(s.time_seconds);
    snaps.insert(snaps.end(), s.per_protein_fraction.begin(),
                 s.per_protein_fraction.end());
  }
  out.push_back({"snapshots", std::move(snaps)});
  return out;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) return false;
  return true;
}

void check_agree(Sheet& sheet, const Run& a, const Run& b) {
  const auto fa = report_fields(a.report);
  const auto fb = report_fields(b.report);
  for (std::size_t i = 0; i < fa.size(); ++i)
    sheet.check(same_bits(fa[i].second, fb[i].second),
                "K=" + std::to_string(a.shards) + " vs K=" +
                    std::to_string(b.shards) + " report field " + fa[i].first);
}

void check_outcome(Sheet& sheet, const Options& opt, bool faults,
                   const core::CampaignReport& r) {
  const Pinned& p = faults ? (opt.smoke ? kPinnedFaultsSmoke : kPinnedFaults)
                           : (opt.smoke ? kPinnedCleanSmoke : kPinnedClean);
  const auto& c = r.counters;
  sheet.check(r.completed, "campaign did not complete");
  // The catalogue does not depend on the campaign seed.
  sheet.check(c.workunits_completed == p.workunits,
              "workunits completed " + std::to_string(c.workunits_completed));
  sheet.check(c.corrupt_assimilated == 0 || !faults,
              "corruption assimilated: " +
                  std::to_string(c.corrupt_assimilated));
  if (opt.campaign_seed == kCanonicalSeed) {
    sheet.check(c.results_received == p.results_received,
                "pinned results_received, got " +
                    std::to_string(c.results_received));
    sheet.check(r.events_processed == p.events,
                "pinned events_processed, got " +
                    std::to_string(r.events_processed));
    sheet.check(std::fabs(r.completion_weeks - p.weeks) < 0.005,
                "pinned completion weeks, got " +
                    std::to_string(r.completion_weeks));
    sheet.check(std::fabs(r.redundancy_factor - p.redundancy) < 0.0005,
                "pinned redundancy, got " +
                    std::to_string(r.redundancy_factor));
    sheet.check(r.validation.corruption_injected == p.corruption_injected,
                "pinned corruption injected, got " +
                    std::to_string(r.validation.corruption_injected));
    sheet.check(r.faults.counters.lost_results == p.results_lost,
                "pinned results lost, got " +
                    std::to_string(r.faults.counters.lost_results));
  } else {
    // Any other seed: the outcome must stay inside the envelope every
    // seed tried so far falls in.
    const double lo = faults ? 1.10 : 1.30;
    const double hi = faults ? 1.30 : 1.47;
    sheet.check(r.redundancy_factor > lo && r.redundancy_factor < hi,
                "redundancy outside envelope: " +
                    std::to_string(r.redundancy_factor));
    sheet.check(r.completion_weeks > 22.0 && r.completion_weeks < 31.0,
                "completion weeks outside envelope: " +
                    std::to_string(r.completion_weeks));
  }
}

/// Hold model on sim::Simulation at a fixed pending-event count: every
/// fired event schedules its successor an exponential delay ahead.
double hold_ns_per_event(std::size_t pending, std::uint64_t events,
                         std::uint64_t seed) {
  sim::Simulation sim;
  util::Rng rng(seed);
  struct Hold {
    sim::Simulation* sim;
    util::Rng* rng;
    void operator()() const {
      sim->schedule_in(rng->exponential(1.0), Hold{sim, rng});
    }
  };
  sim.reserve_events(pending + 16);
  for (std::size_t i = 0; i < pending; ++i)
    sim.schedule_at(rng.exponential(1.0), Hold{&sim, &rng});
  for (std::size_t i = 0; i < pending; ++i) sim.step();  // warm the arena
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < events; ++i) sim.step();
  return seconds_between(t0, Clock::now()) * 1e9 /
         static_cast<double>(events);
}

/// One util::parallel_for dispatch of nproc trivial tasks, in microseconds.
std::vector<double> fork_join_us(unsigned nproc, int reps) {
  util::ThreadPool pool(nproc);
  std::vector<std::uint64_t> sink(nproc, 0);
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    util::parallel_for(pool, nproc, [&](std::size_t k) { ++sink[k]; }, 1);
    us.push_back(seconds_between(t0, Clock::now()) * 1e6);
  }
  return us;
}

}  // namespace

void run_campaign_workload(const Options& opt, bool faults, Sheet& sheet,
                           Spans* spans) {
  core::CampaignConfig config;
  config.scale = opt.smoke ? 1.0 / 200.0 : 0.1;
  config.seed = opt.campaign_seed;
  if (faults) {
    config.faults = faults::fault_preset("saboteur-1pct");
    const server::PolicySpec policy = server::policy_preset("adaptive");
    config.server.policy = policy.kind;
    config.server.validation = policy.validation;
    config.server.adaptive_trust = policy.adaptive_trust;
  }
  const std::uint32_t kn = opt.nproc;

  // Runs: K=1, then K=nproc once, then more K=1 runs while the next one is
  // expected to fit in --seconds.
  std::vector<Run> serial, sharded;
  const auto t0 = Clock::now();
  serial.push_back(run_once(config, 1, spans));
  sharded.push_back(run_once(config, kn, spans));
  while (seconds_between(t0, Clock::now()) + serial.back().wall_s <=
         opt.seconds)
    serial.push_back(run_once(config, 1, spans));

  // --- correctness ---
  for (const Run& r : serial) check_outcome(sheet, opt, faults, r.report);
  check_agree(sheet, sharded[0], serial[0]);
  for (std::size_t i = 1; i < serial.size(); ++i)
    check_agree(sheet, serial[i], serial[0]);

  // --- end-to-end ---
  auto collect = [](const std::vector<Run>& runs, double Run::*field) {
    std::vector<double> v;
    for (const Run& r : runs) v.push_back(r.*field);
    return v;
  };
  std::vector<double> setups = collect(serial, &Run::setup_s);
  setups.push_back(sharded[0].setup_s);
  sheet.add("setup_s", median(setups), "s", setups.size());
  // The K=nproc wall and the speed-up, from one copy, swing with the
  // hypervisor's steal; they are details.
  const double serial_wall = composite_wall(serial);
  sheet.add("work_s", serial_wall, "s", serial.size());
  if (!spans) return;

  // --- the workload's own breakdown (traced run) ---
  const double wall = composite_wall(sharded);
  sheet.detail("core.wall_s.kn", wall, "s", sharded.size());
  sheet.detail("core.serial_wall_s", serial_wall, "s", serial.size());
  sheet.detail("core.shard_speedup", serial_wall / wall, "x",
               serial.size() + sharded.size());
  const Run& kr = sharded[0];
  const core::CampaignReport& rep = kr.report;
  std::vector<double> weeks_n, weeks_1, ends_n, ends_1;
  for (const Run& r : sharded) {
    const auto w = r.week_seconds();
    weeks_n.insert(weeks_n.end(), w.begin(), w.end());
    ends_n.push_back(r.endgame_s());
  }
  for (const Run& r : serial) {
    const auto w = r.week_seconds();
    weeks_1.insert(weeks_1.end(), w.begin(), w.end());
    ends_1.push_back(r.endgame_s());
  }
  sheet.detail("core.week_s.p50.kn", median(weeks_n), "s", weeks_n.size());
  sheet.detail("core.endgame_s.kn", median(ends_n), "s", ends_n.size());
  sheet.detail("core.week_s.p50.k1", median(weeks_1), "s", weeks_1.size());
  sheet.detail("core.week_s.max", quantile(weeks_1, 1.0), "s", weeks_1.size());
  sheet.detail("core.endgame_s.k1", median(ends_1), "s", ends_1.size());
  std::vector<double> ramps;
  for (const Run& r : sharded) ramps.push_back(r.ramp_s());
  sheet.detail("core.ramp_s", median(ramps), "s", ramps.size());
  sheet.detail("core.reduce_s", median(collect(sharded, &Run::reduce_s)), "s",
               sharded.size());
  const double des_s = median(collect(sharded, &Run::des_s));
  sheet.detail("core.ns_per_event",
               des_s * 1e9 / static_cast<double>(rep.events_processed), "ns",
               rep.events_processed);
  sheet.detail("core.us_per_device_week",
               des_s * 1e6 /
                   (static_cast<double>(rep.devices_simulated) *
                    rep.completion_weeks),
               "us", rep.devices_simulated);
  sheet.detail("core.events", static_cast<double>(rep.events_processed),
               "count");
  std::vector<double> pending;
  for (const WeekMark& w : kr.weeks)
    pending.push_back(static_cast<double>(w.pending));
  sheet.detail("core.pending_events", median(pending), "count",
               pending.size());
  sheet.detail("campaign.build_workload_s",
               median(collect(serial, &Run::build_workload_s)), "s",
               serial.size());
  sheet.detail("campaign.build_catalog_s",
               median(collect(serial, &Run::build_catalog_s)), "s",
               serial.size());

  const server::ServerCounters& c = rep.counters;
  sheet.detail("server.results_sent", static_cast<double>(c.results_sent),
               "count");
  sheet.detail("server.results_received",
               static_cast<double>(c.results_received), "count");
  sheet.detail("server.results_timed_out",
               static_cast<double>(c.results_timed_out), "count");
  sheet.detail("server.quorum_mismatches",
               static_cast<double>(c.quorum_mismatches), "count");
  sheet.detail("server.useful_fraction", rep.useful_fraction, "ratio");
  sheet.detail("server.redundancy", rep.redundancy_factor, "ratio");
  if (faults) {
    sheet.detail("faults.corruption_injected",
                 static_cast<double>(rep.validation.corruption_injected),
                 "count");
    sheet.detail("faults.results_lost",
                 static_cast<double>(rep.faults.counters.lost_results),
                 "count");
    sheet.detail("validation.corruption_assimilated",
                 static_cast<double>(rep.validation.corruption_assimilated),
                 "count");
    sheet.detail(
        "policy.solo_issues",
        static_cast<double>(rep.validation.policy.counters.solo_issues),
        "count");
    sheet.detail(
        "policy.spot_checks",
        static_cast<double>(rep.validation.policy.counters.spot_checks),
        "count");
  }
}

void campaign_layer_probes(const Options& opt, Sheet& sheet, Spans* spans) {
  // Set-up layers: the Phase I workload and its catalogue at the
  // benchmark's scale, three times each.
  core::CampaignConfig config;
  config.seed = opt.campaign_seed;
  const std::uint64_t stride = opt.smoke ? 200 : 10;
  std::vector<double> builds, catalogs;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = Clock::now();
    const core::Workload w = core::build_workload(config);
    const auto t1 = Clock::now();
    const auto catalog = packaging::build_catalog(w.benchmark, *w.mct,
                                                  config.packaging, stride);
    const auto t2 = Clock::now();
    sheet.check(!catalog.empty(), "probe catalogue is empty");
    builds.push_back(seconds_between(t0, t1));
    catalogs.push_back(seconds_between(t1, t2));
    if (spans) {
      spans->add("probe.timing.build_workload", t0, t1);
      spans->add("probe.packaging.build_catalog", t1, t2);
    }
  }
  sheet.layer("timing.build_workload_s", median(builds), "s", builds.size());
  sheet.layer("packaging.build_catalog_s", median(catalogs), "s",
              catalogs.size());

  // The DES heap at the pending depth the scale-1/10 campaign reports
  // (core.pending_events, about 40k).
  constexpr std::size_t kPending = 40'000;
  const std::uint64_t hold_events = opt.smoke ? 200'000 : 2'000'000;
  std::vector<double> hold;
  for (int i = 0; i < 3; ++i)
    hold.push_back(
        hold_ns_per_event(kPending, hold_events, opt.campaign_seed + i));
  sheet.layer("sim.hold_ns_per_event", median(hold), "ns", 3 * hold_events);

  const std::vector<double> fj =
      fork_join_us(opt.nproc, opt.smoke ? 200 : 2000);
  sheet.layer("util.fork_join_us", median(fj), "us", fj.size());
}

}  // namespace perfbench
