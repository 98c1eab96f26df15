// Workload `dock`: MaxDo on one couple, a 1200-atom receptor and a 60-atom
// ligand, with production docking::MaxDoParams (cell-list engine, gamma
// batching, 40 minimiser iterations). The same contiguous slice of starting
// positions runs at threads=1 and at threads=nproc; the two checkpoints
// must be byte-identical, and sampled records must re-score against the
// flat interaction_energy oracle. The end-to-end `work_s` is host seconds
// per starting position at threads=1.
#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "docking/energy.hpp"
#include "docking/engine.hpp"
#include "docking/maxdo.hpp"
#include "proteins/generator.hpp"

namespace perfbench {
namespace {

using namespace hcmd;

constexpr std::uint32_t kReceptorAtoms = 1200;
constexpr std::uint32_t kLigandAtoms = 60;

/// Timed evaluation loops store their sum here so they are not optimised out.
volatile double energy_sink = 0.0;

/// Proteins plus the two programs that dock them (the programs keep
/// references to the proteins, so they live and die together).
struct Couple {
  proteins::ReducedProtein receptor, ligand;
  std::unique_ptr<docking::MaxDoProgram> serial, parallel;
};

/// Builds the couple. `setup_s`, when set, receives the seconds to the
/// serial program, the one the end-to-end `work_s` measures; the parallel
/// program and its thread pool, when asked for, are built after it,
/// outside that time.
std::unique_ptr<Couple> set_up(const Options& opt, double* setup_s = nullptr,
                               bool parallel = true) {
  const auto t0 = Clock::now();
  auto c = std::make_unique<Couple>();
  c->receptor =
      proteins::generate_protein(1, kReceptorAtoms, 1.0, opt.receptor_seed);
  c->ligand = proteins::generate_protein(2, kLigandAtoms, 1.1, opt.ligand_seed);
  docking::MaxDoParams params;
  c->serial =
      std::make_unique<docking::MaxDoProgram>(c->receptor, c->ligand, params);
  if (setup_s) *setup_s = seconds_between(t0, Clock::now());
  if (!parallel) return c;
  params.threads = opt.nproc;
  c->parallel =
      std::make_unique<docking::MaxDoProgram>(c->receptor, c->ligand, params);
  return c;
}

struct Slice {
  docking::MaxDoCheckpoint checkpoint;
  double seconds = 0.0;
  /// Per part: a starting position (run_slice) or a (position, rotation)
  /// unit (run_units), in docking order.
  std::vector<double> part_s;
};

void report(const char* name, const Slice& s, double steal0) {
  std::fprintf(stderr, "dock: %s %.3f s (host steal %.2f s)\n", name,
               s.seconds, steal_seconds() - steal0);
}

/// Docks the slice in one MaxDoProgram::run; the parts are its positions.
Slice run_slice(docking::MaxDoProgram& program, const docking::MaxDoTask& task,
                Spans* spans, const char* name) {
  Slice out;
  const auto t0 = Clock::now();
  Clock::time_point last = t0;
  const double steal0 = steal_seconds();
  const int root = spans ? spans->open(name, t0) : -1;
  auto mark = [&](Clock::time_point now) {
    out.part_s.push_back(seconds_between(last, now));
    if (spans) spans->add("docking.position", last, now, root);
    last = now;
  };
  // MaxDo calls `interrupt` between starting positions: here it only marks
  // the position boundaries and never interrupts.
  program.run(task, out.checkpoint, [&] {
    mark(Clock::now());
    return false;
  });
  const auto t1 = Clock::now();
  mark(t1);
  out.seconds = seconds_between(t0, t1);
  if (spans) spans->close(root, t1);
  report(name, out, steal0);
  return out;
}

/// Docks the slice one (position, rotation) unit at a time, each unit a
/// MaxDoProgram::run of its own (about 1/20 of a position), and assembles
/// the records into the checkpoint one run of the whole slice writes. The
/// short parts let the fastest copy of each (see composite_seconds) come
/// from a quiet moment of the host even when quiet moments are short.
Slice run_units(docking::MaxDoProgram& program, const docking::MaxDoTask& task,
                Spans* spans, const char* name) {
  Slice out;
  const auto t0 = Clock::now();
  Clock::time_point last = t0;
  const double steal0 = steal_seconds();
  const int root = spans ? spans->open(name, t0) : -1;
  for (std::uint32_t isep = task.isep_begin; isep < task.isep_end; ++isep)
    for (std::uint32_t irot = task.irot_begin; irot < task.irot_end; ++irot) {
      docking::MaxDoCheckpoint unit;
      program.run({isep, isep + 1, irot, irot + 1}, unit);
      const auto now = Clock::now();
      out.part_s.push_back(seconds_between(last, now));
      if (spans) spans->add("docking.rotation", last, now, root);
      last = now;
      out.checkpoint.records.insert(out.checkpoint.records.end(),
                                    unit.records.begin(), unit.records.end());
    }
  out.checkpoint.next_isep = task.isep_end;
  out.seconds = seconds_between(t0, last);
  if (spans) spans->close(root, last);
  report(name, out, steal0);
  return out;
}

/// Seconds for the slice assembled from the fastest copy of each part over
/// `runs`: every run docks the same parts bit for bit, so a part is the
/// same work in every run, and its fastest copy drops interference from the
/// rest of the host that hit one run and not another.
double composite_seconds(const std::vector<Slice>& runs) {
  std::vector<double> best = runs.front().part_s;
  for (const Slice& r : runs)
    for (std::size_t i = 0; i < best.size(); ++i)
      best[i] = std::min(best[i], r.part_s[i]);
  return std::accumulate(best.begin(), best.end(), 0.0);
}

std::string bytes(const docking::MaxDoCheckpoint& cp) {
  std::ostringstream os;
  cp.write(os);
  return os.str();
}

bool close_rel(double a, double b) {
  return std::fabs(a - b) <=
         1e-9 * std::max({std::fabs(a), std::fabs(b), 1e-12});
}

}  // namespace

void run_dock_workload(const Options& opt, Sheet& sheet, Spans* spans) {
  // --- set-up: protein generation + the serial program. It takes well
  // under a millisecond, so it is timed many times, three before every
  // slice, so the samples span the whole run and not one instant of the
  // host ---
  std::vector<double> setups;
  auto time_setups = [&](int n) {
    for (int i = 0; i < n; ++i) {
      double s = 0.0;
      set_up(opt, &s, false);
      setups.push_back(s);
    }
  };
  time_setups(10);
  const std::unique_ptr<Couple> couple = set_up(opt, &setups.emplace_back());

  // The slice is two starting positions from --dock-first (a position costs
  // about 0.7 s serial and 0.25 s at 4 threads): a short slice docked many
  // times gives each position many copies to take the fastest of.
  const std::uint32_t nsep = couple->serial->nsep();
  const std::uint32_t count = std::min<std::uint32_t>(nsep, opt.smoke ? 1 : 2);
  docking::MaxDoTask task;
  task.isep_begin = opt.dock_first % (nsep - count + 1);
  task.isep_end = task.isep_begin + count;

  // Runs: threads=1 (the measured side, docked unit by unit), threads=nproc
  // (whole slices), then four at threads=1 and a second at threads=nproc,
  // then threads=1 only, while the next one is expected to fit in
  // --seconds. A time comes from the fastest copy of each part on its side
  // (composite_seconds).
  const auto runs_start = Clock::now();
  std::vector<Slice> par, ser;
  auto dock = [&](bool serial) {
    time_setups(3);
    if (serial)
      ser.push_back(
          run_units(*couple->serial, task, spans, "docking.slice.t1"));
    else
      par.push_back(
          run_slice(*couple->parallel, task, spans, "docking.slice.tn"));
  };
  dock(true);
  dock(false);
  for (;;) {
    const bool one = par.size() >= 2 || ser.size() < 4 * par.size();
    if (seconds_between(runs_start, Clock::now()) +
            (one ? ser : par).back().seconds >
        opt.seconds)
      break;
    dock(one);
  }
  sheet.add("setup_s", median(setups), "s", setups.size());
  sheet.attempted += count * (par.size() + ser.size());  // positions docked
  const double serial_s = composite_seconds(ser);
  const double parallel_s = composite_seconds(par);
  const docking::MaxDoCheckpoint& checkpoint = ser.front().checkpoint;

  // --- correctness ---
  sheet.check(checkpoint.records.size() ==
                  std::size_t{count} * task.rotations(),
              "checkpoint record count");
  const std::string reference = bytes(checkpoint);
  for (const auto* side : {&ser, &par})
    for (const Slice& r : *side)
      sheet.check(bytes(r.checkpoint) == reference,
                  "checkpoints differ between runs or thread counts");
  const docking::MaxDoParams params;
  const auto& records = checkpoint.records;
  const std::size_t samples = std::min<std::size_t>(8, records.size());
  for (std::size_t i = 0; i < samples; ++i) {
    const docking::DockingRecord& r = records[i * records.size() / samples];
    const docking::InteractionEnergy e = docking::interaction_energy(
        couple->receptor, couple->ligand, r.pose.to_transform(), params.energy);
    sheet.check(close_rel(e.lj, r.elj) && close_rel(e.elec, r.eelec),
                "record (isep " + std::to_string(r.isep) + ", irot " +
                    std::to_string(r.irot) + ") does not re-score");
  }

  // --- end-to-end ---
  // threads=nproc swings with the hypervisor's steal on a shared host, so
  // only the serial side is an end-to-end number.
  sheet.add("work_s", serial_s / count, "s", count * ser.size());
  if (!spans) return;

  // --- the workload's own breakdown (traced run) ---
  sheet.detail("docking.serial_positions_per_s", count / serial_s, "1/s",
               count * ser.size());
  sheet.detail("docking.positions_per_s", count / parallel_s, "1/s",
               count * par.size());
  std::vector<double> position_s;
  const std::uint32_t rotations = task.rotations();
  for (const Slice& r : ser)
    for (std::size_t i = 0; i < r.part_s.size(); i += rotations)
      position_s.push_back(std::accumulate(
          r.part_s.begin() + static_cast<std::ptrdiff_t>(i),
          r.part_s.begin() + static_cast<std::ptrdiff_t>(i + rotations),
          0.0));
  sheet.detail("docking.position_s.p50", median(position_s), "s",
               position_s.size());
  sheet.detail("docking.position_s.max", quantile(position_s, 1.0), "s",
               position_s.size());
  const double positions = static_cast<double>(count * ser.size());
  sheet.detail("docking.evals_per_position",
               static_cast<double>(couple->serial->work().evaluations) /
                   positions,
               "count", count * ser.size());
  sheet.detail("docking.parallel_efficiency",
               serial_s / parallel_s / opt.nproc, "ratio");
}

void dock_layer_probes(const Options& opt, Sheet& sheet, Spans* spans) {
  // Poses: the minimised poses of one starting position of the workload's
  // couple, docked at threads=nproc.
  const std::unique_ptr<Couple> couple = set_up(opt);
  docking::MaxDoTask task;
  task.isep_begin = opt.dock_first % couple->parallel->nsep();
  task.isep_end = task.isep_begin + 1;
  const Slice slice =
      run_slice(*couple->parallel, task, spans, "probe.docking.slice");
  sheet.check(slice.checkpoint.records.size() == task.rotations(),
              "probe checkpoint record count");
  const docking::MaxDoParams params;
  const auto& records = slice.checkpoint.records;

  // Engine vs oracle on those poses, per nominal receptor x ligand atom
  // pair.
  std::vector<double> builds;
  std::unique_ptr<docking::DockingEngine> engine;
  for (int i = 0; i < 3; ++i) {
    engine.reset();
    const auto t0 = Clock::now();
    engine = std::make_unique<docking::DockingEngine>(
        couple->receptor, couple->ligand, params.energy, params.engine);
    builds.push_back(seconds_between(t0, Clock::now()));
  }
  sheet.layer("docking.engine_build_s", median(builds), "s", builds.size());
  std::vector<proteins::RigidTransform> poses;
  for (const auto& r : records) poses.push_back(r.pose.to_transform());
  const double pairs_per_eval =
      static_cast<double>(kReceptorAtoms) * kLigandAtoms;
  auto ns_per_pair = [&](int reps, auto&& eval) {
    std::vector<double> per;
    for (int rep = 0; rep < 3; ++rep) {
      double sink = 0.0;
      const auto t0 = Clock::now();
      for (int k = 0; k < reps; ++k)
        for (const auto& p : poses) sink += eval(p);
      const double pairs =
          static_cast<double>(reps) * poses.size() * pairs_per_eval;
      per.push_back(seconds_between(t0, Clock::now()) * 1e9 / pairs);
      energy_sink = sink;
    }
    return median(per);
  };
  docking::DockingEngine::Scratch scratch = engine->make_scratch();
  const int engine_reps = opt.smoke ? 5 : 50;
  sheet.layer("docking.engine_ns_per_pair",
              ns_per_pair(engine_reps,
                          [&](const proteins::RigidTransform& p) {
                            return engine->energy(p, scratch).total();
                          }),
              "ns", std::uint64_t(3) * engine_reps * poses.size());
  sheet.layer("docking.flat_ns_per_pair",
              ns_per_pair(opt.smoke ? 1 : 5,
                          [&](const proteins::RigidTransform& p) {
                            return docking::interaction_energy(
                                       couple->receptor, couple->ligand, p,
                                       params.energy)
                                .total();
                          }),
              "ns", std::uint64_t(3) * (opt.smoke ? 1 : 5) * poses.size());
}

}  // namespace perfbench
