// F2-phases: the message-sequence chart of Fig. 2 as a measured table.
//
// One honest run; per-phase breakdown of unicasts, broadcasts,
// point-to-point-equivalent traffic, modular operations and wall time.
// The shape to reproduce: Phase II dominates unicasts (share distribution),
// Phase III dominates computation (verification + resolution), Phase IV is
// negligible.
//
// All numbers come from dmwtrace (support/trace.hpp): the run is traced and
// the tables below are printed straight from its RunReport — the same
// export `dmw_sim --metrics-out` writes and CI gates — rather than from
// ad-hoc stopwatches. The span table breaks Phase III down further into the
// per-task compute steps of the paper's equations.
//
// The same run is repeated on the task-parallel engine as a cross-check:
// per-phase mod-op counts and traffic must be identical (the profile is a
// property of the protocol, not of the execution engine).
#include <algorithm>
#include <cstdio>

#include "dmw/protocol.hpp"
#include "exp/table.hpp"
#include "support/trace.hpp"

int main() {
  using dmw::exp::Table;
  using dmw::num::Group64;

  const std::size_t n = 12, m = 4;
  auto params =
      dmw::proto::PublicParams<Group64>::make(Group64::test_group(), n, m, 2,
                                              77);
  params.set_tracing(true);
  dmw::trace::Tracer::instance().reset();
  dmw::Xoshiro256ss rng(78);
  const auto instance =
      dmw::mech::make_uniform_instance(n, m, params.bid_set(), rng);

  std::printf("== Fig. 2 reproduction: per-phase protocol profile ==\n");
  std::printf("%s\n", params.describe().c_str());
  const auto outcome = dmw::proto::run_honest_dmw(params, instance);
  if (outcome.aborted) {
    std::printf("unexpected abort: %s\n",
                to_string(outcome.abort_record->reason));
    return 1;
  }
  const auto report = dmw::proto::make_run_report(params, outcome);

  Table table({"phase", "unicasts", "broadcasts", "p2p-equiv msgs",
               "p2p-equiv bytes", "mod-ops", "ms"});
  for (const auto& phase : report.phases) {
    table.row({phase.name, Table::num(phase.unicasts),
               Table::num(phase.broadcasts), Table::num(phase.p2p_messages),
               Table::num(phase.p2p_bytes), Table::num(phase.ops.total()),
               Table::num(static_cast<double>(phase.wall_ns) * 1e-6)});
  }
  table.print();

  std::printf("\ntotals: %llu p2p-equivalent messages, %llu bytes, %llu "
              "rounds\n",
              static_cast<unsigned long long>(
                  outcome.traffic.p2p_equivalent_messages),
              static_cast<unsigned long long>(
                  outcome.traffic.p2p_equivalent_bytes),
              static_cast<unsigned long long>(outcome.rounds));
  std::printf("schedule: %s\n", outcome.schedule.describe().c_str());
  std::printf("payments:");
  for (auto p : outcome.payments)
    std::printf(" %llu", static_cast<unsigned long long>(p));
  std::printf("\nbroadcast transcript consistent: %s\n",
              outcome.transcripts_consistent ? "yes" : "NO");

  // Phase III under the microscope: the hottest spans by total wall time.
  auto spans = report.spans;
  std::sort(spans.begin(), spans.end(), [](const auto& a, const auto& b) {
    return a.total_ns > b.total_ns;
  });
  if (spans.size() > 10) spans.resize(10);
  std::printf("\nhottest spans:\n");
  Table span_table({"span", "count", "total ms", "mod-ops"});
  for (const auto& span : spans) {
    span_table.row({span.name, Table::num(span.count),
                    Table::num(static_cast<double>(span.total_ns) * 1e-6),
                    Table::num(span.ops.total())});
  }
  span_table.print();

  std::printf("\ncounters:\n");
  for (const auto& [name, value] : report.counters)
    std::printf("  %-28s %llu\n", name.c_str(),
                static_cast<unsigned long long>(value));

  const auto parallel =
      dmw::proto::run_parallel_dmw(params, instance, /*threads=*/4);
  bool profile_matches = !parallel.aborted &&
                         parallel.schedule == outcome.schedule &&
                         parallel.payments == outcome.payments;
  for (std::size_t i = 0; i < outcome.phases.size(); ++i) {
    profile_matches =
        profile_matches &&
        parallel.phases[i].ops.total() == outcome.phases[i].ops.total() &&
        parallel.phases[i].stats.p2p_equivalent_bytes ==
            outcome.phases[i].stats.p2p_equivalent_bytes;
  }
  std::printf("task-parallel engine (4 workers) reproduces profile: %s\n",
              profile_matches ? "yes" : "NO");
  return profile_matches ? 0 : 1;
}
