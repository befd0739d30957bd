// T1-comm: reproduce the communication-cost column of Table 1, and gate it.
//
// Paper claim:  MinWork Θ(mn)   vs   DMW Θ(mn^2)   point-to-point messages.
// We run both mechanisms on identical instances, count real encoded
// messages (broadcasts billed as n-1 unicasts, exactly as in the proof of
// Theorem 11), and fit power laws in n (m fixed) and in m (n fixed). The
// fitted exponents are the reproduction of the Θ(...) entries.
//
// Unlike the other T1 benches this one emits BENCH_comm.json: for every
// sweep point the DMW run is traced, its communication ledger
// (net/network.hpp) is collapsed per kind, and each kind is compared
// against the closed-form honest-run expectation of exp/commexpect.hpp.
// Counts are machine-independent, so the checked-in baseline's `gates`
// block holds them with `equal` rules (exact equality), which
// tools/check_bench_regression.py interprets.
//
// Usage: bench_table1_comm [--out FILE] [--quick] [--stdout]
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "dmw/centralized.hpp"
#include "exp/commexpect.hpp"
#include "exp/complexity.hpp"
#include "exp/table.hpp"
#include "support/flags.hpp"
#include "support/json.hpp"
#include "support/logging.hpp"
#include "support/trace.hpp"

namespace {

using dmw::Xoshiro256ss;
using dmw::exp::CommSpec;
using dmw::exp::Table;
using dmw::num::Group64;
using dmw::proto::PublicParams;

constexpr std::size_t kMaxFaulty = 1;

/// One sweep point: the traced DMW ledger per kind, its closed-form
/// expectation, and the MinWork baseline on the same instance.
struct CommPoint {
  std::size_t n = 0;
  std::size_t m = 0;
  std::uint64_t dmw_messages = 0;  ///< p2p equivalents (Thm. 11 billing)
  std::uint64_t dmw_bytes = 0;
  std::uint64_t mw_messages = 0;
  std::uint64_t mw_bytes = 0;
  std::map<std::string, dmw::net::CommCounts> measured;
  std::map<std::string, dmw::net::CommCounts> expected;
  bool conforms = false;
};

CommPoint measure(std::size_t n, std::size_t m, std::uint64_t seed) {
  const auto params = PublicParams<Group64>::make(Group64::test_group(), n, m,
                                                  kMaxFaulty, seed);
  Xoshiro256ss rng(seed * 77 + 1);
  const auto instance =
      dmw::mech::make_uniform_instance(n, m, params.bid_set(), rng);

  CommPoint point;
  point.n = n;
  point.m = m;

  // The paper's cost model (Thm. 11) assumes physically private channels;
  // measure the protocol proper without the optional AEAD layer, with the
  // tracer on so the run exports its ledger.
  dmw::proto::RunConfig config;
  config.encrypt_channels = false;
  dmw::trace::Tracer::instance().set_enabled(true);
  const auto outcome = dmw::proto::run_honest_dmw(params, instance, config);
  dmw::trace::Tracer::instance().set_enabled(false);
  if (outcome.aborted)
    throw std::runtime_error("bench_table1_comm: honest DMW run aborted");
  point.dmw_messages = outcome.traffic.p2p_equivalent_messages;
  point.dmw_bytes = outcome.traffic.p2p_equivalent_bytes;

  const auto spec = dmw::exp::comm_spec_for(params, outcome, config);
  point.measured = dmw::exp::comm_totals_by_kind(outcome.comm);
  point.expected =
      dmw::exp::comm_totals_by_kind(dmw::exp::expected_honest_comm(spec));
  point.conforms = point.measured == point.expected;

  // Measured over the simulated star network (Fig. 1), not hand-counted.
  const auto mw =
      dmw::proto::run_centralized_minwork(dmw::mech::truthful_bids(instance));
  point.mw_messages = mw.traffic.p2p_equivalent_messages;
  point.mw_bytes = mw.traffic.p2p_equivalent_bytes;
  return point;
}

void emit_point(dmw::JsonWriter& json, const CommPoint& point) {
  json.begin_object();
  json.key("n").value(std::uint64_t{point.n});
  json.key("m").value(std::uint64_t{point.m});
  json.key("dmw_messages").value(point.dmw_messages);
  json.key("dmw_bytes").value(point.dmw_bytes);
  json.key("mw_messages").value(point.mw_messages);
  json.key("mw_bytes").value(point.mw_bytes);
  json.begin_array("kinds");
  for (const auto& [kind, counts] : point.measured) {
    const auto it = point.expected.find(kind);
    static const dmw::net::CommCounts kZero{};
    const auto& want = it != point.expected.end() ? it->second : kZero;
    json.begin_object();
    json.key("kind").value(kind);
    json.key("messages").value(counts.messages);
    json.key("wire_bytes").value(counts.wire_bytes);
    json.key("p2p_messages").value(counts.p2p_messages);
    json.key("p2p_bytes").value(counts.p2p_bytes);
    json.key("expected_messages").value(want.messages);
    json.key("expected_wire_bytes").value(want.wire_bytes);
    json.key("expected_p2p_messages").value(want.p2p_messages);
    json.key("expected_p2p_bytes").value(want.p2p_bytes);
    json.key("conforms").value(counts == want);
    json.end_object();
  }
  json.end_array();
  json.key("conforms").value(point.conforms);
  json.end_object();
}

void print_table(const char* title, const std::vector<CommPoint>& points) {
  std::printf("%s\n", title);
  Table table({"n", "m", "DMW msgs", "DMW bytes", "MinWork msgs",
               "MinWork bytes", "msg ratio", "ledger"});
  for (const auto& p : points) {
    table.row({Table::num(p.n), Table::num(p.m), Table::num(p.dmw_messages),
               Table::num(p.dmw_bytes), Table::num(p.mw_messages),
               Table::num(p.mw_bytes),
               Table::num(static_cast<double>(p.dmw_messages) /
                          static_cast<double>(p.mw_messages)),
               p.conforms ? "exact" : "DRIFT"});
  }
  table.print();
}

}  // namespace

int main(int argc, char** argv) try {
  dmw::Logger::instance().set_level(dmw::LogLevel::kInfo);
  dmw::Flags flags(argc, argv, {"out", "quick!", "stdout!", "help!"});
  const std::string out_path = flags.get_string("out", "BENCH_comm.json");
  const bool quick = flags.get_bool("quick");
  const bool to_stdout = flags.get_bool("stdout");
  if (flags.get_bool("help")) {
    std::puts("bench_table1_comm [--out FILE] [--quick] [--stdout]");
    return 0;
  }

  // ---- sweep n at fixed m, then m at fixed n ----
  const std::size_t m_fixed = 4;
  const std::size_t n_fixed = 12;
  const std::vector<std::size_t> ns =
      quick ? std::vector<std::size_t>{4, 6, 8}
            : std::vector<std::size_t>{4, 6, 8, 12, 16, 24, 32};
  const std::vector<std::size_t> ms = quick
                                          ? std::vector<std::size_t>{1, 2, 4}
                                          : std::vector<std::size_t>{1, 2, 4,
                                                                     8, 16};

  bool all_conform = true;
  std::vector<CommPoint> by_n, by_m;
  std::vector<double> xs, dmw_n, mw_n, xm, dmw_m;
  for (const std::size_t n : ns) {
    by_n.push_back(measure(n, m_fixed, 1000 + n));
    all_conform = all_conform && by_n.back().conforms;
    xs.push_back(static_cast<double>(n));
    dmw_n.push_back(static_cast<double>(by_n.back().dmw_messages));
    mw_n.push_back(static_cast<double>(by_n.back().mw_messages));
  }
  for (const std::size_t m : ms) {
    by_m.push_back(measure(n_fixed, m, 2000 + m));
    all_conform = all_conform && by_m.back().conforms;
    xm.push_back(static_cast<double>(m));
    dmw_m.push_back(static_cast<double>(by_m.back().dmw_messages));
  }
  const auto fit_dmw_n = dmw::exp::fit_scaling(xs, dmw_n);
  const auto fit_mw_n = dmw::exp::fit_scaling(xs, mw_n);
  const auto fit_dmw_m = dmw::exp::fit_scaling(xm, dmw_m);

  if (!to_stdout) {
    std::printf("== Table 1 (communication): MinWork vs DMW ==\n");
    std::printf("paper claim: MinWork Theta(mn), DMW Theta(mn^2) messages\n\n");
    print_table("-- sweep n --", by_n);
    std::printf("\nfit messages ~ n^k at m=%zu:\n", m_fixed);
    std::printf("  DMW     measured k = %.2f (claimed 2.00, R^2 = %.3f)\n",
                fit_dmw_n.exponent, fit_dmw_n.r_squared);
    std::printf("  MinWork measured k = %.2f (claimed 1.00, R^2 = %.3f)\n\n",
                fit_mw_n.exponent, fit_mw_n.r_squared);
    print_table("-- sweep m --", by_m);
    std::printf("\nfit messages ~ m^k at n=%zu:\n", n_fixed);
    std::printf("  DMW     measured k = %.2f (claimed 1.00, R^2 = %.3f)\n",
                fit_dmw_m.exponent, fit_dmw_m.r_squared);
    std::printf("\nledger conformance vs closed form: %s\n",
                all_conform ? "exact on every sweep point" : "DRIFTED");
  }

  dmw::JsonWriter json;
  json.begin_object();
  json.key("bench").value("comm");
  json.key("schema_version").value(std::uint64_t{1});
  json.key("group").value("Group64 (test group)");
  json.key("c").value(std::uint64_t{kMaxFaulty});
  json.key("encrypt_channels").value(false);
  json.key("quick").value(quick);
  json.key("m_fixed").value(std::uint64_t{m_fixed});
  json.key("n_fixed").value(std::uint64_t{n_fixed});
  json.begin_array("sweep_n");
  for (const auto& point : by_n) emit_point(json, point);
  json.end_array();
  json.begin_array("sweep_m");
  for (const auto& point : by_m) emit_point(json, point);
  json.end_array();
  json.key("fits");
  json.begin_object();
  json.key("dmw_n_exponent").value(fit_dmw_n.exponent);
  json.key("dmw_n_r2").value(fit_dmw_n.r_squared);
  json.key("mw_n_exponent").value(fit_mw_n.exponent);
  json.key("mw_n_r2").value(fit_mw_n.r_squared);
  json.key("dmw_m_exponent").value(fit_dmw_m.exponent);
  json.key("dmw_m_r2").value(fit_dmw_m.r_squared);
  json.end_object();
  json.key("all_conform").value(all_conform);
  json.end_object();

  const std::string text = json.str() + "\n";
  if (to_stdout) {
    std::fputs(text.c_str(), stdout);
  } else {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      DMW_ERROR() << "bench_table1_comm: cannot open " << out_path;
      return 1;
    }
    std::fputs(text.c_str(), f);
    std::fclose(f);
    DMW_INFO() << "bench_table1_comm: wrote " << out_path;
  }
  return all_conform ? 0 : 1;
} catch (const std::exception& error) {
  DMW_ERROR() << error.what()
              << " (usage: bench_table1_comm [--out FILE] [--quick] "
                 "[--stdout])";
  return 1;
}
