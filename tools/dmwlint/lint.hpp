// dmwlint — repo-specific static analysis for the DMW codebase.
//
// Token/regex-level analysis over the source tree (no compiler dependency).
// The rules encode invariants the rest of the repo only states in comments:
//
//   naive-call       *_naive exponentiation paths are differential oracles
//                    and ablation baselines only; a fast-path caller reaching
//                    one silently breaks the Thm. 12 op-count accounting.
//   secret-sink      a Secret<T>/AeadKey identifier may reach a logging /
//                    JSON / serialization / stdio sink only through an
//                    explicit reveal() — the Thm. 10 privacy choke point.
//   ct-branch        no data-dependent if/ternary/short-circuit inside
//                    regions tagged `// dmwlint: constant-time` (ct_eq, the
//                    ChaCha20 and SHA-256 kernels).
//   banned-pattern   rand()/srand() (use support/rng.hpp), raw assert()
//                    (use DMW_CHECK), unordered containers in protocol-
//                    visible code (iteration order leaks into transcripts),
//                    raw std::cerr / fprintf(stderr, ...) outside the logger.
//   raw-thread       no std::thread / std::async / latch / semaphore /
//                    detach() in src/dmw or src/exp (all parallelism goes
//                    through support/thread_pool.hpp, whose deterministic
//                    sharding keeps parallel runs bit-identical to
//                    sequential ones); and, across all of src/, no raw
//                    std::mutex / condition_variable / lock_guard /
//                    unique_lock — locking goes through the capability-
//                    annotated dmw::Mutex / MutexLock / CondVar wrappers
//                    (support/annotations.hpp) so the -Wthread-safety CI
//                    job can see every lock.
//   loop-inverse     no inv()/sinv()/mod_inv() inside a loop body in
//                    src/dmw or src/poly: hoist and batch_inverse()
//                    (Montgomery's trick).
//   include-hygiene  headers carry #pragma once, no "../" includes, no
//                    `using namespace std`, no <iostream> in the library.
//   raw-clock        no direct std::chrono / clock_gettime reads (or
//                    <chrono> includes) outside support/stopwatch.hpp and
//                    support/trace.{hpp,cpp}: all timing shares the one
//                    run-relative clock the exporters and determinism
//                    gates observe.
//   guarded-member   a class declaring a mutex must annotate every mutable
//                    member with DMW_GUARDED_BY (or be const / static /
//                    atomic / a lock type, or state its discipline in an
//                    allow comment) — keeps the capability model complete
//                    even on compilers that ignore the attributes.
//   thread-id-sink   no std::this_thread::get_id() anywhere, and no worker
//                    id / hardware_concurrency in the same statement as a
//                    transcript/report sink: outputs are byte-identical
//                    across thread counts by contract.
//   raw-send         a SimNetwork send()/publish() whose kind argument is a
//                    bare integer literal (outside tests/) bypasses the
//                    registered kind vocabulary the traffic ledger,
//                    per-kind counters and comm-conformance gates key on:
//                    pass a proto::MsgKind / CentralMsg cast or a named,
//                    register_comm_kind'd constant.
//   bad-allow        a dmwlint:allow(...) naming an unknown rule slug is a
//                    typo that suppresses nothing; flag it.
//
// Any finding is suppressed by `// dmwlint:allow(<rule>)` on the same line,
// or on a comment-only line in the comment block above it (blank lines
// between the comment and the code are fine; the upward walk stops at the
// first line containing code). One allow may name several rules,
// comma-separated: `dmwlint:allow(raw-clock, raw-thread)`. See
// docs/dmwlint.md.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace dmwlint {

struct Finding {
  std::string file;    ///< path as given to the linter
  std::size_t line;    ///< 1-based line number
  std::string rule;    ///< rule slug, e.g. "naive-call"
  std::string message; ///< human-readable explanation
};

/// All rule slugs the linter knows, in reporting order.
const std::vector<std::string>& rule_names();

/// Lint one file's contents. `path` drives path-based scoping: findings of
/// some rules are not produced for tests/, bench/ or fixture paths.
std::vector<Finding> lint_file(const std::string& path,
                               std::string_view text);

/// Read and lint one file from disk. Missing files yield a single
/// pseudo-finding with rule "io-error".
std::vector<Finding> lint_path(const std::string& path);

/// Recursively lint the repo tree rooted at `root`: src/, tools/, examples/,
/// tests/ and bench/, extensions .hpp/.cpp/.h/.cc, skipping any path with a
/// `fixtures` component (seeded-violation corpora) and build directories.
std::vector<Finding> lint_tree(const std::string& root);

/// Expected-finding markers for the fixture self-test: every line comment
/// `// EXPECT: <rule>` in `text` names a rule that must fire on that line.
struct Expectation {
  std::size_t line;
  std::string rule;
};
std::vector<Expectation> parse_expectations(std::string_view text);

/// Render a finding as "path:line: [rule] message".
std::string to_string(const Finding& finding);

}  // namespace dmwlint
