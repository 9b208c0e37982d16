// Unit tests for the detlint determinism/protocol-invariant analyzer.
//
// Every hazard snippet lives inside a C++ string literal, which the
// scanner blanks before matching — so this file itself lints clean even
// though it spells out each forbidden construct.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "detlint.hpp"

namespace {

using detlint::Finding;
using detlint::Severity;
using detlint::lint_content;

bool has_rule(const std::vector<Finding>& fs, const std::string& rule) {
  return std::any_of(fs.begin(), fs.end(), [&](const Finding& f) { return f.rule == rule; });
}

int line_of(const std::vector<Finding>& fs, const std::string& rule) {
  for (const Finding& f : fs) {
    if (f.rule == rule) return f.line;
  }
  return -1;
}

// --- unordered-container -------------------------------------------------------

TEST(DetlintTest, UnorderedContainerFlaggedInProtocolLayer) {
  const std::string src = "#include <unordered_map>\n"
                          "std::unordered_map<int, int> m_;\n";
  const auto fs = lint_content("src/net/network.hpp", src);
  ASSERT_TRUE(has_rule(fs, "unordered-container"));
  EXPECT_EQ(line_of(fs, "unordered-container"), 2);
}

TEST(DetlintTest, UnorderedContainerAllowedOutsideProtocolLayers) {
  const std::string src = "std::unordered_map<int, int> m_;\n";
  EXPECT_FALSE(has_rule(lint_content("src/app/kv_store.hpp", src), "unordered-container"));
  EXPECT_FALSE(has_rule(lint_content("tests/foo_test.cpp", src), "unordered-container"));
}

TEST(DetlintTest, AllProtocolLayersCovered) {
  const std::string src = "std::unordered_set<int> s_;\n";
  for (const char* dir : {"src/net/a.hpp", "src/sim/a.hpp", "src/totem/a.hpp", "src/gcs/a.hpp",
                          "src/replication/a.hpp", "src/cts/a.hpp"}) {
    EXPECT_TRUE(has_rule(lint_content(dir, src), "unordered-container")) << dir;
  }
}

// --- wall-clock ----------------------------------------------------------------

TEST(DetlintTest, WallClockCallsFlagged) {
  EXPECT_TRUE(has_rule(lint_content("src/app/a.cpp",
                                    "auto t = std::chrono::system_clock::now();\n"),
                       "wall-clock"));
  EXPECT_TRUE(has_rule(lint_content("src/app/a.cpp", "steady_clock::now();\n"), "wall-clock"));
  EXPECT_TRUE(has_rule(lint_content("src/app/a.cpp", "gettimeofday(&tv, nullptr);\n"),
                       "wall-clock"));
  EXPECT_TRUE(has_rule(lint_content("src/app/a.cpp", "auto t = time(nullptr);\n"), "wall-clock"));
  EXPECT_TRUE(has_rule(lint_content("src/app/a.cpp", "clock_gettime(CLOCK_REALTIME, &ts);\n"),
                       "wall-clock"));
}

TEST(DetlintTest, SimulatedFacadeCallsNotFlagged) {
  // Member access through the TimeSyscalls facade is the sanctioned path.
  EXPECT_FALSE(has_rule(lint_content("src/app/a.cpp", "auto now = co_await sys_.gettimeofday();\n"),
                        "wall-clock"));
  EXPECT_FALSE(
      has_rule(lint_content("src/app/a.cpp", "auto now = sys->clock_gettime();\n"), "wall-clock"));
  // Identifier suffixes are not calls.
  EXPECT_FALSE(has_rule(lint_content("src/app/a.cpp", "run_time(5);\n"), "wall-clock"));
}

TEST(DetlintTest, ObsExportPathsExemptFromWallClock) {
  EXPECT_FALSE(has_rule(lint_content("src/obs/recorder.cpp",
                                     "auto t = std::chrono::system_clock::now();\n"),
                        "wall-clock"));
}

// --- raw-random ----------------------------------------------------------------

TEST(DetlintTest, RawRandomnessFlaggedOutsideRngHome) {
  EXPECT_TRUE(has_rule(lint_content("src/app/a.cpp", "int x = std::rand();\n"), "raw-random"));
  EXPECT_TRUE(has_rule(lint_content("src/app/a.cpp", "std::random_device rd;\n"), "raw-random"));
  EXPECT_TRUE(has_rule(lint_content("src/app/a.cpp", "std::mt19937_64 gen(seed);\n"),
                       "raw-random"));
  EXPECT_FALSE(has_rule(lint_content("src/common/rng.hpp", "std::random_device rd;\n"),
                        "raw-random"));
}

// --- side-effect-assert --------------------------------------------------------

TEST(DetlintTest, SideEffectAssertFlagged) {
  EXPECT_TRUE(has_rule(lint_content("src/totem/a.cpp", "assert(++count > 0);\n"),
                       "side-effect-assert"));
  EXPECT_TRUE(has_rule(lint_content("src/totem/a.cpp", "assert(m.insert(k).second);\n"),
                       "side-effect-assert"));
  EXPECT_TRUE(
      has_rule(lint_content("src/totem/a.cpp", "assert(x = compute());\n"), "side-effect-assert"));
}

TEST(DetlintTest, PureAssertsNotFlagged) {
  EXPECT_FALSE(has_rule(lint_content("src/totem/a.cpp", "assert(t >= now_);\n"),
                        "side-effect-assert"));
  EXPECT_FALSE(has_rule(lint_content("src/totem/a.cpp", "assert(it != m.end());\n"),
                        "side-effect-assert"));
  EXPECT_FALSE(has_rule(lint_content("src/totem/a.cpp",
                                     "assert(a == b && \"message text\");\n"),
                        "side-effect-assert"));
  // static_assert is compile-time; it cannot vanish at runtime.
  EXPECT_FALSE(has_rule(lint_content("src/totem/a.cpp", "static_assert(sizeof(T) == 8);\n"),
                        "side-effect-assert"));
}

TEST(DetlintTest, MultiLineAssertArgumentIsJoined) {
  const std::string src = "assert(very_long_condition_one &&\n"
                          "       container.erase(k) == 1);\n";
  EXPECT_TRUE(has_rule(lint_content("src/totem/a.cpp", src), "side-effect-assert"));
}

// --- type-pun ------------------------------------------------------------------

TEST(DetlintTest, TypePunningFlaggedOutsideBytesCodec) {
  EXPECT_TRUE(has_rule(lint_content("src/totem/a.cpp", "std::memcpy(&v, p, 4);\n"), "type-pun"));
  EXPECT_TRUE(has_rule(lint_content("src/app/a.cpp",
                                    "auto* p = reinterpret_cast<const char*>(data);\n"),
                       "type-pun"));
  EXPECT_FALSE(has_rule(lint_content("src/common/bytes.hpp", "std::memcpy(&v, p, 4);\n"),
                        "type-pun"));
}

// --- float-compare -------------------------------------------------------------

TEST(DetlintTest, FloatEqualityFlagged) {
  EXPECT_TRUE(has_rule(lint_content("src/clock/a.cpp", "if (drift == 0.0) return;\n"),
                       "float-compare"));
  EXPECT_TRUE(has_rule(lint_content("src/clock/a.cpp", "bool same = 1.5f == ratio;\n"),
                       "float-compare"));
  EXPECT_FALSE(has_rule(lint_content("src/clock/a.cpp", "if (count == 0) return;\n"),
                        "float-compare"));
  EXPECT_FALSE(has_rule(lint_content("src/clock/a.cpp", "if (x >= 0.5) return;\n"),
                        "float-compare"));
}

// --- pointer-key ---------------------------------------------------------------

TEST(DetlintTest, PointerKeyedContainersFlagged) {
  const std::string src = "std::map<Replica*, int> owners_;\n";
  const auto protocol = lint_content("src/replication/a.hpp", src);
  ASSERT_TRUE(has_rule(protocol, "pointer-key"));
  for (const Finding& f : protocol) {
    if (f.rule == "pointer-key") {
      EXPECT_EQ(f.severity, Severity::kError);
    }
  }
  const auto app = lint_content("src/app/a.hpp", src);
  ASSERT_TRUE(has_rule(app, "pointer-key"));
  for (const Finding& f : app) {
    if (f.rule == "pointer-key") {
      EXPECT_EQ(f.severity, Severity::kWarning);
    }
  }
}

// --- heap-callback -------------------------------------------------------------

TEST(DetlintTest, HeapCallbackFlaggedInHotPathLayers) {
  const std::string src = "std::function<void()> cb_;\n";
  for (const char* dir : {"src/sim/a.hpp", "src/net/a.hpp"}) {
    const auto fs = lint_content(dir, src);
    ASSERT_TRUE(has_rule(fs, "heap-callback")) << dir;
    EXPECT_EQ(line_of(fs, "heap-callback"), 1) << dir;
    for (const Finding& f : fs) {
      if (f.rule == "heap-callback") {
        EXPECT_EQ(f.severity, Severity::kWarning);  // advisory, not gating
      }
    }
  }
}

TEST(DetlintTest, HeapCallbackNotFlaggedOutsideHotPathLayers) {
  const std::string src = "std::function<void()> cb_;\n";
  EXPECT_FALSE(has_rule(lint_content("src/totem/a.hpp", src), "heap-callback"));
  EXPECT_FALSE(has_rule(lint_content("src/app/a.hpp", src), "heap-callback"));
  EXPECT_FALSE(has_rule(lint_content("tests/a_test.cpp", src), "heap-callback"));
  // Identifier suffixes are not the type.
  EXPECT_FALSE(has_rule(lint_content("src/sim/a.hpp", "my_function(1);\n"), "heap-callback"));
}

TEST(DetlintTest, HeapCallbackSuppressible) {
  const std::string src = "using Handler = std::function<void(int)>;  "
                          "// detlint:allow(heap-callback): bound once at attach time\n";
  EXPECT_TRUE(lint_content("src/net/a.hpp", src).empty());
}

// --- scoped-timer --------------------------------------------------------------

TEST(DetlintTest, DirectSimSchedulingFlaggedInNodeLayers) {
  for (const char* dir : {"src/totem/a.cpp", "src/gcs/a.cpp", "src/replication/a.cpp",
                          "src/orb/a.cpp", "src/cts/a.hpp", "src/app/a.hpp"}) {
    const auto fs = lint_content(dir, "sim_.after(10, [this] { tick(); });\n");
    ASSERT_TRUE(has_rule(fs, "scoped-timer")) << dir;
    for (const Finding& f : fs) {
      if (f.rule == "scoped-timer") {
        EXPECT_EQ(f.severity, Severity::kWarning);  // advisory, not gating
      }
    }
  }
  // All the spellings a node layer reaches the simulator by.
  EXPECT_TRUE(has_rule(lint_content("src/cts/a.hpp", "svc.simulator().after(0, cb);\n"),
                       "scoped-timer"));
  EXPECT_TRUE(has_rule(lint_content("src/cts/a.hpp", "sim_.at(deadline, cb);\n"), "scoped-timer"));
  EXPECT_TRUE(has_rule(lint_content("src/app/a.cpp", "co_await ctx_.sim.delay(5);\n"),
                       "scoped-timer"));
  EXPECT_TRUE(has_rule(lint_content("src/totem/a.cpp", "sim_.reschedule(ev, t);\n"),
                       "scoped-timer"));
}

TEST(DetlintTest, ScopedSchedulingNotFlagged) {
  // The sanctioned path: the node's lifecycle scope.
  EXPECT_FALSE(has_rule(lint_content("src/totem/a.cpp", "scope_.after(10, cb);\n"),
                        "scoped-timer"));
  EXPECT_FALSE(has_rule(lint_content("src/cts/a.hpp", "svc.scope().after(0, cb);\n"),
                        "scoped-timer"));
  EXPECT_FALSE(has_rule(lint_content("src/app/a.cpp",
                                     "co_await ctx_.time.scope().delay(5);\n"),
                        "scoped-timer"));
  // Non-scheduling simulator reads stay legal.
  EXPECT_FALSE(has_rule(lint_content("src/totem/a.cpp", "const Micros t = sim_.now();\n"),
                        "scoped-timer"));
}

TEST(DetlintTest, DirectSimSchedulingAllowedOutsideNodeLayers) {
  const std::string src = "sim_.after(10, cb);\n";
  // src/net schedules on the destination's scope internally; src/sim owns
  // the primitive; baselines and storage model node-independent hardware.
  EXPECT_FALSE(has_rule(lint_content("src/net/network.cpp", src), "scoped-timer"));
  EXPECT_FALSE(has_rule(lint_content("src/sim/task_scope.hpp", src), "scoped-timer"));
  EXPECT_FALSE(has_rule(lint_content("src/baseline/a.cpp", src), "scoped-timer"));
  EXPECT_FALSE(has_rule(lint_content("src/storage/a.hpp", src), "scoped-timer"));
  EXPECT_FALSE(has_rule(lint_content("tests/a_test.cpp", src), "scoped-timer"));
}

TEST(DetlintTest, ScopedTimerSuppressible) {
  const std::string src =
      "sim_.after(10, cb);  // detlint:allow(scoped-timer): node-independent hardware model\n";
  EXPECT_TRUE(lint_content("src/cts/a.hpp", src).empty());
}

// --- comment/string awareness --------------------------------------------------

TEST(DetlintTest, CommentsAndStringsAreNotCode) {
  EXPECT_TRUE(lint_content("src/net/a.hpp", "// std::unordered_map<int,int> old;\n").empty());
  EXPECT_TRUE(lint_content("src/net/a.hpp",
                           "/* std::unordered_map<int,int>\n   spans lines */\n")
                  .empty());
  EXPECT_TRUE(
      lint_content("src/net/a.hpp", "const char* s = \"std::unordered_map\";\n").empty());
}

TEST(DetlintTest, DigitSeparatorsDoNotStartCharLiterals) {
  // 5'000 must not open a char literal that swallows the hazard after it.
  const std::string src = "sim.after(5'000, [] { std::rand(); });\n";
  EXPECT_TRUE(has_rule(lint_content("src/app/a.cpp", src), "raw-random"));
}

// --- suppressions --------------------------------------------------------------

TEST(DetlintTest, SameLineSuppressionWithJustification) {
  const std::string src = "std::unordered_map<int, int> idx_;  "
                          "// detlint:allow(unordered-container): never iterated\n";
  EXPECT_TRUE(lint_content("src/net/a.hpp", src).empty());
}

TEST(DetlintTest, PrecedingCommentSuppressionCoversNextCodeLine) {
  const std::string src = "// detlint:allow(unordered-container): membership test only,\n"
                          "// never iterated so hash order cannot leak.\n"
                          "std::unordered_set<int> seen_;\n";
  EXPECT_TRUE(lint_content("src/sim/a.hpp", src).empty());
}

TEST(DetlintTest, BareSuppressionIsAnError) {
  const std::string src = "std::unordered_map<int, int> idx_;  "
                          "// detlint:allow(unordered-container)\n";
  const auto fs = lint_content("src/net/a.hpp", src);
  EXPECT_TRUE(has_rule(fs, "bare-suppression"));
  EXPECT_FALSE(has_rule(fs, "unordered-container"));  // still suppresses
}

TEST(DetlintTest, UnusedSuppressionIsAWarning) {
  const std::string src = "// detlint:allow(wall-clock): stale justification\n"
                          "int x = 1;\n";
  const auto fs = lint_content("src/app/a.cpp", src);
  ASSERT_TRUE(has_rule(fs, "unused-suppression"));
  EXPECT_EQ(fs.front().severity, Severity::kWarning);
}

TEST(DetlintTest, SuppressionOnlySilencesItsOwnRule) {
  const std::string src = "std::unordered_map<int, int> m_;  "
                          "// detlint:allow(wall-clock): wrong rule named\n";
  const auto fs = lint_content("src/net/a.hpp", src);
  EXPECT_TRUE(has_rule(fs, "unordered-container"));
  EXPECT_TRUE(has_rule(fs, "unused-suppression"));
}

// --- raw strings & splices (v2 stripper) ---------------------------------------

TEST(DetlintTest, RawStringContentsAreNotCode) {
  EXPECT_TRUE(lint_content("src/net/a.hpp",
                           "const char* s = R\"(std::unordered_map<int,int> g;)\";\n")
                  .empty());
  // Multi-line raw string: the hazard spans lines inside the literal.
  const std::string src = "const char* doc = R\"doc(\n"
                          "std::unordered_map<int, int> global_table;\n"
                          "std::rand();\n"
                          ")doc\";\n";
  EXPECT_TRUE(lint_content("src/net/a.hpp", src).empty());
}

TEST(DetlintTest, CodeAfterRawStringOnSameLineIsStillCode) {
  const std::string src =
      "emit(R\"(text)\"); std::unordered_map<int, int> live_map;\n";
  const auto fs = lint_content("src/net/a.hpp", src);
  EXPECT_TRUE(has_rule(fs, "unordered-container"));
}

TEST(DetlintTest, QuoteInsideRawStringDoesNotOpenALiteral) {
  // The `"` inside the raw string must not swallow the hazard after it.
  const std::string src = "const char* s = R\"(say \"hi\")\"; std::rand();\n";
  EXPECT_TRUE(has_rule(lint_content("src/app/a.cpp", src), "raw-random"));
}

TEST(DetlintTest, SplicedLineCommentHidesTheNextLine) {
  // A `//` comment ending in a backslash splices onto the next physical
  // line, so the "code" there is still comment text.
  const std::string src = "// hazard disabled: \\\n"
                          "std::unordered_map<int, int> g;\n";
  EXPECT_TRUE(lint_content("src/net/a.hpp", src).empty());
}

TEST(DetlintTest, SplicedStringLiteralIsNotCode) {
  const std::string src = "const char* s = \"std::unordered_map \\\n"
                          "<int,int> g;\";\n";
  EXPECT_TRUE(lint_content("src/net/a.hpp", src).empty());
}

// --- static-mutable-state (v2) -------------------------------------------------

TEST(DetlintTest, NamespaceScopeMutableStateFlaggedInHazardLayers) {
  const auto fs = lint_content("src/gcs/a.cpp", "static int g_total = 0;\n");
  ASSERT_TRUE(has_rule(fs, "static-mutable-state"));
  EXPECT_EQ(line_of(fs, "static-mutable-state"), 1);
  // A plain (non-static) global is just as shared.
  EXPECT_TRUE(has_rule(lint_content("src/totem/a.cpp", "int g_rounds;\n"),
                       "static-mutable-state"));
  // Inside a named namespace too.
  const std::string ns = "namespace cts::gcs {\n"
                         "static std::vector<int> g_pending;\n"
                         "}\n";
  EXPECT_TRUE(has_rule(lint_content("src/gcs/b.cpp", ns), "static-mutable-state"));
}

TEST(DetlintTest, ImmutableOrThreadSafeStateNotFlagged) {
  EXPECT_TRUE(lint_content("src/gcs/a.cpp", "static const int kMax = 8;\n").empty());
  EXPECT_TRUE(lint_content("src/gcs/a.cpp", "constexpr int kBits = 3;\n").empty());
  EXPECT_TRUE(lint_content("src/gcs/a.cpp", "static thread_local int t_depth = 0;\n").empty());
  EXPECT_TRUE(lint_content("src/gcs/a.cpp", "static std::once_flag g_once;\n").empty());
  EXPECT_TRUE(lint_content("src/gcs/a.cpp", "static std::mutex g_lock;\n").empty());
  // Non-hazard layers keep their globals (the parallel simulator does not
  // run them on worker threads).
  EXPECT_FALSE(has_rule(lint_content("tools/ctsim/main.cpp", "static int g_verbose = 0;\n"),
                        "static-mutable-state"));
  EXPECT_FALSE(has_rule(lint_content("tests/a_test.cpp", "static int g_calls = 0;\n"),
                        "static-mutable-state"));
}

TEST(DetlintTest, ClassStaticMutableMemberFlagged) {
  const std::string src = "class Endpoint {\n"
                          "  static int live_count_;\n"
                          "};\n";
  const auto fs = lint_content("src/gcs/a.hpp", src);
  ASSERT_TRUE(has_rule(fs, "static-mutable-state"));
  EXPECT_EQ(line_of(fs, "static-mutable-state"), 2);
  // Per-instance members are fine.
  EXPECT_TRUE(lint_content("src/gcs/a.hpp", "class E {\n  int count_ = 0;\n};\n").empty());
  // constexpr class statics are immutable.
  EXPECT_TRUE(
      lint_content("src/gcs/a.hpp", "class E {\n  static constexpr int kMax = 4;\n};\n").empty());
}

TEST(DetlintTest, FunctionLocalStaticFlagged) {
  const std::string src = "int next_id() {\n"
                          "  static int counter = 0;\n"
                          "  return ++counter;\n"
                          "}\n";
  const auto fs = lint_content("src/cts/a.cpp", src);
  ASSERT_TRUE(has_rule(fs, "static-local"));
  EXPECT_EQ(line_of(fs, "static-local"), 2);
  // A static lookup table is const: initialized once, read forever.
  const std::string table = "int classify(int x) {\n"
                            "  static const std::set<int> kSpecial = {1, 2};\n"
                            "  return kSpecial.count(x);\n"
                            "}\n";
  EXPECT_TRUE(lint_content("src/cts/a.cpp", table).empty());
}

TEST(DetlintTest, StaticMutableStateSuppressible) {
  const std::string src = "static int g_epoch = 0;  "
                          "// detlint:allow(static-mutable-state): guarded by init-once barrier\n";
  EXPECT_TRUE(lint_content("src/gcs/a.cpp", src).empty());
}

// --- global-in-callback (v2 cross-file pass) -----------------------------------

TEST(DetlintTest, GlobalReferencedFromHazardLayerWarns) {
  const std::vector<detlint::SourceFile> files = {
      {"src/app/config.cpp", "int g_retry_budget = 3;\n"},
      {"src/gcs/deliver.cpp",
       "void on_deliver() {\n"
       "  if (g_retry_budget > 0) retry();\n"
       "}\n"},
  };
  const auto fs = detlint::lint_sources(files);
  ASSERT_TRUE(has_rule(fs, "global-in-callback"));
  for (const Finding& f : fs) {
    if (f.rule == "global-in-callback") {
      EXPECT_EQ(f.file, "src/gcs/deliver.cpp");
      EXPECT_EQ(f.line, 2);
      EXPECT_EQ(f.severity, Severity::kWarning);
    }
  }
}

TEST(DetlintTest, GlobalReferenceFromNonHazardLayerIsQuiet) {
  const std::vector<detlint::SourceFile> files = {
      {"src/app/config.cpp", "int g_retry_budget = 3;\n"},
      {"src/app/use.cpp", "void f() { g_retry_budget = 1; }\n"},   // same layer class
      {"tools/ctsim/main.cpp", "void g() { g_retry_budget = 2; }\n"},  // not a hazard layer
  };
  EXPECT_FALSE(has_rule(detlint::lint_sources(files), "global-in-callback"));
}

TEST(DetlintTest, MemberAccessDoesNotMatchGlobalName) {
  const std::vector<detlint::SourceFile> files = {
      {"src/app/config.cpp", "int budget = 3;\n"},
      {"src/gcs/deliver.cpp",
       "void on_deliver() {\n"
       "  if (cfg.budget > 0) retry();\n"
       "  if (cfg->budget > 0) retry();\n"
       "}\n"},
  };
  EXPECT_FALSE(has_rule(detlint::lint_sources(files), "global-in-callback"));
}

// --- iterator invalidation / callback under iteration (v2) ---------------------

TEST(DetlintTest, MutationOfRangeForContainerFlagged) {
  const std::string src = "void f() {\n"
                          "  for (const auto& s : subs_) {\n"
                          "    if (s.dead) subs_.erase(s.id);\n"
                          "  }\n"
                          "}\n";
  const auto fs = lint_content("src/gcs/a.cpp", src);
  ASSERT_TRUE(has_rule(fs, "iterator-invalidation"));
  EXPECT_EQ(line_of(fs, "iterator-invalidation"), 3);
}

TEST(DetlintTest, MutationOfDifferentObjectSameMemberNameNotFlagged) {
  // The totem view-install idiom: iterate c.members, append to v.members.
  const std::string src = "void f() {\n"
                          "  for (const auto& m : c.members) v.members.push_back(m.node);\n"
                          "}\n";
  EXPECT_FALSE(has_rule(lint_content("src/totem/a.cpp", src), "iterator-invalidation"));
}

TEST(DetlintTest, MutationAfterTheLoopNotFlagged) {
  const std::string src = "void f() {\n"
                          "  for (const auto& s : subs_) mark(s);\n"
                          "  subs_.clear();\n"
                          "}\n";
  EXPECT_FALSE(has_rule(lint_content("src/gcs/a.cpp", src), "iterator-invalidation"));
}

TEST(DetlintTest, CallbackInvokedWhileIteratingMemberContainerFlagged) {
  const std::string src = "void f() {\n"
                          "  for (auto& fn : subs_) fn(msg);\n"
                          "}\n";
  const auto fs = lint_content("src/gcs/a.cpp", src);
  ASSERT_TRUE(has_rule(fs, "callback-under-iteration"));
  EXPECT_EQ(line_of(fs, "callback-under-iteration"), 2);
}

TEST(DetlintTest, CallbackOverLocalSnapshotNotFlagged) {
  // Snapshot-then-call is the sanctioned fix; a local range is safe.
  const std::string src = "void f() {\n"
                          "  auto copy = subs_;\n"
                          "  for (auto& fn : copy) fn(msg);\n"
                          "}\n";
  EXPECT_FALSE(has_rule(lint_content("src/gcs/a.cpp", src), "callback-under-iteration"));
}

TEST(DetlintTest, MethodCallOnLoopVariableNotFlagged) {
  // h.destroy() is a member call on the element, not an invocation of a
  // stored callback.
  const std::string src = "void f() {\n"
                          "  for (auto& h : handles_) h.destroy();\n"
                          "}\n";
  EXPECT_FALSE(has_rule(lint_content("src/sim/a.cpp", src), "callback-under-iteration"));
}

// --- cross-island-capture (v2) -------------------------------------------------

TEST(DetlintTest, DefaultCaptureInCrossIslandPostFlagged) {
  const std::string by_ref = "void f() {\n"
                             "  coord_.post(src, dst, at, [&] { ep->deliver(m); });\n"
                             "}\n";
  const std::string by_val = "void f() {\n"
                             "  coord_.post(src, dst, at, [=] { ep->deliver(m); });\n"
                             "}\n";
  const std::string this_cap = "void f() {\n"
                               "  coord_.post(src, dst, at, [this] { deliver(m); });\n"
                               "}\n";
  for (const std::string* src_text : {&by_ref, &by_val, &this_cap}) {
    const auto fs = lint_content("src/net/a.hpp", *src_text);
    ASSERT_TRUE(has_rule(fs, "cross-island-capture"));
    EXPECT_EQ(line_of(fs, "cross-island-capture"), 2);
  }
}

TEST(DetlintTest, DefaultCaptureHeadOfListFlagged) {
  // [&, x] and [this, x] still default-capture everything else.
  const std::string src = "void f() {\n"
                          "  coord->post(a, b, at, [&, frame] { sink(frame); });\n"
                          "  coord->post(a, b, at, [this, frame] { sink(frame); });\n"
                          "}\n";
  const auto fs = lint_content("src/sim/a.hpp", src);
  EXPECT_TRUE(has_rule(fs, "cross-island-capture"));
  EXPECT_EQ(line_of(fs, "cross-island-capture"), 2);
}

TEST(DetlintTest, ExplicitCapturesInCrossIslandPostNotFlagged) {
  // The sanctioned idiom: every capture named, payload moved or pointing at
  // destination-owned state (src/net/island_link.hpp does exactly this).
  const std::string src =
      "void f() {\n"
      "  coord_.post(src, dst, at,\n"
      "              [ep = &eps_[dst], src, frame = std::move(frame)]() mutable {\n"
      "                ep->fn(src, std::move(frame));\n"
      "              });\n"
      "}\n";
  EXPECT_FALSE(has_rule(lint_content("src/net/island_link.hpp", src), "cross-island-capture"));
}

TEST(DetlintTest, SubscriptInsidePostArgsIsNotALambda) {
  const std::string src = "void f() {\n"
                          "  coord_.post(islands_[src], islands_[dst], at, run_of(dst));\n"
                          "}\n";
  EXPECT_FALSE(has_rule(lint_content("src/net/a.hpp", src), "cross-island-capture"));
}

TEST(DetlintTest, DefaultCaptureOutsidePostOrOutsideHazardLayersNotFlagged) {
  // Same-island scheduling may capture freely; so may non-sim/net layers.
  const std::string same_island = "void f() {\n"
                                  "  sim_.at(at, [&] { deliver(m); });\n"
                                  "}\n";
  EXPECT_FALSE(has_rule(lint_content("src/sim/a.hpp", same_island), "cross-island-capture"));
  const std::string other_layer = "void f() {\n"
                                  "  coord_.post(src, dst, at, [&] { deliver(m); });\n"
                                  "}\n";
  EXPECT_FALSE(has_rule(lint_content("src/app/a.hpp", other_layer), "cross-island-capture"));
}

TEST(DetlintTest, CrossIslandCaptureSuppressible) {
  const std::string src =
      "void f() {\n"
      "  // detlint:allow(cross-island-capture): coordinator outlives every epoch\n"
      "  coord_.post(src, dst, at, [this] { deliver(); });\n"
      "}\n";
  EXPECT_FALSE(has_rule(lint_content("src/net/a.hpp", src), "cross-island-capture"));
}

// --- JSON output ---------------------------------------------------------------

// --- hot-path-map --------------------------------------------------------------

TEST(DetlintTest, HotPathMapFlaggedInDeliveryLayers) {
  const std::string src = "std::map<std::uint64_t, PendingSend> pending_;\n";
  for (const char* dir :
       {"src/net/a.hpp", "src/gcs/a.hpp", "src/totem/a.hpp", "src/obs/a.hpp"}) {
    const auto fs = lint_content(dir, src);
    ASSERT_TRUE(has_rule(fs, "hot-path-map")) << dir;
    EXPECT_EQ(line_of(fs, "hot-path-map"), 1) << dir;
  }
  EXPECT_TRUE(has_rule(lint_content("src/gcs/a.hpp", "std::multimap<Key, V> m_;\n"),
                       "hot-path-map"));
}

TEST(DetlintTest, HotPathMapAdvisoryOnly) {
  const auto fs = lint_content("src/totem/a.hpp", "std::map<int, int> m_;\n");
  for (const Finding& f : fs) {
    if (f.rule == "hot-path-map") {
      EXPECT_EQ(f.severity, Severity::kWarning);
    }
  }
  EXPECT_TRUE(has_rule(fs, "hot-path-map"));
}

TEST(DetlintTest, HotPathMapNotFlaggedOutsideDeliveryLayers) {
  const std::string src = "std::map<std::string, Entry> entries_;\n";
  EXPECT_FALSE(has_rule(lint_content("src/app/kv_store.hpp", src), "hot-path-map"));
  EXPECT_FALSE(has_rule(lint_content("src/replication/a.hpp", src), "hot-path-map"));
  EXPECT_FALSE(has_rule(lint_content("tests/foo_test.cpp", src), "hot-path-map"));
}

TEST(DetlintTest, HotPathMapIgnoresFlatMapAndComments) {
  EXPECT_FALSE(has_rule(lint_content("src/gcs/a.hpp", "cts::FlatMap<Key, V> m_;\n"),
                        "hot-path-map"));
  EXPECT_FALSE(has_rule(
      lint_content("src/gcs/a.hpp", "// replaced the old std::map<Key, V> here\n"),
      "hot-path-map"));
}

TEST(DetlintTest, HotPathMapSuppressible) {
  const std::string src = "// detlint:allow(hot-path-map): stable Counter& references\n"
                          "std::map<std::string, Counter, std::less<>> counters_;\n";
  EXPECT_TRUE(lint_content("src/obs/a.hpp", src).empty());
}

// --- co-await-conditional -------------------------------------------------------

TEST(DetlintTest, ConditionalInsideCoAwaitOperandFlagged) {
  const std::string src = "Task f(bool c) {\n"
                          "  co_await call(c ? a() : b());\n"
                          "}\n";
  const auto fs = lint_content("src/app/a.cpp", src);
  ASSERT_TRUE(has_rule(fs, "co-await-conditional"));
  EXPECT_EQ(line_of(fs, "co-await-conditional"), 2);
  const auto err = std::find_if(fs.begin(), fs.end(), [](const Finding& f) {
    return f.rule == "co-await-conditional";
  });
  EXPECT_EQ(err->severity, Severity::kError);
  // Through member access and explicit template arguments too.
  EXPECT_TRUE(has_rule(lint_content("tests/a.cpp", "co_await s.await_callback<int>(c ? f : g);\n"),
                       "co-await-conditional"));
}

TEST(DetlintTest, ConditionalOutsideCoAwaitOperandNotFlagged) {
  // A named local holds the selected value.
  EXPECT_FALSE(has_rule(lint_content("src/app/a.cpp",
                                     "auto v = c ? a() : b();\n"
                                     "co_await call(std::move(v));\n"),
                        "co-await-conditional"));
  // The conditional applies to the awaited result, not inside the operand.
  EXPECT_FALSE(has_rule(lint_content("src/app/a.cpp", "auto r = (co_await x) ? a : b;\n"),
                        "co-await-conditional"));
  // A lambda body handed to the awaitable is a function of its own.
  EXPECT_FALSE(has_rule(lint_content("src/app/a.cpp",
                                     "co_await s.await_callback<int>([&](auto done) {\n"
                                     "  done(c ? 1 : 2);\n"
                                     "});\n"),
                        "co-await-conditional"));
}

TEST(DetlintTest, JsonOutputCarriesCountsAndFindings) {
  const Finding warn{"src/a.hpp", 3, "pointer-key", Severity::kWarning, "keyed on pointer"};
  const Finding err{"src/b.cpp", 7, "wall-clock", Severity::kError, "say \"when\""};
  const std::string js = detlint::to_json({warn, err}, 42);
  EXPECT_NE(js.find("\"files_scanned\": 42"), std::string::npos);
  EXPECT_NE(js.find("\"errors\": 1"), std::string::npos);
  EXPECT_NE(js.find("\"warnings\": 1"), std::string::npos);
  EXPECT_NE(js.find("\"rule\": \"wall-clock\""), std::string::npos);
  EXPECT_NE(js.find("\"severity\": \"warning\""), std::string::npos);
  EXPECT_NE(js.find("say \\\"when\\\""), std::string::npos);  // escaping
  EXPECT_NE(detlint::to_json({}, 0).find("\"findings\": []"), std::string::npos);
}

// --- exit codes ----------------------------------------------------------------

TEST(DetlintTest, ExitCodeIsSeverityRanked) {
  EXPECT_EQ(detlint::exit_code({}), 0);
  const Finding warn{"f", 1, "pointer-key", Severity::kWarning, "m"};
  const Finding err{"f", 1, "wall-clock", Severity::kError, "m"};
  EXPECT_EQ(detlint::exit_code({warn}), 1);
  EXPECT_EQ(detlint::exit_code({warn, err}), 2);
}

TEST(DetlintTest, FormatIsGccStyle) {
  const Finding f{"src/net/network.hpp", 42, "unordered-container", Severity::kError, "msg"};
  EXPECT_EQ(detlint::format_finding(f),
            "src/net/network.hpp:42: error: msg [unordered-container]");
}

}  // namespace
