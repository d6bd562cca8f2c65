// Randomized cross-algorithm invariants ("fuzz"): on a wide spread of
// workload shapes, every algorithm must produce a valid schedule and the
// model-level orderings must hold.  These are cheap per-instance checks, so
// the sweep covers many seeds and distributions.
#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <clocale>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "src/algo/algorithm_c.h"
#include "src/algo/algorithm_nc_uniform.h"
#include "src/algo/baselines.h"
#include "src/algo/bounds.h"
#include "src/algo/frac_to_int.h"
#include "src/algo/parallel.h"
#include "src/engine/job_source.h"
#include "src/robust/diagnostics.h"
#include "src/workload/generators.h"
#include "src/workload/trace_io.h"

namespace speedscale {
namespace {

struct FuzzCase {
  workload::VolumeDist dist;
  double rate;
  int n;
};

class Fuzz : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  [[nodiscard]] Instance make() const {
    const auto [shape, seed] = GetParam();
    static const FuzzCase cases[] = {
        {workload::VolumeDist::kUniform, 0.3, 9},
        {workload::VolumeDist::kExponential, 1.0, 17},
        {workload::VolumeDist::kPareto, 2.0, 23},
        {workload::VolumeDist::kLognormal, 5.0, 30},
        {workload::VolumeDist::kFixed, 10.0, 12},
    };
    const FuzzCase& c = cases[static_cast<std::size_t>(shape)];
    return workload::generate({.n_jobs = c.n,
                               .arrival_rate = c.rate,
                               .volume_dist = c.dist,
                               .volume_param = 1.8,
                               .seed = static_cast<std::uint64_t>(seed * 7919 + shape)});
  }
};

TEST_P(Fuzz, AllAlgorithmsProduceValidFiniteSchedules) {
  const Instance inst = make();
  const double alpha = 2.0;
  const RunResult c = run_c(inst, alpha);
  const RunResult nc = run_nc_uniform(inst, alpha);
  const RunResult naive = run_naive_nc(inst, alpha);
  const RunResult doubling = run_doubling_nc(inst, alpha);
  for (const RunResult* r : {&c, &nc, &naive, &doubling}) {
    r->schedule.validate(inst);
    EXPECT_TRUE(std::isfinite(r->metrics.fractional_objective()));
    EXPECT_TRUE(std::isfinite(r->metrics.integral_objective()));
    EXPECT_GT(r->metrics.energy, 0.0);
    for (const Job& j : inst.jobs()) {
      EXPECT_GE(r->schedule.completion(j.id), j.release);
    }
  }
}

TEST_P(Fuzz, FractionalFlowNeverExceedsIntegralFlow) {
  // Each infinitesimal piece of a job finishes no later than the job, so
  // F[j] <= Fint[j] for every schedule.
  const Instance inst = make();
  for (const double alpha : {1.5, 3.0}) {
    const RunResult c = run_c(inst, alpha);
    const RunResult nc = run_nc_uniform(inst, alpha);
    EXPECT_LE(c.metrics.fractional_flow, c.metrics.integral_flow * (1.0 + 1e-9));
    EXPECT_LE(nc.metrics.fractional_flow, nc.metrics.integral_flow * (1.0 + 1e-9));
  }
}

TEST_P(Fuzz, PaperIdentitiesAndOrderings) {
  const Instance inst = make();
  const double alpha = 2.5;
  const RunResult c = run_c(inst, alpha);
  const RunResult nc = run_nc_uniform(inst, alpha);
  // Lemma 3/4 identities on every fuzzed shape.
  EXPECT_NEAR(nc.metrics.energy, c.metrics.energy, 1e-9 * std::max(1.0, c.metrics.energy));
  EXPECT_NEAR(nc.metrics.fractional_flow,
              bounds::nc_over_c_flow(alpha) * c.metrics.fractional_flow,
              1e-9 * std::max(1.0, nc.metrics.fractional_flow));
  // Algorithm C's energy = flow identity.
  EXPECT_NEAR(c.metrics.energy, c.metrics.fractional_flow,
              1e-9 * std::max(1.0, c.metrics.energy));
  // Lemma 8 on every fuzzed shape.
  EXPECT_LE(nc.metrics.integral_flow,
            bounds::nc_integral_over_fractional_flow(alpha) * nc.metrics.fractional_flow *
                (1.0 + 1e-9));
}

TEST_P(Fuzz, ReductionBoundsAcrossShapes) {
  const Instance inst = make();
  const double alpha = 2.0, eps = 0.7;
  const RunResult nc = run_nc_uniform(inst, alpha);
  const IntReductionRun red = reduce_frac_to_int(inst, nc.schedule, eps);
  EXPECT_LE(red.energy, std::pow(1.0 + eps, alpha) * nc.metrics.energy * (1.0 + 1e-9));
  EXPECT_LE(red.integral_flow, (1.0 + 1.0 / eps) * nc.metrics.fractional_flow * (1.0 + 1e-9));
  for (const Job& j : inst.jobs()) {
    EXPECT_LE(red.completions.at(j.id), nc.schedule.completion(j.id) + 1e-12);
  }
}

TEST_P(Fuzz, ParallelIdentitiesAcrossShapes) {
  const Instance inst = make();
  const double alpha = 2.0;
  const int k = 3;
  const ParallelRun c = run_c_par(inst, alpha, k);
  const ParallelRun nc = run_nc_par(inst, alpha, k);
  for (std::size_t i = 0; i < inst.size(); ++i) {
    ASSERT_EQ(c.assignment[i], nc.assignment[i]);
  }
  EXPECT_NEAR(nc.metrics.energy, c.metrics.energy, 1e-9 * std::max(1.0, c.metrics.energy));
}

INSTANTIATE_TEST_SUITE_P(Shapes, Fuzz,
                         ::testing::Combine(::testing::Range(0, 5),
                                            ::testing::Values(1, 2, 3, 4)));

// --- read_trace corpus fuzz -------------------------------------------------
//
// Hostile trace inputs must never crash the reader: strict mode raises a
// line-numbered TraceIoError, lenient mode skips-and-counts, and both leave
// the stream fully drained.

struct TraceCorpusCase {
  const char* name;
  const char* input;
  std::size_t lenient_jobs;     // jobs surviving a lenient read
  std::size_t lenient_skipped;  // bad lines counted by a lenient read
  bool strict_throws;
};

// Print a case as its name so the parameter (and the ctest name derived from
// it) is stable; the default raw-byte dump includes string-literal addresses,
// which change with every run under ASLR.
void PrintTo(const TraceCorpusCase& c, std::ostream* os) { *os << c.name; }

class TraceCorpus : public ::testing::TestWithParam<TraceCorpusCase> {};

TEST_P(TraceCorpus, StrictThrowsTypedLenientSkipsAndCounts) {
  const TraceCorpusCase& c = GetParam();
  {
    std::istringstream is(c.input);
    if (c.strict_throws) {
      try {
        (void)workload::read_trace(is);
        FAIL() << c.name << ": strict read accepted hostile input";
      } catch (const workload::TraceIoError& e) {
        EXPECT_EQ(e.diagnostic().code, robust::ErrorCode::kIoMalformed) << c.name;
        EXPECT_NE(e.diagnostic().context.find("line"), std::string::npos) << c.name;
      }
    } else {
      EXPECT_NO_THROW((void)workload::read_trace(is)) << c.name;
    }
  }
  // Lenient mode: bad data lines are skipped, never fatal (header faults
  // still throw — there is nothing to resynchronize on).
  std::istringstream is(c.input);
  if (std::string(c.input).rfind("id,", 0) != 0) {
    EXPECT_THROW((void)workload::read_trace(
                     is, {.mode = workload::TraceReadMode::kLenient}),
                 workload::TraceIoError)
        << c.name;
    return;
  }
  workload::TraceReadStats stats;
  const Instance got =
      workload::read_trace(is, {.mode = workload::TraceReadMode::kLenient}, &stats);
  EXPECT_EQ(got.jobs().size(), c.lenient_jobs) << c.name;
  EXPECT_EQ(stats.lines_skipped, c.lenient_skipped) << c.name;
}

const TraceCorpusCase kTraceCorpus[] = {
    {"truncated_line", "id,release,volume,density\n0,0,1,1\n1,0.5,\n", 1, 1, true},
    {"wrong_header", "volume,id\n0,0,1,1\n", 0, 0, true},
    {"no_header", "0,0,1,1\n", 0, 0, true},
    {"empty_stream", "", 0, 0, true},
    {"header_only", "id,release,volume,density\n", 0, 0, false},
    {"too_many_fields", "id,release,volume,density\n0,0,1,1,42\n1,1,1,1\n", 1, 1, true},
    {"trailing_junk_number", "id,release,volume,density\n0,0,1abc,1\n", 0, 1, true},
    {"non_finite_value", "id,release,volume,density\n0,0,inf,1\n1,1,1,1\n", 1, 1, true},
    {"nan_density", "id,release,volume,density\n0,0,1,nan\n", 0, 1, true},
    {"blank_lines_between_rows", "id,release,volume,density\n0,0,1,1\n\n\n1,1,1,1\n", 2, 0,
     false},
    // A crash-truncated tail (no trailing '\n', as left by interrupted
    // ".tmp" writers).  The parsable variant is the regression: the torn
    // fragment "1,1,2,1" (say, cut from "1,1,2,1.5") reads as 4 valid
    // fields, and lenient mode used to accept it silently instead of
    // counting it as skipped.
    {"torn_tail_parsable", "id,release,volume,density\n0,0,1,1\n1,1,2,1", 1, 1, true},
    {"torn_tail_unparsable", "id,release,volume,density\n0,0,1,1\n1,0.5,2", 1, 1, true},
    // A whitespace-only field converts nothing; it must not read as 0.
    {"blank_field", "id,release,volume,density\n0, ,1,1\n1,1,1,1\n", 1, 1, true},
};

INSTANTIATE_TEST_SUITE_P(Corpus, TraceCorpus, ::testing::ValuesIn(kTraceCorpus));

TEST(TraceFuzz, NegativeVolumeFailsModelValidationStrictButLenientDrops) {
  // The row parses numerically, so strict mode hands it to Instance, whose
  // own validation rejects it (ModelError); lenient mode pre-drops it.
  const char* input = "id,release,volume,density\n0,0,-3,1\n1,1,1,1\n";
  std::istringstream strict(input);
  EXPECT_THROW((void)workload::read_trace(strict), ModelError);
  std::istringstream lenient(input);
  workload::TraceReadStats stats;
  const Instance got = workload::read_trace(
      lenient, {.mode = workload::TraceReadMode::kLenient}, &stats);
  EXPECT_EQ(got.jobs().size(), 1u);
  EXPECT_EQ(stats.lines_skipped, 1u);
}

TEST(TraceFuzz, EmbeddedNulByteIsRejectedNotCrash) {
  std::string input = "id,release,volume,density\n0,0,1,1\n1,0.5,2,1\n";
  input[input.find("2,1") + 0] = '\0';  // NUL inside the volume field
  std::istringstream strict(input);
  EXPECT_THROW((void)workload::read_trace(strict), workload::TraceIoError);
  std::istringstream lenient(input);
  workload::TraceReadStats stats;
  const Instance got = workload::read_trace(
      lenient, {.mode = workload::TraceReadMode::kLenient}, &stats);
  EXPECT_EQ(got.jobs().size(), 1u);
  EXPECT_EQ(stats.lines_skipped, 1u);
}

TEST(TraceFuzz, TenThousandFieldLineIsRejectedNotCrash) {
  std::string line = "0";
  for (int i = 0; i < 10000; ++i) line += ",1";
  const std::string input = "id,release,volume,density\n" + line + "\n0,0,1,1\n";
  std::istringstream strict(input);
  EXPECT_THROW((void)workload::read_trace(strict), workload::TraceIoError);
  std::istringstream lenient(input);
  workload::TraceReadStats stats;
  const Instance got = workload::read_trace(
      lenient, {.mode = workload::TraceReadMode::kLenient}, &stats);
  EXPECT_EQ(got.jobs().size(), 1u);
  EXPECT_EQ(stats.lines_skipped, 1u);
}

TEST(TraceFuzz, WriteReadRoundTripOnFuzzedInstances) {
  for (int seed = 1; seed <= 6; ++seed) {
    const Instance inst = workload::generate(
        {.n_jobs = 12, .arrival_rate = 1.5, .seed = static_cast<std::uint64_t>(seed)});
    std::ostringstream os;
    workload::write_trace(os, inst);
    std::istringstream is(os.str());
    const Instance got = workload::read_trace(is);
    ASSERT_EQ(got.jobs().size(), inst.jobs().size());
    for (std::size_t i = 0; i < inst.size(); ++i) {
      EXPECT_EQ(got.jobs()[i].release, inst.jobs()[i].release);    // 17-digit exact
      EXPECT_EQ(got.jobs()[i].volume, inst.jobs()[i].volume);
      EXPECT_EQ(got.jobs()[i].density, inst.jobs()[i].density);
    }
  }
}

TEST(TraceFuzz, StrictNonPositiveVolumeIsALineNumberedTraceIoError) {
  std::istringstream is("id,release,volume,density\n0,0,1,1\n1,1,0,1\n");
  try {
    (void)workload::read_trace(is);
    FAIL() << "strict read accepted a zero volume";
  } catch (const workload::TraceIoError& e) {
    EXPECT_EQ(e.diagnostic().code, robust::ErrorCode::kIoMalformed);
    EXPECT_EQ(e.diagnostic().context, "line 3");
    EXPECT_NE(e.diagnostic().message.find("non-positive volume"), std::string::npos);
    const ModelError& as_model = e;  // still caught by ModelError handlers
    EXPECT_NE(std::string(as_model.what()).find("line 3"), std::string::npos);
  }
}

TEST(TraceFuzz, LineLongerThanAReadBlockIsScannedWhole) {
  // Trailing spaces after a number are allowed, and leading ones send the
  // field to the strtod fallback; both here exceed the 64 KiB read block.
  const std::string input = "id,release,volume,density\n0,0,1,1" + std::string(200'000, ' ') +
                            "\n1," + std::string(70'000, ' ') + "0.5,2,1\n2,1,3,1\n";
  std::istringstream is(input);
  const Instance got = workload::read_trace(is);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got.jobs()[0].volume, 1.0);
  EXPECT_EQ(got.jobs()[1].release, 0.5);
  EXPECT_EQ(got.jobs()[1].volume, 2.0);
  EXPECT_EQ(got.jobs()[2].volume, 3.0);
}

// The full-consumption strtod rule the scanner's field parser must keep:
// trailing spaces allowed, any other leftover (or a NUL byte) rejected.
// Evaluated in the test's "C" locale.  It reads a whitespace-only field as 0;
// the scanner rejects that field, the one intended difference.
bool reference_parse_double(const std::string& field, double& out) {
  if (field.empty() || field.size() != std::string(field.c_str()).size()) return false;
  char* end = nullptr;
  out = std::strtod(field.c_str(), &end);
  while (end && *end == ' ') ++end;
  return end == field.c_str() + field.size();
}

TEST(TraceFuzz, FieldParserMatchesFullConsumptionStrtodBitForBit) {
  using namespace std::string_literals;
  std::vector<std::string> fields = {
      "0", "1", "-0", "0.0", "-0.0", "1.5", "-1.5", ".5", "5.", "-.5", "1e5", "1E-5",
      "1.5e+3", "  1.5", "\t1.5", "\n1.5", " 1.5 ", "1.5 ", "1.5  ", "1.5\t", "1.5\r",
      "1.5 x", "+1.5", "+0", "+", "-", ".", "-.", "+.", "1e", "1e+", "1e-", "e5", "1..2",
      "1.2.3", "1 2", "1_000", "0x1p3", "0X1P-2", "0x.8", "-0x10", "+0x1", " 0x1p3",
      "0x", "0xg", "inf", "-inf", "+inf", "INF", "Infinity", "INFINITY", "-INFINITY",
      "infin", "nan", "NaN", "-nan", "+nan", "nan(123)", "nan(abc_9)", "nan(", "nan()",
      "1e-400", "-1e-400", "1e400", "-1e400", "1e-320", "4.9e-324", "2.4703282292062327e-324",
      "2.4703282292062328e-324", "2.2250738585072011e-308", "2.2250738585072014e-308",
      "1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308",
      "0.10000000000000001", "0.30000000000000004", "3.1415926535897931",
      "9007199254740993", "123456789012345678", "12345678901234567890123",
      "0." + std::string(400, '0') + "1", std::string(300, '9'), std::string(150, ' ') + "2.5",
      "2.5" + std::string(150, ' '), "", " ", "  ", "\t", " \t ", "\t\t",
      "1\0"s, "\0"s, "1.5\0junk"s, " \0"s, "nan\0"s};
  const std::size_t fixed = fields.size();
  std::mt19937_64 rng(20150613);
  char buf[512];
  for (int i = 0; i < 12'000; ++i) {
    // Uniform bit patterns reach every exponent, subnormals and NaNs.
    const double v = std::bit_cast<double>(rng());
    std::to_chars_result r;
    switch (i % 4) {
      case 0: r = std::to_chars(buf, buf + sizeof buf, v); break;
      case 1: r = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::scientific, 17); break;
      case 2: r = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17); break;
      default: {
        // Plain decimals below 2^40 from a random 53-bit mantissa.
        const double m = std::ldexp(static_cast<double>(rng() >> 11),
                                    static_cast<int>(rng() % 60) - 73);
        r = std::to_chars(buf, buf + sizeof buf, v < 0 ? -m : m, std::chars_format::fixed);
        break;
      }
    }
    ASSERT_EQ(r.ec, std::errc());
    fields.emplace_back(buf, r.ptr);
  }
  ASSERT_GE(fields.size() - fixed, 10'000u);

  std::size_t blank_differences = 0;
  for (const std::string& f : fields) {
    double want = 0.0;
    double got = 0.0;
    const bool ref_ok = reference_parse_double(f, want);
    const bool ok = workload::parse_trace_field(f, got);
    const bool blank = !f.empty() && f.find_first_not_of(" \t\n\v\f\r") == std::string::npos;
    if (blank && ref_ok) {
      EXPECT_FALSE(ok) << "whitespace-only field '" << f << "' must not read as 0";
      ++blank_differences;
      continue;
    }
    ASSERT_EQ(ok, ref_ok) << "field '" << f << "'";
    if (ok) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want))
          << "field '" << f << "'";
    }
  }
  EXPECT_EQ(blank_differences, 2u);  // " " and "  "
}

/// Restores LC_NUMERIC on scope exit, so a failing assertion cannot leak a
/// ','-decimal locale into later tests.
class NumericLocaleGuard {
 public:
  NumericLocaleGuard() {
    const char* prev = std::setlocale(LC_NUMERIC, nullptr);
    saved_ = prev ? prev : "C";
  }
  ~NumericLocaleGuard() { std::setlocale(LC_NUMERIC, saved_.c_str()); }
  NumericLocaleGuard(const NumericLocaleGuard&) = delete;
  NumericLocaleGuard& operator=(const NumericLocaleGuard&) = delete;

 private:
  std::string saved_;
};

TEST(TraceFuzz, ParsesIdenticallyUnderCommaDecimalLocale) {
  const Instance inst = workload::generate({.n_jobs = 200, .arrival_rate = 1.5, .seed = 11});
  std::ostringstream os;
  workload::write_trace(os, inst);
  const std::string text = os.str() + "200,1e9,0.5,0.25\n";  // a literal "0.5", last release

  auto read_both = [&text](std::vector<Job>& batch, std::vector<Job>& streamed) {
    std::istringstream is(text);
    batch = workload::read_trace(is).jobs();
    std::istringstream is2(text);
    engine::TraceJobSource source(is2);
    Job j;
    while (source.next(&j)) streamed.push_back(j);
  };
  std::vector<Job> want_batch, want_stream;
  read_both(want_batch, want_stream);
  ASSERT_EQ(want_batch.size(), inst.size() + 1);
  ASSERT_EQ(want_batch.back().volume, 0.5);

  std::vector<Job> got_batch, got_stream;
  {
    NumericLocaleGuard guard;
    if (std::setlocale(LC_NUMERIC, "de_DE.UTF-8") == nullptr &&
        std::setlocale(LC_NUMERIC, "de_DE.utf8") == nullptr) {
      GTEST_SKIP() << "no de_DE locale installed; cannot exercise the ',' separator";
    }
    ASSERT_NO_THROW(read_both(got_batch, got_stream));
  }
  auto same_bits = [](const std::vector<Job>& a, const std::vector<Job>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].id != b[i].id ||
          std::bit_cast<std::uint64_t>(a[i].release) != std::bit_cast<std::uint64_t>(b[i].release) ||
          std::bit_cast<std::uint64_t>(a[i].volume) != std::bit_cast<std::uint64_t>(b[i].volume) ||
          std::bit_cast<std::uint64_t>(a[i].density) != std::bit_cast<std::uint64_t>(b[i].density)) {
        return false;
      }
    }
    return true;
  };
  EXPECT_TRUE(same_bits(got_batch, want_batch));
  EXPECT_TRUE(same_bits(got_stream, want_stream));
  EXPECT_TRUE(same_bits(want_stream, want_batch));
}

}  // namespace
}  // namespace speedscale
