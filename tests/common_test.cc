#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/similarity.h"
#include "common/status.h"
#include "common/strings.h"

namespace vada {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "invalid_argument: bad input");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "not_found");
  EXPECT_STREQ(StatusCodeName(StatusCode::kParseError), "parse_error");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnimplemented), "unimplemented");
  EXPECT_STREQ(StatusCodeName(StatusCode::kDataLoss), "data_loss");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("hello");
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "hello");
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("x", ','), (std::vector<std::string>{"x"}));
}

TEST(StringsTest, JoinRoundTrips) {
  std::vector<std::string> parts = {"a", "b", "c"};
  EXPECT_EQ(Join(parts, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  x y \t\n"), "x y");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringsTest, CaseConversion) {
  EXPECT_EQ(ToLower("AbC1"), "abc1");
  EXPECT_EQ(ToUpper("aBc1"), "ABC1");
}

TEST(StringsTest, PrefixSuffix) {
  EXPECT_TRUE(StartsWith("prefix_rest", "prefix"));
  EXPECT_FALSE(StartsWith("pre", "prefix"));
  EXPECT_TRUE(EndsWith("file.csv", ".csv"));
  EXPECT_FALSE(EndsWith("csv", ".csv"));
}

TEST(StringsTest, TokenizeIdentifierHandlesSeparatorsAndCamelCase) {
  EXPECT_EQ(TokenizeIdentifier("crimeRank_id"),
            (std::vector<std::string>{"crime", "rank", "id"}));
  EXPECT_EQ(TokenizeIdentifier("postcode"),
            (std::vector<std::string>{"postcode"}));
  EXPECT_EQ(TokenizeIdentifier("number-of bedrooms"),
            (std::vector<std::string>{"number", "of", "bedrooms"}));
  EXPECT_TRUE(TokenizeIdentifier("").empty());
}

TEST(StringsTest, IsDigits) {
  EXPECT_TRUE(IsDigits("0123"));
  EXPECT_FALSE(IsDigits(""));
  EXPECT_FALSE(IsDigits("12a"));
  EXPECT_FALSE(IsDigits("-12"));
}

TEST(SimilarityTest, LevenshteinDistanceBasics) {
  EXPECT_EQ(LevenshteinDistance("", ""), 0);
  EXPECT_EQ(LevenshteinDistance("abc", ""), 3);
  EXPECT_EQ(LevenshteinDistance("", "ab"), 2);
  EXPECT_EQ(LevenshteinDistance("kitten", "sitting"), 3);
  EXPECT_EQ(LevenshteinDistance("abc", "abc"), 0);
}

TEST(SimilarityTest, LevenshteinSimilarityRange) {
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abc", "xyz"), 0.0);
  double s = LevenshteinSimilarity("price", "prices");
  EXPECT_GT(s, 0.8);
  EXPECT_LT(s, 1.0);
}

TEST(SimilarityTest, JaroWinklerFavorsSharedPrefix) {
  double with_prefix = JaroWinklerSimilarity("postcode", "postcodes");
  double without = JaroWinklerSimilarity("postcode", "odestcops");
  EXPECT_GT(with_prefix, without);
  EXPECT_DOUBLE_EQ(JaroWinklerSimilarity("same", "same"), 1.0);
  EXPECT_DOUBLE_EQ(JaroWinklerSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(JaroWinklerSimilarity("a", ""), 0.0);
}

TEST(SimilarityTest, JaroKnownValue) {
  // Classic example: MARTHA vs MARHTA = 0.944...
  EXPECT_NEAR(JaroSimilarity("MARTHA", "MARHTA"), 0.9444, 1e-3);
}

// JaroSimilarity as it was written before its match flags moved from two
// std::vector<bool> to a stack buffer: the regression oracle below.
double VectorBoolJaro(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  const int n = static_cast<int>(a.size());
  const int m = static_cast<int>(b.size());
  const int window = std::max(0, std::max(n, m) / 2 - 1);
  std::vector<bool> a_matched(n, false);
  std::vector<bool> b_matched(m, false);
  int matches = 0;
  for (int i = 0; i < n; ++i) {
    int lo = std::max(0, i - window);
    int hi = std::min(m - 1, i + window);
    for (int j = lo; j <= hi; ++j) {
      if (b_matched[j] || a[i] != b[j]) continue;
      a_matched[i] = true;
      b_matched[j] = true;
      ++matches;
      break;
    }
  }
  if (matches == 0) return 0.0;
  int transpositions = 0;
  int k = 0;
  for (int i = 0; i < n; ++i) {
    if (!a_matched[i]) continue;
    while (!b_matched[k]) ++k;
    if (a[i] != b[k]) ++transpositions;
    ++k;
  }
  double mm = matches;
  return (mm / n + mm / m + (mm - transpositions / 2.0) / mm) / 3.0;
}

TEST(SimilarityTest, JaroMatchesVectorBoolImplementation) {
  Rng rng(20260);
  auto random_string = [&rng](size_t length) {
    std::string s;
    for (size_t i = 0; i < length; ++i) s += "abcde "[rng.Index(6)];
    return s;
  };
  // Lengths around the 128-flag stack buffer (n + m <= 128 stays on the
  // stack), plus empty and short strings.
  const std::vector<size_t> lengths = {0, 1, 2, 5, 15, 16, 40,
                                       63, 64, 65, 100, 127, 128, 129};
  size_t compared = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    std::string a = random_string(rng.Choice(lengths));
    std::string b;
    if (rng.Bernoulli(0.5)) {
      b = random_string(rng.Choice(lengths));
    } else {
      // A perturbed copy: swaps and edits give partial matches and
      // transpositions.
      b = a;
      for (size_t e = 0; e < 3 && !b.empty(); ++e) {
        size_t i = rng.Index(b.size());
        size_t j = rng.Index(b.size());
        std::swap(b[i], b[j]);
        if (rng.Bernoulli(0.3)) b[rng.Index(b.size())] = 'z';
      }
      if (rng.Bernoulli(0.3)) b += random_string(rng.Index(4));
    }
    EXPECT_EQ(JaroSimilarity(a, b), VectorBoolJaro(a, b))
        << "'" << a << "' vs '" << b << "'";
    ++compared;
  }
  // The exact buffer edge: n + m of 127, 128 and 129.
  for (size_t total : {127u, 128u, 129u}) {
    for (size_t n : {1u, 60u, 64u}) {
      std::string a = random_string(n);
      std::string b = random_string(total - n);
      EXPECT_EQ(JaroSimilarity(a, b), VectorBoolJaro(a, b)) << total;
      EXPECT_EQ(JaroSimilarity(b, a), VectorBoolJaro(b, a)) << total;
    }
  }
  EXPECT_EQ(compared, 4000u);
}

TEST(SimilarityTest, QGramJaccard) {
  EXPECT_DOUBLE_EQ(QGramJaccard("abc", "abc", 2), 1.0);
  EXPECT_DOUBLE_EQ(QGramJaccard("", "", 2), 1.0);
  EXPECT_GT(QGramJaccard("street", "strret", 2), 0.3);
  EXPECT_LT(QGramJaccard("street", "zzzzzz", 2), 0.01);
}

TEST(SimilarityTest, TokenJaccardAndDice) {
  std::vector<std::string> a = {"number", "of", "bedrooms"};
  std::vector<std::string> b = {"bedrooms"};
  EXPECT_NEAR(TokenJaccard(a, b), 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(TokenDice(a, b), 2.0 / 4.0, 1e-9);
  EXPECT_DOUBLE_EQ(TokenJaccard({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(TokenDice(a, a), 1.0);
}

TEST(RngTest, Deterministic) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (a.Next() != b.Next()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRoughlyCalibrated) {
  Rng rng(6);
  int hits = 0;
  const int kTrials = 10000;
  for (int i = 0; i < kTrials; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / static_cast<double>(kTrials), 0.3, 0.03);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(8);
  double sum = 0.0, sq = 0.0;
  const int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    double v = rng.Gaussian(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  double mean = sum / kTrials;
  double var = sq / kTrials - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(9);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = v;
  rng.Shuffle(&shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

}  // namespace
}  // namespace vada
