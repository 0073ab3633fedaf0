#include "common/similarity.h"

#include <algorithm>
#include <memory>
#include <set>

namespace vada {

int LevenshteinDistance(std::string_view a, std::string_view b) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0) return static_cast<int>(m);
  if (m == 0) return static_cast<int>(n);
  std::vector<int> prev(m + 1);
  std::vector<int> cur(m + 1);
  for (size_t j = 0; j <= m; ++j) prev[j] = static_cast<int>(j);
  for (size_t i = 1; i <= n; ++i) {
    cur[0] = static_cast<int>(i);
    for (size_t j = 1; j <= m; ++j) {
      int cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost});
    }
    std::swap(prev, cur);
  }
  return prev[m];
}

double LevenshteinSimilarity(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  double longest = static_cast<double>(std::max(a.size(), b.size()));
  return 1.0 - LevenshteinDistance(a, b) / longest;
}

double JaroSimilarity(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  const int n = static_cast<int>(a.size());
  const int m = static_cast<int>(b.size());
  const int window = std::max(0, std::max(n, m) / 2 - 1);
  // Match flags for both strings, on the stack for the short strings the
  // hot callers pass (duplicate detection only sends strings under 16
  // chars, schema matching attribute names); longer inputs use the heap.
  constexpr int kStackFlags = 128;
  bool stack_flags[kStackFlags];
  std::unique_ptr<bool[]> heap_flags;
  bool* a_matched = stack_flags;
  if (n + m <= kStackFlags) {
    std::fill(stack_flags, stack_flags + n + m, false);
  } else {
    heap_flags = std::make_unique<bool[]>(static_cast<size_t>(n) + m);
    a_matched = heap_flags.get();
  }
  bool* b_matched = a_matched + n;
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
  // Count transpositions among matched characters in order.
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

double JaroWinklerSimilarity(std::string_view a, std::string_view b) {
  double jaro = JaroSimilarity(a, b);
  int prefix = 0;
  const int cap = 4;
  for (int i = 0; i < cap && i < static_cast<int>(std::min(a.size(), b.size()));
       ++i) {
    if (a[i] != b[i]) break;
    ++prefix;
  }
  return jaro + prefix * 0.1 * (1.0 - jaro);
}

double QGramJaccard(std::string_view a, std::string_view b, int q) {
  if (q < 1) q = 1;
  if (a.empty() && b.empty()) return 1.0;
  auto grams = [q](std::string_view s) {
    std::set<std::string> out;
    std::string padded(static_cast<size_t>(q - 1), '#');
    padded += s;
    padded.append(static_cast<size_t>(q - 1), '#');
    if (static_cast<int>(padded.size()) < q) return out;
    for (size_t i = 0; i + q <= padded.size(); ++i) {
      out.insert(padded.substr(i, q));
    }
    return out;
  };
  std::set<std::string> ga = grams(a);
  std::set<std::string> gb = grams(b);
  if (ga.empty() && gb.empty()) return 1.0;
  size_t inter = 0;
  for (const std::string& g : ga) {
    if (gb.count(g) > 0) ++inter;
  }
  size_t uni = ga.size() + gb.size() - inter;
  if (uni == 0) return 1.0;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

namespace {
size_t SetIntersectionSize(const std::set<std::string>& a,
                           const std::set<std::string>& b) {
  size_t inter = 0;
  for (const std::string& t : a) {
    if (b.count(t) > 0) ++inter;
  }
  return inter;
}
}  // namespace

double TokenJaccard(const std::vector<std::string>& a,
                    const std::vector<std::string>& b) {
  std::set<std::string> sa(a.begin(), a.end());
  std::set<std::string> sb(b.begin(), b.end());
  if (sa.empty() && sb.empty()) return 1.0;
  size_t inter = SetIntersectionSize(sa, sb);
  size_t uni = sa.size() + sb.size() - inter;
  if (uni == 0) return 1.0;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

double TokenDice(const std::vector<std::string>& a,
                 const std::vector<std::string>& b) {
  std::set<std::string> sa(a.begin(), a.end());
  std::set<std::string> sb(b.begin(), b.end());
  if (sa.empty() && sb.empty()) return 1.0;
  if (sa.empty() || sb.empty()) return 0.0;
  size_t inter = SetIntersectionSize(sa, sb);
  return 2.0 * inter / static_cast<double>(sa.size() + sb.size());
}

}  // namespace vada
