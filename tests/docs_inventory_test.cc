// Doc-drift guard for the README (the operator-facing entry point):
// every CLI under tools/ and every top-level WranglerConfig knob must be
// mentioned there. The knob list is parsed out of wrangler/config.h and
// the tool list out of the tools/ directory, so adding a knob or a tool
// without documenting it fails this test — the README cannot silently
// fall behind the code the way seed-era docs did.
#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace vada {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Whether `word` appears in `text` delimited by non-identifier chars
/// (so "planner" does not match inside "replanner").
bool MentionsWord(const std::string& text, const std::string& word) {
  size_t pos = 0;
  auto is_ident = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
  };
  while ((pos = text.find(word, pos)) != std::string::npos) {
    bool left_ok = pos == 0 || !is_ident(text[pos - 1]);
    size_t end = pos + word.size();
    bool right_ok = end == text.size() || !is_ident(text[end]);
    if (left_ok && right_ok) return true;
    pos = end;
  }
  return false;
}

/// Field names of `struct WranglerConfig { ... }` parsed from config.h:
/// for every statement line, the identifier directly before the `=` or
/// the `;`. Comments and nested braces (there are none today) excluded.
std::vector<std::string> ConfigKnobs() {
  const std::string text = ReadFile(VADA_WRANGLER_CONFIG_H);
  size_t begin = text.find("struct WranglerConfig {");
  EXPECT_NE(begin, std::string::npos)
      << "wrangler/config.h lost struct WranglerConfig";
  size_t end = text.find("\n};", begin);
  EXPECT_NE(end, std::string::npos);

  std::vector<std::string> knobs;
  std::istringstream lines(text.substr(begin, end - begin));
  std::string line;
  while (std::getline(lines, line)) {
    size_t comment = line.find("//");
    if (comment != std::string::npos) line = line.substr(0, comment);
    size_t semi = line.rfind(';');
    if (semi == std::string::npos) continue;
    size_t stop = line.find('=');
    if (stop == std::string::npos || stop > semi) stop = semi;
    // Walk left over the identifier that precedes `stop`.
    size_t id_end = stop;
    while (id_end > 0 &&
           std::isspace(static_cast<unsigned char>(line[id_end - 1]))) {
      --id_end;
    }
    size_t id_begin = id_end;
    while (id_begin > 0 &&
           (std::isalnum(static_cast<unsigned char>(line[id_begin - 1])) ||
            line[id_begin - 1] == '_')) {
      --id_begin;
    }
    if (id_begin == id_end) continue;
    // Require a type before the name (skips `struct WranglerConfig {`).
    std::string before = line.substr(0, id_begin);
    if (before.find_first_not_of(" \t") == std::string::npos) continue;
    knobs.push_back(line.substr(id_begin, id_end - id_begin));
  }
  EXPECT_GE(knobs.size(), 15u) << "config.h parse lost knobs";
  return knobs;
}

/// Stems of the .cc files under tools/ (each is one CLI binary).
std::vector<std::string> ToolNames() {
  std::vector<std::string> names;
  for (const auto& entry :
       std::filesystem::directory_iterator(VADA_TOOLS_DIR)) {
    if (entry.path().extension() == ".cc") {
      names.push_back(entry.path().stem().string());
    }
  }
  EXPECT_GE(names.size(), 3u) << "tools/ lost its CLIs";
  return names;
}

TEST(DocsInventoryTest, ReadmeMentionsEveryConfigKnob) {
  const std::string readme = ReadFile(VADA_README_MD);
  std::set<std::string> missing;
  for (const std::string& knob : ConfigKnobs()) {
    if (!MentionsWord(readme, knob)) missing.insert(knob);
  }
  std::string joined;
  for (const std::string& k : missing) joined += "\n  " + k;
  EXPECT_TRUE(missing.empty())
      << "WranglerConfig knobs absent from README.md (document them in "
         "the Performance & tuning / configuration tables):"
      << joined;
}

// The knob table states each default; the parallelism row's default
// moved from one thread to the hardware thread count and must say so.
TEST(DocsInventoryTest, ReadmeParallelismRowStatesTheHardwareDefault) {
  const std::string readme = ReadFile(VADA_README_MD);
  const size_t row = readme.find("\n| `parallelism` |");
  ASSERT_NE(row, std::string::npos) << "README knob table lost parallelism";
  const std::string line =
      readme.substr(row + 1, readme.find('\n', row + 1) - row - 1);
  EXPECT_TRUE(MentionsWord(line, "hardware")) << line;
  EXPECT_FALSE(MentionsWord(readme, "vada_orchestrator_scan_speedup"))
      << "README documents a metric that no longer exists";
}

TEST(DocsInventoryTest, ReadmeMentionsEveryTool) {
  const std::string readme = ReadFile(VADA_README_MD);
  std::set<std::string> missing;
  for (const std::string& tool : ToolNames()) {
    if (!MentionsWord(readme, tool)) missing.insert(tool);
  }
  std::string joined;
  for (const std::string& t : missing) joined += "\n  " + t;
  EXPECT_TRUE(missing.empty())
      << "tools/ CLIs absent from README.md (document them in the Tools "
         "section):"
      << joined;
}

}  // namespace
}  // namespace vada
