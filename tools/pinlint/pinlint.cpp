// pinlint — repo-native static analysis for the pinsim simulator.
//
// Every number this reproduction publishes (Goglin Tables 1/2, the fig6/fig7
// curves, the perf gate against BENCH_seed.json) assumes the simulator is
// bit-exact under a fixed seed — and alive when the callbacks it queued
// finally fire. The compiler cannot enforce either contract, so this tool
// does. It is deliberately libclang-free — no external dependencies, C++17
// only — because it must build everywhere the simulator builds and run in
// the default CI loop. v2 is structural rather than purely token-stream:
// on top of the tokenizer it builds, per file, a lambda table (capture
// lists + brace-matched body ranges + the enclosing call expression), a
// pointer-symbol table (names declared `T* name`), and, repo-wide, the
// quoted-include graph — which is what the callback-lifetime and layering
// rules need.
//
// Rule pack (see DESIGN.md "Determinism contract & static checks"):
//   D0  suppression hygiene: every `allow(...)` / `unordered-ok(...)`
//       annotation must carry a non-empty reason; a bare escape hatch is
//       itself a diagnostic (and suppresses nothing).
//   D1  no nondeterminism sources outside sim/random: std::random_device,
//       rand()/srand(), wall clocks (system_clock/steady_clock/time()),
//       pointer-value hashing (std::hash<T*>, pointer-keyed unordered
//       containers) and pointer printing ("%p").
//   D2  no iteration (range-for or .begin()) over unordered_map /
//       unordered_set or the simulator's sim::HashMap / sim::HashSet: bucket
//       and slot order are layout-dependent and leak into event scheduling
//       and report text. Annotate provably commutative loops with
//       `// pinlint: unordered-ok(<reason>)`.
//   D3  no raw new/delete/malloc/free outside mem/malloc_sim — simulated
//       process heaps go through MallocSim, host-side ownership through
//       standard containers and smart pointers.
//   D4  counter table: every row of the PINSIM_COUNTERS table in
//       core/counters.hpp must be incremented somewhere under src/. Both
//       reports are generated from the table, so serialization needs no
//       check.
//   D5  obs::Event kind exhaustiveness: every switch over EventKind anywhere
//       must handle every row of the PINSIM_EVENT_KINDS table in
//       obs/event.hpp or carry a default label.
//   D6  header hygiene: #pragma once, no `using namespace` in headers, and
//       include-self-sufficiency spot checks for common std:: types.
//   D7  callback lifetime (src/ only): a lambda handed to the engine
//       (`schedule_at`/`schedule_after`) or a work queue (`submit`) that
//       captures `this`, a raw pointer, or anything by reference may fire
//       after the state it references died (MMU-notifier invalidation,
//       restarted pin jobs, crashed tenants — the PR 5/PR 7 ASan UAF
//       class). Such a lambda must revalidate before dereferencing:
//       `find_alive(...)`, a weak-token `.expired()` / `.lock()` check, or
//       a `guarded(...)` wrapper — or carry an owning handle and annotate
//       `// pinlint: allow(D7: <lifetime argument>)` at the capture.
//   D8  TaskTag coverage (src/ only): every `schedule_at`/`schedule_after`
//       call stamps a non-empty TaskTag, keeping the DESIGN §10 dispatch
//       profiler taxonomy exhaustive the same way D5 locks EventKind.
//   D9  include layering: quoted includes must follow the module DAG
//       (sim at the bottom, then obs, then {mem,ioat} and {cpu,net}, then
//       core, then mpi/baseline, then workloads; bench/tests/examples/tools
//       are unconstrained tops). Back-edges and include cycles are errors.
//       `--dot=FILE` renders the observed module graph as Graphviz.
//
// Suppressions:
//   inline   `// pinlint: unordered-ok(<reason>)`  (D2, same or previous line)
//            `// pinlint: allow(D3: <reason>)`     (any rule)
//            — the reason is mandatory (D0): an empty one does not suppress.
//   baseline tools/pinlint/baseline.txt — `path:rule` entries; every entry
//            must still match something (stale entries are an error), so the
//            baseline can only shrink.
//
// Output: `file:line: rule: message` on stdout, optional JSON report
// (--json=FILE), optional SARIF 2.1.0 report (--sarif=FILE), optional
// Graphviz include-module graph (--dot=FILE). Exit 0 clean, 1
// violations/stale baseline, 2 usage error.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

// --- diagnostics -----------------------------------------------------------

struct Diag {
  std::string file;  // path relative to the scan root
  int line = 0;
  std::string rule;  // "D1".."D6"
  std::string msg;
};

// --- tokenizer -------------------------------------------------------------

enum class Tok : std::uint8_t { kIdent, kNumber, kPunct, kString, kChar };

struct Token {
  Tok kind;
  std::string text;
  int line;
};

struct SourceFile {
  fs::path path;        // as opened
  std::string rel;      // relative to root, '/'-separated
  std::vector<Token> tokens;
  std::map<int, std::string> comments;     // line -> comment text on it
  std::set<std::string> includes;          // <...> and "..." include targets
  std::vector<std::pair<int, std::string>> include_list;  // quoted only: line, target
  std::vector<std::pair<int, std::string>> strings;  // line, literal body
  bool pragma_once = false;
  bool is_header = false;
};

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// Tokenizes `text`. Comments land in `comments` (for annotation lookup),
// string literal bodies in `strings` (for "%p" detection), preprocessor
// lines are parsed just enough to harvest includes and #pragma once.
void tokenize(const std::string& text, SourceFile& out) {
  const std::size_t n = text.size();
  std::size_t i = 0;
  int line = 1;
  bool at_line_start = true;

  auto record_comment = [&](int ln, const std::string& body) {
    auto& slot = out.comments[ln];
    if (!slot.empty()) slot += ' ';
    slot += body;
  };

  while (i < n) {
    const char c = text[i];
    if (c == '\n') {
      ++line;
      ++i;
      at_line_start = true;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    // Preprocessor directive: harvest includes / pragma once, skip the rest
    // (honoring backslash continuations).
    if (c == '#' && at_line_start) {
      std::size_t j = i + 1;
      while (j < n && (text[j] == ' ' || text[j] == '\t')) ++j;
      std::size_t k = j;
      while (k < n && ident_char(text[k])) ++k;
      const std::string directive = text.substr(j, k - j);
      std::size_t end = i;
      while (end < n && text[end] != '\n') {
        if (text[end] == '\\' && end + 1 < n && text[end + 1] == '\n') {
          ++line;
          end += 2;
          continue;
        }
        ++end;
      }
      const std::string rest = text.substr(k, end - k);
      if (directive == "include") {
        const auto lt = rest.find_first_of("<\"");
        if (lt != std::string::npos) {
          const char close = rest[lt] == '<' ? '>' : '"';
          const auto gt = rest.find(close, lt + 1);
          if (gt != std::string::npos) {
            const std::string target = rest.substr(lt + 1, gt - lt - 1);
            out.includes.insert(target);
            // Quoted includes are project-local: they feed the include graph
            // (D9) with the line number the back-edge diagnostic points at.
            if (close == '"') out.include_list.emplace_back(line, target);
          }
        }
      } else if (directive == "pragma" &&
                 rest.find("once") != std::string::npos) {
        out.pragma_once = true;
      }
      i = end;
      at_line_start = false;
      continue;
    }
    at_line_start = false;
    // Comments.
    if (c == '/' && i + 1 < n && text[i + 1] == '/') {
      std::size_t end = i + 2;
      while (end < n && text[end] != '\n') ++end;
      record_comment(line, text.substr(i + 2, end - i - 2));
      i = end;
      continue;
    }
    if (c == '/' && i + 1 < n && text[i + 1] == '*') {
      std::size_t end = i + 2;
      int start_line = line;
      while (end + 1 < n && !(text[end] == '*' && text[end + 1] == '/')) {
        if (text[end] == '\n') ++line;
        ++end;
      }
      record_comment(start_line, text.substr(i + 2, end - i - 2));
      i = end + 2 > n ? n : end + 2;
      continue;
    }
    // Raw string literal R"delim( ... )delim".
    if (c == 'R' && i + 1 < n && text[i + 1] == '"') {
      std::size_t j = i + 2;
      std::string delim;
      while (j < n && text[j] != '(') delim += text[j++];
      const std::string close = ")" + delim + "\"";
      const auto end = text.find(close, j);
      const std::size_t stop = end == std::string::npos ? n : end + close.size();
      const std::string body =
          text.substr(j + 1, (end == std::string::npos ? n : end) - j - 1);
      out.strings.emplace_back(line, body);
      out.tokens.push_back({Tok::kString, body, line});
      for (std::size_t p = i; p < stop; ++p) {
        if (text[p] == '\n') ++line;
      }
      i = stop;
      continue;
    }
    // String / char literals.
    if (c == '"' || c == '\'') {
      const char quote = c;
      std::size_t j = i + 1;
      std::string body;
      while (j < n && text[j] != quote) {
        if (text[j] == '\\' && j + 1 < n) {
          body += text[j];
          body += text[j + 1];
          j += 2;
          continue;
        }
        if (text[j] == '\n') ++line;  // unterminated; be permissive
        body += text[j++];
      }
      out.strings.emplace_back(line, body);
      out.tokens.push_back(
          {quote == '"' ? Tok::kString : Tok::kChar, body, line});
      i = j + 1 > n ? n : j + 1;
      continue;
    }
    // Identifiers / keywords.
    if (std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_') {
      std::size_t j = i;
      while (j < n && ident_char(text[j])) ++j;
      out.tokens.push_back({Tok::kIdent, text.substr(i, j - i), line});
      i = j;
      continue;
    }
    // Numbers (good enough: digits + ident chars + '.' + quote separators).
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      std::size_t j = i;
      while (j < n && (ident_char(text[j]) || text[j] == '.' ||
                       text[j] == '\'')) {
        ++j;
      }
      out.tokens.push_back({Tok::kNumber, text.substr(i, j - i), line});
      i = j;
      continue;
    }
    // Punctuation: greedily join the few multi-char operators we care about.
    static const char* kTwo[] = {"::", "++", "--", "+=", "-=", "->", "<<",
                                 ">>", "==", "!=", "<=", ">=", "&&", "||"};
    std::string p(1, c);
    if (i + 1 < n) {
      const std::string two = text.substr(i, 2);
      for (const char* t : kTwo) {
        if (two == t) {
          p = two;
          break;
        }
      }
    }
    out.tokens.push_back({Tok::kPunct, p, line});
    i += p.size();
  }
}

// --- suppression helpers ---------------------------------------------------

bool has_reason_text(const std::string& s) {
  for (char c : s) {
    if (std::isspace(static_cast<unsigned char>(c)) == 0) return true;
  }
  return false;
}

// True if `line` carries a pinlint annotation that suppresses `rule` — on
// the line itself (trailing comment) or in the contiguous run of comment
// lines immediately above it (a multi-line annotation block). D2
// additionally honors the dedicated `unordered-ok(<reason>)` spelling;
// every rule honors `allow(Dk: <reason>)`. A reason is mandatory (D0): a
// reasonless annotation suppresses nothing. The close paren may be missing
// when the reason continues onto the next comment line — the reason just
// has to start on the annotated line.
bool inline_suppressed(const SourceFile& f, const std::string& rule,
                       int line) {
  constexpr int kMaxBlock = 8;  // comment lines walked upward
  for (int ln = line; ln >= 0 && ln > line - kMaxBlock; --ln) {
    const auto it = f.comments.find(ln);
    if (it == f.comments.end()) {
      if (ln == line) continue;  // flagged line itself may have no comment
      break;                     // a code-only line ends the comment block
    }
    const std::string& c = it->second;
    const auto tag = c.find("pinlint:");
    if (tag == std::string::npos) continue;
    const std::string body = c.substr(tag + 8);
    if (rule == "D2") {
      const auto ok = body.find("unordered-ok(");
      if (ok != std::string::npos) {
        const auto open = ok + 13;
        const auto close = body.find(')', open);
        const std::string reason = body.substr(
            open, close == std::string::npos ? std::string::npos
                                             : close - open);
        if (has_reason_text(reason)) return true;
      }
    }
    const auto allow = body.find("allow(");
    if (allow != std::string::npos) {
      const auto open = allow + 6;
      const auto close = body.find(')', open);
      const std::string inner = body.substr(
          open,
          close == std::string::npos ? std::string::npos : close - open);
      const auto rule_at = inner.find(rule);
      if (rule_at != std::string::npos) {
        const auto colon = inner.find(':', rule_at + rule.size());
        if (colon != std::string::npos &&
            has_reason_text(inner.substr(colon + 1))) {
          return true;
        }
      }
    }
  }
  return false;
}

// --- linter ----------------------------------------------------------------

class Linter {
 public:
  explicit Linter(fs::path root) : root_(std::move(root)) {}

  bool load_paths(const std::vector<std::string>& paths);
  void run();
  bool write_dot(const std::string& path) const;

  std::vector<Diag>& diags() { return diags_; }
  std::size_t files_scanned() const { return files_.size(); }

 private:
  SourceFile* find_rel(const std::string& rel);
  void add(const SourceFile& f, int line, const char* rule, std::string msg);
  bool load_file(const fs::path& p);

  void check_d0(const SourceFile& f);
  void check_d1(const SourceFile& f);
  void check_d2(const SourceFile& f);
  void check_d3(const SourceFile& f);
  void check_d4();
  void check_d5();
  void check_d6(const SourceFile& f);
  void check_d7(const SourceFile& f);
  void check_d8(const SourceFile& f);
  void check_d9(std::size_t n_files);

  std::set<std::string> unordered_names(const SourceFile& f) const;

  fs::path root_;
  std::vector<SourceFile> files_;
  std::vector<Diag> diags_;
  // Include-module graph observed by D9, for --dot: edge -> #include count,
  // plus the subset of edges that violated the layering matrix.
  std::map<std::pair<std::string, std::string>, int> mod_edges_;
  std::set<std::pair<std::string, std::string>> mod_violations_;
};

bool is_source_ext(const fs::path& p) {
  const std::string e = p.extension().string();
  return e == ".cpp" || e == ".cc" || e == ".cxx" || e == ".hpp" ||
         e == ".h" || e == ".hh";
}

bool Linter::load_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "pinlint: cannot read %s\n", p.string().c_str());
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  SourceFile f;
  f.path = p;
  std::error_code ec;
  const fs::path rel = fs::relative(p, root_, ec);
  f.rel = (ec ? p : rel).generic_string();
  const std::string ext = p.extension().string();
  f.is_header = ext == ".hpp" || ext == ".h" || ext == ".hh";
  tokenize(ss.str(), f);
  files_.push_back(std::move(f));
  return true;
}

bool Linter::load_paths(const std::vector<std::string>& paths) {
  std::set<std::string> seen;
  bool ok = true;
  for (const std::string& raw : paths) {
    fs::path p = fs::path(raw).is_absolute() ? fs::path(raw) : root_ / raw;
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      std::vector<fs::path> found;
      for (auto it = fs::recursive_directory_iterator(p, ec);
           !ec && it != fs::recursive_directory_iterator(); ++it) {
        if (it->is_regular_file() && is_source_ext(it->path())) {
          found.push_back(it->path());
        }
      }
      std::sort(found.begin(), found.end());
      for (const auto& q : found) {
        if (seen.insert(q.generic_string()).second && !load_file(q)) ok = false;
      }
    } else if (fs::is_regular_file(p, ec)) {
      if (seen.insert(p.generic_string()).second && !load_file(p)) ok = false;
    } else {
      std::fprintf(stderr, "pinlint: no such file or directory: %s\n",
                   raw.c_str());
      ok = false;
    }
  }
  return ok;
}

SourceFile* Linter::find_rel(const std::string& rel) {
  for (auto& f : files_) {
    if (f.rel == rel) return &f;
  }
  // Not among the scan paths: load it on demand so the cross-file rules
  // (D4/D5) work even when the caller scans a subset.
  const fs::path p = root_ / rel;
  std::error_code ec;
  if (!fs::is_regular_file(p, ec)) return nullptr;
  if (!load_file(p)) return nullptr;
  return &files_.back();
}

void Linter::add(const SourceFile& f, int line, const char* rule,
                 std::string msg) {
  if (inline_suppressed(f, rule, line)) return;
  diags_.push_back({f.rel, line, rule, std::move(msg)});
}

// --- D1: nondeterminism sources --------------------------------------------

void Linter::check_d1(const SourceFile& f) {
  if (f.rel.find("sim/random") != std::string::npos) return;
  const auto& t = f.tokens;

  auto prev_is = [&](std::size_t i, const char* s) {
    return i > 0 && t[i - 1].text == s;
  };
  auto member_access = [&](std::size_t i) {
    return prev_is(i, ".") || prev_is(i, "->");
  };

  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Tok::kIdent) continue;
    const std::string& s = t[i].text;

    // Banned identifiers wherever they appear (std:: or not).
    if (s == "random_device" || s == "system_clock" || s == "steady_clock" ||
        s == "high_resolution_clock" || s == "gettimeofday" ||
        s == "clock_gettime" || s == "timespec_get" || s == "getrandom") {
      add(f, t[i].line, "D1",
          "nondeterminism source '" + s +
              "' — all randomness/time must come from sim::Rng / sim::Time");
      continue;
    }

    // Banned only as a free-function call: rand(), srand(), time(),
    // clock(), drand48(). Member access (e.time, h.clock()) and
    // declarations (`VirtAddr time(...)`) stay legal. An identifier before
    // the name usually means a declaration's return type — but `return` /
    // `co_return` / `case` are call contexts, not types.
    if ((s == "rand" || s == "srand" || s == "time" || s == "clock" ||
         s == "drand48" || s == "random") &&
        i + 1 < t.size() && t[i + 1].text == "(") {
      if (!member_access(i) &&
          (i == 0 || t[i - 1].kind == Tok::kPunct || prev_is(i, "return") ||
           prev_is(i, "co_return") || prev_is(i, "case")) &&
          !prev_is(i, "::")) {
        add(f, t[i].line, "D1",
            "call to '" + s +
                "()' — wall-clock/libc randomness breaks seeded replay; use "
                "sim::Rng or the engine's virtual time");
      }
      continue;
    }

    // Pointer-value hashing: std::hash<T*> and pointer-keyed unordered
    // containers. Pointer values differ across runs (ASLR, allocation
    // order), so any ordering derived from them is nondeterministic.
    if (s == "hash" && i + 1 < t.size() && t[i + 1].text == "<") {
      int depth = 0;
      for (std::size_t j = i + 1; j < t.size() && j < i + 32; ++j) {
        if (t[j].text == "<") ++depth;
        if (t[j].text == ">") {
          if (--depth == 0) break;
        }
        if (t[j].text == "*" && depth == 1) {
          add(f, t[i].line, "D1",
              "std::hash over a pointer type — pointer values are not stable "
              "across runs");
          break;
        }
      }
      continue;
    }
    if ((s == "unordered_map" || s == "unordered_set") && i + 1 < t.size() &&
        t[i + 1].text == "<") {
      // Flag a pointer first template argument (the key type).
      int depth = 0;
      for (std::size_t j = i + 1; j < t.size(); ++j) {
        if (t[j].text == "<" || t[j].text == "(") ++depth;
        if (t[j].text == ">" || t[j].text == ")") {
          if (--depth == 0) break;
        }
        if (depth == 1 && t[j].text == ",") break;  // end of key type
        if (depth == 1 && t[j].text == "*") {
          add(f, t[i].line, "D1",
              "pointer-keyed " + s +
                  " — bucket placement depends on the pointer value; key by "
                  "a stable id instead");
          break;
        }
      }
      continue;
    }
  }

  // Pointer printing: "%p" in a format string renders an address.
  for (const auto& [line, body] : f.strings) {
    if (body.find("%p") != std::string::npos) {
      // Re-check suppression against the literal's line.
      add(f, line, "D1",
          "format string prints a pointer value (\"%p\") — addresses differ "
          "across runs");
    }
  }
}

// --- D2: unordered iteration -----------------------------------------------

// Container types whose iteration order is not a function of the keys: the
// standard hash containers and the simulator's open-addressing tables
// (sim/hash_map.hpp), whose slot order depends on the insert/erase history.
bool is_unordered_type(const std::string& s) {
  return s == "unordered_map" || s == "unordered_set" || s == "HashMap" ||
         s == "HashSet";
}

// Names declared (in this file) as unordered containers: direct
// declarations, references/pointers, and declarations through a local
// `using Alias = std::unordered_map<...>`.
std::set<std::string> Linter::unordered_names(const SourceFile& f) const {
  std::set<std::string> names;
  std::set<std::string> aliases;
  const auto& t = f.tokens;

  auto harvest_after_template = [&](std::size_t i) -> std::size_t {
    // t[i] is an unordered container type (or an alias, with no template
    // args). Skip <...> if present, then any of `& * const`, then take the
    // identifier if one follows.
    std::size_t j = i + 1;
    if (j < t.size() && t[j].text == "<") {
      int depth = 0;
      for (; j < t.size(); ++j) {
        if (t[j].text == "<") ++depth;
        else if (t[j].text == ">>") {  // e.g. map<K, set<V>>
          depth -= 2;
          if (depth <= 0) { ++j; break; }
        } else if (t[j].text == ">") {
          if (--depth == 0) { ++j; break; }
        }
      }
    }
    while (j < t.size() &&
           (t[j].text == "&" || t[j].text == "*" || t[j].text == "const")) {
      ++j;
    }
    if (j < t.size() && t[j].kind == Tok::kIdent) names.insert(t[j].text);
    return j;
  };

  // Pass 1: aliases (`using X = std::unordered_map<...>;`).
  for (std::size_t i = 0; i + 3 < t.size(); ++i) {
    if (t[i].text == "using" && t[i + 1].kind == Tok::kIdent &&
        t[i + 2].text == "=") {
      for (std::size_t j = i + 3; j < t.size() && j < i + 8; ++j) {
        if (t[j].text == ";") break;
        if (is_unordered_type(t[j].text)) {
          aliases.insert(t[i + 1].text);
          break;
        }
      }
    }
  }
  // Pass 2: declarations.
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Tok::kIdent) continue;
    if (is_unordered_type(t[i].text) || aliases.count(t[i].text) != 0) {
      harvest_after_template(i);
    }
  }
  return names;
}

void Linter::check_d2(const SourceFile& f) {
  std::set<std::string> names = unordered_names(f);
  // A .cpp also sees the unordered members of its paired header (the
  // overwhelmingly common pattern: declared in x.hpp, iterated in x.cpp).
  if (!f.is_header) {
    for (const char* ext : {".hpp", ".h"}) {
      fs::path header = f.path;
      header.replace_extension(ext);
      std::error_code ec;
      if (!fs::is_regular_file(header, ec)) continue;
      const fs::path relp = fs::relative(header, root_, ec);
      SourceFile* hf = find_rel((ec ? header : relp).generic_string());
      if (hf != nullptr) {
        const auto hn = unordered_names(*hf);
        names.insert(hn.begin(), hn.end());
      }
    }
  }
  if (names.empty()) return;

  const auto& t = f.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    // Range-for: `for ( decl : expr )` — find the ':' at paren depth 1,
    // then the iterated expression's trailing identifier.
    if (t[i].text == "for" && i + 1 < t.size() && t[i + 1].text == "(") {
      int depth = 0;
      std::size_t colon = 0;
      std::size_t close = 0;
      for (std::size_t j = i + 1; j < t.size(); ++j) {
        if (t[j].text == "(" || t[j].text == "[" || t[j].text == "{") ++depth;
        else if (t[j].text == ")" || t[j].text == "]" || t[j].text == "}") {
          if (--depth == 0) { close = j; break; }
        } else if (t[j].text == ":" && depth == 1 && colon == 0) {
          colon = j;
        }
      }
      if (colon == 0 || close == 0) continue;
      // Trailing identifier of the range expression, ignoring a trailing
      // `()` call and member chains: the name actually being iterated.
      std::size_t j = close - 1;
      while (j > colon && (t[j].text == ")" || t[j].text == "(")) --j;
      if (t[j].kind == Tok::kIdent && names.count(t[j].text) != 0) {
        add(f, t[i].line, "D2",
            "iteration over unordered container '" + t[j].text +
                "' — bucket order can leak into sim state or output; sort "
                "the keys (or use an ordered map), or annotate the loop "
                "`// pinlint: unordered-ok(<why order cannot matter>)`");
      }
      continue;
    }
    // Iterator walk: `name.begin()` for an unordered name. find()/erase()
    // by key are fine; begin() means traversal.
    if (t[i].text == "begin" && i >= 2 && t[i - 1].text == "." &&
        t[i - 2].kind == Tok::kIdent && names.count(t[i - 2].text) != 0 &&
        i + 1 < t.size() && t[i + 1].text == "(") {
      add(f, t[i].line, "D2",
          "iterator traversal of unordered container '" + t[i - 2].text +
              "' — bucket order can leak into sim state or output; sort the "
              "keys first or annotate "
              "`// pinlint: unordered-ok(<why order cannot matter>)`");
    }
  }
}

// --- D3: raw allocation ----------------------------------------------------

void Linter::check_d3(const SourceFile& f) {
  if (f.rel.find("mem/malloc_sim") != std::string::npos) return;
  const auto& t = f.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Tok::kIdent) continue;
    const std::string& s = t[i].text;
    if (s == "new" || s == "delete") {
      // `= delete`, `delete[]` of... any use of the keywords is raw memory
      // management except deleted functions (`= delete`) and
      // `operator new/delete` declarations.
      if (i > 0 && t[i - 1].text == "=") continue;        // = delete / = new?
      if (i > 0 && t[i - 1].text == "operator") continue; // operator new decl
      add(f, t[i].line, "D3",
          "raw '" + s +
              "' — simulated heaps go through mem::MallocSim; host-side "
              "ownership through std containers/smart pointers");
      continue;
    }
    if ((s == "malloc" || s == "calloc" || s == "realloc" || s == "free") &&
        i + 1 < t.size() && t[i + 1].text == "(") {
      // Method calls (heap.malloc, p.heap.free), out-of-class definitions
      // (`MallocSim::malloc`) and declarations (`VirtAddr malloc(std::size_t)`)
      // are the simulator's own API; `std::malloc` and `::malloc` are libc.
      // A keyword names neither a class (`return ::malloc(n)`) nor a return
      // type (`return malloc(n)`).
      static const std::set<std::string> kKeywords = {
          "return", "co_return", "co_yield", "throw", "else", "do"};
      const auto names_type = [](const Token& tok) {
        return tok.kind == Tok::kIdent && kKeywords.count(tok.text) == 0;
      };
      const bool member =
          i > 0 && (t[i - 1].text == "." || t[i - 1].text == "->" ||
                    (t[i - 1].text == "::" && i > 1 && names_type(t[i - 2]) &&
                     t[i - 2].text != "std"));
      // Return type directly before the name: `VirtAddr malloc(...)`,
      // `void* malloc(...)`, `VirtAddr& malloc(...)`.
      const bool declaration =
          i > 0 && (names_type(t[i - 1]) || t[i - 1].text == "*" ||
                    t[i - 1].text == "&");
      if (!member && !declaration) {
        add(f, t[i].line, "D3",
            "raw '" + s + "()' — use mem::MallocSim for simulated memory");
      }
    }
  }
}

// --- D4: counter table ------------------------------------------------------

// The rows of the X-macro table `#define <table>(X)` in `f`: (row text
// after `X(`, line) for every line of the macro body that opens a row. The
// tokenizer skips preprocessor lines, so the body is read as text.
std::vector<std::pair<std::string, int>> macro_table_rows(
    const SourceFile& f, const std::string& table) {
  std::ifstream in(f.path, std::ios::binary);
  std::vector<std::pair<std::string, int>> rows;
  const std::string define = "#define " + table + "(";
  bool in_table = false;
  std::string text;
  for (int line = 1; std::getline(in, text); ++line) {
    if (text.rfind(define, 0) == 0) in_table = true;
    if (!in_table) continue;
    const std::size_t x = text.find("X(");
    if (x != std::string::npos) rows.emplace_back(text.substr(x + 2), line);
    if (text.empty() || text.back() != '\\') in_table = false;
  }
  return rows;
}

// The leading identifier of `text`, skipping blanks ("" when none).
std::string leading_ident(const std::string& text, std::size_t from = 0) {
  while (from < text.size() && text[from] == ' ') ++from;
  std::size_t e = from;
  while (e < text.size() && ident_char(text[e])) ++e;
  return text.substr(from, e - from);
}

// The counter table's rows in core/counters.hpp: (member, line) for every
// `X("section", member, ...` row.
std::vector<std::pair<std::string, int>> counter_table_rows(
    const SourceFile& f) {
  std::vector<std::pair<std::string, int>> rows;
  for (const auto& [text, line] : macro_table_rows(f, "PINSIM_COUNTERS")) {
    const std::size_t q =
        text.starts_with('"') ? text.find("\",", 1) : std::string::npos;
    if (q == std::string::npos) continue;
    std::string member = leading_ident(text, q + 2);
    if (!member.empty()) rows.emplace_back(std::move(member), line);
  }
  return rows;
}

void Linter::check_d4() {
  SourceFile* counters = find_rel("src/core/counters.hpp");
  if (counters == nullptr) return;  // not this repo shape

  auto incremented_in = [](const SourceFile& f, const std::string& name) {
    const auto& tk = f.tokens;
    for (std::size_t i = 0; i < tk.size(); ++i) {
      if (tk[i].kind != Tok::kIdent || tk[i].text != name) continue;
      if (i + 1 < tk.size() &&
          (tk[i + 1].text == "+=" || tk[i + 1].text == "++" ||
           tk[i + 1].text == "=")) {
        return true;
      }
      // Passed as an argument (`do_unpin(r, counters_.unpin_ops)`): counts
      // as a write — by-reference counter plumbing is an idiom here.
      if (i + 1 < tk.size() && i > 1 && tk[i - 1].text == "." &&
          (tk[i + 1].text == ")" || tk[i + 1].text == ",")) {
        return true;
      }
      // `++counters_.name` / `++ep->counters().frames_corrupted`: walk back
      // over the object chain (identifiers, member/scope punctuation and
      // call parens) to the prefix operator.
      std::size_t j = i;
      while (j > 0 && (tk[j - 1].kind == Tok::kIdent ||
                       tk[j - 1].text == "." || tk[j - 1].text == "->" ||
                       tk[j - 1].text == "::" || tk[j - 1].text == "(" ||
                       tk[j - 1].text == ")")) {
        --j;
      }
      if (j > 0 && tk[j - 1].text == "++") return true;
    }
    return false;
  };

  // Both reports are generated from the table, so every row is serialized
  // by construction; what the table cannot guarantee is that anything
  // ever counts.
  const auto rows = counter_table_rows(*counters);
  if (rows.empty()) {
    diags_.push_back({counters->rel, 1, "D4",
                      "no `X(\"section\", member, ...` rows found in the "
                      "PINSIM_COUNTERS table — D4 would check nothing"});
  }
  for (const auto& [name, line] : rows) {
    bool inc = false;
    for (const auto& f : files_) {
      if (f.rel == counters->rel) continue;
      if (f.rel.rfind("src/", 0) == 0 && incremented_in(f, name)) {
        inc = true;
        break;
      }
    }
    if (!inc) {
      diags_.push_back({counters->rel, line, "D4",
                        "counter '" + name +
                            "' is declared but never incremented under src/"});
    }
  }
}

// --- D5: EventKind exhaustiveness ------------------------------------------

void Linter::check_d5() {
  SourceFile* event = find_rel("src/obs/event.hpp");
  if (event == nullptr) return;

  // The kinds are the rows of the PINSIM_EVENT_KINDS table, which also
  // generates the enum, the names and the flight recorder's slots; what it
  // cannot reach is a hand-written switch.
  std::vector<std::string> kinds;
  for (const auto& row : macro_table_rows(*event, "PINSIM_EVENT_KINDS")) {
    std::string kind = leading_ident(row.first);
    if (!kind.empty()) kinds.push_back(std::move(kind));
  }
  if (kinds.empty()) {
    diags_.push_back({event->rel, 1, "D5",
                      "no `X(kKind, \"name\", ...` rows found in the "
                      "PINSIM_EVENT_KINDS table — D5 would check nothing"});
    return;
  }
  const std::set<std::string> kind_set(kinds.begin(), kinds.end());

  // Any switch carrying EventKind case labels must be exhaustive or have a
  // default. Checked across every scanned file.
  for (auto& f : files_) {
    const auto& tk = f.tokens;
    for (std::size_t i = 0; i < tk.size(); ++i) {
      if (tk[i].text != "switch") continue;
      // Find the switch body.
      std::size_t j = i + 1;
      int depth = 0;
      while (j < tk.size() && tk[j].text != "{") ++j;
      std::set<std::string> cases;
      bool has_default = false;
      bool on_eventkind = false;
      for (; j < tk.size(); ++j) {
        if (tk[j].text == "{") ++depth;
        if (tk[j].text == "}") {
          if (--depth == 0) break;
        }
        if (tk[j].text == "default") has_default = true;
        if (tk[j].text == "case" && j + 1 < tk.size()) {
          // case [obs::]EventKind::kX — the label must literally be
          // qualified with EventKind:: (another enum may reuse an
          // enumerator name, e.g. Phase::kRetransmit).
          std::size_t k = j + 1;
          while (k < tk.size() &&
                 (tk[k].kind == Tok::kIdent || tk[k].text == "::") &&
                 tk[k].text != ":") {
            if (tk[k].kind == Tok::kIdent && kind_set.count(tk[k].text) != 0 &&
                k >= 2 && tk[k - 1].text == "::" &&
                tk[k - 2].text == "EventKind") {
              on_eventkind = true;
              cases.insert(tk[k].text);
            }
            ++k;
          }
        }
      }
      if (on_eventkind && !has_default) {
        for (const auto& k : kinds) {
          if (cases.count(k) == 0) {
            diags_.push_back(
                {f.rel, tk[i].line, "D5",
                 "switch over obs::EventKind has no default and does not "
                 "handle EventKind::" + k});
          }
        }
      }
      i = j;
    }
  }
}

// --- D6: header hygiene ----------------------------------------------------

void Linter::check_d6(const SourceFile& f) {
  if (!f.is_header) return;
  if (!f.pragma_once) {
    diags_.push_back(
        {f.rel, 1, "D6", "header is missing '#pragma once'"});
  }
  const auto& t = f.tokens;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].text == "using" && t[i + 1].text == "namespace") {
      add(f, t[i].line, "D6",
          "'using namespace' in a header leaks into every includer");
    }
  }
  // Include-self-sufficiency spot checks: a few unambiguous std:: names
  // whose home header is unique. Transitive includes do not count — the
  // header must stand alone.
  static const std::pair<const char*, const char*> kNeeds[] = {
      {"vector", "vector"},         {"string", "string"},
      {"unordered_map", "unordered_map"},
      {"unordered_set", "unordered_set"},
      {"function", "functional"},   {"unique_ptr", "memory"},
      {"shared_ptr", "memory"},     {"weak_ptr", "memory"},
      {"make_unique", "memory"},    {"make_shared", "memory"},
      {"optional", "optional"},     {"variant", "variant"},
      {"uint8_t", "cstdint"},       {"uint16_t", "cstdint"},
      {"uint32_t", "cstdint"},      {"uint64_t", "cstdint"},
      {"int64_t", "cstdint"},       {"map", "map"},
      {"deque", "deque"},           {"list", "list"},
  };
  for (std::size_t i = 2; i < t.size(); ++i) {
    if (t[i].kind != Tok::kIdent || t[i - 1].text != "::" ||
        t[i - 2].text != "std") {
      continue;
    }
    for (const auto& [name, header] : kNeeds) {
      if (t[i].text == name && f.includes.count(header) == 0) {
        add(f, t[i].line, "D6",
            "uses std::" + std::string(name) + " but does not include <" +
                header + "> itself (include-what-you-use)");
        break;
      }
    }
  }
}

// --- D0: suppression hygiene -----------------------------------------------

// Every escape hatch must say why. `allow(D3)` / `allow(D3:)` /
// `unordered-ok()` are themselves diagnostics — and (see inline_suppressed)
// they also suppress nothing, so an empty reason can never silently widen
// the hole it punches.
void Linter::check_d0(const SourceFile& f) {
  for (const auto& [line, text] : f.comments) {
    const auto tag = text.find("pinlint:");
    if (tag == std::string::npos) continue;
    const std::string body = text.substr(tag + 8);
    for (const std::string kind : {"allow(", "unordered-ok("}) {
      std::size_t pos = 0;
      while ((pos = body.find(kind, pos)) != std::string::npos) {
        const std::size_t open = pos + kind.size();
        const auto close = body.find(')', open);
        const std::string inner = body.substr(
            open,
            close == std::string::npos ? std::string::npos : close - open);
        bool ok = false;
        if (kind == "allow(") {
          const auto colon = inner.find(':');
          ok = colon != std::string::npos &&
               has_reason_text(inner.substr(colon + 1));
        } else {
          ok = has_reason_text(inner);
        }
        if (!ok) {
          diags_.push_back(
              {f.rel, line, "D0",
               "suppression '" + kind +
                   ")' carries no reason — write `// pinlint: " +
                   (kind == "allow(" ? std::string("allow(Dk: <why>)")
                                     : std::string("unordered-ok(<why>)")) +
                   "`; a reasonless annotation also suppresses nothing"});
        }
        pos = open;
      }
    }
  }
}

// --- scope machinery: pointer symbols + lambda extraction ------------------

// Names declared in this file as raw pointers (`Type* name`, parameters
// included). File-scoped, not block-scoped — good enough to decide whether
// a lambda capture smuggles a raw pointer, with inline `allow(D7: ...)` as
// the pressure valve for the rare collision.
std::set<std::string> pointer_names(const SourceFile& f) {
  std::set<std::string> out;
  const auto& t = f.tokens;
  auto type_ish = [&](std::size_t i) {
    if (t[i].kind != Tok::kIdent) return false;
    const std::string& s = t[i].text;
    static const std::set<std::string> kBuiltin = {
        "void",     "char",    "short",    "int",      "long",
        "unsigned", "signed",  "float",    "double",   "bool",
        "auto",     "size_t",  "uint8_t",  "uint16_t", "uint32_t",
        "uint64_t", "int8_t",  "int16_t",  "int32_t",  "int64_t",
        "byte",     "uintptr_t"};
    if (kBuiltin.count(s) != 0) return true;
    if (std::isupper(static_cast<unsigned char>(s[0])) != 0) return true;
    if (i > 0 && t[i - 1].text == "::") return true;  // qualified type name
    return false;
  };
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (t[i + 1].text != "*") continue;
    if (!type_ish(i)) continue;  // `a * b` is arithmetic, not a declaration
    std::size_t j = i + 2;
    if (j < t.size() && t[j].text == "const") ++j;  // Type* const name
    if (j >= t.size() || t[j].kind != Tok::kIdent) continue;
    if (j + 1 >= t.size()) continue;
    // A declarator is terminated like one; `Type* name(args)` would be a
    // function declaration, `*name` mid-expression a dereference.
    const std::string& nxt = t[j + 1].text;
    if (nxt == "=" || nxt == ";" || nxt == "," || nxt == ")" || nxt == "{") {
      out.insert(t[j].text);
    }
  }
  return out;
}

struct LambdaInfo {
  int line = 0;                              // line of the '[' introducer
  std::size_t body_begin = 0, body_end = 0;  // token indices of '{' / '}'
  bool cap_this = false;
  bool cap_default_ref = false;              // [&]
  std::vector<std::string> ref_caps;         // [&name]
  std::vector<std::string> ptr_caps;         // raw-pointer captures
  std::string callee;  // nearest enclosing call expression ("" if none)
  bool guarded = false;  // wrapped in a guarded(...) liveness adapter
};

// Walks the token stream with an explicit frame stack (call parens, brace
// scopes, subscripts) and yields every lambda together with its parsed
// capture list and the call expression it is an argument of. `guarded(...)`
// and `std::move/forward` wrappers are transparent: the lambda's callee is
// the call outside them, with `guarded` remembered as a liveness proof.
// The walk into a lambda body happens through the same loop, so a nested
// lambda resolves against its own nearest call, not the outer one (the
// enclosing-call walk stops at any non-paren frame).
std::vector<LambdaInfo> extract_lambdas(const SourceFile& f,
                                        const std::set<std::string>& ptrs) {
  std::vector<LambdaInfo> out;
  const auto& t = f.tokens;
  struct Frame {
    char kind;  // '(' call/group, '{' brace scope, '[' subscript
    std::string callee;
  };
  std::vector<Frame> stack;
  static const std::set<std::string> kNotCallee = {
      "if", "while", "for", "switch", "return", "co_return", "co_await",
      "co_yield", "sizeof", "catch", "alignof", "decltype"};

  for (std::size_t i = 0; i < t.size(); ++i) {
    const std::string& s = t[i].text;
    if (s == "(") {
      std::string callee;
      if (i > 0 && t[i - 1].kind == Tok::kIdent &&
          kNotCallee.count(t[i - 1].text) == 0) {
        callee = t[i - 1].text;
      }
      stack.push_back({'(', callee});
      continue;
    }
    if (s == "{") {
      stack.push_back({'{', ""});
      continue;
    }
    if (s == ")" || s == "}") {
      const char open = s == ")" ? '(' : '{';
      while (!stack.empty() && stack.back().kind != open) stack.pop_back();
      if (!stack.empty()) stack.pop_back();
      continue;
    }
    if (s != "[") continue;
    // `a[i]` / `f()[0]` / `"x"[0]` subscripts and `[[attributes]]` are not
    // lambda introducers.
    if (i > 0 &&
        (t[i - 1].kind == Tok::kIdent || t[i - 1].kind == Tok::kNumber ||
         t[i - 1].kind == Tok::kString || t[i - 1].text == "]" ||
         t[i - 1].text == ")")) {
      stack.push_back({'[', ""});
      continue;
    }
    if (i + 1 < t.size() && t[i + 1].text == "[") {
      // Attribute: skip both bracket groups wholesale.
      int depth = 0;
      for (std::size_t j = i; j < t.size(); ++j) {
        if (t[j].text == "[") ++depth;
        else if (t[j].text == "]" && --depth == 0) {
          i = j;
          break;
        }
      }
      continue;
    }

    // Capture list: match to the closing ']'.
    LambdaInfo lam;
    lam.line = t[i].line;
    std::size_t close = 0;
    {
      int depth = 0;
      for (std::size_t j = i; j < t.size(); ++j) {
        const std::string& u = t[j].text;
        if (u == "[" || u == "(" || u == "{") ++depth;
        else if (u == "]" || u == ")" || u == "}") {
          if (--depth == 0) {
            close = j;
            break;
          }
        }
      }
    }
    if (close == 0) continue;

    // Split the capture list at top-level commas and classify each capture.
    std::vector<std::pair<std::size_t, std::size_t>> segs;  // [a, b)
    {
      int depth = 0;
      std::size_t start = i + 1;
      for (std::size_t j = i + 1; j <= close; ++j) {
        const std::string& u = t[j].text;
        if (u == "[" || u == "(" || u == "{") ++depth;
        else if (u == ")" || u == "}" || (u == "]" && j != close)) --depth;
        if ((u == "," && depth == 0) || j == close) {
          if (j > start) segs.emplace_back(start, j);
          start = j + 1;
        }
      }
    }
    for (const auto& [a, b] : segs) {
      if (t[a].text == "this") {
        lam.cap_this = true;
        continue;
      }
      if (t[a].text == "*") continue;  // [*this] copies the object: owning
      if (t[a].text == "&") {
        if (b - a == 1) {
          lam.cap_default_ref = true;
        } else if (t[a + 1].kind == Tok::kIdent) {
          lam.ref_caps.push_back(t[a + 1].text);  // &name / &name = expr
        }
        continue;
      }
      if (t[a].text == "=" && b - a == 1) continue;  // [=]: copies only
      if (t[a].kind != Tok::kIdent) continue;
      const std::string& name = t[a].text;
      if (a + 1 < b && t[a + 1].text == "=") {
        // Init capture `name = expr`: an address-of or a bare pointer name
        // on the right smuggles a raw pointer; anything else (weak_ptr
        // tokens, std::move of owning values, generation counters) copies.
        const std::size_t e = a + 2;
        if (e < b && (t[e].text == "&" || t[e].text == "this" ||
                      (b - e == 1 && t[e].kind == Tok::kIdent &&
                       ptrs.count(t[e].text) != 0))) {
          lam.ptr_caps.push_back(name);
        }
        continue;
      }
      if (ptrs.count(name) != 0) lam.ptr_caps.push_back(name);
    }

    // Body: optional parameter list, optional specifiers, then '{'.
    std::size_t j = close + 1;
    if (j < t.size() && t[j].text == "(") {
      int depth = 0;
      for (; j < t.size(); ++j) {
        if (t[j].text == "(") ++depth;
        else if (t[j].text == ")" && --depth == 0) {
          ++j;
          break;
        }
      }
    }
    bool is_lambda = false;
    for (int guard = 0; j < t.size() && guard < 24; ++j, ++guard) {
      const std::string& u = t[j].text;
      if (u == "{") {
        is_lambda = true;
        break;
      }
      if (u == ";" || u == "," || u == ")" || u == "]" || u == "=") break;
      if (u == "(") {  // noexcept(...)
        int depth = 0;
        for (; j < t.size(); ++j) {
          if (t[j].text == "(") ++depth;
          else if (t[j].text == ")" && --depth == 0) break;
        }
      }
    }
    if (!is_lambda) {
      i = close;  // e.g. an empty subscript in a type: treat as handled
      continue;
    }
    lam.body_begin = j;
    {
      int depth = 0;
      for (std::size_t k = j; k < t.size(); ++k) {
        if (t[k].text == "{") ++depth;
        else if (t[k].text == "}" && --depth == 0) {
          lam.body_end = k;
          break;
        }
      }
      if (lam.body_end == 0) lam.body_end = t.size() - 1;
    }

    // Nearest enclosing call: skip transparent wrappers, stop at any brace
    // scope (a lambda body or initializer list is a context boundary).
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      if (it->kind != '(') break;
      if (it->callee == "guarded") {
        lam.guarded = true;
        continue;
      }
      if (it->callee.empty() || it->callee == "move" ||
          it->callee == "forward") {
        continue;
      }
      lam.callee = it->callee;
      break;
    }
    out.push_back(std::move(lam));
    i = close;  // params + body flow through the main loop (nested lambdas)
  }
  return out;
}

// --- D7: callback lifetime -------------------------------------------------

// A deferred callback holding `this`, a raw pointer, or a reference may
// fire after its target died — the exact UAF class ASan caught dynamically
// in the pin-chunk-completes-after-endpoint-death and restart-vs-notifier
// races. Escapes: a guarded(...) wrapper, a find_alive()/weak-token
// revalidation inside the body, or an explicit `allow(D7: <argument>)`.
void Linter::check_d7(const SourceFile& f) {
  if (f.rel.rfind("src/", 0) != 0) return;
  static const std::set<std::string> kSinks = {"schedule_at",
                                               "schedule_after", "submit"};
  const std::set<std::string> ptrs = pointer_names(f);
  const auto& t = f.tokens;
  for (const LambdaInfo& lam : extract_lambdas(f, ptrs)) {
    if (kSinks.count(lam.callee) == 0) continue;
    if (lam.guarded) continue;
    std::vector<std::string> risks;
    if (lam.cap_this) risks.push_back("'this'");
    if (lam.cap_default_ref) risks.push_back("capture-default '&'");
    for (const auto& r : lam.ref_caps) risks.push_back("'&" + r + "'");
    for (const auto& p : lam.ptr_caps) {
      risks.push_back("raw pointer '" + p + "'");
    }
    if (risks.empty()) continue;
    bool revalidated = false;
    for (std::size_t k = lam.body_begin;
         k <= lam.body_end && k < t.size(); ++k) {
      if (t[k].kind != Tok::kIdent) continue;
      if (t[k].text == "find_alive") {
        revalidated = true;
        break;
      }
      if ((t[k].text == "expired" || t[k].text == "lock") && k > 0 &&
          (t[k - 1].text == "." || t[k - 1].text == "->") &&
          k + 1 < t.size() && t[k + 1].text == "(") {
        revalidated = true;
        break;
      }
    }
    if (revalidated) continue;
    std::string what = risks[0];
    for (std::size_t r = 1; r < risks.size(); ++r) what += ", " + risks[r];
    add(f, lam.line, "D7",
        "lambda passed to '" + lam.callee + "' captures " + what +
            " without revalidation — a deferred callback can outlive its "
            "target (the PR 5/PR 7 UAF class); revalidate via find_alive()/"
            "a weak-token .expired()/.lock() check, wrap in guarded(...), "
            "or capture an owning handle and annotate "
            "`// pinlint: allow(D7: <lifetime argument>)`");
  }
}

// --- D8: TaskTag coverage --------------------------------------------------

// The DESIGN §10 dispatch profiler is only as exhaustive as its tags:
// an untagged schedule site melts into the "(untagged)" bucket and hides
// from the top-K hot-path report. Same contract shape as D5 for EventKind.
void Linter::check_d8(const SourceFile& f) {
  if (f.rel.rfind("src/", 0) != 0) return;
  // The engine itself declares/forwards the default `TaskTag tag = {}`.
  if (f.rel == "src/sim/engine.hpp" || f.rel == "src/sim/engine.cpp") return;
  const auto& t = f.tokens;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != Tok::kIdent) continue;
    if (t[i].text != "schedule_at" && t[i].text != "schedule_after") continue;
    if (t[i + 1].text != "(") continue;
    // A preceding identifier or `::` means a declaration/definition
    // (`void schedule_at(`, `Engine::schedule_at(`), not a call site.
    if (i > 0 && (t[i - 1].kind == Tok::kIdent || t[i - 1].text == "::")) {
      continue;
    }
    int depth = 0;
    std::size_t close = 0;
    std::vector<std::size_t> commas;
    for (std::size_t j = i + 1; j < t.size(); ++j) {
      const std::string& u = t[j].text;
      if (u == "(" || u == "[" || u == "{") {
        ++depth;
        continue;
      }
      if (u == ")" || u == "]" || u == "}") {
        if (--depth == 0) {
          close = j;
          break;
        }
        continue;
      }
      if (u == "," && depth == 1) commas.push_back(j);
    }
    if (close == 0) continue;
    const std::size_t nargs = close == i + 2 ? 0 : commas.size() + 1;
    if (nargs < 3) {
      add(f, t[i].line, "D8",
          "'" + t[i].text +
              "' call does not stamp a TaskTag — every schedule site "
              "must carry a {\"component\", \"label\"} tag so the dispatch "
              "profiler taxonomy stays exhaustive (DESIGN §10)");
      continue;
    }
    std::size_t a = commas.back() + 1;
    if (a < close && t[a].text == "TaskTag") ++a;  // explicit TaskTag{...}
    if (a >= close || (close - a == 2 && t[a].text == "{" &&
                       t[a + 1].text == "}")) {
      add(f, t[i].line, "D8",
          "'" + t[i].text +
              "' call stamps an empty TaskTag {} — name the component and "
              "label so the dispatch profiler can attribute the work "
              "(DESIGN §10)");
    }
  }
}

// --- D9: include layering --------------------------------------------------

// The module DAG, bottom-up: sim is the foundation, obs observes it,
// mem/ioat and cpu/net build the machine, core composes them, mpi/baseline
// drive core, workloads sit on mpi. bench/tests/examples/tools are
// unconstrained tops. An entry lists everything a module may include.
const std::map<std::string, std::set<std::string>>& layering_matrix() {
  static const std::map<std::string, std::set<std::string>> kAllowed = [] {
    std::map<std::string, std::set<std::string>> m;
    m["sim"] = {"sim"};
    m["obs"] = {"obs", "sim"};
    m["mem"] = {"mem", "obs", "sim"};
    m["ioat"] = {"ioat", "obs", "sim"};
    m["cpu"] = {"cpu", "mem", "obs", "sim"};
    m["net"] = {"net", "cpu", "mem", "obs", "sim"};
    m["core"] = {"core", "net", "cpu", "mem", "ioat", "obs", "sim"};
    std::set<std::string> over_core = m["core"];
    m["mpi"] = over_core;
    m["mpi"].insert("mpi");
    m["baseline"] = over_core;
    m["baseline"].insert("baseline");
    m["workloads"] = over_core;
    m["workloads"].insert("workloads");
    m["workloads"].insert("mpi");
    return m;
  }();
  return kAllowed;
}

// Graph node for a file: the module under src/, else the top-level
// directory (bench, tests, ...). Constrained iff it is a src/ module the
// matrix knows about.
std::pair<std::string, bool> module_of(const std::string& rel) {
  if (rel.rfind("src/", 0) == 0) {
    const auto slash = rel.find('/', 4);
    if (slash == std::string::npos) return {"src", false};
    const std::string mod = rel.substr(4, slash - 4);
    return {mod, layering_matrix().count(mod) != 0};
  }
  const auto slash = rel.find('/');
  if (slash == std::string::npos) return {"", false};
  return {rel.substr(0, slash), false};
}

void Linter::check_d9(std::size_t n_files) {
  const auto& allowed = layering_matrix();

  // (a) Module back-edges: every quoted include either stays inside the
  // includer's directory (no '/') or names `module/header` — the module
  // must be reachable in the layering matrix.
  for (std::size_t fi = 0; fi < n_files; ++fi) {
    const SourceFile& f = files_[fi];
    const auto [mod, constrained] = module_of(f.rel);
    for (const auto& [line, target] : f.include_list) {
      const auto slash = target.find('/');
      if (slash == std::string::npos) continue;  // sibling include
      const std::string tmod = target.substr(0, slash);
      if (allowed.count(tmod) == 0) continue;  // not a src module path
      if (!mod.empty() && mod != tmod) ++mod_edges_[{mod, tmod}];
      if (!constrained) continue;
      if (allowed.at(mod).count(tmod) == 0) {
        mod_violations_.insert({mod, tmod});
        add(f, line, "D9",
            "include of \"" + target + "\" is a layering back-edge: '" +
                mod + "' may not depend on '" + tmod +
                "' (module DAG: sim < obs < {mem,ioat} < cpu < net < core "
                "< mpi/baseline < workloads)");
      }
    }
  }

  // (b) File-level include cycles among the scanned set. #pragma once
  // makes a cycle compile (one arm sees a truncated view), which is how
  // layering knots start — flag the knot itself, not just back-edges.
  std::map<std::string, std::size_t> index;
  for (std::size_t fi = 0; fi < n_files; ++fi) index[files_[fi].rel] = fi;
  auto resolve = [&](const SourceFile& f,
                     const std::string& target) -> int {
    const auto dir_end = f.rel.rfind('/');
    const std::string sibling =
        dir_end == std::string::npos ? target
                                     : f.rel.substr(0, dir_end + 1) + target;
    for (const std::string& cand :
         {"src/" + target, target, sibling}) {
      const auto it = index.find(cand);
      if (it != index.end()) return static_cast<int>(it->second);
    }
    return -1;
  };
  // edges[fi] = (line, target file index)
  std::vector<std::vector<std::pair<int, std::size_t>>> edges(n_files);
  for (std::size_t fi = 0; fi < n_files; ++fi) {
    for (const auto& [line, target] : files_[fi].include_list) {
      const int to = resolve(files_[fi], target);
      if (to >= 0) edges[fi].emplace_back(line, static_cast<std::size_t>(to));
    }
  }
  std::vector<int> color(n_files, 0);  // 0 white, 1 gray, 2 black
  std::vector<std::size_t> path;
  std::set<std::string> reported;
  std::function<void(std::size_t)> dfs = [&](std::size_t u) {
    color[u] = 1;
    path.push_back(u);
    for (const auto& [line, v] : edges[u]) {
      if (color[v] == 2) continue;
      if (color[v] == 1) {
        // Cycle: path suffix from v to u, closed by this include.
        auto it = std::find(path.begin(), path.end(), v);
        std::vector<std::size_t> cyc(it, path.end());
        // Canonical rotation (smallest rel first) so each knot reports once
        // no matter where DFS entered it.
        std::size_t best = 0;
        for (std::size_t k = 1; k < cyc.size(); ++k) {
          if (files_[cyc[k]].rel < files_[cyc[best]].rel) best = k;
        }
        std::rotate(cyc.begin(), cyc.begin() + best, cyc.end());
        std::string desc;
        for (std::size_t k : cyc) desc += files_[k].rel + " -> ";
        desc += files_[cyc[0]].rel;
        if (reported.insert(desc).second) {
          add(files_[u], line, "D9",
              "include cycle: " + desc +
                  " — break the knot with a forward declaration or by "
                  "hoisting the shared types down a layer");
        }
        continue;
      }
      dfs(v);
    }
    path.pop_back();
    color[u] = 2;
  };
  for (std::size_t fi = 0; fi < n_files; ++fi) {
    if (color[fi] == 0) dfs(fi);
  }
}

// Graphviz rendering of the observed module graph; D9 back-edges in red.
// Written even when the tree is clean — the artifact is the living
// architecture diagram, not just an error dump.
bool Linter::write_dot(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "// pinlint --dot: quoted-include graph at module granularity.\n"
         "// Render with: dot -Tsvg " << path << " -o includes.svg\n"
         "digraph pinsim_includes {\n"
         "  rankdir=BT;\n"
         "  node [shape=box, fontname=\"Helvetica\"];\n";
  std::set<std::string> nodes;
  for (const auto& [edge, count] : mod_edges_) {
    nodes.insert(edge.first);
    nodes.insert(edge.second);
  }
  for (const auto& n : nodes) {
    out << "  \"" << n << "\""
        << (layering_matrix().count(n) != 0 ? "" : " [style=dashed]")
        << ";\n";
  }
  for (const auto& [edge, count] : mod_edges_) {
    out << "  \"" << edge.first << "\" -> \"" << edge.second << "\" [label=\""
        << count << "\"";
    if (mod_violations_.count(edge) != 0) {
      out << ", color=red, penwidth=2.0, fontcolor=red";
    }
    out << "];\n";
  }
  out << "}\n";
  return true;
}

void Linter::run() {
  // Per-file passes run over a stable snapshot (D2 may lazily load paired
  // headers; D4/D5 may lazily load their cross-file anchors).
  const std::size_t n = files_.size();
  for (std::size_t i = 0; i < n; ++i) {
    check_d0(files_[i]);
    check_d1(files_[i]);
    check_d3(files_[i]);
    check_d6(files_[i]);
    check_d7(files_[i]);
    check_d8(files_[i]);
  }
  for (std::size_t i = 0; i < n; ++i) check_d2(files_[i]);
  check_d9(n);
  check_d4();
  check_d5();

  std::sort(diags_.begin(), diags_.end(), [](const Diag& a, const Diag& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    if (a.rule != b.rule) return a.rule < b.rule;
    return a.msg < b.msg;
  });
  diags_.erase(std::unique(diags_.begin(), diags_.end(),
                           [](const Diag& a, const Diag& b) {
                             return a.file == b.file && a.line == b.line &&
                                    a.rule == b.rule && a.msg == b.msg;
                           }),
               diags_.end());
}

// --- baseline --------------------------------------------------------------

// Baseline format: one `path:rule` per line ('#' comments). A diagnostic
// matching an entry is suppressed; an entry matching nothing is itself an
// error, so the file can only shrink.
struct Baseline {
  std::vector<std::pair<std::string, std::string>> entries;  // path, rule
  std::vector<bool> used;
};

bool load_baseline(const std::string& path, Baseline& b) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    while (!line.empty() && std::isspace(static_cast<unsigned char>(
                                line.back())) != 0) {
      line.pop_back();
    }
    std::size_t start = 0;
    while (start < line.size() &&
           std::isspace(static_cast<unsigned char>(line[start])) != 0) {
      ++start;
    }
    line.erase(0, start);
    if (line.empty()) continue;
    const auto colon = line.rfind(':');
    if (colon == std::string::npos) continue;
    b.entries.emplace_back(line.substr(0, colon), line.substr(colon + 1));
  }
  b.used.assign(b.entries.size(), false);
  return true;
}

// --- output ----------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// SARIF 2.1.0 — the minimal subset CI dashboards and code-scanning UIs
// ingest: one run, one driver with per-rule metadata, one result per live
// diagnostic (plus one per stale baseline entry under the synthetic
// "stale-baseline" rule). Written even when clean: an empty `results` array
// is itself the machine-readable "nothing to see".
void write_sarif(std::ostream& out, const std::vector<Diag>& live,
                 const std::vector<std::string>& stale) {
  static const std::pair<const char*, const char*> kRules[] = {
      {"D0", "suppression annotations must carry a non-empty reason"},
      {"D1", "no nondeterminism sources outside sim/random"},
      {"D2", "no iteration over unordered containers"},
      {"D3", "no raw allocation outside mem/malloc_sim"},
      {"D4", "every counter-table row must be incremented under src/"},
      {"D5", "EventKind handling must be exhaustive"},
      {"D6", "header hygiene: pragma once, no using-namespace, IWYU"},
      {"D7", "deferred callbacks must revalidate captured state"},
      {"D8", "every schedule site must stamp a TaskTag"},
      {"D9", "quoted includes must follow the module layering DAG"},
      {"stale-baseline", "baseline entry no longer matches any diagnostic"},
  };
  out << "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\","
         "\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{"
         "\"name\":\"pinlint\",\"version\":\"2.0.0\",\"rules\":[";
  bool first = true;
  for (const auto& [id, text] : kRules) {
    if (!first) out << ",";
    first = false;
    out << "{\"id\":\"" << id << "\",\"shortDescription\":{\"text\":\""
        << json_escape(text) << "\"}}";
  }
  out << "]}},\"results\":[";
  first = true;
  for (const Diag& d : live) {
    if (!first) out << ",";
    first = false;
    out << "{\"ruleId\":\"" << d.rule
        << "\",\"level\":\"error\",\"message\":{\"text\":\""
        << json_escape(d.msg) << "\"},\"locations\":[{\"physicalLocation\":{"
        << "\"artifactLocation\":{\"uri\":\"" << json_escape(d.file)
        << "\"},\"region\":{\"startLine\":" << d.line << "}}}]}";
  }
  for (const std::string& s : stale) {
    const auto colon = s.rfind(':');
    const std::string file =
        colon == std::string::npos ? s : s.substr(0, colon);
    if (!first) out << ",";
    first = false;
    out << "{\"ruleId\":\"stale-baseline\",\"level\":\"error\","
           "\"message\":{\"text\":\"baseline entry '"
        << json_escape(s)
        << "' no longer matches any diagnostic — delete it (the baseline "
           "only shrinks)\"},\"locations\":[{\"physicalLocation\":{"
           "\"artifactLocation\":{\"uri\":\""
        << json_escape(file) << "\"},\"region\":{\"startLine\":1}}}]}";
  }
  out << "]}]}\n";
}

int usage() {
  std::fprintf(
      stderr,
      "usage: pinlint [--root=DIR] [--baseline=FILE] [--json=FILE]\n"
      "               [--sarif=FILE] [--dot=FILE] [--quiet] PATH...\n"
      "  PATHs (files or directories, relative to --root) are scanned for\n"
      "  *.cpp/*.hpp; diagnostics print as file:line: rule: message.\n"
      "  --sarif writes a SARIF 2.1.0 report, --dot the quoted-include\n"
      "  module graph as Graphviz (both written even when clean).\n"
      "  Exit: 0 clean, 1 violations or stale baseline entries, 2 usage.\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string baseline_path;
  std::string json_path;
  std::string sarif_path;
  std::string dot_path;
  bool quiet = false;
  std::vector<std::string> paths;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--root=", 0) == 0) {
      root = arg.substr(7);
    } else if (arg.rfind("--baseline=", 0) == 0) {
      baseline_path = arg.substr(11);
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg.rfind("--sarif=", 0) == 0) {
      sarif_path = arg.substr(8);
    } else if (arg.rfind("--dot=", 0) == 0) {
      dot_path = arg.substr(6);
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "pinlint: unknown option %s\n", arg.c_str());
      return usage();
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) return usage();

  Linter linter{fs::path(root)};
  if (!linter.load_paths(paths)) return 2;
  linter.run();

  Baseline baseline;
  if (!baseline_path.empty() && !load_baseline(baseline_path, baseline)) {
    std::fprintf(stderr, "pinlint: cannot read baseline %s\n",
                 baseline_path.c_str());
    return 2;
  }

  std::vector<Diag> live;
  for (const Diag& d : linter.diags()) {
    bool suppressed = false;
    for (std::size_t i = 0; i < baseline.entries.size(); ++i) {
      if (baseline.entries[i].first == d.file &&
          baseline.entries[i].second == d.rule) {
        baseline.used[i] = true;
        suppressed = true;
        break;
      }
    }
    if (!suppressed) live.push_back(d);
  }
  std::vector<std::string> stale;
  for (std::size_t i = 0; i < baseline.entries.size(); ++i) {
    if (!baseline.used[i]) {
      stale.push_back(baseline.entries[i].first + ":" +
                      baseline.entries[i].second);
    }
  }

  if (!quiet) {
    for (const Diag& d : live) {
      std::printf("%s:%d: %s: %s\n", d.file.c_str(), d.line, d.rule.c_str(),
                  d.msg.c_str());
    }
    for (const std::string& s : stale) {
      std::printf("%s: stale-baseline: entry no longer matches any "
                  "diagnostic — delete it (the baseline only shrinks)\n",
                  s.c_str());
    }
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\"files_scanned\":" << linter.files_scanned()
        << ",\"violations\":[";
    bool first = true;
    for (const Diag& d : live) {
      if (!first) out << ",";
      first = false;
      out << "{\"file\":\"" << json_escape(d.file) << "\",\"line\":" << d.line
          << ",\"rule\":\"" << d.rule << "\",\"message\":\""
          << json_escape(d.msg) << "\"}";
    }
    out << "],\"stale_baseline\":[";
    first = true;
    for (const std::string& s : stale) {
      if (!first) out << ",";
      first = false;
      out << "\"" << json_escape(s) << "\"";
    }
    out << "],\"count\":" << live.size() << "}\n";
  }

  if (!sarif_path.empty()) {
    std::ofstream out(sarif_path);
    if (!out) {
      std::fprintf(stderr, "pinlint: cannot write %s\n", sarif_path.c_str());
      return 2;
    }
    write_sarif(out, live, stale);
  }

  if (!dot_path.empty() && !linter.write_dot(dot_path)) {
    std::fprintf(stderr, "pinlint: cannot write %s\n", dot_path.c_str());
    return 2;
  }

  if (!live.empty() || !stale.empty()) {
    if (!quiet) {
      std::printf("pinlint: %zu violation(s), %zu stale baseline entr%s\n",
                  live.size(), stale.size(), stale.size() == 1 ? "y" : "ies");
    }
    return 1;
  }
  if (!quiet) {
    std::printf("pinlint: clean (%zu files)\n", linter.files_scanned());
  }
  return 0;
}
