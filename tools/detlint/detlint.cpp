#include "detlint.hpp"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <tuple>

namespace detlint {
namespace {

// --- Path classification ------------------------------------------------------

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// Protocol layers where iteration order and container choice are part of
/// the replicated state machine's determinism contract.  The same layers
/// are the thread-hazard layers: they are the code a parallel simulator
/// (ROADMAP item 4) will run on worker threads, so shared mutable state
/// here is tomorrow's data race.
bool in_protocol_layer(const std::string& path) {
  static const char* kLayers[] = {"src/net/",  "src/sim/",         "src/totem/",
                                  "src/gcs/",  "src/replication/", "src/cts/"};
  for (const char* l : kLayers) {
    if (starts_with(path, l)) return true;
  }
  return false;
}

/// src/obs export paths may stamp real timestamps on exported artifacts.
bool wall_clock_exempt(const std::string& path) { return starts_with(path, "src/obs/"); }

/// The seeded deterministic RNG implementation itself.
bool rng_home(const std::string& path) { return starts_with(path, "src/common/rng"); }

/// The one audited byte-punning site (fixed-width little-endian codec).
bool bytes_home(const std::string& path) { return path == "src/common/bytes.hpp"; }

/// Delivery-pipeline layers migrated to cts::FlatMap/FlatSet/DenseNodeIndex
/// (doc/PERFORMANCE.md): a node-based std::map here is usually an
/// accidental per-element-allocation regression, not a deliberate
/// stable-reference requirement.
bool in_flat_container_layer(const std::string& path) {
  static const char* kLayers[] = {"src/net/", "src/gcs/", "src/totem/", "src/obs/"};
  for (const char* l : kLayers) {
    if (starts_with(path, l)) return true;
  }
  return false;
}

/// Layers whose scheduled work belongs to a node: timers and continuations
/// must be registered with the node's sim::TaskScope so a fail-stop crash
/// cancels them.  (src/net schedules on behalf of the destination's scope
/// internally; src/sim implements the scope; baselines/storage model
/// node-independent hardware.)
bool in_node_layer(const std::string& path) {
  static const char* kLayers[] = {"src/totem/", "src/gcs/", "src/replication/",
                                  "src/orb/",   "src/cts/", "src/app/"};
  for (const char* l : kLayers) {
    if (starts_with(path, l)) return true;
  }
  return false;
}

/// Where the callback/iteration rules run: the hazard layers plus the app
/// wiring (the Testbed iterates subscriber lists too).
bool in_callback_layer(const std::string& path) {
  return in_protocol_layer(path) || starts_with(path, "src/app/");
}

/// Only src/ globals enter the cross-file index: event callbacks live in
/// src/, and a test's namespace-scope fixture cannot be reached from there.
bool indexed_for_globals(const std::string& path) { return starts_with(path, "src/"); }

// --- Line splitting & comment/string stripping --------------------------------

std::vector<std::string> split_lines(const std::string& content) {
  std::vector<std::string> lines;
  std::string cur;
  for (char c : content) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) lines.push_back(cur);
  return lines;
}

/// One source line split into the analyzable code text (string/char literal
/// contents and comments blanked with spaces, so offsets are preserved) and
/// the concatenated comment text (where suppressions live).
struct StrippedLine {
  std::string code;
  std::string comment;
};

/// Lexer state carried across physical lines: /* */ blocks, raw string
/// literals (R"delim( ... )delim"), and line-continuation splices — a
/// trailing backslash extends both // comments and ordinary string
/// literals onto the next physical line.
struct StripState {
  bool in_block = false;        // inside /* ... */
  bool in_line_comment = false; // a // comment spliced onward with a trailing backslash
  bool in_raw = false;          // inside a raw string literal
  std::string raw_delim;        // the )delim" terminator we are scanning for
  bool in_string = false;       // inside a spliced ordinary literal
  char quote = '"';
};

/// Would the '"' at `at` open a raw string?  True when the characters
/// before it form an encoding prefix ending in R (R, u8R, uR, UR, LR) that
/// is not the tail of a longer identifier.
bool raw_prefix_before(const std::string& line, std::size_t at) {
  if (at == 0 || line[at - 1] != 'R') return false;
  std::size_t b = at - 1;  // start of the identifier that ends at the quote
  while (b > 0 && (std::isalnum(static_cast<unsigned char>(line[b - 1])) != 0 ||
                   line[b - 1] == '_')) {
    --b;
  }
  const std::string prefix = line.substr(b, at - b);
  return prefix == "R" || prefix == "u8R" || prefix == "uR" || prefix == "UR" || prefix == "LR";
}

/// Comment/string-aware stripper.  Raw strings are blanked in full (only
/// the opening and closing quote survive, so the tokenizer still sees one
/// string token); escape sequences inside ordinary literals are honored.
StrippedLine strip_line(const std::string& line, StripState& st) {
  StrippedLine out;
  out.code.reserve(line.size());
  const bool spliced = !line.empty() && line.back() == '\\';
  if (st.in_line_comment) {
    // The previous line's // comment was spliced onto this one.
    out.comment = line;
    out.code.append(line.size(), ' ');
    st.in_line_comment = spliced;
    return out;
  }
  std::size_t i = 0;
  while (i < line.size()) {
    if (st.in_block) {
      if (line.compare(i, 2, "*/") == 0) {
        st.in_block = false;
        out.code += "  ";
        i += 2;
      } else {
        out.comment.push_back(line[i]);
        out.code.push_back(' ');
        ++i;
      }
      continue;
    }
    if (st.in_raw) {
      const std::size_t end = line.find(st.raw_delim, i);
      if (end == std::string::npos) {
        out.code.append(line.size() - i, ' ');
        break;
      }
      // Blank through the delimiter, keep the closing quote.
      out.code.append(end + st.raw_delim.size() - 1 - i, ' ');
      out.code.push_back('"');
      i = end + st.raw_delim.size();
      st.in_raw = false;
      continue;
    }
    if (st.in_string) {
      // Continuation of a spliced ordinary literal.
      while (i < line.size()) {
        if (line[i] == '\\' && i + 1 < line.size()) {
          out.code += "  ";
          i += 2;
          continue;
        }
        if (line[i] == st.quote) {
          out.code.push_back(st.quote);
          ++i;
          st.in_string = false;
          break;
        }
        out.code.push_back(' ');
        ++i;
      }
      if (i >= line.size() && st.in_string && !spliced) st.in_string = false;
      continue;
    }
    const char c = line[i];
    if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') {
      out.comment.append(line, i + 2, std::string::npos);
      out.code.append(line.size() - i, ' ');
      st.in_line_comment = spliced;
      break;
    }
    if (c == '/' && i + 1 < line.size() && line[i + 1] == '*') {
      st.in_block = true;
      out.code += "  ";
      i += 2;
      continue;
    }
    // A ' between digits is a C++14 digit separator (5'000), not a char
    // literal — the repo uses them pervasively for durations.
    if (c == '\'' && i > 0 && std::isdigit(static_cast<unsigned char>(line[i - 1])) != 0 &&
        i + 1 < line.size() && std::isdigit(static_cast<unsigned char>(line[i + 1])) != 0) {
      out.code.push_back(c);
      ++i;
      continue;
    }
    if (c == '"' && raw_prefix_before(line, i)) {
      // R"delim( ... : blank the delimiter, remember the `)delim"` closer.
      const std::size_t open = line.find('(', i + 1);
      if (open == std::string::npos) {  // ill-formed; treat as ordinary text
        out.code.push_back(c);
        ++i;
        continue;
      }
      st.raw_delim = ")" + line.substr(i + 1, open - i - 1) + "\"";
      out.code.push_back('"');
      out.code.append(open - i, ' ');
      i = open + 1;
      st.in_raw = true;
      continue;
    }
    if (c == '"' || c == '\'') {
      st.quote = c;
      out.code.push_back(c);
      ++i;
      bool closed = false;
      while (i < line.size()) {
        if (line[i] == '\\' && i + 1 < line.size()) {
          out.code += "  ";
          i += 2;
          continue;
        }
        if (line[i] == st.quote) {
          out.code.push_back(st.quote);
          ++i;
          closed = true;
          break;
        }
        out.code.push_back(' ');
        ++i;
      }
      // An unterminated literal on a spliced line continues on the next.
      if (!closed && spliced) st.in_string = true;
      continue;
    }
    out.code.push_back(c);
    ++i;
  }
  return out;
}

// --- Suppressions --------------------------------------------------------------

struct Suppression {
  int comment_line = 0;  // 1-based line the allow-comment sits on
  int target_line = 0;   // line the suppression covers (first code line at/below)
  std::set<std::string> rules;
  bool justified = false;
  bool used = false;
};

bool has_code(const StrippedLine& l) {
  return l.code.find_first_not_of(" \t") != std::string::npos;
}

/// Parse every `detlint:allow(rule[,rule...]) <justification>` in the
/// comment text of `lines`.
std::vector<Suppression> collect_suppressions(const std::vector<StrippedLine>& lines) {
  static const std::regex re(R"(detlint:allow\(([A-Za-z0-9_, \t-]+)\))");
  std::vector<Suppression> sups;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& comment = lines[i].comment;
    std::smatch m;
    if (!std::regex_search(comment, m, re)) continue;
    Suppression s;
    s.comment_line = static_cast<int>(i + 1);
    // A trailing comment covers its own line; a standalone comment covers
    // the first code line below it (skipping the rest of the comment
    // block), so multi-line justifications work.
    s.target_line = s.comment_line;
    if (!has_code(lines[i])) {
      for (std::size_t j = i + 1; j < lines.size() && j < i + 8; ++j) {
        if (has_code(lines[j])) {
          s.target_line = static_cast<int>(j + 1);
          break;
        }
      }
    }
    std::stringstream ss(m[1].str());
    std::string rule;
    while (std::getline(ss, rule, ',')) {
      const auto b = rule.find_first_not_of(" \t");
      const auto e = rule.find_last_not_of(" \t");
      if (b != std::string::npos) s.rules.insert(rule.substr(b, e - b + 1));
    }
    // Justification: any word characters after the closing parenthesis.
    const std::string rest = m.suffix().str();
    s.justified = std::any_of(rest.begin(), rest.end(),
                              [](unsigned char c) { return std::isalnum(c) != 0; });
    sups.push_back(std::move(s));
  }
  return sups;
}

bool covers(const Suppression& s, const std::string& rule, int line) {
  return (line == s.comment_line || line == s.target_line) && s.rules.count(rule) > 0;
}

// --- Tokenizer -----------------------------------------------------------------

struct Tok {
  enum Kind { kIdent, kNumber, kString, kPunct };
  Kind kind = kPunct;
  std::string text;
  int line = 0;  // 1-based
};

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Tokenize the stripped code lines.  Preprocessor lines (and their
/// backslash continuations) are skipped entirely — a `#define X {` must not
/// unbalance the brace tracker.  Multi-char operators that matter to the
/// scope walker (`::` vs `:`, `==`/`!=`/`<=`/`>=` vs `=`) are kept whole.
std::vector<Tok> tokenize(const std::vector<StrippedLine>& lines) {
  static const char* kOps[] = {"->*", "...", "<<=", ">>=", "::", "->", "==", "!=", "<=",
                               ">=", "&&", "||", "<<", ">>", "+=", "-=", "*=", "/=",
                               "%=", "&=", "|=", "^=", "++", "--"};
  std::vector<Tok> toks;
  bool in_pp = false;  // inside a (possibly spliced) preprocessor directive
  for (std::size_t li = 0; li < lines.size(); ++li) {
    const std::string& code = lines[li].code;
    const int line_no = static_cast<int>(li + 1);
    const std::size_t first = code.find_first_not_of(" \t");
    const bool spliced = !code.empty() && code[code.find_last_not_of(" \t") == std::string::npos
                                                   ? 0
                                                   : code.find_last_not_of(" \t")] == '\\';
    if (in_pp) {
      in_pp = spliced;
      continue;
    }
    if (first != std::string::npos && code[first] == '#') {
      in_pp = spliced;
      continue;
    }
    std::size_t i = 0;
    while (i < code.size()) {
      const char c = code[i];
      if (c == ' ' || c == '\t' || c == '\\') {
        ++i;
        continue;
      }
      if (ident_start(c)) {
        std::size_t j = i + 1;
        while (j < code.size() && ident_char(code[j])) ++j;
        toks.push_back({Tok::kIdent, code.substr(i, j - i), line_no});
        i = j;
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
        std::size_t j = i + 1;
        while (j < code.size() && (ident_char(code[j]) || code[j] == '.' || code[j] == '\'')) ++j;
        toks.push_back({Tok::kNumber, code.substr(i, j - i), line_no});
        i = j;
        continue;
      }
      if (c == '"' || c == '\'') {
        // The stripper blanked the contents but kept both quotes; scan to
        // the partner quote (possibly on a later physical line for spliced
        // literals — then just emit what we have).
        std::size_t j = i + 1;
        while (j < code.size() && code[j] != c) ++j;
        toks.push_back({Tok::kString, std::string(1, c) + c, line_no});
        i = (j < code.size()) ? j + 1 : code.size();
        continue;
      }
      bool matched = false;
      for (const char* op : kOps) {
        const std::size_t n = std::string::traits_type::length(op);
        if (code.compare(i, n, op) == 0) {
          toks.push_back({Tok::kPunct, op, line_no});
          i += n;
          matched = true;
          break;
        }
      }
      if (matched) continue;
      toks.push_back({Tok::kPunct, std::string(1, c), line_no});
      ++i;
    }
  }
  return toks;
}

// --- Scope walker & declaration analysis ---------------------------------------

enum class ScopeKind : std::uint8_t { kNamespace, kClass, kEnum, kFunction, kBlock, kInit };

bool contains_tok(const std::vector<const Tok*>& stmt, const char* text) {
  for (const Tok* t : stmt) {
    if (t->text == text) return true;
  }
  return false;
}

/// Classify the scope opened by a `{` from the statement head before it.
ScopeKind classify_brace(const std::vector<const Tok*>& stmt, ScopeKind parent) {
  const bool in_code = parent == ScopeKind::kFunction || parent == ScopeKind::kBlock;
  if (stmt.empty()) return in_code ? ScopeKind::kBlock : ScopeKind::kInit;
  if (contains_tok(stmt, "namespace")) return ScopeKind::kNamespace;
  if (stmt.front()->text == "extern" && stmt.size() >= 2 && stmt[1]->kind == Tok::kString) {
    return ScopeKind::kNamespace;  // extern "C" linkage block
  }
  const bool has_paren = contains_tok(stmt, "(");
  if (!has_paren && (contains_tok(stmt, "class") || contains_tok(stmt, "struct") ||
                     contains_tok(stmt, "union"))) {
    return ScopeKind::kClass;
  }
  if (!has_paren && contains_tok(stmt, "enum")) return ScopeKind::kEnum;
  static const std::set<std::string> kControl = {"if",    "for", "while", "switch",
                                                 "do",    "else", "try",  "catch"};
  if (kControl.count(stmt.front()->text) > 0) return ScopeKind::kBlock;
  const std::string& last = stmt.back()->text;
  if (last == "=") return ScopeKind::kInit;  // `int a[] = {`, `auto x = {`
  if (last == ")") return ScopeKind::kFunction;
  static const std::set<std::string> kFnTail = {"const", "noexcept", "override",
                                                "final", "mutable",  "try"};
  if (has_paren && kFnTail.count(last) > 0) return ScopeKind::kFunction;
  if (has_paren) return ScopeKind::kFunction;  // trailing return: `) -> T {`
  // No parens, no `=`: a braced initializer (`Foo f{...}`) when the head
  // names a variable, otherwise a bare block.
  std::size_t idents = 0;
  for (const Tok* t : stmt) idents += (t->kind == Tok::kIdent) ? 1u : 0u;
  if (idents >= 2) return ScopeKind::kInit;
  return in_code ? ScopeKind::kBlock : ScopeKind::kInit;
}

struct GlobalSym {
  std::string name;
  std::string file;
  int line = 0;
};

/// Per-file token analysis shared by the declaration pass and the
/// cross-file reference pass.
struct TokenAnalysis {
  std::vector<Tok> toks;
  std::vector<ScopeKind> scope_at;  // scope each token sits in
};

/// Statements whose first token can never head a hazardous variable.
bool skip_decl_head(const std::vector<const Tok*>& stmt) {
  static const std::set<std::string> kSkipFirst = {
      "using",  "typedef", "friend",  "template",  "extern", "return",
      "case",   "goto",    "public",  "private",   "protected",
      "class",  "struct",  "union",   "enum",      "namespace",
      "static_assert", "operator",    "if",        "for",    "while",
      "switch", "do",      "else",    "try",       "catch",  "break",
      "continue", "delete", "new",    "throw",     "asm"};
  if (kSkipFirst.count(stmt.front()->text) > 0) return true;
  for (const Tok* t : stmt) {
    if (t->text == "template" || t->text == "operator" || t->kind == Tok::kString) return true;
  }
  return false;
}

/// Thread-safe (or immutable) declaration specifiers and types.
bool decl_exempt(const std::vector<const Tok*>& stmt) {
  static const std::set<std::string> kExempt = {
      "const",      "constexpr", "constinit",   "thread_local",       "atomic",
      "atomic_flag", "mutex",    "shared_mutex", "recursive_mutex",   "once_flag",
      "condition_variable"};
  for (const Tok* t : stmt) {
    if (t->kind == Tok::kIdent && kExempt.count(t->text) > 0) return true;
  }
  return false;
}

/// Analyze one finished statement head for the static/global rules and the
/// symbol index.  `stmt` holds the tokens before the terminating `;` or the
/// initializer brace.
void scan_declaration(const std::vector<const Tok*>& stmt, ScopeKind scope,
                      const std::string& path, std::vector<Finding>& findings,
                      std::vector<GlobalSym>& globals) {
  if (stmt.empty() || skip_decl_head(stmt)) return;
  const bool target_scope =
      scope == ScopeKind::kNamespace || scope == ScopeKind::kClass ||
      scope == ScopeKind::kFunction || scope == ScopeKind::kBlock;
  if (!target_scope) return;
  if (decl_exempt(stmt)) return;

  // Truncate at the first top-level `=` (the initializer); a declarator
  // with parentheses before that point is a function declaration or a
  // paren-init we cannot disambiguate from one (the most vexing parse), so
  // only plain `T name;`, `T name = ...;` and `T name{...};` forms match.
  std::vector<const Tok*> decl;
  int depth = 0;
  for (const Tok* t : stmt) {
    if (t->text == "(" || t->text == "[") ++depth;
    if (t->text == ")" || t->text == "]") --depth;
    if (depth == 0 && t->text == "=") break;
    decl.push_back(t);
  }
  if (decl.empty() || contains_tok(decl, "(")) return;
  // The variable name: last identifier, skipping a trailing array extent.
  const Tok* name = nullptr;
  for (auto it = decl.rbegin(); it != decl.rend(); ++it) {
    if ((*it)->text == "]" || (*it)->text == "[" || (*it)->kind == Tok::kNumber) continue;
    if ((*it)->kind == Tok::kIdent) name = *it;
    break;
  }
  if (name == nullptr || decl.size() < 2) return;

  const bool has_static = contains_tok(decl, "static");
  const bool hazard = in_protocol_layer(path);
  if (scope == ScopeKind::kNamespace) {
    // A trailing underscore is this repo's member convention: at what the
    // walker sees as namespace scope it marks a fragment of a class pasted
    // without its enclosing braces (headers under refactor, test snippets),
    // not a global.
    if (name->text.back() == '_') return;
    if (indexed_for_globals(path) && name->text.size() >= 3) {
      globals.push_back({name->text, path, name->line});
    }
    if (hazard) {
      findings.push_back(Finding{
          path, name->line, "static-mutable-state", Severity::kError,
          std::string(has_static ? "namespace-scope static" : "namespace-scope global") +
              " '" + name->text +
              "' is mutable shared state in a protocol layer: the parallel simulator runs "
              "this code on worker threads; make it const/constexpr, move it into the "
              "owning object, or mark it thread_local with a justification"});
    }
  } else if (scope == ScopeKind::kClass && has_static) {
    if (hazard) {
      findings.push_back(Finding{
          path, name->line, "static-mutable-state", Severity::kError,
          "class-static member '" + name->text +
              "' is mutable shared state in a protocol layer: every instance on every "
              "worker thread shares it; make it const or per-instance"});
    }
  } else if ((scope == ScopeKind::kFunction || scope == ScopeKind::kBlock) && has_static) {
    if (hazard) {
      findings.push_back(Finding{
          path, name->line, "static-local", Severity::kError,
          "function-local static '" + name->text +
              "' in a protocol layer: initialization is serialized but every later access "
              "races under a parallel simulator; hoist the state into the owning object or "
              "make it const/thread_local"});
    }
  }
}

/// Walk the token stream tracking scopes, record each token's enclosing
/// scope, and run the declaration rules on every finished statement head.
TokenAnalysis analyze_tokens(const std::string& path, const std::vector<StrippedLine>& lines,
                             std::vector<Finding>& findings, std::vector<GlobalSym>& globals) {
  TokenAnalysis ta;
  ta.toks = tokenize(lines);
  ta.scope_at.resize(ta.toks.size(), ScopeKind::kNamespace);

  std::vector<ScopeKind> stack;  // empty = translation-unit (namespace) scope
  std::vector<const Tok*> stmt;
  const auto current = [&]() {
    return stack.empty() ? ScopeKind::kNamespace : stack.back();
  };
  static const std::set<std::string> kAccess = {"public", "private", "protected"};
  for (std::size_t i = 0; i < ta.toks.size(); ++i) {
    const Tok& t = ta.toks[i];
    ta.scope_at[i] = current();
    if (t.text == "{") {
      const ScopeKind kind = classify_brace(stmt, current());
      if (kind == ScopeKind::kInit && !stmt.empty()) {
        scan_declaration(stmt, current(), path, findings, globals);
      }
      stack.push_back(kind);
      stmt.clear();
    } else if (t.text == "}") {
      if (!stack.empty()) stack.pop_back();
      stmt.clear();
    } else if (t.text == ";") {
      scan_declaration(stmt, current(), path, findings, globals);
      stmt.clear();
    } else if (t.text == ":" && stmt.size() == 1 && kAccess.count(stmt.front()->text) > 0) {
      stmt.clear();  // access label
    } else {
      stmt.push_back(&t);
    }
  }
  return ta;
}

// --- Range-for rules (iterator invalidation, callback under iteration) ---------

std::size_t match_forward(const std::vector<Tok>& toks, std::size_t open,
                          const char* open_text, const char* close_text) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (toks[i].text == open_text) ++depth;
    if (toks[i].text == close_text && --depth == 0) return i;
  }
  return toks.size();
}

void check_range_for(const std::string& path, const TokenAnalysis& ta,
                     std::vector<Finding>& findings) {
  static const std::set<std::string> kMutators = {
      "push_back", "push_front", "emplace_back", "emplace_front", "emplace", "insert",
      "erase",     "clear",      "pop_back",     "pop_front",     "resize",  "assign"};
  const std::vector<Tok>& toks = ta.toks;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (toks[i].text != "for" || toks[i + 1].text != "(") continue;
    const std::size_t close = match_forward(toks, i + 1, "(", ")");
    if (close >= toks.size()) continue;
    // The range-for separator: a lone `:` at paren depth 1.
    std::size_t colon = 0;
    int depth = 0;
    for (std::size_t j = i + 1; j < close; ++j) {
      if (toks[j].text == "(") ++depth;
      if (toks[j].text == ")") --depth;
      if (depth == 1 && toks[j].text == ":") {
        colon = j;
        break;
      }
    }
    if (colon == 0) continue;  // classic for loop
    // Loop variable: last identifier of the declaration side.
    std::string loop_var;
    for (std::size_t j = colon; j-- > i + 2;) {
      if (toks[j].kind == Tok::kIdent) {
        loop_var = toks[j].text;
        break;
      }
    }
    // Container: the trailing access path of the range expression (the
    // whole `c.members` / `this->subs_`, not just the last identifier — a
    // body mutating `v.members` must not match a loop over `c.members`).
    // Member ranges are recognized by access syntax or the
    // trailing-underscore convention.
    std::vector<std::string> container;
    bool member_range = false;
    for (std::size_t j = close; j-- > colon + 1;) {
      const Tok& rt = toks[j];
      const bool path_tok = rt.kind == Tok::kIdent || rt.text == "." || rt.text == "->";
      if (!path_tok) break;
      if (rt.text == "." || rt.text == "->" || rt.text == "this") member_range = true;
      container.insert(container.begin(), rt.text);
    }
    if (!container.empty() && container.back().back() == '_') member_range = true;
    // Body: a braced block or a single statement.
    std::size_t body_begin = close + 1;
    std::size_t body_end;
    if (body_begin < toks.size() && toks[body_begin].text == "{") {
      body_end = match_forward(toks, body_begin, "{", "}");
    } else {
      body_end = body_begin;
      while (body_end < toks.size() && toks[body_end].text != ";") ++body_end;
    }
    std::string container_text;
    for (const std::string& part : container) container_text += part;
    for (std::size_t j = body_begin; j < body_end && j + 2 < toks.size(); ++j) {
      const std::size_t n = container.size();
      bool path_match = n > 0 && j + n + 1 < toks.size();
      for (std::size_t k = 0; path_match && k < n; ++k) {
        if (toks[j + k].text != container[k]) path_match = false;
      }
      if (path_match && j > 0 &&
          (toks[j - 1].text == "." || toks[j - 1].text == "->" ||
           toks[j - 1].kind == Tok::kIdent)) {
        path_match = false;  // tail of a longer access path: different object
      }
      if (path_match && (toks[j + n].text == "." || toks[j + n].text == "->") &&
          kMutators.count(toks[j + n + 1].text) > 0) {
        findings.push_back(Finding{
            path, toks[j].line, "iterator-invalidation", Severity::kError,
            "range-for over '" + container_text + "' mutates it via ." + toks[j + n + 1].text +
                "() inside the loop body: the loop's iterators are invalidated mid-flight; "
                "collect the changes and apply them after the loop, or iterate by index"});
      }
      if (member_range && !loop_var.empty() && toks[j].text == loop_var &&
          toks[j + 1].text == "(" &&
          (j == body_begin ||
           (toks[j - 1].text != "." && toks[j - 1].text != "->" && toks[j - 1].text != "::" &&
            toks[j - 1].kind != Tok::kIdent))) {
        findings.push_back(Finding{
            path, toks[j].line, "callback-under-iteration", Severity::kError,
            "callback '" + loop_var + "' invoked while range-iterating member container '" +
                container_text +
                "': the callee can (un)subscribe and grow the container, invalidating the "
                "iterator; iterate by index or snapshot the container first"});
      }
    }
  }
}

// --- Cross-island capture rule --------------------------------------------------

/// A lambda handed to a cross-island `post(...)` is drained into the
/// destination island's event heap and runs on that island's worker thread.
/// A default capture (`[&]`, `[=]`) or `[this]` silently closes over
/// source-island state, which the destination worker then reads or writes
/// concurrently with the source worker.  Cross-island payloads must name
/// every capture explicitly (moving the data or pointing at a
/// destination-owned slot), so the reach across the island boundary is
/// visible at the call site.
void check_cross_island_captures(const std::string& path, const TokenAnalysis& ta,
                                 std::vector<Finding>& findings) {
  const std::vector<Tok>& toks = ta.toks;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Tok::kIdent || toks[i].text != "post" || toks[i + 1].text != "(") {
      continue;
    }
    const std::size_t close = match_forward(toks, i + 1, "(", ")");
    for (std::size_t j = i + 2; j + 2 < close && j + 2 < toks.size(); ++j) {
      if (toks[j].text != "[") continue;
      // A lambda introducer, not a subscript: a subscript's `[` follows a
      // value (identifier, `]`, or `)`).
      const Tok& prev = toks[j - 1];
      if (prev.kind == Tok::kIdent || prev.text == "]" || prev.text == ")") continue;
      const std::string& c0 = toks[j + 1].text;
      const std::string& c1 = toks[j + 2].text;
      const bool default_cap = (c0 == "&" || c0 == "=") && (c1 == "]" || c1 == ",");
      const bool this_cap = c0 == "this" && (c1 == "]" || c1 == ",");
      if (!default_cap && !this_cap) continue;
      const std::string intro = "[" + c0 + (c1 == "," ? ", ..." : "") + "]";
      findings.push_back(Finding{
          path, toks[j].line, "cross-island-capture", Severity::kError,
          "lambda with capture " + intro +
              " passed to a cross-island post(): the closure runs on the destination "
              "island's worker thread, so implicit captures reach source-island state "
              "across threads; name every capture explicitly (move the payload or point "
              "at destination-owned state)"});
    }
  }
}

// --- co_await operand rule -------------------------------------------------------

/// If `open` is a `<` that opens a template argument list, return the index
/// just past its matching `>`; otherwise return `open` (a comparison).  The
/// list counts as template arguments only when it closes before any `;`,
/// brace or `?` and is followed by a call, a braced init or `::`.
std::size_t skip_template_args(const std::vector<Tok>& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t k = open; k < toks.size(); ++k) {
    const std::string& s = toks[k].text;
    if (s == ";" || s == "{" || s == "}" || s == "?") return open;
    if (s == "<") ++depth;
    if (s == ">") --depth;
    if (s == ">>") depth -= 2;
    if (depth <= 0) {
      const bool followed = k + 1 < toks.size() && (toks[k + 1].text == "(" ||
                                                     toks[k + 1].text == "{" ||
                                                     toks[k + 1].text == "::");
      return depth == 0 && followed ? k + 1 : open;
    }
  }
  return open;
}

/// GCC 12 destroys the prvalue a conditional operator selects twice when
/// the conditional sits inside a `co_await` operand: `co_await call(c ? a()
/// : b())` with a by-value class parameter double-frees under ASan.  The
/// operand of a unary `co_await` is a postfix expression, so the scan walks
/// its identifiers, member accesses, template arguments and bracketed groups
/// and flags any `?` inside them.  Braces are skipped: a lambda body is a
/// function of its own, and `(co_await x) ? a : b` ends the operand at `)`.
void check_co_await_conditionals(const std::string& path, const TokenAnalysis& ta,
                                 std::vector<Finding>& findings) {
  const std::vector<Tok>& toks = ta.toks;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].text != "co_await") continue;
    bool conditional = false;
    std::size_t j = i + 1;
    while (j < toks.size() && !conditional) {
      const Tok& t = toks[j];
      if (t.kind != Tok::kPunct || t.text == "::" || t.text == "." || t.text == "->") {
        ++j;
      } else if (t.text == "(" || t.text == "[") {
        const std::size_t close = match_forward(toks, j, t.text.c_str(), t.text == "(" ? ")" : "]");
        for (std::size_t k = j + 1; k < close && !conditional; ++k) {
          if (toks[k].text == "{") k = match_forward(toks, k, "{", "}");
          conditional = k < close && toks[k].text == "?";
        }
        j = close + 1;
      } else if (t.text == "{") {
        j = match_forward(toks, j, "{", "}") + 1;
      } else if (t.text == "<" && toks[j - 1].kind == Tok::kIdent &&
                 skip_template_args(toks, j) != j) {
        j = skip_template_args(toks, j);
      } else {
        break;
      }
    }
    if (!conditional) continue;
    findings.push_back(Finding{
        path, toks[i].line, "co-await-conditional", Severity::kError,
        "conditional operator inside a co_await operand: GCC 12 destroys the selected "
        "prvalue twice (a double free for a by-value class argument); bind the "
        "conditional's result to a named local first and co_await on that"});
  }
}

// --- Cross-file mutable-global reference pass ----------------------------------

void check_global_refs(const std::string& path, const TokenAnalysis& ta,
                       const std::map<std::string, GlobalSym>& index,
                       std::vector<Finding>& findings) {
  if (!in_protocol_layer(path) || index.empty()) return;
  std::set<std::pair<int, std::string>> seen;  // one finding per (line, name)
  for (std::size_t i = 0; i < ta.toks.size(); ++i) {
    const Tok& t = ta.toks[i];
    if (t.kind != Tok::kIdent) continue;
    if (ta.scope_at[i] != ScopeKind::kFunction && ta.scope_at[i] != ScopeKind::kBlock) continue;
    const auto it = index.find(t.text);
    if (it == index.end() || it->second.file == path) continue;
    if (i > 0 && (ta.toks[i - 1].text == "." || ta.toks[i - 1].text == "->")) continue;
    if (!seen.insert({t.line, t.text}).second) continue;
    std::ostringstream msg;
    msg << "mutable global '" << t.text << "' (defined at " << it->second.file << ":"
        << it->second.line
        << ") referenced from a protocol layer: event callbacks run per-node today and on "
           "worker threads under the parallel simulator; pass the state in explicitly";
    findings.push_back(Finding{path, t.line, "global-in-callback", Severity::kWarning,
                               msg.str()});
  }
}

// --- Rules ---------------------------------------------------------------------

struct RegexRule {
  const char* name;
  Severity severity;
  std::regex pattern;
  const char* message;
  bool (*applies)(const std::string& path);
};

const std::vector<RegexRule>& regex_rules() {
  // NOTE: std::regex (ECMAScript) has no lookbehind; patterns that must not
  // match member access or identifier suffixes anchor on `(^|[^\w.>])`.
  static const std::vector<RegexRule> rules = {
      {"unordered-container", Severity::kError,
       std::regex(R"(std::\s*unordered_(map|set|multimap|multiset)\b)"),
       "unordered container in a protocol layer: iteration order is not deterministic; "
       "use std::map/std::set or a sorted vector, or suppress with a justification if the "
       "container is never iterated",
       [](const std::string& p) { return in_protocol_layer(p); }},
      {"wall-clock", Severity::kError,
       std::regex(R"((^|[^\w.>])(std::chrono::)?(system_clock|steady_clock|high_resolution_clock)\b)"),
       "wall-clock read outside src/obs export paths: real time in a simulated run breaks "
       "seed-replayability; read the simulator or the CCS facade instead",
       [](const std::string& p) { return !wall_clock_exempt(p); }},
      {"wall-clock", Severity::kError,
       std::regex(R"((^|[^\w.>])(gettimeofday|clock_gettime|ftime)\s*\()"),
       "OS time syscall outside src/obs export paths: route time through the simulated "
       "TimeSyscalls facade",
       [](const std::string& p) { return !wall_clock_exempt(p); }},
      {"wall-clock", Severity::kError,
       std::regex(R"((^|[^\w.>])time\s*\(\s*(\)|NULL\b|nullptr\b|0\s*[,\)]|&))"),
       "time() call outside src/obs export paths: route time through the simulated "
       "TimeSyscalls facade",
       [](const std::string& p) { return !wall_clock_exempt(p); }},
      {"raw-random", Severity::kError,
       std::regex(
           R"((^|[^\w.>])(std::\s*rand\b|srand\s*\(|rand\s*\(\s*\)|random_device\b|mt19937(_64)?\b|default_random_engine\b|minstd_rand0?\b))"),
       "nondeterministic randomness outside src/common/rng: every draw must flow from the "
       "seeded cts::Rng so runs replay from a seed",
       [](const std::string& p) { return !rng_home(p); }},
      {"type-pun", Severity::kError,
       std::regex(R"((^|[^\w.>])(reinterpret_cast\b|memcpy\s*\(|memmove\s*\())"),
       "raw type-punning outside src/common/bytes.hpp: byte-level codecs are centralized in "
       "the audited BytesWriter/BytesReader (use load_u32le/store_u32le)",
       [](const std::string& p) { return !bytes_home(p); }},
      {"float-compare", Severity::kError,
       std::regex(R"([=!]=\s*[-+]?(\d+\.\d*|\.\d+)([fFlL]\b)?)"),
       "exact floating-point equality: clock arithmetic must not branch on float ==/!=; "
       "compare against an integer representation or an epsilon",
       [](const std::string&) { return true; }},
      {"float-compare", Severity::kError,
       std::regex(R"((\d+\.\d*|\.\d+)[fFlL]?\s*[=!]=)"),
       "exact floating-point equality: clock arithmetic must not branch on float ==/!=; "
       "compare against an integer representation or an epsilon",
       [](const std::string&) { return true; }},
      {"pointer-key", Severity::kError,
       std::regex(R"(std::\s*(map|set|multimap|multiset)\s*<[^,<>]*\*\s*[,>])"),
       "pointer-keyed ordered container: pointer order is allocation order, which differs "
       "across runs; key by a stable id instead",
       [](const std::string& p) { return in_protocol_layer(p); }},
      {"pointer-key", Severity::kWarning,
       std::regex(R"(std::\s*(map|set|multimap|multiset)\s*<[^,<>]*\*\s*[,>])"),
       "pointer-keyed ordered container outside protocol layers: iteration order follows "
       "allocation order; avoid feeding it into any output or decision",
       [](const std::string& p) { return !in_protocol_layer(p); }},
      {"scoped-timer", Severity::kWarning,
       // Unlike the other rules this one MUST match member access (`ctx.sim.`,
       // `svc.simulator().`) — that is how node layers reach the simulator —
       // so the anchor only rejects identifier suffixes, not `.`/`->`.
       std::regex(R"((^|[^\w])(sim_?\.|simulator\s*\(\s*\)\s*\.)(at|after|delay|reschedule)\s*\()"),
       "direct Simulator scheduling from a node-scoped layer bypasses the node's "
       "sim::TaskScope: the event survives a fail-stop crash and can re-animate dead-node "
       "code; schedule through scope()/scope_ (or suppress with a justification if the "
       "work is genuinely node-independent)",
       [](const std::string& p) { return in_node_layer(p); }},
      {"hot-path-map", Severity::kWarning,
       std::regex(R"(std::\s*(map|multimap)\s*<)"),
       "node-based std::map/std::multimap in a delivery-pipeline layer: per-element "
       "allocation and pointer-chasing on a hot path; prefer cts::FlatMap/FlatSet "
       "(std::map-identical iteration order, src/common/flat_map.hpp) or DenseNodeIndex "
       "for dense integer keys, or suppress with a justification when stable element "
       "references are genuinely required",
       [](const std::string& p) { return in_flat_container_layer(p); }},
      {"heap-callback", Severity::kWarning,
       std::regex(R"(std::\s*function\b)"),
       "std::function in the event hot path: captures past its ~16-byte small buffer "
       "heap-allocate on every construction; use cts::InlineFn (48-byte inline storage), "
       "hoist the construction off the per-event path, or suppress with a justification",
       [](const std::string& p) {
         return starts_with(p, "src/sim/") || starts_with(p, "src/net/");
       }},
  };
  return rules;
}

// --- side-effect-assert (needs balanced-paren extraction) ----------------------

/// Does `arg` (the text between assert's parentheses) mutate state?
bool has_side_effect(const std::string& arg) {
  static const std::regex inc_dec(R"(\+\+|--)");
  static const std::regex mutating_call(
      R"((\.|->)\s*(insert|erase|emplace\w*|push_back|push_front|pop_back|pop_front|clear|reset|assign|swap)\s*\()");
  // Plain or compound assignment: '=' not part of ==, !=, <=, >= and not
  // preceded by a comparison char; compound (+=, -=, ...) counts too.
  static const std::regex assign(R"(([^=!<>\s]\s*|[+\-*/%&|^])=([^=]|$))");
  if (std::regex_search(arg, inc_dec)) return true;
  if (std::regex_search(arg, mutating_call)) return true;
  std::smatch m;
  std::string::const_iterator it = arg.begin();
  while (std::regex_search(it, arg.cend(), m, assign)) {
    const std::string pre = m[1].str();
    const char last = pre.empty() ? '\0' : pre[0];
    if (last == '+' || last == '-' || last == '*' || last == '/' || last == '%' ||
        last == '&' || last == '|' || last == '^') {
      return true;  // compound assignment
    }
    if (last != '<' && last != '>' && last != '!' && last != '=') return true;
    it = m[0].second;
  }
  return false;
}

void check_asserts(const std::string& path, const std::vector<StrippedLine>& lines,
                   std::vector<Finding>& findings) {
  static const std::regex assert_re(R"((^|[^\w.>])assert\s*\()");
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::smatch m;
    const std::string& code = lines[i].code;
    if (!std::regex_search(code, m, assert_re)) continue;
    // Extract the balanced argument, joining at most 6 physical lines.
    std::string arg;
    int depth = 0;
    bool started = false, closed = false;
    std::size_t pos = static_cast<std::size_t>(m.position(0)) + m[0].length() - 1;
    for (std::size_t l = i; l < lines.size() && l < i + 6 && !closed; ++l) {
      const std::string& text = lines[l].code;
      for (std::size_t k = (l == i ? pos : 0); k < text.size(); ++k) {
        if (text[k] == '(') {
          ++depth;
          started = true;
          if (depth == 1) continue;
        } else if (text[k] == ')') {
          --depth;
          if (started && depth == 0) {
            closed = true;
            break;
          }
        }
        if (started && depth >= 1) arg.push_back(text[k]);
      }
      arg.push_back(' ');
    }
    if (has_side_effect(arg)) {
      findings.push_back(Finding{
          path, static_cast<int>(i + 1), "side-effect-assert", Severity::kError,
          "assert() argument mutates state: the mutation vanishes under NDEBUG, so Release "
          "and Debug replicas diverge; hoist the side effect out of the assert"});
    }
  }
}

// --- Per-file pipeline ----------------------------------------------------------

struct FileAnalysis {
  const SourceFile* src = nullptr;
  std::vector<StrippedLine> lines;
  std::vector<Suppression> sups;
  TokenAnalysis tokens;
  std::vector<Finding> findings;  // pre-suppression
};

/// Dedup (two wall-clock patterns can hit one line), apply suppressions,
/// then surface bare/unused suppressions as findings of their own.
std::vector<Finding> finalize_file(const std::string& path, std::vector<Finding> findings,
                                   std::vector<Suppression>& sups) {
  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.line, a.rule, a.message) < std::tie(b.line, b.rule, b.message);
  });
  findings.erase(std::unique(findings.begin(), findings.end(),
                             [](const Finding& a, const Finding& b) {
                               return a.line == b.line && a.rule == b.rule;
                             }),
                 findings.end());

  std::vector<Finding> kept;
  for (Finding& f : findings) {
    bool suppressed = false;
    for (Suppression& s : sups) {
      if (covers(s, f.rule, f.line)) {
        s.used = true;
        suppressed = true;
        break;
      }
    }
    if (!suppressed) kept.push_back(std::move(f));
  }

  for (const Suppression& s : sups) {
    if (!s.justified) {
      kept.push_back(Finding{path, s.comment_line, "bare-suppression", Severity::kError,
                             "detlint:allow() without a justification: state why the hazard "
                             "does not apply after the closing parenthesis"});
    }
    if (!s.used) {
      kept.push_back(Finding{path, s.comment_line, "unused-suppression", Severity::kWarning,
                             "detlint:allow() suppresses nothing on this or the next line: "
                             "the hazard was fixed or moved, delete the stale comment"});
    }
  }

  std::sort(kept.begin(), kept.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.line, a.rule) < std::tie(b.line, b.rule);
  });
  return kept;
}

}  // namespace

// --- Public API -----------------------------------------------------------------

std::vector<Finding> lint_sources(const std::vector<SourceFile>& files) {
  std::vector<FileAnalysis> fas(files.size());
  std::vector<GlobalSym> globals;

  // Pass 1: per-file analysis; mutable namespace-scope globals accumulate
  // into the cross-file symbol index as a side product.
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    FileAnalysis& fa = fas[fi];
    fa.src = &files[fi];
    const std::string& path = files[fi].path;
    const std::vector<std::string> raw = split_lines(files[fi].content);
    fa.lines.reserve(raw.size());
    StripState st;
    for (const std::string& l : raw) fa.lines.push_back(strip_line(l, st));
    fa.sups = collect_suppressions(fa.lines);

    for (const RegexRule& rule : regex_rules()) {
      if (!rule.applies(path)) continue;
      for (std::size_t i = 0; i < fa.lines.size(); ++i) {
        if (std::regex_search(fa.lines[i].code, rule.pattern)) {
          fa.findings.push_back(
              Finding{path, static_cast<int>(i + 1), rule.name, rule.severity, rule.message});
        }
      }
    }
    check_asserts(path, fa.lines, fa.findings);
    fa.tokens = analyze_tokens(path, fa.lines, fa.findings, globals);
    if (in_callback_layer(path)) check_range_for(path, fa.tokens, fa.findings);
    check_co_await_conditionals(path, fa.tokens, fa.findings);
    if (starts_with(path, "src/sim/") || starts_with(path, "src/net/")) {
      check_cross_island_captures(path, fa.tokens, fa.findings);
    }
  }

  // Pass 2: references to another file's mutable globals from the protocol
  // layers.  First declaration of a name wins; duplicates across
  // translation units are one logical symbol for our purposes.
  std::map<std::string, GlobalSym> index;
  for (GlobalSym& g : globals) index.try_emplace(g.name, std::move(g));
  std::vector<Finding> all;
  for (FileAnalysis& fa : fas) {
    check_global_refs(fa.src->path, fa.tokens, index, fa.findings);
    std::vector<Finding> kept = finalize_file(fa.src->path, std::move(fa.findings), fa.sups);
    all.insert(all.end(), std::make_move_iterator(kept.begin()),
               std::make_move_iterator(kept.end()));
  }
  return all;
}

std::vector<Finding> lint_content(const std::string& path, const std::string& content) {
  return lint_sources({SourceFile{path, content}});
}

std::vector<Finding> lint_tree(const std::string& root, const std::vector<std::string>& subdirs,
                               std::size_t* files_scanned) {
  namespace fs = std::filesystem;
  static const std::set<std::string> kExts = {".cpp", ".cc", ".cxx", ".hpp", ".h", ".hh"};

  std::vector<fs::path> files;
  for (const std::string& sub : subdirs) {
    const fs::path dir = fs::path(root) / sub;
    if (!fs::exists(dir)) continue;
    for (auto it = fs::recursive_directory_iterator(dir); it != fs::recursive_directory_iterator();
         ++it) {
      const fs::path& p = it->path();
      const std::string name = p.filename().string();
      if (it->is_directory() && (name == ".git" || starts_with(name, "build"))) {
        it.disable_recursion_pending();
        continue;
      }
      if (it->is_regular_file() && kExts.count(p.extension().string()) > 0) files.push_back(p);
    }
  }
  std::sort(files.begin(), files.end());
  if (files_scanned) *files_scanned = files.size();

  std::vector<SourceFile> sources;
  sources.reserve(files.size());
  for (const fs::path& p : files) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    sources.push_back(SourceFile{fs::path(p).lexically_relative(root).generic_string(), ss.str()});
  }
  return lint_sources(sources);
}

std::string format_finding(const Finding& f) {
  std::ostringstream out;
  out << f.file << ":" << f.line << ": "
      << (f.severity == Severity::kError ? "error" : "warning") << ": " << f.message << " ["
      << f.rule << "]";
  return out.str();
}

namespace {

void json_escape(std::ostringstream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      case '\t':
        out << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

}  // namespace

std::string to_json(const std::vector<Finding>& findings, std::size_t files_scanned) {
  std::size_t errors = 0, warnings = 0;
  for (const Finding& f : findings) {
    (f.severity == Severity::kError ? errors : warnings) += 1;
  }
  std::ostringstream out;
  out << "{\"files_scanned\": " << files_scanned << ", \"errors\": " << errors
      << ", \"warnings\": " << warnings << ", \"findings\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    if (i > 0) out << ", ";
    out << "{\"file\": ";
    json_escape(out, f.file);
    out << ", \"line\": " << f.line << ", \"rule\": ";
    json_escape(out, f.rule);
    out << ", \"severity\": \"" << (f.severity == Severity::kError ? "error" : "warning")
        << "\", \"message\": ";
    json_escape(out, f.message);
    out << "}";
  }
  out << "]}\n";
  return out.str();
}

int exit_code(const std::vector<Finding>& findings) {
  int code = 0;
  for (const Finding& f : findings) {
    if (f.severity == Severity::kError) return 2;
    code = 1;
  }
  return code;
}

}  // namespace detlint
