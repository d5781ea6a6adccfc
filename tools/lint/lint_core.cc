#include "lint/lint_core.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

namespace spotserve {
namespace lint {

namespace {

// ---------------------------------------------------------------------
// Lexing: split each line into code text (comments and string/char
// literals blanked out, geometry preserved) and comment text.
// ---------------------------------------------------------------------

struct LineText
{
    std::string code;    ///< literals/comments replaced by spaces
    std::string comment; ///< comment characters only
};

std::vector<LineText> splitLines(const std::string &content)
{
    std::vector<LineText> lines;
    LineText current;
    enum class State
    {
        Code,
        LineComment,
        BlockComment,
        String,
        Char
    };
    State state = State::Code;

    const std::size_t n = content.size();
    for (std::size_t i = 0; i < n; ++i) {
        const char c = content[i];
        const char next = i + 1 < n ? content[i + 1] : '\0';
        if (c == '\n') {
            if (state == State::LineComment)
                state = State::Code;
            // Unterminated string at end of line: reset rather than
            // poison the rest of the file (macros with odd quoting).
            if (state == State::String || state == State::Char)
                state = State::Code;
            lines.push_back(std::move(current));
            current = LineText{};
            continue;
        }
        switch (state) {
        case State::Code:
            if (c == '/' && next == '/') {
                state = State::LineComment;
                current.code += "  ";
                ++i;
            } else if (c == '/' && next == '*') {
                state = State::BlockComment;
                current.code += "  ";
                ++i;
            } else if (c == '"') {
                state = State::String;
                current.code += ' ';
            } else if (c == '\'') {
                state = State::Char;
                current.code += ' ';
            } else {
                current.code += c;
            }
            break;
        case State::LineComment:
            current.comment += c;
            break;
        case State::BlockComment:
            if (c == '*' && next == '/') {
                state = State::Code;
                ++i;
            } else {
                current.comment += c;
            }
            break;
        case State::String:
            if (c == '\\')
                ++i; // skip escaped char
            else if (c == '"')
                state = State::Code;
            current.code += ' ';
            break;
        case State::Char:
            if (c == '\\')
                ++i;
            else if (c == '\'')
                state = State::Code;
            current.code += ' ';
            break;
        }
    }
    lines.push_back(std::move(current));
    return lines;
}

struct Token
{
    std::string text;
    std::size_t pos = 0; ///< offset in the code text
};

std::vector<Token> identifiers(const std::string &code)
{
    std::vector<Token> out;
    const std::size_t n = code.size();
    std::size_t i = 0;
    while (i < n) {
        const unsigned char c = static_cast<unsigned char>(code[i]);
        if (std::isalpha(c) || code[i] == '_') {
            const std::size_t start = i;
            while (i < n &&
                   (std::isalnum(static_cast<unsigned char>(code[i])) ||
                    code[i] == '_'))
                ++i;
            out.push_back(Token{code.substr(start, i - start), start});
        } else {
            ++i;
        }
    }
    return out;
}

char nextNonSpace(const std::string &code, std::size_t from)
{
    for (std::size_t i = from; i < code.size(); ++i) {
        if (!std::isspace(static_cast<unsigned char>(code[i])))
            return code[i];
    }
    return '\0';
}

/**
 * True when the identifier ending before @p pos is a member access or a
 * non-std qualification (x.time, x->time, foo::time) — those are not the
 * banned global/std call.
 */
bool precededByMemberOrForeignScope(const std::string &code, std::size_t pos)
{
    std::size_t i = pos;
    while (i > 0 &&
           std::isspace(static_cast<unsigned char>(code[i - 1])))
        --i;
    if (i == 0)
        return false;
    if (code[i - 1] == '.')
        return true;
    if (i >= 2 && code[i - 2] == '-' && code[i - 1] == '>')
        return true;
    if (i >= 2 && code[i - 2] == ':' && code[i - 1] == ':') {
        // Qualified: banned only when the qualifier is std.
        std::size_t j = i - 2;
        while (j > 0 &&
               std::isspace(static_cast<unsigned char>(code[j - 1])))
            --j;
        std::size_t end = j;
        while (j > 0 &&
               (std::isalnum(static_cast<unsigned char>(code[j - 1])) ||
                code[j - 1] == '_'))
            --j;
        return code.substr(j, end - j) != "std";
    }
    return false;
}

// ---------------------------------------------------------------------
// Rule tables
// ---------------------------------------------------------------------

/** Banned wherever they appear (identifier match). */
const std::set<std::string> &bannedAlways()
{
    static const std::set<std::string> ids = {
        "steady_clock",   "system_clock", "high_resolution_clock",
        "sleep_for",      "sleep_until",  "this_thread",
        "random_device",  "gettimeofday", "clock_gettime",
        "timespec_get",   "srand",        "drand48",
        "srand48",        "localtime",    "gmtime",
    };
    return ids;
}

/**
 * Banned only as a call (`rand(`, `time(`, `clock(`) that is not a
 * member access or foreign-namespace qualification — plain identifiers
 * with these names (fields, parameters) are common and harmless.
 */
const std::set<std::string> &bannedCalls()
{
    static const std::set<std::string> ids = {"rand", "time", "clock"};
    return ids;
}

bool isNondetAllowlisted(const std::string &rel)
{
    static const std::set<std::string> files = {
        "simcore/wallclock_executor.h", "simcore/wallclock_executor.cc",
        "serving/socket_ingress.h",     "serving/socket_ingress.cc"};
    return files.count(rel) > 0;
}

/**
 * Direct console output: the C stdio writers and the std streams.  Only
 * simcore/logging.cc, the leveled logger every component goes through,
 * may write to the console.
 */
const std::set<std::string> &bannedStdio()
{
    static const std::set<std::string> ids = {"printf", "fprintf", "puts",
                                              "cout",   "cerr",    "clog"};
    return ids;
}

bool isStdioAllowlisted(const std::string &rel)
{
    return rel == "simcore/logging.cc";
}

bool startsWith(const std::string &s, const std::string &prefix)
{
    return s.rfind(prefix, 0) == 0;
}

bool isHeader(const std::string &rel)
{
    return rel.size() >= 2 && (rel.substr(rel.size() - 2) == ".h" ||
                               (rel.size() >= 4 &&
                                rel.substr(rel.size() - 4) == ".hpp"));
}

// ---------------------------------------------------------------------
// ALLOW comments
// ---------------------------------------------------------------------

struct Allow
{
    std::string rule;
    std::string reason;
    bool used = false;
};

/** Parse every SPOTSERVE_LINT_ALLOW(<rule>): <reason> in a comment. */
std::vector<Allow> parseAllows(const std::string &comment)
{
    std::vector<Allow> allows;
    static const std::string kTag = "SPOTSERVE_LINT_ALLOW(";
    std::size_t at = 0;
    while ((at = comment.find(kTag, at)) != std::string::npos) {
        const std::size_t open = at + kTag.size();
        const std::size_t close = comment.find(')', open);
        if (close == std::string::npos)
            break;
        Allow allow;
        allow.rule = comment.substr(open, close - open);
        std::size_t r = close + 1;
        while (r < comment.size() &&
               (comment[r] == ':' ||
                std::isspace(static_cast<unsigned char>(comment[r]))))
            ++r;
        allow.reason = comment.substr(r);
        while (!allow.reason.empty() &&
               std::isspace(
                   static_cast<unsigned char>(allow.reason.back())))
            allow.reason.pop_back();
        allows.push_back(std::move(allow));
        at = close;
    }
    return allows;
}

// ---------------------------------------------------------------------
// unordered-iteration support
// ---------------------------------------------------------------------

/** Names declared as std::unordered_map/std::unordered_set in @p code. */
void collectUnorderedNames(const std::vector<LineText> &lines,
                           std::set<std::string> *names)
{
    // Flatten so declarations spanning lines still parse.
    std::string code;
    for (const auto &line : lines) {
        code += line.code;
        code += ' ';
    }
    for (const char *kind : {"unordered_map", "unordered_set"}) {
        std::size_t at = 0;
        const std::string needle = std::string(kind) + "<";
        while ((at = code.find(needle, at)) != std::string::npos) {
            // Balance the template angle brackets.
            std::size_t i = at + needle.size();
            int depth = 1;
            while (i < code.size() && depth > 0) {
                if (code[i] == '<')
                    ++depth;
                else if (code[i] == '>')
                    --depth;
                ++i;
            }
            // Skip whitespace / ref / ptr, then read the declared name.
            while (i < code.size() &&
                   (std::isspace(static_cast<unsigned char>(code[i])) ||
                    code[i] == '&' || code[i] == '*'))
                ++i;
            std::size_t start = i;
            while (i < code.size() &&
                   (std::isalnum(static_cast<unsigned char>(code[i])) ||
                    code[i] == '_'))
                ++i;
            if (i > start)
                names->insert(code.substr(start, i - start));
            at += needle.size();
        }
    }
}

/** The trailing identifier of a range-for's range expression. */
std::string trailingIdentifier(std::string expr)
{
    while (!expr.empty() &&
           (std::isspace(static_cast<unsigned char>(expr.back())) ||
            expr.back() == ')'))
        expr.pop_back();
    std::size_t i = expr.size();
    while (i > 0 &&
           (std::isalnum(static_cast<unsigned char>(expr[i - 1])) ||
            expr[i - 1] == '_'))
        --i;
    return expr.substr(i);
}

// ---------------------------------------------------------------------

struct FileInput
{
    std::filesystem::path path;
    std::string rel;
    std::vector<LineText> lines;
    /** Unordered names declared in THIS file (locals and members). */
    std::set<std::string> unorderedNames;
};

void scanFile(const FileInput &in,
              const std::set<std::string> &cross_file_members,
              Report *report)
{
    // Locals only count within their own file; members (trailing '_'
    // by this codebase's convention) are matched tree-wide so a member
    // declared in a header is caught in the .cc that iterates it —
    // without cross-file locals colliding on common names.
    std::set<std::string> unordered_names = in.unorderedNames;
    unordered_names.insert(cross_file_members.begin(),
                           cross_file_members.end());
    const bool nondet = !isNondetAllowlisted(in.rel);
    const bool seam = !startsWith(in.rel, "simcore/");
    const bool stdio = !isStdioAllowlisted(in.rel);
    const bool unordered = startsWith(in.rel, "core/") ||
                           startsWith(in.rel, "costmodel/");

    // Allows per line (1-based).
    std::map<int, std::vector<Allow>> allows;
    for (std::size_t i = 0; i < in.lines.size(); ++i) {
        auto parsed = parseAllows(in.lines[i].comment);
        if (!parsed.empty())
            allows[static_cast<int>(i) + 1] = std::move(parsed);
    }

    auto lineHasCode = [&](int line) {
        if (line < 1 || line > static_cast<int>(in.lines.size()))
            return false;
        const std::string &code = in.lines[line - 1].code;
        return std::any_of(code.begin(), code.end(), [](char c) {
            return !std::isspace(static_cast<unsigned char>(c));
        });
    };

    auto emit = [&](int line, const std::string &rule,
                    const std::string &message) {
        Finding f;
        f.file = in.rel;
        f.line = line;
        f.rule = rule;
        f.message = message;
        // Same-line ALLOW, or one on the immediately preceding
        // comment-only line.
        for (int at : {line, line - 1}) {
            if (at == line - 1 && lineHasCode(at))
                continue;
            auto it = allows.find(at);
            if (it == allows.end())
                continue;
            for (auto &allow : it->second) {
                if (allow.rule == rule) {
                    allow.used = true;
                    f.suppressed = true;
                    f.reason = allow.reason;
                    break;
                }
            }
            if (f.suppressed)
                break;
        }
        report->findings.push_back(std::move(f));
    };

    for (std::size_t i = 0; i < in.lines.size(); ++i) {
        const int lineno = static_cast<int>(i) + 1;
        const std::string &code = in.lines[i].code;
        if (code.empty())
            continue;
        const auto tokens = identifiers(code);

        if (nondet) {
            for (const auto &tok : tokens) {
                if (bannedAlways().count(tok.text) > 0) {
                    emit(lineno, "nondeterminism",
                         "banned nondeterminism source '" + tok.text +
                             "' — components must take time from "
                             "sim::Executor::now() and randomness from "
                             "the seeded sim::Rng");
                } else if (bannedCalls().count(tok.text) > 0) {
                    const std::size_t after = tok.pos + tok.text.size();
                    if (nextNonSpace(code, after) == '(' &&
                        !precededByMemberOrForeignScope(code, tok.pos)) {
                        emit(lineno, "nondeterminism",
                             "banned nondeterminism source '" + tok.text +
                                 "()' — wall-clock/OS-randomness reads "
                                 "live behind the executor seam");
                    }
                }
            }
        }

        if (stdio) {
            for (const auto &tok : tokens) {
                if (bannedStdio().count(tok.text) > 0 &&
                    !precededByMemberOrForeignScope(code, tok.pos)) {
                    emit(lineno, "stdio",
                         "direct console output '" + tok.text +
                             "' — log through sim::logInfo/logWarn "
                             "(simcore/logging.h)");
                }
            }
        }

        if (seam) {
            for (const auto &tok : tokens) {
                if (tok.text != "Simulation")
                    continue;
                const char follow =
                    nextNonSpace(code, tok.pos + tok.text.size());
                if (follow == '&' || follow == '*') {
                    emit(lineno, "seam",
                         "sim::Simulation reference/pointer outside "
                         "src/simcore/ — program against sim::Executor "
                         "(the deterministic/wall-clock seam)");
                } else if (isHeader(in.rel)) {
                    emit(lineno, "seam",
                         "sim::Simulation named in a header outside "
                         "src/simcore/ — interfaces must depend on "
                         "sim::Executor only");
                }
            }
        }

        if (unordered) {
            // Range-for over a declared-unordered name.
            std::size_t at = 0;
            while ((at = code.find("for", at)) != std::string::npos) {
                const bool word_start =
                    at == 0 ||
                    (!std::isalnum(
                         static_cast<unsigned char>(code[at - 1])) &&
                     code[at - 1] != '_');
                const char after =
                    at + 3 < code.size() ? nextNonSpace(code, at + 3)
                                         : '\0';
                at += 3;
                if (!word_start || after != '(')
                    continue;
                const std::size_t open = code.find('(', at);
                if (open == std::string::npos)
                    continue;
                // Find the range ':' at paren depth 1 (skip '::').
                int depth = 0;
                std::size_t colon = std::string::npos;
                std::size_t close = std::string::npos;
                for (std::size_t j = open; j < code.size(); ++j) {
                    if (code[j] == '(')
                        ++depth;
                    else if (code[j] == ')') {
                        if (--depth == 0) {
                            close = j;
                            break;
                        }
                    } else if (code[j] == ':' && depth == 1) {
                        const bool dbl =
                            (j + 1 < code.size() && code[j + 1] == ':') ||
                            (j > 0 && code[j - 1] == ':');
                        if (!dbl)
                            colon = j;
                    }
                }
                if (colon == std::string::npos ||
                    close == std::string::npos)
                    continue;
                const std::string name = trailingIdentifier(
                    code.substr(colon + 1, close - colon - 1));
                if (unordered_names.count(name) > 0) {
                    emit(lineno, "unordered-iteration",
                         "iteration over unordered container '" + name +
                             "' in planning code — hash order leaks "
                             "into the golden-hash timeline; use an "
                             "ordered container or sort first");
                }
            }
            // Explicit iterator walks: name.begin() / cbegin / rbegin.
            for (const auto &tok : tokens) {
                if (unordered_names.count(tok.text) == 0)
                    continue;
                std::size_t j = tok.pos + tok.text.size();
                if (nextNonSpace(code, j) != '.')
                    continue;
                j = code.find('.', j) + 1;
                const auto rest = identifiers(code.substr(j));
                if (!rest.empty() && rest[0].pos == 0 &&
                    (rest[0].text == "begin" || rest[0].text == "cbegin" ||
                     rest[0].text == "rbegin")) {
                    emit(lineno, "unordered-iteration",
                         "iterator walk over unordered container '" +
                             tok.text +
                             "' in planning code — hash order leaks "
                             "into the golden-hash timeline");
                }
            }
        }
    }

    // Record unknown-rule ALLOWs as violations and unused ones for the
    // report, so suppressions cannot silently rot.
    for (const auto &[line, line_allows] : allows) {
        for (const auto &allow : line_allows) {
            const auto &rules = knownRules();
            if (std::find(rules.begin(), rules.end(), allow.rule) ==
                rules.end()) {
                Finding f;
                f.file = in.rel;
                f.line = line;
                f.rule = "lint-allow";
                f.message = "SPOTSERVE_LINT_ALLOW names unknown rule '" +
                            allow.rule + "'";
                report->findings.push_back(std::move(f));
            } else if (!allow.used) {
                report->unusedAllows.push_back(
                    UnusedAllow{in.rel, line, allow.rule});
            }
        }
    }
}

} // namespace

const std::vector<std::string> &knownRules()
{
    static const std::vector<std::string> rules = {
        "nondeterminism", "seam", "unordered-iteration", "stdio"};
    return rules;
}

std::vector<const Finding *> Report::violations() const
{
    std::vector<const Finding *> out;
    for (const auto &f : findings)
        if (!f.suppressed)
            out.push_back(&f);
    return out;
}

std::vector<const Finding *> Report::suppressions() const
{
    std::vector<const Finding *> out;
    for (const auto &f : findings)
        if (f.suppressed)
            out.push_back(&f);
    return out;
}

Report scanTree(const std::filesystem::path &root)
{
    namespace fs = std::filesystem;
    Report report;

    std::vector<FileInput> files;
    std::error_code ec;
    for (fs::recursive_directory_iterator it(root, ec), end;
         it != end && !ec; it.increment(ec)) {
        if (!it->is_regular_file())
            continue;
        const std::string ext = it->path().extension().string();
        if (ext != ".h" && ext != ".hpp" && ext != ".cc" && ext != ".cpp")
            continue;
        FileInput in;
        in.path = it->path();
        in.rel = fs::relative(it->path(), root).generic_string();
        files.push_back(std::move(in));
    }
    std::sort(files.begin(), files.end(),
              [](const FileInput &a, const FileInput &b) {
                  return a.rel < b.rel;
              });

    // Pass 1: lex every file and collect declared-unordered names —
    // per-file for locals, tree-wide for member-style names (trailing
    // '_'), so a member declared in a .h is caught in the .cc that
    // iterates it without locals colliding across files.
    std::set<std::string> cross_file_members;
    for (auto &in : files) {
        std::ifstream stream(in.path);
        std::stringstream buffer;
        buffer << stream.rdbuf();
        in.lines = splitLines(buffer.str());
        collectUnorderedNames(in.lines, &in.unorderedNames);
        for (const auto &name : in.unorderedNames)
            if (!name.empty() && name.back() == '_')
                cross_file_members.insert(name);
    }

    // Pass 2: apply the rules.
    for (const auto &in : files) {
        scanFile(in, cross_file_members, &report);
        ++report.filesScanned;
    }
    return report;
}

std::string renderReport(const Report &report, const std::string &root_label)
{
    std::ostringstream out;
    const auto violations = report.violations();
    const auto suppressions = report.suppressions();

    out << "spotserve_lint: scanned " << report.filesScanned
        << " files under " << root_label << "\n";

    out << "\nviolations (" << violations.size() << "):\n";
    for (const auto *f : violations)
        out << "  " << f->file << ":" << f->line << ": [" << f->rule
            << "] " << f->message << "\n";

    out << "\nsuppressions (" << suppressions.size() << "):\n";
    for (const auto *f : suppressions)
        out << "  " << f->file << ":" << f->line << ": [" << f->rule
            << "] " << (f->reason.empty() ? "(no reason given)" : f->reason)
            << "\n";

    if (!report.unusedAllows.empty()) {
        out << "\nunused suppressions (" << report.unusedAllows.size()
            << ") — consider deleting:\n";
        for (const auto &u : report.unusedAllows)
            out << "  " << u.file << ":" << u.line << ": [" << u.rule
                << "]\n";
    }

    out << "\n" << (violations.empty() ? "OK" : "FAILED") << "\n";
    return out.str();
}

} // namespace lint
} // namespace spotserve
