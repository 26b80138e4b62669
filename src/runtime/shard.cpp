#include "runtime/shard.hpp"

#include <limits>
#include <utility>

#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace eds::runtime {

namespace {

// ---------------------------------------------------------------------------
// Wire codecs.  The protocol is NDJSON with a *fixed field order* (the
// shapes in shard.hpp): encoders and decoders are two halves of one
// implementation, so a strict sequential parser is both sufficient and the
// cheapest way to reject malformed input loudly.

/// Whether JSON lets `c` stand for itself inside a string.
bool plain(char c) {
  return c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20;
}

/// Appends `s` JSON-escaped.  Runs of plain characters go in one append
/// each, so a graph text costs about one pass over its bytes.
void append_escaped(std::string& out, const std::string& s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t k = 0;
  while (true) {
    const std::size_t run = k;
    while (k < s.size() && plain(s[k])) ++k;
    out.append(s, run, k - run);
    if (k == s.size()) return;
    const char c = s[k++];
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        out += "\\u00";
        out += kHex[(static_cast<unsigned char>(c) >> 4) & 0xF];
        out += kHex[static_cast<unsigned char>(c) & 0xF];
    }
  }
}

/// Strict sequential scanner over one wire line.
class Cursor {
 public:
  explicit Cursor(const std::string& s) : s_(s) {}

  /// Consumes the exact literal `text` or throws.
  void lit(const char* text) {
    for (const char* p = text; *p != '\0'; ++p) {
      if (pos_ >= s_.size() || s_[pos_] != *p) {
        throw InvalidArgument("wire: expected '" + std::string(text) +
                              "' at offset " + std::to_string(pos_));
      }
      ++pos_;
    }
  }

  [[nodiscard]] bool peek(char c) const {
    return pos_ < s_.size() && s_[pos_] == c;
  }

  /// Consumes `text` if it is next; returns whether it did.
  [[nodiscard]] bool try_lit(const char* text) {
    std::size_t p = pos_;
    for (const char* t = text; *t != '\0'; ++t, ++p) {
      if (p >= s_.size() || s_[p] != *t) return false;
    }
    pos_ = p;
    return true;
  }

  [[nodiscard]] std::uint64_t uint() {
    if (pos_ >= s_.size() || s_[pos_] < '0' || s_[pos_] > '9') {
      throw InvalidArgument("wire: expected digit at offset " +
                            std::to_string(pos_));
    }
    std::uint64_t value = 0;
    while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') {
      const std::uint64_t digit = static_cast<std::uint64_t>(s_[pos_] - '0');
      if (value > (UINT64_MAX - digit) / 10) {
        throw InvalidArgument("wire: integer overflow");
      }
      value = value * 10 + digit;
      ++pos_;
    }
    return value;
  }

  /// uint() for a field of type T: a value T cannot hold is rejected,
  /// naming `field`, never truncated.
  template <typename T>
  [[nodiscard]] T uint_for(const char* field) {
    const std::uint64_t value = uint();
    if (value > std::numeric_limits<T>::max()) {
      throw InvalidArgument(
          "wire: '" + std::string(field) + "' value " + std::to_string(value) +
          " exceeds its maximum " +
          std::to_string(std::numeric_limits<T>::max()));
    }
    return static_cast<T>(value);
  }

  [[nodiscard]] std::string str() {
    lit("\"");
    std::string out;
    while (true) {
      // Copy the run up to the next quote or backslash in one append.
      const std::size_t run = pos_;
      while (pos_ < s_.size() && s_[pos_] != '"' && s_[pos_] != '\\') ++pos_;
      out.append(s_, run, pos_ - run);
      if (pos_ >= s_.size()) throw InvalidArgument("wire: unterminated string");
      if (s_[pos_++] == '"') return out;
      if (pos_ >= s_.size()) throw InvalidArgument("wire: dangling escape");
      const char esc = s_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) {
            throw InvalidArgument("wire: truncated \\u escape");
          }
          unsigned value = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = s_[pos_++];
            value <<= 4;
            if (h >= '0' && h <= '9') value |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') value |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') value |= static_cast<unsigned>(h - 'A' + 10);
            else throw InvalidArgument("wire: bad \\u escape");
          }
          if (value > 0xFF) {
            throw InvalidArgument("wire: non-latin \\u escape unsupported");
          }
          out += static_cast<char>(value);
          break;
        }
        default:
          throw InvalidArgument("wire: unknown escape");
      }
    }
  }

  void end() const {
    if (pos_ != s_.size()) {
      throw InvalidArgument("wire: trailing bytes after object");
    }
  }

 private:
  const std::string& s_;
  std::size_t pos_ = 0;
};

void append_prefix(std::string& out) {
  out += "{\"schema\":";
  out += std::to_string(kWireSchemaVersion);
  out += ',';
}

/// Consumes the versioned line prefix.  Any schema but kWireSchemaVersion
/// is rejected loudly, never misparsed.
void consume_prefix(Cursor& c) {
  c.lit("{\"schema\":");
  const auto schema = c.uint();
  if (schema != static_cast<std::uint64_t>(kWireSchemaVersion)) {
    throw InvalidArgument("wire: unsupported schema version " +
                          std::to_string(schema));
  }
  c.lit(",");
}

/// Parses a job line's body after the versioned prefix.
WireJob decode_job(Cursor& c) {
  c.lit("\"job\":{\"index\":");
  WireJob job;
  job.index = c.uint_for<std::size_t>("index");
  c.lit(",\"algorithm\":");
  job.algorithm = c.str();
  c.lit(",\"param\":");
  job.param = c.uint_for<Port>("param");
  c.lit(",\"threads\":");
  job.threads = c.uint_for<unsigned>("threads");
  c.lit(",\"max_rounds\":");
  job.max_rounds = c.uint_for<Round>("max_rounds");
  if (c.try_lit(",\"async\":")) {
    job.async = decode_async_options(c.str());
    if (!job.async->schedule.empty()) {
      throw InvalidArgument("wire: adversarial schedules do not cross");
    }
  }
  c.lit("}}");
  c.end();
  return job;
}

}  // namespace

std::string encode_wire_graph(const std::string& graph_text) {
  std::string out;
  // Room for the escapes and the newline a writer appends, so neither
  // reallocates a large graph's line.
  out.reserve(graph_text.size() + graph_text.size() / 8 + 32);
  append_prefix(out);
  out += "\"graph\":\"";
  append_escaped(out, graph_text);
  out += "\"}";
  return out;
}

std::string encode_wire_job(const WireJob& job) {
  std::string out;
  append_prefix(out);
  out += "\"job\":{\"index\":";
  out += std::to_string(job.index);
  out += ",\"algorithm\":\"";
  append_escaped(out, job.algorithm);
  out += "\",\"param\":";
  out += std::to_string(job.param);
  out += ",\"threads\":";
  out += std::to_string(job.threads);
  out += ",\"max_rounds\":";
  out += std::to_string(job.max_rounds);
  if (job.async.has_value()) {
    out += ",\"async\":\"";
    append_escaped(out, encode_async_options(*job.async));
    out += '"';
  }
  out += "}}";
  return out;
}

WireJob decode_wire_job(const std::string& line) {
  Cursor c(line);
  consume_prefix(c);
  return decode_job(c);
}

ParentLine decode_parent_line(const std::string& line) {
  Cursor c(line);
  consume_prefix(c);
  if (!c.try_lit("\"graph\":")) return decode_job(c);
  std::string graph_text = c.str();
  c.lit("}");
  c.end();
  return graph_text;
}

std::string encode_wire_result(std::size_t index, const RunResult& result) {
  std::string out;
  out.reserve(64 + result.outputs.size() * 4);
  append_prefix(out);
  out += "\"result\":{\"index\":";
  out += std::to_string(index);
  out += ",\"rounds\":";
  out += std::to_string(result.stats.rounds);
  out += ",\"messages\":";
  out += std::to_string(result.stats.messages_sent);
  out += ",\"ports_served\":";
  out += std::to_string(result.stats.ports_served);
  out += ",\"outputs\":[";
  for (std::size_t v = 0; v < result.outputs.size(); ++v) {
    if (v != 0) out += ',';
    out += '[';
    for (std::size_t k = 0; k < result.outputs[v].size(); ++k) {
      if (k != 0) out += ',';
      out += std::to_string(result.outputs[v][k]);
    }
    out += ']';
  }
  out += "]}}";
  return out;
}

std::string encode_wire_error(std::size_t index, const std::string& message) {
  std::string out;
  append_prefix(out);
  out += "\"error\":{\"index\":";
  out += std::to_string(index);
  out += ",\"message\":\"";
  append_escaped(out, message);
  out += "\"}}";
  return out;
}

std::string encode_worker_summary(const WorkerSummary& summary) {
  std::string out;
  append_prefix(out);
  out += "\"worker_summary\":{\"jobs\":";
  out += std::to_string(summary.jobs);
  out += ",\"plans_compiled\":";
  out += std::to_string(summary.plans_compiled);
  out += ",\"plan_hits\":";
  out += std::to_string(summary.plan_hits);
  out += "}}";
  return out;
}

WorkerLine decode_worker_line(const std::string& line) {
  Cursor c(line);
  WorkerLine parsed;
  consume_prefix(c);
  if (c.try_lit("\"result\":{\"index\":")) {
    parsed.kind = WorkerLine::Kind::kResult;
    parsed.index = c.uint_for<std::size_t>("index");
    c.lit(",\"rounds\":");
    parsed.result.stats.rounds = c.uint_for<Round>("rounds");
    c.lit(",\"messages\":");
    parsed.result.stats.messages_sent = c.uint();
    c.lit(",\"ports_served\":");
    parsed.result.stats.ports_served = c.uint();
    c.lit(",\"outputs\":[");
    if (!c.peek(']')) {
      while (true) {
        c.lit("[");
        std::vector<Port> ports;
        if (!c.peek(']')) {
          while (true) {
            ports.push_back(c.uint_for<Port>("outputs"));
            if (c.peek(',')) {
              c.lit(",");
              continue;
            }
            break;
          }
        }
        c.lit("]");
        parsed.result.outputs.push_back(std::move(ports));
        if (c.peek(',')) {
          c.lit(",");
          continue;
        }
        break;
      }
    }
    c.lit("]}}");
    c.end();
    return parsed;
  }
  if (c.try_lit("\"error\":{\"index\":")) {
    parsed.kind = WorkerLine::Kind::kError;
    parsed.index = c.uint_for<std::size_t>("index");
    c.lit(",\"message\":");
    parsed.message = c.str();
    c.lit("}}");
    c.end();
    return parsed;
  }
  c.lit("\"worker_summary\":{\"jobs\":");
  parsed.kind = WorkerLine::Kind::kSummary;
  parsed.summary.jobs = c.uint();
  c.lit(",\"plans_compiled\":");
  parsed.summary.plans_compiled = c.uint();
  c.lit(",\"plan_hits\":");
  parsed.summary.plan_hits = c.uint();
  c.lit("}}");
  c.end();
  return parsed;
}

namespace detail {

std::string describe_wire_line(std::size_t line_no, const std::string& line) {
  // Keep the snippet one error-message-sized line no matter what arrived:
  // escape the control characters a garbled frame tends to carry and cut
  // at 80 chars — enough to recognize the line, never a log bomb.
  constexpr std::size_t kMaxSnippet = 80;
  std::string snippet;
  append_escaped(snippet, line.size() > kMaxSnippet
                              ? line.substr(0, kMaxSnippet)
                              : line);
  if (line.size() > kMaxSnippet) snippet += "…";
  return "line " + std::to_string(line_no) + " (\"" + snippet + "\")";
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Chaos spec codec + action function.  Pure and deterministic so every
// test failure replays: the worker's behaviour is a function of (spec,
// job ordinal, wire index) and nothing else.

namespace {

[[nodiscard]] std::uint64_t parse_chaos_uint(const std::string& spec,
                                             const std::string& field) {
  if (field.empty() ||
      field.find_first_not_of("0123456789") != std::string::npos) {
    throw InvalidArgument("chaos: expected a number in \"" + spec + "\"");
  }
  return std::stoull(field);
}

/// One splitmix64 step (util/rng.hpp) as a pure function of `x`.
[[nodiscard]] std::uint64_t chaos_mix(std::uint64_t x) { return splitmix64(x); }

}  // namespace

ChaosSpec parse_chaos_spec(const std::string& spec) {
  ChaosSpec parsed;
  if (spec.empty()) return parsed;

  std::vector<std::string> fields;
  std::size_t start = 0;
  for (;;) {
    const std::size_t colon = spec.find(':', start);
    if (colon == std::string::npos) {
      fields.push_back(spec.substr(start));
      break;
    }
    fields.push_back(spec.substr(start, colon - start));
    start = colon + 1;
  }

  const auto want = [&](std::size_t n) {
    if (fields.size() != n) {
      throw InvalidArgument("chaos: \"" + spec + "\" takes " +
                            std::to_string(n - 1) + " argument(s), got " +
                            std::to_string(fields.size() - 1));
    }
  };
  const std::string& mode = fields[0];
  if (mode == "crash") {
    want(2);
    parsed.mode = ChaosSpec::Mode::kCrash;
    parsed.n = parse_chaos_uint(spec, fields[1]);
  } else if (mode == "hang") {
    want(3);
    parsed.mode = ChaosSpec::Mode::kHang;
    parsed.n = parse_chaos_uint(spec, fields[1]);
    parsed.ms = parse_chaos_uint(spec, fields[2]);
  } else if (mode == "garbage") {
    want(2);
    parsed.mode = ChaosSpec::Mode::kGarbage;
    parsed.n = parse_chaos_uint(spec, fields[1]);
  } else if (mode == "slow") {
    want(3);
    parsed.mode = ChaosSpec::Mode::kSlow;
    parsed.n = parse_chaos_uint(spec, fields[1]);
    parsed.ms = parse_chaos_uint(spec, fields[2]);
  } else if (mode == "exit-mid") {
    want(2);
    parsed.mode = ChaosSpec::Mode::kExitMid;
    parsed.n = parse_chaos_uint(spec, fields[1]);
  } else if (mode == "poison") {
    want(2);
    parsed.mode = ChaosSpec::Mode::kPoison;
    parsed.n = parse_chaos_uint(spec, fields[1]);
  } else if (mode == "rand") {
    want(3);
    parsed.mode = ChaosSpec::Mode::kRandom;
    parsed.seed = parse_chaos_uint(spec, fields[1]);
    parsed.permille = parse_chaos_uint(spec, fields[2]);
    if (parsed.permille > 1000) {
      throw InvalidArgument("chaos: rand permille must be <= 1000, got " +
                            fields[2]);
    }
  } else {
    throw InvalidArgument(
        "chaos: unknown mode \"" + mode +
        "\" (expected crash, hang, garbage, slow, exit-mid, poison, rand)");
  }
  // The deterministic modes trigger on a 1-based ordinal/index; "the 0th
  // job" never exists for ordinals but poison:0 targets wire index 0.
  if (parsed.mode != ChaosSpec::Mode::kPoison &&
      parsed.mode != ChaosSpec::Mode::kRandom && parsed.n == 0) {
    throw InvalidArgument("chaos: job ordinal must be >= 1 in \"" + spec +
                          "\"");
  }
  return parsed;
}

std::string format_chaos_spec(const ChaosSpec& spec) {
  switch (spec.mode) {
    case ChaosSpec::Mode::kNone:
      return "";
    case ChaosSpec::Mode::kCrash:
      return "crash:" + std::to_string(spec.n);
    case ChaosSpec::Mode::kHang:
      return "hang:" + std::to_string(spec.n) + ":" + std::to_string(spec.ms);
    case ChaosSpec::Mode::kGarbage:
      return "garbage:" + std::to_string(spec.n);
    case ChaosSpec::Mode::kSlow:
      return "slow:" + std::to_string(spec.n) + ":" + std::to_string(spec.ms);
    case ChaosSpec::Mode::kExitMid:
      return "exit-mid:" + std::to_string(spec.n);
    case ChaosSpec::Mode::kPoison:
      return "poison:" + std::to_string(spec.n);
    case ChaosSpec::Mode::kRandom:
      return "rand:" + std::to_string(spec.seed) + ":" +
             std::to_string(spec.permille);
  }
  return "";
}

ChaosAction chaos_action(const ChaosSpec& spec, std::uint64_t job_ordinal,
                         std::size_t wire_index) {
  ChaosAction action;
  switch (spec.mode) {
    case ChaosSpec::Mode::kNone:
      break;
    case ChaosSpec::Mode::kCrash:
      // Triggers at the Nth job and stays armed past it, so a worker that
      // somehow survives (it should not) keeps trying to die.
      if (job_ordinal >= spec.n) action.mode = spec.mode;
      break;
    case ChaosSpec::Mode::kHang:
    case ChaosSpec::Mode::kGarbage:
    case ChaosSpec::Mode::kSlow:
    case ChaosSpec::Mode::kExitMid:
      if (job_ordinal == spec.n) {
        action.mode = spec.mode;
        action.ms = spec.ms;
      }
      break;
    case ChaosSpec::Mode::kPoison:
      if (wire_index == spec.n) action.mode = spec.mode;
      break;
    case ChaosSpec::Mode::kRandom: {
      const std::uint64_t draw = chaos_mix(spec.seed ^ chaos_mix(job_ordinal));
      if (draw % 1000 < spec.permille) {
        // Recoverable faults only — no hang (deadline-tuning territory)
        // and no poison (it would defeat a retry budget by design).
        switch ((draw >> 32) % 4) {
          case 0:
            action.mode = ChaosSpec::Mode::kCrash;
            break;
          case 1:
            action.mode = ChaosSpec::Mode::kGarbage;
            break;
          case 2:
            action.mode = ChaosSpec::Mode::kExitMid;
            break;
          default:
            action.mode = ChaosSpec::Mode::kSlow;
            action.ms = 2;
        }
      }
      break;
    }
  }
  return action;
}

// ---------------------------------------------------------------------------
// The executor's validation and stats surface.  run_streaming and the
// process machinery behind it (fork/exec, reader/writer threads, retry
// passes, teardown) live in worker_pool.cpp.

ProcessShardExecutor::ProcessShardExecutor(
    std::vector<std::string> worker_command, unsigned shards)
    : ProcessShardExecutor(std::move(worker_command), shards, Options()) {}

ProcessShardExecutor::ProcessShardExecutor(
    std::vector<std::string> worker_command, unsigned shards, Options options)
    : worker_command_(std::move(worker_command)),
      shards_(resolve_threads(shards)),
      options_(options) {
#if defined(_WIN32)
  throw InvalidArgument(
      "ProcessShardExecutor: process sharding requires a POSIX platform");
#endif
  if (worker_command_.empty()) {
    throw InvalidArgument(
        "ProcessShardExecutor: worker command must not be empty");
  }
}

ProcessShardExecutor::Stats ProcessShardExecutor::stats() const {
  const std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

void ProcessShardExecutor::validate(const std::vector<BatchJob>& jobs) const {
  Executor::validate(jobs);
  for (const auto& job : jobs) {
    if (!job.spec.has_value()) {
      throw InvalidArgument(
          "ProcessShardExecutor: job carries no JobSpec and cannot cross a "
          "process boundary");
    }
    if (job.options.collect_trace || job.options.collect_messages) {
      throw InvalidArgument(
          "ProcessShardExecutor: trace/message collection does not cross "
          "the wire");
    }
    if (job.options.metrics != nullptr) {
      throw InvalidArgument(
          "ProcessShardExecutor: a metrics sink cannot be filled across "
          "the wire");
    }
    if (job.options.exec.async.has_value() &&
        !job.options.exec.async->schedule.empty()) {
      throw InvalidArgument(
          "ProcessShardExecutor: adversarial schedules do not cross the "
          "wire; run scheduled jobs on the in-process backend");
    }
  }
}

}  // namespace eds::runtime
