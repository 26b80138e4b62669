#include "runtime/fault.hpp"

#include <algorithm>
#include <charconv>
#include <iomanip>
#include <limits>
#include <optional>
#include <sstream>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace eds::runtime {

namespace {

std::vector<std::string> split_spec(const std::string& spec) {
  std::vector<std::string> parts;
  std::string part;
  std::istringstream is(spec);
  while (std::getline(is, part, ':')) parts.push_back(part);
  return parts;
}

/// `text` as an unsigned decimal, or nothing: digits only (no sign, space
/// or base prefix) and no more than fit 64 bits, as the port-graph reader
/// takes its numbers.
std::optional<std::uint64_t> unsigned_decimal(const std::string& text) {
  std::uint64_t value = 0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

std::uint64_t parse_ticks(const std::string& text, const std::string& spec) {
  const auto value = unsigned_decimal(text);
  if (!value) {
    throw InvalidArgument("parse_delay_model: bad tick count '" + text +
                          "' in '" + spec + "'");
  }
  return *value;
}

}  // namespace

DelayModel parse_delay_model(const std::string& spec) {
  const auto parts = split_spec(spec);
  DelayModel model;
  if (parts.size() == 2 && parts[0] == "fixed") {
    model.kind = DelayKind::kFixed;
    model.a = model.b = parse_ticks(parts[1], spec);
  } else if (parts.size() == 3 && parts[0] == "uniform") {
    model.kind = DelayKind::kUniform;
    model.a = parse_ticks(parts[1], spec);
    model.b = parse_ticks(parts[2], spec);
  } else if ((parts.size() == 2 || parts.size() == 3) &&
             parts[0] == "geometric") {
    model.kind = DelayKind::kGeometric;
    model.a = parse_ticks(parts[1], spec);
    model.b = parts.size() == 3 ? parse_ticks(parts[2], spec) : 8 * model.a;
  } else {
    throw InvalidArgument(
        "parse_delay_model: expected fixed:T, uniform:LO:HI or "
        "geometric:MEAN[:CAP], got '" +
        spec + "'");
  }
  if (model.a == 0 || model.b == 0) {
    throw InvalidArgument("parse_delay_model: delays must be >= 1 in '" +
                          spec + "'");
  }
  if (model.a > model.b) {
    throw InvalidArgument("parse_delay_model: lower bound exceeds upper in '" +
                          spec + "'");
  }
  return model;
}

std::string format_delay_model(const DelayModel& model) {
  std::ostringstream os;
  switch (model.kind) {
    case DelayKind::kFixed:
      os << "fixed:" << model.a;
      break;
    case DelayKind::kUniform:
      os << "uniform:" << model.a << ':' << model.b;
      break;
    case DelayKind::kGeometric:
      os << "geometric:" << model.a << ':' << model.b;
      break;
  }
  return os.str();
}

FaultPlan make_fault_plan(double loss, double duplicate,
                          std::size_t crash_count, std::size_t num_nodes,
                          std::uint64_t horizon, std::uint64_t seed) {
  FaultPlan plan;
  plan.loss = loss;
  plan.duplicate = duplicate;
  crash_count = std::min(crash_count, num_nodes);
  if (crash_count > 0) {
    std::uint64_t state = seed ^ 0xFA17B0A7DULL;
    Rng rng(splitmix64(state));
    auto victims = rng.permutation(num_nodes);
    victims.resize(crash_count);
    std::sort(victims.begin(), victims.end());
    plan.crashes.reserve(crash_count);
    for (const std::size_t v : victims) {
      plan.crashes.push_back({static_cast<port::NodeId>(v),
                              1 + rng.below(horizon == 0 ? 1 : horizon)});
    }
  }
  return plan;
}

namespace {

/// One probability token of a replay record: a whole finite decimal in
/// [0, 1], which NaN, "inf" and trailing bytes are not.
double parse_prob(const std::string& text, const std::string& key) {
  const auto value = parse_probability(text);
  if (!value) {
    throw InvalidArgument("replay codec: bad probability '" + text +
                          "' for '" + key + "'");
  }
  return *value;
}

/// One numeric token of a replay record, for a field of type T: an
/// unsigned decimal no larger than T holds, never truncated or wrapped
/// into it.
template <typename T = std::uint64_t>
T parse_u64(const std::string& text, const std::string& key) {
  const auto value = unsigned_decimal(text);
  if (!value) {
    throw InvalidArgument("replay codec: bad number '" + text + "' for '" +
                          key + "'");
  }
  if (*value > std::numeric_limits<T>::max()) {
    throw InvalidArgument("replay codec: '" + key + "' value " + text +
                          " exceeds its maximum " +
                          std::to_string(std::numeric_limits<T>::max()));
  }
  return static_cast<T>(*value);
}

/// The next value of the `key value...` record `values` holds after its
/// key; a record with none left is malformed.
std::string next_value(std::istream& values, const std::string& key) {
  std::string token;
  if (!(values >> token)) {
    throw InvalidArgument("replay codec: record '" + key +
                          "' is missing a value");
  }
  return token;
}

/// Applies the record `key` with its `values` to `a` when it is one of
/// encode_async_options' records; false for any other key.
bool read_async_record(const std::string& key, std::istream& values,
                       AsyncOptions& a) {
  const auto next = [&] { return next_value(values, key); };
  if (key == "synchronizer") {
    const auto token = next();
    if (token != "on" && token != "off") {
      throw InvalidArgument("replay codec: synchronizer takes on|off");
    }
    a.synchronizer = token == "on";
  } else if (key == "delay") {
    a.delay = parse_delay_model(next());
  } else if (key == "loss") {
    a.faults.loss = parse_prob(next(), key);
  } else if (key == "dup") {
    a.faults.duplicate = parse_prob(next(), key);
  } else if (key == "timeout") {
    a.round_timeout = parse_u64(next(), key);
  } else if (key == "seed") {
    a.seed = parse_u64(next(), key);
  } else if (key == "crash") {
    CrashEvent c;
    c.node = parse_u64<port::NodeId>(next(), key);
    c.time = parse_u64(next(), key);
    a.faults.crashes.push_back(c);
  } else if (key == "prioseed") {
    a.schedule.prio_seed = parse_u64(next(), key);
  } else if (key == "demote") {
    a.schedule.demote_ticks = parse_u64(next(), key);
  } else if (key == "change") {
    a.schedule.change_points.push_back(parse_u64(next(), key));
  } else if (key == "override") {
    DelayOverride o;
    o.port = parse_u64<std::uint32_t>(next(), key);
    o.ticks = parse_u64(next(), key);
    a.schedule.delay_overrides.push_back(o);
  } else {
    return false;
  }
  return true;
}

}  // namespace

std::optional<double> parse_probability(const std::string& text) {
  double value = 0.0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] =
      std::from_chars(text.data(), end, value, std::chars_format::general);
  if (ec != std::errc() || ptr != end || !(value >= 0.0 && value <= 1.0)) {
    return std::nullopt;
  }
  return value;
}

std::string encode_async_options(const AsyncOptions& a) {
  std::ostringstream os;
  os << "synchronizer " << (a.synchronizer ? "on" : "off") << '\n';
  os << "delay " << format_delay_model(a.delay) << '\n';
  // max_digits10 makes the probabilities round-trip bit-exactly through the
  // text form — a replay must reproduce every loss draw.
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "loss " << a.faults.loss << '\n';
  os << "dup " << a.faults.duplicate << '\n';
  os << "timeout " << a.round_timeout << '\n';
  os << "seed " << a.seed << '\n';
  for (const CrashEvent& c : a.faults.crashes) {
    os << "crash " << c.node << ' ' << c.time << '\n';
  }
  const Schedule& s = a.schedule;
  if (s.prio_seed != 0) os << "prioseed " << s.prio_seed << '\n';
  if (s.demote_ticks != 0) os << "demote " << s.demote_ticks << '\n';
  for (const std::uint64_t cp : s.change_points) os << "change " << cp << '\n';
  for (const DelayOverride& o : s.delay_overrides) {
    os << "override " << o.port << ' ' << o.ticks << '\n';
  }
  return os.str();
}

AsyncOptions decode_async_options(const std::string& text) {
  AsyncOptions options;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    std::istringstream values(line);
    std::string key;
    values >> key;
    if (!read_async_record(key, values, options)) {
      throw InvalidArgument("replay codec: unknown async record '" + key +
                            "'");
    }
  }
  return options;
}

std::string encode_replay(const ReplayFile& replay) {
  std::ostringstream os;
  os << "edsched " << kReplaySchemaVersion << '\n';
  os << "strategy " << replay.strategy << '\n';
  os << "algorithm " << replay.algorithm << '\n';
  os << "param " << replay.param << '\n';
  os << encode_async_options(replay.options);
  for (const auto& [name, value] : replay.metrics) {
    os << "metric " << name << ' ' << value << '\n';
  }
  os << "graph\n" << replay.graph_text;
  return os.str();
}

ReplayFile decode_replay(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  if (!std::getline(is, line)) {
    throw InvalidArgument("decode_replay: empty input");
  }
  {
    std::istringstream header(line);
    std::string magic;
    std::string version;
    header >> magic >> version;
    if (magic != "edsched" || version.empty()) {
      throw InvalidArgument(
          "decode_replay: not a replay file (expected an 'edsched " +
          std::to_string(kReplaySchemaVersion) + "' header)");
    }
    if (parse_u64(version, "edsched") != kReplaySchemaVersion) {
      throw InvalidArgument("decode_replay: schema mismatch: this build "
                            "speaks version " +
                            std::to_string(kReplaySchemaVersion) + ", got " +
                            version);
    }
  }
  ReplayFile replay;
  bool saw_graph = false;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line == "graph") {
      saw_graph = true;
      break;
    }
    std::istringstream values(line);
    std::string key;
    values >> key;
    const auto next = [&] { return next_value(values, key); };
    if (key == "strategy") {
      replay.strategy = next();
    } else if (key == "algorithm") {
      replay.algorithm = next();
    } else if (key == "param") {
      replay.param = parse_u64<std::uint32_t>(next(), key);
    } else if (key == "metric") {
      const auto name = next();
      replay.metrics.emplace_back(name, parse_u64(next(), key));
    } else if (!read_async_record(key, values, replay.options)) {
      throw InvalidArgument("decode_replay: unknown record '" + key + "'");
    }
  }
  if (!saw_graph) {
    throw InvalidArgument("decode_replay: missing 'graph' section");
  }
  std::ostringstream graph_text;
  graph_text << is.rdbuf();
  replay.graph_text = graph_text.str();
  if (replay.algorithm.empty()) {
    throw InvalidArgument("decode_replay: missing 'algorithm' record");
  }
  return replay;
}

std::string format_fault_log(const std::vector<FaultEvent>& log) {
  std::ostringstream os;
  for (const auto& e : log) {
    os << "t=" << e.time << ' ';
    switch (e.kind) {
      case FaultKind::kLoss:
        os << "loss (" << e.node << ',' << e.port << ") r" << e.round;
        break;
      case FaultKind::kDuplicate:
        os << "dup (" << e.node << ',' << e.port << ") r" << e.round;
        break;
      case FaultKind::kCrash:
        os << "crash node " << e.node;
        break;
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace eds::runtime
