#include "runtime/fault_plan.hpp"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <sstream>

#include "util/assert.hpp"

namespace ssr::runtime {

namespace {

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

[[noreturn]] void parse_fail(const std::string& item, const std::string& why) {
  throw std::invalid_argument("bad fault-plan item \"" + item + "\": " + why);
}

double parse_probability(const std::string& item, const std::string& value) {
  char* end = nullptr;
  const double p = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0') parse_fail(item, "not a number");
  if (p < 0.0 || p > 1.0) parse_fail(item, "probability outside [0, 1]");
  return p;
}

std::size_t parse_index(const std::string& item, const std::string& value) {
  if (value == "*") return kAnyNode;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0')
    parse_fail(item, "not a node index: \"" + value + "\"");
  return static_cast<std::size_t>(v);
}

/// "250ms" / "1500us" / "1.5s" / "1500" (default microseconds).
double parse_time_us(const std::string& item, const std::string& value) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end == value.c_str()) parse_fail(item, "not a time: \"" + value + "\"");
  const std::string unit = trim(std::string(end));
  double scale = 1.0;
  if (unit == "" || unit == "us") {
    scale = 1.0;
  } else if (unit == "ms") {
    scale = 1000.0;
  } else if (unit == "s") {
    scale = 1000000.0;
  } else {
    parse_fail(item, "unknown time unit \"" + unit + "\"");
  }
  if (v < 0.0) parse_fail(item, "negative time");
  return v * scale;
}

/// The shortest decimal that parses back to @p v.
std::string format_shortest(double v) {
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, result.ptr);
}

/// Formats microseconds compactly (integral values without a fraction or
/// an exponent); round-trips through parse_time_us.
std::string format_us(double us) {
  if (us == static_cast<double>(static_cast<long long>(us))) {
    return std::to_string(static_cast<long long>(us)) + "us";
  }
  return format_shortest(us) + "us";
}

std::string format_index(std::size_t i) {
  return i == kAnyNode ? "*" : std::to_string(i);
}

FaultWindow parse_window(const std::string& item, FaultWindow::Kind kind,
                         const std::string& body) {
  FaultWindow w;
  w.kind = kind;
  // body = "T1-T2[:args]"
  const std::size_t colon = body.find(':');
  const std::string range = body.substr(0, colon);
  const std::size_t dash = range.find('-');
  if (dash == std::string::npos) parse_fail(item, "expected begin-end times");
  w.begin_us = parse_time_us(item, trim(range.substr(0, dash)));
  w.end_us = parse_time_us(item, trim(range.substr(dash + 1)));
  if (colon != std::string::npos) {
    for (const std::string& raw : split(body.substr(colon + 1), ',')) {
      const std::string arg = trim(raw);
      const std::size_t eq = arg.find('=');
      if (eq == std::string::npos) parse_fail(item, "argument without '='");
      const std::string key = trim(arg.substr(0, eq));
      const std::string value = trim(arg.substr(eq + 1));
      if (key == "link") {
        const std::size_t arrow = value.find("->");
        if (arrow == std::string::npos)
          parse_fail(item, "link selector needs \"from->to\"");
        w.from = parse_index(item, trim(value.substr(0, arrow)));
        w.to = parse_index(item, trim(value.substr(arrow + 2)));
      } else if (key == "node") {
        w.node = parse_index(item, value);
      } else if (key == "cut") {
        const std::size_t slash = value.find('/');
        if (slash == std::string::npos)
          parse_fail(item, "cut selector needs \"a/b\"");
        w.cut_a = parse_index(item, trim(value.substr(0, slash)));
        w.cut_b = parse_index(item, trim(value.substr(slash + 1)));
        if (w.cut_a == w.cut_b) {
          parse_fail(item, "cut needs two different edges: cutting one edge "
                           "twice partitions nothing");
        }
      } else {
        parse_fail(item, "unknown argument \"" + key + "\"");
      }
    }
  }
  return w;
}

}  // namespace

const char* to_string(FaultWindow::Kind kind) {
  switch (kind) {
    case FaultWindow::Kind::kBurstLoss:
      return "burst";
    case FaultWindow::Kind::kLinkDown:
      return "linkdown";
    case FaultWindow::Kind::kPartition:
      return "partition";
    case FaultWindow::Kind::kNodePause:
      return "pause";
    case FaultWindow::Kind::kCrashRestart:
      return "crash";
  }
  return "?";
}

void FaultPlan::validate(std::size_t n) const {
  auto check_prob = [](double p, const char* what) {
    SSR_REQUIRE(p >= 0.0 && p < 1.0,
                std::string(what) + " probability must be in [0, 1)");
  };
  check_prob(probabilities.drop, "drop");
  check_prob(probabilities.duplicate, "duplicate");
  check_prob(probabilities.reorder, "reorder");
  check_prob(probabilities.corrupt, "corrupt");
  SSR_REQUIRE(probabilities.corrupt_bits >= 1,
              "corrupt-bits must be at least 1");
  auto check_node = [n](std::size_t v, const char* what) {
    SSR_REQUIRE(v == kAnyNode || v < n,
                std::string(what) + " index out of range for the ring");
  };
  for (const FaultWindow& w : windows) {
    SSR_REQUIRE(w.begin_us >= 0.0 && w.end_us > w.begin_us,
                "fault window needs 0 <= begin < end");
    switch (w.kind) {
      case FaultWindow::Kind::kBurstLoss:
      case FaultWindow::Kind::kLinkDown:
        check_node(w.from, "link-from");
        check_node(w.to, "link-to");
        break;
      case FaultWindow::Kind::kPartition:
        SSR_REQUIRE(w.cut_a < n && w.cut_b < n,
                    "partition cut index out of range for the ring");
        SSR_REQUIRE(w.cut_a != w.cut_b,
                    "partition needs cut=a/b with two different edges");
        break;
      case FaultWindow::Kind::kNodePause:
      case FaultWindow::Kind::kCrashRestart:
        SSR_REQUIRE(w.node != kAnyNode && w.node < n,
                    "pause/crash window needs node=<index> in range");
        break;
    }
  }
}

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  for (const std::string& raw : split(spec, ';')) {
    const std::string item = trim(raw);
    if (item.empty()) continue;
    const std::size_t at = item.find('@');
    const std::size_t eq = item.find('=');
    if (at != std::string::npos && (eq == std::string::npos || at < eq)) {
      const std::string kind = trim(item.substr(0, at));
      const std::string body = trim(item.substr(at + 1));
      if (kind == "burst") {
        plan.windows.push_back(
            parse_window(item, FaultWindow::Kind::kBurstLoss, body));
      } else if (kind == "linkdown") {
        plan.windows.push_back(
            parse_window(item, FaultWindow::Kind::kLinkDown, body));
      } else if (kind == "partition") {
        plan.windows.push_back(
            parse_window(item, FaultWindow::Kind::kPartition, body));
      } else if (kind == "pause") {
        plan.windows.push_back(
            parse_window(item, FaultWindow::Kind::kNodePause, body));
      } else if (kind == "crash") {
        plan.windows.push_back(
            parse_window(item, FaultWindow::Kind::kCrashRestart, body));
      } else {
        parse_fail(item, "unknown window kind \"" + kind + "\"");
      }
      continue;
    }
    if (eq == std::string::npos) parse_fail(item, "expected key=value or kind@window");
    const std::string key = trim(item.substr(0, eq));
    const std::string value = trim(item.substr(eq + 1));
    if (key == "drop") {
      plan.probabilities.drop = parse_probability(item, value);
    } else if (key == "dup" || key == "duplicate") {
      plan.probabilities.duplicate = parse_probability(item, value);
    } else if (key == "reorder") {
      plan.probabilities.reorder = parse_probability(item, value);
    } else if (key == "corrupt") {
      plan.probabilities.corrupt = parse_probability(item, value);
    } else if (key == "corrupt-bits" || key == "corrupt_bits") {
      char* end = nullptr;
      const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || v == 0)
        parse_fail(item, "corrupt-bits needs a positive integer");
      plan.probabilities.corrupt_bits = static_cast<std::size_t>(v);
    } else {
      parse_fail(item, "unknown key \"" + key + "\"");
    }
  }
  return plan;
}

std::string FaultPlan::describe() const {
  std::ostringstream os;
  const char* sep = "";
  auto emit = [&os, &sep](const std::string& item) {
    os << sep << item;
    sep = ";";
  };
  const FaultProbabilities& p = probabilities;
  if (p.drop > 0.0) emit("drop=" + format_shortest(p.drop));
  if (p.duplicate > 0.0) emit("dup=" + format_shortest(p.duplicate));
  if (p.reorder > 0.0) emit("reorder=" + format_shortest(p.reorder));
  if (p.corrupt > 0.0) {
    emit("corrupt=" + format_shortest(p.corrupt));
    if (p.corrupt_bits != 1)
      emit("corrupt-bits=" + std::to_string(p.corrupt_bits));
  }
  for (const FaultWindow& w : windows) {
    std::string item = std::string(to_string(w.kind)) + "@" +
                       format_us(w.begin_us) + "-" + format_us(w.end_us);
    switch (w.kind) {
      case FaultWindow::Kind::kBurstLoss:
      case FaultWindow::Kind::kLinkDown:
        if (w.from != kAnyNode || w.to != kAnyNode)
          item += ":link=" + format_index(w.from) + "->" + format_index(w.to);
        break;
      case FaultWindow::Kind::kPartition:
        item += ":cut=" + std::to_string(w.cut_a) + "/" +
                std::to_string(w.cut_b);
        break;
      case FaultWindow::Kind::kNodePause:
      case FaultWindow::Kind::kCrashRestart:
        item += ":node=" + format_index(w.node);
        break;
    }
    emit(item);
  }
  return os.str();
}

Json FaultPlan::to_json() const {
  Json probs = Json::object();
  probs.set("drop", probabilities.drop);
  probs.set("duplicate", probabilities.duplicate);
  probs.set("reorder", probabilities.reorder);
  probs.set("corrupt", probabilities.corrupt);
  probs.set("corrupt_bits", probabilities.corrupt_bits);
  Json ws = Json::array();
  for (const FaultWindow& w : windows) {
    Json j = Json::object();
    j.set("kind", to_string(w.kind));
    j.set("begin_us", w.begin_us);
    j.set("end_us", w.end_us);
    switch (w.kind) {
      case FaultWindow::Kind::kBurstLoss:
      case FaultWindow::Kind::kLinkDown:
        j.set("from", w.from == kAnyNode ? Json("*") : Json(w.from));
        j.set("to", w.to == kAnyNode ? Json("*") : Json(w.to));
        break;
      case FaultWindow::Kind::kPartition:
        j.set("cut_a", w.cut_a);
        j.set("cut_b", w.cut_b);
        break;
      case FaultWindow::Kind::kNodePause:
      case FaultWindow::Kind::kCrashRestart:
        j.set("node", w.node);
        break;
    }
    ws.push(std::move(j));
  }
  Json out = Json::object();
  out.set("probabilities", std::move(probs));
  out.set("windows", std::move(ws));
  return out;
}

FaultInjector::FaultInjector(FaultPlan plan, std::size_t n)
    : plan_(std::move(plan)), n_(n), crash_fired_(plan_.windows.size(), 0) {
  SSR_REQUIRE(n >= 2, "fault injector needs a ring of at least two nodes");
  plan_.validate(n);
}

bool FaultInjector::frame_blocked(const FaultWindow& w, std::size_t from,
                                  std::size_t to) const {
  switch (w.kind) {
    case FaultWindow::Kind::kBurstLoss:
    case FaultWindow::Kind::kLinkDown:
      return (w.from == kAnyNode || w.from == from) &&
             (w.to == kAnyNode || w.to == to);
    case FaultWindow::Kind::kPartition: {
      auto crosses = [this, from, to](std::size_t cut) {
        const std::size_t succ = (cut + 1) % n_;
        return (from == cut && to == succ) || (from == succ && to == cut);
      };
      return crosses(w.cut_a) || crosses(w.cut_b);
    }
    case FaultWindow::Kind::kNodePause:
    case FaultWindow::Kind::kCrashRestart:
      // A down node's radio is off: frames to it are lost, and (defensive;
      // a down node does not call on_send) frames from it too.
      return w.node == from || w.node == to;
  }
  return false;
}

FrameFate FaultInjector::on_send(std::size_t from, std::size_t to,
                                 double now_us, Rng& rng) const {
  FrameFate fate;
  for (const FaultWindow& w : plan_.windows) {
    if (w.active(now_us) && frame_blocked(w, from, to)) {
      fate.drop = true;
      fate.window_drop = true;
      return fate;  // no randomness consumed
    }
  }
  const FaultProbabilities& p = plan_.probabilities;
  if (rng.bernoulli(p.drop)) {
    fate.drop = true;
    return fate;
  }
  if (rng.bernoulli(p.corrupt)) fate.corrupt_bits = p.corrupt_bits;
  if (rng.bernoulli(p.duplicate)) fate.duplicate = true;
  if (rng.bernoulli(p.reorder)) fate.reorder = true;
  return fate;
}

bool FaultInjector::node_down(std::size_t node, double now_us) const {
  for (const FaultWindow& w : plan_.windows) {
    if ((w.kind == FaultWindow::Kind::kNodePause ||
         w.kind == FaultWindow::Kind::kCrashRestart) &&
        w.node == node && w.active(now_us)) {
      return true;
    }
  }
  return false;
}

bool FaultInjector::take_crash(std::size_t node, double now_us) {
  for (std::size_t i = 0; i < plan_.windows.size(); ++i) {
    const FaultWindow& w = plan_.windows[i];
    if (w.kind == FaultWindow::Kind::kCrashRestart && w.node == node &&
        now_us >= w.begin_us && crash_fired_[i] == 0) {
      crash_fired_[i] = 1;
      return true;
    }
  }
  return false;
}

void FaultInjector::rearm() {
  for (auto& fired : crash_fired_) fired = 0;
}

}  // namespace ssr::runtime
