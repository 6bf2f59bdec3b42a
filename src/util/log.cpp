// detlint:allow(static-local) — process-wide logger singleton
// (Meyers `instance()`), shared diagnostics, not replica state.
#include "util/log.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>

namespace eternal::util {

Logger& Logger::instance() {
  static Logger logger;
  return logger;
}

namespace {
std::optional<LogLevel> parse_level(const std::string& name) {
  if (name == "trace") return LogLevel::Trace;
  if (name == "debug") return LogLevel::Debug;
  if (name == "info") return LogLevel::Info;
  if (name == "warn") return LogLevel::Warn;
  if (name == "error") return LogLevel::Error;
  if (name == "off") return LogLevel::Off;
  return std::nullopt;
}
}  // namespace

Logger::Logger() {
  if (const char* spec = std::getenv("ETERNAL_LOG_LEVEL")) {
    configure(spec);
  }
}

void Logger::recompute_min() noexcept {
  LogLevel min = level_;
  for (const auto& [component, lvl] : component_levels_) {
    min = std::min(min, lvl);
  }
  min_level_ = min;
}

bool Logger::enabled_for(LogLevel lvl,
                         const std::string& component) const noexcept {
  auto it = component_levels_.find(component);
  return lvl >= (it != component_levels_.end() ? it->second : level_);
}

void Logger::set_component_level(const std::string& component, LogLevel lvl) {
  component_levels_[component] = lvl;
  recompute_min();
}

void Logger::clear_component_levels() {
  component_levels_.clear();
  recompute_min();
}

bool Logger::configure(const std::string& spec) {
  // Validate the whole spec before applying any of it.
  LogLevel def = level_;
  std::map<std::string, LogLevel> overrides;
  std::size_t pos = 0;
  bool first = true;
  while (pos <= spec.size()) {
    const std::size_t comma = std::min(spec.find(',', pos), spec.size());
    const std::string item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) {
      if (first) return false;
      first = false;
      continue;
    }
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      auto lvl = parse_level(item);
      if (!lvl || !first) return false;  // bare level only leads the spec
      def = *lvl;
    } else {
      const std::string component = item.substr(0, eq);
      auto lvl = parse_level(item.substr(eq + 1));
      if (component.empty() || !lvl) return false;
      overrides[component] = *lvl;
    }
    first = false;
  }
  level_ = def;
  component_levels_ = std::move(overrides);
  recompute_min();
  return true;
}

namespace {
const char* level_name(LogLevel lvl) {
  switch (lvl) {
    case LogLevel::Trace: return "TRACE";
    case LogLevel::Debug: return "DEBUG";
    case LogLevel::Info:  return "INFO ";
    case LogLevel::Warn:  return "WARN ";
    case LogLevel::Error: return "ERROR";
    case LogLevel::Off:   return "OFF  ";
  }
  return "?";
}
}  // namespace

void Logger::drop_time_source(const void* owner) noexcept {
  std::erase_if(time_sources_,
                [owner](const auto& src) { return src.first == owner; });
}

void Logger::write(LogLevel lvl, const std::string& component,
                   const std::string& msg) {
  if (const std::optional<std::uint64_t> ts = timestamp()) {
    const std::uint64_t us = *ts;
    std::fprintf(stderr, "[%9llu.%06llu] %s %-10s %s\n",
                 static_cast<unsigned long long>(us / 1000000),
                 static_cast<unsigned long long>(us % 1000000),
                 level_name(lvl), component.c_str(), msg.c_str());
  } else {
    std::fprintf(stderr, "[         ] %s %-10s %s\n", level_name(lvl),
                 component.c_str(), msg.c_str());
  }
}

}  // namespace eternal::util
