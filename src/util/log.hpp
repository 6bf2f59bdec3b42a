// Minimal leveled logger.
//
// The simulator installs a time source so log lines carry *simulated* time,
// which is what makes traces of a distributed execution readable. Logging is
// off by default (Level::Off) so tests and benches stay quiet; integration
// debugging flips the level — programmatically, or via the environment:
//
//   ETERNAL_LOG_LEVEL=info               everything at info and above
//   ETERNAL_LOG_LEVEL=warn,totem=debug   per-component overrides
//
// The spec is `<level>[,<component>=<level>]...` with levels trace, debug,
// info, warn, error, off; it is read once at first Logger use.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace eternal::util {

enum class LogLevel : int { Trace = 0, Debug, Info, Warn, Error, Off };

class Logger {
 public:
  static Logger& instance();

  void set_level(LogLevel lvl) noexcept {
    level_ = lvl;
    recompute_min();
  }
  LogLevel level() const noexcept { return level_; }

  /// Fast gate: true if *any* component could log at `lvl`. Call sites check
  /// this first so a silent logger costs one comparison; the write path then
  /// applies the per-component level.
  bool enabled(LogLevel lvl) const noexcept { return lvl >= min_level_; }
  /// Effective check for one component: its override, else the default.
  bool enabled_for(LogLevel lvl, const std::string& component) const noexcept;

  /// Override the level for one component (e.g. "totem", "engine").
  void set_component_level(const std::string& component, LogLevel lvl);
  void clear_component_levels();

  /// Parse `<level>[,<component>=<level>]...`. Unknown level names leave the
  /// logger untouched and return false.
  bool configure(const std::string& spec);

  /// Install `owner`'s source for timestamps (simulated microseconds).
  /// Sources stack: lines carry the newest installed source still present,
  /// so a simulation that ends inside another's lifetime hands the clock
  /// back to the outer one instead of leaving the logger without a clock.
  void push_time_source(const void* owner,
                        std::function<std::uint64_t()> src) {
    time_sources_.push_back({owner, std::move(src)});
  }
  /// Remove `owner`'s source, wherever it sits in the stack.
  void drop_time_source(const void* owner) noexcept;
  /// The current source's reading; nullopt when no source is installed.
  std::optional<std::uint64_t> timestamp() const {
    if (time_sources_.empty()) return std::nullopt;
    return time_sources_.back().second();
  }

  void write(LogLevel lvl, const std::string& component, const std::string& msg);

 private:
  Logger();  // applies ETERNAL_LOG_LEVEL if set
  void recompute_min() noexcept;

  LogLevel level_ = LogLevel::Off;
  LogLevel min_level_ = LogLevel::Off;  // min over default + overrides
  std::map<std::string, LogLevel> component_levels_;
  std::vector<std::pair<const void*, std::function<std::uint64_t()>>>
      time_sources_;
};

namespace detail {
inline void format_into(std::ostringstream&) {}
template <typename T, typename... Rest>
void format_into(std::ostringstream& os, const T& v, const Rest&... rest) {
  os << v;
  format_into(os, rest...);
}
}  // namespace detail

template <typename... Args>
void log(LogLevel lvl, const std::string& component, const Args&... args) {
  Logger& lg = Logger::instance();
  if (!lg.enabled_for(lvl, component)) return;
  std::ostringstream os;
  detail::format_into(os, args...);
  lg.write(lvl, component, os.str());
}

#define ETERNAL_LOG(lvl, component, ...)                                    \
  do {                                                                      \
    if (::eternal::util::Logger::instance().enabled(lvl)) {                 \
      ::eternal::util::log((lvl), (component), __VA_ARGS__);                \
    }                                                                       \
  } while (0)

#define ETERNAL_TRACE(component, ...) \
  ETERNAL_LOG(::eternal::util::LogLevel::Trace, component, __VA_ARGS__)
#define ETERNAL_DEBUG(component, ...) \
  ETERNAL_LOG(::eternal::util::LogLevel::Debug, component, __VA_ARGS__)
#define ETERNAL_INFO(component, ...) \
  ETERNAL_LOG(::eternal::util::LogLevel::Info, component, __VA_ARGS__)
#define ETERNAL_WARN(component, ...) \
  ETERNAL_LOG(::eternal::util::LogLevel::Warn, component, __VA_ARGS__)
#define ETERNAL_ERROR(component, ...) \
  ETERNAL_LOG(::eternal::util::LogLevel::Error, component, __VA_ARGS__)

}  // namespace eternal::util
