#include "core/cli.hpp"

#include <algorithm>
#include <ostream>

namespace ddpm::core {

namespace {

/// The non-empty comma-separated items of `text`.
std::vector<std::string_view> split(std::string_view text) {
  std::vector<std::string_view> items;
  while (!text.empty()) {
    const std::size_t end = std::min(text.find(','), text.size());
    if (end > 0) items.push_back(text.substr(0, end));
    text.remove_prefix(std::min(end + 1, text.size()));
  }
  return items;
}

}  // namespace

void Cli::declare(std::string name, std::string meta, std::string help,
                  const std::string& shown_default, Setter set) {
  if (!shown_default.empty()) help += " (default " + shown_default + ")";
  flags_.push_back(
      {std::move(name), std::move(meta), std::move(help), std::move(set)});
}

std::invalid_argument Cli::bad_value(const std::string& flag,
                                     std::string_view value,
                                     const std::string& expected) {
  return std::invalid_argument(flag + ": invalid value '" + std::string(value) +
                               "' (expected " + expected + ")");
}

void Cli::list(std::string name, std::vector<std::string>& target,
               std::string meta, std::string help) {
  std::string shown;
  for (const auto& item : target) {
    if (!shown.empty()) shown += ',';
    shown += item;
  }
  declare(name, meta, help, shown, [&target](std::string_view value) {
    const auto items = split(value);
    target.assign(items.begin(), items.end());
  });
}

void Cli::list(std::string name, std::vector<double>& target, std::string meta,
               std::string help, double min) {
  std::string shown;
  for (double x : target) {
    if (!shown.empty()) shown += ',';
    shown += format_number(x);
  }
  declare(name, meta, help, shown, [&target, name, min](std::string_view text) {
    target.clear();
    for (const auto item : split(text)) {
      target.push_back(
          checked(name, item, min, std::numeric_limits<double>::max()));
    }
  });
}

bool Cli::parse(int argc, const char* const* argv, std::ostream& help_out) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_out << help();
      return false;
    }
    const auto flag =
        std::find_if(flags_.begin(), flags_.end(),
                     [&](const Flag& f) { return f.name == arg; });
    if (flag == flags_.end()) {
      throw std::invalid_argument("unknown option: " + std::string(arg) +
                                  " (try --help)");
    }
    if (flag->meta.empty()) {  // a toggle takes no value
      flag->set("");
    } else if (i + 1 < argc) {
      flag->set(argv[++i]);
    } else {
      throw std::invalid_argument(flag->name + " needs a value");
    }
  }
  return true;
}

std::string Cli::help() const {
  std::size_t width = 0;
  for (const Flag& f : flags_) {
    width = std::max(width, f.name.size() + f.meta.size() + 3);
  }
  std::string out = summary_ + "\n\n";
  for (const Flag& f : flags_) {
    std::string left = f.name + (f.meta.empty() ? "" : " " + f.meta);
    left.resize(width, ' ');
    out += "  " + left + f.help + '\n';
  }
  return out;
}

}  // namespace ddpm::core
