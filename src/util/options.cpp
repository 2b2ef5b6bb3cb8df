#include "util/options.hpp"

#include <cstdio>
#include <exception>
#include <sstream>

#include "util/error.hpp"
#include "util/string_util.hpp"

namespace deepphi::util {

namespace {

std::string base_name(const char* path) {
  if (path == nullptr) return "";
  const std::string p = path;
  const auto slash = p.find_last_of('/');
  return slash == std::string::npos ? p : p.substr(slash + 1);
}

}  // namespace

Options Options::parse(int argc, const char* const* argv) {
  Options opts;
  if (argc > 0) opts.program_ = base_name(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!starts_with(arg, "--")) {
      opts.positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq == std::string::npos) {
      DEEPPHI_CHECK_MSG(!body.empty(), "empty flag '--'");
      // "--name value" form: a bare flag followed by a non-flag token takes
      // that token as its value; a bare flag at the end (or before another
      // --flag) is boolean true.
      if (i + 1 < argc && !starts_with(argv[i + 1], "--")) {
        opts.values_[body] = argv[++i];
      } else {
        opts.values_[body] = "true";
      }
      opts.repeated_[body].push_back(opts.values_[body]);
    } else {
      const std::string key = body.substr(0, eq);
      DEEPPHI_CHECK_MSG(!key.empty(), "flag with empty name: '" << arg << "'");
      opts.values_[key] = body.substr(eq + 1);
      opts.repeated_[key].push_back(opts.values_[key]);
    }
  }
  return opts;
}

Options& Options::declare(const std::string& name, const std::string& help,
                          const std::string& default_value) {
  decls_[name] = Decl{help, default_value};
  return *this;
}

void Options::validate() const {
  if (has("help")) throw HelpRequested(help());
  for (const auto& [key, value] : values_) {
    (void)value;
    DEEPPHI_CHECK_MSG(decls_.count(key) != 0, "unknown flag --" << key);
  }
}

bool Options::has(const std::string& name) const { return values_.count(name) != 0; }

std::string Options::get_string(const std::string& name) const {
  if (auto it = values_.find(name); it != values_.end()) return it->second;
  if (auto it = decls_.find(name); it != decls_.end()) return it->second.default_value;
  throw Error("option --" + name + " was neither supplied nor declared with a default");
}

long long Options::get_int(const std::string& name) const {
  return parse_int(get_string(name));
}

double Options::get_double(const std::string& name) const {
  return parse_double(get_string(name));
}

bool Options::get_bool(const std::string& name) const {
  return parse_bool(get_string(name));
}

std::vector<std::string> Options::get_repeated(const std::string& name) const {
  if (auto it = repeated_.find(name); it != repeated_.end()) return it->second;
  return {};
}

std::string Options::help() const {
  std::ostringstream os;
  os << "usage: " << program_ << " [--flag=value ...]\n";
  for (const auto& [name, decl] : decls_) {
    os << "  --" << name;
    if (!decl.default_value.empty()) os << " (default: " << decl.default_value << ")";
    os << "\n      " << decl.help << "\n";
  }
  os << "  --help\n      print this usage and exit\n";
  return os.str();
}

int run_main(int argc, char** argv, int (*body)(int, char**)) {
  const std::string program = base_name(argc > 0 ? argv[0] : nullptr);
  try {
    return body(argc, argv);
  } catch (const HelpRequested& usage) {
    std::fputs(usage.what(), stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\nrun with --help for usage\n",
                 program.c_str(), e.what());
    return 1;
  }
}

}  // namespace deepphi::util
