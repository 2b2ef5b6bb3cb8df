// Tiny --key=value command-line option parser used by benches, examples and
// tools. Not a general argv framework: flags are always of the form
// --name=value or --name (boolean true); unknown flags throw so experiments
// never silently ignore a typo'd parameter. Every program wraps its body in
// run_main(), the one place that turns --help into usage on stdout (exit 0)
// and any thrown error into a message on stderr (exit 1).
#pragma once

#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace deepphi::util {

/// Thrown by Options::validate() when --help was supplied; what() is the
/// usage text. run_main() prints it and exits 0.
class HelpRequested : public std::runtime_error {
 public:
  explicit HelpRequested(const std::string& usage)
      : std::runtime_error(usage) {}
};

class Options {
 public:
  Options() = default;

  /// Parses argv. Throws util::Error on malformed arguments. Positional
  /// arguments (no leading --) are collected in positional(); argv[0]'s base
  /// name is the program name help() prints.
  static Options parse(int argc, const char* const* argv);

  /// Declares a known flag so validate() can reject unknown ones, and so
  /// help() can print it. --help is always known.
  Options& declare(const std::string& name, const std::string& help,
                   const std::string& default_value = "");

  /// Call after the last declare(). Throws HelpRequested (carrying help())
  /// when --help was supplied, else util::Error if an undeclared flag was.
  void validate() const;

  bool has(const std::string& name) const;

  std::string get_string(const std::string& name) const;
  long long get_int(const std::string& name) const;
  double get_double(const std::string& name) const;
  bool get_bool(const std::string& name) const;

  /// Every value supplied for a repeatable flag, in argv order (get_string
  /// returns the last one). Empty when the flag was never supplied.
  std::vector<std::string> get_repeated(const std::string& name) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Formatted help text for declared flags, headed by argv[0]'s base name.
  std::string help() const;

 private:
  struct Decl {
    std::string help;
    std::string default_value;
  };
  std::map<std::string, std::string> values_;
  // Flags may repeat (e.g. one --model per served model); every occurrence
  // is kept here in argv order while values_ holds the last one.
  std::map<std::string, std::vector<std::string>> repeated_;
  std::map<std::string, Decl> decls_;
  std::vector<std::string> positional_;
  std::string program_;
};

/// The main() of every bench, example and tool:
///   int main(int argc, char** argv) { return util::run_main(argc, argv, run); }
/// Returns body's status. HelpRequested prints the usage to stdout and
/// returns 0; any other exception prints "<program>: <message>" and
/// "run with --help for usage" to stderr and returns 1 — never an abort.
int run_main(int argc, char** argv, int (*body)(int, char**));

}  // namespace deepphi::util
