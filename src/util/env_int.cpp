#include "src/util/env_int.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <stdexcept>

namespace subsonic {

int parse_int(const std::string& name, const std::string& text, int lo,
              int hi) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text.c_str(), &end, 10);
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])) ||
      *end != '\0' || errno == ERANGE || v < lo || v > hi)
    throw std::invalid_argument(name + " must be an integer in [" +
                                std::to_string(lo) + ", " +
                                std::to_string(hi) + "], got \"" + text +
                                '"');
  return static_cast<int>(v);
}

int env_int(const char* name, int fallback, int lo, int hi) {
  const char* text = std::getenv(name);
  if (!text || !*text) return fallback;
  return parse_int(name, text, lo, hi);
}

}  // namespace subsonic
