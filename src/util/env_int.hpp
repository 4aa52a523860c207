// Strict integer parsing for the SUBSONIC_* environment variables.  Every
// integer knob reads through here, so "2x" is an error that names its
// variable instead of reading as 2, and a value past INT_MAX is an error
// instead of undefined behaviour.
#pragma once

#include <string>

namespace subsonic {

/// Parses all of `text` as a base-10 integer in [lo, hi].  Throws
/// std::invalid_argument naming `name` when the text is empty, holds
/// anything besides the number (leading space, "2x"), or lies outside the
/// range, an overflow of long included.
int parse_int(const std::string& name, const std::string& text, int lo,
              int hi);

/// The environment variable `name` parsed by parse_int, or `fallback`
/// when it is unset or empty.
int env_int(const char* name, int fallback, int lo, int hi);

}  // namespace subsonic
