// Error handling: a single exception type plus check macros.
//
// Library code validates its preconditions with PARFACT_CHECK (always on) and
// uses PARFACT_DCHECK for expensive internal invariants, which run whenever
// NDEBUG is undefined — including the default Release flags, which do not
// define it.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace parfact {

/// Exception thrown on any precondition or invariant violation.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {

[[noreturn]] inline void fail(const char* cond, const char* file, int line,
                              const std::string& msg) {
  std::ostringstream os;
  os << file << ":" << line << ": check failed: " << cond;
  if (!msg.empty()) os << " — " << msg;
  throw Error(os.str());
}

}  // namespace detail
}  // namespace parfact

/// Always-on check; throws parfact::Error with location on failure.
#define PARFACT_CHECK(cond)                                              \
  do {                                                                   \
    if (!(cond)) ::parfact::detail::fail(#cond, __FILE__, __LINE__, ""); \
  } while (false)

/// Always-on check with a streamed message payload.
#define PARFACT_CHECK_MSG(cond, msg)                                \
  do {                                                              \
    if (!(cond)) {                                                  \
      std::ostringstream parfact_os_;                               \
      parfact_os_ << msg;                                           \
      ::parfact::detail::fail(#cond, __FILE__, __LINE__,            \
                              parfact_os_.str());                   \
    }                                                               \
  } while (false)

#ifdef NDEBUG
#define PARFACT_DCHECK(cond) \
  do {                       \
  } while (false)
#else
#define PARFACT_DCHECK(cond) PARFACT_CHECK(cond)
#endif
