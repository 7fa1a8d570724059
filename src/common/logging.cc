#include "logging.hh"

#include <cstdio>

namespace xfm
{
namespace detail
{

void
emit(const char *level, const std::string &msg)
{
    std::fprintf(stderr, "%s: %s\n", level, msg.c_str());
}

} // namespace detail
} // namespace xfm
