#include "runtime/threaded_ring.hpp"

namespace ssr::runtime {

void RuntimeParams::validate() const {
  SSR_REQUIRE(refresh_interval.count() > 0, "refresh interval must be positive");
}

}  // namespace ssr::runtime
