// Fixture: reached only through used.cpp, the implementation of a reached
// header.
#pragma once

namespace fixture {
inline int detail() { return 0; }
}  // namespace fixture
