// Fixture: included by bench/main.cpp.
#pragma once

namespace fixture {
inline int used() { return 0; }
}  // namespace fixture
