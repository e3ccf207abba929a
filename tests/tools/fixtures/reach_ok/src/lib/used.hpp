// Fixture: included by bench/main.cpp.
#pragma once

namespace fixture {
int used();
}  // namespace fixture
