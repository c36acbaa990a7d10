// lint-as: sim/chip.cpp
// Fixture: per-object memo members, static member functions, constant
// function-local tables and static_cast must produce zero findings.
// A comment that says static or thread_local is not code either.
#include <array>
#include <cstdint>

namespace ppep::sim {

namespace {
static int file_scope_counter = 0; // internal linkage, not a tick cache
} // namespace

class Memo
{
  public:
    static Memo make() { return Memo{}; }

    double lookup(std::uint64_t key)
    {
        static constexpr std::array<double, 3> kTable{0.5, 1.0, 1.5};
        static const double kFloor = 0.5;
        if (key != key_) {
            key_ = key;
            value_ = kTable[static_cast<std::size_t>(key % 3)] + kFloor;
        }
        const char *label = "static thread_local";
        (void)label;
        return value_;
    }

  private:
    struct Entry
    {
        static constexpr int kWidth = 4;
    };
    std::uint64_t key_ = 0;
    double value_ = 0.0;
};

} // namespace ppep::sim
