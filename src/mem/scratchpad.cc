#include "mem/scratchpad.hh"

#include "sim/logging.hh"

namespace ts
{

Scratchpad::Scratchpad(std::string name, const ScratchpadConfig& cfg)
    : Ticked(std::move(name)), cfg_(cfg), data_(cfg.sizeWords, 0)
{
    if (cfg_.sizeWords == 0 || cfg_.portsPerCycle == 0)
        fatal("scratchpad needs nonzero size and ports");
}

bool
Scratchpad::tryAccess(Tick now)
{
    if (budgetCycle_ != now) {
        budgetCycle_ = now;
        budgetLeft_ = cfg_.portsPerCycle;
    }
    if (budgetLeft_ == 0) {
        ++portStalls_;
        return false;
    }
    --budgetLeft_;
    ++accesses_;
    return true;
}

Word
Scratchpad::read(std::size_t wordOffset) const
{
    TS_ASSERT(wordOffset < data_.size(),
              name(), " read out of bounds @", wordOffset);
    return data_[wordOffset];
}

void
Scratchpad::write(std::size_t wordOffset, Word value)
{
    TS_ASSERT(wordOffset < data_.size(),
              name(), " write out of bounds @", wordOffset);
    data_[wordOffset] = value;
}

std::size_t
Scratchpad::alloc(std::size_t words)
{
    if (brk_ + words > data_.size()) {
        fatal(name(), ": scratchpad exhausted (", brk_, " + ", words,
              " > ", data_.size(), " words)");
    }
    const std::size_t base = brk_;
    brk_ += words;
    return base;
}

void
Scratchpad::reportStats(StatSet& stats) const
{
    stats.set(name() + ".accesses", static_cast<double>(accesses_));
    stats.set(name() + ".portStalls", static_cast<double>(portStalls_));
}

} // namespace ts
