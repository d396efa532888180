#include "stream/fetcher.hh"

namespace ts
{

void
WordFetcher::pump(Tick now)
{
    if (needFetch_ == 0)
        return; // every slot is Requested or Ready: nothing to issue

    if (space_ == Space::Spm) {
        TS_ASSERT(spm_ != nullptr, "Spm fetch without a scratchpad");
        std::uint32_t issued = 0;
        for (std::size_t i = 0; i < win_.size(); ++i) {
            Slot& slot = win_[i];
            if (issued >= cfg_.issuesPerCycle || needFetch_ == 0)
                break;
            if (slot.st != St::NeedFetch)
                continue;
            if (!spm_->tryAccess(now))
                break;
            slot.val = spm_->read(slot.addr);
            slot.st = St::Ready;
            --needFetch_;
            ++spmReads_;
            ++issued;
        }
        return;
    }

    if (landing_) {
        // Spatially forwarded range: the words already landed in the
        // lane's scratchpad landing zone, so serve them at SPM speed
        // from the functional image.  No DRAM line requests; count
        // the distinct lines a non-forwarded run would have fetched.
        std::uint32_t issued = 0;
        for (std::size_t i = 0; i < win_.size(); ++i) {
            Slot& slot = win_[i];
            if (issued >= cfg_.issuesPerCycle || needFetch_ == 0)
                break;
            if (slot.st != St::NeedFetch)
                continue;
            slot.val = img_.readWord(slot.addr);
            slot.st = St::Ready;
            --needFetch_;
            ++landingWords_;
            const Addr line = lineAlign(slot.addr);
            if (line != lastLandingLine_) {
                lastLandingLine_ = line;
                ++landingLines_;
            }
            ++issued;
        }
        return;
    }

    TS_ASSERT(mem_ != nullptr, "Dram fetch without a memory port");
    refused_ = false;
    std::uint32_t issued = 0;
    // Slots before the scan position hold no NeedFetch word, so each
    // issue resumes where the previous one found its line.
    std::size_t first = 0;
    while (needFetch_ > 0 && issued < cfg_.issuesPerCycle &&
           inflight_.size() < cfg_.maxOutstanding) {
        while (win_[first].st != St::NeedFetch)
            ++first;
        const Addr line = lineAlign(win_[first].addr);
        if (!mem_->requestLine(line, *this, gen_)) {
            refused_ = true;
            break;
        }

        // Coalesce: every queued word on this line rides along.
        std::uint32_t words = 0;
        for (std::size_t i = first; i < win_.size(); ++i) {
            Slot& slot = win_[i];
            if (slot.st == St::NeedFetch && lineAlign(slot.addr) == line) {
                slot.st = St::Requested;
                ++words;
            }
        }
        needFetch_ -= words;
        inflight_.push_back(Inflight{line, words});
        ++linesRequested_;
        ++issued;
    }
}

void
WordFetcher::lineArrived(Addr line, std::uint64_t cookie)
{
    TS_ASSERT(cookie == gen_, "line response from a prior stream");
    Inflight* f = findInflight(line);
    TS_ASSERT(f != nullptr, "response for a line not in flight");
    std::uint32_t left = f->words;
    for (std::size_t i = 0; left > 0; ++i) {
        TS_ASSERT(i < win_.size());
        Slot& slot = win_[i];
        if (slot.st == St::Requested && lineAlign(slot.addr) == line) {
            slot.val = img_.readWord(slot.addr);
            slot.st = St::Ready;
            --left;
        }
    }
    *f = inflight_.back();
    inflight_.pop_back();
    if (arrivalWake_ != nullptr)
        arrivalWake_->requestWake();
}

} // namespace ts
