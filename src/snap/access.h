/**
 * @file
 * Substrate serializers for the snapshot layer.
 *
 * snap::Access is a friend of the low-level state-holding classes
 * (Rng, Cache, BranchPredictor, streams, stats, Thread, allocators)
 * and walks their private fields with one io(Io &, T &) overload per
 * class, so those classes don't grow serialization interfaces of
 * their own. The structures whose save and restore are different
 * algorithms keep a save/restore pair behind the io() fallback.
 * Restore always targets a freshly constructed object built from the
 * same configuration — structural fields (geometry, masks, profiles)
 * are never serialized, only verified implicitly via the snapshot
 * config fingerprint.
 */

#ifndef HISS_SNAP_ACCESS_H_
#define HISS_SNAP_ACCESS_H_

#include <string>
#include <utility>
#include <vector>

#include "mem/address_space_dir.h"
#include "mem/address_stream.h"
#include "mem/branch_predictor.h"
#include "mem/cache.h"
#include "mem/frame_allocator.h"
#include "mem/page_table.h"
#include "os/proc_stats.h"
#include "os/thread.h"
#include "sim/random.h"
#include "sim/stats.h"
#include "snap/snap.h"

namespace hiss {
namespace snap {

struct Access
{
    // ---- Rng ------------------------------------------------------
    static void
    io(Io &io, Rng &rng)
    {
        for (std::uint64_t &s : rng.s_)
            io.u64(s);
    }

    // ---- Cache ----------------------------------------------------
    static void
    io(Io &io, Cache &c)
    {
        io.expect(c.tags_.size(), "cache geometry mismatch (ways)");
        for (Addr &t : c.tags_)
            io.u64(t);
        for (std::uint64_t &v : c.lru_)
            io.u64(v);
        io.u64(c.use_clock_);
        io.u64(c.accesses_);
        io.u64(c.misses_);
        io.u64(c.flushes_);
    }

    // ---- BranchPredictor -------------------------------------------
    static void
    io(Io &io, BranchPredictor &bp)
    {
        io.u32(bp.history_);
        io.expect(bp.table_.size(), "branch predictor geometry mismatch");
        for (std::uint8_t &e : bp.table_)
            io.u8(e);
        io.u64(bp.lookups_);
        io.u64(bp.mispredicts_);
    }

    // ---- AddressStream / BranchStream -------------------------------
    static void
    io(Io &io, AddressStream &s)
    {
        Access::io(io, s.rng_);
        io.u64(s.cursor_);
    }

    static void
    io(Io &io, BranchStream &s)
    {
        // biases_ is drawn at construction from the same seed and so
        // reproduces identically; only the live rng cursor moves.
        Access::io(io, s.rng_);
    }

    // ---- Thread -----------------------------------------------------
    static void
    io(Io &io, Thread &t)
    {
        io.as32(t.state_);
        io.asI64(t.affinity_);
        io.asI64(t.last_core_);
        io.u64(t.ran_since_dispatch_);
        io.u64(t.total_cpu_);
        io.u64(t.ready_since_);
        io.u64(t.last_wake_time_);
        io.u64(t.cpu_at_last_wake_);
        io.f64(t.recent_share_);
    }

    // ---- StatRegistry --------------------------------------------------
    /**
     * Every registered stat's dynamic state, in name order, behind a
     * kind byte that restore checks against the stat it lands in.
     * Formulas are pure functions of other stats and carry none.
     * Registration (the name set) is structural: it happens during
     * system construction and is covered by the config fingerprint.
     */
    static void
    io(Io &io, StatRegistry &reg)
    {
        io.expect(reg.size(), "stat registry size mismatch (system "
                              "built from a different config?)");
        reg.forEach([&io](const Stat &s) {
            // forEach is const-visitation; the walk is the one place
            // that mutates through it (on restore).
            auto &stat = const_cast<Stat &>(s);
            auto *c = dynamic_cast<Counter *>(&stat);
            auto *sc = c != nullptr ? nullptr : dynamic_cast<Scalar *>(&stat);
            auto *d = c != nullptr || sc != nullptr
                          ? nullptr
                          : dynamic_cast<Distribution *>(&stat);
            const std::uint8_t kind = c != nullptr    ? 1
                                      : sc != nullptr ? 2
                                      : d != nullptr  ? 3
                                                      : 4; // Formula
            std::uint8_t saved = kind;
            io.u8(saved);
            if (saved != kind)
                throw SnapshotError("stat kind mismatch at '" + s.name()
                                    + "'");
            if (c != nullptr) {
                io.u64(c->count_);
            } else if (sc != nullptr) {
                io.f64(sc->value_);
            } else if (d != nullptr) {
                io.u64(d->n_);
                io.f64(d->mean_);
                io.f64(d->m2_);
                io.f64(d->min_);
                io.f64(d->max_);
                io.f64(d->sum_);
            }
        });
    }

    // ---- Two-algorithm parts ------------------------------------------
    // The structures below write a canonical form (VPN-ordered
    // entries, a sparse in-use set, a labelled map) that their
    // restore rebuilds differently, so each keeps a save/restore pair
    // and walks reach it through this one dispatch.
    template <typename T>
    static void
    io(Io &io, T &object)
    {
        if (io.saving())
            save(io.writer(), object);
        else
            restore(io.reader(), object);
    }

    // ---- PageTable / FrameAllocator / AddressSpaceDirectory ----------
    // A page table is written as its mappings in VPN order, straight
    // from its walk; restore requires that order back.
    static void
    save(Writer &w, const PageTable &pt)
    {
        w.u64(pt.numMapped());
        pt.forEach([&w](Vpn vpn, Pfn pfn) {
            w.u64(vpn);
            w.u64(pfn);
        });
    }

    static void
    restore(Reader &r, PageTable &pt)
    {
        pt.clear();
        const std::uint64_t n = r.count(16);
        Vpn last = 0;
        for (std::uint64_t i = 0; i < n; ++i) {
            const Vpn vpn = r.u64();
            const Pfn pfn = r.u64();
            if (i > 0 && vpn <= last)
                throw SnapshotError("snapshot corrupt: page-table vpn "
                                    + std::to_string(vpn)
                                    + " not above its predecessor "
                                    + std::to_string(last));
            checkIndex(pfn, ~Pfn{0}, "mapped frame");
            pt.map(vpn, pfn);
            last = vpn;
        }
    }

    static void
    save(Writer &w, const FrameAllocator &fa)
    {
        w.u64(fa.total_);
        w.u64(fa.next_);
        w.u64(fa.allocated_);
        w.u64(fa.freelist_.size());
        for (const Pfn pfn : fa.freelist_)
            w.u64(pfn);
        // The in-use bitmap is written as its set bits, ascending.
        std::uint64_t set = 0;
        for (std::uint64_t pfn = 0; pfn < fa.next_; ++pfn)
            set += fa.in_use_[pfn] ? 1 : 0;
        w.u64(set);
        for (std::uint64_t pfn = 0; pfn < fa.next_; ++pfn) {
            if (fa.in_use_[pfn])
                w.u64(pfn);
        }
    }

    /** Every frame named must lie below the bump pointer and be
     *  named once, in use or free-listed, and the in-use set must
     *  hold exactly the allocated count. */
    static void
    restore(Reader &r, FrameAllocator &fa)
    {
        const std::uint64_t total = r.u64();
        if (total != fa.total_)
            throw SnapshotError("frame allocator size mismatch");
        fa.next_ = r.u64();
        checkIndex(fa.next_, fa.total_ + 1, "frame bump pointer");
        fa.allocated_ = r.u64();
        fa.freelist_.clear();
        const std::uint64_t free = r.count(8);
        for (std::uint64_t i = 0; i < free; ++i) {
            const Pfn pfn = r.u64();
            checkIndex(pfn, fa.next_, "free frame");
            fa.freelist_.push_back(pfn);
        }
        fa.in_use_.assign(fa.next_, false);
        const std::uint64_t set = r.count(8);
        for (std::uint64_t i = 0; i < set; ++i) {
            const Pfn pfn = r.u64();
            checkIndex(pfn, fa.next_, "in-use frame");
            if (fa.in_use_[pfn])
                throw SnapshotError("snapshot corrupt: in-use frame "
                                    + std::to_string(pfn)
                                    + " listed twice");
            fa.in_use_[pfn] = true;
        }
        if (set != fa.allocated_)
            throw SnapshotError("snapshot corrupt: "
                                + std::to_string(fa.allocated_)
                                + " frames allocated but "
                                + std::to_string(set) + " in use");
        // Mark the free list into the bitmap to find a frame that is
        // also in use or free-listed twice, then clear the marks.
        for (const Pfn pfn : fa.freelist_) {
            if (fa.in_use_[pfn])
                throw SnapshotError("snapshot corrupt: free frame "
                                    + std::to_string(pfn)
                                    + " is in use or listed twice");
            fa.in_use_[pfn] = true;
        }
        for (const Pfn pfn : fa.freelist_)
            fa.in_use_[pfn] = false;
    }

    static void
    save(Writer &w, const AddressSpaceDirectory &dir)
    {
        w.u64(dir.size());
        dir.forEach([&w](Pasid pasid, const PageTable &pt) {
            w.u32(pasid);
            save(w, pt);
        });
    }

    static void
    restore(Reader &r, AddressSpaceDirectory &dir)
    {
        const std::uint64_t n = r.count(12);
        for (std::uint64_t i = 0; i < n; ++i) {
            const Pasid pasid = r.u32();
            restore(r, dir.table(pasid));
        }
    }

    // ---- ProcStats ----------------------------------------------------
    static void
    save(Writer &w, const ProcStats &ps)
    {
        w.u64(ps.counts_.size());
        for (const auto &[label, counts] : ps.counts_) {
            w.str(label);
            w.u64(counts.size());
            for (const std::uint64_t c : counts)
                w.u64(c);
        }
    }

    static void
    restore(Reader &r, ProcStats &ps)
    {
        ps.counts_.clear();
        const std::uint64_t n = r.count(16);
        for (std::uint64_t i = 0; i < n; ++i) {
            const std::string label = r.str();
            std::vector<std::uint64_t> counts(r.count(8));
            for (std::uint64_t &c : counts)
                c = r.u64();
            ps.counts_.emplace(label, std::move(counts));
        }
    }
};

} // namespace snap
} // namespace hiss

#endif // HISS_SNAP_ACCESS_H_
