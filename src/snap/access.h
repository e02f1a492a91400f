/**
 * @file
 * Substrate serializers for the snapshot layer.
 *
 * snap::Access is a friend of the low-level state-holding classes
 * (Rng, Cache, BranchPredictor, streams, stats, Thread, allocators)
 * and provides save/restore helpers over their private fields, so
 * those classes don't grow serialization interfaces of their own.
 * Restore always targets a freshly constructed object built from the
 * same configuration — structural fields (geometry, masks, profiles)
 * are never serialized, only verified implicitly via the snapshot
 * config fingerprint.
 */

#ifndef HISS_SNAP_ACCESS_H_
#define HISS_SNAP_ACCESS_H_

#include <algorithm>
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
    save(Writer &w, const Rng &rng)
    {
        for (const std::uint64_t s : rng.s_)
            w.u64(s);
    }

    static void
    restore(Reader &r, Rng &rng)
    {
        for (std::uint64_t &s : rng.s_)
            s = r.u64();
    }

    // ---- Cache ----------------------------------------------------
    static void
    save(Writer &w, const Cache &c)
    {
        w.u64(c.tags_.size());
        for (const Addr t : c.tags_)
            w.u64(t);
        for (const std::uint64_t v : c.lru_)
            w.u64(v);
        w.u64(c.use_clock_);
        w.u64(c.accesses_);
        w.u64(c.misses_);
        w.u64(c.flushes_);
    }

    static void
    restore(Reader &r, Cache &c)
    {
        const std::uint64_t n = r.u64();
        if (n != c.tags_.size())
            throw SnapshotError("cache geometry mismatch: snapshot has "
                                + std::to_string(n) + " ways, system "
                                + std::to_string(c.tags_.size()));
        for (Addr &t : c.tags_)
            t = r.u64();
        for (std::uint64_t &v : c.lru_)
            v = r.u64();
        c.use_clock_ = r.u64();
        c.accesses_ = r.u64();
        c.misses_ = r.u64();
        c.flushes_ = r.u64();
    }

    // ---- BranchPredictor -------------------------------------------
    static void
    save(Writer &w, const BranchPredictor &bp)
    {
        w.u32(bp.history_);
        w.u64(bp.table_.size());
        for (const std::uint8_t e : bp.table_)
            w.u8(e);
        w.u64(bp.lookups_);
        w.u64(bp.mispredicts_);
    }

    static void
    restore(Reader &r, BranchPredictor &bp)
    {
        bp.history_ = r.u32();
        const std::uint64_t n = r.u64();
        if (n != bp.table_.size())
            throw SnapshotError("branch predictor geometry mismatch");
        for (std::uint8_t &e : bp.table_)
            e = r.u8();
        bp.lookups_ = r.u64();
        bp.mispredicts_ = r.u64();
    }

    // ---- AddressStream / BranchStream -------------------------------
    static void
    save(Writer &w, const AddressStream &s)
    {
        save(w, s.rng_);
        w.u64(s.cursor_);
    }

    static void
    restore(Reader &r, AddressStream &s)
    {
        restore(r, s.rng_);
        s.cursor_ = r.u64();
    }

    static void
    save(Writer &w, const BranchStream &s)
    {
        // biases_ is drawn at construction from the same seed and so
        // reproduces identically; only the live rng cursor moves.
        save(w, s.rng_);
    }

    static void
    restore(Reader &r, BranchStream &s)
    {
        restore(r, s.rng_);
    }

    // ---- Thread -----------------------------------------------------
    static void
    save(Writer &w, const Thread &t)
    {
        w.u32(static_cast<std::uint32_t>(t.state_));
        w.i64(t.affinity_);
        w.i64(t.last_core_);
        w.u64(t.ran_since_dispatch_);
        w.u64(t.total_cpu_);
        w.u64(t.ready_since_);
        w.u64(t.last_wake_time_);
        w.u64(t.cpu_at_last_wake_);
        w.f64(t.recent_share_);
    }

    static void
    restore(Reader &r, Thread &t)
    {
        t.state_ = static_cast<ThreadState>(r.u32());
        t.affinity_ = static_cast<int>(r.i64());
        t.last_core_ = static_cast<int>(r.i64());
        t.ran_since_dispatch_ = r.u64();
        t.total_cpu_ = r.u64();
        t.ready_since_ = r.u64();
        t.last_wake_time_ = r.u64();
        t.cpu_at_last_wake_ = r.u64();
        t.recent_share_ = r.f64();
    }

    // ---- PageTable / FrameAllocator / AddressSpaceDirectory ----------
    static void
    save(Writer &w, const PageTable &pt)
    {
        std::vector<std::pair<Vpn, Pfn>> entries;
        entries.reserve(pt.numMapped());
        pt.forEach([&entries](Vpn vpn, Pfn pfn) {
            entries.emplace_back(vpn, pfn);
        });
        std::sort(entries.begin(), entries.end());
        w.u64(entries.size());
        for (const auto &[vpn, pfn] : entries) {
            w.u64(vpn);
            w.u64(pfn);
        }
    }

    static void
    restore(Reader &r, PageTable &pt)
    {
        pt.clear();
        const std::uint64_t n = r.u64();
        for (std::uint64_t i = 0; i < n; ++i) {
            const Vpn vpn = r.u64();
            const Pfn pfn = r.u64();
            pt.map(vpn, pfn);
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
        // in_use_ is derivable only from the page tables plus the
        // freelist in aggregate; serialize the allocated set as the
        // frame indices below the bump pointer not on the freelist
        // would require a scan — the bitmap is cheaper to write as
        // the set bits (sparse relative to 8M-frame DRAM).
        std::uint64_t set = 0;
        for (std::uint64_t pfn = 0; pfn < fa.next_; ++pfn)
            set += fa.in_use_[pfn] ? 1 : 0;
        w.u64(set);
        for (std::uint64_t pfn = 0; pfn < fa.next_; ++pfn) {
            if (fa.in_use_[pfn])
                w.u64(pfn);
        }
    }

    static void
    restore(Reader &r, FrameAllocator &fa)
    {
        const std::uint64_t total = r.u64();
        if (total != fa.total_)
            throw SnapshotError("frame allocator size mismatch");
        fa.next_ = r.u64();
        fa.allocated_ = r.u64();
        fa.freelist_.resize(r.u64());
        for (Pfn &pfn : fa.freelist_)
            pfn = r.u64();
        std::fill(fa.in_use_.begin(), fa.in_use_.end(), false);
        const std::uint64_t set = r.u64();
        for (std::uint64_t i = 0; i < set; ++i)
            fa.in_use_[r.u64()] = true;
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
        const std::uint64_t n = r.u64();
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
        const std::uint64_t n = r.u64();
        for (std::uint64_t i = 0; i < n; ++i) {
            const std::string label = r.str();
            std::vector<std::uint64_t> counts(r.u64());
            for (std::uint64_t &c : counts)
                c = r.u64();
            ps.counts_.emplace(label, std::move(counts));
        }
    }

    // ---- StatRegistry --------------------------------------------------
    /**
     * Serialize every registered stat's dynamic state, in name order.
     * Formulas are pure functions of other stats and carry none.
     * Registration (the name set) is structural: it happens during
     * system construction and is covered by the config fingerprint.
     */
    static void
    save(Writer &w, const StatRegistry &reg)
    {
        w.u64(reg.size());
        reg.forEach([&w](const Stat &s) {
            if (const auto *c = dynamic_cast<const Counter *>(&s)) {
                w.u8(1);
                w.u64(c->count_);
            } else if (const auto *sc =
                           dynamic_cast<const Scalar *>(&s)) {
                w.u8(2);
                w.f64(sc->value_);
            } else if (const auto *d =
                           dynamic_cast<const Distribution *>(&s)) {
                w.u8(3);
                w.u64(d->n_);
                w.f64(d->mean_);
                w.f64(d->m2_);
                w.f64(d->min_);
                w.f64(d->max_);
                w.f64(d->sum_);
            } else {
                w.u8(4); // Formula: no state.
            }
        });
    }

    static void
    restore(Reader &r, StatRegistry &reg)
    {
        if (r.u64() != reg.size())
            throw SnapshotError("stat registry size mismatch (system "
                                "built from a different config?)");
        reg.forEach([&r](const Stat &s) {
            const std::uint8_t kind = r.u8();
            // forEach is const-visitation; state restore is the one
            // place that mutates through it.
            auto &stat = const_cast<Stat &>(s);
            if (kind == 1) {
                auto *c = dynamic_cast<Counter *>(&stat);
                if (c == nullptr)
                    throw SnapshotError("stat kind mismatch at '" +
                                        s.name() + "'");
                c->count_ = r.u64();
            } else if (kind == 2) {
                auto *sc = dynamic_cast<Scalar *>(&stat);
                if (sc == nullptr)
                    throw SnapshotError("stat kind mismatch at '" +
                                        s.name() + "'");
                sc->value_ = r.f64();
            } else if (kind == 3) {
                auto *d = dynamic_cast<Distribution *>(&stat);
                if (d == nullptr)
                    throw SnapshotError("stat kind mismatch at '" +
                                        s.name() + "'");
                d->n_ = r.u64();
                d->mean_ = r.f64();
                d->m2_ = r.f64();
                d->min_ = r.f64();
                d->max_ = r.f64();
                d->sum_ = r.f64();
            } else if (kind == 4) {
                if (dynamic_cast<Formula *>(&stat) == nullptr)
                    throw SnapshotError("stat kind mismatch at '" +
                                        s.name() + "'");
            } else {
                throw SnapshotError("snapshot corrupt: bad stat kind");
            }
        });
    }
};

} // namespace snap
} // namespace hiss

#endif // HISS_SNAP_ACCESS_H_
