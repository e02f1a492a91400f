/**
 * @file
 * Snapshot serialization core.
 *
 * Versioned binary serialization of full simulator state. A snapshot
 * is a flat byte buffer: an integrity header (magic, format version,
 * payload length, checksum) followed by named sections written by
 * each subsystem in a fixed order. Every primitive is written
 * little-endian and fixed-width, so a snapshot taken on one host
 * restores bit-identically on any other.
 *
 * Event callbacks cannot be serialized as bytes; instead every
 * pending event carries a small Tag naming its schedule site plus
 * the integer arguments its closure captured, and restore rebuilds
 * the callback by dispatching the tag to the component that owns the
 * site (see EventQueue::restoreState and the per-component
 * rebuildEvent methods). Tags support one level of nesting: `arg`
 * carries the token of a wrapped inner callback (e.g. an IOMMU walk
 * event wrapping a GPU translate-completion callback).
 *
 * Each component walks its state once through Io (snapIo): the same
 * code writes the fields on save and reads them back on restore.
 *
 * Failure model: any structural problem — bad magic, version or
 * fingerprint mismatch, truncation, checksum failure, a count or
 * index out of range, or a live event without a tag — throws
 * SnapshotError; restore never silently produces a diverging
 * simulation.
 */

#ifndef HISS_SNAP_SNAP_H_
#define HISS_SNAP_SNAP_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace hiss {
namespace snap {

/** Thrown on any malformed, mismatched, or unsupported snapshot. */
class SnapshotError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Snapshot format version; bump on any layout change. */
inline constexpr std::uint32_t kFormatVersion = 2;

/** File magic ("HISSNAP" + format epoch). */
inline constexpr char kMagic[8] = {'H', 'I', 'S', 'S', 'N', 'A', 'P', '1'};

/**
 * Names one rebuildable callback: a schedule-site kind (a string
 * literal with static storage on the save side; interned snapshot
 * storage on the restore side) plus up to three captured integers.
 */
struct Token
{
    const char *kind = nullptr;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::uint64_t c = 0;

    bool empty() const { return kind == nullptr; }

    /** True if this token's kind equals @p k (string compare). */
    bool
    is(const char *k) const
    {
        return kind != nullptr && std::strcmp(kind, k) == 0;
    }
};

/** An event tag: the site itself plus an optional wrapped callback. */
struct Tag
{
    Token self;
    Token arg;

    bool empty() const { return self.empty(); }
};

/**
 * Intern @p kind into a process-lifetime pool and return a stable
 * pointer. Restored tags must outlive the Reader that produced them
 * (they sit in event-queue slots until the event fires or the state
 * is saved again), so reader-side kinds all come from this pool. The
 * kind vocabulary is a small fixed set of schedule sites, so the pool
 * stays tiny. Thread-safe (sweep cells restore concurrently).
 */
const char *internKind(const std::string &kind);

/** FNV-1a 64-bit running hash (state digest, config fingerprint,
 *  cell keys). */
struct Hash64
{
    std::uint64_t h = 14695981039346656037ULL;

    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xffU;
            h *= 1099511628211ULL;
        }
    }

    void
    mixString(const std::string &s)
    {
        mix(s.size());
        for (const char c : s) {
            h ^= static_cast<unsigned char>(c);
            h *= 1099511628211ULL;
        }
    }

    std::uint64_t value() const { return h; }
};

/** Serializes simulator state into a growable byte buffer. */
class Writer
{
  public:
    Writer() = default;

    void
    u8(std::uint8_t v)
    {
        buf_.push_back(static_cast<char>(v));
    }

    void
    u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buf_.push_back(static_cast<char>((v >> (i * 8)) & 0xffU));
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf_.push_back(static_cast<char>((v >> (i * 8)) & 0xffU));
    }

    void
    i64(std::int64_t v)
    {
        u64(static_cast<std::uint64_t>(v));
    }

    void
    b(bool v)
    {
        u8(v ? 1 : 0);
    }

    void
    f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        buf_.append(s);
    }

    /** Write a callback token, interning its kind string. */
    void token(const Token &t);

    /** Write a full event tag (site token + wrapped-callback token). */
    void
    tag(const Tag &t)
    {
        token(t.self);
        token(t.arg);
    }

    /** Begin a named section (structural landmark for the reader). */
    void section(const char *name);

    /** The accumulated payload. */
    const std::string &buffer() const { return buf_; }

  private:
    std::string buf_;
    std::unordered_map<std::string, std::uint32_t> interned_;
};

/** Deserializes a snapshot payload; throws SnapshotError on damage. */
class Reader
{
  public:
    /** @param payload full section payload (no integrity header). */
    explicit Reader(std::string payload);

    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    bool b() { return u8() != 0; }
    double f64();
    std::string str();

    /** Read a token; its kind points into interned storage that
     *  lives as long as this Reader. */
    Token token();

    Tag
    tag()
    {
        Tag t;
        t.self = token();
        t.arg = token();
        return t;
    }

    /** Consume a section marker; throws if the name differs. */
    void section(const char *name);

    /** Read a container length, checked against the bytes left at
     *  @p min_bytes per element before anything is sized from it. */
    std::uint64_t count(std::size_t min_bytes = 1);

    /** True when the whole payload has been consumed. */
    bool atEnd() const { return pos_ == buf_.size(); }

  private:
    void need(std::size_t n) const;

    std::string buf_;
    std::size_t pos_ = 0;
    /** Kind id -> pooled string (see internKind). */
    std::vector<const char *> kinds_;
};

/** Check an @p index read from a snapshot against the @p size of
 *  what it indexes; frame() re-checksums any payload, so restore
 *  trusts no index. @throws SnapshotError naming @p what. */
void checkIndex(std::uint64_t index, std::uint64_t size,
                std::string_view what);

/**
 * One snapshot walk: wraps a Writer (save) or a Reader (restore).
 * A component's snapIo() names each field once; on save each call
 * writes the field (and only reads it), on restore it reads it back
 * in the same order. Restore-only context is a walk parameter. A
 * part whose two directions are different algorithms stays a
 * snapSave* / snapRestore* pair reached through writer() / reader().
 */
class Io
{
  public:
    explicit Io(Writer &w) : w_(&w) {}
    explicit Io(Reader &r) : r_(&r) {}

    bool saving() const { return w_ != nullptr; }
    Writer &writer() { return *w_; }
    Reader &reader() { return *r_; }

    void u8(std::uint8_t &v) { if (w_) w_->u8(v); else v = r_->u8(); }
    void u32(std::uint32_t &v) { if (w_) w_->u32(v); else v = r_->u32(); }
    void u64(std::uint64_t &v) { if (w_) w_->u64(v); else v = r_->u64(); }
    void i64(std::int64_t &v) { if (w_) w_->i64(v); else v = r_->i64(); }
    void b(bool &v) { if (w_) w_->b(v); else v = r_->b(); }
    void f64(double &v) { if (w_) w_->f64(v); else v = r_->f64(); }
    void str(std::string &s) { if (w_) w_->str(s); else s = r_->str(); }
    void token(Token &t) { if (w_) w_->token(t); else t = r_->token(); }
    void tag(Tag &t) { if (w_) w_->tag(t); else t = r_->tag(); }
    void section(const char *n) { if (w_) w_->section(n); else r_->section(n); }

    /** An int or enum field carried as a u32 (as32) or i64 (asI64). */
    template <typename T>
    void
    as32(T &v)
    {
        if (w_)
            w_->u32(static_cast<std::uint32_t>(v));
        else
            v = static_cast<T>(r_->u32());
    }

    template <typename T>
    void
    asI64(T &v)
    {
        if (w_)
            w_->i64(static_cast<std::int64_t>(v));
        else
            v = static_cast<T>(r_->i64());
    }

    /** A structural number the system already has (a geometry, a
     *  count): written on save, compared on restore. @throws
     *  SnapshotError "<what>: snapshot has N, system M". */
    void expect(std::uint64_t n, std::string_view what);

    /** A container: its count, then each element through @p elem.
     *  Restore checks the count (Reader::count), clears the
     *  container and grows it one element at a time. */
    template <typename C, typename F>
    void
    seq(C &c, F &&elem)
    {
        if (w_) {
            w_->u64(c.size());
            for (auto &e : c)
                elem(e);
            return;
        }
        const std::uint64_t n = r_->count();
        c.clear();
        for (std::uint64_t i = 0; i < n; ++i)
            elem(c.emplace_back());
    }

    /** An optional field: a presence flag, then the value through
     *  @p elem. */
    template <typename T, typename F>
    void
    optional(std::optional<T> &o, F &&elem)
    {
        bool present = o.has_value();
        b(present);
        if (r_)
            o = present ? std::optional<T>(std::in_place) : std::nullopt;
        if (present)
            elem(*o);
    }

    /** A map in key order (sorted on save, so a hash map writes
     *  canonical bytes): its count, then each elem(key, value). */
    template <typename M, typename F>
    void
    keyed(M &m, F &&elem)
    {
        using Key = typename M::key_type;
        if (w_) {
            std::vector<Key> keys;
            for (const auto &entry : m)
                keys.push_back(entry.first);
            std::sort(keys.begin(), keys.end());
            w_->u64(keys.size());
            for (Key key : keys)
                elem(key, m.at(key));
            return;
        }
        const std::uint64_t n = r_->count();
        m.clear();
        for (std::uint64_t i = 0; i < n; ++i) {
            Key key{};
            typename M::mapped_type value{};
            elem(key, value);
            m.insert_or_assign(key, std::move(value));
        }
    }

  private:
    Writer *w_ = nullptr;
    Reader *r_ = nullptr;
};

/** Checksum used by the integrity header (FNV-1a over the payload). */
std::uint64_t checksum(const std::string &payload);

/**
 * Frame @p payload with the integrity header:
 * magic, version, payload size, checksum, payload bytes.
 */
std::string frame(const std::string &payload);

/**
 * Validate and strip the integrity header of @p blob.
 * @throws SnapshotError on bad magic, unsupported version,
 *         truncation, or checksum mismatch.
 */
std::string unframe(const std::string &blob);

/** Write @p blob to @p path; throws SnapshotError on I/O failure. */
void writeFile(const std::string &path, const std::string &blob);

/**
 * Write @p blob to @p path atomically: the bytes land in a
 * same-directory temporary first and are renamed into place, so a
 * reader (or a process killed mid-write) sees either the complete
 * old file or the complete new file, never a torn prefix. Writers
 * of one path, in one process or several, do not race: each writes
 * through its own temporary and the last rename wins. The result
 * cache and snapshot saves both depend on this.
 * @throws SnapshotError on I/O failure.
 */
void writeFileAtomic(const std::string &path, const std::string &blob);

/** Read @p path fully; throws SnapshotError on I/O failure. */
std::string readFile(const std::string &path);

} // namespace snap
} // namespace hiss

#endif // HISS_SNAP_SNAP_H_
