#include "snap/snap.h"

#include <cstdio>
#include <mutex>
#include <unordered_set>

namespace hiss {
namespace snap {

namespace {

/** Section marker, cheap structural guard between subsystems. */
constexpr std::uint32_t kSectionMarker = 0x53454354; // "SECT"

/** Token encoding discriminators. */
constexpr std::uint8_t kTokenEmpty = 0;
constexpr std::uint8_t kTokenNewKind = 1;
constexpr std::uint8_t kTokenKnownKind = 2;

} // namespace

const char *
internKind(const std::string &kind)
{
    static std::mutex mu;
    static std::unordered_set<std::string> pool;
    const std::lock_guard<std::mutex> lock(mu);
    return pool.insert(kind).first->c_str();
}

void
Writer::token(const Token &t)
{
    if (t.empty()) {
        u8(kTokenEmpty);
        return;
    }
    const std::string kind(t.kind);
    auto it = interned_.find(kind);
    if (it == interned_.end()) {
        const auto id = static_cast<std::uint32_t>(interned_.size());
        interned_.emplace(kind, id);
        u8(kTokenNewKind);
        str(kind);
    } else {
        u8(kTokenKnownKind);
        u32(it->second);
    }
    u64(t.a);
    u64(t.b);
    u64(t.c);
}

void
Writer::section(const char *name)
{
    u32(kSectionMarker);
    str(name);
}

Reader::Reader(std::string payload) : buf_(std::move(payload)) {}

void
Reader::need(std::size_t n) const
{
    if (buf_.size() - pos_ < n)
        throw SnapshotError("snapshot truncated: wanted " +
                            std::to_string(n) + " bytes at offset " +
                            std::to_string(pos_));
}

std::uint8_t
Reader::u8()
{
    need(1);
    return static_cast<std::uint8_t>(buf_[pos_++]);
}

std::uint32_t
Reader::u32()
{
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(
                 static_cast<unsigned char>(buf_[pos_ + i]))
             << (i * 8);
    pos_ += 4;
    return v;
}

std::uint64_t
Reader::u64()
{
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(buf_[pos_ + i]))
             << (i * 8);
    pos_ += 8;
    return v;
}

double
Reader::f64()
{
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

std::string
Reader::str()
{
    const std::uint64_t n = u64();
    need(n);
    std::string s = buf_.substr(pos_, n);
    pos_ += n;
    return s;
}

Token
Reader::token()
{
    const std::uint8_t code = u8();
    if (code == kTokenEmpty)
        return Token{};
    Token t;
    if (code == kTokenNewKind) {
        kinds_.push_back(internKind(str()));
        t.kind = kinds_.back();
    } else if (code == kTokenKnownKind) {
        const std::uint32_t id = u32();
        checkIndex(id, kinds_.size(), "token kind id");
        t.kind = kinds_[id];
    } else {
        throw SnapshotError("snapshot corrupt: bad token code " +
                            std::to_string(code));
    }
    t.a = u64();
    t.b = u64();
    t.c = u64();
    return t;
}

void
Reader::section(const char *name)
{
    if (u32() != kSectionMarker)
        throw SnapshotError(std::string("snapshot corrupt: missing "
                                        "section marker before '") +
                            name + "'");
    const std::string got = str();
    if (got != name)
        throw SnapshotError("snapshot corrupt: expected section '" +
                            std::string(name) + "', found '" + got + "'");
}

std::uint64_t
Reader::count(std::size_t min_bytes)
{
    const std::uint64_t n = u64();
    if (n > (buf_.size() - pos_) / min_bytes)
        throw SnapshotError("snapshot corrupt: count " + std::to_string(n)
                            + " at offset " + std::to_string(pos_ - 8)
                            + " exceeds the bytes left");
    return n;
}

void
checkIndex(std::uint64_t index, std::uint64_t size, std::string_view what)
{
    if (index >= size)
        throw SnapshotError("snapshot corrupt: " + std::string(what) + " "
                            + std::to_string(index) + " out of range (size "
                            + std::to_string(size) + ")");
}

void
Io::expect(std::uint64_t n, std::string_view what)
{
    std::uint64_t got = n;
    u64(got);
    if (got != n)
        throw SnapshotError(std::string(what) + ": snapshot has "
                            + std::to_string(got) + ", system "
                            + std::to_string(n));
}

std::uint64_t
checksum(const std::string &payload)
{
    std::uint64_t h = 14695981039346656037ULL;
    for (const char c : payload) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ULL;
    }
    return h;
}

std::string
frame(const std::string &payload)
{
    Writer hdr;
    std::string out(kMagic, sizeof kMagic);
    hdr.u32(kFormatVersion);
    hdr.u64(payload.size());
    hdr.u64(checksum(payload));
    out += hdr.buffer();
    out += payload;
    return out;
}

std::string
unframe(const std::string &blob)
{
    constexpr std::size_t kHeaderBytes = sizeof(kMagic) + 4 + 8 + 8;
    if (blob.size() < kHeaderBytes)
        throw SnapshotError("not a snapshot: file shorter than header");
    if (std::memcmp(blob.data(), kMagic, sizeof kMagic) != 0)
        throw SnapshotError("not a snapshot: bad magic");
    Reader hdr(blob.substr(sizeof kMagic, kHeaderBytes - sizeof kMagic));
    const std::uint32_t version = hdr.u32();
    if (version != kFormatVersion)
        throw SnapshotError("snapshot format version " +
                            std::to_string(version) +
                            " unsupported (expected " +
                            std::to_string(kFormatVersion) + ")");
    const std::uint64_t size = hdr.u64();
    const std::uint64_t sum = hdr.u64();
    if (blob.size() - kHeaderBytes != size)
        throw SnapshotError("snapshot truncated: header declares " +
                            std::to_string(size) + " payload bytes, file "
                            "has " +
                            std::to_string(blob.size() - kHeaderBytes));
    std::string payload = blob.substr(kHeaderBytes);
    if (checksum(payload) != sum)
        throw SnapshotError("snapshot corrupt: checksum mismatch");
    return payload;
}

void
writeFile(const std::string &path, const std::string &blob)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr)
        throw SnapshotError("cannot open '" + path + "' for writing");
    const std::size_t wrote = std::fwrite(blob.data(), 1, blob.size(), f);
    const bool ok = wrote == blob.size() && std::fclose(f) == 0;
    if (!ok)
        throw SnapshotError("short write to '" + path + "'");
}

void
writeFileAtomic(const std::string &path, const std::string &blob)
{
    // The temporary lives in the target's directory so the rename
    // cannot cross a filesystem boundary (rename(2) atomicity).
    const std::string tmp = path + ".tmp";
    writeFile(tmp, blob);
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw SnapshotError("cannot rename '" + tmp + "' to '" + path
                            + "'");
    }
}

std::string
readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        throw SnapshotError("cannot open snapshot '" + path + "'");
    std::string blob;
    char chunk[65536];
    std::size_t got;
    while ((got = std::fread(chunk, 1, sizeof chunk, f)) > 0)
        blob.append(chunk, got);
    std::fclose(f);
    return blob;
}

} // namespace snap
} // namespace hiss
