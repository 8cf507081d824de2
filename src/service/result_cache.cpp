#include "result_cache.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <vector>

#include "fault/service_faults.hpp"
#include "service/cache_key.hpp"
#include "util/logging.hpp"

namespace ringsim::service {

namespace {

/** Magic of the framed on-disk entry format (see frameEntry). */
constexpr const char *kEntryMagic = "RSC1";

/** Checksum domain separator so an entry is not its own cache key. */
constexpr std::uint64_t kEntryChecksumSeed = 0x52534331ULL;

/** Suffix a corrupt entry is renamed to when quarantined. */
constexpr const char *kQuarantineSuffix = ".quarantined";

/** Whole-file read; nullopt on open/IO failure. */
std::optional<std::string>
readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return std::nullopt;
    std::string data;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        data.append(buf, n);
    bool ok = !std::ferror(f);
    std::fclose(f);
    if (!ok)
        return std::nullopt;
    return data;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(),
                     suffix) == 0;
}

/**
 * Advisory flock on the cache directory's lock file, coordinating
 * *processes* (the in-process mutex_ cannot see a second daemon
 * sharing --cache-dir). Publishers take the lock shared — concurrent
 * publishes are safe with each other (unique temp names, atomic
 * rename) — while the startup quarantine scan takes it exclusive:
 * without that, daemon B's scan can see daemon A's in-flight .tmp
 * file and delete it between A's write and A's rename, losing A's
 * publish. A missing or unlockable lock file degrades to the old
 * unguarded behavior (single-daemon directories never contend).
 */
class ScopedDirLock
{
  public:
    ScopedDirLock(const std::string &dir, int op)
    {
        if (dir.empty())
            return;
        std::string path = dir + "/.cache.lock";
        fd_ = ::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC,
                     0644);
        if (fd_ < 0)
            return;
        if (::flock(fd_, op) != 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }

    ~ScopedDirLock()
    {
        if (fd_ >= 0)
            ::close(fd_); // closing releases the flock
    }

    ScopedDirLock(const ScopedDirLock &) = delete;
    ScopedDirLock &operator=(const ScopedDirLock &) = delete;

  private:
    int fd_ = -1;
};

} // namespace

ResultCache::ResultCache(std::size_t mem_entries, std::string dir)
    : capacity_(mem_entries ? mem_entries : 1), dir_(std::move(dir))
{
    if (!dir_.empty()) {
        // Best-effort create; an unwritable directory degrades to a
        // memory-only cache (counted in diskErrors per operation).
        ::mkdir(dir_.c_str(), 0755);
        scanDisk();
    }
}

std::string
ResultCache::diskPath(const std::string &key) const
{
    if (dir_.empty())
        return "";
    return dir_ + "/" + key + ".json";
}

std::string
ResultCache::frameEntry(const std::string &payload)
{
    std::uint64_t sum = fingerprint64(payload, kEntryChecksumSeed);
    std::string framed = strprintf(
        "%s %zu %016llx\n", kEntryMagic, payload.size(),
        static_cast<unsigned long long>(sum));
    framed += payload;
    return framed;
}

bool
ResultCache::tryUnframeEntry(const std::string &data,
                             std::string *payload)
{
    std::size_t nl = data.find('\n');
    if (nl == std::string::npos)
        return false;
    const std::string header = data.substr(0, nl);
    char magic[8] = {};
    unsigned long long len = 0, sum = 0;
    if (std::sscanf(header.c_str(), "%7s %llu %llx", magic, &len,
                    &sum) != 3)
        return false;
    if (std::strcmp(magic, kEntryMagic) != 0)
        return false;
    // A torn write shows up as a short payload; damage past the
    // header as a checksum mismatch. Trailing junk is also damage.
    if (data.size() - (nl + 1) != len)
        return false;
    std::string body = data.substr(nl + 1);
    if (fingerprint64(body, kEntryChecksumSeed) != sum)
        return false;
    *payload = std::move(body);
    return true;
}

void
ResultCache::setChaos(fault::ServiceFaultInjector *injector)
{
    core::MutexLock lock(mutex_);
    chaos_ = injector;
}

std::optional<std::string>
ResultCache::get(const std::string &key)
{
    {
        core::MutexLock lock(mutex_);
        auto it = index_.find(key);
        if (it != index_.end()) {
            // Touch: move to the front of the LRU.
            lru_.splice(lru_.begin(), lru_, it->second);
            ++stats_.memHits;
            return lru_.front().second;
        }
    }
    std::optional<std::string> disk = diskGet(key);
    core::MutexLock lock(mutex_);
    if (disk) {
        ++stats_.diskHits;
        memPutLocked(key, *disk);
        return disk;
    }
    ++stats_.misses;
    return std::nullopt;
}

void
ResultCache::put(const std::string &key, const std::string &value)
{
    {
        core::MutexLock lock(mutex_);
        ++stats_.stores;
        memPutLocked(key, value);
    }
    diskPut(key, value);
}

std::size_t
ResultCache::memEntries() const
{
    core::MutexLock lock(mutex_);
    return lru_.size();
}

CacheStats
ResultCache::stats() const
{
    core::MutexLock lock(mutex_);
    return stats_;
}

void
ResultCache::memPutLocked(const std::string &key, std::string value)
{
    auto it = index_.find(key);
    if (it != index_.end()) {
        it->second->second = std::move(value);
        lru_.splice(lru_.begin(), lru_, it->second);
        return;
    }
    lru_.emplace_front(key, std::move(value));
    index_[key] = lru_.begin();
    while (lru_.size() > capacity_) {
        index_.erase(lru_.back().first);
        lru_.pop_back();
        ++stats_.evictions;
    }
}

void
ResultCache::quarantine(const std::string &path)
{
    // Rename, never delete: the damaged bytes stay available for a
    // post-mortem, and the entry path is free for a clean rewrite.
    std::string aside = path + kQuarantineSuffix;
    bool ok = std::rename(path.c_str(), aside.c_str()) == 0;
    if (!ok)
        ok = std::remove(path.c_str()) == 0;
    core::MutexLock lock(mutex_);
    if (ok)
        ++stats_.quarantined;
    else
        ++stats_.diskErrors;
}

std::optional<std::string>
ResultCache::diskGet(const std::string &key)
{
    std::string path = diskPath(key);
    if (path.empty())
        return std::nullopt;
    std::optional<std::string> data = readFile(path);
    if (!data) {
        // Missing file is a plain miss; a file we cannot read is a
        // disk error.
        if (::access(path.c_str(), F_OK) == 0) {
            core::MutexLock lock(mutex_);
            ++stats_.diskErrors;
        }
        return std::nullopt;
    }
    std::string payload;
    if (!tryUnframeEntry(*data, &payload)) {
        warn("cache: quarantining corrupt entry %s (%zu bytes)",
             path.c_str(), data->size());
        quarantine(path);
        return std::nullopt;
    }
    return payload;
}

void
ResultCache::diskPut(const std::string &key, const std::string &value)
{
    std::string path = diskPath(key);
    if (path.empty())
        return;
    std::string framed = frameEntry(value);
    // Atomic publish: a reader either sees the whole entry or none.
    // The temp name is unique per store so concurrent writers of the
    // same key cannot interleave into one temp file. The shared dir
    // lock keeps another daemon's startup scan from reaping the temp
    // file mid-publish.
    ScopedDirLock dir_lock(dir_, LOCK_SH);
    static std::atomic<unsigned> tmp_serial{0};
    std::string tmp = path + strprintf(".tmp%u", tmp_serial++);
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    bool ok = f != nullptr;
    if (f) {
        ok = std::fwrite(framed.data(), 1, framed.size(), f) ==
             framed.size();
        ok = (std::fclose(f) == 0) && ok;
    }
    if (ok)
        ok = std::rename(tmp.c_str(), path.c_str()) == 0;
    if (!ok) {
        std::remove(tmp.c_str());
        core::MutexLock lock(mutex_);
        ++stats_.diskErrors;
        return;
    }

    fault::ServiceFaultInjector *chaos;
    {
        core::MutexLock lock(mutex_);
        chaos = chaos_;
    }
    if (!chaos)
        return;
    // Chaos: damage the just-published entry the way a crash or a
    // failing disk would, so verify-on-load must catch it. The memory
    // tier still holds the good value; the damage surfaces after a
    // restart or an eviction.
    if (chaos->tornWrite()) {
        if (::truncate(path.c_str(), static_cast<off_t>(
                           framed.size() / 2)) != 0) {
            core::MutexLock lock(mutex_);
            ++stats_.diskErrors;
        }
    } else if (chaos->bitFlip()) {
        std::FILE *rw = std::fopen(path.c_str(), "r+b");
        bool flipped = rw != nullptr;
        if (rw) {
            long mid = static_cast<long>(framed.size() / 2);
            flipped = std::fseek(rw, mid, SEEK_SET) == 0;
            if (flipped) {
                int c = std::fgetc(rw);
                flipped = c != EOF &&
                          std::fseek(rw, mid, SEEK_SET) == 0 &&
                          std::fputc(c ^ 0x20, rw) != EOF;
            }
            std::fclose(rw);
        }
        if (!flipped) {
            core::MutexLock lock(mutex_);
            ++stats_.diskErrors;
        }
    }
}

Count
ResultCache::scanDisk()
{
    if (dir_.empty())
        return 0;
    // Exclusive against publishers (shared lock in diskPut) and
    // other scanners: a .tmp seen under this lock is a true orphan
    // from a crashed daemon, never an in-flight publish.
    ScopedDirLock dir_lock(dir_, LOCK_EX);
    std::vector<std::string> entries, orphans;
    DIR *d = ::opendir(dir_.c_str());
    if (!d) {
        core::MutexLock lock(mutex_);
        ++stats_.diskErrors;
        return 0;
    }
    while (dirent *e = ::readdir(d)) {
        std::string name = e->d_name;
        if (name == "." || name == "..")
            continue;
        if (name.find(".tmp") != std::string::npos)
            orphans.push_back(name);
        else if (endsWith(name, ".json"))
            entries.push_back(name);
        // .quarantined files are left for the operator.
    }
    ::closedir(d);
    // readdir order is filesystem-defined; sort so the scan (and its
    // log lines) are reproducible.
    std::sort(entries.begin(), entries.end());
    std::sort(orphans.begin(), orphans.end());

    for (const std::string &name : orphans) {
        // A temp file can only be an interrupted publish: the rename
        // never happened, so nothing references it.
        if (std::remove((dir_ + "/" + name).c_str()) == 0) {
            core::MutexLock lock(mutex_);
            ++stats_.tmpCleaned;
        }
    }

    Count bad = 0;
    for (const std::string &name : entries) {
        std::string path = dir_ + "/" + name;
        std::optional<std::string> data = readFile(path);
        std::string payload;
        bool ok = data && tryUnframeEntry(*data, &payload);
        {
            core::MutexLock lock(mutex_);
            ++stats_.scanned;
        }
        if (!ok) {
            warn("cache: startup scan quarantining %s", path.c_str());
            quarantine(path);
            ++bad;
        }
    }
    if (bad > 0)
        inform("cache: startup scan quarantined %llu of %zu entries",
               static_cast<unsigned long long>(bad), entries.size());
    return bad;
}

} // namespace ringsim::service
