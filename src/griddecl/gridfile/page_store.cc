#include "griddecl/gridfile/page_store.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "griddecl/common/backoff.h"
#include "griddecl/common/random.h"

namespace griddecl {

namespace {

/// Sleeps `delay_ms` in 5 ms slices, bailing as soon as `interrupt`
/// reports non-Ok (the caller's loop re-checks and surfaces the status).
void SleepInterruptible(double delay_ms, const InterruptFn& interrupt) {
  while (delay_ms > 0.0) {
    if (interrupt && !interrupt().ok()) return;
    const double slice = std::min(delay_ms, 5.0);
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(slice));
    delay_ms -= slice;
  }
}

}  // namespace

PageStore::PageStore(const StorageEnv* env, const Options& options)
    : env_(env), options_(options) {
  if (options_.pool_pages > 0) {
    pool_ = std::make_unique<BufferPool>(options_.pool_pages);
  }
}

void PageStore::RegisterFile(const std::string& file,
                             const FileLayout& layout) {
  {
    std::lock_guard<std::mutex> lock(layouts_mu_);
    layouts_[file] = layout;
  }
  if (pool_ != nullptr) pool_->Invalidate(file);
}

const FileLayout* PageStore::GetLayout(const std::string& file) const {
  std::lock_guard<std::mutex> lock(layouts_mu_);
  auto it = layouts_.find(file);
  return it == layouts_.end() ? nullptr : &it->second;
}

Result<std::string> PageStore::ReadWithRetries(
    const std::string& file, uint64_t offset, uint64_t length,
    const ReadPolicy& policy, PageReadStats* stats,
    const InterruptFn& interrupt) const {
  const uint64_t token =
      Mix64(HashString(Mix64(0x5e7e5e7eull), file) ^ offset);
  for (uint32_t attempt = 0;; ++attempt) {
    if (interrupt) {
      Status st = interrupt();
      if (!st.ok()) return st;
    }
    Result<std::string> bytes = env_->ReadAt(file, offset, length);
    if (bytes.ok()) {
      if (stats != nullptr) stats->physical_reads++;
      return bytes;
    }
    if (bytes.status().code() != StatusCode::kUnavailable) {
      return bytes.status();  // Only transient unavailability retries.
    }
    if (attempt + 1 >= policy.retry.max_attempts) return bytes.status();
    if (stats != nullptr) stats->retries++;
    SleepInterruptible(
        BackoffDelayMs(policy.retry, options_.seed, token, attempt),
        interrupt);
  }
}

Result<PinnedPage> PageStore::BuildPinned(const std::string& file,
                                          uint64_t page,
                                          const FileLayout& layout,
                                          std::string page_bytes,
                                          const ReadPolicy& policy) {
  Status damage = Status::Ok();
  if (policy.verify) {
    damage = VerifyPageBytes(page_bytes, layout, page);
  }
  auto frame = std::make_shared<BufferPool::Frame>();
  frame->file = file;
  frame->page = page;
  if (damage.ok()) {
    Result<DecodedPage> decoded = DecodePageBytes(page_bytes, layout, page);
    if (decoded.ok()) {
      frame->decoded = std::move(decoded).value();
    } else {
      damage = decoded.status();
    }
  }
  frame->raw = std::move(page_bytes);

  if (!damage.ok()) {
    if (policy.on_damage == ReadPolicy::OnDamage::kFail) {
      // Corruption reads as unavailability: degraded paths repair it.
      return Status::Unavailable("page " + std::to_string(page) + " of '" +
                                 file + "': " + damage.message());
    }
    PinnedPage pinned;
    pinned.frame_ = std::move(frame);
    pinned.damaged_ = true;
    pinned.damage_reason_ = damage.message();
    return pinned;  // Never pooled: damage must be re-observed.
  }

  BufferPool::FramePtr resident = frame;
  if (pool_ != nullptr && policy.pin == ReadPolicy::Pin::kPool) {
    resident = pool_->Admit(std::move(frame));
  }
  PinnedPage pinned;
  pinned.frame_ = std::move(resident);
  return pinned;
}

Result<PinnedPage> PageStore::GetPage(const std::string& file,
                                      uint64_t page,
                                      const ReadPolicy& policy,
                                      PageReadStats* stats,
                                      const InterruptFn& interrupt) {
  if (interrupt) {
    Status st = interrupt();
    if (!st.ok()) return st;
  }
  FileLayout layout;
  {
    std::lock_guard<std::mutex> lock(layouts_mu_);
    auto it = layouts_.find(file);
    if (it == layouts_.end()) {
      return Status::NotFound("no layout registered for '" + file + "'");
    }
    layout = it->second;
  }
  if (page >= layout.num_pages) {
    return Status::InvalidArgument("page index out of range");
  }
  if (pool_ != nullptr && policy.pin == ReadPolicy::Pin::kPool) {
    if (BufferPool::FramePtr hit = pool_->Lookup(file, page)) {
      if (stats != nullptr) stats->cache_hit = true;
      PinnedPage pinned;
      pinned.frame_ = std::move(hit);
      return pinned;
    }
  }
  Result<std::string> bytes =
      ReadWithRetries(file, layout.PageOffset(page), layout.page_size_bytes,
                      policy, stats, interrupt);
  if (!bytes.ok()) return bytes.status();
  return BuildPinned(file, page, layout, std::move(bytes).value(), policy);
}

Result<std::string> PageStore::ReadRaw(const std::string& file,
                                       uint64_t offset, uint64_t length,
                                       const ReadPolicy& policy,
                                       PageReadStats* stats,
                                       const InterruptFn& interrupt) {
  return ReadWithRetries(file, offset, length, policy, stats, interrupt);
}

Result<PinnedPage> PageStore::AdmitReconstructed(const std::string& file,
                                                 uint64_t page,
                                                 std::string page_bytes) {
  FileLayout layout;
  {
    std::lock_guard<std::mutex> lock(layouts_mu_);
    auto it = layouts_.find(file);
    if (it == layouts_.end()) {
      return Status::NotFound("no layout registered for '" + file + "'");
    }
    layout = it->second;
  }
  Status verify = VerifyPageBytes(page_bytes, layout, page);
  if (!verify.ok()) return verify;
  ReadPolicy policy;  // verify done above; pin to pool.
  policy.verify = false;
  return BuildPinned(file, page, layout, std::move(page_bytes), policy);
}

void PageStore::Invalidate(const std::string& file) {
  if (pool_ != nullptr) pool_->Invalidate(file);
}

BufferPool::Stats PageStore::PoolStats() const {
  return pool_ != nullptr ? pool_->GetStats() : BufferPool::Stats{};
}

void PageStore::PublishMetrics(obs::MetricsRegistry* out) const {
  if (out == nullptr) return;
  const BufferPool::Stats stats = PoolStats();
  const auto set_counter = [out](const char* name, uint64_t v) {
    obs::Counter* c = out->GetCounter(name);
    c->Reset();
    c->Inc(v);
  };
  set_counter("storage.pool.hits", stats.hits);
  set_counter("storage.pool.misses", stats.misses);
  set_counter("storage.pool.admissions", stats.admissions);
  set_counter("storage.pool.evictions", stats.evictions);
  set_counter("storage.pool.promotions", stats.promotions);
  out->GetGauge("storage.pool.resident")
      ->Set(static_cast<double>(stats.resident));
  out->GetGauge("storage.pool.capacity")
      ->Set(static_cast<double>(pool_ != nullptr ? pool_->capacity() : 0));
}

}  // namespace griddecl
