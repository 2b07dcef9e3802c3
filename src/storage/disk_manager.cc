#include "storage/disk_manager.h"

#include <cstring>

#include "util/metrics.h"

namespace relopt {

FileId DiskManager::CreateFile() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  FileId id = next_file_id_++;
  files_.try_emplace(id);
  return id;
}

void DiskManager::DeleteFile(FileId file_id) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  files_.erase(file_id);
}

bool DiskManager::FileExists(FileId file_id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return files_.count(file_id) > 0;
}

Result<DiskManager::File*> DiskManager::GetFileLocked(FileId file_id) {
  auto it = files_.find(file_id);
  if (it == files_.end()) {
    return Status::NotFound("file " + std::to_string(file_id) + " does not exist");
  }
  return &it->second;
}

Result<PageNo> DiskManager::AllocatePage(FileId file_id) {
  auto page = std::make_unique<char[]>(kPageSize);  // value-initialized: zeroed
  std::unique_lock<std::shared_mutex> lock(mu_);
  RELOPT_ASSIGN_OR_RETURN(File * file, GetFileLocked(file_id));
  file->pages.push_back(std::move(page));
  file->pages_allocated.fetch_add(1, std::memory_order_relaxed);
  pages_allocated_.fetch_add(1, std::memory_order_relaxed);
  EngineMetrics::Get().disk_pages_allocated->Add(1);
  return static_cast<PageNo>(file->pages.size() - 1);
}

Status DiskManager::ReadPage(PageId page_id, char* out) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  RELOPT_ASSIGN_OR_RETURN(File * file, GetFileLocked(page_id.file_id));
  if (page_id.page_no >= file->pages.size()) {
    return Status::OutOfRange("read past end of file " + page_id.ToString());
  }
  std::memcpy(out, file->pages[page_id.page_no].get(), kPageSize);
  file->page_reads.fetch_add(1, std::memory_order_relaxed);
  page_reads_.fetch_add(1, std::memory_order_relaxed);
  EngineMetrics::Get().disk_page_reads->Add(1);
  LocalIoCounters().page_reads++;
  return Status::OK();
}

Status DiskManager::WritePage(PageId page_id, const char* data) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  RELOPT_ASSIGN_OR_RETURN(File * file, GetFileLocked(page_id.file_id));
  if (page_id.page_no >= file->pages.size()) {
    return Status::OutOfRange("write past end of file " + page_id.ToString());
  }
  std::memcpy(file->pages[page_id.page_no].get(), data, kPageSize);
  file->page_writes.fetch_add(1, std::memory_order_relaxed);
  page_writes_.fetch_add(1, std::memory_order_relaxed);
  EngineMetrics::Get().disk_page_writes->Add(1);
  LocalIoCounters().page_writes++;
  return Status::OK();
}

size_t DiskManager::NumPages(FileId file_id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = files_.find(file_id);
  return it == files_.end() ? 0 : it->second.pages.size();
}

IoStats DiskManager::stats() const {
  IoStats s;
  s.page_reads = page_reads_.load(std::memory_order_relaxed);
  s.page_writes = page_writes_.load(std::memory_order_relaxed);
  s.pages_allocated = pages_allocated_.load(std::memory_order_relaxed);
  return s;
}

IoStats DiskManager::FileStats(FileId file_id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = files_.find(file_id);
  if (it == files_.end()) return IoStats{};
  IoStats s;
  s.page_reads = it->second.page_reads.load(std::memory_order_relaxed);
  s.page_writes = it->second.page_writes.load(std::memory_order_relaxed);
  s.pages_allocated = it->second.pages_allocated.load(std::memory_order_relaxed);
  return s;
}

void DiskManager::ResetStats() {
  std::shared_lock<std::shared_mutex> lock(mu_);
  page_reads_.store(0, std::memory_order_relaxed);
  page_writes_.store(0, std::memory_order_relaxed);
  pages_allocated_.store(0, std::memory_order_relaxed);
  for (auto& [id, file] : files_) {
    file.page_reads.store(0, std::memory_order_relaxed);
    file.page_writes.store(0, std::memory_order_relaxed);
    file.pages_allocated.store(0, std::memory_order_relaxed);
  }
}

}  // namespace relopt
