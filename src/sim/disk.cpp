#include "sim/disk.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>

namespace eternal::sim {

bool Disk::append(const std::string& name, const std::uint8_t* bytes,
                  std::size_t len) {
  if (full_) return false;
  File& f = files_[name];
  f.data.insert(f.data.end(), bytes, bytes + len);
  return true;
}

bool Disk::write_file(const std::string& name,
                      std::span<const std::uint8_t> bytes) {
  if (full_) return false;
  File& f = files_[name];
  f.data.assign(bytes.begin(), bytes.end());
  f.synced = bytes.size();  // atomic replace: durable as a unit
  return true;
}

bool Disk::drop_front(const std::string& name, std::size_t bytes) {
  const auto it = files_.find(name);
  if (full_ || it == files_.end() || bytes > it->second.data.size()) {
    return false;
  }
  DiskBytes& data = it->second.data;
  data.erase(data.begin(), data.begin() + static_cast<std::ptrdiff_t>(bytes));
  it->second.synced = data.size();  // atomic replace: durable as a unit
  return true;
}

void Disk::sync(const std::string& name) {
  const auto it = files_.find(name);
  if (it != files_.end()) it->second.synced = it->second.data.size();
}

void Disk::sync_all() {
  for (auto& [name, f] : files_) f.synced = f.data.size();
}

const DiskBytes* Disk::read(const std::string& name) const {
  const auto it = files_.find(name);
  return it == files_.end() ? nullptr : &it->second.data;
}

bool Disk::remove(const std::string& name) {
  return files_.erase(name) > 0;
}

std::vector<std::string> Disk::list(const std::string& prefix) const {
  std::vector<std::string> out;
  for (const auto& [name, f] : files_) {
    if (name.compare(0, prefix.size(), prefix) == 0) out.push_back(name);
  }
  return out;
}

void Disk::crash(bool torn) {
  for (auto& [name, f] : files_) {
    if (f.data.size() <= f.synced) continue;
    const std::size_t tail = f.data.size() - f.synced;
    // Torn write: half the in-flight tail made it to the platter before
    // power dropped, cutting a record mid-frame.
    const std::size_t keep = torn ? tail / 2 : 0;
    f.data.resize(f.synced + keep);
    f.synced = f.data.size();
  }
  full_ = false;
}

bool Disk::corrupt_byte(const std::string& name, std::size_t offset) {
  const auto it = files_.find(name);
  if (it == files_.end() || offset >= it->second.data.size()) return false;
  it->second.data[offset] ^= 0xFF;
  return true;
}

bool Disk::truncate(const std::string& name, std::size_t new_size) {
  const auto it = files_.find(name);
  if (it == files_.end() || new_size > it->second.data.size()) return false;
  it->second.data.resize(new_size);
  it->second.synced = std::min(it->second.synced, new_size);
  return true;
}

std::size_t Disk::synced_size(const std::string& name) const {
  const auto it = files_.find(name);
  return it == files_.end() ? 0 : it->second.synced;
}

std::size_t Disk::size(const std::string& name) const {
  const auto it = files_.find(name);
  return it == files_.end() ? 0 : it->second.data.size();
}

bool Disk::save_to(const std::string& dir) const {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return false;
  for (const auto& [name, f] : files_) {
    std::ofstream out(dir + "/" + name, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out.write(reinterpret_cast<const char*>(f.data.data()),
              static_cast<std::streamsize>(f.synced));
    if (!out) return false;
  }
  return true;
}

bool Disk::load_from(const std::string& dir) {
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) return false;
  for (const auto& entry : it) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    if (!in) return false;
    File f;
    f.data.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
    f.synced = f.data.size();
    files_[entry.path().filename().string()] = std::move(f);
  }
  return true;
}

DiskFarm::DiskFarm(std::size_t nodes) : disks_(nodes) {}

void DiskFarm::crash_all(bool torn) {
  for (Disk& d : disks_) d.crash(torn);
}

void DiskFarm::sync_all() {
  for (Disk& d : disks_) d.sync_all();
}

bool DiskFarm::save_to(const std::string& dir) const {
  for (std::size_t n = 0; n < disks_.size(); ++n) {
    char sub[32];
    std::snprintf(sub, sizeof sub, "/node-%zu", n);
    if (!disks_[n].save_to(dir + sub)) return false;
  }
  return true;
}

bool DiskFarm::load_from(const std::string& dir) {
  for (std::size_t n = 0; n < disks_.size(); ++n) {
    char sub[32];
    std::snprintf(sub, sizeof sub, "/node-%zu", n);
    if (!disks_[n].load_from(dir + sub)) return false;
  }
  return true;
}

}  // namespace eternal::sim
