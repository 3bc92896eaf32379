// The disk tier behind PhaseBStorage::kSpill: the delta-compressed move
// records (MoveRecordCodec, addressed through a two-level MoveLayout) live
// in an unlinked temporary file instead of RAM. Three cooperating pieces:
//
//  * SpillFile — RAII fd + mmap owner. Every failure mode (unwritable
//    tmpdir, ENOSPC mid-write, a file shorter than the layout promises)
//    surfaces as an SSR_REQUIRE error naming the path and the projected
//    spill bytes — never a crash, a SIGBUS or a silent short read.
//
//  * SpillWriteQueue / SpillBlockWriter — the encode-side pipeline. Each
//    Phase A worker owns one double-buffered SpillBlockWriter: while the
//    worker encodes records into one buffer, the single background flush
//    thread pwrite()s the other at its precomputed stream offset, so
//    encoding and disk I/O overlap and no worker ever holds more than two
//    block buffers (<= 128 KiB) of stream bytes in RAM.
//
//  * SpillMoveStore — the peel-side reader. After the encode pass it maps
//    the stream read-only (madvise MADV_SEQUENTIAL) and starts a prefetch
//    thread that advises MADV_WILLNEED a window of blocks ahead of the
//    consumers' maximum progress cursor; the level-synchronous peel
//    re-streams the file once per round, so the cursor rewinds at every
//    round boundary.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "verify/phaseb_store.hpp"

namespace ssr::verify {

/// Spill directory resolution: an explicit request wins, else
/// SSRING_CHECK_TMPDIR, else TMPDIR, else /tmp.
std::string resolve_spill_dir(const std::string& requested);

/// One temporary file holding the spilled record stream. create() unlinks
/// the file immediately (the fd keeps it alive), so aborted runs leak no
/// tmp files; open_path() adopts an existing path for the error-path
/// tests (/dev/full, pre-truncated files).
class SpillFile {
 public:
  SpillFile() = default;
  ~SpillFile() { close(); }
  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  void create(const std::string& dir, std::uint64_t projected_bytes);
  void open_path(const std::string& path, std::uint64_t projected_bytes);
  /// Sparse-extends the file to @p bytes (writes fill it in afterwards).
  void truncate(std::uint64_t bytes);
  /// Full pwrite at @p offset; EINTR is retried, everything else throws.
  void write_at(std::uint64_t offset, const void* data, std::size_t len);
  /// Maps exactly @p expected_bytes read-only, fstat-checking the on-disk
  /// size first so truncation is an error instead of a SIGBUS later.
  /// Advises MADV_SEQUENTIAL. A zero-byte stream maps to nullptr.
  const std::uint8_t* map_readonly(std::uint64_t expected_bytes);
  /// MADV_WILLNEED on [offset, offset + len) of the mapping.
  void advise_willneed(std::uint64_t offset, std::uint64_t len) const;
  /// MADV_DONTNEED on the fully-covered pages of [offset, offset + len).
  /// Non-destructive for this read-only MAP_SHARED mapping: it only
  /// unmaps the pages from this process (RSS drops); a later access
  /// re-faults them from the page cache.
  void advise_dontneed(std::uint64_t offset, std::uint64_t len) const;
  void close();

  const std::string& path() const { return path_; }
  bool is_open() const { return fd_ >= 0; }

 private:
  [[noreturn]] void fail(const std::string& what, int err) const;

  int fd_ = -1;
  std::string path_;
  std::uint64_t projected_bytes_ = 0;
  std::uint8_t* map_ = nullptr;
  std::uint64_t map_bytes_ = 0;
};

/// Single background flush thread draining block-write jobs to a
/// SpillFile. Producers mark a buffer busy on submit(); the flusher
/// clears the flag once the pwrite landed, and wait_free() blocks until
/// then. A write error is latched and rethrown (as the original
/// SSR_REQUIRE error) from the next wait_free()/finish().
class SpillWriteQueue {
 public:
  explicit SpillWriteQueue(SpillFile& file) : file_(&file) {}
  ~SpillWriteQueue();
  SpillWriteQueue(const SpillWriteQueue&) = delete;
  SpillWriteQueue& operator=(const SpillWriteQueue&) = delete;

  void start();
  void submit(const std::uint8_t* data, std::uint64_t offset, std::size_t len,
              bool* busy);
  void wait_free(bool* busy);
  /// Drains the queue, joins the thread, rethrows the first write error.
  void finish();
  /// Drains and joins without throwing (unwind paths: submitted buffers
  /// must outlive the flush thread).
  void abort() noexcept;

 private:
  struct Job {
    const std::uint8_t* data;
    std::uint64_t offset;
    std::size_t len;
    bool* busy;
  };
  void flush_loop();

  SpillFile* file_;
  std::mutex mu_;
  std::condition_variable jobs_cv_;  ///< producers -> flusher
  std::condition_variable done_cv_;  ///< flusher -> waiting producers
  std::deque<Job> jobs_;
  std::thread thread_;
  bool stop_ = false;
  std::string error_;
};

/// Per-worker double buffer feeding a SpillWriteQueue. begin_block()
/// returns scratch for the next record block (waiting until the flusher
/// released it); end_block() hands it off for the background pwrite.
class SpillBlockWriter {
 public:
  SpillBlockWriter(SpillWriteQueue& queue, std::size_t buffer_bytes)
      : queue_(&queue) {
    buf_[0].resize(buffer_bytes);
    buf_[1].resize(buffer_bytes);
  }

  std::uint8_t* begin_block(std::uint64_t bytes) {
    queue_->wait_free(&busy_[cur_]);
    if (buf_[cur_].size() < bytes) buf_[cur_].resize(bytes);
    return buf_[cur_].data();
  }

  void end_block(std::uint64_t file_offset, std::uint64_t bytes) {
    queue_->submit(buf_[cur_].data(), file_offset,
                   static_cast<std::size_t>(bytes), &busy_[cur_]);
    cur_ ^= 1;
  }

 private:
  SpillWriteQueue* queue_;
  std::vector<std::uint8_t> buf_[2];
  bool busy_[2] = {false, false};
  int cur_ = 0;
};

/// The spilled record stream: written once through the flush queue at the
/// offsets its MoveLayout assigns, then mapped read-only for the peel with
/// MADV_WILLNEED prefetch running a window ahead of the consumers.
class SpillMoveStore {
 public:
  SpillMoveStore() = default;
  ~SpillMoveStore() { release(); }
  SpillMoveStore(const SpillMoveStore&) = delete;
  SpillMoveStore& operator=(const SpillMoveStore&) = delete;

  void prepare(std::uint64_t total, const MoveRecordCodec& codec,
               std::string dir, std::uint64_t projected_file_bytes);

  MoveLayout& layout() { return layout_; }
  const MoveLayout& layout() const { return layout_; }

  /// Prefix-sums the layout, creates + sizes the spill file and starts
  /// the flush thread. Call between pass 1 and the encode pass.
  void finalize_layout();
  SpillWriteQueue& write_queue() { return queue_; }

  /// Drains the flush queue, verifies the on-disk size, maps the stream
  /// read-only and starts the prefetch thread advising @p window_blocks
  /// record blocks ahead of the consumers.
  void seal_for_read(std::uint32_t window_blocks);

  /// Round boundary: the peel re-streams the file from the start each
  /// round, so both the progress and the advised cursor rewind.
  void begin_round();
  /// Peel workers report the stream end offset of the block they just
  /// entered; the prefetch thread keeps the advised window ahead of the
  /// maximum.
  void note_progress(std::uint64_t byte_offset);

  const std::uint8_t* record_at(std::uint64_t c) const {
    return map_ + layout_.offset_of(c);
  }
  std::uint64_t stream_bytes() const { return layout_.total_bytes(); }
  const std::string& path() const { return file_.path(); }

  /// Stops the prefetch thread, unmaps and closes (idempotent).
  void release();

 private:
  void prefetch_loop();

  MoveLayout layout_;
  SpillFile file_;
  SpillWriteQueue queue_{file_};
  std::string dir_;
  std::uint64_t projected_file_bytes_ = 0;
  const std::uint8_t* map_ = nullptr;
  std::uint64_t window_bytes_ = 0;
  std::thread prefetch_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::atomic<std::uint64_t> progress_{0};
  std::uint64_t advised_ = 0;
  std::uint64_t dropped_ = 0;
  bool stop_prefetch_ = false;
};

}  // namespace ssr::verify
