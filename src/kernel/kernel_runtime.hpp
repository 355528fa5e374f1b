// KernelRuntime: native semantics behind the KCALL instruction.
//
// The kernel *image* (kernel_image.hpp) is what the profiler analyzes; this
// class is what actually happens when a handler executes its KCALL. It owns
// the machine-wide state: an in-memory filesystem, pipes, loopback sockets,
// the process exit table, and the spawn hook. Per-process state (registers,
// memory, heap) is reached through the KernelContext interface, implemented
// by vm::Process — keeping this module independent of the VM.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "isa/isa.hpp"
#include "kernel/syscalls.hpp"
#include "util/result.hpp"

namespace lfi::kernel {

/// Window into the calling process, implemented by vm::Process.
class KernelContext {
 public:
  virtual ~KernelContext() = default;

  virtual int64_t reg(isa::Reg r) const = 0;
  virtual void set_reg(isa::Reg r, int64_t v) = 0;
  virtual bool read_mem(uint64_t addr, void* out, uint64_t len) = 0;
  virtual bool write_mem(uint64_t addr, const void* src, uint64_t len) = 0;
  /// Bump allocation from the process heap; 0 when the heap cap is hit.
  virtual uint64_t alloc_heap(uint64_t size) = 0;
  virtual int pid() const = 0;
  virtual void request_exit(int64_t code) = 0;
};

/// Outcome of a native operation.
struct KResult {
  enum class Kind { Ok, Fail, Block } kind = Kind::Ok;
  int64_t value = 0;       // success return value
  int32_t error = 0;       // errno on Fail

  static KResult Ok(int64_t v) { return {Kind::Ok, v, 0}; }
  static KResult Fail(int32_t err) { return {Kind::Fail, 0, err}; }
  static KResult Block() { return {Kind::Block, 0, 0}; }
};

/// File descriptor kinds.
enum class FdKind { File, PipeRead, PipeWrite, Socket };

class KernelRuntime {
 public:
  struct OpenFile {
    FdKind kind = FdKind::File;
    std::string path;   // File
    uint64_t pos = 0;   // File
    int pipe_id = -1;   // Pipe*
    int sock_id = -1;   // Socket
  };

  struct Pipe {
    std::deque<uint8_t> buf;
    int readers = 0;
    int writers = 0;
  };

  struct Socket {
    std::deque<uint8_t> rx;
    std::vector<uint8_t> tx;
    bool connected = false;
    bool reset = false;
  };

  /// The kernel's complete mutable state: filesystem, listening ports, fd
  /// tables, pipes, sockets, the exit table, and the kcall counter. What
  /// Checkpoint() pins and what vm::Machine::Snapshot() carries — a
  /// restored machine resumes mid-run with its descriptors and counters
  /// exactly as they were.
  struct State {
    std::map<std::string, std::vector<uint8_t>> files;
    std::vector<int64_t> listening;
    std::map<int, std::map<int64_t, OpenFile>> fds;
    std::map<int, int64_t> next_fd;
    std::vector<Pipe> pipes;
    std::vector<Socket> sockets;
    std::map<int, int64_t> exited;
    uint64_t kcalls = 0;
  };

  KernelRuntime();

  /// Execute KCALL `number` on behalf of `ctx`. Arguments are in R1..R5.
  KResult Invoke(uint16_t number, KernelContext& ctx);

  // -- host-side configuration ---------------------------------------------
  /// Snapshot the full host-side state — filesystem and listening ports,
  /// but also fd tables, pipes, sockets, the exit table and the kcall
  /// counter — so a later Reset() restores exactly this point. Typically
  /// taken at setup time (no descriptors yet), which degenerates to the
  /// historical filesystem+ports checkpoint.
  void Checkpoint();
  bool has_checkpoint() const { return checkpoint_.has_value(); }
  /// Return to the Checkpoint()ed state (or to a pristine kernel when no
  /// checkpoint was taken). Cheap: this is what makes a kernel reusable
  /// across campaign scenarios.
  void Reset();

  /// Copy out / reinstate the complete mutable state (snapshot support).
  State CaptureState() const;
  void RestoreState(const State& state);

  /// Create / overwrite a file in the in-memory FS.
  void add_file(const std::string& path, std::vector<uint8_t> contents);
  bool has_file(const std::string& path) const;
  /// Contents of a file (empty if missing).
  std::vector<uint8_t> file_contents(const std::string& path) const;

  /// Mark a TCP-like port as listening, so connect() to it succeeds.
  void listen(int64_t port) { listening_.insert(listening_.end(), port); }

  /// Queue bytes that a subsequent recv() on `(pid, fd)` will observe.
  bool feed_socket(int pid, int64_t fd, const std::vector<uint8_t>& bytes);
  /// Bytes sent so far through `(pid, fd)`.
  std::vector<uint8_t> socket_sent(int pid, int64_t fd) const;

  /// Hook used by SYS_SPAWN: resolve a symbol name to a new process, return
  /// its pid. Installed by vm::Machine.
  using SpawnHook = std::function<Result<int>(const std::string& symbol)>;
  void set_spawn_hook(SpawnHook hook) { spawn_ = std::move(hook); }

  /// Called by the scheduler when a process terminates: releases its fds
  /// (closing pipe ends) and records the exit code for wait().
  void on_process_exit(int pid, int64_t code);

  /// Exit code of a terminated process, if any.
  std::optional<int64_t> exit_code(int pid) const;

  /// Per-process open descriptor count (testing / leak checks).
  size_t open_fd_count(int pid) const;

  /// Total number of KCALLs serviced (used by efficiency accounting).
  uint64_t kcall_count() const { return kcalls_; }

 private:
  // Syscall implementations (args already fetched from ctx).
  KResult DoOpen(KernelContext& ctx);
  KResult DoClose(KernelContext& ctx);
  KResult DoRead(KernelContext& ctx);
  KResult DoWrite(KernelContext& ctx);
  KResult DoLseek(KernelContext& ctx);
  KResult DoStat(KernelContext& ctx);
  KResult DoUnlink(KernelContext& ctx);
  KResult DoFsync(KernelContext& ctx);
  KResult DoAlloc(KernelContext& ctx);
  KResult DoFree(KernelContext& ctx);
  KResult DoPipe(KernelContext& ctx);
  KResult DoSpawn(KernelContext& ctx);
  KResult DoSocket(KernelContext& ctx);
  KResult DoConnect(KernelContext& ctx);
  KResult DoSend(KernelContext& ctx);
  KResult DoRecv(KernelContext& ctx);
  KResult DoWait(KernelContext& ctx);

  /// Read a NUL-terminated string (capped) from process memory.
  std::optional<std::string> ReadPath(KernelContext& ctx, uint64_t addr);

  OpenFile* GetFd(int pid, int64_t fd);
  int64_t AllocFd(int pid, OpenFile file);
  void CloseFd(int pid, int64_t fd);

  std::map<std::string, std::vector<uint8_t>> files_;
  /// Full state captured by Checkpoint().
  std::optional<State> checkpoint_;
  std::map<int, std::map<int64_t, OpenFile>> fds_;   // pid -> fd table
  std::map<int, int64_t> next_fd_;
  std::vector<Pipe> pipes_;
  std::vector<Socket> sockets_;
  std::vector<int64_t> listening_;
  std::map<int, int64_t> exited_;                    // pid -> exit code
  SpawnHook spawn_;
  uint64_t kcalls_ = 0;

  static constexpr int64_t kMaxFdsPerProcess = 64;
  static constexpr size_t kPipeCapacity = 65536;
  /// Largest size a write() may grow a file to (larger writes: ENOSPC).
  static constexpr uint64_t kMaxFileBytes = uint64_t{64} << 20;
};

}  // namespace lfi::kernel
