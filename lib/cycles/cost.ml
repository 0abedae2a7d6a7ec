module Sysno = Varan_syscall.Sysno

type t = {
  native_base : Sysno.t -> int;
  copy_per_byte_c100 : int;
  intercept_jump : int;
  intercept_int : int;
  intercept_vdso : int;
  intercept_extra : Sysno.t -> int;
  publish_event : int;
  publish_per_follower : int;
  consume_event : int;
  consume_vdso : int;
  waitlock_block : int;
  waitlock_wake : int;
  spin_check : int;
  waitlock_spin_cycles : int;
  shmem_alloc : int;
  shmem_copy_leader_c100 : int;
  shmem_copy_follower_c100 : int;
  fd_send : int;
  fd_recv : int;
  ptrace_stop : int;
  ptrace_getregs : int;
  ptrace_setregs : int;
  ptrace_copy_per_byte_c100 : int;
  lockstep_rendezvous : int;
  bpf_per_insn : int;
  failover_notify : int;
  failover_promote : int;
  scribe_per_syscall : int;
  scribe_copy_per_byte_c100 : int;
  cpu_ghz : float;
  physical_cores : int;
  hw_threads : int;
  mem_linear_c1000 : int;
  mem_saturated_c1000 : int;
}

(* Flat native costs, calibrated against Figure 4 for the five
   microbenchmark calls (the 512-byte copy component is charged separately
   at [copy_per_byte_c100]): close 1261, write 1430, read 1486, open 2583,
   time 49. Remaining values are plausible Linux costs on the paper's Xeon
   E3-1280, chosen relative to those anchors. *)
let default_native_base (s : Sysno.t) =
  match s with
  | Close -> 1261
  | Write | Pwrite64 | Writev -> 1302 (* + copy: 512 B -> 1430 total *)
  | Read | Pread64 | Readv -> 1358 (* + copy: 512 B -> 1486 total *)
  | Open | Openat -> 2583
  | Time | Gettimeofday | Clock_gettime | Getcpu -> 49 (* vDSO, no trap *)
  | Stat | Fstat | Lstat -> 1700
  | Lseek -> 1100
  | Poll | Select -> 1900
  | Epoll_wait -> 1800
  | Epoll_ctl -> 1400
  | Epoll_create -> 2200
  | Mmap -> 2600
  | Mprotect -> 2200
  | Munmap -> 2400
  | Brk -> 1500
  | Madvise -> 1400
  | Rt_sigaction | Rt_sigprocmask -> 1200
  | Rt_sigreturn -> 1600
  | Ioctl -> 1500
  | Access -> 1900
  | Pipe | Socketpair -> 2900
  | Sched_yield -> 900
  | Dup | Dup2 -> 1300
  | Pause -> 1200
  | Nanosleep -> 1800
  | Getpid | Getppid -> 800
  | Sendfile -> 2400
  | Socket -> 3100
  | Connect -> 4200
  | Accept | Accept4 -> 4100
  | Sendto | Sendmsg -> 1900 (* + copy *)
  | Recvfrom | Recvmsg -> 1950 (* + copy *)
  | Shutdown -> 1700
  | Bind -> 1800
  | Listen -> 1500
  | Getsockname | Getpeername -> 1300
  | Setsockopt | Getsockopt -> 1400
  | Clone | Fork -> 42_000
  | Execve -> 180_000
  | Exit | Exit_group -> 9_000
  | Wait4 -> 2_200
  | Kill -> 1_900
  | Uname -> 1_100
  | Fcntl -> 1_050
  | Flock -> 1_400
  | Fsync | Fdatasync -> 22_000
  | Ftruncate -> 2_600
  | Getdents -> 2_400
  | Getcwd -> 1_200
  | Chdir -> 1_800
  | Rename -> 3_200
  | Mkdir | Rmdir -> 3_000
  | Unlink -> 2_900
  | Readlink -> 1_900
  | Chmod -> 2_100
  | Umask -> 850
  | Getrlimit | Getrusage -> 1_150
  | Times -> 1_000
  | Getuid | Getgid | Geteuid | Getegid -> 800
  | Setuid | Setgid | Setsid -> 1_300
  | Futex -> 950
  | Getrandom -> 1_600

(* Per-call interception residuals from Figure 4's "intercept" row
   (relative to the 69-cycle jump path): write +65, read -27, open +324.
   The open residual is large because its path argument must be copied to a
   monitor-owned buffer before the handler runs. *)
let default_intercept_extra (s : Sysno.t) =
  match s with
  | Write | Pwrite64 | Writev | Sendto | Sendmsg -> 65
  | Read | Pread64 | Readv | Recvfrom | Recvmsg -> -27
  | Open | Openat -> 324
  | _ -> 0

let default =
  {
    native_base = default_native_base;
    copy_per_byte_c100 = 25;
    intercept_jump = 69;
    intercept_int = 1450; (* signal delivery + handler + sigreturn *)
    intercept_vdso = 73;
    intercept_extra = default_intercept_extra;
    publish_event = 328;
    publish_per_follower = 60;
    consume_event = 188;
    consume_vdso = 116;
    waitlock_block = 1350; (* futex wait enter + wake-side resume *)
    waitlock_wake = 1150;
    spin_check = 40;
    waitlock_spin_cycles = 6_000; (* adaptive spin before futex sleep *)
    shmem_alloc = 250;
    shmem_copy_leader_c100 = 219;
    shmem_copy_follower_c100 = 340;
    fd_send = 5424;
    fd_recv = 6761;
    ptrace_stop = 4800;
    ptrace_getregs = 750;
    ptrace_setregs = 750;
    ptrace_copy_per_byte_c100 = 150;
    lockstep_rendezvous = 1500;
    bpf_per_insn = 25;
    failover_notify = 70_000; (* ~20 us: signal + control socket round *)
    failover_promote = 210_000; (* ~60 us: election + table switch *)
    scribe_per_syscall = 3_800;
    scribe_copy_per_byte_c100 = 180;
    cpu_ghz = 3.5;
    physical_cores = 4;
    hw_threads = 8;
    mem_linear_c1000 = 155;
    mem_saturated_c1000 = 650;
  }

let copy_cycles ~rate_c100 bytes =
  if bytes <= 0 then 0 else ((bytes * rate_c100) + 99) / 100

let native c sysno bytes =
  c.native_base sysno + copy_cycles ~rate_c100:c.copy_per_byte_c100 bytes

let cycles_to_us c cycles = Int64.to_float cycles /. (c.cpu_ghz *. 1000.0)

let us_to_cycles c us = Int64.of_float (us *. c.cpu_ghz *. 1000.0)

let mem_slowdown_c1000 c ~intensity_c1000 ~variants =
  if variants <= 1 then 1000
  else begin
    let linear = (variants - 1) * c.mem_linear_c1000 * intensity_c1000 / 1000 in
    (* Shared-cache and bandwidth pressure builds up well before the
       core count is reached: hyper-threaded pairs share L1/L2 ports, so
       contention grows once more than two variants are active. *)
    let over = max 0 (variants - 2) in
    let saturated = over * c.mem_saturated_c1000 * intensity_c1000 / 1000 in
    1000 + linear + saturated
  end
