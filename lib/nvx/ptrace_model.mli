(** The ptrace interception cost model used by the lockstep baseline.

    Quantifies why "ptrace is slow" (§1, §2.1): for each system call of
    each version, execution stops twice (syscall-entry and syscall-exit),
    each stop context-switching to the monitor process and back; the
    monitor reads and writes the tracee's registers, copies argument and
    result buffers word by word through the ptrace interface, and performs
    its own bookkeeping syscalls. The paper attributes up to two orders of
    magnitude of slowdown on I/O-bound applications to exactly these
    costs. *)

val per_syscall_overhead : Varan_cycles.Cost.t -> int
(** Fixed per-syscall, per-variant cost: two stops, register read/write,
    centralised monitor dispatch. *)

val arg_copy_cost : Varan_cycles.Cost.t -> Varan_syscall.Args.t -> int
(** Copy-in cost for a call's by-reference arguments. *)

val result_copy_cost : Varan_cycles.Cost.t -> Varan_syscall.Args.result -> int
(** Copy-out cost for a call's result payload. *)

val estimated_server_overhead :
  Varan_cycles.Cost.t ->
  syscalls_per_request:int ->
  avg_payload_bytes:int ->
  request_cycles:int ->
  float
(** Analytic overhead prediction for a server with the given per-request
    profile — used in tests to sanity-check the simulated lockstep
    numbers against the closed form. *)
